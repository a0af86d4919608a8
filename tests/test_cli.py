import json

import pytest

from fflab.cli import main
from fflab.hecke import f_of_m, satake_direct
from fflab.localfield import LocalField


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["invariant", "--config", str(bad)]) == 2


def test_invalid_values_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 6}))
    assert main(["invariant", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"q": 3, "n": 9}))
    assert main(["invariant", "--config", str(cfg)]) == 2
    assert main(["verify"]) == 2  # verify without a suite


def test_invariant_run(tmp_path):
    out = tmp_path / "rep.jsonl"
    rc = main(["invariant", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["ok"] and rec["regular_semisimple"]
    assert (tmp_path / "rep.jsonl.csv").exists()


def test_orbital_run_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    args = ["orbital", "--seed", "1", "--hecke", "T_1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_satake_run(tmp_path):
    out = tmp_path / "s.jsonl"
    rc = main(["satake", "--hecke", "S_1", "--n", "2", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["ok"]


def test_satake_run_of_a_convolution(tmp_path):
    out = tmp_path / "s.jsonl"
    rc = main(["satake", "--n", "2", "--hecke", "f(1,1)", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text().splitlines()[0])
    F = LocalField(3)
    assert rec["image"] == satake_direct(f_of_m(2, (1, 1), F), (1, 1), F).to_json()


def test_verify_small_suite(tmp_path):
    out = tmp_path / "v.jsonl"
    rc = main(["verify", "--suite", "sym-identities", "--out", str(out)])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(r["ok"] for r in lines)
    ids = [r["id"] for r in lines]
    assert any(i.endswith("precision-stability") for i in ids)
    assert any(i.endswith("thread-stability") for i in ids)


def test_unknown_suite(tmp_path):
    assert main(["verify", "--suite", "nope"]) == 2


@pytest.mark.parametrize("data", [
    {"n": "x"},
    {"precision": 2.5},
    {"n": True},
    {"seed": "1"},
    {"window": None},
    {"hecke": 5},
    {"e1": "unramified", "e2": "split"},
    {"e1": "ramified", "e2": "split"},
    {"precision": 0},
    {"e1": "quaternion"},
    {"suite": 3},
    [{"q": 3}],
])
def test_bad_config_values_exit_2(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["orbital", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("flags", [
    ["--e1", "unramified", "--e2", "split"],
    ["--e1", "ramified", "--e2", "split"],
])
def test_split_second_algebra_flags_exit_2(flags):
    assert main(["invariant"] + flags) == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbital_ok_is_the_matching_identity(tmp_path, seed):
    out = tmp_path / "o.jsonl"
    rc = main(["orbital", "--seed", str(seed), "--hecke", "T_1", "--out", str(out)])
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["ok"] == (rec["beta"] == rec["alpha_at_zero"])
    assert rc == (0 if rec["ok"] else 1)


@pytest.mark.parametrize("seed, alpha", [
    (0, {"-2": "7", "0": "-14", "2": "7"}),
    (2, {"-2": "8", "0": "-16", "2": "8"})])
def test_orbital_n2_pair_with_a_degree_two_centralizer(tmp_path, seed, alpha):
    # random_pair(E1, E1, 2, seed) at q = 3 has a centralizer that is one
    # field of degree 2 (ramified at seed 0, unramified at seed 2)
    out = tmp_path / "o.jsonl"
    rc = main(["orbital", "--n", "2", "--q", "3", "--seed", str(seed),
               "--hecke", "T_1", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec == {"alpha": alpha, "alpha_at_zero": "0", "beta": "0",
                   "id": f"orbital/seed{seed}/T_1", "ok": True, "precision": 40,
                   "windows": [2, 5]}


def test_orbital_n2_pair_with_a_ramified_centralizer_and_nonzero_beta(tmp_path):
    # the ramified-by-unramified n = 2 pair of seed 0 at q = 3: its
    # centralizer is a ramified field whose primitive element is pi times a
    # unit, and only Gamma generated by that field's uniformizer, not by
    # pi, gives alpha(0) = beta
    out = tmp_path / "o.jsonl"
    rc = main(["orbital", "--n", "2", "--q", "3", "--seed", "0", "--e1", "ramified",
               "--hecke", "T_1", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec == {"alpha": {"-2": "7", "0": "-7", "2": "7"}, "alpha_at_zero": "7",
                   "beta": "7", "id": "orbital/seed0/T_1", "ok": True, "precision": 40,
                   "windows": [3, 5]}


@pytest.mark.parametrize("command,spec", [
    ("satake", "f(a)"),
    ("satake", "T_x"),
    ("satake", "S_"),
    ("satake", "S_3"),
    ("satake", "pi^x*unit"),
    ("satake", "bogus"),
    ("orbital", "f(1,b)"),
    ("orbital", "T_1.5"),
])
def test_malformed_hecke_spec_exits_2(command, spec):
    assert main([command, "--hecke", spec]) == 2


@pytest.mark.parametrize("e2", ["split", "unramified", "ramified"])
def test_orbital_split_first_algebra_exits_2(e2):
    # alpha(0) = beta is checked for a non-split first algebra only
    assert main(["orbital", "--e1", "split", "--e2", e2]) == 2


def test_both_ramified_exits_2():
    assert main(["invariant", "--e1", "ramified", "--e2", "ramified"]) == 2


# at even q the ramified quadratic model and the invariant of a split and an
# unramified algebra are unsupported: each combination is a config error
_EVEN_Q_UNSUPPORTED = [
    ("invariant", "split", "unramified"),
    ("invariant", "split", "ramified"),
    ("invariant", "unramified", "ramified"),
    ("invariant", "ramified", "unramified"),
    ("orbital", "unramified", "ramified"),
    ("orbital", "ramified", "unramified"),
]


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("command,e1,e2", _EVEN_Q_UNSUPPORTED)
def test_unsupported_even_q_combinations_exit_2(command, e1, e2, q, capsys):
    assert main([command, "--q", str(q), "--e1", e1, "--e2", e2]) == 2
    assert capsys.readouterr().err.startswith("config error")
