import json

import pytest

from fflab.cli import main


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
