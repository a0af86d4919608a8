"""Outside-in tracing of fflab and the fixed-input kernel timings.

``Tracer.install()`` wraps, from outside the package, the public functions of
every layer module and the public methods (plus constructors and arithmetic
operators) of the classes they define.  Modules bind functions by name at
import time (``orbital`` and ``suites`` import ``canonicalize``), so every
``fflab.*`` module binding of a wrapped function is replaced too.

Most wrappers are spans: they count the call and add the call's time minus
the time of the spans it caused to its layer's self time.  The residue and
series arithmetic of ``finitefield`` and ``localfield`` is called millions of
times, so those operators are aggregated instead: every call is counted, and
only calls from outside these two modules are timed, as one interval each.
"""

import functools
import importlib
import inspect
import random
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("finitefield", "localfield", "linalg", "factor", "etale",
          "lattices", "pairs", "hecke", "orbital", "reduction", "suites")
LEAF_LAYERS = ("finitefield", "localfield")
DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
           "__truediv__", "__call__")

EVALUATE = "orbital.OrbitalProblem.evaluate"
REDUCE_STACK = "lattices.GammaGroup.reduce_stack"
GAP_OF_STACK = "orbital.OrbitalProblem.gap_of_stack"
RANDOM_PAIR = "pairs.random_pair"

# per-layer call metrics -> wrapped functions whose calls they sum.  The
# localfield ones count calls made from outside the arithmetic layers, so a
# subtraction is one add however __sub__ is implemented; a division is one
# multiply and one inverse.
CALL_METRICS = {
    "localfield.mul.calls": ("localfield.FieldElement.__mul__",
                             "localfield.FieldElement.__truediv__"),
    "localfield.add.calls": ("localfield.FieldElement.__add__",
                             "localfield.FieldElement.__sub__"),
    "localfield.inv.calls": ("localfield.FieldElement.inv",
                             "localfield.FieldElement.__truediv__"),
    "linalg.row_echelon.calls": ("linalg.row_echelon",),
    "linalg.linear_solve.calls": ("linalg.linear_solve",),
    "linalg.mat_det.calls": ("linalg.mat_det",),
    "lattices.canonicalize.calls": ("lattices.canonicalize",),
    "lattices.smith_exponents.calls": ("lattices.smith_exponents",),
    "lattices.smith_exponents_rectangular.calls": (
        "lattices.smith_exponents_rectangular",),
    "lattices.neighbor_stacks.calls": (
        "lattices.StableFamily.neighbor_stacks",
        "lattices.SplitStableFamily.neighbor_stacks"),
    "lattices.reduce_stack.calls": (REDUCE_STACK,),
    "lattices.stable_superlattices.calls": (
        "lattices.StableFamily.stable_superlattices",
        "lattices.SplitStableFamily.stable_superlattices"),
    "factor.hensel_factor.calls": ("factor.hensel_factor",),
    "pairs.random_pair.calls": (RANDOM_PAIR,),
    "pairs.centralizer.calls": ("pairs.centralizer",),
    "pairs.match_alpha.calls": ("pairs.match_alpha",),
    "hecke.satake_direct.calls": ("hecke.satake_direct",),
    "hecke.convolve.calls": ("hecke.convolve",),
    "orbital.problem.calls": ("orbital.OrbitalProblem.__init__",),
    "orbital.evaluate.calls": (EVALUATE,),
    "orbital.gap_of_stack.calls": (GAP_OF_STACK,),
    "orbital.contribution.calls": ("orbital.OrbitalProblem.contribution",),
    "reduction.verify_reduction.calls": ("reduction.verify_reduction",),
    "reduction.snf_full.calls": ("reduction.snf_full",),
}


class Tracer:
    """Call counts and per-layer self time of one traced pass."""

    def __init__(self):
        self.calls = Counter()        # every call, per wrapped function
        self.outer = Counter()        # arithmetic calls from outside the leaves
        self.self_s = defaultdict(float)
        self.tries = 0                # random_pair attempts
        self.radius_max = 0           # largest traversal radius of evaluate
        self.in_evaluate = Counter()  # reduce_stack/gap_of_stack inside evaluate
        self.originals = {}           # wrapped name -> original function
        self._stack = [[0.0]]         # child time of each open span
        self._in_leaf = [False]
        self._evaluate_depth = [0]

    # -- wrappers ---------------------------------------------------------------

    def _leaf(self, fn, name, layer):
        calls, outer, self_s = self.calls, self.outer, self.self_s
        stack, in_leaf, clock = self._stack, self._in_leaf, time.perf_counter

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            calls[name] += 1
            if in_leaf[0]:
                return fn(*args, **kwargs)
            outer[name] += 1
            in_leaf[0] = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                in_leaf[0] = False
                self_s[layer] += dt
                stack[-1][0] += dt
        return leaf

    def _span(self, fn, name, layer):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        depth, in_evaluate = self._evaluate_depth, self.in_evaluate
        is_evaluate = name == EVALUATE
        count_in_evaluate = name in (REDUCE_STACK, GAP_OF_STACK)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            if count_in_evaluate and depth[0]:
                in_evaluate[name] += 1
            if is_evaluate:
                depth[0] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
                if is_evaluate:
                    depth[0] -= 1
            if is_evaluate:
                self.radius_max = max(self.radius_max, result[1])
            elif name == RANDOM_PAIR:
                self.tries += result[2]
            return result
        return span

    def _wrap(self, fn, name, layer):
        self.originals[name] = fn
        if layer in LEAF_LAYERS:
            return self._leaf(fn, name, layer)
        return self._span(fn, name, layer)

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every layer; returns the CALL_METRICS functions not found."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module("fflab." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}", layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "fflab" and not modname.startswith("fflab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return sorted(name for names in CALL_METRICS.values() for name in names
                      if name not in self.originals)

    def _wrap_class(self, cls, prefix, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if attr == "__init__" and layer in LEAF_LAYERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                setattr(cls, attr, type(val)(self._wrap(val.__func__, name, layer)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, name, layer))

    # -- results ----------------------------------------------------------------

    def metrics(self):
        """Per-layer counts and self times of the traced pass."""
        out = {}
        for metric, names in CALL_METRICS.items():
            source = self.outer if metric.startswith("localfield.") else self.calls
            out[metric] = sum(source[n] for n in names)
        out["pairs.random_pair.tries"] = self.tries
        gaps = self.in_evaluate[GAP_OF_STACK]
        out["orbital.prune_ratio"] = (1 - self.in_evaluate[REDUCE_STACK] / gaps
                                      if gaps else 0.0)
        out["orbital.radius.max"] = self.radius_max
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out


# -- kernel timings on fixed inputs ---------------------------------------------


def _per_call_us(op, batches=7, min_batch_s=0.02):
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            op()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        n *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            op()
        times.append((time.perf_counter() - t0) / n)
    times.sort()
    return times[len(times) // 2] * 1e6


def kernel_timings():
    """Microseconds per call of the hot kernels on seeded fixed inputs."""
    from fflab import LocalField, canonicalize
    from fflab.lattices import smith_exponents_rectangular
    from fflab.linalg import Matrix

    rng = random.Random(2208)
    out = {}
    for q in (3, 9):
        for n in (8, 40):
            field = LocalField(q, n)
            a, b = (field.element(0, [rng.randrange(1, q)]
                                  + [rng.randrange(q) for _ in range(n - 1)],
                                  known_to=n) for _ in range(2))
            out[f"localfield.mul_us.q{q}.n{n}"] = _per_call_us(lambda: a * b)
            out[f"localfield.inv_us.q{q}.n{n}"] = _per_call_us(a.inv)
    field = LocalField(3, 40)
    stack = Matrix(field, [[field.random_element(rng, 0, 2) for _ in range(8)]
                           for _ in range(4)])
    out["lattices.canonicalize_us"] = _per_call_us(lambda: canonicalize(field, stack))
    out["lattices.smith_exponents_rectangular_us"] = _per_call_us(
        lambda: smith_exponents_rectangular(stack))
    return out
