"""Layer spans and work counts for a traced repetition.

Wrappers go around the public functions of each qsnake module (and the
private sparse kernels other modules import), at combination and operator
granularity.  Per-LoopMonomial methods are left alone: wrapping them
costs about a tenth of the run.  A wrapper replaces the original in every
qsnake namespace that holds it, because ``cli`` and ``snail`` bind names
with ``from ... import``; methods are replaced on their class.

The layer of a wrapped function is the module that defines it.  Each CLI
line is a root span of layer ``cli``, so a layer's self time is its span
time minus the time of its wrapped children, and the self times of all
layers add up to the time spent in the lines.  Count hooks run after a
span closes; their time is charged to no layer.  The speed sampler's
loops (speed.py) preempt whichever layer is running, so they fall on the
layers in proportion to their time and leave the shares unbiased.
"""

import importlib
import inspect
import sys
import time

import numpy as np

_RATFUN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
               "__call__")

# module -> names wrapped there; "Class.method" names a method.
TRACED = {
    "loopring": (
        "LaurentCombination.__mul__", "LaurentCombination.__rmul__",
        "LaurentCombination.__add__", "LaurentCombination.__sub__",
        "LaurentCombination.__neg__", "LaurentCombination.__eq__",
        "LaurentCombination.shifted", "multiply", "dominant_monomials",
        "antidominant_monomials", "a_decompose", "to_text", "from_text"),
    "qchar": (
        "fundamental_qchar", "alternating_snake_spec", "snake_qchar",
        "laurent_divide", "kr_qchar", "alternating_product", "strip_tilings",
        "fibonacci_tiling", "binomial_census_sum", "count_dominant_census",
        "composition_factors", "neighbouring_snakes", "module_dim"),
    "exactlin": tuple("RatFun." + op for op in _RATFUN_OPS) + (
        "ratfun_arith", "pole_order_at", "residue_at", "tensor_from_matrix",
        "contract", "matrix_rank", "_frac_rank"),
    "lattice": (
        "_sp_identity", "_sp_embed", "_sp_mul", "_sp_scale", "_sp_ptrace",
        "_sp_extend", "_sp_to_dense", "embed_pair", "ptrace_slot",
        "max_abs_diff", "monodromy_matrix", "monodromy", "transfer_matrix",
        "transfer", "density_matrix", "colour_conserving",
        "a_prefactor_expr", "AOperator.__init__", "AOperator.__call__",
        "a_operator", "composite_prefactor", "a_residue_parts",
        "a_residue_closed", "verify_finite_rqkz",
        "projected_reduction_check"),
    "snail": (
        "loop_kinds", "loop_points", "pole_profile", "_snail_matrix",
        "snail_operator", "contraction_order_check", "fusion_matrix",
        "fusion_operator", "snake_rank_check", "singlet_insertion_check",
        "l1_fusion_check"),
    "rmat": (
        "identity_matrix", "permutation_matrix", "k_matrix",
        "charge_conj_matrix", "vertex_matrix", "r_num", "charge_conj",
        "singlet_vector", "singlet_projector", "rbar_num", "r_dual_dual",
        "antisym_fusion", "chevalley_generators", "PrefactorExpr.__mul__",
        "PrefactorExpr.__rmul__", "PrefactorExpr.reduce", "prefactor_reduce"),
    "report": (
        "jsonable", "VerificationReport.__init__", "VerificationReport.to_dict",
        "VerificationReport.summary", "reports_to_json"),
}

LAYERS = ("loopring", "qchar", "exactlin", "lattice", "snail", "rmat", "cli",
          "report")

COUNTS = (
    "loopring.mul_calls", "loopring.mul_term_pairs", "loopring.scan_terms",
    "qchar.snake_calls", "qchar.snake_repeats", "qchar.divide_calls",
    "exactlin.rank_calls", "exactlin.rank_entries", "exactlin.ratfun_ops",
    "exactlin.contract_calls",
    "lattice.window_calls", "lattice.window_entries", "lattice.window_nnz",
    "lattice.shift_calls", "lattice.diff_entries",
    "snail.fusion_calls", "snail.fusion_dim_max",
    "rmat.vertex_calls", "rmat.prefactor_reduce_calls",
)


class Tracer:
    """Self time per layer and work counts, kept in memory."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.snake_keys = set()
        self._stack = []  # [layer, seconds covered by child spans]

    def add(self, name, amount=1):
        self.counts[name] += amount

    def line(self, run):
        """Run one CLI line as a root span of layer cli."""
        return self._span("cli", run, (), {}, None)[0]

    def _span(self, layer, fn, args, kwargs, hook):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
        if hook is not None:
            t1 = time.perf_counter()
            hook(self, out, args, kwargs)
            if stack:  # charged to no layer
                stack[-1][1] += time.perf_counter() - t1
        return out, dur

    def wrap(self, layer, fn, hook):
        def traced(*args, **kwargs):
            return self._span(layer, fn, args, kwargs, hook)[0]
        traced.__wrapped__ = fn
        return traced


# count hooks: (tracer, result, args, kwargs)

def _laurent_mul(t, out, args, kwargs):
    a, b = args
    t.add("loopring.mul_calls")
    t.add("loopring.mul_term_pairs",
          len(a) * (1 if isinstance(b, int) else len(b)))


def _scan(t, out, args, kwargs):
    t.add("loopring.scan_terms", len(args[0]))


def _snake(t, out, args, kwargs):
    from qsnake import qchar
    bound = inspect.signature(qchar.snake_qchar).bind(*args, **kwargs)
    bound.apply_defaults()
    key = tuple(bound.arguments.values())
    t.add("qchar.snake_calls")
    if key in t.snake_keys:
        t.add("qchar.snake_repeats")
    t.snake_keys.add(key)


def _rank(t, out, args, kwargs):
    rows = len(args[0])
    t.add("exactlin.rank_calls")
    t.add("exactlin.rank_entries", rows * (len(args[0][0]) if rows else 0))


def _window(t, out, args, kwargs):
    mat = np.asarray(out.matrix)
    t.add("lattice.window_calls")
    t.add("lattice.window_entries", mat.size)
    t.add("lattice.window_nnz", int(np.count_nonzero(mat)))


def _diff(t, out, args, kwargs):
    t.add("lattice.diff_entries", np.asarray(args[0]).size)


def _fusion(t, out, args, kwargs):
    t.add("snail.fusion_calls")
    t.counts["snail.fusion_dim_max"] = max(
        t.counts["snail.fusion_dim_max"], len(out))


def _counter(name):
    return lambda t, out, args, kwargs: t.add(name)


HOOKS = {
    ("loopring", "LaurentCombination.__mul__"): _laurent_mul,
    ("loopring", "LaurentCombination.__rmul__"): _laurent_mul,
    ("loopring", "dominant_monomials"): _scan,
    ("loopring", "antidominant_monomials"): _scan,
    ("loopring", "to_text"): _scan,
    ("qchar", "snake_qchar"): _snake,
    ("qchar", "laurent_divide"): _counter("qchar.divide_calls"),
    ("exactlin", "_frac_rank"): _rank,
    ("exactlin", "contract"): _counter("exactlin.contract_calls"),
    ("lattice", "density_matrix"): _window,
    ("lattice", "AOperator.__call__"): _counter("lattice.shift_calls"),
    ("lattice", "max_abs_diff"): _diff,
    ("snail", "fusion_matrix"): _fusion,
    ("rmat", "vertex_matrix"): _counter("rmat.vertex_calls"),
    ("rmat", "prefactor_reduce"): _counter("rmat.prefactor_reduce_calls"),
}
for _op in _RATFUN_OPS:
    HOOKS[("exactlin", "RatFun." + _op)] = _counter("exactlin.ratfun_ops")


def install(tracer):
    """Wrap every name in TRACED; return the (module, name) pairs wrapped.

    A name that qsnake no longer defines is an error, not a skip: its
    counts would read 0 and its time would move to the caller's layer, so
    a renamed function would read as a gain."""
    for modname in TRACED:
        importlib.import_module("qsnake." + modname)
    modules = [m for k, m in sys.modules.items()
               if k == "qsnake" or k.startswith("qsnake.")]
    done, missing = [], []
    for modname, names in TRACED.items():
        mod = sys.modules["qsnake." + modname]
        for name in names:
            hook = HOOKS.get((modname, name))
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or attr not in vars(cls):
                    missing.append(f"{modname}.{name}")
                    continue
                setattr(cls, attr, tracer.wrap(modname, vars(cls)[attr], hook))
            else:
                orig = getattr(mod, name, None)
                if orig is None:
                    missing.append(f"{modname}.{name}")
                    continue
                traced = tracer.wrap(modname, orig, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, traced)
            done.append((modname, name))
    if missing:
        raise LookupError("traced names that qsnake does not define: "
                          + ", ".join(missing))
    return done
