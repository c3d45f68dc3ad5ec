"""The static bounds hold.

Every LayerNorm stage, every softmax stage around the exponential and every
compiled step runs on a ``KernelMath`` whose static bound comes from its
input codes' interval [0, qmax], its constants and, after an exponential's
lookup, the table's peak (``KernelMath.within``), and each matmul takes its
operands' static magnitudes. The tabulated stages, the exponentials and the
GELU kernels, have no static bound: their tables are built in int64 under
the runtime guards. A watcher records every ``KernelMath`` result and
checks that it lies within the bound of the stage that computed it, and
that every matmul's operands lie within their static magnitudes. With the
static bounds patched out, every stage runs in int64 under the runtime
guards; the codes, logits, plans and op charges must be the same either
way. The kernels' code tables are cleared before each run, so that each run
builds them over their whole domains, a superset of the codes it is given.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

import intquant.pipeline as pl
from intquant import gelu as gelu_mod
from intquant import layernorm as ln_mod
from intquant import softmax as sm_mod
from intquant import tensor as tensor_mod
from intquant.model import CANDIDATE_POOLS, CANDIDATES, Op
from intquant.quantize import QParams, QTensor, qparams_from_range
from intquant.tensor import KernelMath, OpCounter, code_table

# every KernelMath method that computes a value
_METHODS = ("add", "sub", "mul", "floordiv", "rshift", "lshift", "minimum", "maximum",
            "abs", "sign", "clip", "sum", "max", "matmul", "lookup", "rshift_round",
            "rshift_round_add", "floordiv_rows", "isqrt", "log2_ratio")


def _magnitude(x) -> int:
    x = np.asarray(x)
    return max(-int(x.min()), int(x.max())) if x.size else 0


class Watcher:
    """Rebinds the KernelMath methods to check every result of a bounded
    instance against its bound, and every matmul's operands against their
    static magnitudes."""

    def __init__(self):
        self.escapes: list = []
        self.bounded = 0          # results checked against a stage bound
        self.int32 = 0            # of them, results of an int32 stage
        self.static_matmuls = 0   # matmuls that were given static magnitudes

    def watch(self, name):
        method = getattr(KernelMath, name)
        watcher = self

        def watched(km, *args, **kw):
            res = method(km, *args, **kw)
            mags = kw.get("mags")
            if name == "matmul" and mags is not None:
                watcher.static_matmuls += 1
                got = tuple(_magnitude(x) for x in args[:2])
                if got[0] > mags[0] or got[1] > mags[1]:
                    watcher.escapes.append(("matmul operands", got, mags))
            if km.bound is not None and np.size(res):
                watcher.bounded += 1
                watcher.int32 += km.dtype == np.int32
                if _magnitude(res) > km.bound:
                    watcher.escapes.append((name, _magnitude(res), km.bound))
            return res
        return watched

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for name in _METHODS:
                stack.enter_context(mock.patch.object(KernelMath, name, self.watch(name)))
            yield self


def unbounded():
    """Every stage as without static bounds: ``within`` gives a plain int64
    KernelMath under the runtime guards, and ``matmul`` scans its operands
    instead of taking their static magnitudes."""
    real_matmul = KernelMath.matmul
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(
        KernelMath, "within", classmethod(lambda cls, counter, bound: cls(counter))))
    stack.enter_context(mock.patch.object(
        KernelMath, "matmul", lambda km, a, b, mags=None: real_matmul(km, a, b)))
    return stack


# ---------------------------------------------------------------------------
# every kernel stage, on code patterns that reach the ends of [0, qmax]
# ---------------------------------------------------------------------------

_ROWS, _ROW_LEN = 6, 16


def _code_pattern(name, qmax):
    rng = np.random.default_rng(qmax)
    shape = (_ROWS, _ROW_LEN)
    if name == "zeros":
        return np.zeros(shape, dtype=np.int32)
    if name == "qmax":
        return np.full(shape, qmax, dtype=np.int32)
    if name == "one_hot":
        codes = np.zeros(shape, dtype=np.int32)
        codes[np.arange(_ROWS), rng.integers(0, _ROW_LEN, _ROWS)] = qmax
        return codes
    return rng.integers(0, qmax + 1, size=shape).astype(np.int32)


_GAMMA = np.linspace(-2.0, 3.0, _ROW_LEN)
_LAYER_WEIGHTS = {"gamma": _GAMMA, "beta": _GAMMA[::-1] / 4}   # read by LayerNorm alone


def _run(kind, cand, q, degree, counter):
    # bound as its table entry binds a layer of the kind, at Taylor degree ``degree``
    op = Op("layer", kind, ("x",), ("gamma", "beta"))
    params = CANDIDATES[cand].params(op, _LAYER_WEIGHTS, pl.PipelineConfig(taylor_degree=degree))
    p_out = sm_mod.softmax_out_params(8) if kind == "softmax" else qparams_from_range(2.5, -0.5, 8)
    return pl.run_candidate(cand, q, p_out, counter, **params)


def _input_params(kind):
    """Input grids: softmax scores on 2^-f at several widths (where the
    reciprocal's M covers 8-bit probabilities over the row); GELU and
    LayerNorm codes with the zero point at the bottom, the middle and the
    top of each width."""
    if kind == "softmax":
        return [QParams(1.0 / (1 << f), 0, bits, "asymmetric")
                for bits, f in ((2, 2), (8, 8), (8, 20), (12, 2), (16, 2), (16, 20))]
    return [QParams(6.0 / ((1 << bits) - 1), z, bits, "asymmetric")
            for bits in (2, 8, 12, 16)
            for z in (0, (1 << (bits - 1)) - 1, (1 << bits) - 1)]


_CASES = [(kind, cand, 1, p) for kind, cands in CANDIDATE_POOLS.items()
          for cand in cands for p in _input_params(kind)]
_CASES += [("softmax", "efficient_bit_softmax", 2, p) for p in _input_params("softmax")]


class TestKernelStages:
    @pytest.mark.parametrize("pattern", ["zeros", "qmax", "one_hot", "random"])
    @pytest.mark.parametrize("kind, cand, degree, p", _CASES,
                             ids=lambda v: f"{v.bits}b-z{v.zero_point}-s{v.scale:.3g}"
                             if isinstance(v, QParams) else None)
    def test_every_value_within_its_stage_bound(self, kind, cand, degree, p, pattern):
        q = QTensor(_code_pattern(pattern, p.qmax), p)
        want_c, got_c = OpCounter(), OpCounter()
        code_table.cache_clear()
        with unbounded():
            want = _run(kind, cand, q, degree, want_c).codes
        code_table.cache_clear()
        with Watcher().installed() as w:
            got = _run(kind, cand, q, degree, got_c).codes
        # a GELU kernel is one table lookup, with no bounded stage
        assert not w.escapes and bool(w.bounded) == (kind != "gelu")
        np.testing.assert_array_equal(got, want)
        assert got_c.as_dict() == want_c.as_dict()


# ---------------------------------------------------------------------------
# every compiled step, and stage 1's kernels on calibration data
# ---------------------------------------------------------------------------

_SHAPES = {
    "toy-default": {},
    "tokens-256": {"blocks": 1, "embed_dim": 64, "heads": 4, "tokens": 256,
                   "calib_batches": 1, "calib_batch_size": 2},
    "act-bits-4": {"act_bits": 4},
    "act-bits-12": {"act_bits": 12},
    "w4a8": {"weight_bits": 4},
    "forced-pools": {"pools": {"softmax": ("log2_softmax",), "gelu": ("shift_gelu",),
                               "layernorm": ("log2_scale",)}},
}


def _pipeline(cfg):
    plan, table, graph, weights = pl.run_pipeline(cfg, jobs=1)
    x = np.random.default_rng(3).normal(size=(2, cfg.tokens, cfg.embed_dim))
    logits, counter = pl.integer_forward(graph, weights, plan, x)
    return (pl.plan_to_dict(plan), [(e[:3], e[3]) for e in table.entries],
            logits.values.tobytes(), counter.as_dict())


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_pipeline_values_within_their_bounds(shape):
    cfg = pl.PipelineConfig(**{"calib_batches": 2, "calib_batch_size": 2, **_SHAPES[shape]})
    code_table.cache_clear()
    with unbounded():
        want = _pipeline(cfg)
    code_table.cache_clear()
    with Watcher().installed() as w:
        got = _pipeline(cfg)
    assert not w.escapes
    assert w.bounded and w.int32 and w.static_matmuls
    assert got == want


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape", ["toy-default", "act-bits-12", "w4a8", "forced-pools"])
def test_compiled_steps_at_the_ends_of_their_input_intervals(shape, dtype):
    # calibration data stays far inside [0, qmax]; here every step gets
    # codes at the ends of its input edges' intervals, as int32 codes (the
    # model input's) or int64 ones, and gives the same codes and charges
    # from either
    cfg = pl.PipelineConfig(**{"calib_batches": 1, "calib_batch_size": 2, **_SHAPES[shape]})
    plan, _, graph, weights = pl.run_pipeline(cfg, jobs=1)
    compiled = pl.compile_plan(graph, weights, plan)
    shapes = pl.capture_calibration(graph, weights, [np.zeros((2, cfg.tokens, cfg.embed_dim))])
    rng = np.random.default_rng(1)
    for op, step in zip(graph.ops, compiled.steps):
        for pattern in ("zeros", "qmax", "ends"):
            args = []
            for e in op.inputs:
                qmax, dims = plan.qparams[e].qmax, shapes[e].shape
                codes = {"zeros": np.zeros(dims), "qmax": np.full(dims, qmax),
                         "ends": qmax * rng.integers(0, 2, dims)}[pattern]
                args.append(codes.astype(dtype))
            want_c, got_c = OpCounter(), OpCounter()
            with unbounded():
                want = step(want_c, *(a.astype(np.int64) for a in args))
            with Watcher().installed() as w:
                got = step(got_c, *args)
            assert not w.escapes, (op.out, pattern, w.escapes[:3])
            np.testing.assert_array_equal(got, want)
            assert got_c.as_dict() == want_c.as_dict()


def test_the_long_sequence_runs_float32_gemms_and_int32_fronts():
    # at 256 tokens and W8A8, every partial sum of scores, ctx and linear
    # stays below 2^24; the max-subtraction and the LayerNorm fronts fit 31 bits
    cfg = pl.PipelineConfig(**_SHAPES["tokens-256"])
    plan, _, graph, weights = pl.run_pipeline(cfg, jobs=1)
    dtypes, stages = [], []
    real_matmul, real_within = np.matmul, KernelMath.within.__func__

    def matmul(a, b, **kw):
        dtypes.append(a.dtype)
        return real_matmul(a, b, **kw)

    def within(cls, counter, bound):
        km = real_within(cls, counter, bound)
        stages.append(km.dtype)
        return km
    x = np.random.default_rng(0).normal(size=(1, cfg.tokens, cfg.embed_dim))
    with mock.patch.object(tensor_mod.np, "matmul", matmul), \
            mock.patch.object(KernelMath, "within", classmethod(within)):
        pl.integer_forward(graph, weights, plan, x)
    assert dtypes and all(d == np.float32 for d in dtypes)
    assert stages.count(np.dtype(np.int32)) > len(stages) // 2


def test_where_no_bound_fits_the_runtime_guard_still_refuses():
    # at M = 62 the reciprocal's product has no bound within 63 bits, so
    # its runtime guard decides, and refuses a one-hot row on the 2^-2
    # grid (2^60 * 4) as it does with the static bounds off
    q = QTensor(np.array([[65535, 0, 0, 0]], dtype=np.int32),
                QParams(2.0 ** -2, 0, 16, "asymmetric"))
    p_out = sm_mod.softmax_out_params(8)
    with mock.patch.object(sm_mod, "M", 62):
        for bounds in (contextlib.nullcontext(), unbounded()):
            with bounds:
                for kernel in ("efficient_bit_softmax", "shiftmax"):
                    with pytest.raises(tensor_mod.KernelOverflowError):
                        getattr(sm_mod, kernel)(q, p_out)
                sm_mod.iexp_softmax(q, p_out)


# ---------------------------------------------------------------------------
# the exported kernels refuse codes past their width; the program's paths,
# whose codes are clipped, do not check them
# ---------------------------------------------------------------------------

_P_SCORES = QParams(2.0 ** -8, 0, 8, "asymmetric")
_P_ACT = qparams_from_range(3.0, -3.0, 8)
_P_OUT = qparams_from_range(2.5, -0.5, 8)
_P8 = sm_mod.softmax_out_params(8)
_EXPORTED = {
    "efficient_bit_softmax": (sm_mod.efficient_bit_softmax, _P_SCORES, (_P8,)),
    "shiftmax": (sm_mod.shiftmax, _P_SCORES, (_P8,)),
    "iexp_softmax": (sm_mod.iexp_softmax, _P_SCORES, (_P8,)),
    "log2_softmax": (sm_mod.log2_softmax, _P_SCORES, (_P8,)),
    "log2_softmax_codes": (sm_mod.log2_softmax_codes, _P_SCORES, ()),
    "poly_gelu_int": (lambda q, p, **kw: gelu_mod.poly_gelu_int(
        q, gelu_mod.QUARTIC_ERF_COEFFS, p, **kw), _P_ACT, (_P_OUT,)),
    "shift_gelu_int": (gelu_mod.shift_gelu_int, _P_ACT, (_P_OUT,)),
    **{f"int_layernorm-{v}": (lambda q, p, v=v, **kw: ln_mod.int_layernorm(
        q, np.linspace(-2.0, 3.0, _ROW_LEN), np.zeros(_ROW_LEN), v, p, **kw), _P_ACT, (_P_OUT,))
       for v in ln_mod.LN_VARIANTS},
}


@pytest.mark.parametrize("code", [-(1 << 40), -1, 256, 1 << 40])
@pytest.mark.parametrize("name", list(_EXPORTED))
def test_exported_kernels_refuse_codes_past_their_width(name, code):
    # the stages' static bounds assume codes in [0, qmax], and an int32
    # stage would wrap codes past it, so the kernel refuses them up front
    kernel, p, args = _EXPORTED[name]
    codes = _code_pattern("random", p.qmax).astype(np.int64)
    kernel(QTensor(codes, p), *args)
    codes[2, 5] = code
    counter = OpCounter()
    with pytest.raises(tensor_mod.KernelOverflowError, match="outside"):
        kernel(QTensor(codes, p), *args, counter=counter)
    assert counter.total() == 0


def test_the_program_paths_run_the_kernels_unchecked():
    cfg = pl.PipelineConfig(calib_batches=1, calib_batch_size=2)
    with mock.patch.object(QTensor, "check", side_effect=AssertionError("checked")):
        _pipeline(cfg)
