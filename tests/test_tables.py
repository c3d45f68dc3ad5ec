"""The kernels' code tables are their chains.

Each elementwise kernel stage is looked up in a table that its own chain
builds over its whole code domain, in int64 under the runtime guards
(``tensor.code_table``): the softmax exponentials over the max-subtracted
scores' [-qmax, 0], the GELU kernels, requantization included, over the
input's [0, qmax]. A table holds the chain's codes at every code of its
domain, and a lookup charges what the chain charges on the same codes. A
stage whose guard fires on some code of its domain has no table, and every
call of it is refused: a stage runs only from its table. No accepted
config builds such a table.
"""

from unittest import mock

import numpy as np
import pytest

from intquant import gelu as gelu_mod
from intquant import pipeline as pl
from intquant import softmax as sm_mod
from intquant import tensor as tensor_mod
from intquant.quantize import DYADIC_EXPONENTS, QParams, QTensor, qparams_from_range
from intquant.tensor import KernelMath, KernelOverflowError, OpCounter, code_table


def _tables_of(run) -> list[tuple]:
    """The arguments of every ``code_table`` call that ``run()`` makes."""
    spy = mock.Mock(wraps=code_table)
    with mock.patch.object(tensor_mod, "code_table", spy):
        run()
    return [c.args for c in spy.call_args_list]


def _assert_is_its_chain(stage, lo, hi, dtype, *args):
    """The table equals ``stage`` on every code of [lo, hi], in ``dtype``,
    and a lookup on random codes of the domain gives the chain's codes and
    charges. Returns the chain's dtype."""
    table = code_table(stage, lo, hi, dtype, *args)
    codes = np.arange(lo, hi + 1, dtype=np.int64)
    want = stage(codes, OpCounter(), *args)
    assert table.values.dtype == dtype
    np.testing.assert_array_equal(np.roll(table.values, -lo), want)
    assert table.peak == int(np.abs(want).max())
    codes = np.random.default_rng(hi - lo).integers(lo, hi + 1, size=(3, 5, 16))
    want_c, got_c = OpCounter(), OpCounter()
    want = stage(codes, want_c, *args)
    got = KernelMath(got_c).lookup(table, codes)
    np.testing.assert_array_equal(got, want)
    assert got_c == want_c and want_c.total() > 0
    return want.dtype


def _scores(f, bits):
    p = QParams(2.0 ** -f, 0, bits, "asymmetric")
    codes = np.random.default_rng(bits).integers(0, p.qmax + 1, size=(2, 8))
    return QTensor(codes, p)


_SOFTMAX = (
    lambda q, p: sm_mod.efficient_bit_softmax(q, p, taylor_degree=1),
    lambda q, p: sm_mod.efficient_bit_softmax(q, p, taylor_degree=2),
    sm_mod.shiftmax, sm_mod.iexp_softmax, sm_mod.log2_softmax,
)


@pytest.mark.parametrize("bits", [2, 8, 12, 16])
def test_every_exponential_table_is_its_chain(bits):
    # the exponentials of all four softmax kernels: the shift exponential
    # at both slopes and both Taylor degrees, and iexp's, which log2_softmax
    # shares, at every dyadic grid; each held in int32
    span, p8 = (1 << bits) - 1, sm_mod.softmax_out_params(8)
    for f in DYADIC_EXPONENTS:
        q = _scores(f, bits)
        calls = _tables_of(lambda: [kernel(q, p8) for kernel in _SOFTMAX])
        assert len(calls) == len(_SOFTMAX)
        assert {c[0] for c in calls} == {sm_mod._shift_exp_codes, sm_mod._iexp_value_codes}
        assert len(set(calls)) == 4     # log2_softmax looks up iexp_softmax's table
        for stage, lo, hi, dtype, *args in set(calls):
            assert (lo, hi, dtype) == (-span, 0, np.int32)
            _assert_is_its_chain(stage, lo, hi, dtype, *args)


_GELU = {
    "data_aware_poly_gelu": lambda q, p: gelu_mod.poly_gelu_int(
        q, gelu_mod.QUARTIC_ERF_COEFFS, p),
    "ibert_gelu": lambda q, p: gelu_mod.poly_gelu_int(q, gelu_mod.IBERT_ERF_COEFFS, p),
    "shift_gelu": gelu_mod.shift_gelu_int,
}


@pytest.mark.parametrize("bits", [2, 8, 12, 13])
@pytest.mark.parametrize("kernel", list(_GELU))
def test_every_gelu_table_is_its_chain(kernel, bits):
    # 13 bits is the widest that 8 tokens accept, an 8,192-code table; the
    # tables keep the chain's int64 codes
    qmax = (1 << bits) - 1
    for z in (0, (1 << (bits - 1)) - 1, qmax):
        p = QParams(6.0 / qmax, z, bits, "asymmetric")
        p_out = qparams_from_range(2.5, -0.5, bits)
        codes = np.random.default_rng(z).integers(0, qmax + 1, size=(2, 8))
        (call,) = _tables_of(lambda: _GELU[kernel](QTensor(codes, p), p_out))
        stage, lo, hi, dtype, *args = call
        assert (lo, hi, dtype) == (0, qmax, np.int64)
        assert _assert_is_its_chain(stage, lo, hi, dtype, *args) == dtype


_P_ACT = qparams_from_range(6.0, -6.0, 8)
_P_OUT = qparams_from_range(2.5, -0.5, 8)
# codes at the zero point, and every code of [-6, 6], where at M = 62 the
# sigmoid's smallest numerators are 0 and its reciprocal product 2^52 x 1024
_AT_ZERO = QTensor(np.full((2, 8), _P_ACT.zero_point), _P_ACT)
_WHOLE = QTensor(np.arange(_P_ACT.qmax + 1).reshape(16, 16), _P_ACT)


def _assert_refused_at_m_62():
    # every call is refused, on codes that pass the guard as on codes that
    # trip it, and none runs the chain on its codes: nothing is charged
    with mock.patch.object(sm_mod, "M", 62):
        for q in (_AT_ZERO, _WHOLE):
            counter = OpCounter()
            with pytest.raises(KernelOverflowError, match="_shift_gelu_codes"):
                gelu_mod.shift_gelu_int(q, _P_OUT, counter)
            assert counter.total() == 0


def test_shift_gelu_whose_guard_fires_has_no_table_and_every_call_is_refused():
    # at M = 62 the build over [-6, 6] trips the reciprocal's guard; the
    # refused build is cached, so four calls build it once
    code_table.cache_clear()
    _assert_refused_at_m_62()
    _assert_refused_at_m_62()
    assert code_table.cache_info().misses == 1
    assert code_table(gelu_mod._shift_gelu_codes, 0, _P_ACT.qmax, np.int64,
                      _P_ACT, _P_OUT, 62) is None


def test_a_shift_gelu_table_built_at_m_31_is_not_served_at_m_62():
    # the table's key carries M, since the sigmoid's division follows it
    code_table.cache_clear()
    (call,) = _tables_of(lambda: gelu_mod.shift_gelu_int(_AT_ZERO, _P_OUT))
    assert call[-1] == sm_mod.M == 31 and code_table(*call) is not None
    _assert_refused_at_m_62()


_TABLE_RULE = {
    "act-bits-2": {"act_bits": 2},
    "act-bits-8": {},
    "act-bits-13": {"act_bits": 13},
    "w2": {"weight_bits": 2},
    "w16": {"weight_bits": 16},
    "taylor-2": {"taylor_degree": 2},
    "forced-pools": {"pools": {"softmax": ("efficient_bit_softmax",),
                               "gelu": ("shift_gelu",)}},
    "tokens-64": {"blocks": 1, "embed_dim": 64, "heads": 4, "tokens": 64},
}


@pytest.mark.parametrize("shape", list(_TABLE_RULE))
def test_every_accepted_config_builds_every_table(shape):
    # stage 1 and integer inference, every table build watched: none is
    # refused, so no stage is refused and no candidate overflows
    cfg = pl.PipelineConfig(**{"calib_batches": 2, "calib_batch_size": 2,
                               **_TABLE_RULE[shape]})
    pl.check_config(cfg)
    built = []

    def watched(*args):
        table = code_table(*args)
        built.append((args[0].__name__, table))
        return table
    code_table.cache_clear()
    with mock.patch.object(tensor_mod, "code_table", watched):
        plan, table, graph, weights = pl.run_pipeline(cfg, jobs=1)
        x = np.random.default_rng(1).normal(size=(3, cfg.tokens, cfg.embed_dim))
        pl.integer_forward(graph, weights, plan, x)
    assert {name for name, _ in built} >= {"_shift_gelu_codes", "_shift_exp_codes"}
    assert [name for name, t in built if t is None] == []
    assert all(np.isfinite(ms.p) for *_, ms in table.entries)
