"""The kernels' code tables are their chains.

Each elementwise kernel stage whose static bounds fit 63 bits is looked up
in a table that its own chain builds over its whole code domain
(``tensor.code_table``): the softmax exponentials over the max-subtracted
scores' [-qmax, 0], the GELU kernels, requantization included, over the
input's [0, qmax]. A table holds the chain's codes at every code of its
domain, and a lookup charges what the chain charges on the same codes.
"""

from unittest import mock

import numpy as np
import pytest

from intquant import gelu as gelu_mod
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


def test_shift_gelu_past_63_bits_is_not_tabulated_and_its_guard_decides():
    # at M = 62 the sigmoid's reciprocal product has no bound within 63
    # bits, so the chain runs on the codes under the runtime guard: codes
    # at the zero point pass it, and the whole of [-6, 6] does not, where
    # the sigmoid's smallest numerators are 0 (2^52 x 1024)
    p = qparams_from_range(6.0, -6.0, 8)
    p_out = qparams_from_range(2.5, -0.5, 8)
    at_zero = QTensor(np.full((2, 8), p.zero_point), p)
    whole = QTensor(np.arange(p.qmax + 1).reshape(16, 16), p)
    want = gelu_mod.shift_gelu_int(at_zero, p_out).codes
    with mock.patch.object(sm_mod, "M", 62):
        assert _tables_of(lambda: gelu_mod.shift_gelu_int(at_zero, p_out)) == []
        np.testing.assert_array_equal(gelu_mod.shift_gelu_int(at_zero, p_out).codes, want)
        counter = OpCounter()
        with pytest.raises(KernelOverflowError):
            gelu_mod.shift_gelu_int(whole, p_out, counter)
        assert counter.muls > 0         # the chain ran up to the guard
