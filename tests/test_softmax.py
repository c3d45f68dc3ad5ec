import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from intquant import softmax as sm_mod
from intquant.model import CANDIDATE_POOLS
from intquant.quantize import (DYADIC_EXPONENTS, QParams, QTensor, checks_codes,
                               dequantize_np, dyadic_qparams_for_range)
from intquant.softmax import (ConfigurationError, NormalizationError,
                              _decompose_codes, _dyadic_exponent,
                              _iexp_value_codes, _max_subtract_codes, _P12,
                              _recip_mul, _row_sums, _shift_add, _shift_exp_codes,
                              base2_frac_approx_error, efficient_bit_softmax,
                              iexp_softmax, log2_softmax, log2_softmax_codes,
                              shiftmax, softmax_out_params)
from intquant.tensor import KernelMath, OpCounter


def qt(codes, scale=1.0 / 64, bits=16, zero=0):
    return QTensor(np.asarray(codes, dtype=np.int64), QParams(scale, zero, bits, "asymmetric"))


def exact_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def quantize_rows(x, code_bits=16):
    p = dyadic_qparams_for_range(float(x.min()), float(x.max()), code_bits)
    codes = np.clip(np.rint(x / float(p.scale)) + int(p.zero_point), 0, p.qmax)
    return QTensor(codes.astype(np.int64), p)


def i64(values):
    return np.asarray(values, dtype=np.int64)


def f_of(scale):
    return _dyadic_exponent(QParams(scale, 0, 16, "asymmetric"))


def max_subtract(codes):
    return _max_subtract_codes(qt(codes), OpCounter())


P8 = softmax_out_params(8)


class TestMaxSubtract:
    def test_simple_row(self):
        out = max_subtract([[3, 7, 7]])
        np.testing.assert_array_equal(out, [[-4, 0, 0]])

    def test_constant_row(self):
        out = max_subtract([[5, 5, 5, 5]])
        np.testing.assert_array_equal(out, 0)

    def test_row_max_is_zero(self):
        rng = np.random.default_rng(0)
        out = max_subtract(rng.integers(0, 256, size=(50, 9)))
        assert np.all(out.max(axis=-1) == 0)
        assert np.all(out <= 0)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_codes_are_the_gathers_index_dtype(self, dtype):
        # they index the exponential's table, and np.take converts any
        # other integer dtype to intp first
        counter = OpCounter()
        q = QTensor(np.array([[3, 9, 0], [7, 7, 1]], dtype=dtype),
                    QParams(1.0 / 64, 0, 16, "asymmetric"))
        out = _max_subtract_codes(q, counter)
        assert out.dtype == np.intp and out.tolist() == [[-6, 0, -9], [0, 0, -6]]
        assert counter.as_dict() == {**OpCounter().as_dict(), "adds": 6, "compares": 4,
                                     "total": 10}


class TestLog2eShift:
    def test_hand_value(self):
        out = _shift_add(i64([[-16]]), (1, 0, -4), KernelMath())
        assert out[0][0] == -23  # -16 + (-8) - (-1)

    def test_zero(self):
        assert _shift_add(i64([[0]]), (1, 0, -4), KernelMath())[0][0] == 0

    def test_large_ratio_approaches_log2e(self):
        q = _shift_add(i64([[-(1 << 20)]]), (1, 0, -4), KernelMath())
        assert q[0][0] / -(1 << 20) == pytest.approx(1.4375)


class TestShiftAdd:
    @pytest.mark.parametrize("shifts, ref", [
        ((1, 3, 4), lambda x: (x >> 1) + (x >> 3) + (x >> 4)),
        ((1, 0, 3, 4), lambda x: x + (x >> 1) + (x >> 3) + (x >> 4)),
        ((1, 0, -4), lambda x: x + (x >> 1) - (x >> 4)),
        ((1,), lambda x: x >> 1),
    ])
    def test_matches_the_shift_sum(self, shifts, ref):
        x = np.arange(-4096, 4096, 7, dtype=np.int64)
        c = OpCounter()
        np.testing.assert_array_equal(_shift_add(x, shifts, KernelMath(c)), ref(x))
        # one shift per nonzero s and one add or subtract per later term
        assert c.shifts == sum(1 for s in shifts if s) * x.size
        assert c.adds == (len(shifts) - 1) * x.size

    def test_leaves_its_input_alone(self):
        x = np.arange(-64, 64, dtype=np.int64)
        x.setflags(write=False)
        _shift_add(x, (1, 0, 3, 4), KernelMath())
        np.testing.assert_array_equal(x, np.arange(-64, 64))


class TestDecompose:
    def test_hand_decomposition(self):
        q_int, r = _decompose_codes(i64([-96]), f_of(1.0 / 64), KernelMath())
        assert q_int[0] == 1
        assert r[0] == 32  # fraction s*(-r) = -0.5

    def test_zero(self):
        q_int, r = _decompose_codes(i64([0]), f_of(1.0 / 64), KernelMath())
        assert q_int[0] == 0 and r[0] == 0

    def test_exact_reconstruction(self):
        rng = np.random.default_rng(1)
        f = 6
        qp = -rng.integers(0, 1 << 12, size=1000)
        q_int, r = _decompose_codes(i64(qp), f_of(1.0 / (1 << f)), KernelMath())
        recon = -(q_int << f) - r
        np.testing.assert_array_equal(recon, qp)
        assert np.all(r >= 0) and np.all(r < (1 << f))

    # 1e-16 is within 1e-15 of 2^-50; 2^-21 and 2^-40 are finer than 2^-20
    @pytest.mark.parametrize("scale", [0.013, 1e-16, 2.0 ** -21, 2.0 ** -40,
                                       math.nextafter(2.0 ** -10, 1.0)])
    def test_non_dyadic_scale_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="2 <= f <= 20"):
            efficient_bit_softmax(qt([[5]], scale=scale), P8)

    @pytest.mark.parametrize("f", DYADIC_EXPONENTS)
    def test_every_grid_of_the_range_is_accepted(self, f):
        assert f_of(2.0 ** -f) == f


def eff_exp(values, scale=1.0 / 64):
    v = i64(values)
    return _shift_exp_codes(v, OpCounter(), f_of(scale), slope=(1, 3, 4))


class TestEfficientBitExp:
    def test_hand_values(self):
        # value -0.5/log2(e) at scale 1/64 is code -22; the log2e shifts map
        # it to -31, so the fraction code is phi(-31) + 64 = -22 + 64 = 42
        out = eff_exp([[-22]])
        assert out[0][0] == 42
        assert 42 / 64 == pytest.approx(0.65625)

    def test_hand_value_with_integer_part(self):
        # value -1.5 before the log2e adjustment is code -96 post-adjustment;
        # feed the adjusted code through decompose+frac directly via exp on
        # a code whose log2e image is -96: exp output = 42 >> 1 = 21
        # (build it backwards: -67 maps to -67-34+5 = -96)
        out = eff_exp([[-67]])
        assert out[0][0] == 21

    def test_zero_code_encodes_one(self):
        out = eff_exp([[0]])
        assert out[0][0] == 64  # floor(1/s)

    def test_codes_nonnegative(self):
        rng = np.random.default_rng(2)
        out = eff_exp(-rng.integers(0, 4000, size=(100, 16)))
        assert np.all(out >= 0)


def int_div(values):
    km, v = KernelMath(), i64(values)
    return _recip_mul(v, _row_sums(v, km), 8, sm_mod.M, km)


class TestIntDivNormalize:
    def test_hand_value(self):
        out = int_div([[42, 21]])
        recip = (1 << 31) // 63
        assert out[0][0] == (recip * 42) >> 24
        assert out[0][0] == 85
        assert 85 / 128 == pytest.approx(0.6641, abs=1e-4)

    def test_single_element_row(self):
        out = int_div([[77]])
        assert out[0][0] >= 127  # probability one up to the floor

    def test_uniform_row(self):
        out = int_div([[10, 10, 10, 10]])
        assert len(set(out[0].tolist())) == 1
        assert out[0][0] == pytest.approx(128 // 4, abs=1)

    def test_zero_denominator_names_row(self):
        with pytest.raises(NormalizationError, match="row 1"):
            int_div([[5, 5], [0, 0]])

    def test_m_invariant_enforced(self):
        # 12 bits over a 64-long row need M >= 2*12 + 6 + 2 = 32 > 31
        with pytest.raises(ConfigurationError, match="M="):
            efficient_bit_softmax(qt([[1] * 64]), softmax_out_params(12))


class TestOutputGrid:
    """Every kernel writes onto the output parameters it is handed, and
    only onto the kernels' own grid."""

    @pytest.mark.parametrize("bits", [2, 6, 8])
    @pytest.mark.parametrize("kernel", CANDIDATE_POOLS["softmax"])
    def test_writes_onto_the_grid_it_is_handed(self, kernel, bits):
        p_out = softmax_out_params(bits)
        out = getattr(sm_mod, kernel)(qt([[0, 700, 90, 64]]), p_out)
        assert out.params is p_out
        assert 0 <= out.codes.min() and out.codes.max() <= p_out.qmax

    @pytest.mark.parametrize("p_out", [
        QParams(0.37, 5, 8, "asymmetric"), QParams(0.37, 0, 8, "asymmetric"),
        QParams(1.0 / 128, 5, 8, "asymmetric"), QParams(1.0 / 128, 0, 7, "asymmetric"),
        QParams(1.0 / 128, 0, 8, "symmetric"), QParams(1.0 / 256, 0, 8, "asymmetric"),
    ], ids=["scale_and_zero", "scale", "zero_point", "bits", "scheme", "finer_scale"])
    @pytest.mark.parametrize("kernel", CANDIDATE_POOLS["softmax"])
    def test_any_other_grid_is_refused(self, kernel, p_out):
        with pytest.raises(ConfigurationError, match="softmax_out_params"):
            getattr(sm_mod, kernel)(qt([[1, 2, 3]]), p_out)

    def test_taylor_degree_past_two_is_refused(self):
        with pytest.raises(ConfigurationError, match="taylor_degree"):
            efficient_bit_softmax(qt([[1, 2, 3]]), P8, taylor_degree=3)


class TestEfficientBitSoftmax:
    def test_constant_row_uniform(self):
        out = efficient_bit_softmax(qt([[9, 9, 9, 9]]), P8)
        assert len(set(out.codes[0].tolist())) == 1

    def test_dominant_logit(self):
        x = np.zeros((1, 8))
        x[0, 3] = 16.5
        out = efficient_bit_softmax(quantize_rows(x), P8)
        assert dequantize_np(out)[0, 3] >= 0.95

    def test_shift_invariance_in_code_space(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 40000, size=(30, 12))
        base = qt(codes, scale=1.0 / 4096)
        shifted = qt(codes + 1234, scale=1.0 / 4096)
        np.testing.assert_array_equal(efficient_bit_softmax(base, P8).codes,
                                      efficient_bit_softmax(shifted, P8).codes)

    def test_row_sums_within_floor_budget(self):
        rng = np.random.default_rng(4)
        for n in (2, 7, 33, 64):
            x = rng.normal(0, 3, size=(200, n))
            out = dequantize_np(efficient_bit_softmax(quantize_rows(x), P8))
            sums = out.sum(axis=-1)
            assert np.all(sums <= 1.0 + 1e-12)
            assert np.all(sums >= 1.0 - (n + 1) / 128.0 - 1e-12)

    def test_error_envelope_against_exact_softmax(self):
        # empirical envelope of the shift-exponential composition; the
        # linear fraction's endpoint gap keeps the worst case near 0.10
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(50):
            x = rng.normal(0, 2, size=(8, 16))
            q = quantize_rows(x)
            got = dequantize_np(efficient_bit_softmax(q, P8))
            ref = exact_softmax(dequantize_np(q))
            worst = max(worst, float(np.abs(got - ref).max()))
        assert worst <= 0.11

    def test_integer_only(self):
        c = OpCounter()
        efficient_bit_softmax(qt([[1, 2, 3]]), P8, counter=c)
        assert c.float_violations == 0 and c.total() > 0

    def test_taylor_degree_two_runs(self):
        q = qt([[10, 20, 30]])
        d1 = efficient_bit_softmax(q, P8, taylor_degree=1)
        d2 = efficient_bit_softmax(q, P8, taylor_degree=2)
        assert d1.codes.shape == d2.codes.shape

    def test_degree_two_fraction_restores_order(self):
        # the quadratic term lifts the fraction's value at the -1 endpoint
        # to ~0.549 >= 0.5, closing the cross-boundary gap that makes the
        # default degree-1 kernel non-monotone
        rng = np.random.default_rng(13)
        for n in (2, 5, 16, 48):
            x = rng.normal(0, 3, size=(200, n))
            q = quantize_rows(x)
            out = efficient_bit_softmax(q, P8, taylor_degree=2).codes
            ci = q.codes.astype(np.int64)
            order = np.argsort(ci, axis=-1, kind="stable")
            s_in = np.take_along_axis(ci, order, -1)
            s_out = np.take_along_axis(out.astype(np.int64), order, -1)
            bad = (np.diff(s_in, axis=-1) > 0) & (np.diff(s_out, axis=-1) < 0)
            assert not bad.any()


class TestShiftmax:
    def test_constant_row_uniform(self):
        out = shiftmax(qt([[3, 3, 3]]), P8)
        assert len(set(out.codes[0].tolist())) == 1

    def test_order_preserving(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = rng.normal(0, 3, size=(10, n))
            q = quantize_rows(x)
            out = shiftmax(q, P8).codes
            for row_in, row_out in zip(q.codes, out):
                idx = np.argsort(row_in, kind="stable")
                d_in = np.diff(row_in[idx])
                d_out = np.diff(row_out[idx])
                assert not np.any((d_in > 0) & (d_out < 0))
                assert not np.any((d_in == 0) & (d_out != 0))

    def test_both_kernels_track_exact_softmax(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, size=(500, 16))
        q = quantize_rows(x)
        ref = exact_softmax(dequantize_np(q))
        rms_eff = float(np.sqrt(np.mean((dequantize_np(efficient_bit_softmax(q, P8)) - ref) ** 2)))
        rms_shift = float(np.sqrt(np.mean((dequantize_np(shiftmax(q, P8)) - ref) ** 2)))
        assert rms_eff <= 0.05 and rms_shift <= 0.05


def iexp_value(values, f):
    """e^(values / 2^f) from the kernel's codes on the 2^-_P12 grid."""
    v = i64(values)
    return _iexp_value_codes(v, OpCounter(), f) / (1 << _P12)


class TestIexpSoftmax:
    def test_zero_encodes_one(self):
        assert iexp_value([[0]], 11)[0][0] == pytest.approx(1.0, rel=0.01)

    def test_ln2_boundary(self):
        f = 11
        code = -int(math.log(2) * (1 << f))
        assert iexp_value([[code]], f)[0][0] == pytest.approx(0.5, rel=0.02)

    def test_monotone_on_descending_ramp(self):
        t = -np.arange(0, 1 << 13, dtype=np.int64)
        assert np.all(np.diff(iexp_value(t[None, :], 11)[0]) <= 0)

    def test_softmax_tracks_exact(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 2, size=(100, 12))
        q = quantize_rows(x)
        got = dequantize_np(iexp_softmax(q, P8))
        ref = exact_softmax(dequantize_np(q))
        assert np.abs(got - ref).max() <= 0.02

    def test_order_preserving(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 3, size=(300, 24))
        q = quantize_rows(x)
        out = iexp_softmax(q, P8).codes
        for row_in, row_out in zip(q.codes, out):
            idx = np.argsort(row_in, kind="stable")
            assert not np.any((np.diff(row_in[idx]) > 0) & (np.diff(row_out[idx]) < 0))


class TestLog2Softmax:
    def test_dominant_winner_gets_code_zero(self):
        x = np.zeros((1, 6))
        x[0, 2] = 20.0
        k = log2_softmax_codes(quantize_rows(x))
        assert k[0, 2] == 0

    def test_constant_row_of_four(self):
        out = dequantize_np(log2_softmax(qt([[100, 100, 100, 100]], scale=1.0 / 2048),
                                          P8))
        np.testing.assert_allclose(out, 0.25, rtol=0.5)  # within one log2 step

    def test_order_preserving(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 3, size=(300, 16))
        q = quantize_rows(x)
        out = log2_softmax(q, P8).codes
        for row_in, row_out in zip(q.codes, out):
            idx = np.argsort(row_in, kind="stable")
            assert not np.any((np.diff(row_in[idx]) > 0) & (np.diff(row_out[idx]) < 0))

    def test_outputs_are_powers_of_two(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 2, size=(20, 8))
        out = log2_softmax(quantize_rows(x), P8)
        codes = out.codes[out.codes > 0]
        assert np.all((codes & (codes - 1)) == 0)


def _log2_codes_shift_loop(q, counter=None):
    """Reference: log2 softmax codes with k = floor(log2(den/num)) found by
    shifting num up one step at a time, one shift and one compare per live
    element per step."""
    f = _dyadic_exponent(q.params)
    km = KernelMath(counter)
    num = _iexp_value_codes(_max_subtract_codes(q, km.counter), km.counter, f)
    den = km.sum(num, axis=-1, keepdims=True)
    den = np.broadcast_to(den, num.shape)
    k = np.zeros(num.shape, dtype=np.int64)
    live = num > 0
    shifted = np.where(live, num, 1).astype(np.int64)
    while True:
        km.counter.shifts += int(live.sum())
        km.counter.compares += int(live.sum())
        grow = live & ((shifted << 1) <= den)
        if not grow.any():
            break
        k[grow] += 1
        shifted[grow] <<= 1
        live = grow
    safe_num = np.where(num > 0, num, 1).astype(np.int64)
    km.counter.muls += num.size * 2
    km.counter.compares += num.size
    round_up = den * den >= (safe_num * safe_num) << (2 * k + 1)
    k = k + np.where(round_up, 1, 0)
    return np.where(num > 0, k, np.int64(63))


def _log2_case(codes, f):
    return QTensor(np.asarray(codes, dtype=np.int64),
                   QParams(1.0 / (1 << f), 0, 16, "asymmetric"))


@st.composite
def _log2_cases(draw):
    f = draw(st.integers(4, 14))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 300)))
    e = draw(st.integers(0, 15))
    spread = (1 << e) if e else 0          # 0: constant rows
    codes = draw(arrays(np.int64, shape, elements=st.integers(-spread, spread)))
    if draw(st.booleans()):                # a dominant winner in one row
        codes[draw(st.integers(0, shape[0] - 1)),
              draw(st.integers(0, shape[1] - 1))] = spread + draw(st.integers(1, 1 << 15))
    # shifted onto the 16-bit codes, which the rows' softmax does not see,
    # and clipped at their top
    return _log2_case(np.minimum(codes + spread, (1 << 16) - 1), f), draw(st.integers(2, 16))


# rows where some numerator underflows to 0 (code 63), and a dominant row
_ZERO_NUM_ROW = (_log2_case([[1 << 15, 0, (1 << 15) - 40, 1 << 14]], 4), 8)
_DOMINANT_ROW = (_log2_case([[1 << 12] + [0] * 299], 8), 16)


class TestLog2CodesMatchLoop:
    """The closed-form log2 codes equal the shift-compare loop's, with the
    same operation charges."""

    @settings(max_examples=300, deadline=None)
    @given(_log2_cases())
    @example(_ZERO_NUM_ROW)
    @example(_DOMINANT_ROW)
    def test_codes_and_counts(self, case):
        q, bits = case
        got_c, want_c = OpCounter(), OpCounter()
        k = log2_softmax_codes(q, got_c)
        want = _log2_codes_shift_loop(q, want_c)
        np.testing.assert_array_equal(k, want)
        assert got_c.as_dict() == want_c.as_dict()

        p_out = softmax_out_params(bits)
        got_c, want_c = OpCounter(), OpCounter()
        got = log2_softmax(q, p_out, got_c)
        with mock.patch.object(sm_mod, "log2_softmax_codes",
                               checks_codes(_log2_codes_shift_loop)):
            ref = log2_softmax(q, p_out, want_c)
        np.testing.assert_array_equal(got.codes, ref.codes)
        assert got_c.as_dict() == want_c.as_dict()

    def test_examples_reach_both_edges(self):
        assert np.any(log2_softmax_codes(_ZERO_NUM_ROW[0]) == 63)
        assert log2_softmax_codes(_DOMINANT_ROW[0])[0, 0] == 0


class TestFracApproxErrors:
    def test_ivit_linear(self):
        l2, linf = base2_frac_approx_error("ivit_linear")
        assert linf == 0.5
        assert l2 == pytest.approx(0.1717, abs=0.0005)

    def test_exact_ln2(self):
        l2, linf = base2_frac_approx_error("ours_exact_ln2")
        assert linf == pytest.approx(1 - math.log(2), abs=1e-4)
        assert l2 == pytest.approx(0.1126, abs=0.0005)

    def test_shift_realization(self):
        _, linf = base2_frac_approx_error("ours_shift")
        assert linf == 0.3125

    def test_l2_ordering(self):
        l2_ours, _ = base2_frac_approx_error("ours_exact_ln2")
        l2_ivit, _ = base2_frac_approx_error("ivit_linear")
        assert l2_ours < l2_ivit

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            base2_frac_approx_error("nope")


class TestPhiProperties:
    @staticmethod
    def phi(x):
        return (x >> 1) + (x >> 3) + (x >> 4)

    def test_exact_on_large_powers_of_two(self):
        for k in range(4, 20):
            assert self.phi(1 << k) == int(0.6875 * (1 << k))

    def test_near_linearity(self):
        # each of the three floor shifts contributes at most one unit of
        # truncation slack, so the additivity gap is bounded by 3
        rng = np.random.default_rng(12)
        xs = rng.integers(-(1 << 16), 0, size=500)
        ys = rng.integers(-(1 << 16), 0, size=500)
        gap = np.abs(self.phi(xs + ys) - (self.phi(xs) + self.phi(ys)))
        assert gap.max() <= 3
