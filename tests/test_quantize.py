import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from intquant.quantize import (DegenerateRangeError, MinMaxObserver, QParams,
                               QTensor, dequantize_np, dyadic_qparams_for_range,
                               encode_dyadic_multiplier, qparams_from_range,
                               quantize, requant_bound, requant_weight_per_channel, requantize)
from intquant.tensor import KernelMath, OpCounter, magnitude


class TestParamsFromRange:
    def test_symmetric_unit_range(self):
        p = qparams_from_range(1.0, -1.0, 8, "asymmetric")
        assert p.scale == pytest.approx(2.0 / 255.0)
        assert p.zero_point == 128  # round-half-even of 127.5

    def test_zero_offset_range(self):
        s0 = 0.01
        p = qparams_from_range(255 * s0, 0.0, 8, "asymmetric")
        assert p.zero_point == 0
        q = quantize(np.array([255 * s0]), p)
        assert q.codes[0] == 255

    def test_degenerate_range_errors(self):
        with pytest.raises(DegenerateRangeError):
            qparams_from_range(1.0, 1.0, 8, "asymmetric")
        with pytest.raises(DegenerateRangeError):
            qparams_from_range(0.0, 0.0, 8, "symmetric")

    def test_symmetric_midpoint_zero(self):
        p = qparams_from_range(2.0, -0.5, 8, "symmetric")
        assert p.zero_point == 128
        assert p.scale == pytest.approx(4.0 / 255.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QParams(-1.0, 0, 8, "asymmetric")
        for scale in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                QParams(scale, 0, 8, "asymmetric")
        with pytest.raises(ValueError):
            QParams(1.0, 300, 8, "asymmetric")
        with pytest.raises(ValueError):
            QParams(1.0, 0, 20, "asymmetric")


class TestQuantizeDequantize:
    def setup_method(self):
        self.p = qparams_from_range(1.0, -1.0, 8, "asymmetric")

    def test_zero_maps_to_zero_point(self):
        assert quantize(np.array([0.0]), self.p).codes[0] == 128

    def test_lower_bound_maps_to_zero_code(self):
        assert quantize(np.array([-1.0]), self.p).codes[0] == 0

    def test_saturation(self):
        assert quantize(np.array([10.0]), self.p).codes[0] == 255

    def test_round_trip_zero(self):
        q = quantize(np.array([0.0]), self.p)
        assert abs(dequantize_np(q)[0]) <= self.p.scale / 2

    def test_zero_point_codes_dequantize_to_zero(self):
        q = QTensor(np.full((3, 3), 128, dtype=np.int32), self.p)
        np.testing.assert_allclose(dequantize_np(q), 0.0)

    def test_round_trip_bound_in_range(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=10000)
        err = np.abs(dequantize_np(quantize(x, self.p)) - x)
        assert err.max() <= self.p.scale / 2 + 1e-12

    def test_monotone_on_sorted_input(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(-2.0, 2.0, size=5000))
        codes = quantize(x, self.p).codes
        assert np.all(np.diff(codes.astype(int)) >= 0)

    def test_codes_always_in_range(self):
        rng = np.random.default_rng(2)
        for bits in (2, 4, 8, 16):
            p = qparams_from_range(3.0, -0.7, bits, "asymmetric")
            q = quantize(rng.normal(0, 10, size=1000), p)
            assert q.codes.min() >= 0 and q.codes.max() <= p.qmax
            q.check()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_huge_inputs_saturate_to_their_own_end(self, sign):
        # |x/s| >= 2^63 and infinities once wrapped through an int64 cast to
        # code 0 whatever their sign
        p = QParams(0.01, 128, 8, "asymmetric")
        x = sign * np.array([1e10, 1e17, 1e30, 3e38, np.inf, 2.0 ** 63 * 0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = quantize(x, p).codes
        np.testing.assert_array_equal(codes, p.qmax if sign > 0 else 0)

    def test_nan_maps_to_code_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = quantize(np.array([np.nan, 0.0]), self.p).codes
        np.testing.assert_array_equal(codes, [0, 128])

    def test_codes_below_2_63_match_the_integer_clip(self):
        # the float clip gives the codes an int64 cast then clip gave
        rng = np.random.default_rng(3)
        p = QParams(1.0, 1 << 15, 16, "asymmetric")
        x = np.concatenate([rng.normal(0, 1e4, 1000), rng.uniform(-2.0**62, 2.0**62, 1000),
                            [2.0**53 + 2, -(2.0**53) - 2, 0.5, 1.5, -0.5, -2.5]])
        want = np.clip(np.rint(x).astype(np.int64) + p.zero_point, 0, p.qmax)
        np.testing.assert_array_equal(quantize(x, p).codes, want)

    @pytest.mark.parametrize("granularity", ["per_tensor", "per_channel"])
    def test_codes_match_np_clip_at_both_ends(self, granularity):
        # values far past both ends of [0, qmax], and just inside them
        x = np.array([[-1e9, -3.0, -0.51, 0.0, 0.49, 2.0, 1e9],
                      [-1e9, -0.3, -0.1, 0.0, 0.25, 0.6, 1e9]])
        if granularity == "per_tensor":
            p = qparams_from_range(2.0, -0.5, 8, "asymmetric")
            codes = quantize(x, p).codes
            scale, zero, qmax = p.scale, p.zero_point, p.qmax
        else:
            # per-channel is weights only: one symmetric scale per row, and
            # +-amax_i / s_i = +-127.5 rounds past both ends of the code range
            codes, scales = requant_weight_per_channel(x, 8)
            scale, zero, qmax = scales[:, None], 128, 255
        want = np.clip(np.rint(x / scale).astype(np.int64) + zero, 0, qmax)
        assert codes.dtype == np.int32
        assert codes.min() == 0 and codes.max() == qmax
        np.testing.assert_array_equal(codes, want)


class TestPerChannel:
    """requant_weight_per_channel is the only per-channel quantizer: row i is
    quantized as per-tensor ``quantize`` does under the symmetric
    parameters of its own amax_i."""

    def test_per_channel_equals_per_slice(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 0.5, size=(4, 16))
        w[:, 0] = np.abs(w).max(axis=1)     # +amax_i lands on the top end
        w[:, 1] = -w[:, 0]                  # -amax_i on the bottom end
        w[3] = 0.0                          # amax_i is floored at 1e-12
        for bits in (2, 4, 8, 16):
            codes, scales = requant_weight_per_channel(w, bits)
            assert codes.dtype == np.int32 and scales.shape == (4,)
            for i in range(4):
                amax = max(np.abs(w[i]).max(), 1e-12)
                p = qparams_from_range(amax, -amax, bits, "symmetric")
                np.testing.assert_array_equal(codes[i], quantize(w[i], p).codes)
                assert scales[i] == p.scale
            # +-amax_i / s_i is +-qmax/2 up to rounding: the top end clips to
            # qmax, the bottom end lands on code 0 or 1
            assert (codes[:3, 0] == (1 << bits) - 1).all() and (codes[:3, 1] <= 1).all()
            assert (codes[3] == 1 << (bits - 1)).all()


class TestObserver:
    def test_single_update(self):
        o = MinMaxObserver().observe(np.array([-2.0, 3.0]))
        assert o.running_min == -2.0 and o.running_max == 3.0

    def test_monotone_envelope(self):
        o = MinMaxObserver()
        o.observe(np.array([-2.0, 3.0]))
        o.observe(np.array([-5.0, 1.0]))
        assert o.running_min == -5.0 and o.running_max == 3.0
        assert o.samples_seen == 2

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        batches = [rng.normal(0, 1 + i * 0.1, size=(8, 4)) for i in range(100)]
        o_batched = MinMaxObserver()
        for b in batches:
            o_batched.observe(b)
        o_cat = MinMaxObserver().observe(np.concatenate(batches))
        assert o_batched.running_min == o_cat.running_min
        assert o_batched.running_max == o_cat.running_max

    def test_empty_tensor_is_noop(self):
        o = MinMaxObserver()
        o.observe(np.zeros((0,)))
        assert o.samples_seen == 0

    def test_degenerate_range_widens_with_warning(self):
        o = MinMaxObserver().observe(np.full(5, 1.25))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            p = o.qparams(8)
        assert float(p.scale) > 0


class TestDyadicHelpers:
    def test_dyadic_params_cover_range(self):
        p = dyadic_qparams_for_range(-5.0, 9.0, 16)
        f = -np.log2(float(p.scale))
        assert f == int(f)
        q = quantize(np.array([-5.0, 9.0]), p)
        assert q.codes.min() >= 0 and q.codes.max() <= p.qmax
        x = dequantize_np(q)
        np.testing.assert_allclose(x, [-5.0, 9.0], atol=float(p.scale))

    def test_dyadic_params_floor_at_the_2_to_minus_2_grid(self):
        assert dyadic_qparams_for_range(-1e6, 1e6, 16).scale == 0.25
        assert dyadic_qparams_for_range(0.0, 16383.0, 16).scale == 0.25
        assert dyadic_qparams_for_range(0.0, 16384.0, 16).scale == 0.25  # saturates

    def test_multiplier_encoding(self):
        m, e = encode_dyadic_multiplier(0.3)
        assert 1 << 14 <= m < 1 << 15
        assert m / (1 << e) == pytest.approx(0.3, rel=1e-4)

    @given(mult=st.floats(min_value=5e-324, max_value=1e300),
           mant_bits=st.sampled_from([8, 15, 20]))
    @example(mult=5e-324, mant_bits=15)              # smallest subnormal
    @example(mult=2.2250738585072009e-308, mant_bits=15)   # largest subnormal
    @example(mult=sys.float_info.min, mant_bits=15)
    @example(mult=sys.float_info.max, mant_bits=20)
    @example(mult=1.0, mant_bits=15)
    @example(mult=2.0 ** -40, mant_bits=8)
    @example(mult=2.0 ** 14, mant_bits=15)
    @example(mult=2.0 ** 15, mant_bits=15)
    @example(mult=(2.0 ** 15 - 0.5) / 2 ** 20, mant_bits=15)   # rounds up to 2^15
    @example(mult=math.nextafter(1.0, 0.0), mant_bits=15)
    def test_multiplier_encoding_matches_the_normalising_loop(self, mult, mant_bits):
        assert encode_dyadic_multiplier(mult, mant_bits) == _encode_loop(mult, mant_bits)


def _encode_loop(mult: float, mant_bits: int) -> tuple[int, int]:
    """Reference: the mantissa normalised into [2^(mant_bits-1), 2^mant_bits)
    by doubling or halving one step at a time."""
    e = 0
    m = float(mult)
    while m < (1 << (mant_bits - 1)):
        m *= 2.0
        e += 1
    while m >= (1 << mant_bits):
        m /= 2.0
        e -= 1
    return int(round(m)), e


@st.composite
def _requant_cases(draw):
    """(acc, m, e, p_out): accumulators up to 2^40 in magnitude, one 15-bit
    multiplier or one per channel, shifts from -4 to 40 and any output
    width and zero point."""
    bits, cols = draw(st.integers(2, 16)), draw(st.integers(1, 6))
    p = QParams(0.1, draw(st.integers(0, (1 << bits) - 1)), bits, "asymmetric")
    acc = draw(arrays(np.int64, (draw(st.integers(1, 5)), cols),
                      elements=st.integers(-(1 << 40), 1 << 40)))
    mant = st.integers(1, 1 << 15)
    m = draw(st.one_of(mant, arrays(np.int64, cols, elements=mant)))
    return acc, m, draw(st.integers(-4, 40)), p


class TestRequantize:
    """The one requantization step: clip(((acc*m + 2^(e-1)) >> e) + z, 0, qmax),
    in place."""

    @staticmethod
    def _want(acc, m, e, p):
        return np.clip(((acc * m + (1 << (e - 1))) >> e) + p.zero_point, 0, p.qmax)

    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("e", [1, 16, 30])
    def test_matches_the_formula_in_place(self, per_channel, e):
        rng = np.random.default_rng(e)
        p = QParams(0.1, 37, 8, "asymmetric")
        m_hi = 1 << min(15, e + 3)   # 15-bit mantissas, fewer where e is small
        m = (rng.integers(1, m_hi, size=6, dtype=np.int64) if per_channel
             else int(rng.integers(1, m_hi)))
        # products of about +-2^(e+9): codes on both sides of the clip
        acc = rng.integers(-(1 << (e + 9)), 1 << (e + 9), size=(64, 6), dtype=np.int64) // m
        want = self._want(acc, m, e, p)
        out = requantize(KernelMath(), acc, m, e, p)
        assert out is acc
        np.testing.assert_array_equal(out, want)
        assert want.min() == 0 and want.max() == p.qmax
        assert np.count_nonzero((want > 0) & (want < p.qmax)) > 0

    @staticmethod
    def _unfused(km, acc, m, e, p):
        """The chain the zero point's fold replaced: the multiply, the
        rounding shift, the zero point's add and the clip, one call each."""
        if np.ndim(m) or m != 1:
            acc = km.mul(acc, m)
        return km.clip(km.add(km.rshift_round(acc, e), p.zero_point), 0, p.qmax)

    @settings(max_examples=300, deadline=None)
    @given(_requant_cases())
    @example((np.array([[-9, 0, 5], [3, -1, 60]]), np.array([1, 7, 3]), 0,
              QParams(0.1, 200, 8, "asymmetric")))
    @example((np.array([[-9, 0, 5], [3, -1, 60]]), 5, -3, QParams(0.1, 9, 4, "asymmetric")))
    def test_folded_zero_point_is_the_unfused_chain(self, case):
        # exact against the unfused chain, on int64 and on the KernelMath of
        # requant_bound, with the same charges; the bound covers the folded
        # sum acc*m + 2^(e-1) + (z << e)
        acc, m, e, p = case
        bound = requant_bound(magnitude(acc), m, e, p)
        if e > 0:
            assert magnitude(acc) * magnitude(m) + (1 << (e - 1)) + (p.zero_point << e) <= bound
        want_km = KernelMath()
        want = self._unfused(want_km, acc, m, e, p)
        for km in (KernelMath(), KernelMath.within(None, bound)):
            got = requantize(km, acc.copy(), m, e, p)
            assert got.dtype == km.dtype and got.tolist() == want.tolist()
            assert km.counter.as_dict() == want_km.counter.as_dict()

    def test_unit_multiplier_is_a_shift_alone(self):
        p = QParams(0.5, 3, 4, "asymmetric")
        acc = np.arange(-40, 41, dtype=np.int64)
        want = self._want(acc, 1, 2, p)
        charged = {}
        for m in (1, 3):
            counter = OpCounter()
            requantize(KernelMath(counter), acc.copy(), m, 2, p)
            charged[m] = counter.as_dict()
        np.testing.assert_array_equal(requantize(KernelMath(), acc.copy(), 1, 2, p), want)
        n = acc.size
        # a rounding add and shift, the zero point add and two clip compares
        # per element; the multiply adds one product per element
        assert charged[1] == dict(adds=2 * n, muls=0, divs=0, shifts=n, compares=2 * n,
                                  float_violations=0, total=5 * n)
        assert charged[3] == {**charged[1], "muls": n, "total": 6 * n}
