import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intquant.layernorm import (LN_VARIANTS, int_layernorm, layernorm_reference,
                                snap_pow2_out_params)
from intquant import tensor as tensor_mod
from intquant.quantize import (MinMaxObserver, QTensor, dequantize_np,
                               qparams_from_range, quantize)
from intquant.tensor import KernelMath, OpCounter


def _isqrt(values, seed):
    return KernelMath().isqrt(np.asarray(values, dtype=np.int64), 40, seed)


class TestIntSqrt:
    def test_zero(self):
        assert _isqrt([0], "shift").tolist() == [0]
        assert _isqrt([0], "poly").tolist() == [0]

    def test_hand_value(self):
        assert _isqrt([255, 256], "shift").tolist() == [15, 16]
        assert _isqrt([255, 256], "poly").tolist() == [15, 16]

    def test_exhaustive_small_domain(self):
        km = KernelMath()
        n = np.arange(1 << 20, dtype=np.int64)
        got = km.isqrt(n, 40, "shift")
        want = np.sqrt(n.astype(np.float64)).astype(np.int64)
        # float sqrt is exact here; guard the few boundary cases explicitly
        for edge in (2 ** 20 - 1, 2 ** 18, 999999):
            assert got[edge] == math.isqrt(edge)
        np.testing.assert_array_equal(got, want)

    def test_matches_isqrt_on_wide_samples(self):
        rng = np.random.default_rng(0)
        n = np.concatenate([rng.integers(0, 1 << 40, size=200),
                            rng.integers(0, 1 << 62, size=200)])
        want = [math.isqrt(int(v)) for v in n]
        assert _isqrt(n, "shift").tolist() == want
        assert _isqrt(n, "poly").tolist() == want

    def test_monotone(self):
        vals = _isqrt(np.arange(5000), "shift").tolist()
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("seed", ["shift", "poly"])
    def test_stacked_rows_charge_the_sum_of_separate_calls(self, seed):
        # the rows converge after 2 to 6 Newton steps; stacking them must
        # neither change the roots nor charge any row for another's steps
        a = np.array([[1], [4], [99]], dtype=np.int64)
        b = np.array([[1 << 40], [(1 << 62) + 12345], [255]], dtype=np.int64)
        runs = []
        for n in (a, b, np.concatenate([a, b])):
            km = KernelMath()
            runs.append((km.isqrt(n, 12, seed),
                         km.counter.as_dict()))
        (ra, ca), (rb, cb), (rab, cab) = runs
        np.testing.assert_array_equal(rab, np.concatenate([ra, rb]))
        assert cab == {k: ca[k] + cb[k] for k in ca}
        assert ca["divs"] != cb["divs"]

    def test_poly_seed_matches(self):
        km = KernelMath()
        n = np.arange(1, 1 << 16, dtype=np.int64)
        got = km.isqrt(n, 40, "poly")
        want = np.asarray([math.isqrt(int(v)) for v in n])
        np.testing.assert_array_equal(got, want)


def _int_sqrt_loop(n, km, iterations=40, seed="shift"):
    """Reference: the Newton floor-sqrt with its seed found by loops, and
    each element charged for the Newton steps it takes. The shift seed's bit
    length is found by shifting once per bit until zero; the poly seed's
    mantissa m and exponent e by quartering n, one shift per quartering,
    until it is below 64."""
    n = np.asarray(n, dtype=np.int64)
    zero = n == 0
    n = np.where(zero, 1, n)
    if seed == "shift":
        bl = np.zeros(n.shape, dtype=np.int64)
        tmp = n.copy()
        while np.any(tmp > 0):
            km.counter.shifts += int(np.count_nonzero(tmp > 0))
            bl[tmp > 0] += 1
            tmp = tmp >> 1
        x = np.int64(1) << ((bl + 1) >> 1)
    else:
        e = np.zeros(n.shape, dtype=np.int64)
        m = n.copy()
        while np.any(m >= 64):
            km.counter.shifts += int(np.count_nonzero(m >= 64))
            big = m >= 64
            m[big] >>= 2
            e[big] += 1
        km.counter.muls += n.size
        km.counter.shifts += 3 * n.size
        km.counter.adds += 2 * n.size
        x = (((m * m) >> 9) + (m >> 3) + 4) << e
    x = np.maximum(x, 1)
    # each Newton step is charged only to the elements still moving
    active = np.ones(n.shape, dtype=bool)
    for _ in range(iterations):
        k = int(np.count_nonzero(active))
        if not k:
            break
        y = (x + n // x) >> 1
        km.counter.divs += k
        km.counter.adds += k
        km.counter.shifts += k
        km.counter.compares += k
        active &= y < x
        x = np.where(active, y, x)
    return np.where(zero, 0, x)


class TestShiftSeedMatchesLoop:
    SEED = "shift"
    EDGES = np.array(sorted({0, 1, 2, 3} | {(1 << k) + d for k in range(1, 63)
                                            for d in (-1, 0, 1) if (1 << k) + d < 1 << 63}
                            | {(1 << 63) - 1}), dtype=np.int64)

    @pytest.mark.parametrize("iterations", [0, 1, 12, 40])
    def test_edges(self, iterations):
        self._check(self.EDGES, iterations)

    @pytest.mark.parametrize("iterations", [0, 12])
    def test_random(self, iterations):
        rng = np.random.default_rng(3)
        for top in (1 << 8, 1 << 20, 1 << 40, 1 << 62):
            self._check(rng.integers(0, top, size=(7, 33), endpoint=True), iterations)

    def test_nonpositive_seed(self):
        # a zero is seeded as the loop seeds it; a negative element is refused
        self._check(np.array([[0, 1, 0], [1, 0, 2]], dtype=np.int64), 0)
        km = KernelMath()
        with pytest.raises(ValueError, match="negative"):
            km.isqrt(np.array([[-5, -1, 0], [1, 0, -(1 << 62)]], dtype=np.int64), 0, self.SEED)
        assert km.counter.total() == 0

    def _check(self, n, iterations):
        # iterations=0 returns the seed itself, so seeds are compared too
        km_new, km_ref = KernelMath(), KernelMath()
        got = km_new.isqrt(n, iterations, self.SEED)
        want = _int_sqrt_loop(n, km_ref, iterations=iterations, seed=self.SEED)
        np.testing.assert_array_equal(got, want)
        assert km_new.counter.as_dict() == km_ref.counter.as_dict()


class TestPolySeedMatchesLoop(TestShiftSeedMatchesLoop):
    """The poly seed's closed-form exponent against the quartering loop, on
    the same edges (0, 1, 63, 64, 255, 256, 2^k - 1, 2^k and 2^k + 1) and
    random inputs."""
    SEED = "poly"


_TOP = (1 << 62) - 1
# zeros, 1, the largest operand and the neighbours of each power of two up to it
_SQRT_EDGES = sorted({0, 1, 2, _TOP - 1, _TOP} | {(1 << k) + d for k in range(1, 62)
                                                  for d in (-1, 0, 1)})


def _isqrt_on_path(n, steps, seed, bound, python_ints):
    """``isqrt`` on a fresh instance of ``bound``, through the per-element
    Python-int path where ``python_ints``, else through the numpy loop,
    whatever the operand's size; the roots and the charges as a dict."""
    km = KernelMath.within(None, bound)
    limit = n.size if python_ints else -1
    with mock.patch.object(tensor_mod, "ISQRT_INT_MAX_SIZE", limit):
        got = km.isqrt(n, steps, seed)
    assert got.dtype == km.dtype and got.shape == n.shape
    return got, km.counter.as_dict()


class TestSmallOperandSquareRoot:
    """Operands of at most ``ISQRT_INT_MAX_SIZE`` elements step in Python
    ints: the same roots and the same charge of every kind as the numpy
    loop, and as the loop reference, on both sides of the size threshold."""

    # an int32 instance's bound promises that every value of its chain fits
    # 31 bits, the operand and each Newton iterate included
    @settings(max_examples=300, deadline=None)
    @given(seed=st.sampled_from(["shift", "poly"]), steps=st.integers(1, 12),
           bound=st.sampled_from([(1 << 31) - 1, _TOP]), data=st.data())
    def test_both_paths_agree(self, seed, steps, bound, data):
        edges = [v for v in _SQRT_EDGES if v <= bound]
        values = data.draw(st.lists(st.sampled_from(edges) | st.integers(0, bound), min_size=1,
                                    max_size=tensor_mod.ISQRT_INT_MAX_SIZE + 1))
        self._check(np.array(values, dtype=np.int64), steps, seed, bound)

    @pytest.mark.parametrize("seed", ["shift", "poly"])
    @pytest.mark.parametrize("steps", [1, 12])
    def test_both_paths_agree_on_the_edges(self, seed, steps):
        for bound in ((1 << 31) - 1, _TOP):
            edges = np.array([v for v in _SQRT_EDGES if v <= bound], dtype=np.int64)
            for chunk in np.array_split(edges, -(-edges.size // tensor_mod.ISQRT_INT_MAX_SIZE)):
                self._check(chunk, steps, seed, bound)
            self._check(np.zeros(tensor_mod.ISQRT_INT_MAX_SIZE + 1, dtype=np.int64), steps,
                        seed, bound)

    @staticmethod
    def _check(n, steps, seed, bound):
        py_roots, py_charge = _isqrt_on_path(n, steps, seed, bound, python_ints=True)
        np_roots, np_charge = _isqrt_on_path(n, steps, seed, bound, python_ints=False)
        assert py_roots.tolist() == np_roots.tolist()
        assert py_charge == np_charge
        ref = KernelMath()
        assert py_roots.tolist() == _int_sqrt_loop(n, ref, steps, seed).tolist()
        assert py_charge == ref.counter.as_dict()

    @pytest.mark.parametrize("seed", ["shift", "poly"])
    @pytest.mark.parametrize("size", [1, tensor_mod.ISQRT_INT_MAX_SIZE,
                                      tensor_mod.ISQRT_INT_MAX_SIZE + 1])
    def test_the_threshold_picks_the_path(self, seed, size):
        # the default threshold: operands up to it never reach the numpy
        # loop's floor_divide, larger ones do
        n = np.arange(size, dtype=np.int64) * 1000003
        km, calls = KernelMath(), []
        real = np.floor_divide

        def floor_divide(*args, **kw):
            calls.append(1)
            return real(*args, **kw)
        with mock.patch.object(tensor_mod.np, "floor_divide", floor_divide):
            got = km.isqrt(n, 12, seed)
        assert got.tolist() == [math.isqrt(v) for v in n.tolist()]
        assert bool(calls) == (size > tensor_mod.ISQRT_INT_MAX_SIZE)

    @pytest.mark.parametrize("python_ints", [True, False])
    @pytest.mark.parametrize("seed", ["shift", "poly"])
    def test_a_negative_element_is_refused_uncharged(self, seed, python_ints):
        n = np.array([[4, 0, 9], [1, -1, 1 << 40]], dtype=np.int64)
        for bound in ((1 << 31) - 1, 1 << 62):
            km = KernelMath.within(None, bound)
            limit = n.size if python_ints else -1
            with mock.patch.object(tensor_mod, "ISQRT_INT_MAX_SIZE", limit):
                with pytest.raises(ValueError, match="negative"):
                    km.isqrt(n, 12, seed)
            assert km.counter.total() == 0


def _quantized_rows(x, bits=8):
    p = MinMaxObserver().observe(x).qparams(bits)
    return quantize(x, p)


class TestIntLayerNorm:
    def test_constant_row_gives_zeros(self):
        x = np.full((1, 16), 3.0)
        p = qparams_from_range(4.0, -4.0, 8)
        q = quantize(x, p)
        gamma, beta = np.ones(16), np.zeros(16)
        out_p = qparams_from_range(1.0, -1.0, 8)
        for variant in LN_VARIANTS:
            out = int_layernorm(q, gamma, beta, variant, out_p)
            np.testing.assert_allclose(dequantize_np(out), 0.0,
                                       atol=float(out.params.scale))

    def test_symmetric_pair_normalizes_to_unit(self):
        a = 1.7
        x = np.array([[-a, a]])
        q = _quantized_rows(x)
        gamma, beta = np.full(2, 1.5), np.zeros(2)
        out_p = qparams_from_range(2.0, -2.0, 8)
        out = dequantize_np(int_layernorm(q, gamma, beta, "bitshift_newton", out_p))
        np.testing.assert_allclose(out, [[-1.5, 1.5]], atol=2 * 2.0 / 255 + 0.02)

    @pytest.mark.parametrize("variant", LN_VARIANTS)
    def test_rms_against_exact_layernorm(self, variant):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, size=(16, 64))
        gamma = rng.normal(1.0, 0.1, size=64)
        beta = rng.normal(0.0, 0.1, size=64)
        q = _quantized_rows(x)
        ref = layernorm_reference(dequantize_np(q), gamma, beta)
        out_p = qparams_from_range(float(ref.max()), float(ref.min()), 8)
        if variant == "log2_scale":
            out_p, _ = snap_pow2_out_params(out_p)
        out = int_layernorm(q, gamma, beta, variant, out_p)
        rms = float(np.sqrt(np.mean((dequantize_np(out) - ref) ** 2)))
        assert rms <= 0.05

    def test_shift_invariance_in_code_space(self):
        rng = np.random.default_rng(6)
        codes = rng.integers(40, 200, size=(4, 32))
        p = qparams_from_range(2.0, -2.0, 8)
        gamma, beta = np.ones(32), np.zeros(32)
        out_p = qparams_from_range(3.0, -3.0, 8)
        a = int_layernorm(QTensor(codes, p), gamma, beta, "bitshift_newton", out_p)
        b = int_layernorm(QTensor(codes + 17, p), gamma, beta, "bitshift_newton", out_p)
        np.testing.assert_array_equal(a.codes, b.codes)

    @pytest.mark.parametrize("variant", LN_VARIANTS)
    def test_zero_variance_stays_finite(self, variant):
        q = QTensor(np.full((2, 8), 100, dtype=np.int64),
                    qparams_from_range(1.0, -1.0, 8))
        out = int_layernorm(q, np.ones(8), np.zeros(8), variant,
                            qparams_from_range(1.0, -1.0, 8))
        assert np.all(out.codes >= 0) and np.all(out.codes <= 255)

    def test_integer_only_and_counts_differ_by_variant(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, size=(8, 32))
        q = _quantized_rows(x)
        gamma, beta = np.ones(32), np.zeros(32)
        out_p = qparams_from_range(3.0, -3.0, 8)
        totals = {}
        for variant in LN_VARIANTS:
            c = OpCounter()
            int_layernorm(q, gamma, beta, variant, out_p, c)
            assert c.float_violations == 0
            totals[variant] = c.total()
        assert len(set(totals.values())) == 3

    @pytest.mark.parametrize("bits, reciprocal", [(8, True), (12, False)])
    def test_row_division_path_follows_the_static_bound(self, bits, reciprocal):
        # 256 rows of 64 codes: at 8 bits the numerators (c - mean) << 15
        # fit 31 bits, so each row divides by its reciprocal; at 12 bits they
        # do not, and the rows divide. Either way, the codes and charges are
        # those of the division alone (a call under RECIP_MIN_SIZE)
        rng = np.random.default_rng(bits)
        x = rng.normal(0, 1, size=(256, 64))
        p = qparams_from_range(float(x.max()), float(x.min()), bits)
        q = quantize(x, p)
        gamma, beta = rng.normal(1.0, 0.1, size=64), rng.normal(0.0, 0.1, size=64)
        out_p = qparams_from_range(3.0, -3.0, 8)
        runs = []
        for size in (tensor_mod.RECIP_MIN_SIZE, 1 << 62):
            counter = OpCounter()
            with mock.patch.object(tensor_mod, "RECIP_MIN_SIZE", size), \
                    mock.patch.object(tensor_mod, "reciprocal_floordiv",
                                      wraps=tensor_mod.reciprocal_floordiv) as recip:
                out = int_layernorm(q, gamma, beta, "bitshift_newton", out_p, counter)
            runs.append((out.codes.tolist(), counter.as_dict(), recip.call_count))
        assert runs[0][2] == reciprocal and runs[1][2] == 0
        assert runs[0][:2] == runs[1][:2]

    def test_config_validation(self):
        q = QTensor(np.full((1, 4), 100, dtype=np.int64), qparams_from_range(1.0, -1.0, 8))
        with pytest.raises(ValueError):
            int_layernorm(q, np.ones(4), np.zeros(4), "nope", q.params)


def test_snap_pow2_idempotent():
    p = qparams_from_range(1.3, -1.1, 8)
    snapped, j = snap_pow2_out_params(p)
    again, j2 = snap_pow2_out_params(snapped)
    assert (float(snapped.scale), j) == (float(again.scale), j2)
    assert math.log2(float(snapped.scale)) == round(math.log2(float(snapped.scale)))
