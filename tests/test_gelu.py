import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

import intquant
from intquant import gelu
from intquant.gelu import (FIT_MAX_SAMPLES, IBERT_ERF_COEFFS, QUARTIC_ERF_COEFFS,
                           ErfPolyCoeffs, FitConvergenceError, data_aware_poly_gelu,
                           erf_poly_eval, fit_erf_poly, gelu_reference, ibert_gelu,
                           poly_gelu_int, shift_gelu, shift_gelu_int)
from intquant.metric import approx_error
from intquant.quantize import QParams, QTensor, dequantize_np, qparams_from_range
from intquant.tensor import OpCounter

RANGE = (-3.0, 3.0)


def default_gelu_out_params(in_params: QParams, bits: int,
                            fn=data_aware_poly_gelu) -> QParams:
    """Output params covering fn over the input's representable range."""
    grid = np.arange(in_params.qmax + 1, dtype=np.float64)
    xs = (grid - float(in_params.zero_point)) * float(in_params.scale)
    ys = fn(xs)
    lo, hi = float(np.min(ys)), float(np.max(ys))
    if hi <= lo:
        hi = lo + 1e-6
    return qparams_from_range(hi, lo, bits, "asymmetric")


def bits(a) -> np.ndarray:
    """The float64 bit patterns of a, so that -0.0 != 0.0 and nan == nan."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


SQRT_MAXLOG = math.sqrt(gelu._MAXLOG)


class TestErfPort:
    """``gelu.erf`` is Cephes' erf in numpy; scipy.special.erf is the oracle,
    output bit for output bit."""

    def test_dense_grid_over_every_branch(self):
        x = np.linspace(-30.0, 30.0, 600_001)
        assert np.array_equal(bits(gelu.erf(x)), bits(erf(x)))

    @pytest.mark.parametrize("edge", [1.0, 8.0, SQRT_MAXLOG],
                             ids=["small-to-erfc", "P/Q-to-R/S", "maxlog"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_branch_edges_and_their_neighbours(self, edge, sign):
        c = sign * edge
        x = np.array([np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)])
        assert np.array_equal(bits(gelu.erf(x)), bits(erf(x)))

    def test_special_values(self):
        tiny = np.nextafter(0.0, 1.0)
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny])
        got = gelu.erf(x)
        assert np.array_equal(bits(got), bits(erf(x)))
        assert np.signbit(got[1]) and np.isnan(got[4])
        assert list(got[2:4]) == [1.0, -1.0]

    def test_common_case_matches_the_masked_path(self):
        # every |x| <= 1 skips the masks; the same values inside a wide
        # array run through them
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 100_000)
        wide = gelu.erf(np.append(x, 2.0))[:-1]
        assert np.array_equal(bits(gelu.erf(x)), bits(wide))
        assert np.array_equal(bits(gelu.erf(x)), bits(erf(x)))

    def test_scalar_and_integer_inputs(self):
        for v in (0.5, -2.5, 10.0):
            got = gelu.erf(v)
            assert isinstance(got, np.float64) and bits(got) == bits(erf(v))
            assert bits(gelu.erf(np.array(v))) == bits(erf(v))
        ints = np.arange(-5, 6)
        assert np.array_equal(bits(gelu.erf(ints)), bits(erf(ints)))
        assert gelu.erf(np.zeros((0, 3))).shape == (0, 3)
        assert gelu.erf(np.ones((2, 3, 4)) * 0.5).shape == (2, 3, 4)
        ref = gelu_reference(1.5)
        assert type(ref) is float and ref == 0.5 * 1.5 * (1.0 + float(erf(1.5 / math.sqrt(2))))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_finite_floats(self, xs):
        x = np.array(xs, dtype=np.float64)
        assert np.array_equal(bits(gelu.erf(x)), bits(erf(x)))


class TestErfPolyEval:
    def test_zero_is_exact(self):
        assert erf_poly_eval(0.0, QUARTIC_ERF_COEFFS) == 0.0

    def test_saturates_to_one(self):
        c = QUARTIC_ERF_COEFFS
        assert erf_poly_eval(3.0, c) == pytest.approx(1.0, abs=1e-15)
        assert erf_poly_eval(-c.b + 0.01, c) == 1.0

    def test_odd_symmetry(self):
        x = np.linspace(-4, 4, 1001)
        f = erf_poly_eval(x, QUARTIC_ERF_COEFFS)
        np.testing.assert_allclose(f, -erf_poly_eval(-x, QUARTIC_ERF_COEFFS),
                                   atol=1e-15)

    def test_monotone_on_positive_branch(self):
        # open interval: the sign(0) = 0 anchor sits 0.055 above the right
        # limit f(0+) = a*b^4 + 1, so the grid starts just right of zero
        x = np.linspace(1e-9, -QUARTIC_ERF_COEFFS.b, 20001)
        f = erf_poly_eval(x, QUARTIC_ERF_COEFFS)
        assert np.all(np.diff(f) >= -1e-15)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            ErfPolyCoeffs(-0.1, 1.0, 4)

    @staticmethod
    def _allocating(x, c):
        """The form erf_poly_eval had before it wrote into two buffers."""
        arr = np.asarray(x, dtype=np.float64)
        v = np.clip(np.abs(arr), None, -c.b) + c.b
        power = v
        for _ in range(c.degree - 1):
            power = power * v
        return np.sign(arr) * (c.a * power + 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
           st.floats(-2.0, 2.0), st.floats(-5.0, -1e-3), st.sampled_from([2, 3, 4]))
    @example([-math.nan, math.nan, -0.0, 0.0, -math.inf], 0.0, -1.0, 2)
    def test_is_its_allocating_form_bit_for_bit(self, xs, a, b, degree):
        c = ErfPolyCoeffs(a, b, degree)
        got, want = erf_poly_eval(np.array(xs), c), self._allocating(xs, c)
        np.testing.assert_array_equal(got, want)
        assert np.signbit(got).tolist() == np.signbit(want).tolist()
        assert erf_poly_eval(xs[0], c) == float(self._allocating(xs[0], c)) or math.isnan(xs[0])
        with pytest.raises(ValueError):
            ErfPolyCoeffs(-0.1, -1.0, 5)


class TestErrorTable:
    """Frozen error-table values, all on the 10001-point grid over (-3, 3)."""

    def test_quartic_erf_errors(self):
        l2, linf = approx_error(erf, lambda x: erf_poly_eval(x, QUARTIC_ERF_COEFFS), RANGE)
        assert linf == pytest.approx(0.0550, abs=0.0005)
        assert l2 == pytest.approx(0.0098, rel=0.15)

    def test_ibert_erf_errors(self):
        l2, linf = approx_error(erf, lambda x: erf_poly_eval(x, IBERT_ERF_COEFFS), RANGE)
        assert linf == pytest.approx(0.0962, abs=0.001)
        assert l2 == pytest.approx(0.0264, rel=0.15)

    def test_gelu_level_errors_and_ordering(self):
        l2_ours, linf_ours = approx_error(gelu_reference, data_aware_poly_gelu, RANGE)
        l2_ib, linf_ib = approx_error(gelu_reference, ibert_gelu, RANGE)
        assert linf_ours == pytest.approx(0.0093, abs=0.0005)
        assert linf_ib == pytest.approx(0.0182, abs=0.001)
        assert linf_ours < linf_ib and l2_ours < l2_ib

    def test_erf_level_ordering(self):
        _, linf_ours = approx_error(erf, lambda x: erf_poly_eval(x, QUARTIC_ERF_COEFFS), RANGE)
        _, linf_ib = approx_error(erf, lambda x: erf_poly_eval(x, IBERT_ERF_COEFFS), RANGE)
        assert linf_ours < linf_ib


class TestGeluFunctions:
    def test_zero(self):
        assert data_aware_poly_gelu(0.0) == 0.0
        assert ibert_gelu(0.0) == 0.0
        assert shift_gelu(0.0) == 0.0

    def test_large_input_passthrough(self):
        assert data_aware_poly_gelu(10.0) / 10.0 == pytest.approx(1.0, abs=1e-3)

    def test_negative_tail_vanishes(self):
        assert data_aware_poly_gelu(-10.0) == pytest.approx(0.0, abs=1e-9)


class TestFit:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-5.0, 0.5), st.sampled_from([2, 3, 4]),
           st.sampled_from(["erf", "gelu"]))
    def test_objective_is_the_residual_sum_bit_for_bit(self, a, b, degree, level):
        # evaluated twice into the same buffers, the fit's objective is the
        # sum of squares of the residual that erf_poly_eval and
        # data_aware_poly_gelu give
        x = np.linspace(-3.0, 3.0, 1001)
        target = erf(x) if level == "erf" else gelu_reference(x)
        objective = gelu._objective(x, target, level, degree)
        if b >= 0:
            assert objective((a, b)) == math.inf
            return
        c = ErfPolyCoeffs(a, b, degree)
        r = target - (erf_poly_eval(x, c) if level == "erf" else data_aware_poly_gelu(x, c))
        want = float(np.sum(r * r))
        assert objective((a, b)) == want and objective(np.array([a, b])) == want

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            fit_erf_poly((0.0, 0.0), 4)

    def test_quartic_fit_beats_shipped_coefficients(self):
        res = fit_erf_poly(RANGE, 4, samples=2001)
        x = np.linspace(*RANGE, 2001)
        shipped = float(np.sum((erf(x) - erf_poly_eval(x, QUARTIC_ERF_COEFFS)) ** 2))
        fitted = float(np.sum((erf(x) - erf_poly_eval(x, res.coeffs)) ** 2))
        assert fitted <= shipped + 1e-9

    def test_quadratic_gelu_level_fit_recovers_known_error(self):
        # fitting the quadratic through the GELU-level objective lands within
        # 5% of the shipped quadratic's erf max error
        res = fit_erf_poly(RANGE, 2, samples=2001, level="gelu")
        _, linf = approx_error(erf, lambda x: erf_poly_eval(x, res.coeffs), RANGE)
        assert linf == pytest.approx(0.0962, rel=0.05)

    def test_deterministic(self):
        a = fit_erf_poly((-2.0, 2.0), 2, samples=501)
        b = fit_erf_poly((-2.0, 2.0), 2, samples=501)
        assert a == b

    @pytest.mark.parametrize("fit_range", [(-3.0, math.inf), (-math.inf, 3.0), (-1e308, 1e308)])
    def test_range_a_float_cannot_span_is_refused(self, fit_range):
        with pytest.raises(ValueError, match="finite"):
            fit_erf_poly(fit_range, 4)

    @pytest.mark.parametrize("samples", [99, FIT_MAX_SAMPLES + 1, 2**62])
    def test_samples_outside_their_range_are_refused(self, samples):
        with pytest.raises(ValueError, match="samples"):
            fit_erf_poly(RANGE, 4, samples=samples)

    def test_rms_bounded_by_max(self):
        res = fit_erf_poly(RANGE, 3, samples=501)
        assert res.l2_err <= res.linf_err

    # sum of squared residuals over RANGE at 2,001 samples that the
    # coordinate-descent solver this fit replaced reached, to 12 decimals
    DESCENT_OBJECTIVES = {
        ("erf", 2): 0.212334017088, ("erf", 3): 0.062469013988, ("erf", 4): 0.178985581879,
        ("gelu", 2): 0.176800519017, ("gelu", 3): 0.028656333136, ("gelu", 4): 0.010639324212,
    }

    @pytest.mark.parametrize("level,degree", sorted(DESCENT_OBJECTIVES))
    def test_objective_no_worse_than_coordinate_descent(self, level, degree):
        res = fit_erf_poly(RANGE, degree, samples=2001, level=level)
        x = np.linspace(*RANGE, 2001)
        if level == "erf":
            r = erf(x) - erf_poly_eval(x, res.coeffs)
        else:
            r = gelu_reference(x) - data_aware_poly_gelu(x, res.coeffs)
        assert float(np.sum(r * r)) <= self.DESCENT_OBJECTIVES[level, degree] + 1e-12

    def test_unconverged_run_raises_with_its_best_point(self, monkeypatch):
        import scipy.optimize
        minimize = scipy.optimize.minimize

        def capped(*args, options, **kwargs):
            return minimize(*args, options={**options, "maxiter": 5}, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", capped)
        with pytest.raises(FitConvergenceError, match="no convergence") as info:
            fit_erf_poly(RANGE, 2, samples=501)
        best = info.value.best
        assert best.coeffs.degree == 2 and best.l2_err <= best.linf_err

    def test_import_does_not_load_the_optimizer(self):
        # scipy.optimize is imported inside fit_erf_poly only; at module
        # level it would add about 0.2 s to every command's start
        src = os.path.dirname(os.path.dirname(intquant.__file__))
        code = ("import sys, intquant, intquant.cli;"
                " print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_degree_direction_holds_at_gelu_level(self):
        # fitting and scoring at the GELU level reproduces the
        # higher-degree-is-better direction; the erf-level fits do not order
        # this way because the one-term families are not nested
        errs = {d: fit_erf_poly(RANGE, d, samples=2001, level="gelu").l2_err
                for d in (2, 3, 4)}
        assert errs[4] <= errs[3] <= errs[2]


class TestIntegerKernels:
    def setup_method(self):
        self.p_in = qparams_from_range(3.0, -3.0, 8, "asymmetric")
        self.codes = np.arange(256, dtype=np.int64)
        self.q = QTensor(self.codes, self.p_in)
        self.x = dequantize_np(self.q)

    def test_quartic_exhaustive_sweep_within_two_steps(self):
        p_out = default_gelu_out_params(self.p_in, 8)
        out = poly_gelu_int(self.q, QUARTIC_ERF_COEFFS, p_out)
        err = np.abs(dequantize_np(out) - data_aware_poly_gelu(self.x))
        assert err.max() <= 2 * float(p_out.scale)

    def test_quadratic_exhaustive_sweep_within_two_steps(self):
        p_out = default_gelu_out_params(self.p_in, 8, ibert_gelu)
        out = poly_gelu_int(self.q, IBERT_ERF_COEFFS, p_out)
        err = np.abs(dequantize_np(out) - ibert_gelu(self.x))
        assert err.max() <= 2 * float(p_out.scale)

    def test_shift_gelu_sweep(self):
        # envelope verified empirically; the shift sigmoid's linear fraction
        # keeps this one above the polynomial kernels
        p_out = default_gelu_out_params(self.p_in, 8, shift_gelu)
        out = shift_gelu_int(self.q, p_out)
        err = np.abs(dequantize_np(out) - shift_gelu(self.x))
        assert err.max() <= 0.05

    def test_shift_gelu_tracks_its_own_slope(self):
        # with a fine output grid the kernel's error is its sigmoid's; a
        # sigmoid argument of 1.5625x rather than 1.6875x gives RMS 0.016
        p_in = qparams_from_range(4.0, -4.0, 8, "asymmetric")
        q = QTensor(self.codes, p_in)
        p_out = default_gelu_out_params(p_in, 16, shift_gelu)
        err = dequantize_np(shift_gelu_int(q, p_out)) - shift_gelu(dequantize_np(q))
        assert np.sqrt(np.mean(err * err)) < 0.01

    def test_zero_input_maps_to_zero_code(self):
        p_out = default_gelu_out_params(self.p_in, 8)
        q0 = QTensor(np.array([int(self.p_in.zero_point)]), self.p_in)
        out = poly_gelu_int(q0, QUARTIC_ERF_COEFFS, p_out)
        assert out.codes[0] == int(p_out.zero_point)

    def test_no_float_operations_recorded(self):
        counter = OpCounter()
        poly_gelu_int(self.q, QUARTIC_ERF_COEFFS, default_gelu_out_params(self.p_in, 8),
                      counter)
        assert counter.float_violations == 0
        assert counter.total() > 0

    def test_deterministic_counts(self):
        c1, c2 = OpCounter(), OpCounter()
        p_out = default_gelu_out_params(self.p_in, 8)
        poly_gelu_int(self.q, QUARTIC_ERF_COEFFS, p_out, c1)
        poly_gelu_int(self.q, QUARTIC_ERF_COEFFS, p_out, c2)
        assert c1.as_dict() == c2.as_dict()

    def test_monotone_in_codes(self):
        p_out = default_gelu_out_params(self.p_in, 8)
        out = poly_gelu_int(self.q, QUARTIC_ERF_COEFFS, p_out)
        x = dequantize_np(self.q)
        keep = x >= -0.6  # the exact function is decreasing left of its dip
        codes = out.codes[keep]
        assert np.all(np.diff(codes.astype(int)) >= 0)
