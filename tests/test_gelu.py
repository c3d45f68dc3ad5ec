import numpy as np
import pytest
from scipy.special import erf

from intquant.gelu import (IBERT_ERF_COEFFS, QUARTIC_ERF_COEFFS, ErfPolyCoeffs,
                           data_aware_poly_gelu, erf_poly_eval, fit_erf_poly,
                           gelu_reference, ibert_gelu, poly_gelu_int, shift_gelu,
                           shift_gelu_int)
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

    def test_rms_bounded_by_max(self):
        res = fit_erf_poly(RANGE, 3, samples=501)
        assert res.l2_err <= res.linf_err

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
