"""Polynomial GELU candidates: a data-range-aware quartic erf approximation,
the classic quadratic baseline, and a bit-shift sigmoid baseline, each with a
real-valued form and an integer-only form over quantized codes.

The erf approximant family is

    L(x) = sign(x) * (a * (clip(|x|, max=-b) + b)^degree + 1)

which is odd, saturates to +/-1 for |x| >= -b, and needs only (a, b) per
degree. GELU follows as 0.5 * x * (1 + L(x / sqrt(2))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _erf

from .metric import approx_error
from .quantize import QParams, QTensor, encode_dyadic_multiplier, requantize
from .tensor import KernelMath, OpCounter

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ErfPolyCoeffs:
    a: float
    b: float
    degree: int = 4

    def __post_init__(self):
        if self.b >= 0:
            raise ValueError(f"b must be negative (saturation at -b), got {self.b}")
        if self.degree not in (2, 3, 4):
            raise ValueError(f"degree must be 2, 3 or 4, got {self.degree}")


# Shipped defaults. The quartic pair comes from fitting against vision-model
# activation ranges; the quadratic pair is the published I-BERT one.
QUARTIC_ERF_COEFFS = ErfPolyCoeffs(-0.019913, -2.698088, 4)
IBERT_ERF_COEFFS = ErfPolyCoeffs(-0.2888, -1.769, 2)


@dataclass(frozen=True)
class FitResult:
    coeffs: ErfPolyCoeffs
    l2_err: float  # RMS over the evaluation grid
    linf_err: float
    fit_range: tuple[float, float]

    def __post_init__(self):
        if self.l2_err > self.linf_err + 1e-12:
            raise ValueError("RMS error cannot exceed the max error")


class FitConvergenceError(RuntimeError):
    def __init__(self, message, best: FitResult):
        super().__init__(message)
        self.best = best


def erf_poly_eval(x, c: ErfPolyCoeffs):
    """Evaluate the erf approximant. sign(0) = 0, so f(0) = 0 exactly."""
    arr = np.asarray(x, dtype=np.float64)
    u = np.clip(np.abs(arr), None, -c.b)
    out = np.sign(arr) * (c.a * (u + c.b) ** c.degree + 1.0)
    return out if arr.shape else float(out)


def data_aware_poly_gelu(x, c: ErfPolyCoeffs = QUARTIC_ERF_COEFFS):
    """0.5 * x * (1 + L(x / sqrt(2))) with the quartic defaults."""
    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * arr * (1.0 + erf_poly_eval(arr / SQRT2, c))
    return out if arr.shape else float(out)


def ibert_gelu(x, c: ErfPolyCoeffs = IBERT_ERF_COEFFS):
    """Quadratic-erf GELU baseline."""
    return data_aware_poly_gelu(x, c)


def shift_gelu(x):
    """Idealized target of the bit-shift GELU: x * sigmoid(1.6875 * x).

    1.6875 = 1 + 1/2 + 1/8 + 1/16 is the shift-realizable stand-in for the
    usual 1.702 sigmoid-GELU constant.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = arr / (1.0 + np.exp(-1.6875 * arr))
    return out if arr.shape else float(out)


def gelu_reference(x):
    """Exact GELU, used as the fitting target."""
    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * arr * (1.0 + _erf(arr / SQRT2))
    return out if arr.shape else float(out)


def _objective(a: float, b: float, degree: int, x: np.ndarray,
               target: np.ndarray, level: str) -> float:
    if b >= 0:
        return math.inf
    c = ErfPolyCoeffs(a, b, degree)
    if level == "erf":
        r = target - erf_poly_eval(x, c)
    else:
        r = target - data_aware_poly_gelu(x, c)
    return float(np.sum(r * r))


def fit_erf_poly(fit_range: tuple[float, float], degree: int, samples: int = 2001,
                 level: str = "erf", max_sweeps: int = 20000) -> FitResult:
    """Least-squares fit of (a, b) on uniform samples over ``fit_range``.

    The solver is a deterministic coarse grid over (a, b) followed by
    coordinate descent with shrinking steps; it stops once a full sweep
    improves the objective by less than 1e-10 relatively.

    level selects the residual: "erf" fits L against erf directly, "gelu"
    fits 0.5*x*(1 + L(x/sqrt 2)) against exact GELU (the construction the
    quadratic baseline historically used).
    """
    lo, hi = float(fit_range[0]), float(fit_range[1])
    if not lo < hi:
        raise ValueError(f"fit range must satisfy lo < hi, got ({lo}, {hi})")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if level not in ("erf", "gelu"):
        raise ValueError(f"unknown fit level {level!r}")
    x = np.linspace(lo, hi, samples)
    target = _erf(x) if level == "erf" else gelu_reference(x)

    # coarse grid: b spans plausible saturation points, a spans both signs
    # (odd degrees need a > 0 for a monotone approximant)
    b_grid = np.linspace(-4.0, -0.8, 33)
    a_grid = np.concatenate([np.linspace(-1.2, -0.002, 31), np.linspace(0.002, 1.2, 31)])
    best_obj, best_a, best_b = math.inf, -0.1, -2.0
    for b in b_grid:
        for a in a_grid:
            obj = _objective(a, b, degree, x, target, level)
            if obj < best_obj:
                best_obj, best_a, best_b = obj, a, b
    a, b, obj = best_a, best_b, best_obj

    step_a = float(a_grid[1] - a_grid[0])
    step_b = float(b_grid[1] - b_grid[0])
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        improved_any = False
        for coord in ("a", "b"):
            step = step_a if coord == "a" else step_b
            while True:
                if coord == "a":
                    cands = ((a - step, b), (a + step, b))
                else:
                    cands = ((a, b - step), (a, b + step))
                objs = [_objective(ca, cb, degree, x, target, level) for ca, cb in cands]
                k = int(np.argmin(objs))
                if objs[k] < obj:
                    (a, b), obj = cands[k], objs[k]
                    improved_any = True
                else:
                    break
        if not improved_any:
            if step_a < 1e-12 and step_b < 1e-12:
                break
            step_a *= 0.5
            step_b *= 0.5
        elif obj > 0 and (best_obj - obj) / max(obj, 1e-300) < 1e-10 and sweeps > 4:
            break
        best_obj = obj

    coeffs = ErfPolyCoeffs(a, b, degree)
    if level == "erf":
        l2, linf = approx_error(_erf, lambda v: erf_poly_eval(v, coeffs), (lo, hi))
    else:
        l2, linf = approx_error(gelu_reference,
                                lambda v: data_aware_poly_gelu(v, coeffs), (lo, hi))
    result = FitResult(coeffs, l2, linf, (lo, hi))
    if sweeps >= max_sweeps:
        raise FitConvergenceError(f"no convergence after {max_sweeps} sweeps", result)
    return result


# ---------------------------------------------------------------------------
# integer paths
# ---------------------------------------------------------------------------

_KV = 12   # fixed-point grid (2^-12) for the clipped erf argument
_KA = 20   # fixed-point grid for the leading coefficient
_KL = 15   # fixed-point grid for the approximant value
_KS = 15   # bits of the shift GELU's sigmoid codes, grid 2^-(_KS-1)


def poly_gelu_int(q: QTensor, c: ErfPolyCoeffs, out_params: QParams,
                  counter: OpCounter | None = None) -> QTensor:
    """Integer-only evaluation of the polynomial GELU over codes.

    The coefficients and all rescaling multipliers are pre-encoded as
    dyadic (mantissa, shift) constants; the sqrt(2) division is folded into
    the input scale, so the kernel body is adds, multiplies, compares and
    round-half-up right shifts on int64.
    """
    p = q.params
    # configuration-time constants (real arithmetic allowed here)
    s_u = float(p.scale) / SQRT2
    m1, e1 = encode_dyadic_multiplier(s_u * (1 << _KV))
    clip_code = int(round(-c.b * (1 << _KV)))
    a_mant = int(round(c.a * (1 << _KA)))
    m2, e2 = encode_dyadic_multiplier(float(p.scale) / (1 << (_KL + 1)) / float(out_params.scale))
    km = KernelMath(counter)
    t = km.sub(q.codes, int(p.zero_point))
    v = km.abs(t)
    km.rshift_round(km.mul(v, m1, out=v), e1, out=v)  # |x|/sqrt2 on the 2^-KV grid
    km.sub(km.minimum(v, clip_code, out=v), clip_code, out=v)  # clip(|u|, -b) + b, in [b, 0]
    vd = km.mul(v, v)
    km.rshift_round(vd, _KV, out=vd)
    if c.degree == 4:
        km.mul(vd, vd, out=vd)                        # scale 2^-2KV
    elif c.degree == 3:
        km.mul(vd, v, out=vd)                         # scale 2^-2KV, nonpositive
    else:
        km.lshift(vd, _KV, out=vd)
    shift = _KA + 2 * _KV - _KL
    km.rshift_round(km.mul(vd, a_mant, out=vd), shift, out=vd)
    km.add(vd, 1 << _KL, out=vd)
    gate = km.mul(km.sign(t), vd, out=vd)
    km.add(gate, 1 << _KL, out=gate)                  # (1 + L), grid 2^-KL
    acc = km.mul(t, gate, out=gate)                   # x*(1+L) at s_in * 2^-KL
    return QTensor(requantize(km, acc, m2, e2, out_params), out_params)


def shift_gelu_int(q: QTensor, out_params: QParams,
                   counter: OpCounter | None = None) -> QTensor:
    """Bit-shift GELU: x * sigmoid(1.6875 x), sigmoid via base-2 shift exp.

    The 1.6875 multiplier is t + t>>1 + t>>3 + t>>4 on the centered codes;
    the sigmoid is exp(z)/(exp(z) + 1) with both exponentials evaluated by
    the shift-exponential at a dyadic scale and normalized by integer
    division.
    """
    from .softmax import _shift_exp_codes  # local import avoids a cycle

    p = q.params
    s = float(p.scale)
    # requantize the sigmoid argument onto a dyadic grid fine enough for
    # the exponent decomposition (codes stay under ~2^15)
    f = int(np.clip(math.floor(math.log2(32767.0 / max(1.6875 * s * p.qmax, 1e-9))), 4, 30))
    ms, es = encode_dyadic_multiplier(s * (1 << f))
    m2, e2 = encode_dyadic_multiplier(s / (1 << (_KS - 1)) / float(out_params.scale))
    M = 31

    km = KernelMath(counter)
    t = km.sub(q.codes, int(p.zero_point))
    zq = km.rshift(t, 1)
    km.add(t, zq, out=zq)
    part = km.rshift(t, 3)
    km.add(zq, part, out=zq)
    km.add(zq, km.rshift(t, 4, out=part), out=zq)       # t + t>>1 + t>>3 + t>>4
    km.rshift_round(km.mul(zq, ms, out=zq), es, out=zq)  # 1.6875*x on the 2^-f grid
    mpos = km.maximum(zq, 0, out=part)
    num = _shift_exp_codes(km.sub(zq, mpos, out=zq), f, km)     # e^(z - m)
    den = _shift_exp_codes(km.sub(0, mpos, out=mpos), f, km)
    km.add(num, den, out=den)
    recip = km.floordiv(np.int64(1) << M, den, out=den)
    sig = km.mul(recip, num, out=num)
    km.rshift(sig, M - (_KS - 1), out=sig)
    acc = km.mul(t, sig, out=sig)                       # x*sigmoid at s * 2^-(bits-1)
    return QTensor(requantize(km, acc, m2, e2, out_params), out_params)

