"""Polynomial GELU candidates: a data-range-aware quartic erf approximation,
the classic quadratic baseline, and a bit-shift sigmoid baseline, each with a
real-valued form and an integer-only form over quantized codes.

The erf approximant family is

    L(x) = sign(x) * (a * (clip(|x|, max=-b) + b)^degree + 1)

which is odd, saturates to +/-1 for |x| >= -b, and needs only (a, b) per
degree. GELU follows as 0.5 * x * (1 + L(x / sqrt(2))).

Each integer kernel is a function of its input code alone, in [0, qmax]:
its chain, requantization included, runs once over that interval, in int64
under the runtime guards, into a table of its int64 output codes
(``tensor.tabulated``), and each call gathers from it, charged per code
what the chain charges, so op counts are those of the chain. Where a guard
fires on some code of the interval, as for ``shift_gelu_int`` with
``softmax.M`` raised to 62, there is no table, and the kernel refuses every
call with ``KernelOverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import softmax
from .metric import approx_error
from .quantize import QParams, QTensor, checks_codes, encode_dyadic_multiplier, requantize
from .softmax import _recip_mul, _shift_add, _shift_exp_codes
from .tensor import KernelMath, OpCounter, tabulated

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
    v = np.clip(np.abs(arr), None, -c.b) + c.b
    # repeated multiplication: numpy's ** has a fast path for the square only
    power = v
    for _ in range(c.degree - 1):
        power = power * v
    out = np.sign(arr) * (c.a * power + 1.0)
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


def erf(x):
    """Exact erf (scipy.special, imported on first use: about 0.3 s that
    `import intquant` and integer inference need not pay)."""
    from scipy.special import erf as scipy_erf
    return scipy_erf(x)


def gelu_reference(x):
    """Exact GELU, used as the fitting target."""
    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * arr * (1.0 + erf(arr / SQRT2))
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
                 level: str = "erf") -> FitResult:
    """Least-squares fit of (a, b) on uniform samples over ``fit_range``.

    The best point of a deterministic coarse grid over (a, b) starts one
    Nelder-Mead run of ``scipy.optimize.minimize`` (xatol 1e-12, fatol
    1e-15); FitConvergenceError, carrying the best point found, is raised
    when the run reports no success.

    level selects the residual: "erf" fits L against erf directly, "gelu"
    fits 0.5*x*(1 + L(x/sqrt 2)) against exact GELU (the construction the
    quadratic baseline historically used).
    """
    # imported here, not at module level: it adds 0.21-0.25 s to `import
    # intquant` (about 0.5 s on a 2-vCPU VM), which every command but
    # `intquant fit` would pay
    from scipy.optimize import minimize

    lo, hi = float(fit_range[0]), float(fit_range[1])
    if not lo < hi:
        raise ValueError(f"fit range must satisfy lo < hi, got ({lo}, {hi})")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if level not in ("erf", "gelu"):
        raise ValueError(f"unknown fit level {level!r}")
    x = np.linspace(lo, hi, samples)
    target = erf(x) if level == "erf" else gelu_reference(x)

    # coarse grid: b spans plausible saturation points, a spans both signs
    # (odd degrees need a > 0 for a monotone approximant)
    b_grid = np.linspace(-4.0, -0.8, 33)
    a_grid = np.concatenate([np.linspace(-1.2, -0.002, 31), np.linspace(0.002, 1.2, 31)])

    def objective(ab):
        return _objective(ab[0], ab[1], degree, x, target, level)

    start = min(((a, b) for b in b_grid for a in a_grid), key=objective)
    run = minimize(objective, start, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15})

    coeffs = ErfPolyCoeffs(float(run.x[0]), float(run.x[1]), degree)
    if level == "erf":
        l2, linf = approx_error(erf, lambda v: erf_poly_eval(v, coeffs), (lo, hi))
    else:
        l2, linf = approx_error(gelu_reference,
                                lambda v: data_aware_poly_gelu(v, coeffs), (lo, hi))
    result = FitResult(coeffs, l2, linf, (lo, hi))
    if not run.success:
        raise FitConvergenceError(f"no convergence: {run.message}", result)
    return result


# ---------------------------------------------------------------------------
# integer paths
# ---------------------------------------------------------------------------

_KV = 12   # fixed-point grid (2^-12) for the clipped erf argument
_KA = 20   # fixed-point grid for the leading coefficient
_KL = 15   # fixed-point grid for the approximant value
_KS = 15   # bits of the shift GELU's sigmoid codes, grid 2^-(_KS-1)


def _poly_gelu_codes(codes: np.ndarray, counter: OpCounter | None, p: QParams,
                     out_params: QParams, c: ErfPolyCoeffs) -> np.ndarray:
    """The chain of :func:`poly_gelu_int` on codes in [0, qmax] of ``p``;
    it runs at table build, so its constants are encoded here."""
    m1, e1 = encode_dyadic_multiplier(float(p.scale) / SQRT2 * (1 << _KV))
    clip_code = int(round(-c.b * (1 << _KV)))
    a_mant = int(round(c.a * (1 << _KA)))
    m2, e2 = encode_dyadic_multiplier(float(p.scale) / (1 << (_KL + 1)) / float(out_params.scale))
    km = KernelMath(counter)
    t = km.sub(codes, int(p.zero_point))
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
    km.mul(vd, a_mant, out=vd)
    km.rshift_round(vd, _KA + 2 * _KV - _KL, out=vd)
    km.add(vd, 1 << _KL, out=vd)
    gate = km.mul(km.sign(t), vd, out=vd)
    km.add(gate, 1 << _KL, out=gate)                  # (1 + L), grid 2^-KL
    acc = km.mul(t, gate, out=gate)                   # x*(1+L) at s_in * 2^-KL
    return requantize(km, acc, m2, e2, out_params)


@checks_codes
def poly_gelu_int(q: QTensor, c: ErfPolyCoeffs, out_params: QParams,
                  counter: OpCounter | None = None) -> QTensor:
    """Integer-only evaluation of the polynomial GELU over codes.

    The coefficients and all rescaling multipliers are pre-encoded as
    dyadic (mantissa, shift) constants; the sqrt(2) division is folded into
    the input scale, so the kernel body is adds, multiplies, compares and
    round-half-up right shifts; it is looked up in its table over
    [0, qmax] (:func:`tensor.tabulated`).
    """
    codes, _ = tabulated(_poly_gelu_codes, q.codes, counter, 0, q.params.qmax, np.int64,
                         q.params, out_params, c)
    return QTensor(codes, out_params)


def _shift_gelu_codes(codes: np.ndarray, counter: OpCounter | None, p: QParams,
                      out_params: QParams, m: int) -> np.ndarray:
    """The chain of :func:`shift_gelu_int` on codes in [0, qmax] of ``p``,
    its sigmoid normalized by the reciprocal division at ``m``."""
    s = float(p.scale)
    # requantize the sigmoid argument onto a dyadic grid fine enough for
    # the exponent decomposition (codes stay under ~2^15)
    f = int(np.clip(math.floor(math.log2(32767.0 / max(1.6875 * s * p.qmax, 1e-9))), 4, 30))
    ms, es = encode_dyadic_multiplier(s * (1 << f))
    m2, e2 = encode_dyadic_multiplier(s / (1 << (_KS - 1)) / float(out_params.scale))
    km = KernelMath(counter)
    t = km.sub(codes, int(p.zero_point))
    zq = _shift_add(t, (1, 0, 3, 4), km)                 # t + t>>1 + t>>3 + t>>4
    km.rshift_round(km.mul(zq, ms, out=zq), es, out=zq)  # 1.6875*x on the 2^-f grid
    mpos = km.maximum(zq, 0)
    num = _shift_exp_codes(km.sub(zq, mpos, out=zq), counter, f)     # e^(z - m)
    den = _shift_exp_codes(km.sub(0, mpos, out=mpos), counter, f)
    km.add(num, den, out=den)
    sig = _recip_mul(num, den, _KS, m, km, out=num)
    acc = km.mul(t, sig, out=sig)                     # x*sigmoid at s * 2^-(bits-1)
    return requantize(km, acc, m2, e2, out_params)


@checks_codes
def shift_gelu_int(q: QTensor, out_params: QParams,
                   counter: OpCounter | None = None) -> QTensor:
    """Bit-shift GELU: x * sigmoid(1.6875 x), sigmoid via base-2 shift exp.

    The 1.6875 multiplier is t + t>>1 + t>>3 + t>>4 on the centered codes;
    the sigmoid is exp(z)/(exp(z) + 1) with both exponentials evaluated by
    the shift-exponential at a dyadic scale and normalized by integer
    division at ``softmax.M``. It is looked up in its table over [0, qmax]
    (:func:`tensor.tabulated`), which is keyed on that M.
    """
    codes, _ = tabulated(_shift_gelu_codes, q.codes, counter, 0, q.params.qmax, np.int64,
                         q.params, out_params, softmax.M)
    return QTensor(codes, out_params)
