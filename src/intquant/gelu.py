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


def _erf_poly_into(c: ErfPolyCoeffs, mag: np.ndarray, sign: np.ndarray, v: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The erf approximant at the points whose magnitudes are ``mag`` and
    whose ``np.sign`` is ``sign``, written into ``out``, with ``v`` as work
    space: sign * (a * (min(mag, -b) + b)^degree + 1)."""
    np.minimum(mag, -c.b, out=v)
    v += c.b
    # repeated multiplication: numpy's ** has a fast path for the square only
    np.multiply(v, v, out=out)
    for _ in range(c.degree - 2):
        out *= v
    out *= c.a
    out += 1.0
    return np.multiply(sign, out, out=out)   # in this order, for the sign of a nan


def erf_poly_eval(x, c: ErfPolyCoeffs):
    """Evaluate the erf approximant. sign(0) = 0, so f(0) = 0 exactly."""
    arr = np.asarray(x, dtype=np.float64)
    out = _erf_poly_into(c, np.abs(arr), np.sign(arr), np.empty(arr.shape), np.empty(arr.shape))
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


# Cephes ndtr.c (Moshier), as scipy.special.erf runs it. Each tuple lists a
# polynomial's coefficients from the highest power down; the denominators'
# leading 1 is written out, since 1.0*x + c rounds as p1evl's x + c does.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2   # log(2^1024): exp(-x^2) underflows past it
_CHUNK = 1 << 15   # elements per Horner pass, so that its temporaries stay in cache


def _polevl(x: np.ndarray, coef: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Cephes' polevl: Horner's rule in its order of operations, in place."""
    acc = np.multiply(x, coef[0], out=out)
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _erf_small(x: np.ndarray) -> np.ndarray:
    """x * T(x^2) / U(x^2), Cephes' erf on |x| <= 1, over a flat array."""
    y = np.empty_like(x)
    for i in range(0, x.size, _CHUNK):
        xs, ys = x[i:i + _CHUNK], y[i:i + _CHUNK]
        z = xs * xs
        _polevl(z, _ERF_T, out=ys)
        ys *= xs
        ys /= _polevl(z, _ERF_U)
    return y


def _erf_wide(x: np.ndarray) -> np.ndarray:
    """Cephes' erf over a flat array with some |x| > 1 or nan in it."""
    a = np.abs(x)
    y = np.full_like(x, np.nan)
    small = a <= 1.0
    y[small] = _erf_small(x[small])
    big = a > 1.0
    y[big] = 1.0                                 # erfc is 0 where x^2 passes MAXLOG
    with np.errstate(over="ignore"):             # a*a is inf past 1e154, as in C
        tail = big & (a * a <= _MAXLOG)
    t = a[tail]
    e = np.fromiter(map(math.exp, (-t * t).tolist()), np.float64, count=t.size)
    near = t < 8.0
    p = np.where(near, _polevl(t, _ERFC_P), _polevl(t, _ERFC_R))
    q = np.where(near, _polevl(t, _ERFC_Q), _polevl(t, _ERFC_S))
    y[tail] = 1.0 - e * p / q                    # 1 - erfc(|x|)
    return np.copysign(y, x, out=y)              # the odd extension


def erf(x):
    """Exact erf: a numpy port of Cephes' ``ndtr.c`` erf/erfc (Moshier),
    whose every output bit equals ``scipy.special.erf``'s on float64.

    Same coefficients, branches and order of operations:

    - x * T(x^2) / U(x^2) for |x| <= 1;
    - 1 - erfc(|x|) above it, where erfc is exp(-x^2) * P(|x|) / Q(|x|)
      below 8, exp(-x^2) * R(|x|) / S(|x|) from 8 up, and 0 once x^2
      passes MAXLOG (so erf(+-inf) = +-1);
    - the odd extension for negative x; -0.0 and nan come back as given.

    The erfc exponential is libm's (``math.exp``, one call per element),
    as Cephes calls it: numpy's SIMD ``np.exp`` is one ulp off glibc's on
    some arguments, and that ulp reaches erf. Only |x| > 1 pays for it:
    when every |x| <= 1, as every GELU input of the toy configs is, no
    mask is built and Horner's rule runs in place, in cache-sized chunks.
    Computes in float64, as scipy's "d" loop; a 0-d input gives a numpy
    scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    if flat.min(initial=0.0) >= -1.0 and flat.max(initial=0.0) <= 1.0:
        y = _erf_small(flat)
    else:
        y = _erf_wide(flat)
    return y.reshape(x.shape) if x.ndim else y[0]


def gelu_reference(x, out=None):
    """Exact GELU, 0.5 * x * (1 + erf(x / sqrt 2)), used as the fitting
    target, written into ``out`` (float64, the shape of ``x``) where it is
    given."""
    arr = np.asarray(x, dtype=np.float64)
    e = erf(arr / SQRT2)
    e += 1.0
    out = np.multiply(arr, 0.5, out=out)
    out *= e
    return out if arr.shape else float(out)


def _objective(x: np.ndarray, target: np.ndarray, level: str, degree: int):
    """The least-squares objective of a fit over the samples ``x``, as a
    function of (a, b): the sum of (target - f)^2, f the erf approximant
    (``level`` "erf") or its GELU, bit for bit as :func:`erf_poly_eval` and
    :func:`data_aware_poly_gelu` compute them. A fit evaluates it thousands
    of times, so it works in two buffers made here, once per fit, and the
    parts that depend on ``x`` alone are computed here too."""
    u = x if level == "erf" else x / SQRT2
    mag, sign, half = np.abs(u), np.sign(u), 0.5 * x
    v, r = np.empty_like(x), np.empty_like(x)

    def objective(ab) -> float:
        a, b = ab
        if b >= 0:
            return math.inf
        _erf_poly_into(ErfPolyCoeffs(a, b, degree), mag, sign, v, r)
        if level == "gelu":
            np.multiply(half, np.add(r, 1.0, out=r), out=r)
        np.subtract(target, r, out=r)
        return float(np.sum(np.multiply(r, r, out=r)))
    return objective


# the most samples a fit takes: its coarse grid alone evaluates the objective
# over them 2,046 times, so a fit at the maximum takes seconds
FIT_MAX_SAMPLES = 100_000


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
    if not math.isfinite(hi - lo):
        raise ValueError(f"fit range must be finite, got ({lo}, {hi})")
    if not 100 <= samples <= FIT_MAX_SAMPLES:
        raise ValueError(f"samples must be in [100, {FIT_MAX_SAMPLES}], got {samples}")
    if level not in ("erf", "gelu"):
        raise ValueError(f"unknown fit level {level!r}")
    x = np.linspace(lo, hi, samples)
    target = erf(x) if level == "erf" else gelu_reference(x)

    # coarse grid: b spans plausible saturation points, a spans both signs
    # (odd degrees need a > 0 for a monotone approximant)
    b_grid = np.linspace(-4.0, -0.8, 33)
    a_grid = np.concatenate([np.linspace(-1.2, -0.002, 31), np.linspace(0.002, 1.2, 31)])

    objective = _objective(x, target, level, degree)
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
