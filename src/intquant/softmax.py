"""Integer-only softmax candidates built from a shared scaffold:
max-subtraction, a shift-based base-2 exponent, and normalization by
reciprocal integer division.

All kernels reduce over the last axis and require a dyadic input scale
(1/2^f, f >= 2), which makes floor(1/scale) and the integer/fraction exponent
decomposition exact in code space. Right shifts on negative codes are
arithmetic, i.e. floor-division semantics. The code-domain stages below
work on raw integer codes and are private; the kernels wrap them for
``QTensor`` inputs. Every kernel writes probabilities onto the output
parameters it is handed, which must be :func:`softmax_out_params` of their
width, and returns int64 codes.

An exponential is a function of the max-subtracted code alone, in
[-qmax, 0]: its chain runs once over that interval, in int64 under the
runtime guards, into an int32 table (``tensor.tabulated``), and each call
gathers from it, charged per code what the chain charges, so op counts are
those of the chain. Where a guard fires on some code of the interval
there is no table, and the kernel refuses every call with
``KernelOverflowError``. The max-subtraction, the row sums, the reciprocal
division and log2_softmax's bit-length tail (``KernelMath.log2_ratio``) run
per call, each on the ``KernelMath`` of its static bound
(``KernelMath.within``), from input codes in [0, qmax], which the kernels
check once per call (:func:`quantize.checks_codes`), and from the table's
peak: the reciprocal division in int64, not scanning operands for the
overflow guards where the bound fits. The max-subtraction runs in int64,
the gather's index dtype; it has no guard to pass.
"""

from __future__ import annotations

import math

import numpy as np

from .metric import approx_error
from .quantize import (DYADIC_EXPONENTS, QParams, QTensor, checks_codes,
                       encode_dyadic_multiplier)
from .tensor import KernelMath, OpCounter, buffer_for, mul_bound, tabulated

# quadratic used by the range-reduction exponential baseline:
# exp(p) ~ A*(p + B)^2 + C on p in (-ln2, 0]
IEXP_A = 0.3585
IEXP_B = 1.353
IEXP_C = 0.344


# overflow-guard exponent of the reciprocal division; it must satisfy
# M >= 2*bits + ceil(log2(row length)) + 2, checked per call
M = 31


class ConfigurationError(ValueError):
    """Kernel configuration does not match its preconditions."""


class NormalizationError(ValueError):
    """A softmax row had a zero exponential denominator."""


def _dyadic_exponent(params: QParams) -> int:
    """f of the input scale, which must be exactly 2^-f with f in
    ``DYADIC_EXPONENTS``. On coarser grids the ln2 terms round to nothing
    (2^-1 drives efficient_bit_softmax's fraction codes negative, 2^0 zeroes
    iexp_softmax's ln2 divisor); finer ones overflow the kernels' terms."""
    s = float(params.scale)
    frac, exp = math.frexp(s)   # s = frac * 2^exp, and 2^-f = 0.5 * 2^(1 - f)
    f = 1 - exp
    if frac != 0.5 or f not in DYADIC_EXPONENTS:
        raise ConfigurationError(
            f"softmax kernels need a scale 2^-f with {DYADIC_EXPONENTS[0]} <= f"
            f" <= {DYADIC_EXPONENTS[-1]}, got {s}"
        )
    return f


def _check_m(bits: int, rowlen: int) -> None:
    need = 2 * bits + math.ceil(math.log2(max(rowlen, 2))) + 2
    if M < need:
        raise ConfigurationError(
            f"M={M} too small for bits={bits}, row length {rowlen};"
            f" need at least {need}"
        )


def softmax_out_params(bits: int) -> QParams:
    """The one output grid of the softmax kernels: probabilities on 2^-(bits-1)."""
    return QParams(1.0 / (1 << (bits - 1)), 0, bits, "asymmetric")


def _prob_bits(out_params: QParams) -> int:
    """The width of ``out_params``, which must be the kernels' grid."""
    if out_params != softmax_out_params(out_params.bits):
        raise ConfigurationError(
            f"softmax kernels write onto softmax_out_params({out_params.bits}), not {out_params}"
        )
    return out_params.bits


# ---------------------------------------------------------------------------
# code-domain stages
# ---------------------------------------------------------------------------

def _max_subtract_codes(q: QTensor, counter: OpCounter | None) -> np.ndarray:
    """Codes minus their row max, in [-qmax, 0], in int64, which is intp on
    64-bit platforms: they index the exponential's table, and ``np.take``
    would first convert narrower indices to intp."""
    km = KernelMath(counter)
    return km.sub(q.codes, km.max(q.codes, axis=-1, keepdims=True))


def _shift_add(x: np.ndarray, shifts: tuple, km: KernelMath) -> np.ndarray:
    """x times a sum of signed powers of two, by arithmetic shifts: the term
    x >> |s| of each s in ``shifts``, in order, added for s >= 0 and
    subtracted for s < 0. s = 0 is x itself, so the first s is positive;
    (1, 0, -4) is log2(e) ~ 1.4375 and (1, 3, 4) is ln2 ~ 0.6875."""
    acc, tmp = km.rshift(x, shifts[0]), None
    for s in shifts[1:]:
        if s:
            term = tmp = km.rshift(x, abs(s), out=tmp)
        else:
            term = x
        (km.sub if s < 0 else km.add)(acc, term, out=acc)
    return acc


def _decompose_codes(qp: np.ndarray, f: int, km: KernelMath):
    """Split nonpositive qp into (q_int >= 0, r in [0, 2^f))."""
    pos = km.sub(0, qp)
    q_int = km.rshift(pos, f)          # floor(P / 2^f), exact for dyadic scales
    return q_int, km.sub(pos, km.lshift(q_int, f), out=pos)


def _shift_exp_codes(qd: np.ndarray, counter: OpCounter | None, f: int,
                     slope: tuple = (1,), taylor_degree: int = 1) -> np.ndarray:
    """Shift exponential of nonpositive codes on the 2^-f grid: qd times
    log2(e) splits into an integer part q_int and a fraction x in (-1, 0],
    and 2^x ~ 1 + a*x [+ (a*x)^2/2 at Taylor degree 2] is shifted down by
    q_int. ``slope`` is a as :func:`_shift_add` shifts: (1,) is I-ViT's
    1/2, (1, 3, 4) the efficient bit softmax's ln2 ~ 0.6875."""
    km = KernelMath(counter)
    q_int, r = _decompose_codes(_shift_add(qd, (1, 0, -4), km), f, km)
    lin = _shift_add(km.sub(0, r, out=r), slope, km)
    if taylor_degree == 1:
        frac = km.add(lin, 1 << f, out=lin)
    else:
        frac = km.add(lin, 1 << f)
        sq = km.mul(lin, lin, out=lin)
        km.add(frac, km.rshift(sq, f + 1, out=sq), out=frac)
    return km.rshift(frac, km.minimum(q_int, 62, out=q_int), out=frac)


def _row_sums(num: np.ndarray, km: KernelMath) -> np.ndarray:
    """Row sums of the exponential codes, refused where one is not positive."""
    den = km.sum(num, axis=-1, keepdims=True)
    if np.any(den <= 0):
        bad = int(np.argwhere(den.reshape(-1) <= 0)[0][0])
        raise NormalizationError(f"zero exponential sum in row {bad}")
    return den


def _recip_bound(num: int, n: int) -> int:
    """Static bound of :func:`_recip_mul` at ``M`` for numerators within
    ``num``, n of them to a denominator: the denominators lie within
    n * num, the reciprocal within 2^M and its products within their
    mul_bound."""
    return max(n * num, mul_bound(1 << M, num))


def _recip_mul(num: np.ndarray, den: np.ndarray, bits: int, m: int, km: KernelMath,
               out: np.ndarray | None = None) -> np.ndarray:
    """num / den on the 2^-(bits-1) grid by one reciprocal division at the
    overflow-guard exponent m, floor(2^m / den) * num >> (m - bits + 1); a
    row normalized so loses at most (n+1)/2^(bits-1) of its sum, all of it
    downward, and since num <= den no code exceeds 2^(bits-1). ``out``
    follows the :class:`KernelMath` buffer rule and may be ``num``."""
    recip = km.floordiv(np.int64(1) << m, den)
    out = km.mul(recip, num, out=out)
    return km.rshift(out, m - (bits - 1), out=out)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _exp_div_softmax(q: QTensor, out_params: QParams, counter: OpCounter | None,
                     exp_codes, *shape) -> QTensor:
    """Max-subtract, the exponential ``exp_codes(qd, counter, f, *shape)``,
    reciprocal division onto ``out_params``: the body every exponential
    softmax kernel shares. The exponential is looked up in its int32 table
    over [-qmax, 0] (:func:`tensor.tabulated`), whose peak bounds the
    division."""
    bits = _prob_bits(out_params)
    f = _dyadic_exponent(q.params)
    n = q.codes.shape[-1]
    _check_m(bits, n)
    num, peak = tabulated(exp_codes, _max_subtract_codes(q, counter), counter,
                          -q.params.qmax, 0, np.int32, f, *shape)
    # recip * num reaches 2^M, so the division is int64, in num if it is
    km = KernelMath.within(counter, _recip_bound(peak, n))
    codes = _recip_mul(num, _row_sums(num, km), bits, M, km, out=buffer_for(km, num))
    return QTensor(codes, out_params)


@checks_codes
def efficient_bit_softmax(q: QTensor, out_params: QParams, counter: OpCounter | None = None,
                          taylor_degree: int = 1) -> QTensor:
    """Shift exponential with the fraction 1 + ln2*x, ln2 ~ 0.6875 by
    shifts, and its square term at Taylor degree 2."""
    if taylor_degree not in (1, 2):
        raise ConfigurationError(f"taylor_degree must be 1 or 2, got {taylor_degree}")
    return _exp_div_softmax(q, out_params, counter, _shift_exp_codes, (1, 3, 4), taylor_degree)


@checks_codes
def shiftmax(q: QTensor, out_params: QParams, counter: OpCounter | None = None) -> QTensor:
    """Baseline with the endpoint-matched linear fraction 1 + x/2."""
    return _exp_div_softmax(q, out_params, counter, _shift_exp_codes)


_P12 = 12  # fixed-point grid of the quadratic exponential value


def _iexp_value_codes(qd: np.ndarray, counter: OpCounter | None, f: int) -> np.ndarray:
    """Range-reduction exponential: e^x = 2^(-z) * quad(p), p in (-ln2, 0],
    for nonpositive codes.

    Returns codes on the 2^-_P12 grid, shifted down by z.
    """
    # ln2, B and C/A on the 2^-f grid, and A as a dyadic multiplier onto
    # the 2^-_P12 grid
    s = 1.0 / (1 << f)
    ln2_c = int(math.floor(math.log(2.0) / s))
    b_c = int(math.floor(IEXP_B / s))
    c_c = int(math.floor(IEXP_C / (IEXP_A * s * s)))
    m, e = encode_dyadic_multiplier(IEXP_A * s * s * (1 << _P12))
    km = KernelMath(counter)
    z = km.sub(0, qd)
    km.floordiv(z, ln2_c, out=z)
    p = km.mul(z, ln2_c)
    km.add(qd, p, out=p)
    km.add(p, b_c, out=p)                  # p + B
    km.mul(p, p, out=p)
    km.add(p, c_c, out=p)                  # (p + B)^2 + C/A
    km.mul(p, m, out=p)
    km.rshift_round(p, e, out=p)           # on the 2^-_P12 grid
    return km.rshift(p, km.minimum(z, 62, out=z), out=p)


@checks_codes
def iexp_softmax(q: QTensor, out_params: QParams,
                 counter: OpCounter | None = None) -> QTensor:
    """Softmax with the quadratic range-reduction exponential numerator."""
    return _exp_div_softmax(q, out_params, counter, _iexp_value_codes)


@checks_codes
def log2_softmax(q: QTensor, out_params: QParams,
                 counter: OpCounter | None = None) -> QTensor:
    """Softmax snapped onto the power-of-two grid: outputs are 2^(-k).

    The log2 code k = round(log2(denominator / numerator)) comes from the
    integer bit lengths of both; the returned affine codes are 2^(bits-1) >> k,
    exactly representable on the 1/2^(bits-1) output grid, and 0 for k past it.
    """
    bits = _prob_bits(out_params)
    km = KernelMath(counter)
    k = log2_softmax_codes.unchecked(q, km.counter)
    k = km.minimum(k, 62, out=buffer_for(km, k))      # a zero numerator's k is 63
    codes = km.rshift(np.int64(1) << (bits - 1), k, out=k)
    return QTensor(codes, out_params)


@checks_codes
def log2_softmax_codes(q: QTensor, counter: OpCounter | None = None) -> np.ndarray:
    """Raw log2 probability codes k, value 2^(-k); the winner of a dominant
    row gets code 0. They do not depend on the output grid."""
    f = _dyadic_exponent(q.params)
    num, peak = tabulated(_iexp_value_codes, _max_subtract_codes(q, counter), counter,
                          -q.params.qmax, 0, np.int32, f)
    km = KernelMath.within(counter, q.codes.shape[-1] * peak)   # int32 where den fits
    return km.log2_ratio(num, _row_sums(num, km))


# 2^x on (-1, 1) as I-ViT's shift exponential and ours (ln2 exact, by shifts) take it
BASE2_FRAC_APPROXIMANTS = {
    "ivit_linear": lambda x: 1.0 + x / 2.0,
    "ours_exact_ln2": lambda x: 1.0 + math.log(2.0) * x,
    "ours_shift": lambda x: 1.0 + 0.6875 * x,
}


def base2_frac_approx_error(mode: str, grid: int = 10001) -> tuple[float, float]:
    """(RMS, max) error of a 2^x approximant against exact 2^x on (-1, 1)."""
    if mode not in BASE2_FRAC_APPROXIMANTS:
        raise ValueError(f"unknown mode {mode!r}")
    return approx_error(np.exp2, BASE2_FRAC_APPROXIMANTS[mode], (-1.0, 1.0), grid)
