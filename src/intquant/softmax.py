"""Integer-only softmax candidates built from a shared scaffold:
max-subtraction, a shift-based base-2 exponent, and normalization by
reciprocal integer division.

All kernels reduce over the last axis and require a dyadic input scale
(1/2^f, f >= 2), which makes floor(1/scale) and the integer/fraction exponent
decomposition exact in code space. Right shifts on negative codes are
arithmetic, i.e. floor-division semantics. The code-domain stages below
work on raw integer codes and are private; the kernels wrap them for
``QTensor`` inputs. A kernel runs its exponential in int32 where a static
bound allows (see ``_max_subtract_codes``), and every kernel returns int64
codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantize import QParams, QTensor, encode_dyadic_multiplier
from .tensor import KernelMath, OpCounter, bit_length

# quadratic used by the range-reduction exponential baseline:
# exp(p) ~ A*(p + B)^2 + C on p in (-ln2, 0]
IEXP_A = 0.3585
IEXP_B = 1.353
IEXP_C = 0.344


class ConfigurationError(ValueError):
    """Kernel configuration does not match its preconditions."""


class NormalizationError(ValueError):
    """A softmax row had a zero exponential denominator."""


@dataclass(frozen=True)
class BitExpConfig:
    """Configuration of the shift-exponential softmax kernels.

    M is the overflow-guard exponent of the reciprocal division; it must
    satisfy M >= 2*bits + ceil(log2(row length)) + 2, checked per call.
    """

    bits: int = 8
    M: int = 31
    taylor_degree: int = 1

    def __post_init__(self):
        if self.taylor_degree not in (1, 2):
            raise ConfigurationError(f"taylor_degree must be 1 or 2, got {self.taylor_degree}")
        if not (2 <= self.bits <= 16):
            raise ConfigurationError(f"bits must be in [2, 16], got {self.bits}")
        if not (8 <= self.M <= 62):
            raise ConfigurationError(f"M must be in [8, 62], got {self.M}")


def _dyadic_exponent(params: QParams) -> int:
    """f of the input scale 2^-f. Grids coarser than 2^-2 are refused: on
    them the ln2 terms round to nothing (2^-1 drives efficient_bit_softmax's
    fraction codes negative, 2^0 zeroes iexp_softmax's ln2 divisor)."""
    s = float(params.scale)
    f = round(-math.log2(s))
    if not (2 <= f <= 62) or abs(1.0 / (1 << f) - s) > 1e-15:
        raise ConfigurationError(
            f"softmax kernels need a scale 2^-f with 2 <= f <= 62, got {s}"
        )
    return f


def _check_m(cfg: BitExpConfig, rowlen: int) -> None:
    need = 2 * cfg.bits + math.ceil(math.log2(max(rowlen, 2))) + 2
    if cfg.M < need:
        raise ConfigurationError(
            f"M={cfg.M} too small for bits={cfg.bits}, row length {rowlen};"
            f" need at least {need}"
        )


# ---------------------------------------------------------------------------
# code-domain stages
# ---------------------------------------------------------------------------

def _max_subtract_codes(q: QTensor, bound, km: KernelMath):
    """Codes minus their row max, and the KernelMath the exponential after
    them runs in.

    ``bound(D)`` is the exponential's static bound: no value of its chain
    exceeds it in magnitude for max-subtracted codes in [-D, 0]. D is qmax,
    from the input's code width, widened by the codes' own extremes where
    they fall outside [0, qmax]: the row maxima are at hand, and the
    minimum takes one uncharged pass. Where the bound fits 31 bits, the
    subtraction and the chain run in int32, else in ``km``'s int64; the
    results are the same either way.
    """
    codes, qmax = q.codes, q.params.qmax
    mx = km.max(codes, axis=-1, keepdims=True)
    span = max(qmax, int(mx.max())) - min(0, int(codes.min())) if codes.size else qmax
    if bound(span) < 1 << 31:
        km = KernelMath(km.counter, np.int32)
    return km.sub(codes, mx), km


def _mul_bound(a: int, b: int) -> int:
    """Largest product of magnitudes up to a and b that the guard of
    :meth:`KernelMath.mul` admits, so that a chain whose bound covers it
    never trips that guard in int32."""
    return (1 << (a.bit_length() + b.bit_length())) - 1


def _shift_exp_bound(span: int, f: int, cfg: BitExpConfig) -> int:
    """Bound of :func:`_eff_exp_codes` and :func:`_shift_exp_codes`: qd in
    [-span, 0] gives qp in [-(span + span//2 + 1), 0], and the values of
    its decomposition lie within that; the fraction codes lie within
    2^f + 3, and their square (Taylor degree 2) within its _mul_bound."""
    frac = (1 << f) + 3
    if cfg.taylor_degree == 2:
        frac = _mul_bound(frac, frac)
    return max(span + span // 2 + 1, frac)


def _log2e_codes(qd: np.ndarray, km: KernelMath) -> np.ndarray:
    # multiply by log2(e) ~ 1.4375 = 1 + 1/2 - 1/16 using arithmetic shifts
    qp = km.rshift(qd, 1)
    km.add(qd, qp, out=qp)
    return km.sub(qp, km.rshift(qd, 4), out=qp)


def _decompose_codes(qp: np.ndarray, f: int, km: KernelMath):
    """Split nonpositive qp into (q_int >= 0, r in [0, 2^f))."""
    pos = km.sub(0, qp)
    q_int = km.rshift(pos, f)          # floor(P / 2^f), exact for dyadic scales
    return q_int, km.sub(pos, km.lshift(q_int, f), out=pos)


def _phi(x: np.ndarray, km: KernelMath) -> np.ndarray:
    """ln2 multiplier realized as (0.1011)_2: x>>1 + x>>3 + x>>4."""
    lin = km.rshift(x, 1)
    t = km.rshift(x, 3)
    km.add(lin, t, out=lin)
    return km.add(lin, km.rshift(x, 4, out=t), out=lin)


def _eff_frac_codes(neg_r: np.ndarray, f: int, cfg: BitExpConfig,
                    km: KernelMath) -> np.ndarray:
    """Codes of 2^(s*(-r)) ~ 1 + ln2*s*(-r) [+ (ln2*s*(-r))^2/2] on the 1/2^f grid."""
    lin = _phi(neg_r, km)
    if cfg.taylor_degree == 1:
        return km.add(lin, 1 << f, out=lin)
    frac = km.add(lin, 1 << f)
    sq = km.mul(lin, lin, out=lin)
    return km.add(frac, km.rshift(sq, f + 1, out=sq), out=frac)


def _eff_exp_codes(qd: np.ndarray, f: int, cfg: BitExpConfig,
                   km: KernelMath) -> np.ndarray:
    q_int, r = _decompose_codes(_log2e_codes(qd, km), f, km)
    frac = _eff_frac_codes(km.sub(0, r, out=r), f, cfg, km)
    return km.rshift(frac, km.minimum(q_int, 62, out=q_int), out=frac)


def _shift_exp_codes(qd: np.ndarray, f: int, km: KernelMath) -> np.ndarray:
    """Baseline shift exponential: fraction approximated by 1 + x/2."""
    q_int, r = _decompose_codes(_log2e_codes(qd, km), f, km)
    frac = km.rshift(km.sub(0, r, out=r), 1, out=r)
    km.add(frac, 1 << f, out=frac)
    return km.rshift(frac, km.minimum(q_int, 62, out=q_int), out=frac)


def _int_div_codes(q_exp: np.ndarray, cfg: BitExpConfig, km: KernelMath,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Reciprocal-division normalization onto the 1/2^(bits-1) grid; each
    row's sum loses at most (n+1)/2^(bits-1), all of it downward. ``out``
    follows the :class:`KernelMath` buffer rule and may be ``q_exp``."""
    den = km.sum(q_exp, axis=-1, keepdims=True)
    if np.any(den <= 0):
        bad = int(np.argwhere(den.reshape(-1) <= 0)[0][0])
        raise NormalizationError(f"zero exponential sum in row {bad}")
    recip = km.floordiv(np.int64(1) << cfg.M, den)
    out = km.mul(recip, q_exp, out=out)
    return km.rshift(out, cfg.M - (cfg.bits - 1), out=out)


def softmax_out_params(cfg: BitExpConfig) -> QParams:
    """Output parameters of every softmax candidate: probabilities on 2^-(bits-1)."""
    return QParams(1.0 / (1 << (cfg.bits - 1)), 0, cfg.bits, "asymmetric")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _exp_div_softmax(q: QTensor, cfg: BitExpConfig, counter: OpCounter | None,
                     exp_codes, exp_bound) -> QTensor:
    """Max-subtract, ``exp_codes(qd, f, cfg, km)``, reciprocal division: the
    body every exponential softmax kernel shares. ``exp_bound(span, f,
    cfg)`` is the exponential's bound (see :func:`_max_subtract_codes`)."""
    f = _dyadic_exponent(q.params)
    _check_m(cfg, q.codes.shape[-1])
    km = KernelMath(counter)
    qd, exp_km = _max_subtract_codes(q, lambda span: exp_bound(span, f, cfg), km)
    num = exp_codes(qd, f, cfg, exp_km)
    # recip * num reaches 2^M, so the division is int64, in num if it is
    codes = _int_div_codes(num, cfg, km, out=num if exp_km is km else None)
    return QTensor(codes, softmax_out_params(cfg))


def efficient_bit_softmax(q: QTensor, cfg: BitExpConfig,
                          counter: OpCounter | None = None) -> QTensor:
    return _exp_div_softmax(q, cfg, counter, _eff_exp_codes, _shift_exp_bound)


def shiftmax(q: QTensor, cfg: BitExpConfig, counter: OpCounter | None = None) -> QTensor:
    """Baseline with the endpoint-matched linear fraction 1 + x/2."""
    return _exp_div_softmax(q, cfg, counter,
                            lambda qd, f, _, km: _shift_exp_codes(qd, f, km),
                            _shift_exp_bound)


_P12 = 12  # fixed-point grid of the quadratic exponential value


def _iexp_constants(f: int) -> tuple[int, int, int, int, int]:
    """ln2, B and C/A on the 2^-f grid, and the dyadic multiplier (m, e) of
    A onto the 2^-_P12 grid."""
    s = 1.0 / (1 << f)
    ln2_c = int(math.floor(math.log(2.0) / s))
    b_c = int(math.floor(IEXP_B / s))
    c_c = int(math.floor(IEXP_C / (IEXP_A * s * s)))
    m, e = encode_dyadic_multiplier(IEXP_A * s * s * (1 << _P12))
    return ln2_c, b_c, c_c, m, e


def _iexp_bound(span: int, f: int, cfg: BitExpConfig | None = None) -> int:
    """Bound of :func:`_iexp_value_codes`: qd in [-span, 0] gives z in
    [0, span // ln2] and z*ln2 in [0, span]; p + B lies in (0, B], the
    quadratic within _mul_bound(B, B) + C/A, and its product with m, plus
    the rounding half, within that product's _mul_bound plus 2^e."""
    ln2_c, b_c, c_c, m, e = _iexp_constants(f)
    quad = _mul_bound(b_c, b_c) + c_c
    return max(span, _mul_bound(span // ln2_c, ln2_c), _mul_bound(quad, m) + (1 << e))


def _iexp_value_codes(qd: np.ndarray, f: int, km: KernelMath):
    """Range-reduction exponential: e^x = 2^(-z) * quad(p), p in (-ln2, 0].

    Returns codes on the 2^-_P12 grid, shifted down by z.
    """
    ln2_c, b_c, c_c, m, e = _iexp_constants(f)

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


def iexp_softmax(q: QTensor, cfg: BitExpConfig,
                 counter: OpCounter | None = None) -> QTensor:
    """Softmax with the quadratic range-reduction exponential numerator."""
    return _exp_div_softmax(q, cfg, counter,
                            lambda qd, f, _, km: _iexp_value_codes(qd, f, km), _iexp_bound)


def log2_softmax(q: QTensor, cfg: BitExpConfig,
                 counter: OpCounter | None = None) -> QTensor:
    """Softmax snapped onto the power-of-two grid: outputs are 2^(-k).

    The log2 code k = round(log2(denominator / numerator)) comes from the
    integer bit lengths of both; the returned affine codes are 2^(bits-1) >> k,
    exactly representable on the 1/2^(bits-1) output grid.
    """
    k = log2_softmax_codes(q, counter)
    km = KernelMath(counter)
    under = k > cfg.bits - 1          # probabilities below the output grid
    km.minimum(k, cfg.bits - 1, out=k)
    np.copyto(k, 62, where=under)
    codes = km.rshift(np.int64(1) << (cfg.bits - 1), k, out=k)
    return QTensor(codes, softmax_out_params(cfg))


def log2_softmax_codes(q: QTensor, counter: OpCounter | None = None) -> np.ndarray:
    """Raw log2 probability codes k, value 2^(-k); the winner of a dominant
    row gets code 0. They do not depend on the output grid."""
    f = _dyadic_exponent(q.params)
    km = KernelMath(counter)
    qd, exp_km = _max_subtract_codes(q, lambda span: _iexp_bound(span, f), km)
    num = _iexp_value_codes(qd, f, exp_km)
    den = km.sum(num, axis=-1, keepdims=True)
    if np.any(den <= 0):
        bad = int(np.argwhere(den.reshape(-1) <= 0)[0][0])
        raise NormalizationError(f"zero exponential sum in row {bad}")

    # k = floor(log2(den/num)), then round half upward in log space:
    # den/num >= 2^(k+1/2) <=> den^2 >= num^2 * 2^(2k+1). With
    # j = bitlen(den) - bitlen(num), num << j has the bit length of den, so
    # k is j, or j - 1 where num << j > den. This is charged as the
    # shift-compare search it replaces: one shift and one compare per step
    # while num << k <= den, i.e. k + 1 of each per positive num.
    pos = num > 0
    safe_num = np.where(pos, num, np.int64(1))      # int64 whatever num's dtype
    k = bit_length(safe_num)
    np.maximum(np.subtract(bit_length(den), k, out=k), 0, out=k)
    shifted = np.left_shift(safe_num, k)
    np.maximum(np.subtract(k, shifted > den, out=k), 0, out=k)
    np.multiply(k, pos, out=k)
    steps = int(k.sum()) + int(np.count_nonzero(pos))
    km.counter.shifts += steps
    km.counter.compares += steps
    # num * 2^k <= den bounds num^2 * 2^(2k+1) <= 2 * den^2, safe in int64
    km.counter.muls += num.size * 2
    km.counter.compares += num.size
    sq = np.multiply(safe_num, safe_num, out=shifted)
    twice = np.add(np.left_shift(k, 1, out=safe_num), 1, out=safe_num)   # 2k + 1
    np.add(k, den * den >= np.left_shift(sq, twice, out=sq), out=k)   # round up
    np.copyto(k, 63, where=~pos)
    return k


def base2_frac_approx_error(mode: str, grid: int = 10001) -> tuple[float, float]:
    """(RMS, max) error of a 2^x approximant against exact 2^x on (-1, 1)."""
    approximants = {
        "ivit_linear": lambda x: 1.0 + x / 2.0,
        "ours_exact_ln2": lambda x: 1.0 + math.log(2.0) * x,
        "ours_shift": lambda x: 1.0 + 0.6875 * x,
    }
    if mode not in approximants:
        raise ValueError(f"unknown mode {mode!r}")
    x = np.linspace(-1.0, 1.0, grid)
    d = np.abs(np.exp2(x) - approximants[mode](x))
    return float(np.sqrt(np.mean(d * d))), float(np.max(d))
