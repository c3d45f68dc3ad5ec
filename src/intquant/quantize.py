"""Uniform affine quantization, dequantization, and min/max calibration.

Codes always live in [0, 2^b - 1]. The symmetric scheme is realized as
unsigned codes with a midpoint zero point z = 2^(b-1), which is equivalent
to signed-range symmetric quantization but keeps a single code domain.
Rounding is half-to-even everywhere, for bias-freeness and reproducibility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import KernelMath


class DegenerateRangeError(ValueError):
    """Calibration range has zero width."""


@dataclass(frozen=True)
class QParams:
    """Per-tensor affine quantization parameters: x ~ scale * (code - zero_point)."""

    scale: float
    zero_point: int
    bits: int
    scheme: str  # "symmetric" | "asymmetric"

    def __post_init__(self):
        if self.scheme not in ("symmetric", "asymmetric"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (2 <= self.bits <= 16):
            raise ValueError(f"bits must be in [2, 16], got {self.bits}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0 <= self.zero_point <= self.qmax:
            raise ValueError(f"zero_point outside [0, {self.qmax}]")

    @property
    def qmax(self) -> int:
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class QTensor:
    """Integer codes bound to their quantization parameters."""

    codes: np.ndarray
    params: QParams

    def check(self) -> "QTensor":
        if np.any(self.codes < 0) or np.any(self.codes > self.params.qmax):
            raise ValueError(f"codes outside [0, {self.params.qmax}]")
        return self


def qparams_from_range(alpha: float, beta: float, bits: int,
                       scheme: str = "asymmetric") -> QParams:
    """Parameters for the range [beta, alpha] (beta = min, alpha = max).

    Asymmetric: s = (alpha - beta) / (2^b - 1), z = clip(round(-beta/s), 0, 2^b - 1).
    Symmetric: s = 2 * max(|alpha|, |beta|) / (2^b - 1) with midpoint zero point.
    """
    alpha, beta = float(alpha), float(beta)
    qmax = (1 << bits) - 1
    if scheme == "asymmetric":
        if not alpha > beta:
            raise DegenerateRangeError(
                f"asymmetric range needs alpha > beta, got ({beta}, {alpha})"
            )
        scale = (alpha - beta) / qmax
        zero = int(np.clip(np.rint(-beta / scale), 0, qmax))   # clipped before the cast
    elif scheme == "symmetric":
        amax = max(abs(alpha), abs(beta))
        if not amax > 0:
            raise DegenerateRangeError("symmetric range needs max(|alpha|,|beta|) > 0")
        scale = 2.0 * amax / qmax
        zero = 1 << (bits - 1)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return QParams(scale, zero, bits, scheme)


def quantize(x, p: QParams) -> QTensor:
    """codes = clip(round_half_even(x / s) + z, 0, 2^b - 1), elementwise.

    The clip runs in float, before the one cast to integers, so an input of
    any magnitude, infinities included, saturates to the nearer end. NaN has
    no code and maps to 0; ``intquant infer`` refuses an input holding NaN.
    """
    arr = np.asarray(x, dtype=np.float64)
    v = np.divide(arr, p.scale, out=np.empty(arr.shape))
    np.add(np.rint(v, out=v), p.zero_point, out=v)
    # np.clip's Python wrapper builds np.iinfo objects on every call; fmax
    # and fmin, unlike maximum and minimum, send NaN to 0
    np.fmin(np.fmax(v, 0, out=v), p.qmax, out=v)
    return QTensor(v.astype(np.int32), p)


def dequantize_np(q: QTensor) -> np.ndarray:
    """x_hat = s * (code - z), as a float64 ndarray."""
    return (q.codes.astype(np.float64) - q.params.zero_point) * q.params.scale


class MinMaxObserver:
    """Running min/max envelope over observed tensors.

    Min and max are exact, so the envelope does not depend on the order in
    which the data is observed or on how it is split into tensors.
    """

    def __init__(self):
        self.running_min = None
        self.running_max = None
        self.samples_seen = 0

    def observe(self, x) -> "MinMaxObserver":
        arr = np.asarray(x, dtype=np.float64)
        if arr.size == 0:
            return self
        lo, hi = float(arr.min()), float(arr.max())
        if self.samples_seen == 0:
            self.running_min, self.running_max = lo, hi
        else:
            self.running_min = np.minimum(self.running_min, lo)
            self.running_max = np.maximum(self.running_max, hi)
        self.samples_seen += 1
        return self

    def qparams(self, bits: int) -> QParams:
        """Asymmetric per-tensor parameters from the observed envelope.

        A degenerate (constant) range is widened by an epsilon-scaled margin
        with a warning instead of erroring, so pipeline calibration survives
        constant activations.
        """
        if self.samples_seen == 0:
            raise ValueError("observer has seen no data")
        lo, hi = float(self.running_min), float(self.running_max)
        if hi - lo <= 0:
            margin = max(abs(hi), 1.0) * float(256 * np.finfo(np.float32).eps)
            lo, hi = lo - margin, hi + margin
            warnings.warn("degenerate activation range widened for calibration",
                          RuntimeWarning, stacklevel=2)
        return qparams_from_range(hi, lo, bits)


def dyadic_qparams_for_range(lo: float, hi: float, code_bits: int = 16) -> QParams:
    """Asymmetric params whose scale is a power-of-two reciprocal.

    The scale is the finest 1/2^f that still covers [lo, hi] with
    ``code_bits``-wide codes; exponent-decomposition kernels consume these.
    f is capped at 20: finer grids add nothing at 16-bit code widths, and
    the cap keeps every kernel's squared fixed-point terms inside 63 bits
    even for near-constant inputs. f is floored at 2, the coarsest grid the
    softmax kernels run on, so a range wider than qmax/4 saturates.
    """
    width = max(hi - lo, 1e-12)
    qmax = (1 << code_bits) - 1
    f = int(np.clip(math.floor(math.log2(qmax / width)), 2, 20))
    scale = 1.0 / (1 << f)
    zero = int(np.clip(np.rint(-lo / scale), 0, qmax))
    return QParams(scale, zero, code_bits, "asymmetric")


def encode_dyadic_multiplier(mult: float, mant_bits: int = 15) -> tuple[int, int]:
    """Encode a positive real multiplier as (mantissa, shift): mult ~ m / 2^e.

    The mantissa is normalized into [2^(mant_bits-1), 2^mant_bits), so it
    fits 16 signed bits at the default width; applying it is one integer
    multiply plus one right shift.
    """
    if mult <= 0:
        raise ValueError("multiplier must be positive")
    e = 0
    m = float(mult)
    while m < (1 << (mant_bits - 1)):
        m *= 2.0
        e += 1
    while m >= (1 << mant_bits):
        m /= 2.0
        e -= 1
    return int(round(m)), e


def requantize(km: KernelMath, acc: np.ndarray, m, e: int, p_out: QParams) -> np.ndarray:
    """The one requantization step every integer kernel ends with: ``acc``
    times ``m``, shifted right by ``e`` with round-half-up, plus the zero
    point of ``p_out``, clipped onto its codes.

    It works in ``acc``, an int64 array the caller owns (the
    :class:`KernelMath` buffer rule), and returns it. ``m`` is an int or a
    per-channel int64 array; m = 1 skips the multiply, so a power-of-two
    requantization is charged its shift alone.
    """
    if np.ndim(m) or m != 1:
        km.mul(acc, m, out=acc)
    km.add(km.rshift_round(acc, e, out=acc), p_out.zero_point, out=acc)
    return km.clip(acc, 0, p_out.qmax, out=acc)


def requant_weight_per_channel(w: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-channel weight quantization, channel = output axis 0.

    Returns the codes and one scale per row. Row i is quantized as
    :func:`quantize` does under ``qparams_from_range(amax_i, -amax_i, bits,
    "symmetric")``, with amax_i floored at 1e-12; every row's zero point is
    2^(bits-1).
    """
    w = np.asarray(w, dtype=np.float64)
    amax = np.maximum(np.max(np.abs(w.reshape(w.shape[0], -1)), axis=1), 1e-12)
    scales = 2.0 * amax / ((1 << bits) - 1)
    # each row in units of its own scale, on the unit grid (x / 1.0 is exact)
    rows = w / scales.reshape((-1,) + (1,) * (w.ndim - 1))
    return quantize(rows, QParams(1.0, 1 << (bits - 1), bits, "symmetric")).codes, scales
