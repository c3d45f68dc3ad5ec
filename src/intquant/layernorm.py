"""Integer-only LayerNorm candidates.

Three reconstructions populate the candidate pool: Newton-iteration square
root with a bit-length shift seed, the same normalization with a quadratic
polynomial seed, and a variant whose output requantization is a pure power
of two (shift-only, no mantissa multiply). The underlying statistics are
shared: integer mean and variance over the last axis with the row-length
division deferred and folded into the scale, so the center step is exact in
code space.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quantize import (QParams, QTensor, checks_codes, encode_dyadic_multiplier, requant_bound,
                       requantize)
from .tensor import KernelMath, OpCounter, StageBound, buffer_for, magnitude

LN_VARIANTS = ("bitshift_newton", "poly_sqrt", "log2_scale")

_KY = 15   # fixed-point grid of the unit-normalized rows
_KG = 12   # fixed-point grid of the gain constants
_KB = _KY + _KG  # beta rides on the post-gain grid
_NEWTON_STEPS = 12  # cap on the kernels' square-root iterations
_EPS_CODE = 1       # floor of the row statistic n*sum(c^2) - sum(c)^2


def snap_pow2_out_params(p: QParams) -> tuple[QParams, int]:
    """Output params with the scale snapped to the nearest power of two.

    Returns the snapped params and the shift j realizing the requantization;
    idempotent, and shared by the log2_scale kernel and plan calibration so
    both sides agree on the stored scale.
    """
    j = int(np.clip(round(math.log2((1 << _KB) * float(p.scale))), 1, 62))
    return QParams(2.0 ** (j - _KB), int(p.zero_point), p.bits, "asymmetric"), j


def _ln_bounds(p: QParams, n: int, g: int, b: int, m2: int, e2: int,
               out_params: QParams) -> tuple[int, int, int]:
    """Transfer functions of :func:`int_layernorm`'s two stages, for rows
    of n codes in [0, qmax] and gain and bias codes within g and b: the
    bounds of the front, up to the normalized rows y, and of the back, the
    affine step with the requantization, and the bit length of the row
    division's numerators d << _KY. The square root of V and every n // x
    of its Newton steps lie within V, and the division by std >= 1 keeps y
    within d << _KY."""
    t = p.centered_max
    front = StageBound(t)
    sc = front.value(n * t)
    sc2 = front.value(n * front.mul(t, t))
    front.add(front.mul(sc2, n), front.mul(sc, sc))
    y = front.lshift(front.add(front.mul(t, n), sc), _KY)
    back = StageBound(y)
    acc = back.add(back.mul(y, g), b)
    return front.bound, max(back.bound, requant_bound(acc, m2, e2, out_params)), y.bit_length()


def _value_key(x) -> tuple:
    """``x`` as a hashable value: the shape and bytes of its float64 form."""
    x = np.asarray(x, dtype=np.float64)
    return x.shape, x.tobytes()


@lru_cache(maxsize=256)
def _ln_plan(p: QParams, n: int, variant: str, out_params: QParams,
             gamma: tuple, beta: tuple) -> tuple:
    """Constants of :func:`int_layernorm` (configuration time, real
    arithmetic allowed) for rows of n codes on ``p``, keyed by value, with
    gamma and beta as :func:`_value_key` gives them: the gain and bias
    codes, the output params and multiplier, and :func:`_ln_bounds`."""
    g_codes, b_codes = (np.rint(np.frombuffer(data).reshape(shape) * (1 << k)).astype(np.int64)
                        for (shape, data), k in ((gamma, _KG), (beta, _KB)))
    for codes in (g_codes, b_codes):   # shared by every call that hits the cache
        codes.setflags(write=False)
    if variant == "log2_scale":
        # shift-only requantization: no mantissa multiply, snapped scale
        out_params, j = snap_pow2_out_params(out_params)
        m2, e2 = 1, j
    else:
        m2, e2 = encode_dyadic_multiplier(1.0 / ((1 << _KB) * float(out_params.scale)))
    bounds = _ln_bounds(p, n, magnitude(g_codes), magnitude(b_codes), m2, e2, out_params)
    return g_codes, b_codes, out_params, m2, e2, bounds


@checks_codes
def int_layernorm(q: QTensor, gamma, beta, variant: str, out_params: QParams,
                  counter: OpCounter | None = None) -> QTensor:
    """Integer LayerNorm over the last axis with quantized affine constants.

    The normalized value (c - mean)/std is scale-free in the input scale, so
    the kernel works directly on centered codes: d = n*c - sum(c) and
    V = n*sum(c^2) - sum(c)^2 give (c - mean)/std = d / sqrt(V), with
    sqrt(V) the floor square root by ``KernelMath.isqrt``, from the
    variant's seed. Zero-variance rows are stabilized by the ``_EPS_CODE``
    floor.
    ``variant`` is one of ``LN_VARIANTS``.
    """
    if variant not in LN_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p = q.params
    n = q.codes.shape[-1]
    g_codes, b_codes, out_params, m2, e2, (front, back, y_bits) = _ln_plan(
        p, n, variant, out_params, _value_key(gamma), _value_key(beta))

    km, back = KernelMath.within(counter, front), KernelMath.within(counter, back)
    c = km.sub(q.codes, int(p.zero_point))
    sc = km.sum(c, axis=-1, keepdims=True)
    sc2 = km.sum(km.mul(c, c), axis=-1, keepdims=True)
    var = km.sub(km.mul(sc2, n), km.mul(sc, sc))
    var = km.maximum(var, _EPS_CODE)
    d = km.sub(km.mul(c, n, out=c), sc, out=c)

    seed = "poly" if variant == "poly_sqrt" else "shift"
    std = km.maximum(km.isqrt(var, _NEWTON_STEPS, seed), 1)

    y = km.floordiv_rows(km.lshift(d, _KY, out=d), std, y_bits, out=d)  # (c - mean)/std, 2^-KY
    ya = back.mul(y, g_codes, out=buffer_for(back, y))
    back.add(ya, b_codes, out=ya)                            # gamma*y + beta on 2^-KB
    return QTensor(requantize(back, ya, m2, e2, out_params), out_params)


def layernorm_reference(x, gamma, beta, axis: int = -1, out=None) -> np.ndarray:
    """Exact LayerNorm used by calibration and the float forward pass,
    (x - mean) / sqrt(var + 1e-12) * gamma + beta, written into ``out``
    (float64, the shape of ``x``) where it is given."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    out = np.subtract(x, mu, out=out)
    out /= np.sqrt(var + 1e-12)
    out *= np.asarray(gamma)
    out += np.asarray(beta)
    return out
