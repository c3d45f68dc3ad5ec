"""Quantization sensitivity, perturbation, operation counting, and their
softplus-normalized harmonic-mean combination used to rank approximation
candidates per layer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

INF_DB = math.inf
DB_FACTORS = {"power10": 10.0, "amplitude20": 20.0}  # sqnr conventions


def sqnr(x, x_hat, convention: str = "power10") -> float:
    """Signal-to-quantization-noise ratio in dB.

    The default convention is 10*log10 of the power ratio E[x^2]/E[(x-x_hat)^2];
    that is the reading consistent with (1e4 signal power, 100 noise power)
    giving 20 dB and (1e4, 60) giving 22.21 dB. The 20*log10 variant stays
    available behind ``convention="amplitude20"`` for auditability.
    Exact reconstruction returns the +inf sentinel.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    noise = float(np.mean((x - x_hat) ** 2))
    if noise == 0.0:
        return INF_DB
    power = float(np.mean(x * x))
    return DB_FACTORS[convention] * math.log10(power / noise)


def perturbation(x, x_hat) -> float:
    """Sum of squared elementwise differences."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    return float(np.sum((x - x_hat) ** 2))


def softplus(x: float) -> float:
    """log(1 + exp(x)), numerically stable on both tails; output > 0."""
    if x == INF_DB:
        return INF_DB
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def unified_score(q_db: float, p: float, c: float) -> float:
    """Harmonic mean of the softplus-normalized factors:

        3 / (N(q_db)^-1 + N(p) + N(c))

    Strictly increasing in q_db, strictly decreasing in p and c. The +inf
    sentinel for q_db (exact reconstruction) sends N(q)^-1 to 0 rather than
    erroring.
    """
    nq = softplus(q_db)
    inv_nq = 0.0 if nq == INF_DB else 1.0 / nq
    return 3.0 / (inv_nq + softplus(p) + softplus(c))


def approx_error(ref, approx, rng: tuple[float, float], n: int = 10001) -> tuple[float, float]:
    """(RMS, max-abs) error between two scalar functions on a uniform grid
    of n points over [lo, hi], endpoints included."""
    lo, hi = float(rng[0]), float(rng[1])
    if not lo < hi:
        raise ValueError(f"range must satisfy lo < hi, got ({lo}, {hi})")
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    x = np.linspace(lo, hi, n)
    d = np.abs(np.asarray(ref(x), dtype=np.float64) - np.asarray(approx(x), dtype=np.float64))
    return float(np.sqrt(np.mean(d * d))), float(np.max(d))


# ---------------------------------------------------------------------------
# operation-count model
# ---------------------------------------------------------------------------
#
# Deterministic per-candidate cost table; adds, subs, muls, integer divs,
# shifts and compares each cost 1. Costs are per element of the layer input
# plus per-row reduction terms, derived by counting the kernel stages:
#
#   softmax common    : row max (n-1 cmp) + subtract (n)
#   shift exponential : log2e 4/elt, decompose 3/elt, fraction 2/elt
#                       (>>1 + add) or 6/elt (phi 5 + add), shift-by-q 1/elt
#   degree-2 fraction : + mul + shift + add = 3/elt
#   reciprocal division: row sum (n-1) + 1 div, then mul + shift per element
#   quad-range exp    : reduce 3/elt, poly 4/elt, rescale 2/elt, shift 1/elt
#   log2 regrid       : ~ (shift+cmp) per ratio bit, budgeted at 10/elt
#   poly GELU         : |t| 2, rescale 2, clip/center 2, squares (deg-2),
#                       coeff mul + shift 2, gate 4, product 1, requant 3
#   shift GELU        : 1.6875x 6, rescale 2, two shift-exps 12, sigmoid
#                       divide 4, product 1, requant 3
#   layernorm         : stats 3n + 3 per row, sqrt per row, normalize +
#                       affine + requant per element

PHI_COST = 5  # 3 shifts + 2 adds per element

_SOFTMAX_PER_ELT = {
    "efficient_bit_softmax": 4 + 3 + (PHI_COST + 1) + 1 + 2,   # = 16
    "shiftmax": 4 + 3 + 2 + 1 + 2,                             # = 12
    "iexp_softmax": 3 + 4 + 2 + 1 + 2,                         # = 12
    "log2_softmax": 3 + 4 + 2 + 10,                            # = 19
}

_GELU_PER_ELT = {
    "data_aware_poly_gelu": 2 + 2 + 2 + 2 + 2 + 4 + 1 + 3,     # = 18
    "ibert_gelu": 2 + 2 + 2 + 1 + 2 + 4 + 1 + 3,               # = 17
    "shift_gelu": 6 + 2 + 12 + 4 + 1 + 3,                      # = 28
}

_LN_PER_ELT = {
    "bitshift_newton": 3 + 2 + 2 + 3,   # stats, normalize, affine, requant
    "poly_sqrt": 3 + 2 + 2 + 3,
    "log2_scale": 3 + 2 + 2 + 2,        # shift-only requant drops the mul
}

_LN_PER_ROW = {
    "bitshift_newton": 3 + 1 + 12 * 3,  # variance combine, floor, Newton iters
    "poly_sqrt": 3 + 1 + 8 + 3 * 3,     # quadratic seed + three iterations
    "log2_scale": 3 + 1 + 12 * 3,
}


def op_count(kind: str, layer_shape) -> int:
    """Integer operations for one application of candidate ``kind`` to a
    tensor of the given shape (reduction over the last axis)."""
    shape = tuple(int(d) for d in layer_shape)
    if not shape:
        raise ValueError("layer shape must have at least one axis")
    n = shape[-1]
    rows = 1
    for d in shape[:-1]:
        rows *= d
    elts = rows * n

    if kind in _SOFTMAX_PER_ELT:
        per_row = (n - 1) + n                 # row max + subtract
        per_row += (n - 1) + 1                # denominator sum + reciprocal
        return rows * per_row + elts * _SOFTMAX_PER_ELT[kind]
    if kind in _GELU_PER_ELT:
        return elts * _GELU_PER_ELT[kind]
    if kind in _LN_PER_ELT:
        per_row = 2 * (n - 1) + n + _LN_PER_ROW[kind]   # sums, squares, sqrt
        return rows * per_row + elts * _LN_PER_ELT[kind]
    raise ValueError(f"unknown approximation kind {kind!r}")


# ---------------------------------------------------------------------------
# score records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricScore:
    q_db: float
    p: float
    c: int
    score: float


@dataclass
class MetricTable:
    """One row per (layer, candidate); omega aggregates the chosen layers."""

    entries: list = field(default_factory=list)  # (layer_id, kind, candidate, MetricScore)
    omega: float = 0.0

    def add(self, layer_id: str, kind: str, candidate: str, score: MetricScore):
        self.entries.append((layer_id, kind, candidate, score))

    def candidates_for(self, layer_id: str):
        return [(cand, ms) for lid, _, cand, ms in self.entries if lid == layer_id]

    def layer_ids(self):
        seen = dict.fromkeys(lid for lid, _, _, _ in self.entries)
        return list(seen)

    def __len__(self):
        return len(self.entries)

    def write_csv(self, path, assignments: dict | None = None):
        assignments = assignments or {}
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["layer_id", "kind", "candidate", "q_db", "p", "c", "score", "chosen"])
            for lid, kind, cand, ms in self.entries:
                w.writerow([
                    lid, kind, cand,
                    "inf" if ms.q_db == INF_DB else f"{ms.q_db:.6f}",
                    f"{ms.p:.6f}", ms.c, f"{ms.score:.9f}",
                    int(assignments.get(lid) == cand),
                ])

