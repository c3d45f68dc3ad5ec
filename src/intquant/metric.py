"""Quantization sensitivity, perturbation, and their softplus-normalized
harmonic-mean combination with a candidate's cost, used to rank
approximation candidates per layer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

INF_DB = math.inf


def sqnr(x, x_hat) -> float:
    """Signal-to-quantization-noise ratio in dB: 10*log10 of the power ratio
    E[x^2]/E[(x-x_hat)^2], the reading consistent with (1e4 signal power,
    100 noise power) giving 20 dB and (1e4, 60) giving 22.21 dB. Exact
    reconstruction returns the +inf sentinel, and any noise on a silent
    reference -inf.
    """
    x = np.asarray(x, dtype=np.float64)
    return energy_scores(perturbation(x, x_hat), x.size, signal_power(x))[0]


def perturbation(x, x_hat) -> float:
    """Sum of (x - x_hat)^2 over all elements: n times the noise power of
    :func:`sqnr`. It is the sum of the :func:`sample_energies`, in sample
    order, so stage 1 gets the same bits from any split of the samples."""
    return float(np.sum(sample_energies(x, x_hat)))


def sample_energies(x, x_hat, out=None) -> np.ndarray:
    """Sum of (x - x_hat)^2 over each sample (index of the first axis); a
    1-D input's samples are its elements. The squares are made in ``out``
    (see :func:`squared_residual`) where it is given."""
    d = squared_residual(x, x_hat, out=out)
    return d.sum(axis=tuple(range(1, d.ndim)))


# elements squared at a time by signal_power: its scratch, 512 KiB
POWER_BLOCK = 1 << 16


def signal_power(x) -> float:
    """E[x^2], the signal power of :func:`sqnr`, squared and summed block
    by block (``POWER_BLOCK`` elements), so that no whole-set temporary is
    made. The blocks are the leaves of numpy's own pairwise summation, so
    the bits are ``np.mean(x * x)``'s."""
    flat = np.ravel(np.asarray(x, dtype=np.float64), order="K")

    def total(a):   # numpy's split: halves rounded down to a multiple of 8
        if len(a) <= POWER_BLOCK:
            return np.add.reduce(np.square(a))
        half = len(a) // 2 // 8 * 8
        return total(a[:half]) + total(a[half:])
    return float(total(flat) / flat.size)


def energy_scores(p: float, n: int, power: float) -> tuple[float, float]:
    """(:func:`sqnr`, :func:`perturbation`) from the residual energy ``p``
    (the sum of :func:`squared_residual` over ``n`` elements) and the
    reference's ``power``."""
    noise = p / n
    if noise == 0.0:
        return INF_DB, p
    ratio = power / noise   # 0 for a silent reference: -inf dB
    return (10.0 * math.log10(ratio) if ratio > 0 else -INF_DB), p


def squared_residual(x, x_hat, out=None) -> np.ndarray:
    """(x - x_hat)^2 elementwise, as float64, in ``out`` (a float64 array of
    their shape, which may be ``x_hat`` itself) where it is given."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    d = np.subtract(x, x_hat, out=out)
    return np.square(d, out=d)


def softplus(x: float) -> float:
    """log(1 + exp(x)), numerically stable on both tails; output > 0 until
    exp(x) underflows, below about x = -745."""
    if x == INF_DB:
        return INF_DB
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def unified_score(q_db: float, p: float, c: float) -> float:
    """Harmonic mean of the softplus-normalized factors:

        3 / (N(q_db)^-1 + N(p) + N(c))

    Strictly increasing in q_db, strictly decreasing in p and c. The +inf
    sentinel for q_db (exact reconstruction) sends N(q)^-1 to 0, and a q_db
    so low that N(q) underflows to 0 sends it to +inf, so the score is 0,
    as an overflowed candidate's.
    """
    nq = softplus(q_db)
    inv_nq = 0.0 if nq == INF_DB else 1.0 / nq if nq else math.inf
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
    """One row per (layer, candidate)."""

    entries: list = field(default_factory=list)  # (layer_id, kind, candidate, MetricScore)
    # (qparams, warnings): the activation parameters the rows were scored
    # under, as pipeline.calibrate_edges gives them, when the scorer has them
    calibration: tuple | None = field(default=None, repr=False, compare=False)

    def add(self, layer_id: str, kind: str, candidate: str, score: MetricScore):
        self.entries.append((layer_id, kind, candidate, score))

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

