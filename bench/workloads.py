"""Benchmark workloads and the set-up that every run of one shares.

Each workload is a closed loop with one client in one process.  The
workload seed (``--seed``) seeds the model weights (``cfg.seed``), the
calibration set (``calib_seed``) and the request tensors; the program sees
only the generated inputs.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    blocks: int
    embed_dim: int
    heads: int
    tokens: int
    calib_batches: int
    calib_batch_size: int
    batch: int      # samples per inference request
    pool: int       # distinct requests; the closed loop cycles through them


# Why each shape (profile shares measured by wrapping functions on a 2-core
# machine):
# - toy-default is the README config.  Per-call overhead dominates
#   integer_forward: _prepare_linear re-quantizes every weight on every call
#   (~17%), LayerNorm code outside KernelMath ~20%, KernelMath.matmul only 7%.
#   A compiled plan shows here; a GEMM change should not.
# - vits-gemm is the ViT-S-like ROADMAP shape.  KernelMath.matmul is ~74% of
#   integer_forward and forward_float capture is the largest item of assign.
#   Batch 1, not 8: a batch-8 request takes ~0.9 s, and the p90 needs 100
#   requests per run.  It is not in BENCHMARK.json: on a 2-vCPU VM its
#   int64 matmul time alternates between two speeds for seconds at a time,
#   and the per-run p50 spread (IQR/median 0.27 over five seeds) exceeds any
#   bound the benchmark may set.  Run it by hand with --workload vits-gemm.
# - longseq-attn makes the T x T attention scores large, so the four softmax
#   candidates lead stage 1 while inference runs only the chosen one.
WORKLOADS = {
    "toy-default": Workload(2, 32, 2, 8, 4, 8, batch=1, pool=256),
    "vits-gemm": Workload(4, 192, 3, 64, 4, 8, batch=1, pool=100),
    "longseq-attn": Workload(2, 64, 4, 256, 2, 8, batch=1, pool=100),
}


@dataclass
class Setup:
    cfg: object
    graph: object
    weights: dict
    calib: list     # part of the timed set-up; run_pipeline draws the same batches
    requests: list


def import_intquant():
    """Import ``intquant`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "intquant", "__init__.py")):
        raise SystemExit(f"benchmark: no intquant sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import intquant
    if os.path.dirname(os.path.dirname(os.path.abspath(intquant.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported intquant from {intquant.__file__}")
    return intquant


def setup(name: str, seed: int) -> Setup:
    """The work ``setup_s`` times: import intquant, build the model, and
    generate the calibration and request tensors."""
    import_intquant()
    import numpy as np
    from intquant import pipeline as pl

    w = WORKLOADS[name]
    cfg = pl.PipelineConfig(blocks=w.blocks, embed_dim=w.embed_dim, heads=w.heads,
                            tokens=w.tokens, calib_batches=w.calib_batches,
                            calib_batch_size=w.calib_batch_size, seed=seed)
    graph, weights = pl.build_toy_vit(cfg.model_config(), seed=cfg.seed, pools=cfg.pools)
    calib = pl.calibration_batches(cfg, calib_seed=seed)
    gen = np.random.Generator(np.random.PCG64([seed, 1]))
    # float32 values, so a request written to a real32 tensor file reads back
    # bit-identically in the CLI round trip
    requests = [gen.standard_normal((w.batch, w.tokens, w.embed_dim))
                .astype(np.float32).astype(np.float64) for _ in range(w.pool)]
    return Setup(cfg, graph, weights, calib, requests)
