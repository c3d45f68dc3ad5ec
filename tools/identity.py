"""sha256 identity check of the pipeline's outputs.

Runs ten configs at seeds 0 and 7 (model seed and calibration seed, two
stage-1 jobs) through the ``intquant`` package found under ``--src`` and
prints one JSON object. Per run it holds the sha256 of the plan JSON, of
the plan's assignments and activation parameters alone (no scores, so a
change that moves only score bits differs in the first and not in this
one), of the metrics CSV, and of the integer logits, the ``OpCounter``
dict and the ``forward_float`` logits for a batch of 1, a batch of 3 and
one unbatched sample, with each ``OpCounter`` dict itself next to its
digest so that a change in op counts reads off the diff, and one digest
of every edge ``capture_calibration`` keeps over the calibration set
(name, shape and bytes, in forward order). It also holds
the CLI round trip: ``intquant assign`` writes the plan file, ``intquant
infer`` runs a batch of 2 under the plan it reads back, and the plan,
logits and ``.ops.json`` files are hashed as written. Last, it holds the
sha256 of the three ``intquant eval-approx`` CSVs and of the JSON that
``intquant fit`` writes for degrees 2, 3 and 4, the fitted values beside
each, and of ``gelu.erf`` over a grid that crosses its branches and over
its branch edges and special values.

A change that should not alter any output is checked by running this on
the parent and on the change, on one machine, and comparing:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/identity.py --src ../parent/src > parent.json
    python3 tools/identity.py --src src > change.json
    diff parent.json change.json && echo identical

Float results depend on the numpy and BLAS build, so digests from two
machines do not compare; that is why this is a tool and not a test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

LONGSEQ = {"model": {"blocks": 2, "embed_dim": 64, "heads": 4, "tokens": 256},
           "calib": {"batches": 2, "batch_size": 8}}
# stage 2 picks iexp_softmax on longseq-attn, and forced-pools runs
# log2_softmax; the last two configs run the other two softmax kernels, with
# their int32 exponential tables, in integer_forward
CONFIGS = {
    "toy-default": {},
    "act-bits-4": {"bits": {"activations": 4}},
    "act-bits-12": {"bits": {"activations": 12}},
    # the widest activations 8 tokens accept (M = 31): 8,192-code GELU tables
    "act-bits-13": {"bits": {"activations": 13}},
    "w4a8": {"bits": {"weights": 4}},
    "taylor2": {"taylor_degree": 2},
    "forced-pools": {"pools": {"softmax": ["log2_softmax"], "gelu": ["shift_gelu"],
                               "layernorm": ["log2_scale"]}},
    "longseq-attn": LONGSEQ,
    "longseq-efficient-bit-softmax": {**LONGSEQ, "pools": {"softmax": ["efficient_bit_softmax"]}},
    "longseq-shiftmax": {**LONGSEQ, "pools": {"softmax": ["shiftmax"]}},
}
SEEDS = (0, 7)
JOBS = 2


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(pl, raw: dict, seed: int, tmp: str) -> dict:
    cfg = pl.config_from_dict({**raw, "seed": seed})
    plan, table, graph, weights = pl.run_pipeline(cfg, calib_seed=seed, jobs=JOBS)
    plan_path, csv_path = os.path.join(tmp, "plan.json"), os.path.join(tmp, "metrics.csv")
    pl.save_plan(plan, plan_path)
    table.write_csv(csv_path, plan.assignments)
    out = {}
    for name in ("plan.json", "metrics.csv"):
        with open(os.path.join(tmp, name), "rb") as fh:
            out[name] = sha(fh.read())
    chosen = {"assignments": list(plan.assignments.items()),
              "qparams": pl.plan_to_dict(plan)["qparams"]}
    out["plan.assignments+qparams"] = sha(json.dumps(chosen).encode())
    captured = pl.capture_calibration(graph, weights, pl.calibration_batches(cfg, seed))
    out["capture"] = sha(b"".join(f"{edge}{arr.shape}".encode() + arr.tobytes()
                                  for edge, arr in captured.items()))
    del captured
    rng = np.random.default_rng(seed)
    sample = (graph.tokens, graph.embed_dim)
    for name, shape in (("batch1", (1, *sample)), ("batch3", (3, *sample)),
                        ("unbatched", sample)):
        x = rng.normal(size=shape)
        logits, counter = pl.integer_forward(graph, weights, plan, x)
        out[f"logits.{name}"] = sha(np.ascontiguousarray(logits.values).tobytes())
        ref = pl.forward_float(graph, weights, x)
        out[f"float.{name}"] = sha(np.ascontiguousarray(ref).tobytes())
        out[f"ops.{name}"] = sha(json.dumps(counter.as_dict(), sort_keys=True).encode())
        out[f"ops.{name}.counts"] = counter.as_dict()
    return out


def cli_digests(raw: dict, seed: int, tmp: str) -> dict:
    """``assign`` then ``infer`` through ``intquant.cli.main``, with their
    printed summaries discarded; digests of the files they write."""
    from intquant import cli
    from intquant import pipeline as pl
    from intquant.tensor import Tensor, tensor_write

    def path(name):
        return os.path.join(tmp, name)

    with open(path("config.json"), "w") as fh:
        json.dump({**raw, "seed": seed}, fh)
    cfg = pl.load_config(path("config.json"))
    x = np.random.default_rng(seed).normal(size=(2, cfg.tokens, cfg.embed_dim))
    tensor_write(Tensor(x, dtype="real32"), path("x.iptq"))
    for argv in (["assign", "--config", path("config.json"), "--calib-seed", str(seed),
                  "--jobs", str(JOBS), "--out", path("cli")],
                 ["infer", "--plan", path("cli.plan.json"), "--input", path("x.iptq"),
                  "--out", path("cli.logits.iptq")]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["--report-file", path("runs.jsonl"), *argv])
        if rc != 0:
            raise SystemExit(f"intquant {argv[0]} exited {rc}")
    out = {}
    for name in ("cli.plan.json", "cli.logits.iptq", "cli.logits.iptq.ops.json"):
        with open(path(name), "rb") as fh:
            out[name] = sha(fh.read())
    return out


def written_digest(tmp: str, argv: list, name: str) -> str:
    """Digest of the file ``name`` that ``intquant <argv> --out name``
    writes through ``intquant.cli.main``, its printed summary discarded."""
    from intquant import cli

    path = os.path.join(tmp, name)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--report-file", os.path.join(tmp, "runs.jsonl"), *argv, "--out", path])
    if rc != 0:
        raise SystemExit(f"intquant {' '.join(argv)} exited {rc}")
    with open(path, "rb") as fh:
        return sha(fh.read())


def eval_approx_digests(tmp: str) -> dict:
    """Digests of the CSVs that ``intquant eval-approx`` writes."""
    return {f"{which}.csv": written_digest(tmp, ["eval-approx", "--which", which],
                                           f"{which}.csv")
            for which in ("erf", "gelu", "exp2")}


def fit_digests(tmp: str) -> dict:
    """Digests of the JSON that ``intquant fit`` writes over (-3, 3) for
    each degree, each next to the fitted values it holds."""
    out = {}
    for degree in (2, 3, 4):
        name = f"fit.degree{degree}.json"
        out[name] = written_digest(tmp, ["fit", "--range", "-3", "3",
                                         "--degree", str(degree)], name)
        with open(os.path.join(tmp, name)) as fh:
            out[f"{name}.values"] = json.load(fh)
    return out


def erf_digest() -> dict:
    """Digest of ``gelu.erf`` over a grid on [-30, 30], which crosses each of
    its branches (|x| <= 1, erfc's P/Q below 8 and R/S from 8 up, erfc 0
    past x^2 = MAXLOG), and over each branch edge with its neighbours and
    the special values, beside the number of points."""
    from intquant import gelu

    edges = np.array([s * e for e in (1.0, 8.0, math.sqrt(7.09782712893383996843e2))
                      for s in (1.0, -1.0)])
    tiny = np.nextafter(0.0, 1.0)
    x = np.concatenate([np.linspace(-30.0, 30.0, 240_001),
                        np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny]])
    return {"erf.grid": sha(np.asarray(gelu.erf(x), dtype=np.float64).tobytes()),
            "erf.points": int(x.size)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True,
                    help="directory that holds the intquant package to check")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "intquant", "__init__.py")):
        ap.error(f"no intquant package under {src}")
    sys.path.insert(0, src)
    from intquant import pipeline as pl

    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in CONFIGS.items():
            for seed in SEEDS:
                report[f"{name}/seed{seed}"] = {
                    **digests(pl, raw, seed, tmp),
                    **cli_digests(raw, seed, tmp)}
        report["eval-approx"] = eval_approx_digests(tmp)
        report["fit"] = fit_digests(tmp)
    report["erf"] = erf_digest()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
