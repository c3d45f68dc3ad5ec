"""intquant benchmark: latency of ``assign`` (pipeline stages 1-3) and of
integer inference, integer op counts, and logit quality against the float
model, on generated encoder shapes.

Usage (from the repository root):

    python3 bench/run.py --workload toy-default --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing rebound.
``--trace 1`` is a separate, shorter run that rebinds intquant's public
functions to span-recording wrappers (see spans.py) and reports per-layer
time and op counts, the tracing overhead, and the op-count gate.  Spans are
written to ``.bench_out/trace-<workload>-<seed>.jsonl``.

Every run also makes one CLI round trip (``assign`` then ``infer`` through
``intquant.cli.main``, in-process) and checks its logits against the
library path.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context (machine, versions, sample counts, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import spans as sp
import workloads
from workloads import ROOT, WORKLOADS

workloads.import_intquant()
from intquant import cli  # noqa: E402
from intquant import pipeline as pl  # noqa: E402
from intquant.metric import MetricTable, sqnr  # noqa: E402
from intquant.model import forward_float  # noqa: E402
from intquant.quantize import MinMaxObserver  # noqa: E402
from intquant.tensor import (KernelMath, OpCounter, Tensor, tensor_read,  # noqa: E402
                             tensor_write)

SETUP_PROCESSES = 5      # fresh processes timed for setup_s; the median is reported
MIN_ASSIGN_CALLS = 3     # run_pipeline calls per run, at least
MIN_REQUESTS = 100       # so the p90 has at least 10 samples beyond it
TRACE_REQUESTS = 8       # requests in each pass of the traced run
OUT_DIR = os.path.join(ROOT, ".bench_out")
CANDIDATES = {
    "softmax": ("efficient_bit_softmax", "iexp_softmax", "log2_softmax", "shiftmax"),
    "gelu": ("data_aware_poly_gelu", "ibert_gelu", "shift_gelu"),
    "layernorm": ("bitshift_newton", "log2_scale", "poly_sqrt"),
}


def tail_percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank q-quantile of ``samples``, or None unless at least
    ``min_beyond`` samples lie beyond its rank."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


class Ledger:
    """Operations attempted and failed.  An operation is one run_pipeline
    call or one inference request; it fails when it raises, records a float
    violation, or fails an output check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []   # at most one per operation
        self.run_errors: list[str] = []  # checks on the run as a whole

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def _plan_key(plan) -> str:
    return json.dumps(pl.plan_to_dict(plan), sort_keys=True)


def assign_once(env, seed: int, jobs: int, ledger: Ledger, ref_key):
    """One timed run_pipeline call; returns (plan or None, seconds, key)."""
    ledger.attempt()
    t0 = time.perf_counter()
    try:
        plan = pl.run_pipeline(env.cfg, calib_seed=seed, jobs=jobs)[0]
    except Exception as exc:
        ledger.fail(f"run_pipeline raised {type(exc).__name__}: {exc}")
        return None, time.perf_counter() - t0, ref_key
    dt = time.perf_counter() - t0
    key = _plan_key(plan)
    if ref_key is not None and key != ref_key:
        ledger.fail("run_pipeline on one seed gave a different plan")
    return plan, dt, key


def infer_once(env, plan, x, ledger: Ledger, ref=None):
    """One timed integer_forward request; returns (logits or None, counter, seconds).

    ``ref`` is the logits this request gave before; a repeat must match them
    bit for bit."""
    ledger.attempt()
    counter = OpCounter()
    t0 = time.perf_counter()
    try:
        out, counter = pl.integer_forward(env.graph, env.weights, plan, x, counter)
    except Exception as exc:
        ledger.fail(f"integer_forward raised {type(exc).__name__}: {exc}")
        return None, counter, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    logits = out.values
    want = (x.shape[0], env.graph.classes)
    if counter.float_violations:
        ledger.fail(f"{counter.float_violations} float violations")
    elif logits.shape != want or not np.isfinite(logits).all():
        ledger.fail(f"logits of shape {logits.shape}, want {want}, all finite")
    elif ref is not None and logits.tobytes() != ref.tobytes():
        ledger.fail("a repeated request gave different logits")
    return logits, counter, dt


def cli_round_trip(env, seed: int, plan_key: str, logits, total_ops: int,
                   ledger: Ledger, tracer=None) -> dict:
    """``intquant assign`` then ``intquant infer`` in-process, on request 0.

    Both must exit 0, the plan must equal the library plan, and the logits
    and op total must equal the library's.  Returns wall seconds per call;
    with a tracer, its io spans give the time spent reading and writing."""
    cfg = env.cfg
    config = {
        "model": cfg.model_config(),
        "bits": {"weights": cfg.weight_bits, "activations": cfg.act_bits},
        "calib": {"batches": cfg.calib_batches, "batch_size": cfg.calib_batch_size},
        "seed": cfg.seed,
    }
    times = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        paths = {k: os.path.join(tmp, v) for k, v in (
            ("config", "config.json"), ("input", "x.iptq"), ("out", "run"),
            ("logits", "logits.iptq"), ("report", "runs.jsonl"))}
        with open(paths["config"], "w") as fh:
            json.dump(config, fh)
        tensor_write(Tensor(env.requests[0], dtype="real32"), paths["input"])
        calls = {
            "assign": ["assign", "--config", paths["config"], "--calib-seed", str(seed),
                       "--out", paths["out"]],
            "infer": ["infer", "--plan", paths["out"] + ".plan.json",
                      "--input", paths["input"], "--out", paths["logits"]],
        }
        for name, argv in calls.items():
            ledger.attempt()
            scope = tracer.request(f"cli-{name}") if tracer else contextlib.nullcontext()
            with scope, contextlib.redirect_stdout(io.StringIO()):
                span = tracer.open(f"cli.{name}") if tracer else None
                t0 = time.perf_counter()
                try:
                    rc = cli.main(["--report-file", paths["report"], *argv])
                finally:
                    times[name] = time.perf_counter() - t0
                    if span is not None:
                        tracer.close(span)
            if rc != 0:
                ledger.fail(f"intquant {name} exited {rc}")
                continue
            if name == "assign":
                with open(paths["out"] + ".plan.json") as fh:
                    if json.dumps(json.load(fh), sort_keys=True) != plan_key:
                        ledger.fail("the CLI plan differs from the library plan")
            else:
                got = tensor_read(paths["logits"]).values
                with open(paths["logits"] + ".ops.json") as fh:
                    ops = json.load(fh)
                if logits is None or got.tobytes() != logits.astype("<f4").tobytes():
                    ledger.fail("CLI logits differ from the library path")
                elif ops["total"] != total_ops or ops["float_violations"]:
                    ledger.fail("CLI op counts differ from the library path")
    return times


def time_setups(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from spawn to set-up done."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
    out = []
    for _ in range(SETUP_PROCESSES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, child, name, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def _versions(jobs: int) -> dict:
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "scipy": scipy.__version__, "jobs": jobs}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def run_timed(args, env, jobs: int, ledger: Ledger, context: dict) -> dict:
    """Closed loop with one client.  run_pipeline calls and inference
    requests alternate, so both see the same machine conditions; requests
    get two thirds of the measured time, because their median moves more
    with the machine's speed than assign_s does."""
    w = WORKLOADS[args.workload]
    pool = len(env.requests)
    min_requests = max(MIN_REQUESTS, pool)
    plan = plan_key = None
    assign_s, latencies = [], []
    busy = {"assign": 0.0, "infer": 0.0}
    first = [None] * pool       # first-pass logits and op total per pool entry
    first_ops = [0] * pool
    t_start = time.perf_counter()
    while True:
        in_time = time.perf_counter() - t_start < args.seconds
        want_assign = len(assign_s) < MIN_ASSIGN_CALLS or in_time
        want_infer = len(latencies) < min_requests or in_time
        if not (want_assign or want_infer):
            break
        if plan is None or (want_assign and (not want_infer
                                             or 2 * busy["assign"] <= busy["infer"])):
            got, dt, plan_key = assign_once(env, args.seed, jobs, ledger, plan_key)
            assign_s.append(dt)
            busy["assign"] += dt
            plan = plan or got
            if plan is None:
                raise SystemExit("benchmark: " + ledger.failures[-1])
            continue
        i = len(latencies) % pool
        logits, counter, dt = infer_once(env, plan, env.requests[i],
                                          ledger, first[i])
        latencies.append(dt)
        busy["infer"] += dt
        if first[i] is None and logits is not None:
            first[i], first_ops[i] = logits, counter.total()
    ok = [i for i in range(pool) if first[i] is not None]
    if not ok:
        raise SystemExit("benchmark: every request failed; " + ledger.failures[-1])

    times = cli_round_trip(env, args.seed, plan_key, first[0], first_ops[0], ledger)
    ref = np.concatenate([forward_float(env.graph, env.weights, env.requests[i]) for i in ok])
    got = np.concatenate([first[i] for i in ok])
    samples = len(ok) * w.batch
    p90 = tail_percentile(latencies, 0.9)
    failed = len(ledger.failures)
    context.update({
        "client": "closed loop, 1 client", "batch": w.batch,
        "requests": len(latencies), "beyond_p90": len(latencies) - math.ceil(0.9 * len(latencies)),
        "assign_calls": len(assign_s), "setup_processes": SETUP_PROCESSES,
        "cli_s": times,
    })
    metrics = {
        "assign_s": (statistics.median(assign_s), "s"),
        "infer_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "infer_samples_per_s": (len(latencies) * w.batch / busy["infer"], "samples/s"),
        "ops_per_sample": (sum(first_ops) / samples, "count"),
        "logit_sqnr_db": (sqnr(ref, got), "dB"),
        "top1_agree": (float(np.mean(ref.argmax(-1) == got.argmax(-1))), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1 - failed / ledger.attempted, "share"),
    }
    if p90 is not None:
        metrics["infer_ms_p90"] = (1e3 * p90, "ms")
    return metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def library_targets() -> list:
    """Public entry points, rebound where they are looked up: pipeline's
    globals for functions, the class for methods."""
    T = sp.Target
    targets = [
        T(pl, "run_pipeline", "pipeline.run_pipeline"),
        T(pl, "stage1_analyze", "pipeline.stage1"),
        T(pl, "stage2_assign", "pipeline.stage2"),
        T(pl, "stage3_calibrate", "pipeline.stage3"),
        T(pl, "integer_forward", "pipeline.integer_forward", counter="arg"),
        T(pl, "run_softmax_candidate", "softmax.candidate", counter="arg", label=True),
        T(pl, "run_gelu_candidate", "gelu.candidate", counter="arg", label=True),
        T(pl, "run_ln_candidate", "layernorm.candidate", counter="arg", label=True),
        T(pl, "quantize", "quantize.quantize"),
        T(pl, "requant_weight_per_channel", "quantize.requant_weight"),
        T(pl, "forward_float", "model.forward_float"),
        T(pl, "build_toy_vit", "model.build_toy_vit"),
        T(pl, "sqnr", "metric.sqnr"),
        T(pl, "perturbation", "metric.perturbation"),
        T(MinMaxObserver, "observe", "quantize.observe"),
    ]
    targets += [T(KernelMath, name, f"tensor.{name}", counter="self")
                for name, fn in vars(KernelMath).items()
                if not name.startswith("_") and callable(fn)]
    return targets


def io_targets() -> list:
    """Tensor, plan, config and report reads and writes of the CLI."""
    T = sp.Target
    return [T(pl, "load_config", "cli.io"), T(pl, "save_plan", "cli.io"),
            T(pl, "load_plan", "cli.io"), T(cli, "tensor_read", "cli.io"),
            T(cli, "tensor_write", "cli.io"), T(MetricTable, "write_csv", "cli.io"),
            T(cli, "_append_report", "cli.io")]


def layer_metrics(spans, infer_requests, batch: int) -> dict:
    """Per-layer figures from recorded spans.  Assign figures are per
    run_pipeline call (one traced call); inference figures are per request,
    except the op kinds, which are per sample."""
    selfs = sp.self_times(spans)
    assign = [s for s in spans if s.request == "assign"]
    infer = [s for s in spans if s.request in infer_requests]
    n = len(infer_requests)

    def dur(s):
        return s.end - s.start

    def total(group, pred, value):
        return sum(value(s) for s in group if pred(s))

    def named(*names):
        return lambda s: s.name in names

    def ops(s):
        return sum(s.ops.values()) if s.ops else 0

    m = {
        "pipeline.stage1_s": (total(assign, named("pipeline.stage1"), dur), "s"),
        "pipeline.stage2_s": (total(assign, named("pipeline.stage2"), dur), "s"),
        "pipeline.stage3_s": (total(assign, named("pipeline.stage3"), dur), "s"),
    }
    cand = named(*(f"{k}.candidate" for k in CANDIDATES))
    m["pipeline.stage1_candidates"] = (total(assign, cand, lambda s: 1), "count")
    m["pipeline.stage1_overflowed"] = (
        total(assign, lambda s: cand(s) and s.error == "KernelOverflowError", lambda s: 1),
        "count")
    for name, key in (("quantize.quantize_s", "quantize.quantize"),
                      ("quantize.observe_s", "quantize.observe"),
                      ("model.forward_float_s", "model.forward_float"),
                      ("model.build_toy_vit_s", "model.build_toy_vit")):
        m[name] = (total(assign, named(key), lambda s: selfs[s.id]), "s")
    m["metric.score_s"] = (total(assign, named("metric.sqnr", "metric.perturbation"),
                                 lambda s: selfs[s.id]), "s")
    for phase, group, per in (("stage1", assign, 1), ("infer", infer, n)):
        for kind, names in CANDIDATES.items():
            for c in names:
                pred = (lambda s, k=kind, c=c: s.name == f"{k}.candidate" and s.label == c)
                m[f"{kind}.{phase}.{c}.s"] = (total(group, pred, dur) / per, "s")
                m[f"{kind}.{phase}.{c}.ops"] = (total(group, pred, ops) / per, "count")

    is_tensor = lambda s: s.name.startswith("tensor.")  # noqa: E731
    m["pipeline.integer_forward_self_s"] = (
        total(infer, named("pipeline.integer_forward"), lambda s: selfs[s.id]) / n, "s")
    m["tensor.matmul_s"] = (total(infer, named("tensor.matmul"), dur) / n, "s")
    m["tensor.matmul_macs"] = (
        total(infer, named("tensor.matmul"), lambda s: s.ops["muls"]) / n, "count")
    m["tensor.elementwise_s"] = (
        total(infer, lambda s: is_tensor(s) and s.name != "tensor.matmul",
              lambda s: selfs[s.id]) / n, "s")
    m["tensor.calls"] = (total(infer, is_tensor, lambda s: 1) / n, "count")
    per_request = sp.traced_ops(infer, infer_requests).values()
    for kind in sp.KINDS:
        m[f"tensor.{kind}"] = (sum(o[kind] for o in per_request) / (n * batch), "count")
    m["quantize.requant_weight_s"] = (
        total(infer, named("quantize.requant_weight"), lambda s: selfs[s.id]) / n, "s")
    m["quantize.requant_weight_calls"] = (
        total(infer, named("quantize.requant_weight"), lambda s: 1) / n, "count")
    return m


def ops_by_layer(spans, requests) -> dict:
    """Exclusive op count per module over the given requests."""
    out: dict = {}
    for s in spans:
        if s.request in requests and s.self_ops:
            layer = s.name.split(".")[0]
            out[layer] = out.get(layer, 0) + sum(s.self_ops.values())
    return out


def run_traced(args, env, jobs: int, ledger: Ledger, context: dict) -> dict:
    """Untraced pass, then the same work traced, then the CLI round trip
    with its file reads and writes traced."""
    w = WORKLOADS[args.workload]
    xs = env.requests[:TRACE_REQUESTS]
    # the first call of each kind is a warm-up, so that lazy set-up is not
    # counted as tracing overhead
    plan, _, plan_key = assign_once(env, args.seed, jobs, ledger, None)
    if plan is None:
        raise SystemExit("benchmark: run_pipeline failed; " + "; ".join(ledger.failures))
    _, untraced_assign, _ = assign_once(env, args.seed, jobs, ledger, plan_key)
    infer_once(env, plan, xs[0], ledger)
    base = [infer_once(env, plan, x, ledger) for x in xs]
    float_s = []
    for x in xs:
        t0 = time.perf_counter()
        forward_float(env.graph, env.weights, x)
        float_s.append(time.perf_counter() - t0)

    tracer = sp.Tracer(OpCounter)
    tracer.install(library_targets())
    tracer.install_pool(pl)
    traced_lat = []
    try:
        with tracer.request("assign"):
            _, traced_assign, _ = assign_once(env, args.seed, jobs, ledger, plan_key)
        for i, x in enumerate(xs):
            with tracer.request(f"infer-{i}"):
                _, _, dt = infer_once(env, plan, x, ledger, base[i][0])
            traced_lat.append(dt)
    finally:
        tracer.uninstall()

    requests = {f"infer-{i}" for i in range(len(xs))}
    expected = {f"infer-{i}": {k: getattr(b[1], k) for k in sp.KINDS}
                for i, b in enumerate(base)}
    gaps = sp.op_gate(tracer.spans, expected)
    if gaps:
        ledger.run_errors.append(f"op-count gate: traced minus untraced {gaps}")

    io_tracer = sp.Tracer()
    io_tracer.install(io_targets())
    try:
        cli_times = cli_round_trip(env, args.seed, plan_key, base[0][0],
                                   base[0][1].total(), ledger, io_tracer)
    finally:
        io_tracer.uninstall()

    m = layer_metrics(tracer.spans, requests, w.batch)
    m["model.int_over_float"] = (
        statistics.median(b[2] for b in base) / statistics.median(float_s), "ratio")
    m["cli.assign_s"] = (cli_times["assign"], "s")
    m["cli.infer_s"] = (cli_times["infer"], "s")
    m["cli.io_s"] = (sum(s.end - s.start for s in io_tracer.spans if s.name == "cli.io"), "s")
    m["trace.overhead_assign_s"] = (traced_assign - untraced_assign, "s")
    m["trace.overhead_infer_s"] = (
        statistics.median(traced_lat) - statistics.median(b[2] for b in base), "s")

    context.update({"traced_requests": len(xs), "op_gate": gaps or "exact",
                    "ops_by_layer": ops_by_layer(tracer.spans, requests),
                    "spans": len(tracer.spans)})
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as fh:
        for s in tracer.spans + io_tracer.spans:
            fh.write(json.dumps(s.record()) + "\n")
    context["trace_file"] = os.path.relpath(path, ROOT)
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    jobs = os.cpu_count() or 1      # the CLI's default for `assign --jobs`
    setups = [] if args.trace else time_setups(args.workload, args.seed)
    env = workloads.setup(args.workload, args.seed)
    ledger = Ledger()
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               **_versions(jobs)}
    if args.trace:
        metrics = run_traced(args, env, jobs, ledger, context)
    else:
        metrics = run_timed(args, env, jobs, ledger, context)
        metrics["setup_s"] = (statistics.median(setups), "s")
    context["failures"] = ledger.run_errors + ledger.failures[:20]
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not (ledger.failures or ledger.run_errors),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
