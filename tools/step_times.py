"""Milliseconds per request of each op kind of integer inference, and of
each ``KernelMath`` call.

Runs the pipeline on two shapes, the README default config and the
longseq-attn shape (2 blocks, 64-d, 4 heads, 256 tokens), compiles its plan,
and wraps every step of ``CompiledPlan.steps`` in a timer from outside the
package: the plan gets a copy of its compiled state with the wrapped steps,
which ``integer_forward`` then runs. After a warm-up it times batch-1
requests and prints one table: per op kind (``linear``, ``layernorm``,
``softmax``, ...) the milliseconds its steps take per request, then the
steps' sum and the whole ``integer_forward`` call, whose difference is the
call's own overhead and the timers', and the CPU time the process spent
over those requests, on all its threads: above the wall time where a BLAS
helper thread spins beside the calling thread.

A second pass over the same requests wraps every public ``KernelMath``
method in a timer and prints, per shape, a header with the number of call
sites (caller's file and line, and method), the ``KernelMath`` calls made
per request and their mean microseconds per call, so that a shape bound by
per-call costs shows as one; then the costliest call sites: the caller's
file and line, the method, its calls and its milliseconds per request. A
call made inside another ``KernelMath`` call counts toward the outer one
alone. The timers add a few microseconds to each call, so this pass's
total runs above the first table's.

A third table times stage 1 (``stage1_analyze``, with as many workers as
the machine has cores, the CLI's default), per shape and in ms per call,
with wrappers around the ``pipeline`` functions it calls: the float pass
per op kind (the wall time spent inside ``float_edges`` before it yields
each op's edge), the quantization of the layers' inputs
(``_input_codes``), the observation of each edge (``calibrate_edges``)
and, per layer kind, the scoring of each layer, from the first binding
of its candidates (``_runner``) to the last candidate's score
(``_measured``); then the whole call, and the CPU time the process spent
on all its threads.

``--src`` picks the ``intquant`` package, so that a parent and a change can
be compared on one machine:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/step_times.py --src ../parent/src
    python3 tools/step_times.py --src src
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

SHAPES = {
    "toy-default": {},
    "longseq-attn": {"model": {"blocks": 2, "embed_dim": 64, "heads": 4, "tokens": 256},
                     "calib": {"batches": 2, "batch_size": 8}},
}
CALL_ROWS = 15   # rows of each shape's KernelMath call table
STAGE1_RUNS = 5  # timed stage1_analyze calls per shape, after one untimed


def step_times(pl, raw: dict, seed: int, requests: int, warmup: int) -> tuple[dict, dict]:
    """ms per request of each op kind's steps, of their sum and of the
    whole ``integer_forward`` call, on the shape ``raw`` at ``seed``; and
    the calls and ms per request of each (caller:line, method) of
    :func:`call_times` over the same requests."""
    cfg = pl.config_from_dict({**raw, "seed": seed})
    plan, _, graph, weights = pl.run_pipeline(cfg, calib_seed=seed)
    compiled = pl.compile_plan(graph, weights, plan)
    spent = dict.fromkeys((op.op for op in graph.ops), 0.0)

    def timed(kind, step):
        def run(counter, *codes):
            t0 = time.perf_counter()
            out = step(counter, *codes)
            spent[kind] += time.perf_counter() - t0
            return out
        return run

    plan.compiled = wrapped = dataclasses.replace(compiled, steps=tuple(
        timed(op.op, step) for op, step in zip(graph.ops, compiled.steps)))
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((1, cfg.tokens, cfg.embed_dim)) for _ in range(warmup + requests)]
    for x in xs[:warmup]:
        pl.integer_forward(graph, weights, plan, x)
    spent.update(dict.fromkeys(spent, 0.0))
    t0, cpu0 = time.perf_counter(), time.process_time()
    for x in xs[warmup:]:
        pl.integer_forward(graph, weights, plan, x)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if plan.compiled is not wrapped:
        raise SystemExit("integer_forward recompiled the plan: the timers did not run")
    ms = {kind: 1e3 * t / requests for kind, t in spent.items()}
    ms["steps total"] = sum(ms.values())
    ms["integer_forward"] = 1e3 * wall / requests
    ms["process CPU"] = 1e3 * cpu / requests
    from intquant.tensor import KernelMath
    calls = call_times(KernelMath, lambda: [pl.integer_forward(graph, weights, plan, x)
                                    for x in xs[warmup:]])
    return ms, {key: (n / requests, 1e3 * t / requests) for key, (n, t) in calls.items()}


def stage1_times(pl, raw: dict, seed: int, jobs: int) -> dict:
    """ms per ``stage1_analyze`` call on the shape ``raw`` at ``seed`` with
    ``jobs`` workers: each phase of the module docstring's third table."""
    cfg = pl.config_from_dict({**raw, "seed": seed})
    graph, weights = pl.build_toy_vit(cfg.model_config(), seed=cfg.seed, pools=cfg.pools)
    calib = pl.calibration_batches(cfg, seed)
    kinds = {op.out: op.op for op in graph.ops}
    spent: dict = {}
    scoring: dict = {}   # the layer being scored: its id, kind and start
    scored: dict = {}    # layer id -> (kind, seconds from its first binding to its last score)

    def add(key, t):
        spent[key] = spent.get(key, 0.0) + t

    def float_edges(*args, _fn=pl.float_edges, **kw):
        edges = _fn(*args, **kw)
        while True:
            t0 = time.perf_counter()
            try:
                edge, dead = next(edges)
            except StopIteration:
                return
            add(f"float {kinds.get(edge, 'input')}", time.perf_counter() - t0)
            yield edge, dead

    def timed(key, fn):
        def call(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                add(key, time.perf_counter() - t0)
        return call

    def runner(op, *args, _fn=pl._runner, **kw):
        if scoring.get("id") != op.out:
            scoring.update(id=op.out, kind=op.op, start=time.perf_counter())
        return _fn(op, *args, **kw)

    def measured(*args, _fn=pl._measured, **kw):
        try:
            return _fn(*args, **kw)
        finally:
            scored[scoring["id"]] = (scoring["kind"], time.perf_counter() - scoring["start"])

    wrappers = {"float_edges": float_edges, "_runner": runner, "_measured": measured,
                "_input_codes": timed("quantize inputs", pl._input_codes),
                "calibrate_edges": timed("observe edges", pl.calibrate_edges)}
    originals = {name: getattr(pl, name) for name in wrappers}
    pl.stage1_analyze(graph, weights, calib, cfg, jobs=jobs)
    try:
        for name, fn in wrappers.items():
            setattr(pl, name, fn)
        t0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(STAGE1_RUNS):
            pl.stage1_analyze(graph, weights, calib, cfg, jobs=jobs)
            for kind, t in scored.values():
                add(f"score {kind}", t)
            scored.clear()
            scoring.clear()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        for name, fn in originals.items():
            setattr(pl, name, fn)
    ms = {key: 1e3 * t / STAGE1_RUNS for key, t in spent.items()}
    ordered = {k: ms[k] for k in sorted(ms, key=lambda k: not k.startswith("float"))}
    ordered["float pass"] = sum(t for k, t in ms.items() if k.startswith("float"))
    ordered["stage1_analyze"] = 1e3 * wall / STAGE1_RUNS
    ordered["process CPU"] = 1e3 * cpu / STAGE1_RUNS
    return ordered


def _print_table(title: str, tables: dict) -> None:
    print(title)
    rows = list(dict.fromkeys(k for t in tables.values() for k in t))
    print(f"{'':<16}" + "".join(f"{name:>14}" for name in tables))
    for row in rows:
        print(f"{row:<16}" + "".join(f"{t[row]:>14.3f}" if row in t else f"{'-':>14}"
                                     for t in tables.values()))


def call_times(km_class, run) -> dict:
    """(calls, seconds) of each (caller:line, method) of the outermost
    ``KernelMath`` calls while ``run()`` runs, with every public method
    wrapped in a timer and restored afterwards."""
    spent: dict = {}
    depth = [0]

    def timed(name, method):
        def call(*args, **kw):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return method(*args, **kw)
            finally:
                t = time.perf_counter() - t0
                depth[0] -= 1
                if not depth[0]:
                    caller = sys._getframe(1)
                    key = (f"{os.path.basename(caller.f_code.co_filename)}:{caller.f_lineno}",
                           name)
                    n, total = spent.get(key, (0, 0.0))
                    spent[key] = n + 1, total + t
        return call

    methods = {name: fn for name, fn in vars(km_class).items()
               if not name.startswith("_") and callable(fn) and name != "within"}
    try:
        for name, fn in methods.items():
            setattr(km_class, name, timed(name, fn))
        run()
    finally:
        for name, fn in methods.items():
            setattr(km_class, name, fn)
    return spent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="directory that holds the intquant package to time")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--requests", type=int, default=200)
    ap.add_argument("--warmup", type=int, default=10)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "intquant", "__init__.py")):
        ap.error(f"no intquant package under {src}")
    sys.path.insert(0, src)
    from intquant import pipeline as pl

    # stage 1 first, so that no BLAS helper thread left spinning by
    # inference's GEMMs adds to its process CPU
    jobs = os.cpu_count() or 1
    stage1 = {name: stage1_times(pl, raw, args.seed, jobs) for name, raw in SHAPES.items()}
    timed = {name: step_times(pl, raw, args.seed, args.requests, args.warmup)
             for name, raw in SHAPES.items()}
    _print_table(f"ms per request by op kind, {args.requests} batch-1 requests,"
                 f" seed {args.seed}, {src}", {name: t for name, (t, _) in timed.items()})
    for name, (_, calls) in timed.items():
        per_request = sum(n for n, _ in calls.values())
        ms_total = sum(ms for _, ms in calls.values())
        print(f"\nKernelMath calls on {name}: {len(calls)} call sites, {per_request:.0f} calls"
              f" and {ms_total:.3f} ms per request, {1e3 * ms_total / per_request:.1f} us per"
              f" call; the {CALL_ROWS} costliest sites, calls and ms per request")
        costliest = sorted(calls.items(), key=lambda kv: -kv[1][1])[:CALL_ROWS]
        for (where, method), (n, ms) in costliest:
            print(f"{where:<24}{method:<18}{n:>7.0f}{ms:>9.3f}")
    print()
    _print_table(f"stage 1, ms per stage1_analyze call ({STAGE1_RUNS} calls), jobs={jobs},"
                 f" seed {args.seed}", stage1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
