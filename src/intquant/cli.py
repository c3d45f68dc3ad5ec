"""Command-line surface: coefficient fitting, approximation error tables,
pipeline execution, integer inference, and run reports.

Exit codes: 0 success, 1 internal failure, 2 usage error. Every run appends
one report line (command, argument snapshot, produced files, wall time,
model seed) to the report file; outputs themselves are deterministic given
the arguments and the config.

Every command returns (output paths, seed): the seed that built the model
(the config's for ``assign``, the plan's for ``infer``), or None when the
command builds no model.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from functools import partial

import numpy as np

from . import gelu as gelu_mod
from . import pipeline as pl
from .metric import approx_error
from .softmax import BASE2_FRAC_APPROXIMANTS
from .tensor import OpCounter, TensorFormatError, tensor_read, tensor_write


class UsageError(ValueError):
    pass


def _append_report(args, outputs: list[str], seed: int | None, started: float) -> None:
    report = {
        "command": args.command,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - started, 6),
        "seed": seed,
    }
    with open(args.report_file, "a") as fh:
        fh.write(json.dumps(report, default=str) + "\n")


def cmd_fit(args) -> tuple[list[str], None]:
    lo, hi = args.range
    if not lo < hi:
        raise UsageError(f"--range needs lo < hi, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise UsageError(f"--range needs finite bounds a float can span, got ({lo}, {hi})")
    if args.degree not in (2, 3, 4):
        raise UsageError(f"--degree must be 2, 3 or 4, got {args.degree}")
    if not 100 <= args.samples <= gelu_mod.FIT_MAX_SAMPLES:
        raise UsageError(f"--samples must be in [100, {gelu_mod.FIT_MAX_SAMPLES}],"
                         f" got {args.samples}")
    result = gelu_mod.fit_erf_poly((lo, hi), args.degree, samples=args.samples,
                                   level=args.level)
    payload = {
        "a": result.coeffs.a,
        "b": result.coeffs.b,
        "degree": result.coeffs.degree,
        "range": [result.fit_range[0], result.fit_range[1]],
        "l2_err": result.l2_err,
        "linf_err": result.linf_err,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"fit degree {args.degree} on ({lo}, {hi}):"
          f" a={result.coeffs.a:.6f} b={result.coeffs.b:.6f}"
          f" l2={result.l2_err:.6f} linf={result.linf_err:.6f}")
    return [args.out], None


# --which -> its rows of (method, reference, approximant, range) for approx_error
_TABLES = {
    "erf": [(name, gelu_mod.erf, partial(gelu_mod.erf_poly_eval, c=coeffs), (-3.0, 3.0))
            for name, coeffs in (("erf_ibert_quadratic", gelu_mod.IBERT_ERF_COEFFS),
                                 ("erf_quartic_ours", gelu_mod.QUARTIC_ERF_COEFFS))],
    "gelu": [(name, gelu_mod.gelu_reference, fn, (-3.0, 3.0))
             for name, fn in (("i_gelu", gelu_mod.ibert_gelu),
                              ("data_aware_poly_gelu", gelu_mod.data_aware_poly_gelu))],
    "exp2": [(name, np.exp2, BASE2_FRAC_APPROXIMANTS[mode], (-1.0, 1.0))
             for name, mode in (("base2_exp_ivit", "ivit_linear"),
                                ("base2_exp_ours_exact_ln2", "ours_exact_ln2"),
                                ("base2_exp_ours_shift", "ours_shift"))],
}


def cmd_eval_approx(args) -> tuple[list[str], None]:
    if args.which not in _TABLES:
        raise UsageError(f"--which must be one of {sorted(_TABLES)}, got {args.which!r}")
    rows = [(name, rng, *approx_error(ref, fn, rng))
            for name, ref, fn, rng in _TABLES[args.which]]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "range", "l2", "linf"])
        for name, rng, l2, linf in rows:
            w.writerow([name, f"({rng[0]:g},{rng[1]:g})", f"{l2:.6f}", f"{linf:.6f}"])
    for name, _, l2, linf in rows:
        print(f"{name}: l2={l2:.4f} linf={linf:.4f}")
    return [args.out], None


def cmd_assign(args) -> tuple[list[str], int]:
    if args.calib_seed < 0:
        raise UsageError(f"--calib-seed must be >= 0, got {args.calib_seed}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        cfg = pl.load_config(args.config)
    except pl.ConfigError as exc:
        raise UsageError(f"config: {exc}") from exc
    plan, table, graph, weights = pl.run_pipeline(cfg, calib_seed=args.calib_seed,
                                                  jobs=args.jobs)
    try:   # a plan that infer would refuse is not written
        pl.compile_plan(graph, weights, plan)
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"plan: {exc}") from exc
    plan_path = args.out + ".plan.json"
    csv_path = args.out + ".metrics.csv"
    pl.save_plan(plan, plan_path)
    table.write_csv(csv_path, plan.assignments)
    by_kind: dict = {}
    for lid, cand in plan.assignments.items():
        by_kind.setdefault(plan.kinds[lid], {}).setdefault(cand, 0)
        by_kind[plan.kinds[lid]][cand] += 1
    print(f"metric entries: {len(table)}; omega={plan.omega:.6f}")
    for kind in sorted(by_kind):
        parts = ", ".join(f"{c}={n}" for c, n in sorted(by_kind[kind].items()))
        print(f"{kind}: {parts}")
    return [plan_path, csv_path], cfg.seed


def cmd_infer(args) -> tuple[list[str], int]:
    try:
        plan = pl.load_plan(args.plan)
    except pl.PlanFormatError as exc:
        raise UsageError(f"plan: {exc}") from exc
    try:
        x = tensor_read(args.input)
    except TensorFormatError as exc:
        raise UsageError(f"input: {exc}") from exc
    nan = np.flatnonzero(np.isnan(x.data))
    if nan.size:
        raise UsageError(f"input: {args.input} holds NaN ({nan.size} elements,"
                         f" the first at flat index {nan[0]}), which has no code")
    cfg = plan.config
    graph, weights = pl.build_toy_vit(cfg.model_config(), seed=cfg.seed,
                                      pools=cfg.pools)
    shape = x.dims
    if shape[-2:] != (graph.tokens, graph.embed_dim) or len(shape) not in (2, 3):
        raise UsageError(
            f"input dims {list(shape)} do not match the plan's model"
            f" [{graph.tokens}, {graph.embed_dim}]"
        )
    try:
        pl.compile_plan(graph, weights, plan)
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"plan: {exc}") from exc
    counter = OpCounter()
    out, counter = pl.integer_forward(graph, weights, plan, x.values, counter)
    tensor_write(out, args.out)
    report_path = args.out + ".ops.json"
    with open(report_path, "w") as fh:
        json.dump(counter.as_dict(), fh, indent=2)
        fh.write("\n")
    print(f"float_violations={counter.float_violations} total_ops={counter.total()}")
    if counter.float_violations:
        raise RuntimeError(f"{counter.float_violations} float violations recorded")
    return [args.out, report_path], cfg.seed


def _report_entries(path) -> list[dict]:
    """The runs recorded in the report file, one object per non-blank line."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise UsageError(f"--report-file: {path}: {exc}") from exc
        for n, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UsageError(f"--report-file: {path} line {n}: {exc}") from exc
            if not isinstance(entry, dict) or "command" not in entry:
                raise UsageError(f"--report-file: {path} line {n}: expected an object"
                                 f" with a \"command\", got {line.strip()[:40]}")
            outputs, wall = entry.get("outputs", []), entry.get("wall_time_s", 0)
            if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
                raise UsageError(f"--report-file: {path} line {n}: \"outputs\" must be a"
                                 f" list of strings, got {outputs!r:.40}")
            if not isinstance(wall, (int, float)):
                raise UsageError(f"--report-file: {path} line {n}: \"wall_time_s\" must be"
                                 f" a number, got {wall!r:.40}")
            entries.append(entry)
    return entries


def cmd_report(args) -> tuple[list[str], None]:
    try:
        lines = _report_entries(args.report_file)
    except FileNotFoundError:
        print("no runs recorded")
        return [], None
    for entry in lines:
        outs = ", ".join(entry.get("outputs", [])) or "-"
        seed = entry.get("seed")
        print(f"{entry['command']}: seed={'-' if seed is None else seed}"
              f" wall={entry.get('wall_time_s', 0):.3f}s outputs: {outs}")
    return [], None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="intquant",
        description="Integer-only kernel fitting, error tables, assignment pipeline, inference.",
    )
    ap.add_argument("--report-file", default="runs.jsonl",
                    help="append-only run report (JSON lines)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit erf-approximant coefficients")
    p.add_argument("--range", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    # a negative float literal, exponent form and infinity included, is a
    # value: argparse itself reads only -1 and -1.5 shapes as numbers, and
    # takes -1e-3 for an option
    p._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-inf(inity)?$",
                                            re.IGNORECASE)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--samples", type=int, default=2001)
    p.add_argument("--level", choices=("erf", "gelu"), default="erf")
    p.add_argument("--out", default="fit.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval-approx", help="emit approximation error tables")
    p.add_argument("--which", required=True, help="erf | gelu | exp2")
    p.add_argument("--out", default="approx.csv")
    p.set_defaults(func=cmd_eval_approx)

    p = sub.add_parser("assign", help="run the three-stage assignment pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--calib-seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default="assignment")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("infer", help="integer-only inference under a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="logits.iptq")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("report", help="print recorded runs")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    # argparse counts an attached --range=LO as both of the option's values
    args = ap.parse_args([part for arg in (sys.argv[1:] if argv is None else argv)
                          for part in (arg.split("=", 1) if arg.startswith("--range=")
                                       else (arg,))])
    started = time.monotonic()
    try:
        # refused before the command does its work and writes its outputs
        if os.path.isdir(args.report_file):
            raise UsageError(f"--report-file: {args.report_file} is a directory")
        out_dir = os.path.dirname(getattr(args, "out", "")) or "."
        if not os.path.isdir(out_dir):
            raise UsageError(f"--out: {args.out}: {out_dir} is not a directory")
        outputs, seed = args.func(args)
    # an OSError is a path the arguments name that cannot be read or written
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _append_report(args, outputs, seed, started)
    except OSError as exc:
        print(f"usage error: --report-file: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
