"""Three-stage assignment pipeline over the toy transformer graph:

1. per-layer candidate analysis: each non-linear layer is run with every
   candidate kernel in isolation against the full-precision forward pass,
   scoring sensitivity, perturbation and measured operation count;
2. per-layer argmax assignment on the unified score;
3. min/max calibration of every activation edge, producing a self-contained
   plan for integer-only inference.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import gelu as gelu_mod
from . import layernorm as ln_mod
from . import softmax as sm_mod
# sqnr and perturbation stay importable from here, where the benchmark's
# tracer looks for them, although stage 1 scores through error_scores
from .metric import (DB_FACTORS, MetricScore, MetricTable, error_scores,  # noqa: F401
                     perturbation, signal_power, sqnr, unified_score)
from .model import (CANDIDATE_POOLS, INPUT, MODEL_FIELDS, ModelGraph, Op,
                    batched, build_toy_vit, forward_float, merge_heads,
                    model_dims, split_heads)
from .quantize import (MinMaxObserver, QParams, QTensor, dequantize_np,
                       dyadic_qparams_for_range, encode_dyadic_multiplier,
                       quantize, requant_weight_per_channel, requantize)
from .tensor import KernelMath, KernelOverflowError, OpCounter, Tensor, rng_tensor

SCORES_CODE_BITS = 16  # attention scores keep wide codes on a dyadic grid
STAGE1_MODES = ("local", "global")


class ConfigError(ValueError):
    """Pipeline configuration violates the schema; message carries the field path."""


class IncompleteTableError(ValueError):
    """Metric table is missing a (layer, candidate) entry."""


class PlanFormatError(ValueError):
    """A plan file does not parse into a valid plan."""


@dataclass(frozen=True)
class PipelineConfig:
    blocks: int = 2
    embed_dim: int = 32
    heads: int = 2
    tokens: int = 8
    mlp_ratio: int = 2
    classes: int = 10
    weight_bits: int = 8
    act_bits: int = 8
    calib_batches: int = 4
    calib_batch_size: int = 8
    db_convention: str = "power10"
    standardize: bool = False
    stage1_mode: str = "local"
    taylor_degree: int = 1
    seed: int = 0
    pools: dict | None = None

    def model_config(self) -> dict:
        return {k: getattr(self, k) for k in MODEL_FIELDS}

    def bit_exp_config(self) -> sm_mod.BitExpConfig:
        return sm_mod.BitExpConfig(bits=self.act_bits, M=31,
                                   taylor_degree=self.taylor_degree)


# config path -> PipelineConfig field, in plan JSON order; the type of the
# field's default is the type the config must give
_CONFIG_FIELDS = {
    "model.blocks": "blocks", "model.embed_dim": "embed_dim", "model.heads": "heads",
    "model.tokens": "tokens", "model.mlp_ratio": "mlp_ratio", "model.classes": "classes",
    "bits.weights": "weight_bits", "bits.activations": "act_bits",
    "calib.batches": "calib_batches", "calib.batch_size": "calib_batch_size",
    "metric.db_convention": "db_convention", "metric.standardize": "standardize",
    "stage1_mode": "stage1_mode", "taylor_degree": "taylor_degree", "seed": "seed",
}
_SECTIONS = {path.split(".")[0] for path in _CONFIG_FIELDS if "." in path}
_FIELD_PATHS = {name: path for path, name in _CONFIG_FIELDS.items()}
_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean"}


def config_from_dict(raw: dict) -> PipelineConfig:
    """Parse and validate the pipeline config; errors name the field path."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    kwargs = {}
    for key, val in raw.items():
        if key == "pools":
            if not isinstance(val, dict):
                raise ConfigError("pools: expected an object")
            kwargs["pools"] = {k: tuple(v) if isinstance(v, (list, tuple)) else v
                               for k, v in val.items()}
            continue
        if key in _SECTIONS:
            if not isinstance(val, dict):
                raise ConfigError(f"{key}: expected an object")
            items = [(f"{key}.{sub}", v) for sub, v in val.items()]
        else:
            items = [(key, val)]
        for path, v in items:
            if path not in _CONFIG_FIELDS:
                raise ConfigError(f"{path}: unknown field")
            field_name = _CONFIG_FIELDS[path]
            want = type(getattr(PipelineConfig, field_name))
            if type(v) is not want:
                raise ConfigError(f"{path}: expected {_TYPE_NAMES[want]}")
            kwargs[field_name] = v
    cfg = PipelineConfig(**kwargs)
    check_config(cfg)
    return cfg


# config path -> the values it may take beyond its type: (min, max or None)
# for integers, the choices for strings
_ALLOWED = {
    "bits.weights": (2, 16),
    "calib.batches": (1, None),
    "calib.batch_size": (1, None),
    "taylor_degree": (1, 2),
    "seed": (0, None),
    "metric.db_convention": tuple(DB_FACTORS),
    "stage1_mode": STAGE1_MODES,
}


def check_config(cfg: PipelineConfig) -> None:
    """Refuse values that have the schema's types but cannot run; the
    ConfigError names the field."""
    try:
        model_dims(cfg.model_config())
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from exc
    for path, allowed in _ALLOWED.items():
        val = getattr(cfg, _CONFIG_FIELDS[path])
        if isinstance(val, str):
            if val not in allowed:
                raise ConfigError(f"{path}: must be one of {list(allowed)}, got {val!r}")
        elif val < allowed[0] or (allowed[1] is not None and val > allowed[1]):
            raise ConfigError(f"{path}: must be in [{allowed[0]}, {allowed[1] or 'inf'}],"
                              f" got {val}")
    try:
        # the softmax kernels' reciprocal needs M >= 2*bits + log2(tokens) + 2
        sm_mod._check_m(cfg.bit_exp_config(), cfg.tokens)
    except sm_mod.ConfigurationError as exc:
        raise ConfigError(f"bits.activations: {exc}") from exc
    for kind, cands in (cfg.pools or {}).items():
        known = CANDIDATE_POOLS.get(kind, ())
        if not isinstance(cands, tuple) or not cands or any(c not in known for c in cands):
            raise ConfigError(f"pools.{kind}: expected a non-empty list from"
                              f" {list(known) or CANDIDATE_POOLS}, got {cands!r}")


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}") from exc
    return config_from_dict(raw)


@dataclass
class AssignmentPlan:
    config: PipelineConfig
    assignments: dict = field(default_factory=dict)       # layer_id -> candidate
    scores: dict = field(default_factory=dict)            # layer_id -> MetricScore
    kinds: dict = field(default_factory=dict)             # layer_id -> kind
    qparams: dict = field(default_factory=dict)           # edge -> QParams
    metric_table: MetricTable | None = None
    omega: float = 0.0
    warnings: list = field(default_factory=list)
    # integer_forward's configuration-time state; see compile_plan
    compiled: CompiledPlan | None = field(default=None, repr=False, compare=False)

    @property
    def calibrated(self) -> bool:
        return bool(self.qparams)


def calibration_batches(cfg: PipelineConfig, calib_seed: int = 0) -> list[np.ndarray]:
    """Synthetic calibration set: unit-normal token activations."""
    return [
        rng_tensor(calib_seed * 7919 + i, [cfg.calib_batch_size, cfg.tokens, cfg.embed_dim],
                   "normal", 0.0, 1.0).values.astype(np.float64)
        for i in range(cfg.calib_batches)
    ]


# ---------------------------------------------------------------------------
# candidate runners (shared by stage 1 and integer inference)
# ---------------------------------------------------------------------------

def run_softmax_candidate(candidate: str, q: QTensor, cfg: sm_mod.BitExpConfig,
                          counter: OpCounter | None = None) -> QTensor:
    fn = {
        "efficient_bit_softmax": sm_mod.efficient_bit_softmax,
        "shiftmax": sm_mod.shiftmax,
        "iexp_softmax": sm_mod.iexp_softmax,
        "log2_softmax": sm_mod.log2_softmax,
    }[candidate]
    return fn(q, cfg, counter)


_GELU_KERNELS = {
    "data_aware_poly_gelu": partial(gelu_mod.poly_gelu_int, c=gelu_mod.QUARTIC_ERF_COEFFS),
    "ibert_gelu": partial(gelu_mod.poly_gelu_int, c=gelu_mod.IBERT_ERF_COEFFS),
    "shift_gelu": gelu_mod.shift_gelu_int,
}


def run_gelu_candidate(candidate: str, q: QTensor, out_params: QParams,
                       counter: OpCounter | None = None) -> QTensor:
    return _GELU_KERNELS[candidate](q, out_params=out_params, counter=counter)


def run_ln_candidate(candidate: str, q: QTensor, gamma, beta, out_params: QParams,
                     counter: OpCounter | None = None) -> QTensor:
    return ln_mod.int_layernorm(q, gamma, beta, candidate, out_params, counter)


def _run_kernel(op: Op, candidate: str, q: QTensor, weights: dict, out_params: QParams,
                bexp: sm_mod.BitExpConfig, counter: OpCounter | None) -> QTensor:
    """Run ``candidate`` as the non-linear ``op`` on the codes ``q``.

    The runners are looked up in this module's globals at call time, so
    that tests and tracing can rebind them.
    """
    if op.op == "softmax":
        return run_softmax_candidate(candidate, q, bexp, counter)
    if op.op == "gelu":
        return run_gelu_candidate(candidate, q, out_params, counter)
    gamma, beta = (weights[k] for k in op.weights)
    return run_ln_candidate(candidate, q, gamma, beta, out_params, counter)


# Stage 1 quantizes a layer's input, and runs a candidate over it, in slices
# of about this many elements along the sample axis. One 4x256x256 sample of
# attention scores is 2^18 codes (1 MiB of int32 input codes, 2 MiB per
# int64 stage), so a kernel's intermediates stay in a 4 MiB per-core L2
# instead of faulting in a fresh whole-set array (32 MB at 16 samples) on
# every op, and only one slice of them is alive at a time. Every kernel is
# row-wise or elementwise and charges each row the same ops in any call, so
# the slices' outputs and op counts add up to the whole call's.
STAGE1_SLICE_ELEMENTS = 1 << 18


def _slices(x: np.ndarray):
    step = max(1, STAGE1_SLICE_ELEMENTS // max(x[:1].size, 1))
    return [slice(lo, lo + step) for lo in range(0, len(x), step)]


def _input_codes(x: np.ndarray, p_in: QParams) -> np.ndarray:
    """``quantize(x, p_in)``'s codes, quantized slice by slice into one array,
    so that no whole-set float temporary is made."""
    codes = np.empty(x.shape, dtype=np.int32)
    for sl in _slices(x):
        codes[sl] = quantize(x[sl], p_in).codes
    return codes


def _candidate_output(op: Op, candidate, codes: np.ndarray, params: tuple,
                      weights: dict, cfg: PipelineConfig,
                      counter: OpCounter | None = None) -> np.ndarray:
    """Run the integer candidate on ``codes``, the op's input quantized with
    the first of ``params`` (its input and output parameters from
    :func:`calibrate_edges`), and dequantize, slice by slice (see
    ``STAGE1_SLICE_ELEMENTS``) into one float64 array."""
    p_in, out_params = params
    bexp = cfg.bit_exp_config()
    out = np.empty(codes.shape)
    for sl in _slices(codes):
        out[sl] = dequantize_np(_run_kernel(op, candidate, QTensor(codes[sl], p_in),
                                            weights, out_params, bexp, counter))
    return out


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def capture_calibration(graph: ModelGraph, weights: dict, calib: list) -> dict:
    """Every edge of the full-precision pass over ``calib``, each joined
    along the sample axis."""
    if not calib:
        raise ValueError("calibration set must be non-empty")
    capture: dict = {}
    for batch in calib:
        forward_float(graph, weights, batch, capture)
    # pop each edge's per-batch list as it is joined, so that only one copy
    # of the captured activations stays alive
    return {e: np.concatenate(capture.pop(e), axis=0) for e in list(capture)}


def stage1_analyze(graph: ModelGraph, weights: dict, calib: list,
                   cfg: PipelineConfig, jobs: int = 1,
                   captured: dict | None = None) -> MetricTable:
    """Score every (layer, candidate) pair against the full-precision pass.

    Analysis is isolated: one layer is quantized at a time, under the
    plan's parameters (:func:`calibrate_edges`), and compared at its own
    output (global-logit comparison sits behind stage1_mode). The cost c is
    the candidate's measured op count per calibration sample, from this
    same run. A candidate whose kernel overflows is recorded with score
    0 and the ops it spent before the overflow. ``captured`` is
    :func:`capture_calibration` of ``calib``, when the caller has it.

    A layer is the unit of work, and ``jobs`` layers run at once. In local
    mode each layer's input is quantized once, for all its candidates, and
    its reference power taken once; each candidate's q_db and p come from
    one residual pass (:func:`metric.error_scores`).
    """
    cat = captured if captured is not None else capture_calibration(graph, weights, calib)
    logits = cat[graph.ops[-1].out]

    qparams, _ = calibrate_edges(graph, cat, cfg)

    candidates = {rec.layer_id: rec.candidates for rec in graph.layers}
    layers = [op for op in graph.ops if candidates.get(op.out)]
    n_samples = len(cat[INPUT])
    logits_power = signal_power(logits) if cfg.stage1_mode == "global" else None

    def row(op, cand, output):
        counter = OpCounter()   # one per candidate: counters are not thread-safe
        try:
            got, ref, power = output(cand, counter)
            q_db, p = error_scores(ref, got, power, cfg.db_convention, out=got)
        except KernelOverflowError:
            q_db, p = -np.inf, np.inf
        c_ops = round(counter.total() / n_samples)
        score = unified_score(q_db, p, c_ops) if np.isfinite(p) else 0.0
        return op.out, op.op, cand, MetricScore(q_db, p, c_ops, score)

    def evaluate(op):
        """The rows of one layer's candidates. ``output`` gives a
        candidate's output, the reference and the reference's power; in
        local mode the candidates share the layer's input codes and
        reference power, which are dropped when the layer returns."""
        params = (qparams[op.inputs[0]], qparams[op.out])
        if cfg.stage1_mode == "global":
            def output(cand, counter):
                def swapped(arr):
                    return _candidate_output(op, cand, _input_codes(arr, params[0]),
                                             params, weights, cfg, counter)
                got = np.concatenate([forward_float(graph, weights, b, swap=(op.out, swapped))
                                      for b in calib], axis=0)
                return got, logits, logits_power
        else:
            codes = _input_codes(cat[op.inputs[0]], params[0])
            ref, power = cat[op.out], signal_power(cat[op.out])

            def output(cand, counter):
                return (_candidate_output(op, cand, codes, params, weights, cfg, counter),
                        ref, power)
        return [row(op, cand, output) for cand in candidates[op.out]]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_layer = list(pool.map(evaluate, layers))
    else:
        per_layer = [evaluate(op) for op in layers]
    rows = [r for layer_rows in per_layer for r in layer_rows]

    table = MetricTable()
    if cfg.standardize:
        rows = _standardize_rows(rows)
    for row in rows:
        table.add(*row)
    return table


def _standardize_rows(rows):
    """Optional per-layer min-max standardization of p and c across the
    candidate pool before softplus, so raw operation counts cannot swamp
    the harmonic mean."""
    by_layer: dict = {}
    for lid, kind, cand, ms in rows:
        by_layer.setdefault(lid, []).append((kind, cand, ms))
    out = []
    for lid, entries in by_layer.items():
        # an overflowed candidate's p is inf and its c a partial count
        ps = [ms.p for _, _, ms in entries if np.isfinite(ms.p)] or [0.0]
        cs = [ms.c for _, _, ms in entries if np.isfinite(ms.p)] or [0]
        p_lo, p_hi, c_lo, c_hi = min(ps), max(ps), min(cs), max(cs)
        for kind, cand, ms in entries:
            if ms.score == 0.0 and not np.isfinite(ms.p):
                out.append((lid, kind, cand, ms))
                continue
            sp = 0.0 if p_hi == p_lo else (ms.p - p_lo) / (p_hi - p_lo)
            sc = 0.0 if c_hi == c_lo else (ms.c - c_lo) / (c_hi - c_lo)
            out.append((lid, kind, cand,
                        MetricScore(ms.q_db, ms.p, ms.c,
                                    unified_score(ms.q_db, sp, sc))))
    return out


def stage2_assign(table: MetricTable, graph: ModelGraph | None = None,
                  config: PipelineConfig | None = None) -> AssignmentPlan:
    """Per-layer argmax of the unified score; equal scores break toward the
    lexicographically smaller candidate name."""
    if graph is not None:
        have = {(lid, cand) for lid, _, cand, _ in table.entries}
        for rec in graph.layers:
            for cand in rec.candidates:
                if (rec.layer_id, cand) not in have:
                    raise IncompleteTableError(
                        f"missing entry for ({rec.layer_id}, {cand})")
    plan = AssignmentPlan(config=config or PipelineConfig(), metric_table=table)
    for lid in table.layer_ids():
        cands = table.candidates_for(lid)
        top = max(ms.score for _, ms in cands)
        winners = sorted(c for c, ms in cands if ms.score == top)
        chosen = winners[0]
        ms = dict(cands)[chosen]
        plan.assignments[lid] = chosen
        plan.scores[lid] = ms
        kind = next(k for l, k, c, _ in table.entries if l == lid)
        plan.kinds[lid] = kind
    plan.omega = float(sum(ms.score for ms in plan.scores.values()))
    table.omega = plan.omega
    return plan


def calibrate_edges(graph: ModelGraph, captured: dict,
                    cfg: PipelineConfig) -> tuple[dict, list]:
    """Per-tensor parameters of every activation edge from its min/max
    envelope in ``captured`` (see :func:`capture_calibration`), and the
    warnings raised: a dyadic grid for attention scores, the kernels' grid
    for probabilities, asymmetric ``act_bits`` codes elsewhere."""
    kinds = {op.out: op.op for op in graph.ops}
    qparams: dict[str, QParams] = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for edge in graph.edges:
            obs = MinMaxObserver().observe(captured[edge])
            kind = kinds.get(edge)
            if kind == "scores":
                qparams[edge] = dyadic_qparams_for_range(
                    float(obs.running_min), float(obs.running_max), SCORES_CODE_BITS)
            elif kind == "softmax":
                qparams[edge] = sm_mod.softmax_out_params(cfg.bit_exp_config())
            else:
                qparams[edge] = obs.qparams(cfg.act_bits)
    return qparams, [str(w.message) for w in caught]


def stage3_calibrate(graph: ModelGraph, weights: dict, plan: AssignmentPlan,
                     calib: list, cfg: PipelineConfig,
                     captured: dict | None = None) -> AssignmentPlan:
    """The plan's activation parameters: :func:`calibrate_edges`, with each
    ``log2_scale`` layer's output snapped as its kernel snaps it. Weights
    are re-derived per channel at inference, so the plan needs only
    activations.

    ``captured`` is :func:`capture_calibration` of ``calib``, when the caller
    has it; min and max are exact, so the envelopes do not depend on how the
    batches were joined.
    """
    if not plan.assignments:
        raise ValueError("assignments must be complete before calibration")
    if captured is None:
        captured = capture_calibration(graph, weights, calib)
    plan.qparams, plan.warnings = calibrate_edges(graph, captured, cfg)
    for lid, cand in plan.assignments.items():
        if cand == "log2_scale":
            plan.qparams[lid], _ = ln_mod.snap_pow2_out_params(plan.qparams[lid])
    return plan


def run_pipeline(cfg: PipelineConfig, calib_seed: int = 0,
                 jobs: int = 1) -> tuple[AssignmentPlan, MetricTable, ModelGraph, dict]:
    graph, weights = build_toy_vit(cfg.model_config(), seed=cfg.seed,
                                   pools=cfg.pools)
    calib = calibration_batches(cfg, calib_seed)
    captured = capture_calibration(graph, weights, calib)
    table = stage1_analyze(graph, weights, calib, cfg, jobs=jobs, captured=captured)
    plan = stage2_assign(table, graph, cfg)
    plan = stage3_calibrate(graph, weights, plan, calib, cfg, captured=captured)
    return plan, table, graph, weights


# ---------------------------------------------------------------------------
# integer-only inference
# ---------------------------------------------------------------------------

@dataclass
class _LinearPlan:
    w_centered: np.ndarray
    corr: np.ndarray        # z_in * column sums, already integer
    bias_int: np.ndarray
    mult: np.ndarray        # per-channel round(2^16 * s_in * s_w / s_out)
    p_out: QParams


def _multiplier(edge: str, mult, live=False):
    """``mult`` as given, once it is known to lie below 2^62 (larger ones
    overflow int64) and, where ``live``, not to round to 0 (which maps a
    live row to the zero point whatever its input). Otherwise a ValueError
    names ``edge``."""
    if not np.all(np.asarray(mult) < 1 << 62):
        raise ValueError(f"{edge}: requantization multiplier {np.max(mult):.3g}"
                         " does not fit in 62 bits")
    if np.any((np.rint(mult) == 0) & live):
        raise ValueError(f"{edge}: requantization multiplier rounds to 0")
    return mult


def _prepare_linear(edge: str, w: np.ndarray, b: np.ndarray, p_in: QParams,
                    p_out: QParams, weight_bits: int) -> _LinearPlan:
    codes, s_w = requant_weight_per_channel(w, weight_bits)
    w_centered = codes.astype(np.int64) - (1 << (weight_bits - 1))
    s_in = p_in.scale
    corr = p_in.zero_point * w_centered.sum(axis=1)
    bias_int = np.rint(np.asarray(b, dtype=np.float64) / (s_in * s_w)).astype(np.int64)
    # a row of zero weights scales nothing, so its multiplier may round to 0
    mult = np.rint(_multiplier(edge, (1 << 16) * s_in * s_w / p_out.scale,
                               live=np.any(w_centered, axis=1))).astype(np.int64)
    return _LinearPlan(w_centered, corr, bias_int, mult, p_out)


def _linear_int(km: KernelMath, codes: np.ndarray, lp: _LinearPlan) -> np.ndarray:
    acc = km.matmul(codes, lp.w_centered.T)
    km.add(km.sub(acc, lp.corr, out=acc), lp.bias_int, out=acc)
    return requantize(km, acc, lp.mult, 16, lp.p_out)


def _requant_mult(edge: str, p_from: QParams, p_to: QParams) -> int:
    """Multiplier m of :func:`_add_requant`, codes on ``p_to`` ~ (c - z) * m >> 16."""
    return int(round(_multiplier(edge, (1 << 16) * p_from.scale / p_to.scale, live=True)))


def _requant_into(km: KernelMath, codes, zero_point: int, m: int):
    out = km.sub(codes, zero_point)
    return km.rshift_round(km.mul(out, m, out=out), 16, out=out)


def _add_requant(km: KernelMath, a, b, zeros: tuple[int, int], mults: tuple[int, int],
                 p_out: QParams):
    """a and b, each with its zero point and :func:`_requant_mult`,
    requantized onto ``p_out`` and added."""
    out = _requant_into(km, a, zeros[0], mults[0])
    km.add(out, _requant_into(km, b, zeros[1], mults[1]), out=out)
    return km.clip(km.add(out, p_out.zero_point, out=out), 0, p_out.qmax, out=out)


def _matmul_corrected(km: KernelMath, a, za, b_t, zb):
    """(a - za) @ (b - zb)^T on raw codes with zero-point corrections."""
    hd = a.shape[-1]
    acc = km.matmul(a, b_t)
    if zb:
        km.sub(acc, km.mul(km.sum(a, axis=-1, keepdims=True), zb), out=acc)
    if za:
        sb = km.sum(b_t, axis=-2, keepdims=True)
        km.sub(acc, km.mul(sb, za), out=acc)
        if zb:
            km.add(acc, za * zb * hd, out=acc)
    return acc


class _Reads:
    """Mapping view that records every key read through it."""

    def __init__(self, source):
        self.source = source
        self.seen: dict = {}

    def __getitem__(self, key):
        val = self.seen[key] = self.source[key]
        return val


@dataclass(frozen=True)
class CompiledPlan:
    """Configuration-time state of :func:`integer_forward`: per op, the
    weight encodings (``linear``), the requantization multipliers of both
    operands (``add``, and ``pos_add`` with its quantized positional table
    and zero point) or the dyadic multiplier (``scores``, ``ctx``, ``pool``).

    It is valid only while the graph, config, weight arrays and activation
    parameters it was derived from are the very same objects; it is never
    serialized.
    """

    graph: ModelGraph
    config: PipelineConfig
    weights_read: tuple       # (name, array) pairs, checked by identity
    qparams_read: tuple       # (edge, QParams) pairs, checked by identity
    bexp: sm_mod.BitExpConfig
    consts: dict              # op output edge -> that op's constants

    def matches(self, graph: ModelGraph, weights: dict, plan: AssignmentPlan) -> bool:
        return (self.graph is graph and self.config is plan.config
                and all(weights.get(k) is v for k, v in self.weights_read)
                and all(plan.qparams.get(e) is p for e, p in self.qparams_read))


def compile_plan(graph: ModelGraph, weights: dict, plan: AssignmentPlan) -> CompiledPlan:
    """Derive everything integer inference needs that does not depend on
    the input, attach it to ``plan`` and return it.

    Raises ValueError naming the edge when the plan's parameters cannot run:
    a softmax input off the kernels' dyadic grid, a multiplier of 2^62 or
    more, or an ``add``, ``pos_add`` or ``linear`` multiplier that rounds
    to 0 (except on a row of zero weights)."""
    if not plan.calibrated:
        raise ValueError("plan must be calibrated before inference")
    cfg = plan.config
    P, W = _Reads(plan.qparams), _Reads(weights)
    bexp = cfg.bit_exp_config()
    p_probs = sm_mod.softmax_out_params(bexp)
    consts = {}
    for op in graph.ops:
        out, ins = op.out, op.inputs
        if op.op == "linear":
            w, b = op.weights
            consts[out] = _prepare_linear(out, W[w], W[b], P[ins[0]], P[out],
                                          cfg.weight_bits)
        elif op.op == "pos_add":
            pos = W[op.weights[0]]
            p_pos = MinMaxObserver().observe(pos).qparams(cfg.act_bits)
            consts[out] = (np.asarray(quantize(pos, p_pos).codes, dtype=np.int64),
                           p_pos.zero_point, (_requant_mult(out, P[ins[0]], P[out]),
                                              _requant_mult(out, p_pos, P[out])))
        elif op.op == "add":
            consts[out] = tuple(_requant_mult(out, P[e], P[out]) for e in ins)
        elif op.op == "softmax":
            sm_mod._dyadic_exponent(P[ins[0]])   # the kernels need a dyadic input grid
        elif op.op == "scores":
            consts[out] = encode_dyadic_multiplier(_multiplier(
                out, P[ins[0]].scale * P[ins[1]].scale / P[out].scale))
        elif op.op == "ctx":
            consts[out] = encode_dyadic_multiplier(_multiplier(
                out, p_probs.scale * P[ins[1]].scale / P[out].scale))
        elif op.op == "pool":
            # mean pool over tokens, the 1/T division folded into the multiplier
            consts[out] = encode_dyadic_multiplier(_multiplier(
                out, P[ins[0]].scale / (graph.tokens * P[out].scale)))

    compiled = CompiledPlan(graph, cfg, tuple(W.seen.items()), tuple(P.seen.items()),
                            bexp, consts)
    plan.compiled = compiled
    return compiled


@dataclass
class _Run:
    """What every integer op of one forward pass reads besides its inputs."""

    graph: ModelGraph
    weights: dict
    plan: AssignmentPlan
    P: dict                 # edge -> QParams
    compiled: CompiledPlan
    km: KernelMath


def _int_nonlinear(r: _Run, op: Op, x):
    return _run_kernel(op, r.plan.assignments[op.out], QTensor(x, r.P[op.inputs[0]]),
                       r.weights, r.P[op.out], r.compiled.bexp, r.km.counter).codes


def _int_pos_add(r: _Run, op: Op, x):
    pos_codes, z_pos, mults = r.compiled.consts[op.out]
    return _add_requant(r.km, x, pos_codes, (r.P[op.inputs[0]].zero_point, z_pos),
                        mults, r.P[op.out])


def _int_add(r: _Run, op: Op, a, b):
    ea, eb = op.inputs
    return _add_requant(r.km, a, b, (r.P[ea].zero_point, r.P[eb].zero_point),
                        r.compiled.consts[op.out], r.P[op.out])


def _int_scores(r: _Run, op: Op, q, k):
    H = r.graph.heads
    acc = _matmul_corrected(r.km, split_heads(q, H), r.P[op.inputs[0]].zero_point,
                            split_heads(k, H).transpose(0, 1, 3, 2),
                            r.P[op.inputs[1]].zero_point)
    return requantize(r.km, acc, *r.compiled.consts[op.out], r.P[op.out])


def _int_ctx(r: _Run, op: Op, probs, v):
    acc = _matmul_corrected(r.km, probs, 0, split_heads(v, r.graph.heads),
                            r.P[op.inputs[1]].zero_point)
    return merge_heads(requantize(r.km, acc, *r.compiled.consts[op.out], r.P[op.out]))


def _int_pool(r: _Run, op: Op, h):
    acc = r.km.sum(h, axis=1, keepdims=False)
    r.km.sub(acc, r.graph.tokens * r.P[op.inputs[0]].zero_point, out=acc)
    return requantize(r.km, acc, *r.compiled.consts[op.out], r.P[op.out])


# op kind -> fn(run, op, *input codes) -> output codes
_INT_OPS = {
    "pos_add": _int_pos_add,
    "layernorm": _int_nonlinear,
    "linear": lambda r, op, a: _linear_int(r.km, a, r.compiled.consts[op.out]),
    "scores": _int_scores,
    "softmax": _int_nonlinear,
    "ctx": _int_ctx,
    "add": _int_add,
    "gelu": _int_nonlinear,
    "pool": _int_pool,
}


def integer_forward(graph: ModelGraph, weights: dict, plan: AssignmentPlan, x,
                    counter: OpCounter | None = None) -> tuple[Tensor, OpCounter]:
    """End-to-end integer inference under the calibrated plan: interprets
    ``graph.ops`` in order over integer codes.

    Floating point is used for two conversions only: quantizing the input
    tensor and dequantizing the output logits. Everything between runs
    through the instrumented integer facade; the returned counter reports
    the totals and any float violations (which must be zero). The one
    exception inside the facade is :meth:`KernelMath.matmul`, which may
    carry integer operands through float64 BLAS when every partial sum is
    below 2^52 and therefore exact; its result is cast back to int64.

    Configuration-time work (see :func:`compile_plan`) is done on the first
    call and reused while the graph, config, weight arrays and activation
    parameters are the same objects. Threads may share a plan: a race to
    compile it only builds equal states twice.
    """
    compiled = plan.compiled
    if compiled is None or not compiled.matches(graph, weights, plan):
        compiled = compile_plan(graph, weights, plan)
    counter = counter if counter is not None else OpCounter()
    km = KernelMath(counter)

    xq = quantize(np.asarray(x, dtype=np.float64), plan.qparams[INPUT])
    codes, squeeze = batched(graph, km.asarray(xq.codes))
    run = _Run(graph, weights, plan, plan.qparams, compiled, km)
    env = {INPUT: codes}
    for op, dead in zip(graph.ops, graph.dead_after):
        args = [env.pop(e) if e in dead else env[e] for e in op.inputs]
        env[op.out] = _INT_OPS[op.op](run, op, *args)
    out = dequantize_np(QTensor(env[op.out], plan.qparams[op.out]))
    if squeeze:
        out = out[0]
    return Tensor(out, dtype="real32"), counter


# ---------------------------------------------------------------------------
# plan serialization
# ---------------------------------------------------------------------------

def _params_to_dict(edge: str, p: QParams) -> dict:
    return {
        "layer_id": edge,
        "scale": float(p.scale),
        "zero_point": int(p.zero_point),
        "bits": p.bits,
        "scheme": p.scheme,
        "granularity": "per_tensor",
    }


def _params_from_dict(d: dict) -> QParams:
    granularity, scale, zero = d["granularity"], d["scale"], d["zero_point"]
    if granularity != "per_tensor" or type(scale) not in (int, float) or type(zero) is not int:
        raise ValueError(f"{d['layer_id']}: want a per_tensor number scale and integer zero"
                         f" point, got {granularity!r}, {scale!r} and {zero!r}")
    return QParams(float(scale), zero, d["bits"], d["scheme"])


def _finite_or_str(x: float):
    """JSON has no infinities: they are written as "inf" / "-inf", which
    float() reads back."""
    return str(x) if np.isinf(x) else x


def plan_to_dict(plan: AssignmentPlan) -> dict:
    return {
        "model_config": {**{k: getattr(plan.config, k) for k in _CONFIG_FIELDS.values()},
                         "pools": None if plan.config.pools is None else
                         {k: list(v) for k, v in plan.config.pools.items()}},
        "assignments": [
            {
                "layer_id": lid,
                "kind": plan.kinds[lid],
                "candidate": plan.assignments[lid],
                "score": plan.scores[lid].score,
                "q_db": _finite_or_str(plan.scores[lid].q_db),
                "p": _finite_or_str(plan.scores[lid].p),
                "c": plan.scores[lid].c,
            }
            for lid in plan.assignments
        ],
        "qparams": [_params_to_dict(e, p) for e, p in plan.qparams.items()],
        "omega": plan.omega,
        "warnings": list(plan.warnings),
    }


def _config_file_shape(fields: dict) -> dict:
    """A plan's flat ``model_config`` in config-file shape, so that
    :func:`config_from_dict` checks it as it checks a config file."""
    raw: dict = {}
    for name, v in fields.items():
        if name == "pools" and v is None:
            continue
        section, _, key = _FIELD_PATHS.get(name, name).rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[key] = v
    return raw


def plan_from_dict(raw: dict) -> AssignmentPlan:
    """Inverse of :func:`plan_to_dict`; raises :class:`PlanFormatError`."""
    try:
        cfg = config_from_dict(_config_file_shape(raw["model_config"]))
        plan = AssignmentPlan(config=cfg)
        for entry in raw["assignments"]:
            lid = entry["layer_id"]
            plan.assignments[lid] = entry["candidate"]
            plan.kinds[lid] = entry["kind"]
            plan.scores[lid] = MetricScore(float(entry["q_db"]), float(entry["p"]),
                                           int(entry["c"]), float(entry["score"]))
        for pd in raw["qparams"]:
            plan.qparams[pd["layer_id"]] = _params_from_dict(pd)
        plan.omega = float(raw.get("omega", 0.0))
        plan.warnings = list(raw.get("warnings", []))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise PlanFormatError(f"{type(exc).__name__}: {exc}") from exc
    return plan


def save_plan(plan: AssignmentPlan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2)
        fh.write("\n")


def load_plan(path) -> AssignmentPlan:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PlanFormatError(f"not valid JSON: {exc}") from exc
    return plan_from_dict(raw)
