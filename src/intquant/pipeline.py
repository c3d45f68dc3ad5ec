"""Three-stage assignment pipeline over the toy transformer graph:

1. per-layer candidate analysis: each non-linear layer is run with every
   candidate kernel in isolation against the full-precision forward pass,
   scoring sensitivity, perturbation and operation count;
2. per-layer argmax assignment on the unified score;
3. min/max calibration of every activation edge, producing a self-contained
   plan for integer-only inference.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import gelu as gelu_mod
from . import layernorm as ln_mod
from . import softmax as sm_mod
from .metric import (MetricScore, MetricTable, build_metric_score, op_count,
                     perturbation, sqnr, unified_score)
from .model import (ModelGraph, activation_edges, build_toy_vit, forward_float,
                    nonlinear_input_edge)
from .quantize import (MinMaxObserver, QParams, QTensor, dequantize_np,
                       dyadic_qparams_for_range, encode_dyadic_multiplier,
                       quantize, requant_weight_per_channel)
from .tensor import KernelMath, KernelOverflowError, OpCounter, Tensor, rng_tensor

SCORES_CODE_BITS = 16  # attention scores keep wide codes on a dyadic grid


class ConfigError(ValueError):
    """Pipeline configuration violates the schema; message carries the field path."""


class IncompleteTableError(ValueError):
    """Metric table is missing a (layer, candidate) entry."""


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
        return {
            "blocks": self.blocks, "embed_dim": self.embed_dim,
            "heads": self.heads, "tokens": self.tokens,
            "mlp_ratio": self.mlp_ratio, "classes": self.classes,
        }

    def bit_exp_config(self) -> sm_mod.BitExpConfig:
        return sm_mod.BitExpConfig(bits=self.act_bits, M=31,
                                   taylor_degree=self.taylor_degree)


_SCHEMA = {
    "model": {"blocks": int, "embed_dim": int, "heads": int, "tokens": int,
              "mlp_ratio": int, "classes": int},
    "bits": {"weights": int, "activations": int},
    "calib": {"batches": int, "batch_size": int},
    "metric": {"db_convention": str, "standardize": bool},
    "stage1_mode": str,
    "taylor_degree": int,
    "seed": int,
    "pools": dict,
}

_FIELD_MAP = {
    ("model", "blocks"): "blocks", ("model", "embed_dim"): "embed_dim",
    ("model", "heads"): "heads", ("model", "tokens"): "tokens",
    ("model", "mlp_ratio"): "mlp_ratio", ("model", "classes"): "classes",
    ("bits", "weights"): "weight_bits", ("bits", "activations"): "act_bits",
    ("calib", "batches"): "calib_batches", ("calib", "batch_size"): "calib_batch_size",
    ("metric", "db_convention"): "db_convention", ("metric", "standardize"): "standardize",
}


def config_from_dict(raw: dict) -> PipelineConfig:
    """Parse and validate the pipeline config; errors name the field path."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    kwargs = {}
    for key, val in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown field")
        spec = _SCHEMA[key]
        if isinstance(spec, dict) and key != "pools":
            if not isinstance(val, dict):
                raise ConfigError(f"{key}: expected an object")
            for sub, subval in val.items():
                if sub not in spec:
                    raise ConfigError(f"{key}.{sub}: unknown field")
                want = spec[sub]
                if want is int and (isinstance(subval, bool) or not isinstance(subval, int)):
                    raise ConfigError(f"{key}.{sub}: expected an integer")
                if want is str and not isinstance(subval, str):
                    raise ConfigError(f"{key}.{sub}: expected a string")
                if want is bool and not isinstance(subval, bool):
                    raise ConfigError(f"{key}.{sub}: expected a boolean")
                kwargs[_FIELD_MAP[(key, sub)]] = subval
        elif key == "pools":
            if not isinstance(val, dict):
                raise ConfigError("pools: expected an object")
            kwargs["pools"] = {k: tuple(v) for k, v in val.items()}
        else:
            want = spec
            if want is int and (isinstance(val, bool) or not isinstance(val, int)):
                raise ConfigError(f"{key}: expected an integer")
            if want is str and not isinstance(val, str):
                raise ConfigError(f"{key}: expected a string")
            kwargs[key] = val
    try:
        return PipelineConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


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

def _gelu_float_fn(candidate: str):
    return {
        "data_aware_poly_gelu": gelu_mod.data_aware_poly_gelu,
        "ibert_gelu": gelu_mod.ibert_gelu,
        "shift_gelu": gelu_mod.shift_gelu,
    }[candidate]


def run_softmax_candidate(candidate: str, q: QTensor, cfg: sm_mod.BitExpConfig,
                          counter: OpCounter | None = None) -> QTensor:
    fn = {
        "efficient_bit_softmax": sm_mod.efficient_bit_softmax,
        "shiftmax": sm_mod.shiftmax,
        "iexp_softmax": sm_mod.iexp_softmax,
        "log2_softmax": sm_mod.log2_softmax,
    }[candidate]
    return fn(q, cfg, counter)


def run_gelu_candidate(candidate: str, q: QTensor, out_params: QParams,
                       counter: OpCounter | None = None) -> QTensor:
    if candidate == "data_aware_poly_gelu":
        return gelu_mod.data_aware_poly_gelu_int(q, out_params=out_params, counter=counter)
    if candidate == "ibert_gelu":
        return gelu_mod.ibert_gelu_int(q, out_params=out_params, counter=counter)
    if candidate == "shift_gelu":
        return gelu_mod.shift_gelu_int(q, out_params=out_params, counter=counter)
    raise KeyError(candidate)


def run_ln_candidate(candidate: str, q: QTensor, gamma, beta, out_params: QParams,
                     counter: OpCounter | None = None) -> QTensor:
    cfg = ln_mod.LNConfig(variant=candidate)
    return ln_mod.int_layernorm(q, gamma, beta, cfg, out_params=out_params,
                                counter=counter)


def _ln_weights(weights: dict, layer_id: str):
    return weights[f"{layer_id}.gamma"], weights[f"{layer_id}.beta"]


def _candidate_output(rec, candidate, x_in: np.ndarray, x_out: np.ndarray,
                      weights: dict, cfg: PipelineConfig,
                      counter: OpCounter | None = None) -> np.ndarray:
    """Quantize the captured input, run the integer candidate, dequantize."""
    if rec.kind == "softmax":
        params = dyadic_qparams_for_range(float(x_in.min()), float(x_in.max()),
                                          SCORES_CODE_BITS)
        out = run_softmax_candidate(candidate, quantize(x_in, params),
                                    cfg.bit_exp_config(), counter)
        return dequantize_np(out)
    obs_in = MinMaxObserver().observe(x_in)
    q = quantize(x_in, obs_in.qparams(cfg.act_bits))
    obs_out = MinMaxObserver().observe(x_out)
    out_params = obs_out.qparams(cfg.act_bits)
    if rec.kind == "gelu":
        out = run_gelu_candidate(candidate, q, out_params, counter)
    else:
        gamma, beta = _ln_weights(weights, rec.layer_id)
        if candidate == "log2_scale":
            out_params, _ = ln_mod.snap_pow2_out_params(out_params)
        out = run_ln_candidate(candidate, q, gamma, beta, out_params, counter)
    return dequantize_np(out)


def _per_sample_shape(rec, graph: ModelGraph) -> tuple[int, ...]:
    if rec.kind == "softmax":
        return (graph.heads, graph.tokens, graph.tokens)
    if rec.kind == "gelu":
        return (graph.tokens, graph.hidden_dim)
    return (graph.tokens, graph.embed_dim)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage1_analyze(graph: ModelGraph, weights: dict, calib: list,
                   cfg: PipelineConfig, jobs: int = 1) -> MetricTable:
    """Score every (layer, candidate) pair against the full-precision pass.

    Analysis is isolated: one layer is quantized at a time and compared at
    its own output (global-logit comparison sits behind stage1_mode). A
    candidate whose kernel overflows is recorded with score 0.
    """
    if not calib:
        raise ValueError("calibration set must be non-empty")
    capture: dict = {}
    ref_logits = [forward_float(graph, weights, b, capture) for b in calib]
    cat = {e: np.concatenate(v, axis=0) for e, v in capture.items()}

    tasks = [(rec, cand) for rec in graph.layers for cand in rec.candidates]

    def evaluate(task):
        rec, cand = task
        x_in = cat[nonlinear_input_edge(rec.layer_id)]
        x_out = cat[rec.layer_id]
        c_ops = op_count(cand, _per_sample_shape(rec, graph))
        try:
            if cfg.stage1_mode == "global":
                def swapped(arr, _rec=rec, _cand=cand):
                    return _candidate_output(_rec, _cand, arr, x_out, weights, cfg)
                got = np.concatenate(
                    [forward_float(graph, weights, b, swap=(rec.layer_id, swapped))
                     for b in calib], axis=0)
                ref = np.concatenate(ref_logits, axis=0)
            else:
                got = _candidate_output(rec, cand, x_in, x_out, weights, cfg)
                ref = x_out
            q_db = sqnr(ref, got, cfg.db_convention)
            p = perturbation(ref, got)
        except KernelOverflowError:
            return (rec.layer_id, rec.kind, cand,
                    MetricScore(q_db=-np.inf, p=np.inf, c=c_ops, score=0.0))
        return (rec.layer_id, rec.kind, cand,
                build_metric_score(q_db, p, c_ops))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(evaluate, tasks))
    else:
        rows = [evaluate(t) for t in tasks]

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
        ps = [ms.p for _, _, ms in entries if np.isfinite(ms.p)]
        cs = [ms.c for _, _, ms in entries]
        p_lo, p_hi = (min(ps), max(ps)) if ps else (0.0, 1.0)
        c_lo, c_hi = min(cs), max(cs)
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


def stage3_calibrate(graph: ModelGraph, weights: dict, plan: AssignmentPlan,
                     calib: list, cfg: PipelineConfig) -> AssignmentPlan:
    """One envelope pass over the calibration set; derives every activation
    edge's parameters. Weights stay symmetric per-channel and are re-derived
    deterministically at inference, so the plan needs only activations."""
    if not plan.assignments:
        raise ValueError("assignments must be complete before calibration")
    observers = {e: MinMaxObserver() for e in activation_edges(graph)}
    for batch in calib:
        capture: dict = {}
        forward_float(graph, weights, batch, capture)
        for edge, arrays in capture.items():
            for arr in arrays:
                observers[edge].observe(arr)

    qparams: dict[str, QParams] = {}
    recorded: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for edge, obs in observers.items():
            if edge.endswith(".attn.scores"):
                qparams[edge] = dyadic_qparams_for_range(
                    float(obs.running_min), float(obs.running_max), SCORES_CODE_BITS)
            elif edge.endswith(".softmax"):
                qparams[edge] = QParams(1.0 / (1 << (cfg.act_bits - 1)), 0,
                                        cfg.act_bits, "asymmetric")
            else:
                qparams[edge] = obs.qparams(cfg.act_bits)
    recorded.extend(str(w.message) for w in caught)

    # layers whose kernel snaps its own output scale must store the snapped
    # params, or downstream requantization would disagree with the kernel
    for lid, cand in plan.assignments.items():
        if cand == "log2_scale":
            qparams[lid], _ = ln_mod.snap_pow2_out_params(qparams[lid])

    plan.qparams = qparams
    plan.warnings = recorded
    return plan


def run_pipeline(cfg: PipelineConfig, calib_seed: int = 0,
                 jobs: int = 1) -> tuple[AssignmentPlan, MetricTable, ModelGraph, dict]:
    graph, weights = build_toy_vit(cfg.model_config(), seed=cfg.seed,
                                   pools=cfg.pools)
    calib = calibration_batches(cfg, calib_seed)
    table = stage1_analyze(graph, weights, calib, cfg, jobs=jobs)
    plan = stage2_assign(table, graph, cfg)
    plan = stage3_calibrate(graph, weights, plan, calib, cfg)
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
    z_out: int
    qmax: int


def _prepare_linear(w: np.ndarray, b: np.ndarray, p_in: QParams, p_out: QParams,
                    weight_bits: int) -> _LinearPlan:
    qw = requant_weight_per_channel(w, weight_bits)
    w_centered = qw.codes.astype(np.int64) - (1 << (weight_bits - 1))
    s_w = np.asarray(qw.params.scale, dtype=np.float64)
    s_in = float(p_in.scale)
    s_out = float(p_out.scale)
    corr = int(p_in.zero_point) * w_centered.sum(axis=1)
    bias_int = np.rint(np.asarray(b, dtype=np.float64) / (s_in * s_w)).astype(np.int64)
    mult = np.rint((1 << 16) * s_in * s_w / s_out).astype(np.int64)
    return _LinearPlan(w_centered, corr.astype(np.int64), bias_int, mult,
                       int(p_out.zero_point), p_out.qmax)


def _linear_int(km: KernelMath, codes: np.ndarray, lp: _LinearPlan) -> np.ndarray:
    acc = km.matmul(codes, lp.w_centered.T)
    acc = km.add(km.sub(acc, lp.corr), lp.bias_int)
    out = km.add(km.rshift_round(km.mul(acc, lp.mult), 16), lp.z_out)
    return km.clip(out, 0, lp.qmax)


def _requant_into(km: KernelMath, codes, p_from: QParams, p_to: QParams):
    m = int(round((1 << 16) * float(p_from.scale) / float(p_to.scale)))
    centered = km.sub(codes, int(p_from.zero_point))
    return km.rshift_round(km.mul(centered, m), 16)


def _add_requant(km: KernelMath, a, pa: QParams, b, pb: QParams, p_out: QParams):
    out = km.add(km.add(_requant_into(km, a, pa, p_out),
                        _requant_into(km, b, pb, p_out)), int(p_out.zero_point))
    return km.clip(out, 0, p_out.qmax)


def _matmul_corrected(km: KernelMath, a, za, b_t, zb):
    """(a - za) @ (b - zb)^T on raw codes with zero-point corrections."""
    hd = a.shape[-1]
    acc = km.matmul(a, b_t)
    if zb:
        acc = km.sub(acc, km.mul(km.sum(a, axis=-1, keepdims=True), zb))
    if za:
        sb = km.sum(b_t, axis=-2, keepdims=True)
        acc = km.sub(acc, km.mul(sb, za))
        if zb:
            acc = km.add(acc, za * zb * hd)
    return acc


class _Reads:
    """Mapping view that records every key read through it."""

    def __init__(self, source):
        self.source = source
        self.seen: dict = {}

    def __getitem__(self, key):
        val = self.seen[key] = self.source[key]
        return val


def _linear_layers(graph: ModelGraph):
    """(input edge, output edge, weight, bias) of every linear layer."""
    for i in range(graph.blocks):
        pre = f"block{i}"
        yield (f"{pre}.ln1", f"{pre}.attn.q", f"{pre}.attn.wq", f"{pre}.attn.bq")
        yield (f"{pre}.ln1", f"{pre}.attn.k", f"{pre}.attn.wk", f"{pre}.attn.bk")
        yield (f"{pre}.ln1", f"{pre}.attn.v", f"{pre}.attn.wv", f"{pre}.attn.bv")
        yield (f"{pre}.attn.ctx", f"{pre}.attn.proj", f"{pre}.attn.wo", f"{pre}.attn.bo")
        yield (f"{pre}.ln2", f"{pre}.mlp.fc1", f"{pre}.mlp.w1", f"{pre}.mlp.b1")
        yield (f"{pre}.gelu", f"{pre}.mlp.fc2", f"{pre}.mlp.w2", f"{pre}.mlp.b2")
    yield ("pool", "logits", "head.w", "head.b")


@dataclass(frozen=True)
class CompiledPlan:
    """Configuration-time state of :func:`integer_forward`.

    Holds the integer weight encodings, the quantized positional table and
    the dyadic requantization multipliers, together with the graph, config,
    weight arrays and activation parameters they were derived from. It is
    valid only while those are the very same objects; it is never
    serialized.
    """

    graph: ModelGraph
    config: PipelineConfig
    weights_read: tuple       # (name, array) pairs, checked by identity
    qparams_read: tuple       # (edge, QParams) pairs, checked by identity
    bexp: sm_mod.BitExpConfig
    pos_codes: np.ndarray
    p_pos: QParams
    linears: dict             # weight name -> _LinearPlan
    dyadic: dict              # output edge -> (mantissa, shift)

    def matches(self, graph: ModelGraph, weights: dict, plan: AssignmentPlan) -> bool:
        return (self.graph is graph and self.config is plan.config
                and all(weights.get(k) is v for k, v in self.weights_read)
                and all(plan.qparams.get(e) is p for e, p in self.qparams_read))


def compile_plan(graph: ModelGraph, weights: dict, plan: AssignmentPlan) -> CompiledPlan:
    """Derive everything integer inference needs that does not depend on
    the input, attach it to ``plan`` and return it."""
    if not plan.calibrated:
        raise ValueError("plan must be calibrated before inference")
    cfg = plan.config
    P, W = _Reads(plan.qparams), _Reads(weights)
    bexp = cfg.bit_exp_config()

    p_pos = MinMaxObserver().observe(W["pos"]).qparams(cfg.act_bits)
    pos_codes = np.asarray(quantize(W["pos"], p_pos).codes, dtype=np.int64)
    linears = {
        wname: _prepare_linear(W[wname], W[bname], P[e_in], P[e_out], cfg.weight_bits)
        for e_in, e_out, wname, bname in _linear_layers(graph)
    }
    dyadic = {}
    p_probs = sm_mod.softmax_out_params(bexp)
    for i in range(graph.blocks):
        pre = f"block{i}"
        pq, pk, pv = P[f"{pre}.attn.q"], P[f"{pre}.attn.k"], P[f"{pre}.attn.v"]
        dyadic[f"{pre}.attn.scores"] = encode_dyadic_multiplier(
            float(pq.scale) * float(pk.scale) / float(P[f"{pre}.attn.scores"].scale))
        dyadic[f"{pre}.attn.ctx"] = encode_dyadic_multiplier(
            float(p_probs.scale) * float(pv.scale) / float(P[f"{pre}.attn.ctx"].scale))
    h_edge = f"block{graph.blocks - 1}.res2"
    dyadic["pool"] = encode_dyadic_multiplier(
        float(P[h_edge].scale) / (graph.tokens * float(P["pool"].scale)))

    compiled = CompiledPlan(graph, cfg, tuple(W.seen.items()), tuple(P.seen.items()),
                            bexp, pos_codes, p_pos, linears, dyadic)
    plan.compiled = compiled
    return compiled


def integer_forward(graph: ModelGraph, weights: dict, plan: AssignmentPlan, x,
                    counter: OpCounter | None = None) -> tuple[Tensor, OpCounter]:
    """End-to-end integer inference under the calibrated plan.

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
    P = plan.qparams
    lin, dyadic, bexp = compiled.linears, compiled.dyadic, compiled.bexp

    xq = quantize(np.asarray(x, dtype=np.float64), P["input"])
    codes = km.asarray(xq.codes)
    squeeze = codes.ndim == 2
    if squeeze:
        codes = codes[None]
    if codes.shape[-2:] != (graph.tokens, graph.embed_dim):
        raise ValueError(
            f"input shape {codes.shape[-2:]} does not match model"
            f" ({graph.tokens}, {graph.embed_dim})"
        )

    def run_nonlinear(layer_id, codes_in, p_in):
        cand = plan.assignments[layer_id]
        qt = QTensor(codes_in, p_in)
        if plan.kinds[layer_id] == "softmax":
            return run_softmax_candidate(cand, qt, bexp, counter)
        if plan.kinds[layer_id] == "gelu":
            return run_gelu_candidate(cand, qt, P[layer_id], counter)
        gamma, beta = _ln_weights(weights, layer_id)
        return run_ln_candidate(cand, qt, gamma, beta, P[layer_id], counter)

    h = _add_requant(km, codes, P["input"], compiled.pos_codes, compiled.p_pos,
                     P["pos_add"])
    h = run_nonlinear("embed.ln", h, P["pos_add"]).codes
    h = km.asarray(h)
    h_edge = "embed.ln"

    for i in range(graph.blocks):
        pre = f"block{i}"
        a = run_nonlinear(f"{pre}.ln1", h, P[h_edge]).codes
        a = km.asarray(a)
        qc = _linear_int(km, a, lin[f"{pre}.attn.wq"])
        kc = _linear_int(km, a, lin[f"{pre}.attn.wk"])
        vc = _linear_int(km, a, lin[f"{pre}.attn.wv"])
        B, T, D = qc.shape
        H, hd = graph.heads, graph.head_dim
        qh = qc.reshape(B, T, H, hd).transpose(0, 2, 1, 3)
        kh = kc.reshape(B, T, H, hd).transpose(0, 2, 1, 3)
        vh = vc.reshape(B, T, H, hd).transpose(0, 2, 1, 3)

        pq, pk, pv = P[f"{pre}.attn.q"], P[f"{pre}.attn.k"], P[f"{pre}.attn.v"]
        acc = _matmul_corrected(km, qh, int(pq.zero_point),
                                kh.transpose(0, 1, 3, 2), int(pk.zero_point))
        ps = P[f"{pre}.attn.scores"]
        m, e = dyadic[f"{pre}.attn.scores"]
        scores = km.clip(km.add(km.rshift_round(km.mul(acc, m), e), int(ps.zero_point)),
                         0, ps.qmax)

        pc = km.asarray(run_nonlinear(f"{pre}.softmax", scores, ps).codes)
        accv = km.matmul(pc, vh)
        if int(pv.zero_point):
            accv = km.sub(accv, km.mul(km.sum(pc, axis=-1, keepdims=True),
                                       int(pv.zero_point)))
        pctx = P[f"{pre}.attn.ctx"]
        m, e = dyadic[f"{pre}.attn.ctx"]
        ctx = km.clip(km.add(km.rshift_round(km.mul(accv, m), e), int(pctx.zero_point)),
                      0, pctx.qmax)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(B, T, D)

        proj = _linear_int(km, ctx, lin[f"{pre}.attn.wo"])
        h = _add_requant(km, h, P[h_edge], proj, P[f"{pre}.attn.proj"], P[f"{pre}.res1"])
        mcodes = run_nonlinear(f"{pre}.ln2", h, P[f"{pre}.res1"]).codes
        mcodes = km.asarray(mcodes)
        f1 = _linear_int(km, mcodes, lin[f"{pre}.mlp.w1"])
        g = run_nonlinear(f"{pre}.gelu", f1, P[f"{pre}.mlp.fc1"]).codes
        g = km.asarray(g)
        f2 = _linear_int(km, g, lin[f"{pre}.mlp.w2"])
        h = _add_requant(km, h, P[f"{pre}.res1"], f2, P[f"{pre}.mlp.fc2"],
                         P[f"{pre}.res2"])
        h_edge = f"{pre}.res2"

    # mean pool over tokens, the 1/T division folded into the multiplier
    ph, ppool = P[h_edge], P["pool"]
    acc = km.sub(km.sum(h, axis=1, keepdims=False), graph.tokens * int(ph.zero_point))
    m, e = dyadic["pool"]
    pooled = km.clip(km.add(km.rshift_round(km.mul(acc, m), e), int(ppool.zero_point)),
                     0, ppool.qmax)
    logits_codes = _linear_int(km, pooled, lin["head.w"])
    out = dequantize_np(QTensor(logits_codes, P["logits"]))
    if squeeze:
        out = out[0]
    return Tensor(out, dtype="real32"), counter


# ---------------------------------------------------------------------------
# plan serialization
# ---------------------------------------------------------------------------

def _params_to_dict(edge: str, p: QParams) -> dict:
    return {
        "layer_id": edge,
        "scale": float(p.scale) if p.granularity == "per_tensor"
        else [float(s) for s in np.asarray(p.scale).reshape(-1)],
        "zero_point": int(p.zero_point) if p.granularity == "per_tensor"
        else [int(z) for z in np.asarray(p.zero_point).reshape(-1)],
        "bits": p.bits,
        "scheme": p.scheme,
        "granularity": p.granularity,
    }


def _params_from_dict(d: dict) -> QParams:
    scale = d["scale"] if isinstance(d["scale"], float) else np.asarray(d["scale"])
    zero = d["zero_point"] if isinstance(d["zero_point"], int) else np.asarray(d["zero_point"])
    axis = 0 if d["granularity"] == "per_channel" else None
    return QParams(scale, zero, d["bits"], d["scheme"], d["granularity"], axis)


def plan_to_dict(plan: AssignmentPlan) -> dict:
    return {
        "model_config": {
            **{k: getattr(plan.config, k) for k in (
                "blocks", "embed_dim", "heads", "tokens", "mlp_ratio", "classes",
                "weight_bits", "act_bits", "calib_batches", "calib_batch_size",
                "db_convention", "standardize", "stage1_mode", "taylor_degree",
                "seed")},
        },
        "assignments": [
            {
                "layer_id": lid,
                "kind": plan.kinds[lid],
                "candidate": plan.assignments[lid],
                "score": plan.scores[lid].score,
                "q_db": ("inf" if plan.scores[lid].q_db == np.inf
                         else ("-inf" if plan.scores[lid].q_db == -np.inf
                               else plan.scores[lid].q_db)),
                "p": ("inf" if plan.scores[lid].p == np.inf else plan.scores[lid].p),
                "c": plan.scores[lid].c,
            }
            for lid in plan.assignments
        ],
        "qparams": [_params_to_dict(e, p) for e, p in plan.qparams.items()],
        "omega": plan.omega,
        "warnings": list(plan.warnings),
    }


def plan_from_dict(raw: dict) -> AssignmentPlan:
    mc = dict(raw["model_config"])
    cfg = PipelineConfig(**mc)
    plan = AssignmentPlan(config=cfg)
    for entry in raw["assignments"]:
        lid = entry["layer_id"]
        plan.assignments[lid] = entry["candidate"]
        plan.kinds[lid] = entry["kind"]
        q_db = entry["q_db"]
        q_db = np.inf if q_db == "inf" else (-np.inf if q_db == "-inf" else float(q_db))
        p = np.inf if entry["p"] == "inf" else float(entry["p"])
        plan.scores[lid] = MetricScore(q_db, p, int(entry["c"]), float(entry["score"]))
    for pd in raw["qparams"]:
        plan.qparams[pd["layer_id"]] = _params_from_dict(pd)
    plan.omega = float(raw.get("omega", 0.0))
    plan.warnings = list(raw.get("warnings", []))
    return plan


def save_plan(plan: AssignmentPlan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2)
        fh.write("\n")


def load_plan(path) -> AssignmentPlan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh))
