"""Three-stage assignment pipeline over the toy transformer graph:

1. per-layer candidate analysis: min/max calibration of every activation
   edge, and each non-linear layer run with every candidate kernel in
   isolation against the full-precision forward pass, scoring sensitivity,
   perturbation and measured operation count;
2. per-layer argmax assignment on the unified score;
3. stage 1's calibration written into the plan, which makes it
   self-contained for integer-only inference; nothing is observed again.
"""

from __future__ import annotations

import json
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import gelu as gelu_mod
from . import layernorm as ln_mod
from . import softmax as sm_mod
# sqnr, perturbation and forward_float stay importable from here, where the
# benchmark's tracer rebinds them and tools/identity.py calls forward_float,
# although stage 1 scores through energy_scores over float_edges' pass
from .metric import (MetricScore, MetricTable, energy_scores, perturbation,  # noqa: F401
                     sample_energies, signal_power, sqnr, unified_score)
from .model import (CANDIDATE_POOLS, INPUT, MODEL_FIELDS, ModelGraph, Op,  # noqa: F401
                    batched, build_toy_vit, float_edges, forward_float, merge_heads,
                    model_dims, split_heads, walk)
from .quantize import (MinMaxObserver, QParams, QTensor, dequantize_np,
                       dyadic_qparams_for_range, encode_dyadic_multiplier,
                       quantize, requant_bound, requant_weight_per_channel, requantize)
from .tensor import (KernelMath, KernelOverflowError, OpCounter, StageBound, Tensor,
                     buffer_for, magnitude, rng_tensor)

SCORES_CODE_BITS = 16  # attention scores keep wide codes on a dyadic grid


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
    taylor_degree: int = 1
    seed: int = 0
    pools: dict | None = None

    def model_config(self) -> dict:
        return {k: getattr(self, k) for k in MODEL_FIELDS}


# config path -> (PipelineConfig integer field, its (min, max or None), or
# None where model_dims checks it), in plan JSON order
_CONFIG_FIELDS = {
    **{f"model.{name}": (name, None) for name in MODEL_FIELDS},
    "bits.weights": ("weight_bits", (2, 16)), "bits.activations": ("act_bits", (2, 16)),
    "calib.batches": ("calib_batches", (1, 1024)),
    "calib.batch_size": ("calib_batch_size", (1, 1024)),
    "taylor_degree": ("taylor_degree", (1, 2)), "seed": ("seed", (0, None)),
}
_SECTIONS = {path.split(".")[0] for path in _CONFIG_FIELDS if "." in path}
_FIELD_PATHS = {name: path for path, (name, _) in _CONFIG_FIELDS.items()}


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
        # an object under a key that is no field reads as a section, so
        # that an unknown field in it is named by its path
        if key in _SECTIONS or (key not in _CONFIG_FIELDS and isinstance(val, dict) and val):
            if not isinstance(val, dict):
                raise ConfigError(f"{key}: expected an object")
            items = [(f"{key}.{sub}", v) for sub, v in val.items()]
        else:
            items = [(key, val)]
        for path, v in items:
            if path not in _CONFIG_FIELDS:
                raise ConfigError(f"{path}: unknown field")
            if type(v) is not int:
                raise ConfigError(f"{path}: expected an integer")
            kwargs[_CONFIG_FIELDS[path][0]] = v
    cfg = PipelineConfig(**kwargs)
    check_config(cfg)
    return cfg


def check_config(cfg: PipelineConfig) -> None:
    """Refuse values that have the schema's types but cannot run; the
    ConfigError names the field."""
    try:
        model_dims(cfg.model_config())
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from exc
    for path, (name, allowed) in _CONFIG_FIELDS.items():
        val = getattr(cfg, name)
        if allowed and (val < allowed[0] or (allowed[1] is not None and val > allowed[1])):
            raise ConfigError(f"{path}: must be in [{allowed[0]}, {allowed[1] or 'inf'}],"
                              f" got {val}")
    try:
        # the softmax kernels' reciprocal needs M >= 2*bits + log2(tokens) + 2
        sm_mod._check_m(cfg.act_bits, cfg.tokens)
    except sm_mod.ConfigurationError as exc:
        raise ConfigError(f"bits.activations: {exc}") from exc
    for kind, cands in (cfg.pools or {}).items():
        known = CANDIDATE_POOLS.get(kind, ())
        if not isinstance(cands, tuple) or not cands or any(c not in known for c in cands):
            raise ConfigError(f"pools.{kind}: expected a non-empty list from"
                              f" {list(known) or CANDIDATE_POOLS}, got {cands!r}")
        if len(set(cands)) < len(cands):
            raise ConfigError(f"pools.{kind}: lists a candidate more than once: {list(cands)}")


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
    omega: float = 0.0
    warnings: list = field(default_factory=list)
    # integer_forward's configuration-time state; see compile_plan
    compiled: CompiledPlan | None = field(default=None, repr=False, compare=False)


def calibration_batches(cfg: PipelineConfig, calib_seed: int = 0) -> list[np.ndarray]:
    """Synthetic calibration set: unit-normal token activations."""
    return [
        rng_tensor(calib_seed * 7919 + i, [cfg.calib_batch_size, cfg.tokens, cfg.embed_dim],
                   "normal", 0.0, 1.0).values.astype(np.float64)
        for i in range(cfg.calib_batches)
    ]


# ---------------------------------------------------------------------------
# candidate runners (shared by stage 1 and integer inference): their codes
# are clipped onto [0, qmax], so they run the kernel bodies unchecked
# ---------------------------------------------------------------------------

_SOFTMAX_KERNELS = {
    "efficient_bit_softmax": sm_mod.efficient_bit_softmax.unchecked,
    "shiftmax": sm_mod.shiftmax.unchecked,
    "iexp_softmax": sm_mod.iexp_softmax.unchecked,
    "log2_softmax": sm_mod.log2_softmax.unchecked,
}


def run_softmax_candidate(candidate: str, q: QTensor, out_params: QParams,
                          counter: OpCounter | None = None,
                          taylor_degree: int = 1) -> QTensor:
    kernel = _SOFTMAX_KERNELS[candidate]
    if candidate == "efficient_bit_softmax":   # the one kernel with a Taylor degree
        return kernel(q, out_params, counter, taylor_degree)
    return kernel(q, out_params, counter)


_GELU_KERNELS = {
    "data_aware_poly_gelu": partial(gelu_mod.poly_gelu_int.unchecked,
                                    c=gelu_mod.QUARTIC_ERF_COEFFS),
    "ibert_gelu": partial(gelu_mod.poly_gelu_int.unchecked, c=gelu_mod.IBERT_ERF_COEFFS),
    "shift_gelu": gelu_mod.shift_gelu_int.unchecked,
}


def run_gelu_candidate(candidate: str, q: QTensor, out_params: QParams,
                       counter: OpCounter | None = None) -> QTensor:
    return _GELU_KERNELS[candidate](q, out_params=out_params, counter=counter)


def run_ln_candidate(candidate: str, q: QTensor, gamma, beta, out_params: QParams,
                     counter: OpCounter | None = None) -> QTensor:
    return ln_mod.int_layernorm.unchecked(q, gamma, beta, candidate, out_params, counter)


def _runner(op: Op, candidate: str, p_in: QParams, p_out: QParams, weights: dict,
            taylor_degree: int):
    """``candidate`` bound as the non-linear ``op``, for stage 1 and
    :func:`compile_plan` alike: ``run(counter, codes) -> QTensor``, the
    kernel on codes taken on ``p_in``, its output on ``p_out`` (for
    ``log2_scale``, on the grid its kernel snaps ``p_out`` to). A softmax
    input off the kernels' dyadic grid, or output off their own grid,
    raises a ValueError naming the layer. The ``run_*_candidate`` runner is
    looked up on every call, so that tests and tracing can rebind it."""
    if op.op == "softmax":
        try:
            sm_mod._dyadic_exponent(p_in)
            sm_mod._prob_bits(p_out)
        except sm_mod.ConfigurationError as exc:
            raise ValueError(f"{op.out}: {exc}") from exc
        return lambda counter, codes: run_softmax_candidate(
            candidate, QTensor(codes, p_in), p_out, counter, taylor_degree)
    if op.op == "gelu":
        return lambda counter, codes: run_gelu_candidate(
            candidate, QTensor(codes, p_in), p_out, counter)
    gamma, beta = (weights[k] for k in op.weights)
    return lambda counter, codes: run_ln_candidate(
        candidate, QTensor(codes, p_in), gamma, beta, p_out, counter)


# Stage 1 quantizes a layer's input, and runs a candidate over it, in slices
# of about this many elements along the sample axis; a slice of one
# candidate is one task of a --jobs worker. One 4x256x256 sample of
# attention scores is 2^18 codes (1 MiB of int32 input codes, 2 MiB per
# int64 stage), so a kernel's intermediates stay in a 4 MiB per-core L2
# instead of faulting in a fresh whole-set array (32 MB at 16 samples) on
# every op, and only one slice of them is alive per worker. Every kernel is
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


class _CandidateRun:
    """One candidate's score on a layer: the bound runner ``run`` (see
    :func:`_runner`) on the layer's input ``codes``, against its reference
    output ``ref``, from tasks ``part(i)``, one per slice of ``codes`` (see
    ``STAGE1_SLICE_ELEMENTS``), that may run in any order, on any thread.
    Each runs the candidate on its slice on its own OpCounter and writes
    the residual energy of each of the slice's samples
    (:func:`metric.sample_energies`, in slice-sized scratch) into the
    candidate's vector of one energy per sample. p is ``np.sum`` over that
    vector, as in :func:`metric.perturbation`, so it does not depend on the
    slicing or the thread order; c counts the slices up to the first that
    overflows, that one's partial count included, as a serial run that
    stops there."""

    def __init__(self, run, codes: np.ndarray, ref: np.ndarray):
        self.run, self.codes, self.ref = run, codes, ref
        self.parts = _slices(codes)
        self.ops = [0] * len(self.parts)
        self.overflow = len(self.parts)      # the first overflowed part
        self.energies = np.empty(len(ref))
        self.lock = threading.Lock()

    def part(self, i: int) -> None:
        if i < self.overflow:     # a part past an overflow cannot change the result
            counter, sl = OpCounter(), self.parts[i]
            try:
                got = dequantize_np(self.run(counter, self.codes[sl]))
            except KernelOverflowError:
                with self.lock:
                    self.overflow = min(self.overflow, i)
            else:
                self.energies[sl] = sample_energies(self.ref[sl], got)
            self.ops[i] = counter.total()

    def measured(self, power: float) -> MetricScore:
        """The candidate's (q_db, p, c) and unified score, ``power`` being
        the reference's signal power; one that overflowed scores 0."""
        c = round(sum(self.ops[:self.overflow + 1]) / len(self.ref))
        if self.overflow < len(self.parts):
            return MetricScore(-np.inf, np.inf, c, 0.0)
        q_db, p = energy_scores(float(np.sum(self.energies)), self.ref.size, power)
        return MetricScore(q_db, p, c, unified_score(q_db, p, c))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def capture_calibration(graph: ModelGraph, weights: dict, calib: list) -> dict:
    """Every edge of the full-precision pass over ``calib``, each joined
    along the sample axis: the pass of :func:`stage1_analyze` with every
    edge kept."""
    captured: dict = {}
    for _ in float_edges(graph, weights, calib, captured):
        pass
    return captured


def stage1_analyze(graph: ModelGraph, weights: dict, calib: list,
                   cfg: PipelineConfig, jobs: int = 1) -> MetricTable:
    """Score every (layer, candidate) pair against the full-precision pass.

    Analysis is isolated: one layer is quantized at a time, under the
    plan's parameters (:func:`calibrate_edges`), and compared at its own
    output. The cost c is the candidate's measured op count per calibration
    sample, from this same run. A candidate whose kernel overflows is
    recorded with score 0 and the ops it spent before the overflow. The
    table's ``calibration`` holds the parameters and warnings of every edge.

    One op-major float pass over ``calib`` (:func:`float_edges`) makes each
    edge whole, observes it as soon as it exists and drops it once no later
    op reads it. Each layer is scored as soon as its output exists: each of
    its candidates is bound once (:func:`_runner`, as inference binds it),
    its input is quantized once, into codes all its candidates share, its
    float input dropped if dead, and its reference power taken once; then
    its tasks (candidate, slice) run, ``jobs`` at a time (on this thread
    for a layer smaller than one slice), and finish before the pass goes on.
    """
    candidates = {rec.layer_id: rec.candidates for rec in graph.layers}
    ops = {op.out: op for op in graph.ops}
    table, env, qparams, warns = MetricTable(), {}, {}, []

    def score(op, dead):    # the layer's rows; its arrays go when this returns
        p_in = qparams[op.inputs[0]]
        runners = [_runner(op, cand, p_in, qparams[op.out], weights, cfg.taylor_degree)
                   for cand in candidates[op.out]]
        codes, ref = _input_codes(env[op.inputs[0]], p_in), env[op.out]
        for e in dead:      # before the power, whose square is a temporary
            env.pop(e)
        power = signal_power(ref)
        runs = [_CandidateRun(run, codes, ref) for run in runners]
        tasks = [partial(r.part, i) for r in runs for i in range(len(r.parts))]
        # below one slice, numpy holds the GIL for most of each call, so
        # workers would take turns and only add hand-offs
        if pool is None or codes.size < STAGE1_SLICE_ELEMENTS:
            for task in tasks:
                task()
        else:
            for future in [pool.submit(task) for task in tasks]:
                future.result()
        return [(op.out, op.op, cand, r.measured(power))
                for cand, r in zip(candidates[op.out], runs)]
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for edge, dead in float_edges(graph, weights, calib, env):
            edge_params, edge_warns = calibrate_edges(graph, {edge: env[edge]}, cfg)
            qparams.update(edge_params)
            warns += edge_warns
            if edge in candidates:
                table.entries += score(ops[edge], dead)
            for e in dead:
                env.pop(e, None)
    table.calibration = qparams, warns
    return table


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
    plan = AssignmentPlan(config=config or PipelineConfig())
    for lid in table.layer_ids():
        _, kind, cand, ms = min((e for e in table.entries if e[0] == lid),
                                key=lambda e: (-e[3].score, e[2]))
        plan.assignments[lid], plan.kinds[lid], plan.scores[lid] = cand, kind, ms
    plan.omega = float(sum(ms.score for ms in plan.scores.values()))
    return plan


def calibrate_edges(graph: ModelGraph, captured: dict,
                    cfg: PipelineConfig) -> tuple[dict, list]:
    """Per-tensor parameters of each activation edge in ``captured`` (edge
    -> whole-set array, e.g. :func:`capture_calibration`), in its order,
    from the edge's min/max envelope, and the warnings raised: a dyadic
    grid for attention scores, the kernels' grid for probabilities,
    asymmetric ``act_bits`` codes elsewhere. Warnings are recorded around
    the observation alone, since the filter they need is process-wide."""
    kinds = {op.out: op.op for op in graph.ops}
    qparams: dict[str, QParams] = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for edge, arr in captured.items():
            kind = kinds.get(edge)
            if kind == "softmax":     # a fixed grid: nothing to observe
                qparams[edge] = sm_mod.softmax_out_params(cfg.act_bits)
                continue
            obs = MinMaxObserver().observe(arr)
            if kind == "scores":
                qparams[edge] = dyadic_qparams_for_range(
                    float(obs.running_min), float(obs.running_max), SCORES_CODE_BITS)
            else:
                qparams[edge] = obs.qparams(cfg.act_bits)
    return qparams, [str(w.message) for w in caught]


def stage3_calibrate(plan: AssignmentPlan, calibration: tuple) -> AssignmentPlan:
    """Write stage 1's ``calibration`` (its table's: the parameters and
    warnings of every edge, from :func:`calibrate_edges`) into ``plan``,
    with each ``log2_scale`` layer's output snapped as its kernel snaps it.
    Weights are re-derived per channel at inference, so the plan needs only
    activations."""
    if not plan.assignments:
        raise ValueError("assignments must be complete before calibration")
    plan.qparams, plan.warnings = dict(calibration[0]), list(calibration[1])
    for lid, cand in plan.assignments.items():
        if cand == "log2_scale":
            plan.qparams[lid], _ = ln_mod.snap_pow2_out_params(plan.qparams[lid])
    return plan


def run_pipeline(cfg: PipelineConfig, calib_seed: int = 0,
                 jobs: int = 1) -> tuple[AssignmentPlan, MetricTable, ModelGraph, dict]:
    graph, weights = build_toy_vit(cfg.model_config(), seed=cfg.seed,
                                   pools=cfg.pools)
    calib = calibration_batches(cfg, calib_seed)
    # stage 1's float pass observes each edge once, for stage 1 and the plan alike
    table = stage1_analyze(graph, weights, calib, cfg, jobs=jobs)
    plan = stage2_assign(table, graph, cfg)
    plan = stage3_calibrate(plan, table.calibration)
    return plan, table, graph, weights


# ---------------------------------------------------------------------------
# integer-only inference
# ---------------------------------------------------------------------------

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


def _requant_mult(edge: str, p_from: QParams, p_to: QParams) -> int:
    """Multiplier m of :func:`_add_requant`, codes on ``p_to`` ~ (c - z) * m >> 16."""
    return int(round(_multiplier(edge, (1 << 16) * p_from.scale / p_to.scale, live=True)))


def _requant_into(km: KernelMath, codes, zero_point: int, m: int):
    out = km.sub(codes, zero_point)
    return km.rshift_round(km.mul(out, m, out=out), 16, out=out)


def _add_requant(km: KernelMath, a, term, zero_point: int, m: int, p_out: QParams):
    """a, with its zero point and :func:`_requant_mult`, requantized onto
    ``p_out`` and added to ``term``, the other input already requantized:
    the stage of ``add`` and ``pos_add``."""
    out = _requant_into(km, a, zero_point, m)
    km.add(out, term, out=out)
    return km.clip(km.add(out, p_out.zero_point, out=out), 0, p_out.qmax, out=out)


def _centered(km: KernelMath, codes, zero_point: int):
    """``codes`` less their zero point, as a GEMM operand; codes whose zero
    point is 0 are their own."""
    return km.sub(codes, zero_point) if zero_point else codes


@dataclass(frozen=True)
class CompiledPlan:
    """Configuration-time state of :func:`integer_forward`: one step per op
    of ``graph.ops`` (see :func:`_step`).

    It is valid only while the graph and the weight arrays it was derived
    from are the very same objects, and the plan's config, assignments and
    activation parameters equal the copies taken here; it is never
    serialized.
    """

    graph: ModelGraph
    config: PipelineConfig    # frozen, so it is its own copy
    assignments: dict         # copy of plan.assignments
    weights_read: tuple       # (name, array) pairs of the weights, checked by identity
    qparams_read: tuple       # (edge, QParams) pairs of the plan, checked by equality
    steps: tuple              # per op: fn(counter, *input codes) -> output codes

    def matches(self, graph: ModelGraph, weights: dict, plan: AssignmentPlan) -> bool:
        return (self.graph is graph and self.config == plan.config
                and self.assignments == plan.assignments
                and dict(self.qparams_read) == plan.qparams
                and all(weights.get(k) is v for k, v in self.weights_read))


def _step(op: Op, graph: ModelGraph, plan: AssignmentPlan, P: dict, W: dict):
    """``op``'s integer step, a closure ``step(counter, *input codes) ->
    output codes`` that charges the request's ``counter``.

    Every constant the step needs is derived here, from the parameters
    ``P`` and the weights ``W``, and so is the static bound of each of its
    stages, from which a call makes the stage's ``KernelMath``. A non-linear
    step is the layer's candidate in ``plan.assignments`` bound as stage 1
    binds it (:func:`_runner`).
    """
    out, ins, cfg = op.out, op.inputs, plan.config
    p_out = P[out]
    if op.op in CANDIDATE_POOLS:
        run = _runner(op, plan.assignments[out], P[ins[0]], p_out, W, cfg.taylor_degree)
        return lambda counter, x: run(counter, x).codes
    if op.op == "linear":
        # one stage: the product of the input codes and the centered weights,
        # plus the bias codes less z_in * each row's weight sum, so that the
        # sum is that of (codes - z_in) * weights, plus the bias
        p_in, bits = P[ins[0]], cfg.weight_bits
        codes, s_w = requant_weight_per_channel(W[op.weights[0]], bits)
        w_centered = codes.astype(np.int64) - (1 << (bits - 1))
        bias = np.rint(np.asarray(W[op.weights[1]], dtype=np.float64)
                       / (p_in.scale * s_w)).astype(np.int64)
        w_t, folded = w_centered.T, bias - p_in.zero_point * w_centered.sum(axis=1)
        # s_w shrinks as 2^-bits, so the shift grows past W8 to keep the
        # multipliers' precision; a row of zero weights scales nothing, so
        # its multiplier may round to 0
        shift = 16 + max(0, bits - 8)
        mult = np.rint(_multiplier(out, (1 << shift) * p_in.scale * s_w / p_out.scale,
                                   live=np.any(w_centered, axis=1))).astype(np.int64)
        k, w_max, b_max = w_t.shape[0], magnitude(w_centered), magnitude(bias)
        b = StageBound()
        b.add(b.matmul(k, p_in.qmax, w_max), magnitude(folded))
        acc = k * p_in.centered_max * w_max + b_max
        bound, mags = max(b.bound, requant_bound(acc, mult, shift, p_out)), (p_in.qmax, w_max)

        def linear(counter, x):
            km = KernelMath.within(counter, bound)
            acc = km.matmul(x, w_t, mags=mags)
            return requantize(km, km.add(acc, folded, out=acc), mult, shift, p_out)
        return linear
    if op.op in ("add", "pos_add"):
        # one stage: the first input requantized onto p_out, plus the other
        # input's term. pos_add's positional table is constant, so its term
        # is computed here once, on an uncharged counter, and a request
        # pays only for its own codes
        z, m = P[ins[0]].zero_point, _requant_mult(out, P[ins[0]], p_out)
        b = StageBound(p_out.qmax)
        if op.op == "add":
            zb, mb = P[ins[1]].zero_point, _requant_mult(out, P[ins[1]], p_out)
            term = b.rshift_round(b.mul(P[ins[1]].centered_max, mb), 16)  # _requant_into
        else:
            pos = W[op.weights[0]]
            p_pos = MinMaxObserver().observe(pos).qparams(cfg.act_bits)
            pos_term = _requant_into(KernelMath(), quantize(pos, p_pos).codes,
                                     p_pos.zero_point, _requant_mult(out, p_pos, p_out))
            term = magnitude(pos_term)
        b.add(b.add(b.rshift_round(b.mul(P[ins[0]].centered_max, m), 16), term), p_out.zero_point)
        bound = b.bound
        if op.op == "pos_add":
            return lambda counter, x: _add_requant(KernelMath.within(counter, bound), x,
                                                   pos_term, z, m, p_out)

        def add(counter, x, y):
            km = KernelMath.within(counter, bound)
            return _add_requant(km, x, _requant_into(km, y, zb, mb), z, m, p_out)
        return add
    H = graph.heads
    if op.op in ("scores", "ctx"):
        # two stages: the product of the centered codes (the probabilities'
        # zero point is 0), and its requantization
        pa, pb, scores = *(P[e] for e in ins), op.op == "scores"
        k = graph.embed_dim // H if scores else graph.tokens
        mags = pa.centered_max, pb.centered_max
        front = StageBound(*mags)
        front.matmul(k, *mags)
        dyadic = encode_dyadic_multiplier(_multiplier(out, pa.scale * pb.scale / p_out.scale))
        bounds = front.bound, requant_bound(k * mags[0] * mags[1], *dyadic, p_out)

        def product(counter, a, b):   # (q, k) or (probs, v)
            km, rq = (KernelMath.within(counter, bound) for bound in bounds)
            a, b = _centered(km, a, pa.zero_point), split_heads(_centered(km, b, pb.zero_point), H)
            if scores:
                a, b = split_heads(a, H), b.transpose(0, 1, 3, 2)
            acc = requantize(rq, km.matmul(a, b, mags=mags), *dyadic, p_out)
            return acc if scores else merge_heads(acc)
        return product
    if op.op == "pool":
        # mean pool over tokens, the 1/T division folded into the multiplier
        p_in, T = P[ins[0]], graph.tokens
        z_sum = T * p_in.zero_point
        dyadic = encode_dyadic_multiplier(_multiplier(out, p_in.scale / (T * p_out.scale)))
        bound = max(T * p_in.qmax + z_sum, requant_bound(T * p_in.centered_max, *dyadic, p_out))

        def pool(counter, h):
            km = KernelMath.within(counter, bound)
            acc = km.sum(h, axis=1, keepdims=False)
            acc = km.sub(acc, z_sum, out=buffer_for(km, acc))
            return requantize(km, acc, *dyadic, p_out)
        return pool
    raise ValueError(f"{out}: unknown op kind {op.op!r}")


def compile_plan(graph: ModelGraph, weights: dict, plan: AssignmentPlan) -> CompiledPlan:
    """Compile ``graph.ops`` into one integer step each (see :func:`_step`),
    attach the result to ``plan`` and return it.

    Raises ValueError naming the edge or layer when the plan does not fit
    ``graph``: an edge or layer with no entry, an entry for one the graph
    lacks, or a candidate outside the layer's pool. It does so too when the
    plan's parameters cannot run: a softmax input off the kernels' dyadic
    grid or a softmax output off their probability grid, a multiplier of
    2^62 or more, or an ``add``, ``pos_add`` or ``linear`` multiplier that
    rounds to 0 (except on a row of zero weights)."""
    if not plan.qparams:
        raise ValueError("plan must be calibrated before inference")
    edges, layers = graph.edges, {r.layer_id: r.candidates for r in graph.layers}
    missing = [e for e in edges if e not in plan.qparams]
    missing += [lid for lid in layers if lid not in plan.assignments]
    if missing:
        raise ValueError(f"no entries for {missing[:3]} of the plan's model")
    extra = [e for e in plan.qparams if e not in edges]
    extra += [lid for lid in plan.assignments if lid not in layers]
    if extra:
        raise ValueError(f"entries for {extra[:3]}, which the plan's model lacks")
    for lid, cands in layers.items():
        if plan.assignments[lid] not in cands:
            raise ValueError(f"{lid} is assigned {plan.assignments[lid]!r},"
                             f" not one of {list(cands)}")
    steps = tuple(_step(op, graph, plan, plan.qparams, weights) for op in graph.ops)
    compiled = CompiledPlan(graph, plan.config, dict(plan.assignments),
                            tuple(weights.items()), tuple(plan.qparams.items()), steps)
    plan.compiled = compiled
    return compiled


def integer_edges(compiled: CompiledPlan, counter: OpCounter, codes: np.ndarray, env: dict,
                  swap: tuple | None = None):
    """``model.walk`` over ``compiled.steps`` from the batched input
    ``codes``, each step charging ``counter``. swap = (layer_id, run) runs
    ``run``, a candidate bound by :func:`_runner` as :func:`_step` binds
    the plan's, in that layer's place."""
    env[INPUT] = codes
    return walk(compiled.graph, compiled.steps, env, counter,
                swap=swap and (swap[0], lambda counter, x: swap[1](counter, x).codes))


def integer_forward(graph: ModelGraph, weights: dict, plan: AssignmentPlan, x,
                    counter: OpCounter | None = None) -> tuple[Tensor, OpCounter]:
    """End-to-end integer inference under the calibrated plan: the
    :func:`integer_edges` walk over one batch, as ``model.forward_float``
    is ``model.float_edges``'.
    The input is quantized on the plan's ``input`` grid, each yield's dead
    edges are dropped, and the last edge, the logits, is dequantized.
    Between the two, floating point runs only in the two exact places the
    ``tensor`` module docstring names; the returned counter reports the
    totals and the float violations it saw (which must be zero), and
    cannot see the two raw-numpy stages named there.

    Configuration-time work (see :func:`compile_plan`) is done on the first
    call, is not charged to the counter, and is reused while
    :meth:`CompiledPlan.matches` holds. Threads may share a plan: a race to
    compile it only builds equal states twice.
    """
    compiled = plan.compiled
    if compiled is None or not compiled.matches(graph, weights, plan):
        compiled = compile_plan(graph, weights, plan)
    counter = counter if counter is not None else OpCounter()

    xq = quantize(np.asarray(x, dtype=np.float64), plan.qparams[INPUT])
    codes, squeeze = batched(graph, xq.codes)
    env: dict = {}
    for _, dead in integer_edges(compiled, counter, codes, env):
        for e in dead:
            del env[e]
    out = dequantize_np(QTensor(env[graph.ops[-1].out], plan.qparams[graph.ops[-1].out]))
    return Tensor(out[0] if squeeze else out, dtype="real32"), counter


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
        "model_config": {**{k: getattr(plan.config, k) for k in _FIELD_PATHS},
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
