"""Desk-scale transformer encoder used to exercise the assignment pipeline.

The graph is shaped like a standard pre-norm encoder: one leading LayerNorm
after the positional add, then per block LayerNorm -> attention -> residual,
LayerNorm -> MLP with GELU -> residual, mean pooling and a classifier head.
Every non-linear layer carries a stable identifier and a pool from ``CANDIDATES``.
The attention 1/sqrt(head_dim) factor is folded into the query projection at
build time so neither execution path divides at runtime.

The topology is written down once, as the ordered op list that
:func:`build_toy_vit` puts on :class:`ModelGraph`, and walked by one loop,
:func:`walk`: :func:`float_edges` in full precision, op-major over a list of
batches (:func:`forward_float` over one), and ``pipeline.integer_edges``
over integer codes (``pipeline.integer_forward`` over one batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .gelu import (IBERT_ERF_COEFFS, QUARTIC_ERF_COEFFS, gelu_reference, poly_gelu_int,
                   shift_gelu_int)
from .layernorm import LN_VARIANTS, int_layernorm, layernorm_reference
from .softmax import efficient_bit_softmax, iexp_softmax, log2_softmax, shiftmax
from .tensor import rng_tensor

INPUT = "input"  # the edge that carries the model input


class Candidate(NamedTuple):
    """A kernel a layer may run, as ``kernel(q, out_params=, counter=,
    **params(op, weights, cfg))``; unchecked, since its codes are clipped."""

    kind: str   # the op kind it stands for
    kernel: Callable
    params: Callable = lambda op, weights, cfg: {}   # its keywords for one layer


# every candidate kernel by name; each kind's default pool is read from it
CANDIDATES = {
    "efficient_bit_softmax": Candidate("softmax", efficient_bit_softmax.unchecked,
                                       lambda op, w, cfg: {"taylor_degree": cfg.taylor_degree}),
    "iexp_softmax": Candidate("softmax", iexp_softmax.unchecked),
    "log2_softmax": Candidate("softmax", log2_softmax.unchecked),
    "shiftmax": Candidate("softmax", shiftmax.unchecked),
    "data_aware_poly_gelu": Candidate("gelu", poly_gelu_int.unchecked,
                                      lambda op, w, cfg: {"c": QUARTIC_ERF_COEFFS}),
    "ibert_gelu": Candidate("gelu", poly_gelu_int.unchecked,
                            lambda op, w, cfg: {"c": IBERT_ERF_COEFFS}),
    "shift_gelu": Candidate("gelu", shift_gelu_int.unchecked),
    **{v: Candidate("layernorm", int_layernorm.unchecked, lambda op, w, cfg, v=v: {
        "gamma": w[op.weights[0]], "beta": w[op.weights[1]], "variant": v}) for v in LN_VARIANTS},
}

# op kind -> its candidates' names, sorted: the default pool of each layer
CANDIDATE_POOLS = {kind: tuple(sorted(n for n, c in CANDIDATES.items() if c.kind == kind))
                   for kind in dict.fromkeys(c.kind for c in CANDIDATES.values())}


class Op(NamedTuple):
    """One step of the forward pass: ``out = op(*inputs, *weights)``.

    ``out`` names both the op and the activation edge it writes. Op kinds:
    ``pos_add``, ``layernorm``, ``linear`` (``a @ w.T + b``), ``scores``
    (per-head ``q @ k.T``), ``softmax``, ``ctx`` (per-head ``probs @ v``,
    heads merged), ``add``, ``gelu`` and ``pool`` (mean over tokens).
    """

    out: str
    op: str
    inputs: tuple[str, ...]
    weights: tuple[str, ...] = ()


@dataclass(frozen=True)
class LayerRecord:
    layer_id: str
    kind: str  # "layernorm" | "softmax" | "gelu"
    candidates: tuple[str, ...]


@dataclass(frozen=True)
class ModelGraph:
    blocks: int
    embed_dim: int
    heads: int
    tokens: int
    mlp_ratio: int
    classes: int = 10
    layers: tuple[LayerRecord, ...] = field(default_factory=tuple)  # non-linear ops
    ops: tuple[Op, ...] = field(default_factory=tuple)               # forward order

    @property
    def edges(self) -> tuple[str, ...]:
        """Every activation edge, in forward order."""
        return (INPUT, *(op.out for op in self.ops))

    @cached_property
    def dead_after(self) -> tuple[tuple[str, ...], ...]:
        """Per op, its inputs that no later op reads; interpreters drop them."""
        later, dead = set(), []
        for op in reversed(self.ops):
            dead.append(tuple(e for e in op.inputs if e not in later))
            later.update(op.inputs)
        return tuple(reversed(dead))

    @cached_property
    def in_place(self) -> dict[str, str]:
        """Op -> the input edge the float pass writes its output over: each
        softmax's scores, which no later op reads."""
        return {op.out: op.inputs[0] for op, dead in zip(self.ops, self.dead_after)
                if op.op == "softmax" and op.inputs[0] in dead}


# model config field -> (default, minimum, maximum); the maxima admit a
# ViT-S/16-sized encoder (12 blocks, 384-d, 6 heads, 197 tokens) and refuse
# a dimension no array could hold before anything is allocated
MODEL_FIELDS = {"blocks": (2, 1, 24), "embed_dim": (32, 1, 768), "heads": (2, 1, 16),
                "tokens": (8, 2, 1024), "mlp_ratio": (2, 1, 4), "classes": (10, 1, 1000)}


def model_dims(config: dict) -> dict:
    """``config`` with defaults filled in; the ValueError for an invalid
    config starts with the offending field's name."""
    dims = {k: int(config.get(k, default)) for k, (default, _, _) in MODEL_FIELDS.items()}
    for k, (_, lo, hi) in MODEL_FIELDS.items():
        if not lo <= dims[k] <= hi:
            raise ValueError(f"{k} must be in [{lo}, {hi}], got {dims[k]}")
    if dims["embed_dim"] % dims["heads"]:
        raise ValueError(f"heads ({dims['heads']}) must divide embed_dim"
                         f" ({dims['embed_dim']})")
    return dims


def build_toy_vit(config: dict, seed: int = 0,
                  pools: dict | None = None) -> tuple[ModelGraph, dict]:
    """Deterministic random-weight encoder; same seed, same weights.

    Projection weights are N(0, 0.02), biases zero, LayerNorm affine at the
    identity, positional table N(0, 0.02). Every array is read-only; to
    change a weight, put a new array into the dict.
    """
    d = model_dims(config)
    dim, tokens, hidden = d["embed_dim"], d["tokens"], d["embed_dim"] * d["mlp_ratio"]
    ops: list[Op] = []
    weights: dict[str, np.ndarray] = {}
    part = 0

    def draw(dims):
        nonlocal part
        part += 1
        return rng_tensor(seed * 100003 + part, dims, "normal", 0.0, 0.02).values.astype(np.float64)

    # weights are created as their op is appended, so the draw order is the
    # forward order
    def op(out, kind, inputs, params=None):
        weights.update(params or {})
        ops.append(Op(out, kind, tuple(inputs), tuple(params or ())))
        return out

    def layernorm(out, x):
        return op(out, "layernorm", [x], {f"{out}.gamma": np.ones(dim),
                                          f"{out}.beta": np.zeros(dim)})

    def linear(out, x, w_key, b_key, w):
        return op(out, "linear", [x], {w_key: w, b_key: np.zeros(w.shape[0])})

    scale_q = 1.0 / np.sqrt(dim // d["heads"])
    h = op("pos_add", "pos_add", [INPUT], {"pos": draw([tokens, dim])})
    h = layernorm("embed.ln", h)
    for i in range(d["blocks"]):
        pre = f"block{i}"
        a = layernorm(f"{pre}.ln1", h)
        q = linear(f"{pre}.attn.q", a, f"{pre}.attn.wq", f"{pre}.attn.bq",
                   draw([dim, dim]) * scale_q)
        k = linear(f"{pre}.attn.k", a, f"{pre}.attn.wk", f"{pre}.attn.bk", draw([dim, dim]))
        v = linear(f"{pre}.attn.v", a, f"{pre}.attn.wv", f"{pre}.attn.bv", draw([dim, dim]))
        s = op(f"{pre}.attn.scores", "scores", [q, k])
        p = op(f"{pre}.softmax", "softmax", [s])
        c = op(f"{pre}.attn.ctx", "ctx", [p, v])
        proj = linear(f"{pre}.attn.proj", c, f"{pre}.attn.wo", f"{pre}.attn.bo",
                      draw([dim, dim]))
        h = op(f"{pre}.res1", "add", [h, proj])
        m = layernorm(f"{pre}.ln2", h)
        f1 = linear(f"{pre}.mlp.fc1", m, f"{pre}.mlp.w1", f"{pre}.mlp.b1",
                    draw([hidden, dim]))
        g = op(f"{pre}.gelu", "gelu", [f1])
        f2 = linear(f"{pre}.mlp.fc2", g, f"{pre}.mlp.w2", f"{pre}.mlp.b2",
                    draw([dim, hidden]))
        h = op(f"{pre}.res2", "add", [h, f2])
    pooled = op("pool", "pool", [h])
    linear("logits", pooled, "head.w", "head.b", draw([d["classes"], dim]))
    # read-only, so that an in-place edit fails instead of leaving integer
    # inference on encodings compiled from the old values
    for arr in weights.values():
        arr.setflags(write=False)

    pools = {**CANDIDATE_POOLS, **(pools or {})}
    layers = tuple(LayerRecord(o.out, o.op, tuple(pools[o.op]))
                   for o in ops if o.op in CANDIDATE_POOLS)
    graph = ModelGraph(d["blocks"], dim, d["heads"], tokens, d["mlp_ratio"],
                       d["classes"], layers, tuple(ops))
    return graph, weights


# ---------------------------------------------------------------------------
# reference float forward
# ---------------------------------------------------------------------------

def _softmax(x, out=None):
    # one buffer, out (which may be x) or a new one, exponentiated and
    # normalized in place
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def split_heads(x, heads):
    """(batch, tokens, dim) -> (batch, heads, tokens, dim // heads)."""
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    """Inverse of :func:`split_heads`."""
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _linear(g, a, w, b, out=None):
    out = np.matmul(a, w.T, out=out)
    out += b
    return out


def _ctx(g, p, v, out=None):
    y = p @ split_heads(v, g.heads)
    if out is None:
        return merge_heads(y)
    split_heads(out, g.heads)[...] = y
    return out


# op kind -> fn(graph, *input arrays, *weight arrays, out=None), which
# writes into out, passed last, where it is given: float_edges' rows of the
# joined edge, or for softmax its input
_FLOAT_OPS = {
    "pos_add": lambda g, x, pos, out=None: np.add(x, pos, out=out),
    "layernorm": lambda g, x, gamma, beta, out=None: layernorm_reference(x, gamma, beta,
                                                                         out=out),
    "linear": _linear,
    "scores": lambda g, q, k, out=None: np.matmul(
        split_heads(q, g.heads), split_heads(k, g.heads).transpose(0, 1, 3, 2), out=out),
    "softmax": lambda g, s, out=None: _softmax(s, out),
    "ctx": _ctx,
    "add": lambda g, a, b, out=None: np.add(a, b, out=out),
    "gelu": lambda g, x, out=None: gelu_reference(x, out=out),
    "pool": lambda g, h, out=None: h.mean(axis=1, out=out),
}


def _joined_shape(graph: ModelGraph, op: Op, ins: list, ws: list) -> tuple:
    """Shape of ``op``'s output edge over the joined inputs ``ins``."""
    n = len(ins[0])
    if op.op == "scores":
        return n, graph.heads, graph.tokens, graph.tokens
    if op.op == "ctx":
        return n, graph.tokens, graph.embed_dim
    if op.op == "pool":
        return n, graph.embed_dim
    if op.op == "linear":
        return *ins[0].shape[:-1], len(ws[0])
    return ins[0].shape


def batched(graph: ModelGraph, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``x`` with a leading batch axis, and whether one was added; the
    trailing axes must be (tokens, embed_dim)."""
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.shape[-2:] != (graph.tokens, graph.embed_dim):
        raise ValueError(
            f"input shape {x.shape[-2:]} does not match model"
            f" ({graph.tokens}, {graph.embed_dim})"
        )
    return x, squeeze


def walk(graph: ModelGraph, fns, env: dict, *lead, swap: tuple | None = None):
    """The op loop of both interpreters: from the input edge in ``env``, puts
    each op's edge there, ``fn(*lead, *inputs)`` of its callable in ``fns``
    or of swap = (layer_id, fn) at that layer, and yields ``(edge, dead)``
    for each, ``dead`` the edges no later op reads; it holds no edge itself."""
    if swap is not None:
        if swap[0] not in {rec.layer_id for rec in graph.layers}:
            raise ValueError(f"swap: {swap[0]!r} is not a non-linear layer")
        fns = [swap[1] if op.out == swap[0] else fn for op, fn in zip(graph.ops, fns)]
    yield INPUT, ()
    for op, dead, fn in zip(graph.ops, graph.dead_after, fns):
        env[op.out] = fn(*lead, *[env[e] for e in op.inputs])
        yield op.out, dead


def forward_float(graph: ModelGraph, weights: dict, x) -> np.ndarray:
    """Full-precision forward pass of one batch, or of one unbatched
    sample: :func:`float_edges` over ``[x]``, whose last edge it returns."""
    x, squeeze = batched(graph, np.asarray(x, dtype=np.float64))
    env: dict = {}
    for _, dead in float_edges(graph, weights, [x], env):
        for e in dead:
            del env[e]
    out = env[graph.ops[-1].out]
    return out[0] if squeeze else out


def batch_rows(graph: ModelGraph, batches: list) -> list[slice]:
    """Each batch's rows once ``batches`` are joined along the sample axis."""
    lens = [len(batched(graph, np.asarray(b))[0]) for b in batches]
    ends = np.cumsum(lens, dtype=int).tolist()
    return [slice(end - n, end) for n, end in zip(lens, ends)]


def float_edges(graph: ModelGraph, weights: dict, batches: list, env: dict, map=map):
    """The full-precision :func:`walk` over ``batches``: each op applies its
    float function to each batch's rows, so an edge is the one-batch
    passes' arrays joined (over one batch, the batch is the ``input`` edge
    and each op's output its edge). Over several batches, an op's per-batch
    calls run as ``map(fn, *columns)``, one column per input and one for
    the output, each holding every batch's rows (views); each call writes
    its own rows of the output, and every call ends before the edge is
    yielded. ``map`` is the builtin by default; a pool's map runs them side
    by side, with the same values, as no two calls share rows. An op in
    ``graph.in_place`` (a softmax) writes its output over its input edge,
    batch by batch, so an attention map is held once: an edge's array keeps
    its values until the op that kills it (``graph.dead_after``) runs, and
    a caller that keeps an edge past that op copies it first. It takes no
    swap: the walk that runs one layer on another candidate is
    ``pipeline.integer_edges``."""
    if not batches:
        raise ValueError("calibration set must be non-empty")
    xs = [batched(graph, np.asarray(b, dtype=np.float64))[0] for b in batches]
    rows = batch_rows(graph, xs)

    def per_batch(op):   # the op on each batch's rows, written into its rows of the edge
        fn, ws = partial(_FLOAT_OPS[op.op], graph), [weights[k] for k in op.weights]

        def one(*args):   # one batch's inputs, then its rows of the output
            return fn(*args[:-1], *ws, args[-1])

        def run(*ins):
            if op.out in graph.in_place:   # into the input edge, which no later op reads
                out = ins[0]
            elif len(rows) == 1:
                return fn(*ins, *ws)
            else:
                out = np.empty(_joined_shape(graph, op, ins, ws))
            for _ in map(one, *([x[sl] for sl in rows] for x in (*ins, out))):
                pass
            return out
        return run
    fns = [per_batch(op) for op in graph.ops]
    env[INPUT] = xs[0] if len(xs) == 1 else np.concatenate(xs)  # env alone holds a join
    yield from walk(graph, fns, env)
