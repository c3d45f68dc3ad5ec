"""Desk-scale transformer encoder used to exercise the assignment pipeline.

The graph is shaped like a standard pre-norm encoder: one leading LayerNorm
after the positional add, then per block LayerNorm -> attention -> residual,
LayerNorm -> MLP with GELU -> residual, mean pooling and a classifier head.
Every non-linear layer carries a stable identifier and a candidate pool.
The attention 1/sqrt(head_dim) factor is folded into the query projection at
build time so neither execution path divides at runtime.

The topology is written down once, as the ordered op list that
:func:`build_toy_vit` puts on :class:`ModelGraph`. :func:`forward_float`
interprets it in full precision; ``pipeline.integer_forward`` interprets the
same list over integer codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gelu import gelu_reference
from .layernorm import layernorm_reference
from .tensor import rng_tensor

INPUT = "input"  # the edge that carries the model input

CANDIDATE_POOLS = {
    "softmax": ("efficient_bit_softmax", "iexp_softmax", "log2_softmax", "shiftmax"),
    "gelu": ("data_aware_poly_gelu", "ibert_gelu", "shift_gelu"),
    "layernorm": ("bitshift_newton", "log2_scale", "poly_sqrt"),
}


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


# model config field -> (default, minimum)
MODEL_FIELDS = {"blocks": (2, 1), "embed_dim": (32, 1), "heads": (2, 1),
                "tokens": (8, 2), "mlp_ratio": (2, 1), "classes": (10, 1)}


def model_dims(config: dict) -> dict:
    """``config`` with defaults filled in; the ValueError for an invalid
    config starts with the offending field's name."""
    dims = {k: int(config.get(k, default)) for k, (default, _) in MODEL_FIELDS.items()}
    for k, (_, lo) in MODEL_FIELDS.items():
        if dims[k] < lo:
            raise ValueError(f"{k} must be >= {lo}, got {dims[k]}")
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

def _softmax(x):
    # one buffer, exponentiated and normalized in place
    e = np.subtract(x, x.max(axis=-1, keepdims=True))
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


# op kind -> fn(graph, *input arrays, *weight arrays)
_FLOAT_OPS = {
    "pos_add": lambda g, x, pos: x + pos,
    "layernorm": lambda g, x, gamma, beta: layernorm_reference(x, gamma, beta),
    "linear": lambda g, a, w, b: a @ w.T + b,
    "scores": lambda g, q, k: (split_heads(q, g.heads)
                               @ split_heads(k, g.heads).transpose(0, 1, 3, 2)),
    "softmax": lambda g, s: _softmax(s),
    "ctx": lambda g, p, v: merge_heads(p @ split_heads(v, g.heads)),
    "add": lambda g, a, b: a + b,
    "gelu": lambda g, x: gelu_reference(x),
    "pool": lambda g, h: h.mean(axis=1),
}


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


def forward_float(graph: ModelGraph, weights: dict, x, capture: dict | None = None,
                  swap: tuple | None = None) -> np.ndarray:
    """Full-precision forward pass: interprets ``graph.ops`` in order.

    capture, when given, collects every activation edge (appending one array
    per call). swap = (layer_id, fn) replaces that single non-linear layer
    with ``fn(input_array) -> output_array``, which is how isolated
    sensitivity analysis runs a quantized candidate inside the float graph.
    """
    x, squeeze = batched(graph, np.asarray(x, dtype=np.float64))
    env = {INPUT: x}
    if capture is not None:
        capture.setdefault(INPUT, []).append(x)
    for op, dead in zip(graph.ops, graph.dead_after):
        args = [env.pop(e) if e in dead else env[e] for e in op.inputs]
        if swap is not None and swap[0] == op.out:
            out = swap[1](*args)
        else:
            out = _FLOAT_OPS[op.op](graph, *args, *(weights[k] for k in op.weights))
        env[op.out] = out
        if capture is not None:
            capture.setdefault(op.out, []).append(out)
    return out[0] if squeeze else out


def batch_rows(graph: ModelGraph, batches: list) -> list[slice]:
    """Each batch's rows once ``batches`` are joined along the sample axis."""
    lens = [len(batched(graph, np.asarray(b))[0]) for b in batches]
    ends = np.cumsum(lens, dtype=int).tolist()
    return [slice(end - n, end) for n, end in zip(lens, ends)]


def float_edges(graph: ModelGraph, weights: dict, batches: list, env: dict):
    """The full-precision pass over ``batches``, op-major: each edge of
    ``graph.edges`` is made whole, joined along the sample axis, and put in
    ``env``, and then ``(edge, dead)`` is yielded, where ``dead`` are the
    edges that no later op reads, which the caller may drop from ``env``.

    Each op applies its float function to each batch's rows of its inputs,
    exactly as :func:`forward_float` applies it to that batch, so an edge
    equals the per-batch passes' arrays joined.
    """
    if not batches:
        raise ValueError("calibration set must be non-empty")
    xs = [batched(graph, np.asarray(b, dtype=np.float64))[0] for b in batches]
    rows = batch_rows(graph, xs)
    env[INPUT] = np.concatenate(xs)
    yield INPUT, ()
    for op, dead in zip(graph.ops, graph.dead_after):
        ws, out = [weights[k] for k in op.weights], None
        for sl in rows:
            y = _FLOAT_OPS[op.op](graph, *(env[e][sl] for e in op.inputs), *ws)
            if out is None:
                out = np.empty((rows[-1].stop, *y.shape[1:]), dtype=y.dtype)
            out[sl] = y
            del y
        env[op.out] = out
        yield op.out, dead
