"""Desk-scale transformer encoder used to exercise the assignment pipeline.

The graph is shaped like a standard pre-norm encoder: one leading LayerNorm
after the positional add, then per block LayerNorm -> attention -> residual,
LayerNorm -> MLP with GELU -> residual, mean pooling and a classifier head.
Every non-linear layer carries a stable identifier and a candidate pool.
The attention 1/sqrt(head_dim) factor is folded into the query projection at
build time so neither execution path divides at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .tensor import rng_tensor

CANDIDATE_POOLS = {
    "softmax": ("efficient_bit_softmax", "iexp_softmax", "log2_softmax", "shiftmax"),
    "gelu": ("data_aware_poly_gelu", "ibert_gelu", "shift_gelu"),
    "layernorm": ("bitshift_newton", "log2_scale", "poly_sqrt"),
}


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
    layers: tuple[LayerRecord, ...] = field(default_factory=tuple)

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def hidden_dim(self) -> int:
        return self.embed_dim * self.mlp_ratio

    def layer(self, layer_id: str) -> LayerRecord:
        for rec in self.layers:
            if rec.layer_id == layer_id:
                return rec
        raise KeyError(layer_id)


def nonlinear_layer_ids(blocks: int) -> list[tuple[str, str]]:
    """(layer_id, kind) inventory: 2 LayerNorms, 1 Softmax, 1 GELU per block
    plus the one LayerNorm ahead of the first block."""
    out = [("embed.ln", "layernorm")]
    for i in range(blocks):
        out += [
            (f"block{i}.ln1", "layernorm"),
            (f"block{i}.softmax", "softmax"),
            (f"block{i}.ln2", "layernorm"),
            (f"block{i}.gelu", "gelu"),
        ]
    return out


def build_toy_vit(config: dict, seed: int = 0,
                  pools: dict | None = None) -> tuple[ModelGraph, dict]:
    """Deterministic random-weight encoder; same seed, same weights.

    Projection weights are N(0, 0.02), biases zero, LayerNorm affine at the
    identity, positional table N(0, 0.02). Every array is read-only; to
    change a weight, put a new array into the dict.
    """
    blocks = int(config.get("blocks", 2))
    dim = int(config.get("embed_dim", 32))
    heads = int(config.get("heads", 2))
    tokens = int(config.get("tokens", 8))
    mlp_ratio = int(config.get("mlp_ratio", 2))
    classes = int(config.get("classes", 10))
    if blocks < 1 or dim < 1 or heads < 1 or tokens < 2 or mlp_ratio < 1:
        raise ValueError(f"invalid model config {config}")
    if dim % heads != 0:
        raise ValueError(f"heads ({heads}) must divide embed_dim ({dim})")

    pools = {**CANDIDATE_POOLS, **(pools or {})}
    layers = tuple(
        LayerRecord(lid, kind, tuple(pools[kind]))
        for lid, kind in nonlinear_layer_ids(blocks)
    )
    graph = ModelGraph(blocks, dim, heads, tokens, mlp_ratio, classes, layers)

    hidden = dim * mlp_ratio
    weights: dict[str, np.ndarray] = {}
    part = 0

    def draw(dims):
        nonlocal part
        part += 1
        return rng_tensor(seed * 100003 + part, dims, "normal", 0.0, 0.02).values.astype(np.float64)

    weights["pos"] = draw([tokens, dim])
    weights["embed.ln.gamma"] = np.ones(dim)
    weights["embed.ln.beta"] = np.zeros(dim)
    scale_q = 1.0 / np.sqrt(graph.head_dim)
    for i in range(blocks):
        pre = f"block{i}"
        weights[f"{pre}.ln1.gamma"] = np.ones(dim)
        weights[f"{pre}.ln1.beta"] = np.zeros(dim)
        weights[f"{pre}.attn.wq"] = draw([dim, dim]) * scale_q
        weights[f"{pre}.attn.bq"] = np.zeros(dim)
        weights[f"{pre}.attn.wk"] = draw([dim, dim])
        weights[f"{pre}.attn.bk"] = np.zeros(dim)
        weights[f"{pre}.attn.wv"] = draw([dim, dim])
        weights[f"{pre}.attn.bv"] = np.zeros(dim)
        weights[f"{pre}.attn.wo"] = draw([dim, dim])
        weights[f"{pre}.attn.bo"] = np.zeros(dim)
        weights[f"{pre}.ln2.gamma"] = np.ones(dim)
        weights[f"{pre}.ln2.beta"] = np.zeros(dim)
        weights[f"{pre}.mlp.w1"] = draw([hidden, dim])
        weights[f"{pre}.mlp.b1"] = np.zeros(hidden)
        weights[f"{pre}.mlp.w2"] = draw([dim, hidden])
        weights[f"{pre}.mlp.b2"] = np.zeros(dim)
    weights["head.w"] = draw([classes, dim])
    weights["head.b"] = np.zeros(classes)
    # read-only, so that an in-place edit fails instead of leaving integer
    # inference on encodings compiled from the old values
    for arr in weights.values():
        arr.setflags(write=False)
    return graph, weights


# ---------------------------------------------------------------------------
# reference float forward
# ---------------------------------------------------------------------------

def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _layernorm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-12) * gamma + beta


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def nonlinear_input_edge(layer_id: str) -> str:
    """Activation edge feeding each non-linear layer."""
    if layer_id == "embed.ln":
        return "pos_add"
    block, name = layer_id.split(".")
    i = int(block[5:])
    if name == "ln1":
        return "embed.ln" if i == 0 else f"block{i - 1}.res2"
    if name == "softmax":
        return f"block{i}.attn.scores"
    if name == "ln2":
        return f"block{i}.res1"
    if name == "gelu":
        return f"block{i}.mlp.fc1"
    raise KeyError(layer_id)


def activation_edges(graph: ModelGraph) -> list[str]:
    """All quantized activation edges, in forward order."""
    edges = ["input", "pos_add", "embed.ln"]
    for i in range(graph.blocks):
        pre = f"block{i}"
        edges += [
            f"{pre}.ln1",
            f"{pre}.attn.q", f"{pre}.attn.k", f"{pre}.attn.v",
            f"{pre}.attn.scores", f"{pre}.softmax",
            f"{pre}.attn.ctx", f"{pre}.attn.proj", f"{pre}.res1",
            f"{pre}.ln2", f"{pre}.mlp.fc1", f"{pre}.gelu",
            f"{pre}.mlp.fc2", f"{pre}.res2",
        ]
    edges += ["pool", "logits"]
    return edges


def forward_float(graph: ModelGraph, weights: dict, x, capture: dict | None = None,
                  swap: tuple | None = None) -> np.ndarray:
    """Full-precision forward pass.

    capture, when given, collects every activation edge (appending one array
    per call). swap = (layer_id, fn) replaces that single non-linear layer
    with ``fn(input_array) -> output_array``, which is how isolated
    sensitivity analysis runs a quantized candidate inside the float graph.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.shape[-2:] != (graph.tokens, graph.embed_dim):
        raise ValueError(
            f"input shape {x.shape[-2:]} does not match model"
            f" ({graph.tokens}, {graph.embed_dim})"
        )

    def grab(edge, arr):
        if capture is not None:
            capture.setdefault(edge, []).append(arr)
        return arr

    def nonlinear(layer_id, fn, arr):
        if swap is not None and swap[0] == layer_id:
            return swap[1](arr)
        return fn(arr)

    w = weights
    grab("input", x)
    h = grab("pos_add", x + w["pos"])
    h = grab("embed.ln", nonlinear(
        "embed.ln", lambda a: _layernorm(a, w["embed.ln.gamma"], w["embed.ln.beta"]), h))
    for i in range(graph.blocks):
        pre = f"block{i}"
        a = grab(f"{pre}.ln1", nonlinear(
            f"{pre}.ln1", lambda v: _layernorm(v, w[f"{pre}.ln1.gamma"], w[f"{pre}.ln1.beta"]), h))
        q = grab(f"{pre}.attn.q", a @ w[f"{pre}.attn.wq"].T + w[f"{pre}.attn.bq"])
        k = grab(f"{pre}.attn.k", a @ w[f"{pre}.attn.wk"].T + w[f"{pre}.attn.bk"])
        v = grab(f"{pre}.attn.v", a @ w[f"{pre}.attn.wv"].T + w[f"{pre}.attn.bv"])
        qh, kh, vh = (_split_heads(t, graph.heads) for t in (q, k, v))
        scores = grab(f"{pre}.attn.scores", qh @ kh.transpose(0, 1, 3, 2))
        probs = grab(f"{pre}.softmax", nonlinear(f"{pre}.softmax", _softmax, scores))
        ctx = grab(f"{pre}.attn.ctx", _merge_heads(probs @ vh))
        proj = grab(f"{pre}.attn.proj", ctx @ w[f"{pre}.attn.wo"].T + w[f"{pre}.attn.bo"])
        h = grab(f"{pre}.res1", h + proj)
        m = grab(f"{pre}.ln2", nonlinear(
            f"{pre}.ln2", lambda v2: _layernorm(v2, w[f"{pre}.ln2.gamma"], w[f"{pre}.ln2.beta"]), h))
        f1 = grab(f"{pre}.mlp.fc1", m @ w[f"{pre}.mlp.w1"].T + w[f"{pre}.mlp.b1"])
        g = grab(f"{pre}.gelu", nonlinear(f"{pre}.gelu", _gelu, f1))
        f2 = grab(f"{pre}.mlp.fc2", g @ w[f"{pre}.mlp.w2"].T + w[f"{pre}.mlp.b2"])
        h = grab(f"{pre}.res2", h + f2)
    pooled = grab("pool", h.mean(axis=1))
    logits = grab("logits", pooled @ w["head.w"].T + w["head.b"])
    return logits[0] if squeeze else logits
