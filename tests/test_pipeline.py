import copy
import dataclasses
import json
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intquant.metric import (INF_DB, MetricScore, MetricTable, perturbation, sqnr,
                             unified_score)
from intquant.model import CANDIDATE_POOLS, INPUT, build_toy_vit, forward_float
import intquant.pipeline as pl
from intquant.pipeline import (STAGE1_MODES, AssignmentPlan, ConfigError,
                               IncompleteTableError, PipelineConfig,
                               PlanFormatError,
                               calibration_batches, capture_calibration,
                               compile_plan, config_from_dict, integer_forward,
                               load_plan, plan_from_dict, plan_to_dict, run_pipeline,
                               save_plan, stage1_analyze, stage2_assign,
                               stage3_calibrate)
from intquant import layernorm as ln_mod
from intquant import model as model_mod
from intquant import softmax as sm_mod
from intquant.quantize import (MinMaxObserver, QParams, QTensor, dequantize_np,
                               qparams_from_range, quantize)
from intquant.tensor import KernelOverflowError, OpCounter, rng_tensor


def small_cfg(**kw):
    base = dict(blocks=2, embed_dim=32, heads=2, tokens=8, mlp_ratio=2,
                calib_batches=2, calib_batch_size=4)
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def pipeline_result():
    cfg = small_cfg()
    return run_pipeline(cfg), cfg


class TestGraphConstruction:
    def test_vit_b_shape_has_49_nonlinear_layers(self):
        graph, _ = build_toy_vit({"blocks": 12, "embed_dim": 48, "heads": 4,
                                  "tokens": 8, "mlp_ratio": 2})
        assert len(graph.layers) == 49
        kinds = [rec.kind for rec in graph.layers]
        assert kinds.count("layernorm") == 25
        assert kinds.count("softmax") == 12
        assert kinds.count("gelu") == 12

    def test_two_block_inventory(self):
        graph, _ = build_toy_vit({"blocks": 2})
        assert [(r.layer_id, r.kind) for r in graph.layers] == [
            ("embed.ln", "layernorm"),
            ("block0.ln1", "layernorm"), ("block0.softmax", "softmax"),
            ("block0.ln2", "layernorm"), ("block0.gelu", "gelu"),
            ("block1.ln1", "layernorm"), ("block1.softmax", "softmax"),
            ("block1.ln2", "layernorm"), ("block1.gelu", "gelu"),
        ]

    def test_edge_order(self):
        # plan JSON lists qparams in this order
        graph, _ = build_toy_vit({"blocks": 1})
        assert graph.edges == (
            "input", "pos_add", "embed.ln", "block0.ln1", "block0.attn.q",
            "block0.attn.k", "block0.attn.v", "block0.attn.scores",
            "block0.softmax", "block0.attn.ctx", "block0.attn.proj",
            "block0.res1", "block0.ln2", "block0.mlp.fc1", "block0.gelu",
            "block0.mlp.fc2", "block0.res2", "pool", "logits")

    def test_ops_read_only_earlier_edges_and_known_weights(self):
        graph, weights = build_toy_vit({"blocks": 2})
        seen = {INPUT}
        for op in graph.ops:
            assert set(op.inputs) <= seen, op
            assert all(k in weights for k in op.weights), op
            seen.add(op.out)
        assert {k for op in graph.ops for k in op.weights} == set(weights)
        assert [r.layer_id for r in graph.layers] == [
            op.out for op in graph.ops if op.op in CANDIDATE_POOLS]

    def test_same_seed_identical_weights(self):
        cfg = {"blocks": 1, "embed_dim": 16, "heads": 2, "tokens": 4, "mlp_ratio": 2}
        _, w1 = build_toy_vit(cfg, seed=3)
        _, w2 = build_toy_vit(cfg, seed=3)
        assert all(np.array_equal(w1[k], w2[k]) for k in w1)

    def test_different_seed_differs(self):
        cfg = {"blocks": 1, "embed_dim": 16, "heads": 2, "tokens": 4, "mlp_ratio": 2}
        _, w1 = build_toy_vit(cfg, seed=3)
        _, w2 = build_toy_vit(cfg, seed=4)
        assert not np.array_equal(w1["pos"], w2["pos"])

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError, match="divide"):
            build_toy_vit({"blocks": 1, "embed_dim": 30, "heads": 4,
                           "tokens": 4, "mlp_ratio": 2})

    def test_candidate_pools_match_kind(self):
        graph, _ = build_toy_vit({"blocks": 1, "embed_dim": 16, "heads": 2,
                                  "tokens": 4, "mlp_ratio": 2})
        for rec in graph.layers:
            assert rec.candidates == CANDIDATE_POOLS[rec.kind]

    def test_forward_captures_every_edge(self):
        graph, weights = build_toy_vit({"blocks": 2, "embed_dim": 16, "heads": 2,
                                        "tokens": 4, "mlp_ratio": 2})
        cap = {}
        x = rng_tensor(0, [4, 16], "normal", 0.0, 1.0).values
        logits = forward_float(graph, weights, x, cap)
        assert logits.shape == (10,)
        assert tuple(cap) == graph.edges
        np.testing.assert_array_equal(cap["logits"][0][0], logits)

    def test_nonlinear_input_edges_exist(self):
        graph, _ = build_toy_vit({"blocks": 3, "embed_dim": 16, "heads": 2,
                                  "tokens": 4, "mlp_ratio": 2})
        edges = graph.edges
        ops = {op.out: op for op in graph.ops}
        for rec in graph.layers:
            op = ops[rec.layer_id]
            assert op.op == rec.kind
            assert edges.index(op.inputs[0]) < edges.index(rec.layer_id)

    def test_dead_after_drops_every_read_edge_once(self):
        graph, _ = build_toy_vit({"blocks": 2})
        dropped = [e for dead in graph.dead_after for e in dead]
        assert sorted(dropped) == sorted(graph.edges[:-1])
        for i, dead in enumerate(graph.dead_after):
            later = {e for op in graph.ops[i + 1:] for e in op.inputs}
            assert set(dead) == set(graph.ops[i].inputs) - later

    def test_op_major_pass_equals_the_per_batch_passes_joined(self):
        # capture_calibration builds each edge op by op over the whole set;
        # every edge is bit-identical to forward_float's, batch by batch
        cfg = small_cfg(calib_batches=3, calib_batch_size=2)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        per_batch: dict = {}
        for batch in calib:
            forward_float(graph, weights, batch, per_batch)
        got = capture_calibration(graph, weights, calib)
        assert tuple(got) == graph.edges
        for edge in graph.edges:
            np.testing.assert_array_equal(got[edge], np.concatenate(per_batch[edge]))

    def test_softmax_is_the_textbook_formula_bit_for_bit(self):
        x = rng_tensor(5, [3, 2, 7, 7], "normal", 0.0, 4.0).values.astype(np.float64)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(model_mod._softmax(x), e / e.sum(axis=-1, keepdims=True))

    def test_swap_replaces_one_layer(self):
        graph, weights = build_toy_vit({"blocks": 2, "embed_dim": 16, "heads": 2,
                                        "tokens": 4, "mlp_ratio": 2})
        x = rng_tensor(1, [4, 16], "normal", 0.0, 1.0).values
        ref, got = {}, {}
        forward_float(graph, weights, x, ref)
        forward_float(graph, weights, x, got, swap=("block1.gelu", lambda a: 2 * a))
        np.testing.assert_array_equal(got["block1.gelu"][0], 2 * ref["block1.mlp.fc1"][0])
        for edge in graph.edges[:graph.edges.index("block1.gelu")]:
            np.testing.assert_array_equal(got[edge][0], ref[edge][0])


class TestStage1:
    def test_entry_count_law_two_blocks(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        # 5 layernorm * 3 + 2 softmax * 4 + 2 gelu * 3
        assert len(table) == 29

    def test_entry_count_law_vit_b_shape(self):
        cfg = PipelineConfig(blocks=12, embed_dim=32, heads=2, tokens=8,
                             mlp_ratio=2, calib_batches=1, calib_batch_size=4)
        graph, weights = build_toy_vit(cfg.model_config(), seed=0)
        calib = calibration_batches(cfg)
        table = stage1_analyze(graph, weights, calib, cfg)
        assert len(table) == 25 * 3 + 12 * 4 + 12 * 3 == 159

    def test_empty_calibration_rejected(self):
        cfg = small_cfg()
        graph, weights = build_toy_vit(cfg.model_config())
        with pytest.raises(ValueError, match="non-empty"):
            stage1_analyze(graph, weights, [], cfg)

    @pytest.mark.parametrize("slice_elements", [pl.STAGE1_SLICE_ELEMENTS, 1])
    def test_parallel_jobs_match_serial(self, monkeypatch, slice_elements):
        # more workers than cores and a short switch interval: a lost update
        # of a candidate's shared state would change its q_db, p or c
        cfg = small_cfg(calib_batches=1)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        monkeypatch.setattr(pl, "STAGE1_SLICE_ELEMENTS", slice_elements)
        t1 = stage1_analyze(graph, weights, calib, cfg, jobs=1)
        tables = []
        worker = threading.Thread(target=lambda: tables.extend(
            stage1_analyze(graph, weights, calib, cfg, jobs=4) for _ in range(3)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(tables) == 3
        for t4 in tables:
            assert [(l, c, ms.q_db, ms.p, ms.c, ms.score) for l, _, c, ms in t1.entries] == \
                   [(l, c, ms.q_db, ms.p, ms.c, ms.score) for l, _, c, ms in t4.entries]

    def test_peak_memory_stays_below_the_whole_set_edges(self):
        # the float pass drops each edge once no later op reads it, so
        # stage 1 never holds every whole-set edge at once, even with two
        # workers each holding a candidate's residual buffer
        cfg = small_cfg(blocks=1, tokens=128, embed_dim=64, heads=1,
                        calib_batches=4, calib_batch_size=8)
        graph, weights = build_toy_vit(cfg.model_config())
        edges = capture_calibration(graph, weights, calibration_batches(cfg))
        whole_set = sum(a.nbytes for a in edges.values())
        del edges
        tracemalloc.start()
        try:
            run_pipeline(cfg, jobs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole_set

    def test_c_is_the_measured_count_per_sample(self):
        # c is the candidate's own OpCounter total over one whole-set call,
        # per calibration sample
        cfg = small_cfg()
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        cat = capture_calibration(graph, weights, calib)
        samples = cfg.calib_batches * cfg.calib_batch_size
        ops = {o.out: o for o in graph.ops}
        qparams, _ = pl.calibrate_edges(graph, cat, cfg)
        table = stage1_analyze(graph, weights, calib, cfg)
        assert len(table) == 29
        for lid, _, cand, ms in table.entries:
            op = ops[lid]
            q = pl.quantize(cat[op.inputs[0]], qparams[op.inputs[0]])
            counter = OpCounter()
            pl._run_kernel(op, cand, q, weights, qparams[lid], cfg.taylor_degree, counter)
            assert ms.c == round(counter.total() / samples), (lid, cand)

    def test_global_mode_runs(self):
        cfg = small_cfg(stage1_mode="global", calib_batches=1, calib_batch_size=2)
        graph, weights = build_toy_vit(cfg.model_config())
        table = stage1_analyze(graph, weights, calibration_batches(cfg), cfg)
        assert len(table) == 29

    def test_global_mode_quantizes_as_local_mode(self, monkeypatch):
        # each (layer, candidate) runs under one input and output quantizer,
        # taken from the whole calibration set, in either mode, and so
        # measures the same op count
        cfg = small_cfg()
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        seen = {}

        def spy(op, cand, q, w, out_params, *args, _fn=pl._run_kernel):
            seen.setdefault((op.out, cand), set()).add((q.params, out_params))
            return _fn(op, cand, q, w, out_params, *args)

        monkeypatch.setattr(pl, "_run_kernel", spy)
        local_table = stage1_analyze(graph, weights, calib, cfg)
        local = dict(seen)
        seen.clear()
        global_table = stage1_analyze(graph, weights, calib, small_cfg(stage1_mode="global"))
        assert len(local) == 29 and all(len(p) == 1 for p in local.values())
        assert seen == local
        assert [(l, c, ms.c) for l, _, c, ms in global_table.entries] == \
               [(l, c, ms.c) for l, _, c, ms in local_table.entries]

    def test_standardize_rescores(self):
        cfg = small_cfg(calib_batches=1)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        lit = stage1_analyze(graph, weights, calib, cfg)
        std = stage1_analyze(graph, weights, calib, small_cfg(calib_batches=1, standardize=True))
        raw = {(l, c): (ms.q_db, ms.p, ms.c) for l, _, c, ms in lit.entries}
        for l, _, c, ms in std.entries:
            assert raw[(l, c)] == (ms.q_db, ms.p, ms.c)  # raw factors unchanged

    def test_layer_scores_scale_over_the_candidates_that_ran(self):
        # standardized p and c lie in [0, 1] over the candidates that ran, a
        # span of one value scales to 0, and an overflowed candidate's
        # partial count takes no part and scores 0; the factors stay raw
        measured = [(30.0, 2.0, 100), (20.0, 4.0, 300), (-np.inf, np.inf, 10_000),
                    (25.0, 2.0, 200)]
        std = pl._layer_scores(measured, standardize=True)
        assert [(ms.q_db, ms.p, ms.c) for ms in std] == measured
        assert [ms.score for ms in std] == [
            unified_score(30.0, 0.0, 0.0), unified_score(20.0, 1.0, 1.0), 0.0,
            unified_score(25.0, 0.0, 0.5)]
        raw = pl._layer_scores(measured, standardize=False)
        assert [ms.score for ms in raw] == [
            unified_score(*measured[0]), unified_score(*measured[1]), 0.0,
            unified_score(*measured[3])]
        only, = pl._layer_scores([(30.0, 2.0, 100)], standardize=True)
        assert only.score == unified_score(30.0, 0.0, 0.0)


class TestStage1Slices:
    """Stage 1 runs every candidate slice by slice; one-sample slices must
    give what one whole-set call gives."""

    @pytest.mark.parametrize("mode", STAGE1_MODES)
    @pytest.mark.parametrize("tokens", [8, 64])
    def test_one_sample_slices_give_the_same_table(self, monkeypatch, mode, tokens):
        cfg = small_cfg(tokens=tokens, stage1_mode=mode)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        whole = stage1_analyze(graph, weights, calib, cfg)
        monkeypatch.setattr(pl, "STAGE1_SLICE_ELEMENTS", 1)
        sliced = stage1_analyze(graph, weights, calib, cfg)
        assert len(sliced) == len(whole) == 29
        for (l, k, c, got), (wl, wk, wc, want) in zip(sliced.entries, whole.entries):
            assert (l, k, c) == (wl, wk, wc)
            assert (got.q_db, got.p, got.c, got.score) == \
                   (want.q_db, want.p, want.c, want.score)

    @pytest.mark.parametrize("tokens", [8, 64])
    def test_sliced_outputs_and_op_counts_add_up(self, monkeypatch, tokens):
        cfg = small_cfg(tokens=tokens)
        graph, weights = build_toy_vit(cfg.model_config())
        cat = capture_calibration(graph, weights, calibration_batches(cfg))
        qparams, _ = pl.calibrate_edges(graph, cat, cfg)
        samples = cfg.calib_batches * cfg.calib_batch_size
        rows = {}   # runner kind -> leading extent of each call

        for name in ("run_softmax_candidate", "run_gelu_candidate", "run_ln_candidate"):
            def spy(cand, q, *args, _fn=getattr(pl, name), _name=name, **kw):
                rows.setdefault(_name, []).append(q.codes.shape[0])
                return _fn(cand, q, *args, **kw)
            monkeypatch.setattr(pl, name, spy)

        def run_all():
            rows.clear()
            got = {}
            for rec in graph.layers:
                op = next(o for o in graph.ops if o.out == rec.layer_id)
                for cand in rec.candidates:
                    counter = OpCounter()
                    params = (qparams[op.inputs[0]], qparams[op.out])
                    codes = pl._input_codes(cat[op.inputs[0]], params[0])
                    out = pl._candidate_output(op, cand, codes, params, weights, cfg, counter)
                    got[(op.out, cand)] = (out, counter.as_dict())
            return got

        whole = run_all()
        assert {n for calls in rows.values() for n in calls} == {samples}
        monkeypatch.setattr(pl, "STAGE1_SLICE_ELEMENTS", 1)
        sliced = run_all()
        assert {name: set(calls) for name, calls in rows.items()} == {
            "run_softmax_candidate": {1}, "run_gelu_candidate": {1}, "run_ln_candidate": {1}}
        for key, (out, ops) in whole.items():
            np.testing.assert_array_equal(sliced[key][0], out)
            assert sliced[key][1] == ops, key

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overflow_in_a_later_slice_scores_zero(self, monkeypatch, jobs):
        # the slice of the second sample overflows; c is what a serial run
        # that stops there counts, whatever order the workers take
        cfg = small_cfg(blocks=1, calib_batches=1)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        monkeypatch.setattr(pl, "STAGE1_SLICE_ELEMENTS", 1)
        lid = "block0.softmax"
        op = next(o for o in graph.ops if o.out == lid)
        cat = capture_calibration(graph, weights, calib)
        qparams, _ = pl.calibrate_edges(graph, cat, cfg)
        codes = pl._input_codes(cat[op.inputs[0]], qparams[op.inputs[0]])
        first = OpCounter()
        pl.run_softmax_candidate("shiftmax", QTensor(codes[:1], qparams[op.inputs[0]]),
                                 qparams[lid], first)
        calls = []

        def second_slice_overflows(cand, q, *args, _fn=pl.run_softmax_candidate, **kw):
            if cand == "shiftmax":
                calls.append(cand)
                if np.array_equal(q.codes, codes[1:2]):
                    raise KernelOverflowError("synthetic")
            return _fn(cand, q, *args, **kw)

        monkeypatch.setattr(pl, "run_softmax_candidate", second_slice_overflows)
        table = stage1_analyze(graph, weights, calib, cfg, jobs=jobs)
        scores = {c: ms for _, k, c, ms in table.entries if k == "softmax"}
        assert scores["shiftmax"].score == 0.0 and scores["shiftmax"].q_db == -np.inf
        assert scores["shiftmax"].c == round(first.total() / len(codes)) > 0
        assert all(ms.score > 0 for c, ms in scores.items() if c != "shiftmax")
        if jobs == 1:
            assert len(calls) == 2   # the candidate's later slices are not run


class TestStage1SharedWork:
    """Stage 1 quantizes each layer's input once and scores each candidate
    from one residual pass; the table is what per-candidate recomputation
    through the public functions gives."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_table_equals_a_per_candidate_recomputation(self, jobs):
        cfg = small_cfg(tokens=64)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        cat = capture_calibration(graph, weights, calib)
        qparams, _ = pl.calibrate_edges(graph, cat, cfg)
        table = stage1_analyze(graph, weights, calib, cfg, jobs=jobs)
        ops = {op.out: op for op in graph.ops}
        assert len(table) == 29
        for lid, kind, cand, ms in table.entries:
            op, counter = ops[lid], OpCounter()
            q = quantize(cat[op.inputs[0]], qparams[op.inputs[0]])
            if kind == "softmax":
                out = pl.run_softmax_candidate(cand, q, qparams[lid], counter,
                                                cfg.taylor_degree)
            elif kind == "gelu":
                out = pl.run_gelu_candidate(cand, q, qparams[lid], counter)
            else:
                gamma, beta = (weights[k] for k in op.weights)
                out = pl.run_ln_candidate(cand, q, gamma, beta, qparams[lid], counter)
            ref, got = cat[lid], dequantize_np(out)
            q_db, p = sqnr(ref, got, cfg.db_convention), perturbation(ref, got)
            c = round(counter.total() / len(ref))
            assert (ms.q_db, ms.p, ms.c, ms.score) == (q_db, p, c, unified_score(q_db, p, c))

    def test_each_layer_input_is_quantized_once(self, monkeypatch):
        cfg = small_cfg(tokens=64)
        graph, weights = build_toy_vit(cfg.model_config())
        quantized = []

        def spy(x, p, _fn=pl.quantize):
            quantized.append(x.shape)
            return _fn(x, p)

        monkeypatch.setattr(pl, "quantize", spy)
        stage1_analyze(graph, weights, calibration_batches(cfg), cfg)
        # one slice per layer at this size, against 29 (layer, candidate) pairs
        assert len(quantized) == len(graph.layers) == 9


def _m_accepts(tokens, bits):
    try:
        sm_mod._check_m(bits, tokens)
    except sm_mod.ConfigurationError:
        return False
    return True


# every (row length, activation width) the softmax kernels' M accepts
_SOFTMAX_WIDTHS = [(t, b) for t in (8, 256) for b in range(2, 17) if _m_accepts(t, b)]


class TestKernelCodeRanges:
    """Every candidate, run through its runner over its whole input code
    range, raises nothing and emits codes in [0, qmax]."""

    @pytest.mark.parametrize("bits", range(2, 17))
    @settings(max_examples=5, deadline=None)
    @given(row=st.integers(2, 64), seed=st.integers(0, 2**16),
           in_lo=st.floats(-32, 32), in_width=st.floats(1e-3, 64),
           out_lo=st.floats(-32, 32), out_width=st.floats(1e-3, 64),
           gain=st.floats(0.0, 4.0))
    def test_gelu_and_layernorm(self, bits, row, seed, in_lo, in_width, out_lo,
                                out_width, gain):
        p_in = qparams_from_range(in_lo + in_width, in_lo, bits)
        p_out = qparams_from_range(out_lo + out_width, out_lo, bits)
        rng = np.random.default_rng(seed)
        # every code once, shuffled into rows, then a constant row at each end
        codes = np.resize(rng.permutation(p_in.qmax + 1), (-(-(p_in.qmax + 1) // row), row))
        codes = np.concatenate([codes, np.zeros((1, row), int), np.full((1, row), p_in.qmax)])
        np.testing.assert_array_equal(np.unique(codes), np.arange(p_in.qmax + 1))
        q = QTensor(codes.astype(np.int32), p_in)
        gamma, beta = gain * rng.normal(size=row), gain * rng.normal(size=row)
        outs = [pl.run_gelu_candidate(c, q, p_out) for c in CANDIDATE_POOLS["gelu"]]
        outs += [pl.run_ln_candidate(c, q, gamma, beta, p_out)
                 for c in CANDIDATE_POOLS["layernorm"]]
        for out in outs:
            assert out.codes.shape == codes.shape
            assert 0 <= out.codes.min() and out.codes.max() <= out.params.qmax == p_out.qmax

    @staticmethod
    def _softmax_codes(tokens, f, zero, bits, taylor, seed):
        """Every softmax candidate on all-max, all-zero, one-hot and random
        16-bit rows on the 2^-f grid; asserts the output code range."""
        qmax = (1 << 16) - 1
        rows = np.concatenate([np.full((1, tokens), qmax), np.zeros((1, tokens), int),
                               qmax * np.eye(tokens, dtype=int),
                               np.random.default_rng(seed).integers(0, qmax + 1, (8, tokens))])
        q = QTensor(rows.astype(np.int32), QParams(2.0 ** -f, zero, 16, "asymmetric"))
        p_out = sm_mod.softmax_out_params(bits)
        for cand in CANDIDATE_POOLS["softmax"]:
            out = pl.run_softmax_candidate(cand, q, p_out, taylor_degree=taylor)
            assert out.codes.shape == rows.shape
            assert 0 <= out.codes.min() and out.codes.max() <= (1 << bits) - 1

    @pytest.mark.parametrize("tokens, bits", _SOFTMAX_WIDTHS)
    @settings(max_examples=5, deadline=None)
    @given(f=st.integers(2, 20), zero=st.integers(0, (1 << 16) - 1),
           taylor=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_softmax(self, tokens, bits, f, zero, taylor, seed):
        self._softmax_codes(tokens, f, zero, bits, taylor, seed)

    @pytest.mark.parametrize("f", [0, 1])
    @pytest.mark.parametrize("cand", CANDIDATE_POOLS["softmax"])
    def test_softmax_refuses_grids_coarser_than_2_to_minus_2(self, cand, f):
        # on 2^-1 efficient_bit_softmax's fraction codes went negative, on
        # 2^0 iexp_softmax divided by a zero ln2 code; calibration floors the
        # scores grid at 2^-2, so only a hand-edited plan gets here
        q = QTensor(np.zeros((2, 8), np.int32), QParams(2.0 ** -f, 0, 16, "asymmetric"))
        with pytest.raises(sm_mod.ConfigurationError, match="2 <= f"):
            pl.run_softmax_candidate(cand, q, sm_mod.softmax_out_params(8))


@pytest.mark.parametrize("kind", ["softmax", "gelu", "layernorm"])
def test_runners_return_the_int64_codes_the_kernel_computed(kind):
    # int32 or int64 codes in, the kernel's own int64 array out
    rng = np.random.default_rng(4)
    p_in = (QParams(2.0 ** -10, 1 << 15, 16, "asymmetric") if kind == "softmax"
            else qparams_from_range(3.0, -3.0, 8))
    p_out = qparams_from_range(2.0, -1.0, 8)
    for dtype in (np.int32, np.int64):
        q = QTensor(rng.integers(0, p_in.qmax + 1, size=(2, 3, 16)).astype(dtype), p_in)
        for cand in CANDIDATE_POOLS[kind]:
            if kind == "softmax":
                out = pl.run_softmax_candidate(cand, q, sm_mod.softmax_out_params(8))
            elif kind == "gelu":
                out = pl.run_gelu_candidate(cand, q, p_out)
            else:
                out = pl.run_ln_candidate(cand, q, np.ones(16), np.zeros(16), p_out)
            assert out.codes.dtype == np.int64, (cand, dtype)
            assert not np.shares_memory(out.codes, q.codes), cand


class TestStage2:
    def _table(self):
        t = MetricTable()
        t.add("l0", "softmax", "b_cand", MetricScore(10.0, 1.0, 10, 0.5))
        t.add("l0", "softmax", "a_cand", MetricScore(10.0, 1.0, 10, 0.5))
        t.add("l1", "gelu", "x", MetricScore(INF_DB, 0.0, 10, 2.0))
        t.add("l1", "gelu", "y", MetricScore(5.0, 2.0, 10, 1.0))
        return t

    def test_argmax_and_tie_break(self):
        plan = stage2_assign(self._table())
        assert plan.assignments["l0"] == "a_cand"  # tie -> lexicographic
        assert plan.assignments["l1"] == "x"
        assert plan.omega == pytest.approx(2.5)

    def test_deterministic(self):
        a = stage2_assign(self._table()).assignments
        b = stage2_assign(self._table()).assignments
        assert a == b

    def test_incomplete_table_rejected(self):
        cfg = small_cfg()
        graph, _ = build_toy_vit(cfg.model_config())
        with pytest.raises(IncompleteTableError):
            stage2_assign(self._table(), graph)

    def test_assignments_are_pool_argmax(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        for lid, chosen in plan.assignments.items():
            scores = {cand: ms for row_lid, _, cand, ms in table.entries if row_lid == lid}
            top = max(ms.score for ms in scores.values())
            assert scores[chosen].score == top

    def test_dominance_consistency(self, pipeline_result):
        # the winner is never strictly worse than a rival on all three raw
        # factors at once (score monotonicity forbids it)
        (plan, table, graph, weights), cfg = pipeline_result
        for lid, chosen in plan.assignments.items():
            rows = {cand: ms for row_lid, _, cand, ms in table.entries if row_lid == lid}
            ms = rows[chosen]
            for rival, rms in rows.items():
                if rival == chosen:
                    continue
                dominated = (ms.q_db < rms.q_db and ms.p > rms.p and ms.c > rms.c)
                assert not dominated, f"{lid}: {chosen} dominated by {rival}"

    def test_kernel_overflow_becomes_score_zero(self, monkeypatch):
        import intquant.pipeline as pl
        from intquant.tensor import KernelOverflowError

        def boom(*a, **kw):
            raise KernelOverflowError("synthetic")

        monkeypatch.setattr(pl, "run_softmax_candidate", boom)
        cfg = small_cfg(blocks=1, calib_batches=1)
        graph, weights = build_toy_vit(cfg.model_config())
        table = stage1_analyze(graph, weights, calibration_batches(cfg), cfg)
        softmax_rows = [(l, c, ms) for l, k, c, ms in table.entries if k == "softmax"]
        assert softmax_rows and all(ms.score == 0.0 for _, _, ms in softmax_rows)
        # assignment still completes; the all-zero tie breaks lexicographically
        plan = stage2_assign(table, graph)
        for lid, kind in plan.kinds.items():
            if kind == "softmax":
                assert plan.assignments[lid] == "efficient_bit_softmax"


class TestStage3:
    def test_every_edge_calibrated(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        assert tuple(plan.qparams) == graph.edges

    def test_idempotent(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        calib = calibration_batches(cfg)
        again = stage3_calibrate(graph, weights, plan, calib, cfg)
        for edge, p in plan.qparams.items():
            q = again.qparams[edge]
            assert (p.scale, p.zero_point) == (q.scale, q.zero_point)

    def test_duplication_invariance(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        calib = calibration_batches(cfg)
        doubled = stage3_calibrate(graph, weights, plan, calib + calib, cfg)
        for edge, p in plan.qparams.items():
            assert p.scale == pytest.approx(doubled.qparams[edge].scale)

    def test_envelopes_equal_per_batch_observation(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        observers = {e: MinMaxObserver() for e in graph.edges}
        for batch in calibration_batches(cfg):
            capture: dict = {}
            forward_float(graph, weights, batch, capture)
            for edge, (arr,) in capture.items():
                observers[edge].observe(arr)
        kinds = {op.out: op.op for op in graph.ops}
        checked = 0
        for edge, obs in observers.items():
            if kinds.get(edge) in ("scores", "softmax") or \
                    plan.assignments.get(edge) == "log2_scale":
                continue   # dyadic or snapped grids, derived from the same envelope
            want = obs.qparams(cfg.act_bits)
            assert (plan.qparams[edge].scale, plan.qparams[edge].zero_point) == \
                   (want.scale, want.zero_point), edge
            checked += 1
        assert checked > len(graph.edges) // 2

    def test_plan_is_calibrate_edges_with_log2_scale_layers_snapped(self):
        # stage 1 scores each candidate under calibrate_edges' parameters;
        # the plan differs from them only where a kernel snaps its output
        cfg = small_cfg()
        graph, weights = build_toy_vit(cfg.model_config())
        cat = capture_calibration(graph, weights, calibration_batches(cfg))
        want, warns = pl.calibrate_edges(graph, cat, cfg)
        lns = [r.layer_id for r in graph.layers if r.kind == "layernorm"]
        assignments = {r.layer_id: r.candidates[0] for r in graph.layers}
        assignments.update({lid: "log2_scale" for lid in lns[::2]})
        plan = stage3_calibrate(graph, weights, AssignmentPlan(cfg, assignments), None,
                                cfg, calibrated=pl.calibrate_edges(graph, cat, cfg))
        assert list(plan.qparams) == list(want) and plan.warnings == warns
        snapped = 0
        for edge, p in plan.qparams.items():
            if assignments.get(edge) == "log2_scale":
                assert p == ln_mod.snap_pow2_out_params(want[edge])[0] != want[edge]
                snapped += 1
            else:
                assert p == want[edge], edge
        assert snapped == len(lns[::2]) > 0

    def test_run_pipeline_observes_each_edge_once(self, monkeypatch):
        # stage 1's float pass hands each edge to calibrate_edges once, for
        # stage 1 and the plan alike; the softmax edges, whose grid is
        # fixed, are not observed
        cfg = small_cfg()
        seen = []
        real = MinMaxObserver.observe
        monkeypatch.setattr(MinMaxObserver, "observe",
                            lambda self, x: seen.append(x) or real(self, x))
        calls = []
        monkeypatch.setattr(pl, "calibrate_edges",
                            lambda *a, _real=pl.calibrate_edges: calls.append(1) or _real(*a))
        plan, _, graph, _ = run_pipeline(cfg)
        fixed = [e for e, kind in ((op.out, op.op) for op in graph.ops) if kind == "softmax"]
        # seen holds the arrays, so that no id is reused as edges are dropped
        assert len(calls) == len(graph.edges) and len(seen) == len({id(x) for x in seen})
        assert len(seen) == len(graph.edges) - len(fixed)
        assert all(plan.qparams[e] == sm_mod.softmax_out_params(cfg.act_bits) for e in fixed)

    def test_run_pipeline_runs_the_float_pass_once(self, monkeypatch):
        # each op's float function runs once per calibration batch
        cfg = small_cfg()
        calls = []
        spied = {kind: (lambda *a, _fn=fn, _kind=kind: calls.append(_kind) or _fn(*a))
                 for kind, fn in model_mod._FLOAT_OPS.items()}
        monkeypatch.setattr(model_mod, "_FLOAT_OPS", spied)
        _, _, graph, _ = run_pipeline(cfg)
        assert sorted(calls) == sorted(op.op for op in graph.ops
                                       for _ in range(cfg.calib_batches))

    def test_scores_edges_are_dyadic(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        for edge, p in plan.qparams.items():
            if edge.endswith(".attn.scores"):
                f = -np.log2(float(p.scale))
                assert f == int(f)

    def test_requires_assignments(self):
        cfg = small_cfg()
        graph, weights = build_toy_vit(cfg.model_config())
        with pytest.raises(ValueError, match="assignments"):
            stage3_calibrate(graph, weights, AssignmentPlan(config=cfg),
                             calibration_batches(cfg), cfg)


def _read_only(a) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestInputsStayUntouched:
    """A kernel never writes into an array it was handed: on read-only int64
    input codes every runner and every integer op runs and gives what it
    gives on writable codes."""

    @pytest.mark.parametrize("kind, taylor", [("softmax", 1), ("softmax", 2),
                                              ("gelu", 1), ("layernorm", 1)])
    def test_candidates_on_read_only_codes(self, kind, taylor):
        rng = np.random.default_rng(3)
        p_in = (QParams(2.0 ** -10, 1 << 15, 16, "asymmetric") if kind == "softmax"
                else qparams_from_range(3.0, -3.0, 8))
        p_out = qparams_from_range(2.0, -1.0, 8)
        codes = rng.integers(0, p_in.qmax + 1, size=(2, 3, 16)).astype(np.int64)
        gamma, beta = _read_only(rng.normal(size=16)), _read_only(rng.normal(size=16))
        p_probs = sm_mod.softmax_out_params(8)

        def run(cand, c):
            counter = OpCounter()
            q = QTensor(c, p_in)
            if kind == "softmax":
                out = pl.run_softmax_candidate(cand, q, p_probs, counter, taylor)
            elif kind == "gelu":
                out = pl.run_gelu_candidate(cand, q, p_out, counter)
            else:
                out = pl.run_ln_candidate(cand, q, gamma, beta, p_out, counter)
            return out.codes.tolist(), counter.as_dict()

        for cand in CANDIDATE_POOLS[kind]:
            assert run(cand, _read_only(codes)) == run(cand, codes.copy()), cand

    def test_int_ops_on_read_only_edges(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        x = rng_tensor(11, [2, graph.tokens, graph.embed_dim], "normal", 0.0, 1.0).values
        logits, counter = integer_forward(graph, weights, plan, x)
        ran = set()

        def frozen_inputs(op, step):
            def run(counter, *args):
                want = step(OpCounter(), *(np.array(a) for a in args))
                got = step(counter, *(_read_only(a) for a in args))
                np.testing.assert_array_equal(got, want)
                ran.add(op.op)
                return got
            return run

        plan = _fresh(plan)
        compiled = compile_plan(graph, weights, plan)
        plan.compiled = dataclasses.replace(compiled, steps=tuple(
            frozen_inputs(op, step) for op, step in zip(graph.ops, compiled.steps)))
        got_logits, got_counter = integer_forward(graph, weights, plan, x)
        assert ran == {op.op for op in graph.ops}
        assert got_logits == logits and got_counter.as_dict() == counter.as_dict()


class TestIntegerForward:
    def test_zero_input_finite_no_violations(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        x = np.zeros((graph.tokens, graph.embed_dim))
        out, counter = integer_forward(graph, weights, plan, x)
        assert np.all(np.isfinite(out.values))
        assert counter.float_violations == 0

    def test_deterministic_bit_identical(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        x = rng_tensor(5, [graph.tokens, graph.embed_dim], "normal", 0.0, 1.0).values
        a, _ = integer_forward(graph, weights, plan, x)
        b, _ = integer_forward(graph, weights, plan, x)
        assert a == b

    def test_cosine_against_float_reference(self):
        # full default calibration (4 batches of 8); the skinny fixture
        # calibration under-covers the activation ranges
        plan, table, graph, weights = run_pipeline(PipelineConfig(blocks=2))
        worst = 1.0
        for seed in range(10):
            x = rng_tensor(100 + seed, [graph.tokens, graph.embed_dim],
                           "normal", 0.0, 1.0).values
            got = integer_forward(graph, weights, plan, x)[0].values.astype(np.float64)
            ref = forward_float(graph, weights, x)
            cos = float(np.dot(ref, got) / (np.linalg.norm(ref) * np.linalg.norm(got)))
            worst = min(worst, cos)
        assert worst >= 0.99

    def test_batched_input(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        x = rng_tensor(6, [3, graph.tokens, graph.embed_dim], "normal", 0.0, 1.0).values
        out, counter = integer_forward(graph, weights, plan, x)
        assert out.dims == (3, graph.classes)
        assert counter.float_violations == 0

    def test_uncalibrated_plan_rejected(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        bare = AssignmentPlan(config=cfg, assignments=dict(plan.assignments),
                              kinds=dict(plan.kinds))
        x = np.zeros((graph.tokens, graph.embed_dim))
        with pytest.raises(ValueError, match="calibrated"):
            integer_forward(graph, weights, bare, x)

    def test_shape_mismatch_rejected(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        with pytest.raises(ValueError, match="match"):
            integer_forward(graph, weights, plan, np.zeros((3, 3)))

    def test_nonlinear_ops_call_the_module_runners(self, pipeline_result, monkeypatch):
        import intquant.pipeline as pl
        (plan, table, graph, weights), cfg = pipeline_result
        x = rng_tensor(9, [graph.tokens, graph.embed_dim], "normal", 0.0, 1.0).values
        want = integer_forward(graph, weights, plan, x)
        seen = []
        for name in ("run_softmax_candidate", "run_gelu_candidate", "run_ln_candidate"):
            def spy(cand, *args, _fn=getattr(pl, name), **kw):
                seen.append(cand)
                return _fn(cand, *args, **kw)
            monkeypatch.setattr(pl, name, spy)
        got = integer_forward(graph, weights, plan, x)
        assert seen == [plan.assignments[r.layer_id] for r in graph.layers]
        assert got[0] == want[0] and got[1].as_dict() == want[1].as_dict()

    def test_every_weight_read_is_checked(self, pipeline_result):
        # a weight the forward pass reads but the compiled plan does not
        # record would go stale when it is replaced
        (plan, table, graph, weights), cfg = pipeline_result
        seen = set()

        class Recording(dict):
            def __getitem__(self, key):
                seen.add(key)
                return super().__getitem__(key)

        plan = _fresh(plan)
        x = rng_tensor(12, [graph.tokens, graph.embed_dim], "normal", 0.0, 1.0).values
        integer_forward(graph, Recording(weights), plan, x)
        integer_forward(graph, Recording(weights), plan, x)
        read = dict(plan.compiled.weights_read)
        assert seen == set(read) == {w for op in graph.ops for w in op.weights}
        assert {"embed.ln.gamma", "block1.ln2.beta"} <= seen
        assert all(weights[k] is v for k, v in read.items())

    def test_pos_add_charges_only_the_request(self, pipeline_result):
        # the positional table is requantized at compile time, so the step's
        # count has no per-request constant: twice the batch, twice the ops
        (plan, table, graph, weights), cfg = pipeline_result
        compiled = compile_plan(graph, weights, _fresh(plan))
        step = compiled.steps[[op.op for op in graph.ops].index("pos_add")]
        counts = []
        for batch in (1, 2):
            counter = OpCounter()
            step(counter, np.zeros((batch, graph.tokens, graph.embed_dim), dtype=np.int64))
            counts.append(counter.as_dict())
        assert counts[0]["total"] > 0
        assert counts[1] == {k: 2 * v for k, v in counts[0].items()}

    def test_op_totals_deterministic(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        x = rng_tensor(7, [graph.tokens, graph.embed_dim], "normal", 0.0, 1.0).values
        _, c1 = integer_forward(graph, weights, plan, x)
        _, c2 = integer_forward(graph, weights, plan, x)
        assert c1.as_dict() == c2.as_dict()


def _fresh(plan):
    """An independent copy of ``plan`` with no compiled state."""
    return plan_from_dict(plan_to_dict(plan))


class _Reads(dict):
    """A dict that records every key read through it with []."""

    def __init__(self, source):
        super().__init__(source)
        self.seen: dict = {}

    def __getitem__(self, key):
        val = self.seen[key] = super().__getitem__(key)
        return val


def _run(graph, weights, plan, xs):
    outs = [integer_forward(graph, weights, plan, x) for x in xs]
    return [o.values.tobytes() for o, _ in outs], [c.as_dict() for _, c in outs]


class TestCompiledPlan:
    @pytest.fixture(scope="class")
    def inputs(self):
        return [rng_tensor(40 + i, [1 + i % 2, 8, 32], "normal", 0.0, 1.0).values
                for i in range(4)]

    def test_repeated_calls_match_a_fresh_plan(self, pipeline_result, inputs):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        runs = [_run(graph, weights, plan, inputs) for _ in range(3)]
        assert plan.compiled is not None
        for x, logits, ops in zip(inputs, *runs[0]):
            first = _run(graph, weights, _fresh(plan), [x])
            assert first == ([logits], [ops])
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_compiled_state_is_reused(self, pipeline_result, inputs):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        compiled = compile_plan(graph, weights, plan)
        integer_forward(graph, weights, plan, inputs[0])
        assert plan.compiled is compiled
        integer_forward(graph, dict(weights), plan, inputs[0])
        assert plan.compiled is compiled

    @pytest.mark.parametrize("name", ["pos", "block0.attn.wv", "block1.mlp.w2",
                                      "block0.mlp.b1", "head.w", "embed.ln.gamma",
                                      "block1.ln2.beta"])
    def test_replaced_weight_recompiles(self, pipeline_result, inputs, name):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        before = _run(graph, weights, plan, inputs)
        changed = dict(weights)
        rng = np.random.default_rng(1)
        changed[name] = weights[name] + rng.normal(0.0, 0.05, weights[name].shape)
        after = _run(graph, changed, plan, inputs)
        assert after == _run(graph, changed, _fresh(plan), inputs)
        assert after[0] != before[0]

    def test_layernorm_plan_follows_replaced_gamma_and_beta(self, pipeline_result, inputs):
        # LayerNorm's constants are cached by the values of gamma and beta:
        # new arrays of other values, then new arrays equal to the original
        # ones, must each give what a run with an empty cache gives
        (plan, table, graph, weights), cfg = pipeline_result
        plan, calib = _fresh(plan), calibration_batches(cfg)
        names = ("block0.ln1.gamma", "block0.ln1.beta")

        def ln_rows(w):
            return [e for e in stage1_analyze(graph, w, calib, cfg).entries
                    if e[1] == "layernorm"]
        before = _run(graph, weights, plan, inputs), ln_rows(weights)
        for values in ([1.5 * weights[names[0]] + 0.25, weights[names[1]] - 0.5],
                       [np.array(weights[k]) for k in names]):
            changed = {**weights, **dict(zip(names, values))}
            got = _run(graph, changed, plan, inputs), ln_rows(changed)
            pl.ln_mod._ln_plan.cache_clear()
            assert got == (_run(graph, changed, _fresh(plan), inputs), ln_rows(changed))
            assert (got == before) == (values[0] == weights[names[0]]).all()

    # a coarser attention-score grid does not move this model's 8-bit
    # logits, so for that edge only the rebuilt state is checked
    @pytest.mark.parametrize("edge,moves_logits", [
        ("block0.attn.scores", False), ("block0.mlp.fc1", True),
        ("block1.attn.ctx", True), ("pool", True)])
    def test_replaced_qparams_recompiles(self, pipeline_result, inputs, edge,
                                         moves_logits):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        before = _run(graph, weights, plan, inputs)
        old = plan.qparams[edge]
        # doubled, so the attention scores stay on a power-of-two grid
        new = plan.qparams[edge] = QParams(float(old.scale) * 2, old.zero_point,
                                           old.bits, old.scheme)
        after = _run(graph, weights, plan, inputs)
        assert (edge, new) in plan.compiled.qparams_read
        assert after == _run(graph, weights, _fresh(plan), inputs)
        if moves_logits:
            assert after[0] != before[0]

    @pytest.mark.parametrize("layer", ["embed.ln", "block0.softmax", "block1.gelu"])
    def test_reassigned_candidate_runs_the_new_kernel(self, pipeline_result, inputs,
                                                      layer):
        # the compiled steps bind the candidate, so a plan whose assignments
        # changed in place, or with another assignments dict, recompiles
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        before = _run(graph, weights, plan, inputs)
        compiled = plan.compiled
        other = next(c for c in CANDIDATE_POOLS[plan.kinds[layer]]
                     if c != plan.assignments[layer])
        replaced = dataclasses.replace(plan, assignments={**plan.assignments, layer: other})
        plan.assignments[layer] = other
        after = _run(graph, weights, plan, inputs)
        assert plan.compiled is not compiled
        assert after == _run(graph, weights, _fresh(plan), inputs) != before
        assert _run(graph, weights, replaced, inputs) == after
        assert replaced.compiled is not compiled

    @pytest.mark.parametrize("edge, p, message", [
        ("block0.attn.scores", QParams(0.3, 0, 16, "asymmetric"), "softmax kernels need"),
        ("block0.softmax", QParams(0.37, 5, 8, "asymmetric"), "softmax kernels write"),
        ("block0.softmax", QParams(1.0 / 64, 0, 8, "asymmetric"), "softmax kernels write"),
    ], ids=["input_off_the_dyadic_grid", "output_off_the_grid", "output_of_7_bits_on_8"])
    def test_softmax_grid_refusals_name_the_edge(self, pipeline_result, edge, p, message):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        plan.qparams[edge] = p
        with pytest.raises(ValueError, match=f"^block0.softmax: {message}"):
            compile_plan(graph, weights, plan)

    def test_ctx_reads_the_plans_probability_grid(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        read = dict(compile_plan(graph, weights, plan).qparams_read)
        for op in graph.ops:
            if op.op == "ctx":
                P = _Reads(plan.qparams)
                pl._step(op, graph, plan, P, weights)
                assert read[op.inputs[0]] is P.seen[op.inputs[0]] is plan.qparams[op.inputs[0]]
                assert op.inputs[0].endswith(".softmax")

    MISFITS = pytest.mark.parametrize("change, named", [
        (lambda p: p.qparams.pop("block1.res1"), "no entries for ['block1.res1']"),
        (lambda p: p.assignments.pop("block0.gelu"), "no entries for ['block0.gelu']"),
        (lambda p: p.assignments.update({"block0.softmax": "shift_gelu"}),
         "block0.softmax is assigned 'shift_gelu'"),
        (lambda p: p.assignments.update({"block0.gelu": "log2_scale"}),
         "block0.gelu is assigned 'log2_scale'"),
        (lambda p: p.qparams.update({"block9.res1": p.qparams["block1.res1"]}),
         "entries for ['block9.res1'], which the plan's model lacks"),
        (lambda p: p.assignments.update({"block9.gelu": "shift_gelu"}),
         "entries for ['block9.gelu'], which the plan's model lacks"),
    ], ids=["lacks_an_edge", "lacks_a_layer", "softmax_given_a_gelu_kernel",
            "gelu_given_a_layernorm_kernel", "extra_edge", "extra_layer"])

    @MISFITS
    def test_plan_that_does_not_fit_the_model_is_refused(self, pipeline_result, inputs,
                                                         change, named):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        change(plan)
        with pytest.raises(ValueError, match=re.escape(named)):
            integer_forward(graph, weights, plan, inputs[0])

    @MISFITS
    def test_plan_edited_after_a_first_call_is_refused(self, pipeline_result, inputs,
                                                       change, named):
        # an in-place edit of a compiled plan goes through the same gate
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        integer_forward(graph, weights, plan, inputs[0])
        change(plan)
        with pytest.raises(ValueError, match=re.escape(named)):
            integer_forward(graph, weights, plan, inputs[0])

    def test_zero_weight_row_keeps_its_zero_multiplier(self, pipeline_result, inputs):
        # an all-zero row's multiplier rounds to 0 and scales nothing, so it
        # is legal where any other row's 0 is refused
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        changed = dict(weights)
        changed["block0.attn.wq"] = np.array(weights["block0.attn.wq"])
        changed["block0.attn.wq"][3] = 0.0
        # the multiplier the step requantizes with
        step = compile_plan(graph, changed, plan).steps[
            [op.out for op in graph.ops].index("block0.attn.q")]
        seen, real = [], pl.requantize

        def requantize(km, acc, m, *rest):
            seen.append(m)
            return real(km, acc, m, *rest)
        with mock.patch.object(pl, "requantize", requantize):
            step(OpCounter(), np.zeros((1, graph.tokens, graph.embed_dim), dtype=np.int32))
        (mult,) = seen
        assert mult[3] == 0 and np.all(np.delete(mult, 3) > 0)
        out, counter = integer_forward(graph, changed, plan, inputs[0])
        assert counter.float_violations == 0 and np.all(np.isfinite(out.values))

    def test_toy_weights_are_read_only(self):
        _, weights = build_toy_vit({"blocks": 1})
        for name, arr in weights.items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            weights["block0.attn.wq"][0, 0] = 1.0
        with pytest.raises(ValueError):
            weights["pos"] += 1.0

    def test_serialized_plan_unchanged_by_forward(self, pipeline_result, inputs,
                                                  tmp_path):
        (plan, table, graph, weights), cfg = pipeline_result
        plan = _fresh(plan)
        before = json.dumps(plan_to_dict(plan))
        save_plan(plan, tmp_path / "before.json")
        _run(graph, weights, plan, inputs)
        assert plan.compiled is not None
        assert json.dumps(plan_to_dict(plan)) == before
        save_plan(plan, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()

    def test_threads_share_one_plan(self, pipeline_result, inputs):
        (plan, table, graph, weights), cfg = pipeline_result
        want = _run(graph, weights, _fresh(plan), inputs)
        shared = _fresh(plan)   # uncompiled, so the threads race to compile it
        results = [None] * 4

        def work(i):
            results[i] = [_run(graph, weights, shared, inputs) for _ in range(3)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for runs in results:
            assert runs == [want] * 3


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 300) | st.integers()
                 | st.floats() | st.text(max_size=6)
                 | st.sampled_from(STAGE1_MODES + sum(CANDIDATE_POOLS.values(), ())))
_CONFIG_KEYS = ("model", "bits", "calib", "metric", "pools", "seed", "stage1_mode",
                "taylor_degree", "blocks", "embed_dim", "heads", "tokens", "mlp_ratio",
                "classes", "weights", "activations", "batches", "batch_size",
                "db_convention", "standardize", "softmax", "gelu", "layernorm")
_PLAN_KEYS = ("model_config", "assignments", "qparams", "omega", "warnings",
              "layer_id", "kind", "candidate", "score", "q_db", "p", "c", "scale",
              "zero_point", "bits", "scheme", "granularity", "act_bits", "pools")


def _json_values(keys):
    """JSON-shaped values (as json.load gives them, infinities included)
    whose object keys are mostly the schema's own."""
    return st.recursive(
        _JSON_SCALARS,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.sampled_from(keys) | st.text(max_size=4),
                                         inner, max_size=5)),
        max_leaves=20)


# a plan's JSON with one entry of each list, written without running the pipeline
_BASE_PLAN = plan_to_dict(AssignmentPlan(
    PipelineConfig(pools={"softmax": ("shiftmax", "iexp_softmax")}),
    assignments={"block0.softmax": "shiftmax"}, kinds={"block0.softmax": "softmax"},
    scores={"block0.softmax": MetricScore(12.5, 0.25, 4096, 0.5)},
    qparams={INPUT: QParams(0.05, 120, 8, "asymmetric")}))


def _with(base, path, value):
    d = copy.deepcopy(base)
    node = d
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return d


@st.composite
def _mutated(draw, base):
    """``base`` with one to three of its values replaced or keys dropped."""
    d = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        node = d
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            k = draw(st.sampled_from(keys))
            if isinstance(node[k], (dict, list)) and node[k] and draw(st.booleans()):
                node = node[k]
                continue
            if isinstance(node, dict) and draw(st.booleans()):
                del node[k]
            else:
                node[k] = draw(_json_values(_PLAN_KEYS))
            break
    return d


class TestPlanSerialization:
    def test_round_trip(self, pipeline_result, tmp_path):
        (plan, table, graph, weights), cfg = pipeline_result
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        back = load_plan(path)
        assert back.assignments == plan.assignments
        assert back.kinds == plan.kinds
        assert set(back.qparams) == set(plan.qparams)
        x = rng_tensor(8, [graph.tokens, graph.embed_dim], "normal", 0.0, 1.0).values
        a, _ = integer_forward(graph, weights, plan, x)
        b, _ = integer_forward(graph, weights, back, x)
        assert a == b

    def test_schema_fields(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        d = plan_to_dict(plan)
        assert set(d) == {"model_config", "assignments", "qparams", "omega", "warnings"}
        entry = d["assignments"][0]
        assert set(entry) == {"layer_id", "kind", "candidate", "score", "q_db", "p", "c"}
        qp = d["qparams"][0]
        assert set(qp) == {"layer_id", "scale", "zero_point", "bits", "scheme", "granularity"}
        json.dumps(d)  # strictly serializable

    @pytest.mark.parametrize("pools", [None, {"softmax": ["shiftmax"]},
                                       {"gelu": ["shift_gelu", "ibert_gelu"],
                                        "layernorm": ["log2_scale"]}])
    def test_config_round_trips(self, pools):
        raw = {"model": {"blocks": 1}, "seed": 3}
        if pools is not None:
            raw["pools"] = pools
        cfg = config_from_dict(raw)
        back = plan_from_dict(json.loads(json.dumps(plan_to_dict(AssignmentPlan(cfg)))))
        assert back.config == cfg

    @pytest.mark.parametrize("path, value, field", [
        (("model_config", "act_bits"), 3.5, "bits.activations"),
        (("model_config", "blocks"), float("inf"), "model.blocks"),
        (("model_config", "depth"), 3, "depth"),
        (("assignments", 0, "c"), float("inf"), "OverflowError"),
        (("qparams", 0, "scale"), 10 ** 400, "OverflowError"),
        (("qparams", 0, "granularity"), "per_channel", "per_tensor.*'per_channel'"),
        (("qparams", 0, "scale"), [0.05, 0.05], r"scale.*\[0.05, 0.05\]"),
        (("qparams", 0, "zero_point"), [120, 120], r"zero point.*\[120, 120\]"),
    ], ids=["float_bits", "inf_blocks", "unknown_field", "inf_cost", "huge_scale",
            "per_channel", "list_scale", "list_zero_point"])
    def test_malformed_plan_raises_plan_format_error(self, path, value, field):
        with pytest.raises(PlanFormatError, match=field):
            plan_from_dict(_with(_BASE_PLAN, path, value))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_json_values(_PLAN_KEYS), _mutated(_BASE_PLAN)))
    def test_any_dict_gives_a_plan_or_plan_format_error(self, raw):
        try:
            got = plan_from_dict(raw)
        except PlanFormatError:
            return
        assert isinstance(got, AssignmentPlan)
        for name, _ in pl._CONFIG_FIELDS.values():
            assert type(getattr(got.config, name)) is type(getattr(PipelineConfig, name))

    def test_taylor_degree_one_beats_two_on_metric(self):
        # the first-degree fraction wins the unified score on a seeded
        # configuration: same sensitivity ballpark, strictly lower cost
        cfg1 = small_cfg(calib_batches=1, taylor_degree=1)
        cfg2 = small_cfg(calib_batches=1, taylor_degree=2)
        graph, weights = build_toy_vit(cfg1.model_config())
        calib = calibration_batches(cfg1)
        t1 = stage1_analyze(graph, weights, calib, cfg1)
        t2 = stage1_analyze(graph, weights, calib, cfg2)

        def eff_scores(t):
            return {l: ms.score for l, _, c, ms in t.entries
                    if c == "efficient_bit_softmax"}

        s1, s2 = eff_scores(t1), eff_scores(t2)
        assert any(s1[l] >= s2[l] for l in s1)


class TestConfigParsing:
    def test_full_config(self):
        cfg = config_from_dict({
            "model": {"blocks": 3, "embed_dim": 16, "heads": 2, "tokens": 4,
                      "mlp_ratio": 2, "classes": 5},
            "bits": {"weights": 8, "activations": 8},
            "calib": {"batches": 2, "batch_size": 4},
            "metric": {"db_convention": "power10", "standardize": True},
            "seed": 11,
        })
        assert cfg.blocks == 3 and cfg.classes == 5 and cfg.standardize
        assert cfg.seed == 11

    def test_unknown_field_names_path(self):
        with pytest.raises(ConfigError, match="model.depth"):
            config_from_dict({"model": {"depth": 3}})

    def test_type_error_names_path(self):
        with pytest.raises(ConfigError, match="bits.weights"):
            config_from_dict({"bits": {"weights": "eight"}})

    def test_pool_override(self):
        cfg = config_from_dict({"pools": {"softmax": ["shiftmax"]}})
        graph, _ = build_toy_vit(cfg.model_config(), pools=cfg.pools)
        for rec in graph.layers:
            if rec.kind == "softmax":
                assert rec.candidates == ("shiftmax",)

    @settings(max_examples=300, deadline=None)
    @given(_json_values(_CONFIG_KEYS))
    def test_any_json_gives_a_config_or_config_error(self, raw):
        try:
            cfg = config_from_dict(raw)
        except ConfigError:
            return
        assert isinstance(cfg, PipelineConfig)
