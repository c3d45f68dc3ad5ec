import copy
import dataclasses
import json
import re
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intquant.metric import (INF_DB, MetricScore, MetricTable, perturbation,
                             sample_energies, sqnr, unified_score)
from intquant.model import (CANDIDATE_POOLS, INPUT, MODEL_FIELDS, build_toy_vit, float_edges,
                            forward_float, merge_heads, split_heads)
import intquant.pipeline as pl
from intquant.pipeline import (AssignmentPlan, ConfigError,
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
                               encode_dyadic_multiplier, qparams_from_range, quantize,
                               requant_weight_per_channel, requantize)
from intquant.tensor import KernelMath, KernelOverflowError, OpCounter, Tensor, rng_tensor


def small_cfg(**kw):
    base = dict(blocks=2, embed_dim=32, heads=2, tokens=8, mlp_ratio=2,
                calib_batches=2, calib_batch_size=4)
    base.update(kw)
    return PipelineConfig(**base)


def _params(cand, gamma=None, beta=None, taylor=1):
    """The keywords ``cand``'s table entry gives a layer of its kind with
    LayerNorm weights ``gamma`` and ``beta`` at Taylor degree ``taylor``."""
    op = model_mod.Op("layer", model_mod.CANDIDATES[cand].kind, ("x",), ("gamma", "beta"))
    return model_mod.CANDIDATES[cand].params(op, {"gamma": gamma, "beta": beta},
                                             small_cfg(taylor_degree=taylor))


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

    @pytest.mark.parametrize("field", list(MODEL_FIELDS))
    def test_dimensions_past_their_maximum_are_refused(self, field):
        hi = MODEL_FIELDS[field][2]
        with pytest.raises(ValueError, match=f"^{field} must be in"):
            build_toy_vit({field: hi + 1})
        with pytest.raises(ConfigError, match=f"^model.{field} must be in"):
            config_from_dict({"model": {field: hi + 1}})
        assert getattr(config_from_dict({"model": {field: hi}}), field) == hi

    @pytest.mark.parametrize("model", [
        {"blocks": 12, "embed_dim": 192, "heads": 3, "tokens": 64},
        {"blocks": 12, "embed_dim": 384, "heads": 6, "tokens": 197, "mlp_ratio": 4,
         "classes": 1000},
    ], ids=["vit-s-like", "vit-s-16"])
    def test_maxima_admit_vit_s_shapes(self, model):
        config_from_dict({"model": model})

    def test_candidate_pools_match_kind(self):
        graph, _ = build_toy_vit({"blocks": 1, "embed_dim": 16, "heads": 2,
                                  "tokens": 4, "mlp_ratio": 2})
        for rec in graph.layers:
            assert rec.candidates == CANDIDATE_POOLS[rec.kind]

    def test_forward_is_the_last_edge_of_the_one_batch_pass(self):
        graph, weights = build_toy_vit({"blocks": 2, "embed_dim": 16, "heads": 2,
                                        "tokens": 4, "mlp_ratio": 2})
        x = rng_tensor(0, [4, 16], "normal", 0.0, 1.0).values
        cap = capture_calibration(graph, weights, [x])
        logits = forward_float(graph, weights, x)
        assert logits.shape == (10,)
        assert tuple(cap) == graph.edges
        np.testing.assert_array_equal(cap["logits"][0], logits)
        np.testing.assert_array_equal(forward_float(graph, weights, x[None]), cap["logits"])

    def test_one_batch_pass_joins_nothing(self):
        # over one float64 batch the batch is the input edge, uncopied, and
        # the pass reads it without writing it
        graph, weights = build_toy_vit({"blocks": 2, "embed_dim": 16, "heads": 2,
                                        "tokens": 4, "mlp_ratio": 2})
        x = rng_tensor(0, [3, 4, 16], "normal", 0.0, 1.0).values.astype(np.float64)
        env = {}
        for _ in float_edges(graph, weights, [x], env):
            pass
        assert np.shares_memory(env[INPUT], x)
        np.testing.assert_array_equal(forward_float(graph, weights, x.copy()), env["logits"])

    def test_joined_input_is_freed_once_dead(self):
        # the walk keeps no reference of its own to an edge, so after each
        # drop of a dead edge from env every array still alive is the buffer
        # of a live edge: the input joined from batches is freed, and the
        # scores live on only as the probabilities the softmax wrote over them
        graph, weights = build_toy_vit({"blocks": 1, "embed_dim": 16, "heads": 2,
                                        "tokens": 4, "mlp_ratio": 2})
        xs = [rng_tensor(i, [2, 4, 16], "normal", 0.0, 1.0).values for i in (1, 2)]
        env, refs = {}, []
        for edge, dead in float_edges(graph, weights, xs, env):
            refs.append(weakref.ref(env[edge]))
            for e in dead:
                del env[e]
                assert all(ref() is None or any(ref() is v for v in env.values())
                           for ref in refs), e
        assert list(env) == ["logits"]

    @pytest.mark.parametrize("edge", ["block0.attn.q", "block0.attn.scores", "block0.res1"])
    def test_each_batch_is_written_into_its_rows_of_the_edge(self, edge):
        # over four batches, the op allocates its joined edge and nothing
        # beside it as large as half one batch's output (128 KiB for q and
        # res1, twice numpy's 64 KiB ufunc buffer): no batch's output waits
        # in an array of its own to be copied in
        graph, weights = build_toy_vit({"blocks": 1, "embed_dim": 64, "heads": 4,
                                        "tokens": 64, "mlp_ratio": 2})
        xs = [rng_tensor(i, [8, 64, 64], "normal", 0.0, 1.0).values for i in range(4)]
        env = {}
        walk = float_edges(graph, weights, xs, env)
        for _ in range(graph.edges.index(edge)):
            next(walk)
        tracemalloc.start()
        try:
            assert next(walk)[0] == edge
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        joined = env[edge].nbytes
        assert peak < joined + joined // len(xs) // 2

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
        # every edge is bit-identical to the one-batch passes' joined, and
        # the logits to forward_float's, batch by batch
        cfg = small_cfg(calib_batches=3, calib_batch_size=2)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        per_batch = [capture_calibration(graph, weights, [batch]) for batch in calib]
        got = capture_calibration(graph, weights, calib)
        assert tuple(got) == graph.edges
        for edge in graph.edges:
            np.testing.assert_array_equal(got[edge],
                                          np.concatenate([cap[edge] for cap in per_batch]))
        np.testing.assert_array_equal(
            got["logits"], np.concatenate([forward_float(graph, weights, b) for b in calib]))

    def test_each_captured_edge_is_its_op_on_the_captured_inputs(self):
        # the float softmax writes over its scores, so capture_calibration
        # must keep them apart: each kept edge is its op's float function on
        # the kept input edges, batch by batch (the scores edge is q @ k.T,
        # not the probabilities)
        cfg = small_cfg(calib_batches=3, calib_batch_size=2)
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        cap = capture_calibration(graph, weights, calib)
        assert set(graph.in_place.items()) == {(f"block{i}.softmax", f"block{i}.attn.scores")
                                               for i in range(cfg.blocks)}
        for op in graph.ops:
            fn, ws = model_mod._FLOAT_OPS[op.op], [weights[k] for k in op.weights]
            want = np.concatenate([fn(graph, *(cap[e][sl] for e in op.inputs), *ws)
                                   for sl in model_mod.batch_rows(graph, calib)])
            np.testing.assert_array_equal(cap[op.out], want, err_msg=op.out)

    def test_softmax_is_the_textbook_formula_bit_for_bit(self):
        x = rng_tensor(5, [3, 2, 7, 7], "normal", 0.0, 4.0).values.astype(np.float64)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(model_mod._softmax(x), e / e.sum(axis=-1, keepdims=True))


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
        # more workers than cores and a short switch interval: results
        # folded in any other than slice order, or read from another
        # candidate's tasks, would change a q_db, p or c
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
        # workers each holding one slice of a candidate's scratch
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

    def test_scoring_a_layer_holds_less_than_its_reference(self, monkeypatch):
        # each (candidate, slice) task reduces its residual to one energy per
        # sample in slice-sized scratch, so the softmax layer's scoring, with
        # two workers, allocates less than one whole-set float64 array of
        # the layer (two residual buffers in flight would be twice that)
        cfg = small_cfg(blocks=1, tokens=128, embed_dim=64, heads=8,
                        calib_batches=4, calib_batch_size=8)
        graph, weights = build_toy_vit(cfg.model_config())
        calib, seen, entry = calibration_batches(cfg), [], []

        # the softmax layer's scoring runs from its reference power (taken
        # before any candidate runs) to its first candidate's score (folded
        # once all its tasks are done)
        def power(ref, _fn=pl.signal_power):
            out = _fn(ref)
            if ref.ndim == 4:
                entry.append((tracemalloc.get_traced_memory()[0], ref.nbytes))
                tracemalloc.reset_peak()
            return out

        def measured(results, samples, size, power, _fn=pl._measured):
            if entry and not seen:
                (start, ref_bytes), = entry
                assert size * 8 == ref_bytes
                seen.append((tracemalloc.get_traced_memory()[1] - start, ref_bytes))
            return _fn(results, samples, size, power)
        monkeypatch.setattr(pl, "signal_power", power)
        monkeypatch.setattr(pl, "_measured", measured)
        tracemalloc.start()
        try:
            stage1_analyze(graph, weights, calib, cfg, jobs=2)
        finally:
            tracemalloc.stop()
        [(peak, ref_bytes)] = seen
        assert ref_bytes == 32 * 8 * 128 * 128 * 8
        assert peak < ref_bytes

    def test_softmax_layer_holds_its_attention_once(self):
        # the scores are quantized before the softmax writes its
        # probabilities over them, and the power is summed block by block,
        # so the float scores, the probabilities and their square are never
        # alive together: the pass holds about the probabilities, the codes
        # and the workers' slice scratch
        cfg = small_cfg(blocks=1, tokens=128, embed_dim=64, heads=8,
                        calib_batches=4, calib_batch_size=8)
        probs = cfg.calib_batches * cfg.calib_batch_size * cfg.heads * cfg.tokens ** 2 * 8
        tracemalloc.start()
        try:
            run_pipeline(cfg, jobs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * probs

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
            p_in = qparams[op.inputs[0]]
            run = pl._runner(op, cand, p_in, qparams[lid], weights, cfg)
            counter = OpCounter()
            run(counter, pl.quantize(cat[op.inputs[0]], p_in).codes)
            assert ms.c == round(counter.total() / samples), (lid, cand)

    @pytest.mark.parametrize("kw", [
        {},
        {"taylor_degree": 2, "pools": {"softmax": ("efficient_bit_softmax",),
                                       "layernorm": ("log2_scale",)}},
    ], ids=["local", "taylor-degree-2"])
    def test_c_is_the_compiled_steps_count(self, kw):
        # stage 1 measures the step that inference runs: the c of each
        # layer's plan candidate is the op count per sample of the layer's
        # compiled step on the codes stage 1 ran it on, its calibration input
        # quantized under table.calibration (the plan's grid differs after a
        # log2_scale layer, which the plan snaps)
        cfg = small_cfg(**kw)
        plan, table, graph, weights = run_pipeline(cfg)
        steps = dict(zip((op.out for op in graph.ops), compile_plan(graph, weights, plan).steps))
        cat = capture_calibration(graph, weights, calibration_batches(cfg))
        qparams = table.calibration[0]
        samples = cfg.calib_batches * cfg.calib_batch_size
        for op in (op for op in graph.ops if op.out in plan.assignments):
            counter = OpCounter()
            steps[op.out](counter, quantize(cat[op.inputs[0]], qparams[op.inputs[0]]).codes)
            assert plan.scores[op.out].c == round(counter.total() / samples), op.out

    def test_each_candidate_is_bound_once(self, monkeypatch):
        # each (layer, candidate) is bound once, under the input and output
        # quantizers calibrate_edges takes from the whole calibration set
        cfg = small_cfg()
        graph, weights = build_toy_vit(cfg.model_config())
        calib = calibration_batches(cfg)
        qparams, _ = pl.calibrate_edges(graph, capture_calibration(graph, weights, calib), cfg)
        ops = {op.out: op for op in graph.ops}
        seen = {}

        def spy(op, cand, p_in, p_out, *args, _fn=pl._runner):
            seen.setdefault((op.out, cand), []).append((p_in, p_out))
            return _fn(op, cand, p_in, p_out, *args)

        monkeypatch.setattr(pl, "_runner", spy)
        stage1_analyze(graph, weights, calib, cfg)
        assert seen == {(rec.layer_id, cand): [(qparams[ops[rec.layer_id].inputs[0]],
                                                qparams[rec.layer_id])]
                        for rec in graph.layers for cand in rec.candidates}


class TestStage1Slices:
    """Stage 1 runs every candidate slice by slice; one-sample slices must
    give what one whole-set call gives."""

    @pytest.mark.parametrize("tokens", [8, 64])
    def test_one_sample_slices_give_the_same_table(self, monkeypatch, tokens):
        cfg = small_cfg(tokens=tokens)
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
                    p_in = qparams[op.inputs[0]]
                    run = pl._runner(op, cand, p_in, qparams[op.out], weights, cfg)
                    codes = pl._input_codes(cat[op.inputs[0]], p_in)
                    out = np.concatenate([dequantize_np(run(counter, codes[sl]))
                                          for sl in pl._slices(codes)])
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_overflowed_slice_keeps_its_partial_count(self, monkeypatch, jobs):
        # the slice of the second sample overflows after its kernel has
        # charged ops: c counts the first slice and that partial count
        cfg = small_cfg(blocks=1, calib_batches=1)
        graph, weights = build_toy_vit(cfg.model_config())
        monkeypatch.setattr(pl, "STAGE1_SLICE_ELEMENTS", 1)
        lid = "block0.softmax"
        op = next(o for o in graph.ops if o.out == lid)
        cat = capture_calibration(graph, weights, calibration_batches(cfg))
        qparams, _ = pl.calibrate_edges(graph, cat, cfg)
        codes = pl._input_codes(cat[op.inputs[0]], qparams[op.inputs[0]])
        counts = [OpCounter(), OpCounter()]
        for counter, sl in zip(counts, (slice(0, 1), slice(1, 2))):
            pl.run_softmax_candidate("shiftmax", QTensor(codes[sl], qparams[op.inputs[0]]),
                                     qparams[lid], counter)

        def overflows_once_charged(cand, q, *args, _fn=pl.run_softmax_candidate, **kw):
            out = _fn(cand, q, *args, **kw)
            if cand == "shiftmax" and np.array_equal(q.codes, codes[1:2]):
                raise KernelOverflowError("synthetic")
            return out

        monkeypatch.setattr(pl, "run_softmax_candidate", overflows_once_charged)
        table = stage1_analyze(graph, weights, calibration_batches(cfg), cfg, jobs=jobs)
        [got] = [ms for _, _, c, ms in table.entries if c == "shiftmax"]
        assert got.score == 0.0 and counts[1].total() > 0
        assert got.c == round((counts[0].total() + counts[1].total()) / len(codes))


    @pytest.mark.parametrize("zero_point", [0, 37])
    def test_energies_are_the_dequantized_outputs(self, zero_point):
        # scored in the dequantized output's own buffer, bit for bit
        rng = np.random.default_rng(zero_point)
        params = QParams(0.0123, zero_point, 8, "asymmetric")
        out = rng.integers(0, 255, size=(6, 4, 8))
        ref = rng.standard_normal((6, 4, 8))

        def run(counter, codes):
            counter.adds += codes.size
            return QTensor(out[:len(codes)] + codes, params)

        codes, sl = rng.integers(0, 2, size=(6, 4, 8)), slice(2, 5)
        energies, ops = pl._score_slice(run, codes, ref, sl)
        want = sample_energies(ref[sl], dequantize_np(QTensor(out[:3] + codes[sl], params)))
        assert energies.tobytes() == want.tobytes() and ops == 3 * 4 * 8


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
            out = pl.run_candidate(cand, q, qparams[lid], counter,
                                   **model_mod.CANDIDATES[cand].params(op, weights, cfg))
            ref, got = cat[lid], dequantize_np(out)
            q_db, p = sqnr(ref, got), perturbation(ref, got)
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


def _thread_spies(monkeypatch):
    """{float op kind or "quantize": set of whether each call ran on the
    calling thread}, filled by spies on model._FLOAT_OPS and pl.quantize."""
    caller, seen = threading.get_ident(), {}

    def spy(key, fn):
        def call(*args, **kw):
            seen.setdefault(key, set()).add(threading.get_ident() == caller)
            return fn(*args, **kw)
        return call
    for kind, fn in list(model_mod._FLOAT_OPS.items()):
        monkeypatch.setitem(model_mod._FLOAT_OPS, kind, spy(kind, fn))
    monkeypatch.setattr(pl, "quantize", spy("quantize", pl.quantize))
    return seen


class TestStage1FloatPassOnWorkers:
    """With workers, stage 1 maps the float pass's per-batch calls of an op
    of at least one slice, and the slices of a layer's input quantization,
    onto them; the table and the calibration are those of jobs=1."""

    @staticmethod
    def _model(cfg):
        graph, weights = build_toy_vit(cfg.model_config())
        # a constant edge, so that the calibration records a warning
        weights = {**weights, "block0.mlp.w2": np.zeros_like(weights["block0.mlp.w2"])}
        return graph, weights, calibration_batches(cfg)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_across_the_gate_workers_give_the_serial_table(self, monkeypatch, jobs):
        # 4: more workers than cores, with a short switch interval
        cfg = small_cfg(calib_batches=3, calib_batch_size=2)
        graph, weights, calib = self._model(cfg)
        # each edge inside the blocks holds 6 x 8 x 32 or more elements
        monkeypatch.setattr(pl, "STAGE1_SLICE_ELEMENTS", 300)
        serial = stage1_analyze(graph, weights, calib, cfg, jobs=1)
        seen = _thread_spies(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mapped = stage1_analyze(graph, weights, calib, cfg, jobs=jobs)
        finally:
            sys.setswitchinterval(interval)
        # every call ran on the workers but the head's: its input (6 x 32)
        # and output (6 x 10) hold less than one slice
        assert seen == {**{k: {False} for k in (*model_mod._FLOAT_OPS, "quantize")},
                        "linear": {False, True}}
        assert len(mapped) == len(serial) == 29
        for (l, k, c, got), (wl, wk, wc, want) in zip(mapped.entries, serial.entries):
            assert (l, k, c) == (wl, wk, wc)
            assert (got.q_db, got.p, got.c, got.score) == \
                   (want.q_db, want.p, want.c, want.score)
        assert serial.calibration[1], "no warning to compare"
        assert mapped.calibration == serial.calibration

    def test_below_the_gate_everything_stays_on_the_calling_thread(self, monkeypatch):
        # the README config: no edge holds a slice
        cfg = PipelineConfig()
        graph, weights, calib = self._model(cfg)
        seen = _thread_spies(monkeypatch)
        stage1_analyze(graph, weights, calib, cfg, jobs=2)
        assert seen == {k: {True} for k in (*model_mod._FLOAT_OPS, "quantize")}

    def test_capture_is_the_pass_on_a_pool_byte_for_byte(self, monkeypatch):
        # capture_calibration stays serial, and a pool's map gives its edges
        cfg = small_cfg(calib_batches=3, calib_batch_size=2, tokens=16)
        graph, weights, calib = self._model(cfg)
        seen = _thread_spies(monkeypatch)
        captured = capture_calibration(graph, weights, calib)
        assert seen == {k: {True} for k in model_mod._FLOAT_OPS}
        env, mapped = {}, {}
        with ThreadPoolExecutor(max_workers=2) as pool:
            for edge, _ in float_edges(graph, weights, calib, env, pool.map):
                mapped[edge] = env[edge].copy()
        assert seen == {k: {True, False} for k in model_mod._FLOAT_OPS}
        assert list(mapped) == list(captured) == list(graph.edges)
        for edge, arr in captured.items():
            assert (arr.dtype, arr.shape) == (mapped[edge].dtype, mapped[edge].shape), edge
            assert arr.tobytes() == mapped[edge].tobytes(), edge


_OPENBLAS = pl._openblas_threads()
needs_openblas = pytest.mark.skipif(_OPENBLAS is None, reason="numpy loaded no OpenBLAS")


class TestStage1BlasThreads:
    """With workers, stage 1 holds numpy's OpenBLAS to one thread and gives
    its thread count back when it returns or raises; without them, or
    without an OpenBLAS, it leaves BLAS alone."""

    @pytest.fixture
    def blas_count(self):
        get, put = _OPENBLAS
        before = get()
        put(2)   # a count stage 1 must change, on any machine
        yield get
        put(before)

    @staticmethod
    def _stage1(jobs):
        cfg = small_cfg(tokens=64)
        graph, weights = build_toy_vit(cfg.model_config())
        return stage1_analyze(graph, weights, calibration_batches(cfg), cfg, jobs=jobs)

    @needs_openblas
    @pytest.mark.parametrize("jobs,inside", [(2, 1), (1, 2)])
    def test_tasks_see_one_thread_only_with_workers(self, blas_count, monkeypatch,
                                                    jobs, inside):
        seen = []

        def recording(*args, _fn=pl._score_slice):
            seen.append(blas_count())
            return _fn(*args)

        monkeypatch.setattr(pl, "_score_slice", recording)
        self._stage1(jobs)
        assert seen and set(seen) == {inside}
        assert blas_count() == 2

    @needs_openblas
    def test_the_count_comes_back_when_stage1_raises(self, blas_count, monkeypatch):
        monkeypatch.setattr(pl, "_score_slice", mock.Mock(side_effect=RuntimeError("task")))
        with pytest.raises(RuntimeError, match="task"):
            self._stage1(2)
        assert blas_count() == 2

    @needs_openblas
    def test_a_float_op_failing_on_a_worker_propagates(self, blas_count, monkeypatch):
        # every op is on the workers; the GELU's float function raises there
        monkeypatch.setattr(pl, "STAGE1_SLICE_ELEMENTS", 1)
        caller, calls = threading.get_ident(), []

        def fails_on_a_worker(*args, _fn=model_mod._FLOAT_OPS["gelu"], **kw):
            calls.append(threading.get_ident())
            if threading.get_ident() != caller:
                raise RuntimeError("float op")
            return _fn(*args, **kw)

        monkeypatch.setitem(model_mod._FLOAT_OPS, "gelu", fails_on_a_worker)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="float op"):
            self._stage1(2)
        assert calls and caller not in calls
        assert blas_count() == 2
        assert threading.active_count() == threads   # the workers are gone

    def test_runs_unchanged_where_no_openblas_is_found(self, monkeypatch):
        want = self._stage1(2).entries
        before = _OPENBLAS and _OPENBLAS[0]()
        monkeypatch.setattr(pl, "_openblas_threads", lambda: None)
        assert self._stage1(2).entries == want
        assert (_OPENBLAS and _OPENBLAS[0]()) == before

    def test_nested_and_concurrent_holds_restore_once(self, monkeypatch):
        count = [3]
        monkeypatch.setattr(pl, "_openblas_threads",
                            lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
        hold, wrong = pl._OneBlasThread(), []
        with hold:
            with hold:
                pass
            assert count[0] == 1
        assert count[0] == 3

        def holder():
            for _ in range(300):
                with hold:
                    if count[0] != 1:
                        wrong.append(count[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=holder) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong and count[0] == 3


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
        outs = [pl.run_candidate(c, q, p_out, **_params(c, gamma, beta))
                for c in CANDIDATE_POOLS["gelu"] + CANDIDATE_POOLS["layernorm"]]
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
            out = pl.run_candidate(cand, q, p_out, **_params(cand, taylor=taylor))
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
    p_out = (sm_mod.softmax_out_params(8) if kind == "softmax"
             else qparams_from_range(2.0, -1.0, 8))
    for dtype in (np.int32, np.int64):
        q = QTensor(rng.integers(0, p_in.qmax + 1, size=(2, 3, 16)).astype(dtype), p_in)
        for cand in CANDIDATE_POOLS[kind]:
            out = pl.run_candidate(cand, q, p_out, **_params(cand, np.ones(16), np.zeros(16)))
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
        # calibrating with the plan's own parameters, snapped ones included,
        # changes nothing
        (plan, table, graph, weights), cfg = pipeline_result
        again = stage3_calibrate(copy.copy(plan), (plan.qparams, plan.warnings))
        assert again.qparams == plan.qparams and again.warnings == plan.warnings

    def test_duplication_invariance(self, pipeline_result):
        # min and max are exact, so the calibration of calib + calib is
        # that of calib
        (plan, table, graph, weights), cfg = pipeline_result
        calib = calibration_batches(cfg)
        doubled = stage3_calibrate(
            copy.copy(plan),
            pl.calibrate_edges(graph, capture_calibration(graph, weights, calib + calib), cfg))
        for edge, p in plan.qparams.items():
            assert p.scale == pytest.approx(doubled.qparams[edge].scale)

    def test_envelopes_equal_per_batch_observation(self, pipeline_result):
        (plan, table, graph, weights), cfg = pipeline_result
        observers = {e: MinMaxObserver() for e in graph.edges}
        for batch in calibration_batches(cfg):
            for edge, arr in capture_calibration(graph, weights, [batch]).items():
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
        plan = stage3_calibrate(AssignmentPlan(cfg, assignments),
                                pl.calibrate_edges(graph, cat, cfg))
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
        with pytest.raises(ValueError, match="assignments"):
            stage3_calibrate(AssignmentPlan(config=small_cfg()), ({}, []))


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
            out = pl.run_candidate(cand, q, p_probs if kind == "softmax" else p_out, counter,
                                   **_params(cand, gamma, beta, taylor))
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


class TestIntegerEdges:
    """The integer pass is the float pass's walk over the compiled steps:
    one op list, one swap."""

    X = rng_tensor(21, [2, 8, 32], "normal", 0.0, 1.0).values.astype(np.float64)

    @pytest.fixture(scope="class")
    def toy(self):
        return run_pipeline(PipelineConfig())    # the toy-default plan

    @staticmethod
    def drained(edges, env):
        """The walk's yields, each one's dead edges dropped from ``env``."""
        seen = []
        for edge, dead in edges:
            seen.append((edge, dead))
            for e in dead:
                del env[e]
        return seen

    @staticmethod
    def logits(plan, env):
        return Tensor(dequantize_np(QTensor(env["logits"], plan.qparams["logits"])),
                      dtype="real32")

    def test_both_walks_yield_one_list(self, toy):
        plan, _, graph, weights = toy
        compiled = compile_plan(graph, weights, _fresh(plan))
        codes = quantize(self.X, plan.qparams[INPUT]).codes
        float_env, int_env = {}, {}
        walked = self.drained(float_edges(graph, weights, [self.X], float_env), float_env)
        counter = OpCounter()
        assert self.drained(pl.integer_edges(compiled, counter, codes, int_env),
                            int_env) == walked
        assert [edge for edge, _ in walked] == list(graph.edges)
        assert list(float_env) == list(int_env) == ["logits"]
        want, want_counter = integer_forward(graph, weights, _fresh(plan), self.X)
        assert self.logits(plan, int_env) == want
        assert counter.as_dict() == want_counter.as_dict()

    def test_swap_is_the_plan_with_that_layer_reassigned(self, toy):
        # every (layer, candidate), bound as stage 1 and compile_plan bind
        # it, run in the walk of the plan's compiled steps, against a fresh
        # compile of the plan with that one assignment changed (the same
        # parameters: stage 3 is not rerun)
        plan, _, graph, weights = toy
        compiled = compile_plan(graph, weights, _fresh(plan))
        codes = quantize(self.X, plan.qparams[INPUT]).codes
        own = integer_forward(graph, weights, _fresh(plan), self.X)
        ops = {op.out: op for op in graph.ops}
        swaps = 0
        for rec in graph.layers:
            op = ops[rec.layer_id]
            for cand in rec.candidates:
                run = pl._runner(op, cand, plan.qparams[op.inputs[0]], plan.qparams[op.out],
                                 weights, plan.config)
                counter, env = OpCounter(), {}
                self.drained(pl.integer_edges(compiled, counter, codes, env,
                                              swap=(rec.layer_id, run)), env)
                other = _fresh(plan)
                other.assignments[rec.layer_id] = cand
                want, want_counter = integer_forward(graph, weights, other, self.X)
                got = (self.logits(plan, env), counter.as_dict())
                assert got == (want, want_counter.as_dict()), (rec.layer_id, cand)
                if cand == plan.assignments[rec.layer_id]:
                    assert got == (own[0], own[1].as_dict()), rec.layer_id
                swaps += 1
        assert swaps == 29

    def test_swap_names_a_nonlinear_layer(self, toy):
        plan, _, graph, weights = toy
        compiled = compile_plan(graph, weights, _fresh(plan))
        codes = quantize(self.X, plan.qparams[INPUT]).codes
        for lid in ("block0.attn.q", "nowhere"):
            edges = pl.integer_edges(compiled, OpCounter(), codes, {}, (lid, abs))
            with pytest.raises(ValueError, match="not a non-linear layer"):
                next(edges)


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


def _reference_gemm(op, graph, plan, weights, args):
    """An int64 reference for the compiled ``linear``, ``scores`` or ``ctx``
    step ``op``: numpy's int64 matmul of the codes less their zero points
    (plus the bias codes for ``linear``), requantized with the multiplier
    the plan's scales give."""
    P, H = plan.qparams, graph.heads
    p_a, p_out = P[op.inputs[0]], P[op.out]
    a = args[0].astype(np.int64) - p_a.zero_point
    if op.op == "linear":
        bits = plan.config.weight_bits
        codes, s_w = requant_weight_per_channel(weights[op.weights[0]], bits)
        w = codes.astype(np.int64) - (1 << (bits - 1))
        bias = np.rint(weights[op.weights[1]] / (p_a.scale * s_w)).astype(np.int64)
        shift = 16 + max(0, bits - 8)
        m = np.rint((1 << shift) * p_a.scale * s_w / p_out.scale).astype(np.int64)
        return requantize(KernelMath(), np.matmul(a, w.T) + bias, m, shift, p_out)
    p_b = P[op.inputs[1]]
    b = split_heads(args[1].astype(np.int64) - p_b.zero_point, H)
    dyadic = encode_dyadic_multiplier(p_a.scale * p_b.scale / p_out.scale)
    if op.op == "scores":
        acc = np.matmul(split_heads(a, H), b.transpose(0, 1, 3, 2))
        return requantize(KernelMath(), acc, *dyadic, p_out)
    return merge_heads(requantize(KernelMath(), np.matmul(a, b), *dyadic, p_out))


@pytest.mark.parametrize("shape", [
    {}, {"weight_bits": 4}, {"weight_bits": 16}, {"act_bits": 12},
    {"blocks": 1, "embed_dim": 64, "heads": 4, "tokens": 64}],
    ids=["toy-default", "w4a8", "w16a8", "act-bits-12", "tokens-64"])
def test_gemm_steps_match_an_int64_reference(shape):
    # each input edge's codes at the ends of its interval and at random
    cfg = PipelineConfig(**{"calib_batches": 1, "calib_batch_size": 2, **shape})
    plan, _, graph, weights = run_pipeline(cfg, jobs=1)
    compiled = compile_plan(graph, weights, plan)
    shapes = capture_calibration(graph, weights, [np.zeros((2, cfg.tokens, cfg.embed_dim))])
    rng = np.random.default_rng(5)
    checked = set()
    for op, step in zip(graph.ops, compiled.steps):
        if op.op not in ("linear", "scores", "ctx"):
            continue
        for pattern in ("zeros", "qmax", "ends", "random"):
            args = []
            for e in op.inputs:
                qmax, dims = plan.qparams[e].qmax, shapes[e].shape
                codes = {"zeros": np.zeros(dims), "qmax": np.full(dims, qmax),
                         "ends": qmax * rng.integers(0, 2, dims),
                         "random": rng.integers(0, qmax + 1, dims)}[pattern]
                args.append(codes.astype(np.int32))
            np.testing.assert_array_equal(step(OpCounter(), *args),
                                          _reference_gemm(op, graph, plan, weights, args),
                                          err_msg=f"{op.out} {pattern}")
        checked.add(op.op)
    assert checked == {"linear", "scores", "ctx"}


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 300) | st.integers()
                 | st.floats() | st.text(max_size=6)
                 | st.sampled_from(sum(CANDIDATE_POOLS.values(), ())))
# the keys of removed fields (metric, stage1_mode, ...) stay: configs and
# plans that still carry them must be refused with a ConfigError
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
            "taylor_degree": 2,
            "seed": 11,
        })
        assert cfg.blocks == 3 and cfg.classes == 5 and cfg.taylor_degree == 2
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
