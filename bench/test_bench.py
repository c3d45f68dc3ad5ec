"""Tests for the benchmark's own arithmetic: the percentile rule, self time
over nested and threaded spans, and the op-count gate.

Run from the repository root: python3 -m pytest bench -q
"""

import time

import pytest

import run
import spans as sp
import workloads


def _span(id_, parent, start, end, **kw):
    return sp.Span(id_, parent, f"s{id_}", "r", start, end, **kw)


@pytest.mark.parametrize("n, q, want", [
    (100, 0.9, 89), (99, 0.9, None), (1000, 0.99, 989), (999, 0.99, None),
    (20, 0.5, 9), (19, 0.5, None), (0, 0.5, None),
])
def test_percentile_needs_ten_samples_beyond_it(n, q, want):
    samples = [float(i) for i in reversed(range(n))]
    assert run.tail_percentile(samples, q) == want


def test_self_time_subtracts_nested_and_overlapping_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),      # two children that ran at once on
        _span(3, 1, 3.0, 6.0),      # different threads: union [1, 6]
        _span(4, 2, 2.0, 3.0),      # grandchild, counted in span 2 only
        _span(5, 1, 8.0, 12.0),     # outlives its parent: clipped to [8, 10]
    ]
    got = sp.self_times(spans)
    assert got[1] == pytest.approx(10 - 5 - 2)
    assert got[2] == pytest.approx(3 - 1)
    assert got[3] == pytest.approx(3)
    assert got[4] == pytest.approx(1)
    assert got[5] == pytest.approx(4)


def test_spans_opened_in_pool_threads_find_their_parent():
    tracer = sp.Tracer()
    workers = 4

    def task(i):
        for _ in range(50):
            tracer.close(tracer.open("child", label=str(i)))
        span = tracer.open("sleeper")
        time.sleep(0.02)
        tracer.close(span)

    with tracer.request("req"):
        root = tracer.open("root")
        with sp.ContextThreadPool(max_workers=workers) as pool:
            for f in [pool.submit(task, i) for i in range(workers)]:
                f.result(timeout=10)
        tracer.close(root)

    assert len(tracer.spans) == workers * 51 + 1
    assert all(s.request == "req" for s in tracer.spans)
    assert all(s.parent == root.id for s in tracer.spans if s is not root)
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    covered = sp._union_length([(s.start, s.end) for s in tracer.spans if s is not root])
    assert sp.self_times(tracer.spans)[root.id] == pytest.approx(
        root.end - root.start - covered)


@pytest.fixture(scope="module")
def tiny():
    workloads.import_intquant()
    from intquant import pipeline as pl
    cfg = pl.PipelineConfig(blocks=1, embed_dim=8, heads=2, tokens=4,
                            calib_batches=1, calib_batch_size=4)
    plan, _, graph, weights = pl.run_pipeline(cfg)
    x = pl.calibration_batches(cfg, calib_seed=5)[0][:2]
    return pl, plan, graph, weights, x


def _traced_forward(tiny):
    from intquant.tensor import OpCounter
    pl, plan, graph, weights, x = tiny
    untraced = pl.integer_forward(graph, weights, plan, x)[1]
    tracer = sp.Tracer(OpCounter)
    tracer.install(run.library_targets())
    try:
        with tracer.request("infer-0"):
            pl.integer_forward(graph, weights, plan, x)
    finally:
        tracer.uninstall()
    expected = {"infer-0": {k: getattr(untraced, k) for k in sp.KINDS}}
    return tracer.spans, expected


def test_op_gate_is_exact_on_a_traced_forward(tiny):
    spans, expected = _traced_forward(tiny)
    assert sp.op_gate(spans, expected) == {}
    assert sum(expected["infer-0"].values()) > 0


def test_op_gate_catches_a_dropped_span(tiny):
    spans, expected = _traced_forward(tiny)
    victim = next(s for s in spans if s.name == "tensor.matmul")
    kept = [s for s in spans if s is not victim]
    gaps = sp.op_gate(kept, expected)
    assert gaps == {"infer-0": {k: -v for k, v in victim.self_ops.items() if v}}


def test_tracer_restores_every_rebound_name(tiny):
    from intquant.tensor import KernelMath
    pl = tiny[0]
    before = (pl.integer_forward, pl.ThreadPoolExecutor, KernelMath.matmul)
    tracer = sp.Tracer()
    tracer.install(run.library_targets())
    tracer.install_pool(pl)
    assert pl.integer_forward is not before[0]
    tracer.uninstall()
    assert (pl.integer_forward, pl.ThreadPoolExecutor, KernelMath.matmul) == before
