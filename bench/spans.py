"""Span recording from outside the program.

A :class:`Tracer` rebinds named functions and methods of ``intquant`` to
wrappers that record one span per call: name, start, end, parent span,
request id, and the change in the call's ``OpCounter``.  Spans stay in
memory until the run ends.

Op counts are exclusive: when a span closes, the ops of its children that
share its counter are subtracted, so every counted op belongs to exactly one
span.  Summing the exclusive counts over the spans of one request therefore
gives that request's ``OpCounter`` totals, and a span missing from the
record shows up as a gap (see :func:`op_gate`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

KINDS = ("adds", "muls", "divs", "shifts", "compares")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    request: str | None
    start: float
    end: float = 0.0
    label: str | None = None          # e.g. the candidate a kernel runner ran
    counter: int | None = None        # which OpCounter the ops were read from
    ops: dict | None = None           # inclusive delta per kind
    self_ops: dict | None = None      # exclusive delta per kind
    error: str | None = None          # exception type the call raised
    # run-time state, not written out
    _parent_span: "Span | None" = field(default=None, repr=False)
    _counter_obj: object = field(default=None, repr=False)
    _before: tuple | None = field(default=None, repr=False)
    _child_ops: list = field(default_factory=lambda: [0] * len(KINDS), repr=False)
    _token: object = field(default=None, repr=False)

    def record(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


@dataclass(frozen=True)
class Target:
    """One name to rebind: ``owner.attr`` becomes a span named ``name``.

    ``counter`` says where the call's OpCounter is: ``"self"`` reads
    ``args[0].counter`` (KernelMath methods); ``"arg"`` reads the ``counter``
    parameter and passes a fresh OpCounter when the caller gave none, which
    changes no output.  ``label`` records ``args[0]`` (a candidate name).
    """

    owner: object
    attr: str
    name: str
    counter: str | None = None
    label: bool = False


def _snapshot(counter) -> tuple:
    return (counter.adds, counter.muls, counter.divs, counter.shifts,
            counter.compares)


class ContextThreadPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's
    context, so spans opened in worker threads find their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Thread-safe span recorder that rebinds :class:`Target` names."""

    def __init__(self, counter_factory=None):
        self.spans: list[Span] = []
        self._counter_factory = counter_factory
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._request: contextvars.ContextVar = contextvars.ContextVar("request", default=None)
        self._counter_keys: dict[int, tuple[int, object]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        for t in targets:
            original = getattr(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self.wrap(t, original))

    def install_pool(self, module) -> None:
        """Make ``module.ThreadPoolExecutor`` propagate the span context."""
        self._saved.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = ContextThreadPool

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def request(self, request_id: str):
        """Spans opened inside carry ``request_id``."""
        token = self._request.set(request_id)
        try:
            yield
        finally:
            self._request.reset(token)

    def _counter_key(self, counter) -> int:
        with self._lock:
            entry = self._counter_keys.get(id(counter))
            if entry is None or entry[1] is not counter:
                entry = (len(self._counter_keys) + 1, counter)
                self._counter_keys[id(counter)] = entry
            return entry[0]

    def open(self, name: str, counter=None, label: str | None = None) -> Span:
        parent = self._current.get()
        span = Span(next(self._ids), parent.id if parent else None, name,
                    self._request.get(), 0.0, label=label, _parent_span=parent)
        if counter is not None:
            span.counter = self._counter_key(counter)
            span._counter_obj = counter
            span._before = _snapshot(counter)
        span._token = self._current.set(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._current.reset(span._token)
        delta = None
        if span._counter_obj is not None:
            after = _snapshot(span._counter_obj)
            delta = [a - b for a, b in zip(after, span._before)]
        parent = span._parent_span
        with self._lock:
            if delta is not None:
                span.ops = dict(zip(KINDS, delta))
                span.self_ops = dict(zip(KINDS, (d - c for d, c in zip(delta, span._child_ops))))
                if parent is not None and parent._counter_obj is span._counter_obj:
                    parent._child_ops = [p + d for p, d in zip(parent._child_ops, delta)]
            self.spans.append(span)

    def wrap(self, target: Target, fn):
        tracer = self
        sig = inspect.signature(fn) if target.counter == "arg" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counter = None
            if target.counter == "self":
                counter = args[0].counter
            elif sig is not None:
                bound = sig.bind(*args, **kwargs)
                counter = bound.arguments.get("counter")
                if counter is None:
                    counter = bound.arguments["counter"] = tracer._counter_factory()
                    args, kwargs = bound.args, bound.kwargs
            label = args[0] if target.label and args else None
            span = tracer.open(target.name, counter, label)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)

        return traced


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children
    cover.  Children that ran at once on several threads are counted once
    (the union of their intervals)."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(p.id, []).append((lo, hi))
    return {s.id: (s.end - s.start) - _union_length(children.get(s.id, ()))
            for s in spans}


def traced_ops(spans, requests) -> dict[str, dict[str, int]]:
    """Request id -> exclusive op counts per kind, summed over the request's
    spans that read the same OpCounter as its root span."""
    roots = {s.request: s.counter for s in spans
             if s.parent is None and s.request in requests}
    out = {r: dict.fromkeys(KINDS, 0) for r in requests}
    for s in spans:
        if s.request in out and s.self_ops and s.counter == roots.get(s.request):
            for k in KINDS:
                out[s.request][k] += s.self_ops[k]
    return out


def op_gate(spans, expected: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    """Compare traced exclusive ops with untraced totals, per request.

    ``expected`` maps request id -> untraced OpCounter totals per kind.
    Returns request id -> {kind: traced minus untraced} for every kind that
    differs; an empty result means the trace accounts for every op.
    """
    got = traced_ops(spans, expected)
    gaps = {}
    for req, want in expected.items():
        diff = {k: got[req][k] - want[k] for k in KINDS if got[req][k] != want[k]}
        if diff:
            gaps[req] = diff
    return gaps
