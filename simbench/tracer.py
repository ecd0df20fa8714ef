"""Outside-in tracer: wrappers installed around a program's calls from the benchmark.

Each wrapped call site is a *boundary*. A boundary keeps its call count, its
total time, its self time, which is its total minus the time spent in
wrapped calls made beneath it, and the number of those wrapped calls. Boundaries installed with ``span=True`` also
record one span per call: ``(span_id, parent_id, name, start_ns, end_ns)``,
where the parent is the innermost open span. Spans are meant for coarse
units (configs, episodes); per-call spans of the inner loop would be too
many to keep. Everything stays in memory until :meth:`Tracer.snapshot`.

A wrapper must replace the name where the program looks it up: a function
imported by name into another module has to be wrapped in that module too.

A wrapper costs time of its own, and that time lands in self times: most of
it in the caller's, the rest in the wrapped call's. :func:`measure_wrapper_cost`
times it on a no-op, and :meth:`WrapperCost.self_ns` takes it back out.
"""
from __future__ import annotations

import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Boundary:
    name: str
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    child_calls: int = 0  # wrapped calls made directly beneath this one


@dataclass(frozen=True)
class WrapperCost:
    """Time one wrapped call adds to self times, in nanoseconds per call.

    ``outside_ns`` lands in the caller's self time: the call into the
    wrapper, its bookkeeping and the parts of the two clock reads outside
    the timed interval. ``inside_ns`` lands in the wrapped call's own self
    time: the parts of the clock reads inside it.
    """

    outside_ns: float = 0.0
    inside_ns: float = 0.0

    def self_ns(self, b: Boundary) -> float:
        """Self time of ``b`` with the cost of its own wrapper and its children's removed."""
        return b.self_ns - b.child_calls * self.outside_ns - b.calls * self.inside_ns


def measure_wrapper_cost(calls: int = 20_000) -> WrapperCost:
    """Cost of one wrapped call, timed over ``calls`` calls of a no-op."""
    clock = time.perf_counter_ns

    def noop():
        pass

    def loop(fn):
        for _ in range(calls):
            fn()

    def empty():
        for _ in range(calls):
            pass

    probe = Tracer(clock)
    wrapped_loop = probe.wrap("loop", loop)
    start = clock()
    empty()
    empty_ns = clock() - start
    start = clock()
    loop(noop)
    plain_ns = clock() - start
    wrapped_loop(probe.wrap("noop", noop))
    outside = (probe.boundaries["loop"].self_ns - empty_ns) / calls
    inside = (probe.boundaries["noop"].self_ns - (plain_ns - empty_ns)) / calls
    return WrapperCost(outside, inside)


class Tracer:
    """Counts, total and self time per boundary, plus coarse spans.

    ``clock`` returns integer nanoseconds; tests pass a scripted one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.boundaries: dict[str, Boundary] = {}
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.span_attrs: dict[int, dict] = {}
        # One child-time and one child-count accumulator per open wrapped call;
        # index 0 is the root.
        self._child_ns = [0]
        self._child_calls = [0]
        self._open_spans = [None]
        self._next_span = 0
        self._installed = []

    def boundary(self, name: str) -> Boundary:
        if name not in self.boundaries:
            self.boundaries[name] = Boundary(name)
        return self.boundaries[name]

    def wrap(self, name: str, fn, span: bool = False, after=None):
        """Return ``fn`` wrapped as boundary ``name``.

        ``after(tracer, args, result)`` runs once the call has returned,
        outside the timed interval.
        """
        b = self.boundary(name)
        clock = self.clock
        child = self._child_ns
        kids = self._child_calls
        open_spans = self._open_spans

        if span:
            def wrapper(*args, **kwargs):
                span_id = self._new_span_id()
                parent = open_spans[-1]
                open_spans.append(span_id)
                child.append(0)
                kids.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    inner = child.pop()
                    child[-1] += elapsed
                    b.child_calls += kids.pop()
                    kids[-1] += 1
                    open_spans.pop()
                    b.calls += 1
                    b.total_ns += elapsed
                    b.self_ns += elapsed - inner
                    self.spans.append((span_id, parent, name, start, end))
                if after is not None:
                    after(self, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                child.append(0)
                kids.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = child.pop()
                    child[-1] += elapsed
                    b.child_calls += kids.pop()
                    kids[-1] += 1
                    b.calls += 1
                    b.total_ns += elapsed
                    b.self_ns += elapsed - inner
                if after is not None:
                    after(self, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _new_span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a block of the benchmark's own code."""
        span_id = self._new_span_id()
        parent = self._open_spans[-1]
        self._open_spans.append(span_id)
        self.span_attrs[span_id] = attrs
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            self._open_spans.pop()
            self.spans.append((span_id, parent, name, start, end))

    def install(self, owner, attr: str, name: str, span: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by its wrapped form until :meth:`restore`."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(owner, type) and attr not in vars(owner):
            raise ValueError(f"{owner.__name__}.{attr} is inherited; wrap the defining class")
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, span, after))
        else:
            wrapped = self.wrap(name, original, span, after)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def spans_beneath(self, ancestors: set, name: str) -> list[tuple[int, int]]:
        """``(ancestor_id, duration_ns)`` of every span ``name`` below a span in ``ancestors``."""
        parent_of = {s[0]: s[1] for s in self.spans}
        found = []
        for _, parent, n, start, end in self.spans:
            if n != name:
                continue
            node = parent
            while node is not None and node not in ancestors:
                node = parent_of.get(node)
            if node is not None:
                found.append((node, end - start))
        return found

    def snapshot(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        return {
            "boundaries": {
                n: {"calls": b.calls, "total_ns": b.total_ns, "self_ns": b.self_ns,
                    "child_calls": b.child_calls}
                for n, b in sorted(self.boundaries.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": [
                {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e,
                 **self.span_attrs.get(i, {})}
                for i, p, n, s, e in self.spans
            ],
        }
