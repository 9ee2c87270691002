"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` wraps functions so that every call records one span:
name, start, end, parent span and the run's id.  Spans stay in memory
until the run ends.  :func:`install` puts a wrapper into every module
namespace that holds the original function, because callers that did
``from .geometry import apply_action`` look the name up in their own
namespace, not in the defining module's.
"""
from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                    parent=parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, observe=None, peak_memory: bool = False):
        """Traced version of fn.

        observe(args, kwargs, result) returns attributes stored on the
        span.  With peak_memory, the span also records the peak of
        Python and numpy allocations during the call (tracemalloc).
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            measure = peak_memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                if measure:
                    span.attrs["peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self.close(span)
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        return traced

    def records(self) -> list[list]:
        """Spans as JSON-ready rows: id, name, start, end, parent,
        failed, attrs, run id."""
        return [[s.id, s.name, s.start, s.end, s.parent, s.failed, s.attrs,
                 self.run_id] for s in self.spans]


def spans_from_records(rows) -> list[Span]:
    return [Span(id=r[0], name=r[1], start=r[2], end=r[3], parent=r[4],
                 failed=r[5], attrs=r[6]) for r in rows]


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module:qualname`` plus what to observe."""

    path: str
    observe: object = None
    peak_memory: bool = False

    @property
    def name(self) -> str:
        module, qualname = self.path.split(":")
        return f"{module.rsplit('.', 1)[-1]}.{qualname}"


def install(tracer: Tracer, targets, modules) -> callable:
    """Replace each target by its traced wrapper wherever it is bound.

    A method is replaced on its class.  A module-level function is
    replaced in every namespace of ``modules`` that holds the same
    object, whatever name it is bound to there.  Returns a function
    that restores every original binding.
    """
    restore: list[tuple[object, str, object]] = []
    for target in targets:
        module_name, qualname = target.path.split(":")
        owner = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(target.name, original, target.observe,
                              target.peak_memory)
        namespaces = [owner] if outer else [owner, *modules]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    restore.append((ns, key, original))

    def uninstall() -> None:
        for ns, key, original in reversed(restore):
            setattr(ns, key, original)

    return uninstall


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its child spans.  The tracer
    is a single-threaded stack, so children lie inside their parent and
    never overlap one another."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    fail: int = 0
    durations: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: calls, total and self time, failures, durations
    and summed numeric attributes."""
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for s in spans:
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.total_s += s.duration
        st.self_s += selfs[s.id]
        st.fail += int(s.failed)
        st.durations.append(s.duration)
        for key, value in s.attrs.items():
            if key == "peak_mib":
                st.attrs[key] = max(st.attrs.get(key, 0.0), value)
            else:
                st.attrs[key] = st.attrs.get(key, 0) + value
    return stats


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor:
                count += 1
                break
            p = by_id[p].parent
    return count
