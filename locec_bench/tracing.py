"""In-memory spans with Spark job counts, kept by the benchmark.

A span records its id, parent, name, start and end, and the counts taken
at its boundary. Spark work inside a span runs under a job group named
after the span, so the jobs, stages and tasks it caused are read back
from ``statusTracker()`` when the span closes. Spans stay in memory and
are written out with the run record when the benchmark ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spark_counts(sc, group: str) -> dict:
    """Jobs, executed stages and tasks run under job group ``group``.

    A stage skipped because its shuffle output already existed reports
    no completed task; it is counted in ``skipped_stages``, not
    ``stages``.
    """
    # job-end events reach the status store through the listener bus
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    st = sc.statusTracker()
    out = {"jobs": 0, "stages": 0, "skipped_stages": 0, "tasks": 0,
           "failed_tasks": 0}
    for jid in st.getJobIdsForGroup(group):
        info = st.getJobInfo(jid)
        if info is None:
            continue
        out["jobs"] += 1
        for sid in info.stageIds:
            stage = st.getStageInfo(sid)
            if stage is None:
                continue
            ran = stage.numCompletedTasks + stage.numFailedTasks
            out["stages" if ran else "skipped_stages"] += 1
            out["tasks"] += stage.numCompletedTasks
            out["failed_tasks"] += stage.numFailedTasks
    return out


class Tracer:
    """Nested spans; Spark jobs are attributed to the innermost span."""

    def __init__(self, sc, prefix: str):
        self.sc = sc
        self.prefix = prefix
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                  name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        self._set_group(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._set_group(self._stack[-1])
            else:
                self.sc.setJobGroup(f"{self.prefix}-idle", "untraced")
            sp.counts.update(spark_counts(self.sc, self._group(sp)))

    def _group(self, sp: Span) -> str:
        return f"{self.prefix}-span{sp.id}"

    def _set_group(self, sp: Span):
        self.sc.setJobGroup(self._group(sp), sp.name)

    def self_seconds(self, sp: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = sorted((c.start, c.end) for c in self.spans if c.parent == sp.id)
        covered, edge = 0.0, sp.start
        for s, e in kids:
            s, e = max(s, edge), min(e, sp.end)
            if e > s:
                covered += e - s
                edge = e
        return sp.seconds - covered

    def records(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        out = []
        for sp in self.spans:
            r = asdict(sp)
            r["start"], r["end"] = sp.start - t0, sp.end - t0
            r["self_s"] = self.self_seconds(sp)
            out.append(r)
        return out


@contextmanager
def timed_method(cls, attr: str, calls: list):
    """Time every call of ``cls.attr`` on the driver while the block runs.

    Appends each call's seconds to ``calls``. Leaves ``calls`` empty and
    does nothing when the class has no such method (the API moved).
    """
    orig = getattr(cls, attr, None) if cls is not None else None
    if orig is None:
        yield
        return

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            calls.append(time.perf_counter() - t0)

    setattr(cls, attr, wrapper)
    try:
        yield
    finally:
        setattr(cls, attr, orig)
