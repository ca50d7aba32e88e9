"""In-memory spans around repro's public entry points, for the traced pass only.

The benchmark measures each layer from outside: :class:`Patches` swaps a
timing wrapper in for a public function or method (and swaps the original
back afterwards), and every wrapped call becomes one :class:`Span` held in a
:class:`Recorder`.  Nothing in ``src/`` changes; with tracing off nothing is
wrapped at all.

A span's self time is its duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    t0: float
    dur: float = 0.0
    child: float = 0.0

    @property
    def self_s(self) -> float:
        return self.dur - self.child


class Recorder:
    """Spans and counters of one traced stretch of work, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.dur = time.perf_counter() - span.t0
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.dur

    def timed_iter(self, name: str, iterator: Iterator) -> Iterator:
        """Time only the ``next()`` calls of ``iterator``, as one span.

        A generator runs in pieces while its consumer runs in between, so its
        span accumulates the pieces and is charged to the span that was open
        when the generator was created.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, time.perf_counter())
        self.spans.append(span)
        while True:
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = time.perf_counter() - start
                span.dur += elapsed
                if parent is not None:
                    parent.child += elapsed
            yield item

    def add(self, counter: str, value: float = 1.0) -> None:
        self.counters[counter] += value

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``dur`` and total ``self`` seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "dur": 0.0, "self": 0.0}
        )
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["dur"] += span.dur
            entry["self"] += span.self_s
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "parent": span.parent,
                    "name": span.name,
                    "t0": span.t0,
                    "dur_s": span.dur,
                    "self_s": span.self_s,
                }
                handle.write(json.dumps(record) + "\n")


class Patches:
    """Wrap attributes with span recorders; :meth:`restore` undoes every wrap."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[tuple] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
        generator: bool = False,
    ) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder

        if generator:
            def wrapper(*args, **kwargs):
                return recorder.timed_iter(name, original(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                span = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(span)
                if on_result is not None:
                    on_result(result)
                return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install_repro_spans(recorder: Recorder) -> Patches:
    """Put spans around the public entry points of each layer of ``repro``.

    core: ``build_crn_for`` (bound in two modules); api:
    ``CompiledFunction.simulate``; sim: each engine adapter's ``run_many``
    (events = the sum of the report's per-trial steps); lab:
    ``run_campaign``, ``Campaign.expand``, ``run_cell``, ``summarize`` and
    the ``ResultCache`` / ``ResultStore`` methods a campaign calls.
    """
    import repro.api.workbench as workbench
    import repro.core.characterization as characterization
    import repro.lab.campaign as campaign
    import repro.lab.executor as executor
    from repro.lab.cache import ResultCache
    from repro.lab.store import ResultStore
    from repro.sim import runner

    patches = Patches(recorder)
    patches.wrap(characterization, "build_crn_for", "core.build")
    patches.wrap(workbench, "build_crn_for", "core.build")
    patches.wrap(workbench.CompiledFunction, "simulate", "api.simulate")
    for engine, cls in (
        ("python", runner.PythonEngine),
        ("nrm", runner.NextReactionEngine),
        ("vectorized", runner.VectorizedEngine),
        ("tau-vec", runner.TauVecEngine),
    ):
        counter = f"sim.{engine}.events"
        patches.wrap(
            cls,
            "run_many",
            f"sim.{engine}",
            on_result=lambda report, counter=counter: recorder.add(counter, sum(report.steps)),
        )
    patches.wrap(campaign, "run_campaign", "lab.campaign")
    patches.wrap(campaign, "summarize", "lab.summarize")
    patches.wrap(campaign.Campaign, "expand", "lab.expand")
    patches.wrap(executor, "run_cell", "lab.cell")
    patches.wrap(
        ResultCache,
        "get",
        "lab.cache.get",
        on_result=lambda payload: recorder.add("lab.cache.hits", payload is not None),
    )
    patches.wrap(ResultCache, "put", "lab.cache.put")
    patches.wrap(ResultCache, "__len__", "lab.cache.len")
    patches.wrap(ResultStore, "append", "lab.store.append")
    patches.wrap(ResultStore, "iter_rows", "lab.store.scan", generator=True)
    return patches


#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    [("core.builds", "count"), ("core.build_s", "s")]
    + [("api.simulate.calls", "count"), ("api.simulate.self_s", "s")]
    + [
        (f"sim.{engine}.{what}", unit)
        for engine in ("python", "nrm", "vectorized", "tau-vec")
        for what, unit in (
            ("calls", "count"),
            ("events", "count"),
            ("busy_s", "s"),
            ("events_per_s", "1/s"),
        )
    ]
    + [
        ("lab.campaign.self_s", "s"),
        ("lab.expand_s", "s"),
        ("lab.cells", "count"),
        ("lab.cell.self_s", "s"),
        ("lab.summarize_s", "s"),
        ("lab.cache.gets", "count"),
        ("lab.cache.get_s", "s"),
        ("lab.cache.hit_ratio", "ratio"),
        ("lab.cache.len_calls", "count"),
        ("lab.cache.len_s", "s"),
        ("lab.cache.puts", "count"),
        ("lab.cache.put_s", "s"),
        ("lab.store.appends", "count"),
        ("lab.store.append_s", "s"),
        ("lab.store.scan_s", "s"),
        ("lab.phase.cold_s", "s"),
        ("lab.phase.replay_s", "s"),
        ("lab.phase.resume_s", "s"),
    ]
    + [
        ("serve.simulate.requests", "count"),
        ("serve.simulate.server_s", "s"),
        ("serve.transport_ms", "ms"),
        ("serve.cache.get_s", "s"),
        ("serve.cache.put_s", "s"),
        ("serve.cache.hit_ratio", "ratio"),
        ("serve.engine.requested", "count"),
        ("serve.engine.executed", "count"),
        ("serve.job.submit_ms", "ms"),
        ("serve.job.drain_s", "s"),
    ]
    + [("trace.overhead_ratio", "ratio")]
)


def layer_values(recorder: Recorder, setup: Optional[Recorder] = None) -> Dict[str, float]:
    """In-process per-layer values from a traced unit (plus set-up builds).

    ``setup`` contributes only its ``core.*`` spans: the CRN builds happen
    while the workload sets up, before any timed unit.  Metrics of layers the
    workload never entered read 0.
    """
    totals = recorder.totals()
    values: Dict[str, float] = {name: 0.0 for name, _unit in LAYER_METRICS}

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    builds = [
        entry
        for entry in (r.totals().get("core.build") for r in (recorder, setup) if r is not None)
        if entry is not None
    ]
    values["core.builds"] = sum(entry["calls"] for entry in builds)
    values["core.build_s"] = sum(entry["self"] for entry in builds)
    values["api.simulate.calls"] = get("api.simulate", "calls")
    values["api.simulate.self_s"] = get("api.simulate", "self")
    for engine in ("python", "nrm", "vectorized", "tau-vec"):
        busy = get(f"sim.{engine}", "self")
        events = recorder.counters.get(f"sim.{engine}.events", 0.0)
        values[f"sim.{engine}.calls"] = get(f"sim.{engine}", "calls")
        values[f"sim.{engine}.events"] = events
        values[f"sim.{engine}.busy_s"] = busy
        values[f"sim.{engine}.events_per_s"] = events / busy if busy > 0 else 0.0
    values["lab.campaign.self_s"] = get("lab.campaign", "self")
    values["lab.expand_s"] = get("lab.expand", "self")
    values["lab.cells"] = get("lab.cell", "calls")
    values["lab.cell.self_s"] = get("lab.cell", "self")
    values["lab.summarize_s"] = get("lab.summarize", "self")
    gets = get("lab.cache.get", "calls")
    values["lab.cache.gets"] = gets
    values["lab.cache.get_s"] = get("lab.cache.get", "self")
    values["lab.cache.hit_ratio"] = (
        recorder.counters.get("lab.cache.hits", 0.0) / gets if gets else 0.0
    )
    values["lab.cache.len_calls"] = get("lab.cache.len", "calls")
    values["lab.cache.len_s"] = get("lab.cache.len", "self")
    values["lab.cache.puts"] = get("lab.cache.put", "calls")
    values["lab.cache.put_s"] = get("lab.cache.put", "self")
    values["lab.store.appends"] = get("lab.store.append", "calls")
    values["lab.store.append_s"] = get("lab.store.append", "self")
    values["lab.store.scan_s"] = get("lab.store.scan", "self")
    return values
