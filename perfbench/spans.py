"""Traced runs: spans recorded from outside the engine.

The engine is not edited. Instead the names that `cascade.engine` imports
and calls inside `Simulation.step` are replaced, for the duration of a
traced episode, by wrappers that time each call. `cascade.npc.evaluate`
and `cascade.npc.best_breakdown` are wrapped too, so the fallback tree and
the second `best_breakdown` call inside `select_action` show as children
of `select_action`. Functions the engine's callees look up in their own
modules (for example `hub.broadcast`'s own `selector_matches` calls) are
not wrapped, so their cost stays inside the caller's span and sibling
spans never overlap.

Calls run in the millions, so spans are aggregated into one record per
(episode, tick, phase, parent, name): call count, total nanoseconds and
an outcome count (matches, accepts, rejects, items returned). Records
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import csv
import gc
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

import cascade.engine
import cascade.npc

# name -> how many "useful outcomes" one call's result counts for.
OUTCOMES: dict[str, Callable[[Any], int]] = {
    "selector_matches": lambda matched: 1 if matched else 0,
    "score_directive": lambda breakdown: 1 if breakdown.accepted else 0,
    "critic_check": lambda verdict: 0 if verdict.accepted else 1,
    "route_activation": len,
    "compile_directives": len,
    "migrate_tags": lambda result: len(result[1]),
}

ENGINE_NAMES = (
    "advance_clock",
    "expire_directives",
    "evaluate_rules",
    "critic_check",
    "apply_event",
    "route_activation",
    "compile_directives",
    "broadcast",
    "selector_matches",
    "score_directive",
    "select_action",
    "best_breakdown",
    "execute_action",
    "migrate_tags",
    "directive_to_packet",
    "npc_request_dialogue",
)
NPC_NAMES = ("evaluate", "best_breakdown")


class SpanRecorder:
    """Aggregates wrapped calls per tick. `phase` says what the benchmark
    is driving ("setup", "step" or "dialogue"); the parent of a span is the
    innermost wrapped call around it, or "tick" at the top."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.records: list[tuple[int, int, str, str, str, int, int, int]] = []
        self._current: dict[tuple[str, str, str], list[int]] = {}
        self._stack = ["tick"]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        outcome = OUTCOMES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            key = (self.phase, stack[-1], name)
            stack.append(name)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                rec = self._current.get(key)
                if rec is None:
                    rec = self._current[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
            if outcome is not None:
                rec[2] += outcome(result)
            return result

        return wrapped

    def end_tick(self, episode: int, tick: int) -> None:
        for (phase, parent, name), (calls, ns, hits) in self._current.items():
            self.records.append((episode, tick, phase, parent, name, calls, ns, hits))
        self._current = {}

    def totals(self) -> dict[tuple[str, str, str], list[int]]:
        """(phase, parent, name) -> [calls, ns, outcomes] over all records."""
        out: dict[tuple[str, str, str], list[int]] = {}
        for _episode, _tick, phase, parent, name, calls, ns, hits in self.records:
            agg = out.setdefault((phase, parent, name), [0, 0, 0])
            agg[0] += calls
            agg[1] += ns
            agg[2] += hits
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("episode", "tick", "phase", "parent", "name", "calls", "ns", "outcomes"))
            writer.writerows(self.records)


@contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Replace the engine's imported names with timed wrappers; restore
    the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    for module, names in ((cascade.engine, ENGINE_NAMES), (cascade.npc, NPC_NAMES)):
        for name in names:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, recorder.wrap(name, original))
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


class TimedStream:
    """Text sink for TraceWriter whose writes are spans named "write"."""

    def __init__(self, sink: Any, recorder: SpanRecorder) -> None:
        self.write = recorder.wrap("write", sink.write)
        self.flush = sink.flush


class GcMonitor:
    """Collector pauses from `gc.callbacks`, counted only while `active`."""

    def __init__(self) -> None:
        self.active = False
        self.gen2 = 0
        self.pauses_ns: list[int] = []
        self._started: Optional[int] = None

    def __call__(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
            return
        if self._started is None or not self.active:
            self._started = None
            return
        self.pauses_ns.append(time.perf_counter_ns() - self._started)
        self._started = None
        if info.get("generation") == 2:
            self.gen2 += 1

    @contextmanager
    def installed(self) -> Iterator["GcMonitor"]:
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)
