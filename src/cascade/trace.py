"""Run traces: one JSON object per line, replayable and diffable.

The first line is run metadata; every later line is a TraceEvent. Lines
carry no wall-clock timestamps, so two runs of the same scenario and seed
produce byte-identical files. Events are ordered by (tick, phase, subject):
the phase enum below fixes the within-tick order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, IO, Iterable, Optional

PHASES = (
    "Clock",
    "MacroEval",
    "Critic",
    "Activation",
    "Compile",
    "Deliver",
    "Score",
    "Act",
    "Migrate",
    "Dialogue",
)
PHASE_INDEX = {name: i for i, name in enumerate(PHASES)}

KINDS = (
    "VariableChanged",
    "EventFired",
    "EventRejected",
    "ModuleActivated",
    "DirectiveIssued",
    "DirectiveDelivered",
    "UtilityEvaluated",
    "ActionExecuted",
    "TagMigrated",
    "DialogueRequested",
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    tick: int
    phase: str
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)

    def to_line_dict(self) -> dict[str, Any]:
        out = {"tick": self.tick, "phase": self.phase, "kind": self.kind}
        out.update(self.payload)
        return out


class TraceError(ValueError):
    """Raised when a trace file cannot be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"trace line {line_no}: {message}")
        self.line_no = line_no


def _dump(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


class TraceWriter:
    """Streams events to a text sink as JSON lines, metadata first."""

    def __init__(self, sink: IO[str], meta: dict[str, Any]) -> None:
        self._sink = sink
        self.events_written = 0
        self._sink.write(_dump(meta) + "\n")

    def emit(self, event: TraceEvent) -> None:
        self._sink.write(_dump(event.to_line_dict()) + "\n")
        self.events_written += 1

    def close(self) -> None:
        self._sink.flush()


class TraceCollector:
    """In-memory sink with the TraceWriter interface; used by tests and the
    benchmark, where counting matters and files would just slow things down."""

    def __init__(self, meta: Optional[dict[str, Any]] = None) -> None:
        self.meta = meta or {}
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)


def read_trace(lines: Iterable[str]) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Parse a trace back into (meta, events). Malformed input names the
    offending line number."""
    meta: Optional[dict[str, Any]] = None
    events: list[TraceEvent] = []
    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceError(line_no, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise TraceError(line_no, "expected a JSON object")
        if line_no == 1:
            meta = obj
            continue
        try:
            tick, phase, kind = obj["tick"], obj["phase"], obj["kind"]
        except KeyError as exc:
            raise TraceError(line_no, f"missing field {exc.args[0]!r}") from exc
        if type(tick) is not int or tick < 0:
            raise TraceError(line_no, f"tick must be a non-negative integer, got {tick!r}")
        if phase not in PHASE_INDEX:
            raise TraceError(line_no, f"unknown phase {phase!r}")
        if kind not in KINDS:
            raise TraceError(line_no, f"unknown kind {kind!r}")
        payload = {k: v for k, v in obj.items() if k not in ("tick", "phase", "kind")}
        events.append(TraceEvent(tick=tick, phase=phase, kind=kind, payload=payload))
    if meta is None:
        raise TraceError(1, "empty trace: missing run metadata line")
    return meta, events


def read_trace_file(path: str) -> tuple[dict[str, Any], list[TraceEvent]]:
    with open(path, "r", encoding="utf-8") as fh:
        return read_trace(fh)


# --- cost accounting ---------------------------------------------------------

DEFAULT_TOKENS_PER_CALL = 500  # modeling constant for the token estimate


@dataclass(frozen=True, slots=True)
class CostReport:
    ticks: int
    npc_count: int
    cascade_llm_calls: int
    baseline_llm_calls: int
    cascade_tokens: int
    baseline_tokens: int
    reduction_ratio: float


def build_cost_report(
    events: list[TraceEvent],
    npc_count: int,
    ticks: int,
    tokens_per_call: int = DEFAULT_TOKENS_PER_CALL,
) -> CostReport:
    """Compare the run's actual model usage against a per-agent-prompting
    baseline of one call per NPC per tick. An empty baseline (zero ticks or
    zero NPCs) means there is nothing to reduce, so the ratio is 0."""
    cascade_calls = sum(1 for e in events if e.kind == "DialogueRequested")
    baseline_calls = npc_count * ticks
    ratio = 0.0 if baseline_calls == 0 else 1.0 - cascade_calls / baseline_calls
    return CostReport(
        ticks=ticks,
        npc_count=npc_count,
        cascade_llm_calls=cascade_calls,
        baseline_llm_calls=baseline_calls,
        cascade_tokens=cascade_calls * tokens_per_call,
        baseline_tokens=baseline_calls * tokens_per_call,
        reduction_ratio=ratio,
    )
