"""Run traces: one JSON object per line, replayable and diffable.

The first line is run metadata; every later line is a TraceEvent. Lines
carry no wall-clock timestamps, so two runs of the same scenario and seed
produce byte-identical files. Events are ordered by (tick, phase, subject):
the phase enum below fixes the within-tick order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, IO, Iterable, Iterator, NamedTuple, Optional

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


class TraceEvent(NamedTuple):
    """One trace line: the (tick, phase, kind) envelope and the payload
    keys written beside it. An immutable named tuple, so building one on
    the hot path is a single tuple allocation."""

    tick: int
    phase: str
    kind: str
    payload: dict[str, Any]

    def to_line_dict(self) -> dict[str, Any]:
        out = {"tick": self.tick, "phase": self.phase, "kind": self.kind}
        out.update(self.payload)
        return out


class TraceError(ValueError):
    """Raised when a trace file cannot be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"trace line {line_no}: {message}")
        self.line_no = line_no


_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_string = json.encoder.encode_basestring_ascii  # the escaper json.dumps uses; TypeError on non-str


# --- line templates ------------------------------------------------------------
#
# Three kinds make up about four fifths of a long run's lines. Each has a
# literal template with its keys in sorted order, and every field goes
# through a converter that either writes it exactly as `json.dumps` would
# or raises TypeError, which sends the whole line to `_dump`.


def _number(x: Any) -> str:
    if type(x) is float and x - x == 0.0:  # finite: inf - inf and nan - nan are nan
        return float.__repr__(x)
    if type(x) is int:
        return int.__repr__(x)
    raise TypeError(f"not a finite float or an int: {x!r}")


def _bool(x: Any) -> str:
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"not a bool: {x!r}")


def _fields(payload: dict[str, Any], count: int) -> dict[str, Any]:
    """The payload itself, if it has `count` keys; the template then reads
    each expected key, so a missing one raises KeyError."""
    if type(payload) is not dict or len(payload) != count:
        raise TypeError("unexpected payload keys")
    return payload


def _variable_changed(event: TraceEvent) -> str:
    p = _fields(event.payload, 2)
    return '{"intensity":%s,"kind":"VariableChanged","phase":%s,"tick":%s,"variable":%s}' % (
        _number(p["intensity"]), _string(event.phase), _number(event.tick), _string(p["variable"]),
    )


def _utility_evaluated(event: TraceEvent) -> str:
    p = _fields(event.payload, 10)
    return (
        '{"accepted":%s,"action":%s,"base_term":%s,"directive":%s,"kind":"UtilityEvaluated",'
        '"need_term":%s,"npc":%s,"phase":%s,"risk_term":%s,"threshold":%s,"tick":%s,'
        '"total":%s,"trait_term":%s}'
    ) % (
        _bool(p["accepted"]), _string(p["action"]), _number(p["base_term"]), _string(p["directive"]),
        _number(p["need_term"]), _string(p["npc"]), _string(event.phase), _number(p["risk_term"]),
        _number(p["threshold"]), _number(event.tick), _number(p["total"]), _number(p["trait_term"]),
    )


def _state_deltas(deltas: dict[str, Any]) -> str:
    parts = []
    for key, change in sorted(deltas.items()):
        _fields(change, 2)
        parts.append('%s:{"after":%s,"before":%s}' % (
            _string(key), _number(change["after"]), _number(change["before"]),
        ))
    return ",".join(parts)


def _action_executed(event: TraceEvent) -> str:
    p = _fields(event.payload, 6)
    directive, parameters, deltas, tags = p["directive"], p["parameters"], p["state_deltas"], p["tags"]
    if type(parameters) is not dict or type(deltas) is not dict or type(tags) not in (tuple, list):
        raise TypeError("parameters, state_deltas or tags of the wrong type")
    return (
        '{"action":%s,"directive":%s,"kind":"ActionExecuted","npc":%s,"parameters":%s,'
        '"phase":%s,"state_deltas":{%s},"tags":[%s],"tick":%s}'
    ) % (
        _string(p["action"]),
        "null" if directive is None else _string(directive),
        _string(p["npc"]),
        _dump(parameters) if parameters else "{}",
        _string(event.phase),
        _state_deltas(deltas) if deltas else "",
        ",".join(map(_string, tags)),
        _number(event.tick),
    )


_TEMPLATES = {
    "VariableChanged": _variable_changed,
    "UtilityEvaluated": _utility_evaluated,
    "ActionExecuted": _action_executed,
}


def encode_event(event: TraceEvent) -> str:
    """One trace line: byte for byte what `_dump(event.to_line_dict())`
    gives, which is `json.dumps` with sorted keys and compact separators.
    Non-finite numbers raise ValueError."""
    template = _TEMPLATES.get(event.kind)
    if template is not None:
        try:
            return template(event)
        except (KeyError, TypeError):
            pass
    return _dump(event.to_line_dict())


# The two per-NPC kinds reach a sink as parts, not as events: `utility`
# takes an npc.UtilityBreakdown, `action` key-sorted pairs and deltas.
Deltas = tuple[tuple[str, float, float], ...]  # (key, before, after)


def _utility_event(tick: int, action_id: str, npc_id: str, directive_id: str, base_term: float, trait_term: float,
                   need_term: float, risk_term: float, total: float, threshold: float, accepted: bool) -> TraceEvent:
    return TraceEvent(tick, "Score", "UtilityEvaluated", {
        "npc": npc_id, "directive": directive_id, "action": action_id, "base_term": base_term,
        "trait_term": trait_term, "need_term": need_term, "risk_term": risk_term, "total": total,
        "threshold": threshold, "accepted": accepted})


def _action_event(tick: int, npc_id: str, action_id: str, directive_id: Optional[str],
                  parameter_items: tuple[tuple[str, Any], ...], tags: tuple[str, ...], deltas: Deltas) -> TraceEvent:
    return TraceEvent(tick, "Act", "ActionExecuted", {
        "npc": npc_id, "action": action_id, "directive": directive_id,
        "parameters": dict(parameter_items) if parameter_items else {}, "tags": tags,
        "state_deltas": {key: {"before": b, "after": a} for key, b, a in deltas} if deltas else {}})


class TraceWriter:
    """Streams events to a text sink as JSON lines, metadata first."""

    def __init__(self, sink: IO[str], meta: dict[str, Any]) -> None:
        self._sink = sink
        self._sink.write(_dump(meta) + "\n")

    def emit(self, event: TraceEvent) -> None:
        self._sink.write(encode_event(event) + "\n")

    def utility(self, tick: int, breakdown: tuple, action_id: str) -> None:
        self._sink.write(encode_event(_utility_event(tick, action_id, *breakdown)) + "\n")

    def action(self, *row: Any) -> None:
        self._sink.write(encode_event(_action_event(*row)) + "\n")

    def close(self) -> None:
        self._sink.flush()


CHUNK_ROWS = 4096  # rows per sealed chunk of a TraceCollector
# A collector row's width tells its kind: an emitted (tick, phase, kind),
# the arguments of `_action_event`, or else those of `_utility_event`.
EMITTED_ROW, ACTION_ROW = 3, 7


def _row_kind(row: tuple) -> str:
    return row[2] if len(row) == EMITTED_ROW else "ActionExecuted" if len(row) == ACTION_ROW else "UtilityEvaluated"


class CollectedEvents:
    """A read-only view of a TraceCollector's events in emit order: each
    pass rebuilds them one at a time, so reading never copies the trace."""

    def __init__(self, collector: "TraceCollector") -> None:
        self._collector = collector

    def __iter__(self) -> Iterator[TraceEvent]:
        collector = self._collector
        payloads = iter(collector._payloads)
        for chunk in (*collector._chunks, collector._rows):
            for row in chunk:
                width = len(row)
                if width == EMITTED_ROW:
                    yield TraceEvent(*row, next(payloads))
                elif width == ACTION_ROW:
                    yield _action_event(*row)
                else:
                    yield _utility_event(*row)

    def __len__(self) -> int:
        return sum(map(len, self._collector._chunks)) + len(self._collector._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (CollectedEvents, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class TraceCollector:
    """In-memory sink with the TraceWriter interface; used by tests and the
    benchmark, where counting matters and files would just slow things down.

    Each event is one row, an exact tuple of atoms and exact tuples (see
    EMITTED_ROW); an emitted event's payload goes to a side list. `action`
    seals every CHUNK_ROWS rows into a tuple, as every NPC acts every tick.
    CPython stops tracking an exact tuple once nothing it holds is tracked,
    so a full collection walks only the three lists and the few rare
    payloads that hold containers, however long the run. `events` is a
    lazy view that rebuilds the TraceEvents."""

    def __init__(self, meta: Optional[dict[str, Any]] = None) -> None:
        self.meta = meta or {}
        self._chunks: list[tuple[tuple, ...]] = []
        self._rows: list[tuple] = []
        self._payloads: list[dict[str, Any]] = []

    def emit(self, event: TraceEvent) -> None:
        self._rows.append(event[:3])  # a slice of a named tuple is an exact tuple
        self._payloads.append(event.payload)

    def utility(self, tick: int, breakdown: tuple, action_id: str) -> None:
        self._rows.append((tick, action_id) + breakdown)

    def action(self, *row: Any) -> None:
        rows = self._rows
        rows.append(row)  # the arguments, as an exact tuple already
        if len(rows) >= CHUNK_ROWS:
            self._chunks.append(tuple(rows))
            self._rows = []

    def close(self) -> None:
        pass

    @property
    def events(self) -> CollectedEvents:
        return CollectedEvents(self)

    def count(self, kind: str) -> int:
        return sum(1 for chunk in (*self._chunks, self._rows) for row in chunk if _row_kind(row) == kind)


def _reject_non_finite(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if value - value != 0.0:  # a literal such as 1e999 overflows to inf
        _reject_non_finite(token)
    return value


# TraceWriter never writes NaN or infinities, so a trace that holds them is
# corrupt; plain json.loads would accept NaN, Infinity and 1e999.
_load = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_non_finite).decode


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
            obj = _load(raw)
        except json.JSONDecodeError as exc:
            raise TraceError(line_no, f"invalid JSON ({exc.msg})") from exc
        except ValueError as exc:
            raise TraceError(line_no, str(exc)) from exc
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
        events.append(TraceEvent(tick, phase, kind, payload))
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
    events: Iterable[TraceEvent],
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
