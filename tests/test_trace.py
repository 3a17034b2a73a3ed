"""Trace format: byte-stable JSONL, parse errors, cost accounting."""

from __future__ import annotations

import io
import json

import pytest

from cascade.trace import (
    CostReport,
    DEFAULT_TOKENS_PER_CALL,
    KINDS,
    PHASES,
    PHASE_INDEX,
    TraceCollector,
    TraceError,
    TraceEvent,
    TraceWriter,
    build_cost_report,
    read_trace,
)

META = {"scenario": "drought_town", "seed": 7, "schema_version": 1, "npc_count": 10}


def test_phase_enum_is_the_pipeline_order():
    assert PHASES == (
        "Clock", "MacroEval", "Critic", "Activation", "Compile",
        "Deliver", "Score", "Act", "Migrate", "Dialogue",
    )
    assert PHASE_INDEX["Clock"] == 0
    assert PHASE_INDEX["Dialogue"] == 9
    assert len(KINDS) == 10


def test_writer_puts_meta_on_the_first_line():
    sink = io.StringIO()
    writer = TraceWriter(sink, META)
    writer.emit(TraceEvent(4, "Critic", "EventFired", {"event": "severe_drought@4"}))
    writer.close()
    lines = sink.getvalue().splitlines()
    assert json.loads(lines[0]) == META
    assert json.loads(lines[1]) == {
        "tick": 4, "phase": "Critic", "kind": "EventFired", "event": "severe_drought@4",
    }
    assert writer.events_written == 1


def test_lines_are_compact_with_sorted_keys():
    sink = io.StringIO()
    writer = TraceWriter(sink, {"b": 1, "a": 2})
    writer.emit(TraceEvent(1, "Act", "ActionExecuted", {"z": 1, "npc": "solo"}))
    first, second = sink.getvalue().splitlines()
    assert first == '{"a":2,"b":1}'
    assert second == '{"kind":"ActionExecuted","npc":"solo","phase":"Act","tick":1,"z":1}'


def test_writer_refuses_non_finite_numbers():
    writer = TraceWriter(io.StringIO(), META)
    with pytest.raises(ValueError):
        writer.emit(TraceEvent(1, "Score", "UtilityEvaluated", {"total": float("nan")}))


def test_payload_flattens_beside_the_envelope():
    line = TraceEvent(2, "Score", "UtilityEvaluated", {"npc": "guard_1", "total": -0.4}).to_line_dict()
    assert line == {"tick": 2, "phase": "Score", "kind": "UtilityEvaluated", "npc": "guard_1", "total": -0.4}


def test_collector_counts_by_kind():
    collector = TraceCollector(META)
    collector.emit(TraceEvent(1, "Act", "ActionExecuted", {}))
    collector.emit(TraceEvent(1, "Act", "ActionExecuted", {}))
    collector.emit(TraceEvent(1, "Dialogue", "DialogueRequested", {}))
    assert collector.count("ActionExecuted") == 2
    assert collector.count("DialogueRequested") == 1
    assert collector.count("EventFired") == 0


def test_round_trip_through_writer_and_reader():
    sink = io.StringIO()
    writer = TraceWriter(sink, META)
    events = [
        TraceEvent(4, "Critic", "EventFired", {"event": "severe_drought@4", "rule": "severe_drought"}),
        TraceEvent(4, "Act", "ActionExecuted", {"npc": "mayor", "action": "convene_town_hall"}),
    ]
    for event in events:
        writer.emit(event)
    meta, parsed = read_trace(io.StringIO(sink.getvalue()))
    assert meta == META
    assert parsed == events


def test_reader_skips_blank_lines():
    text = json.dumps(META) + "\n\n" + '{"tick":1,"phase":"Act","kind":"ActionExecuted"}\n'
    meta, events = read_trace(io.StringIO(text))
    assert meta == META
    assert len(events) == 1


def test_reader_names_the_bad_line():
    text = json.dumps(META) + "\n" + '{"tick":1,"phase":"Act","kind":"ActionExecuted"}\n' + "{oops\n"
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO(text))
    assert str(excinfo.value).startswith("trace line 3: invalid JSON")
    assert excinfo.value.line_no == 3


def test_reader_rejects_non_objects():
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO(json.dumps(META) + "\n[1,2]\n"))
    assert "trace line 2: expected a JSON object" in str(excinfo.value)


def test_reader_requires_envelope_fields():
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO(json.dumps(META) + "\n" + '{"phase":"Act","kind":"ActionExecuted"}\n'))
    assert "trace line 2: missing field 'tick'" in str(excinfo.value)


@pytest.mark.parametrize("tick", ['"1"', "-1", "1.0", "true", "null"])
def test_reader_requires_a_non_negative_integer_tick(tick):
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO(json.dumps(META) + "\n" + f'{{"tick":{tick},"phase":"Act","kind":"ActionExecuted"}}\n'))
    assert "trace line 2: tick must be a non-negative integer" in str(excinfo.value)


def test_reader_validates_phase_and_kind():
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO(json.dumps(META) + "\n" + '{"tick":1,"phase":"Party","kind":"ActionExecuted"}\n'))
    assert "unknown phase 'Party'" in str(excinfo.value)
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO(json.dumps(META) + "\n" + '{"tick":1,"phase":"Act","kind":"Nap"}\n'))
    assert "unknown kind 'Nap'" in str(excinfo.value)


def test_empty_trace_is_an_error():
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO(""))
    assert "trace line 1: empty trace" in str(excinfo.value)


# --- cost accounting ---------------------------------------------------------


def _dialogue_events(n: int) -> list[TraceEvent]:
    return [TraceEvent(i + 1, "Dialogue", "DialogueRequested", {}) for i in range(n)]


def test_cost_report_compares_against_per_agent_prompting():
    report = build_cost_report(_dialogue_events(3), npc_count=10, ticks=30)
    assert report == CostReport(
        ticks=30,
        npc_count=10,
        cascade_llm_calls=3,
        baseline_llm_calls=300,
        cascade_tokens=3 * DEFAULT_TOKENS_PER_CALL,
        baseline_tokens=300 * DEFAULT_TOKENS_PER_CALL,
        reduction_ratio=0.99,
    )


def test_cost_report_without_dialogue_is_a_full_reduction():
    other = [TraceEvent(1, "Act", "ActionExecuted", {})] * 5
    report = build_cost_report(other, npc_count=10, ticks=30)
    assert report.cascade_llm_calls == 0
    assert report.reduction_ratio == 1.0


def test_cost_report_with_no_baseline_claims_no_reduction():
    assert build_cost_report([], npc_count=10, ticks=0).reduction_ratio == 0.0
    assert build_cost_report([], npc_count=0, ticks=30).reduction_ratio == 0.0


def test_cost_report_token_override():
    report = build_cost_report(_dialogue_events(2), npc_count=1, ticks=4, tokens_per_call=100)
    assert report.cascade_tokens == 200
    assert report.baseline_tokens == 400
    assert report.reduction_ratio == 0.5
