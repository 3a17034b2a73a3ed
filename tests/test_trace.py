"""Trace format: byte-stable JSONL, parse errors, cost accounting."""

from __future__ import annotations

import gc
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MARKET_PATH

from cascade.engine import Simulation
from cascade.scenario import load_scenario
from cascade.npc import UtilityBreakdown
from cascade.trace import (
    ACTION_ROW,
    CHUNK_ROWS,
    CostReport,
    DEFAULT_TOKENS_PER_CALL,
    EMITTED_ROW,
    KINDS,
    PHASES,
    PHASE_INDEX,
    TraceCollector,
    TraceError,
    TraceEvent,
    TraceWriter,
    build_cost_report,
    encode_event,
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


def test_lines_are_compact_with_sorted_keys():
    sink = io.StringIO()
    writer = TraceWriter(sink, {"b": 1, "a": 2})
    writer.emit(TraceEvent(1, "Act", "ActionExecuted", {"z": 1, "npc": "solo"}))
    first, second = sink.getvalue().splitlines()
    assert first == '{"a":2,"b":1}'
    assert second == '{"kind":"ActionExecuted","npc":"solo","phase":"Act","tick":1,"z":1}'


# --- the line encoder against plain json.dumps ------------------------------


class FloatSubclass(float):
    pass


class IntSubclass(int):
    pass


NUMBERS = st.one_of(
    st.sampled_from([0, 1, -7, 2**70, 0.0, -0.0, 1e-7, 5e-324, 1e15, -1e15, 0.1 + 0.2,
                     1.7976931348623157e308]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Values json.dumps writes like a number or a literal, but which are not an
# exact int or float.
LOOKALIKES = st.sampled_from([True, False, None, FloatSubclass(0.25), IntSubclass(3)])
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
TEXTS = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001d11e", ""]),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    st.one_of(LOOKALIKES, NUMBERS, TEXTS),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(TEXTS, inner, max_size=3)),
    max_leaves=6,
)
CHANGE = st.fixed_dictionaries({"after": NUMBERS, "before": NUMBERS})
# one_of draws its branches about evenly, so repeats weight a branch.
CHANGES = st.one_of(CHANGE, CHANGE, CHANGE, st.fixed_dictionaries({"after": NUMBERS}), JSON_VALUES)
TAGS = st.lists(TEXTS, max_size=3)
PAYLOADS = {
    "VariableChanged": {"variable": TEXTS, "intensity": NUMBERS},
    "UtilityEvaluated": {
        "npc": TEXTS, "directive": TEXTS, "action": TEXTS,
        "base_term": NUMBERS, "trait_term": NUMBERS, "need_term": NUMBERS, "risk_term": NUMBERS,
        "total": NUMBERS, "threshold": NUMBERS, "accepted": st.booleans(),
    },
    "ActionExecuted": {
        "npc": TEXTS,
        "action": TEXTS,
        "directive": st.one_of(st.none(), TEXTS),
        "parameters": st.dictionaries(TEXTS, JSON_VALUES, max_size=3),
        "tags": st.one_of(TAGS, TAGS, TAGS, st.tuples(TEXTS)),
        "state_deltas": st.dictionaries(TEXTS, CHANGES, max_size=3),
    },
}


@st.composite
def templated_events(draw) -> TraceEvent:
    """A payload of one of the templated kinds, right in shape or off by
    one mutation: a field or the envelope's tick or phase of any JSON
    type, a key dropped or added, or a NaN or infinity planted at the top
    level or inside a nested value."""
    kind = draw(st.sampled_from(sorted(PAYLOADS)))
    fields = PAYLOADS[kind]
    payload = {name: draw(strategy) for name, strategy in fields.items()}
    tick = draw(st.integers(min_value=0, max_value=10**6))
    phase = draw(st.one_of(st.sampled_from(PHASES), TEXTS))
    mutation = draw(st.sampled_from(
        ["none", "none", "none", "wrong_type", "envelope", "drop", "extra", "non_finite"]))
    name = draw(st.sampled_from(sorted(fields)))
    wrong = st.one_of(LOOKALIKES, JSON_VALUES)
    if mutation == "wrong_type":
        payload[name] = draw(wrong)
    elif mutation == "envelope":
        tick, phase = draw(st.sampled_from([(draw(wrong), phase), (tick, draw(wrong))]))
    elif mutation == "drop":
        del payload[name]
    elif mutation == "extra":
        payload[draw(st.one_of(st.sampled_from(["tick", "phase", "kind", "zz"]), TEXTS))] = draw(JSON_VALUES)
    elif mutation == "non_finite":
        bad = draw(NON_FINITE)
        payload[name] = draw(st.sampled_from([bad, [bad], {"deep": {"after": bad, "before": 0.5}}]))
    return TraceEvent(tick, phase, kind, payload)


def json_dumps_line(event: TraceEvent) -> str:
    line = {"tick": event.tick, "phase": event.phase, "kind": event.kind}
    line.update(event.payload)
    return json.dumps(line, sort_keys=True, separators=(",", ":"), allow_nan=False)


@settings(max_examples=400)
@given(templated_events())
def test_encode_event_writes_what_json_dumps_writes(event):
    try:
        expected = json_dumps_line(event)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            encode_event(event)
        return
    assert encode_event(event) == expected


def test_writer_refuses_non_finite_numbers():
    writer = TraceWriter(io.StringIO(), META)
    with pytest.raises(ValueError):
        writer.emit(TraceEvent(1, "Score", "UtilityEvaluated", {"total": float("nan")}))


def test_payload_flattens_beside_the_envelope():
    line = TraceEvent(2, "Score", "UtilityEvaluated", {"npc": "guard_1", "total": -0.4}).to_line_dict()
    assert line == {"tick": 2, "phase": "Score", "kind": "UtilityEvaluated", "npc": "guard_1", "total": -0.4}


def test_collector_counts_by_kind():
    # An event of a typed kind may still arrive through emit, with any
    # payload; it comes back as it went in.
    collector = TraceCollector(META)
    collector.emit(TraceEvent(1, "Act", "ActionExecuted", {}))
    collector.action(1, "a", "idle", None, (), (), ())
    collector.emit(TraceEvent(1, "Dialogue", "DialogueRequested", {}))
    assert collector.count("ActionExecuted") == 2
    assert collector.count("DialogueRequested") == 1
    assert collector.count("EventFired") == 0
    assert Counter(e.kind for e in collector.events) == {"ActionExecuted": 2, "DialogueRequested": 1}
    assert next(iter(collector.events)) == TraceEvent(1, "Act", "ActionExecuted", {})


def test_collector_row_widths_tell_the_kinds_apart():
    # A utility row is the tick and the action id before a whole breakdown.
    assert len(UtilityBreakdown._fields) + 2 not in (EMITTED_ROW, ACTION_ROW)


def test_collector_events_rebuild_in_emit_order():
    collector = TraceCollector(META)
    breakdown = UtilityBreakdown("a", "d000001", 0.5, 0.0, 0.25, 0.1, 0.65, 0.5, True)
    emitted = [
        TraceEvent(1, "Critic", "EventFired", {"event": "riot@1", "trigger_snapshot": {"unrest": 0.9}}),
        TraceEvent(1, "Score", "UtilityEvaluated", {
            "npc": "a", "directive": "d000001", "action": "sell", "base_term": 0.5, "trait_term": 0.0,
            "need_term": 0.25, "risk_term": 0.1, "total": 0.65, "threshold": 0.5, "accepted": True,
        }),
        TraceEvent(1, "Act", "ActionExecuted", {
            "npc": "a", "action": "sell", "directive": "d000001", "parameters": {"pct": 30, "mood": "calm"},
            "tags": ("Merchant",), "state_deltas": {"wealth": {"before": 2.0, "after": 7.0}},
        }),
        TraceEvent(1, "Act", "ActionExecuted", {
            "npc": "b", "action": "idle", "directive": None, "parameters": {}, "tags": (), "state_deltas": {},
        }),
        TraceEvent(2, "Clock", "VariableChanged", {"variable": "v", "intensity": 0.1}),
    ]
    collector.emit(emitted[0])
    collector.utility(1, breakdown, "sell")
    collector.action(1, "a", "sell", "d000001", (("mood", "calm"), ("pct", 30)), ("Merchant",), (("wealth", 2.0, 7.0),))
    collector.action(1, "b", "idle", None, (), (), ())
    collector.emit(emitted[4])
    events = collector.events
    assert len(events) == 5
    assert events == emitted and emitted == events
    assert events != emitted[:4] and events != emitted[::-1]
    assert list(events) == list(events) == emitted  # every pass rebuilds the same events


def test_collector_seals_full_chunks_in_order():
    collector = TraceCollector(META)
    count = 2 * CHUNK_ROWS + 5
    for tick in range(count):
        collector.action(tick, "a", "idle", None, (), (), ())
    assert len(collector.events) == count
    assert [e.tick for e in collector.events] == list(range(count))


def _tracked_objects_held(roots) -> list:
    """Distinct objects the garbage collector tracks, reachable from
    `roots` through lists, tuples and dicts."""
    seen: set[int] = set()
    tracked = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked.append(obj)
        if isinstance(obj, (list, tuple, dict)):
            stack.extend(ref for ref in gc.get_referents(obj) if not isinstance(ref, type))
    return tracked


def _market_trace(npcs: int) -> TraceCollector:
    sim = Simulation(load_scenario(MARKET_PATH.read_text(encoding="utf-8")), seed=7, npc_count=npcs)
    for _ in range(30):
        sim.step()
    # Each full collection stops tracking the exact tuples whose items it
    # found untracked, one level of nesting at a time: a directive's
    # parameter pairs, then the pairs' tuple, then the rows, then a chunk.
    for _ in range(4):
        gc.collect()
    return sim.trace


def test_collected_trace_stays_out_of_full_collections():
    # Every tracked object a run keeps is walked by each full collection.
    # The collector may hold its three lists and the payloads of the rare
    # kinds that carry containers (a fired event's trigger snapshot, an
    # issued directive's packet, a delivery's NPC list), and nothing per
    # NPC: the count is the same at 100 and at 1,000 NPCs.
    large = _market_trace(1000)
    events = list(large.events)
    assert sum(1 for e in events if e.kind == "ActionExecuted") == 30_000
    rare = [e.payload for e in events if e.kind not in ("UtilityEvaluated", "ActionExecuted")]
    held = _tracked_objects_held(vars(large).values())
    assert len(held) == 3 + len(_tracked_objects_held(rare))
    assert len(held) == len(_tracked_objects_held(vars(_market_trace(100)).values()))
    # A collection also visits each item of a tracked container; sealed
    # chunks keep the rows out of any one long list.
    assert len(events) > 4 * CHUNK_ROWS
    assert max(len(gc.get_referents(obj)) for obj in held) < 2 * CHUNK_ROWS


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


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
@pytest.mark.parametrize("line_no", [1, 2])
def test_reader_rejects_non_finite_numbers(number, line_no):
    lines = [json.dumps(META), '{"tick":1,"phase":"Clock","kind":"VariableChanged","variable":"x","intensity":0.5}']
    lines[line_no - 1] = lines[line_no - 1][:-1] + f',"bad":[{number}]}}'
    with pytest.raises(TraceError) as excinfo:
        read_trace(io.StringIO("\n".join(lines) + "\n"))
    assert str(excinfo.value) == f"trace line {line_no}: non-finite number {number}"


def test_reader_keeps_the_largest_finite_floats():
    line = '{"tick":1,"phase":"Clock","kind":"VariableChanged","big":1.7976931348623157e308,"tiny":5e-324}'
    _, (event,) = read_trace(io.StringIO(json.dumps(META) + "\n" + line + "\n"))
    assert event.payload == {"big": 1.7976931348623157e308, "tiny": 5e-324}


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
