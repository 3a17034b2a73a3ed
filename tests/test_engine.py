"""Engine integration: phase pipeline, determinism, scaling, dialogue seam."""

from __future__ import annotations

import json

import pytest

from conftest import MARKET_PATH, load_town, minimal_town

from cascade.core import NpcProfile
from cascade.engine import Simulation, replicate_roster, run_meta
from cascade.scenario import initial_ledger
from cascade.trace import PHASE_INDEX

# Tick 3 is the crisis tick: pressure walks 0.3 -> 0.5 -> 0.7 -> ~0.9.


def crisis_town() -> dict:
    return {
        "schema_version": 1,
        "meta": {"name": "crisis"},
        "seed_default": 3,
        "ledger_init": {
            "season": "Dry",
            "variables": [{"name": "pressure", "intensity": 0.3}],
        },
        "drift_schedule": [
            {"variable": "pressure", "delta_per_tick": 0.2, "start_tick": 1, "end_tick": 10}
        ],
        "macro_rules": [
            {
                "id": "overload",
                "name": "Overload",
                "trigger": [{"variable": "pressure", "op": ">=", "level": "Critical"}],
                "consistency_requirements": [{"field": "season", "op": "ne", "value": "Rainy"}],
                "effects": [{"variable": "pressure", "delta_per_tick": -0.05, "duration_ticks": 3}],
                "cooldown_ticks": 50,
            }
        ],
        "domain_modules": [
            {
                "id": "labor",
                "activation": [{"rule_id": "overload"}],
                "directives": [
                    {
                        "selector": {"mode": "any", "tags": ["Worker"]},
                        "action_id": "work",
                        "parameters": {"effort_pct": {"variable": "pressure", "scale": 100}},
                        "base_priority": 0.9,
                        "risk": 0.1,
                        "ttl_ticks": 20,
                    }
                ],
            }
        ],
        "action_catalog": [
            {"action_id": "work", "trait_affinities": {"diligence": 1}, "local_effects": {"wealth": 1}},
            {"action_id": "idle", "default": True},
        ],
        "npcs": [
            {
                "id": "worker",
                "tags": ["Worker"],
                "role_tag": "Worker",
                "personality": {"diligence": 0.5},
                "local_state": {"wealth": 5},
            },
            {"id": "loafer", "tags": ["Idler"], "role_tag": "Idler", "local_state": {"wealth": 5}},
        ],
    }


def events_of(sim: Simulation, kind: str):
    return [e for e in sim.trace.events if e.kind == kind]


# --- pipeline ----------------------------------------------------------------


def test_empty_world_only_acts():
    sim = Simulation(load_town(minimal_town()))
    summary = sim.run(5)
    assert summary.ticks == 5
    assert summary.events_fired == 0
    assert summary.directives_issued == 0
    assert summary.actions_executed == 5
    assert summary.llm_calls == 0
    kinds = [e.kind for e in sim.trace.events]
    assert kinds == ["ActionExecuted"] * 5
    assert all(e.payload["action"] == "idle" for e in sim.trace.events)


def test_crisis_cascades_from_event_to_action():
    sim = Simulation(load_town(crisis_town()))
    sim.run(4)

    fired = events_of(sim, "EventFired")
    assert [e.tick for e in fired] == [3]
    assert fired[0].payload["event"] == "overload@3"
    assert fired[0].payload["rule"] == "overload"
    assert fired[0].payload["name"] == "Overload"
    assert fired[0].payload["trigger_snapshot"]["pressure"] == pytest.approx(0.9)

    woken = events_of(sim, "ModuleActivated")
    assert [(e.tick, e.payload["module"], e.payload["event"]) for e in woken] == [(3, "labor", "overload@3")]

    issued = events_of(sim, "DirectiveIssued")
    assert len(issued) == 1
    packet = issued[0].payload["directive"]
    assert packet["id"] == "d000001"
    assert packet["source_module"] == "labor"
    assert packet["cause_event"] == "overload@3"
    assert packet["selector_mode"] == "any"
    assert packet["selector_tags"] == ["Worker"]
    assert packet["action_id"] == "work"
    assert packet["parameters"]["effort_pct"] == pytest.approx(90.0)
    assert packet["issued_tick"] == 3
    assert packet["ttl_ticks"] == 20

    delivered = events_of(sim, "DirectiveDelivered")
    assert len(delivered) == 1
    assert delivered[0].payload == {"directive": "d000001", "npcs": ["worker"], "count": 1}

    # Only the matching NPC scores the directive; it keeps re-scoring on
    # every later tick while the directive lives.
    scored = events_of(sim, "UtilityEvaluated")
    assert [(e.tick, e.payload["npc"]) for e in scored] == [(3, "worker"), (4, "worker")]
    assert scored[0].payload["total"] == pytest.approx(0.9 + 0.5 + 0.0 - 0.1)
    assert scored[0].payload["accepted"] is True

    acts = {(e.tick, e.payload["npc"]): e.payload for e in events_of(sim, "ActionExecuted")}
    assert acts[(3, "worker")]["action"] == "work"
    assert acts[(3, "worker")]["directive"] == "d000001"
    assert acts[(3, "loafer")]["action"] == "idle"
    assert acts[(3, "loafer")]["directive"] is None
    assert acts[(2, "worker")]["action"] == "idle"


def test_one_action_per_npc_per_tick(golden):
    sim = Simulation(golden, seed=7)
    sim.run(3)
    acts = events_of(sim, "ActionExecuted")
    assert len(acts) == 3 * 10
    per_tick = {}
    for e in acts:
        per_tick.setdefault(e.tick, []).append(e.payload["npc"])
    for tick, npcs in per_tick.items():
        assert sorted(npcs) == sorted({n.id for n in sim.scenario.npcs})


def test_golden_summary_counts(golden):
    sim = Simulation(golden, seed=7)
    summary = sim.run(30)
    assert summary.ticks == 30
    assert summary.npc_count == 10
    assert summary.events_fired == 1
    assert summary.events_rejected == 0
    assert summary.directives_issued == 5
    assert summary.actions_executed == 300
    assert summary.migrations == 0
    assert summary.llm_calls == 0
    assert summary.line() == (
        "ticks=30 npcs=10 events_fired=1 directives_issued=5 "
        "actions_executed=300 llm_calls=0"
    )


def test_rejected_events_never_enter_the_ledger(golden_path):
    doc = json.loads(golden_path.read_text(encoding="utf-8"))
    doc["ledger_init"]["season"] = "Rainy"
    sim = Simulation(load_town(doc), seed=7)
    summary = sim.run(30)
    # The trigger holds from tick 4 on; every candidate is re-proposed and
    # re-rejected because nothing enters the fired log.
    assert summary.events_fired == 0
    assert summary.events_rejected == 27
    assert sim.ledger.fired_log == ()
    rejected = events_of(sim, "EventRejected")
    assert {e.payload["reason"] for e in rejected} == {"season is Rainy"}
    assert {e.payload["violated_requirement"] for e in rejected} == {"season != Rainy"}
    assert events_of(sim, "DirectiveIssued") == []


def test_trace_is_totally_ordered(golden):
    sim = Simulation(golden, seed=7)
    sim.run(30)

    def subject(event):
        p = event.payload
        if event.kind == "VariableChanged":
            return (p["variable"],)
        if event.kind in ("EventFired", "EventRejected"):
            return (p["event"],)
        if event.kind == "ModuleActivated":
            return (p["module"], p["event"])
        if event.kind == "DirectiveIssued":
            return (p["directive"]["id"],)
        if event.kind == "DirectiveDelivered":
            return (p["directive"],)
        if event.kind == "UtilityEvaluated":
            return (p["npc"], p["directive"])
        return (p["npc"],)

    events = sim.trace.events
    marks = [(e.tick, PHASE_INDEX[e.phase]) for e in events]
    assert marks == sorted(marks)
    groups = {}
    for e in events:
        groups.setdefault((e.tick, e.phase), []).append(subject(e))
    for subjects in groups.values():
        assert subjects == sorted(subjects)


def test_migration_runs_in_the_pipeline():
    doc = minimal_town()
    doc["action_catalog"] = [
        {"action_id": "toil", "local_effects": {"wealth": -2}, "default": True},
    ]
    doc["migration_rules"] = [
        {"from_tag": "Villager", "to_tag": "Beggar", "field": "wealth", "op": "<", "threshold": 2, "hysteresis_margin": 0.5},
    ]
    doc["npcs"][0]["local_state"]["wealth"] = 5
    sim = Simulation(load_town(doc))
    summary = sim.run(3)
    assert summary.migrations == 1
    migrated = events_of(sim, "TagMigrated")
    assert len(migrated) == 1
    assert migrated[0].tick == 2  # wealth: 5 -> 3 -> 1
    assert migrated[0].payload == {"npc": "solo", "from": "Villager", "to": "Beggar", "field": "wealth", "value": 1.0}
    assert sim.npcs["solo"].role_tag == "Beggar"
    final_act = [e for e in events_of(sim, "ActionExecuted") if e.tick == 3][0]
    assert final_act.payload["tags"] == ("Beggar",)


# --- determinism and the dialogue seam ---------------------------------------


def test_same_seed_same_trace(golden):
    first = Simulation(golden, seed=11)
    second = Simulation(golden, seed=11)
    first.run(12)
    second.run(12)
    assert first.trace.meta == second.trace.meta
    assert first.trace.events == second.trace.events


def test_long_run_keeps_no_state_per_past_tick(golden_path):
    doc = json.loads(golden_path.read_text(encoding="utf-8"))
    (drift,) = doc["drift_schedule"]
    drift["noise"] = 0.05
    scenario = load_town(doc)
    sim = Simulation(scenario, seed=7)
    sim.run(3000)
    assert sim.summary.directives_issued > 100
    assert sorted(sim.directive_index) == sorted(d.id for d in sim.active_directives)
    assert events_of(sim, "VariableChanged")
    for name, var in sim.ledger.variables.items():
        assert var.history == initial_ledger(scenario).variables[name].history


def test_ledger_keeps_one_firing_per_rule(tmp_path):
    scenario = load_town(json.loads(MARKET_PATH.read_text(encoding="utf-8")))
    with open(tmp_path / "market.jsonl", "w", encoding="utf-8") as sink:
        sim = Simulation(scenario, seed=7, trace_stream=sink)
        summary = sim.run(2000)
    assert summary.events_fired > len(scenario.rules)  # rules refired
    rule_ids = [ev.rule_id for ev in sim.ledger.fired_log]
    assert len(rule_ids) == len(set(rule_ids)) <= len(scenario.rules) == 3


def test_dialogue_leaves_the_simulation_untouched(golden):
    plain = Simulation(golden, seed=7)
    plain.run(30)

    chatty = Simulation(golden, seed=7)
    for _ in range(30):
        chatty.step()
        if chatty.ledger.tick in (10, 20, 30):
            chatty.request_dialogue("merchant_1", "how is business?")
    chatty.trace.close()

    dialogue = [e for e in chatty.trace.events if e.kind == "DialogueRequested"]
    assert len(dialogue) == 3
    assert [e.tick for e in dialogue] == [10, 20, 30]
    assert all(e.phase == "Dialogue" for e in dialogue)
    rest = [e for e in chatty.trace.events if e.kind != "DialogueRequested"]
    assert rest == plain.trace.events
    assert chatty.summary.llm_calls == 3
    assert plain.summary.llm_calls == 0


def test_dialogue_response_grounds_in_the_run(golden):
    sim = Simulation(golden, seed=7)
    sim.run(10)  # past the drought tick
    text = sim.request_dialogue("merchant_1", "how is business?")
    assert text.startswith("[merchant_1|raise_price]")
    assert "severe drought" in text
    event = [e for e in sim.trace.events if e.kind == "DialogueRequested"][-1]
    assert event.payload["utterance"] == "how is business?"
    assert event.payload["response"] == text


def test_baseline_mode_prompts_every_npc_every_tick():
    sim = Simulation(load_town(minimal_town()), baseline_mode="full-generative")
    summary = sim.run(4)
    assert summary.llm_calls == 4
    dialogue = events_of(sim, "DialogueRequested")
    assert [e.tick for e in dialogue] == [1, 2, 3, 4]
    # The simulated behaviour is identical; only dialogue lines are added.
    plain = Simulation(load_town(minimal_town()))
    plain.run(4)
    rest = [e for e in sim.trace.events if e.kind != "DialogueRequested"]
    assert rest == plain.trace.events


def test_unknown_baseline_mode_is_rejected():
    with pytest.raises(ValueError):
        Simulation(load_town(minimal_town()), baseline_mode="half-generative")


# --- roster scaling ----------------------------------------------------------


def test_replicate_roster_cycles_whole_copies(golden):
    roster = replicate_roster(golden.npcs, 25)
    assert len(roster) == 25
    ids = [n.id for n in roster]
    assert len(set(ids)) == 25
    assert ids[:10] == [n.id for n in golden.npcs]
    assert ids[10] == f"{golden.npcs[0].id}_x1"
    assert ids[20] == f"{golden.npcs[0].id}_x2"
    # Copies keep everything but the id.
    assert roster[10].tags == golden.npcs[0].tags
    assert roster[10].local_state == golden.npcs[0].local_state


def test_replicate_roster_scales_tag_census_at_multiples(golden):
    def census(npcs):
        counts = {}
        for npc in npcs:
            for tag in npc.tags:
                counts[tag] = counts.get(tag, 0) + 1
        return counts

    base = census(golden.npcs)
    scaled = census(replicate_roster(golden.npcs, 100))
    assert scaled == {tag: 10 * n for tag, n in base.items()}


def test_replicate_roster_rejects_bad_targets(golden):
    with pytest.raises(ValueError):
        replicate_roster(golden.npcs, 0)
    with pytest.raises(ValueError):
        replicate_roster((), 5)


def test_colliding_roster_ids_are_rejected():
    # Replicating mayor and mayor_x1 to four NPCs yields mayor_x1 twice.
    doc = minimal_town()
    doc["npcs"] = [dict(doc["npcs"][0], id=npc_id) for npc_id in ("mayor", "mayor_x1")]
    with pytest.raises(ValueError, match="duplicate npc id 'mayor_x1'"):
        Simulation(load_town(doc), npc_count=4)


def test_run_meta_shape(golden):
    meta = run_meta(golden, seed=7, npc_count=10)
    assert meta == {"scenario": "drought_town", "seed": 7, "schema_version": 1, "npc_count": 10}
    sim = Simulation(golden, seed=7, npc_count=20)
    assert sim.meta["npc_count"] == 20
    assert len(sim.npcs) == 20
