"""Macro layer: clock drift, rule evaluation, the critic, event commit."""

from __future__ import annotations

import random

import pytest

from conftest import load_town, minimal_town

from cascade.core import (
    CausalVariable,
    CriticVerdict,
    Effect,
    InvariantViolation,
    LedgerRequirement,
    Level,
    MacroEvent,
    MacroEventRule,
    VariablePredicate,
    WorldLedger,
)
from cascade.director import (
    DriftEntry,
    advance_clock,
    apply_event,
    critic_check,
    evaluate_rules,
)
from cascade.engine import Simulation


def ledger_with(tick=0, season="Dry", **intensities) -> WorldLedger:
    variables = {name: CausalVariable(name, value) for name, value in intensities.items()}
    return WorldLedger(tick=tick, variables=variables, season=season)


def drought_rule(**overrides) -> MacroEventRule:
    base = dict(
        id="severe_drought",
        name="Severe Drought",
        trigger=(VariablePredicate("water_scarcity", ">=", level=Level.CRITICAL),),
        consistency_requirements=(LedgerRequirement("season", "ne", "Rainy"),),
        effects=(Effect("food_scarcity", 0.02, 10),),
        cooldown_ticks=60,
    )
    base.update(overrides)
    return MacroEventRule(**base)


# --- advance_clock -----------------------------------------------------------


def test_drift_applies_inside_window():
    ledger = ledger_with(water_scarcity=0.75)
    drifts = (DriftEntry("water_scarcity", 0.1, 1, 30),)
    after = advance_clock(ledger, drifts)
    assert after.tick == 1
    assert after.intensity("water_scarcity") == pytest.approx(0.85)
    assert after.level("water_scarcity") is Level.CRITICAL


def test_drift_window_edges_are_inclusive():
    drifts = (DriftEntry("x", 0.1, 2, 3),)
    ledger = ledger_with(tick=0, x=0.0)
    ledger = advance_clock(ledger, drifts)  # tick 1: before the window
    assert ledger.intensity("x") == 0.0
    ledger = advance_clock(ledger, drifts)  # tick 2: first in-window tick
    assert ledger.intensity("x") == pytest.approx(0.1)
    ledger = advance_clock(ledger, drifts)  # tick 3: last in-window tick
    assert ledger.intensity("x") == pytest.approx(0.2)
    ledger = advance_clock(ledger, drifts)  # tick 4: past the window
    assert ledger.intensity("x") == pytest.approx(0.2)


def test_drift_clamps_to_unit_interval():
    drifts = (DriftEntry("up", 0.3, 1, 5), DriftEntry("down", -0.4, 1, 5))
    after = advance_clock(ledger_with(up=0.9, down=0.2), drifts)
    assert after.intensity("up") == 1.0
    assert after.intensity("down") == 0.0


def test_drift_unknown_variable_raises():
    drifts = (DriftEntry("ghost", 0.1, 1, 5),)
    with pytest.raises(KeyError):
        advance_clock(ledger_with(x=0.5), drifts)


def test_drift_noise_is_reproducible_and_optional():
    drifts = (DriftEntry("x", 0.1, 1, 5, noise=0.05),)
    one = advance_clock(ledger_with(x=0.5), drifts, random.Random(7))
    two = advance_clock(ledger_with(x=0.5), drifts, random.Random(7))
    assert one.intensity("x") == two.intensity("x")
    assert abs(one.intensity("x") - 0.6) <= 0.05 + 1e-12
    # Without a generator the noise term is skipped entirely.
    plain = advance_clock(ledger_with(x=0.5), drifts, None)
    assert plain.intensity("x") == pytest.approx(0.6)


def test_active_effects_apply_then_expire():
    active = MacroEvent("e", "e@0", 0, effects=(Effect("food_scarcity", 0.02, 2),))
    ledger = ledger_with(food_scarcity=0.2)
    ledger = WorldLedger(
        tick=ledger.tick, variables=ledger.variables, season=ledger.season, fired_log=(active,)
    )
    ledger = advance_clock(ledger, ())
    assert ledger.intensity("food_scarcity") == pytest.approx(0.22)
    assert active.active_at(ledger.tick)
    ledger = advance_clock(ledger, ())
    assert ledger.intensity("food_scarcity") == pytest.approx(0.24)
    assert not active.active_at(ledger.tick)
    ledger = advance_clock(ledger, ())
    assert ledger.intensity("food_scarcity") == pytest.approx(0.24)
    assert ledger.fired_log == (active,)  # an exhausted event stays, landing nothing


def test_drifts_before_effects_with_clamp_between():
    # 0.95 + 0.1 clamps to 1.0 before the -0.3 effect lands; applying both
    # deltas first would give 0.75 instead.
    active = MacroEvent("e", "e@0", 0, effects=(Effect("x", -0.3, 1),))
    ledger = WorldLedger(
        tick=0,
        variables={"x": CausalVariable("x", 0.95)},
        season="Dry",
        fired_log=(active,),
    )
    after = advance_clock(ledger, (DriftEntry("x", 0.1, 1, 5),))
    assert after.intensity("x") == pytest.approx(0.7)


def test_history_records_one_entry_per_changed_variable():
    # The trajectory goes to the trace: one Clock line per changed variable,
    # in name order, while `history` keeps only the load-time entry.
    doc = minimal_town()
    doc["ledger_init"]["variables"] = [
        {"name": "x", "intensity": 0.2},
        {"name": "untouched", "intensity": 0.5},
        {"name": "a", "intensity": 0.1},
    ]
    doc["drift_schedule"] = [
        {"variable": "x", "delta_per_tick": 0.1, "start_tick": 1, "end_tick": 5},
        {"variable": "x", "delta_per_tick": 0.05, "start_tick": 1, "end_tick": 5},
        {"variable": "a", "delta_per_tick": 0.1, "start_tick": 1, "end_tick": 1},
    ]
    sim = Simulation(load_town(doc))
    before = sim.ledger
    sim.step()
    lines = [(e.tick, e.phase, e.payload) for e in sim.trace.events if e.kind == "VariableChanged"]
    assert lines == [
        (1, "Clock", {"variable": "a", "intensity": pytest.approx(0.2)}),
        (1, "Clock", {"variable": "x", "intensity": pytest.approx(0.35)}),
    ]
    assert sim.ledger.variables["x"].history == ((0, 0.2),)
    assert sim.ledger.variables["untouched"] is before.variables["untouched"]


# --- evaluate_rules ----------------------------------------------------------


def test_candidate_carries_instance_id_and_snapshot():
    ledger = ledger_with(tick=4, water_scarcity=0.85)
    candidates = evaluate_rules(ledger, (drought_rule(),))
    assert len(candidates) == 1
    event = candidates[0]
    assert event.rule_id == "severe_drought"
    assert event.instance_id == "severe_drought@4"
    assert event.fired_tick == 4
    assert event.trigger_snapshot == {"water_scarcity": 0.85}
    assert event.critic_verdict is None


def test_trigger_is_a_conjunction():
    rule = drought_rule(
        trigger=(
            VariablePredicate("water_scarcity", ">=", level=Level.CRITICAL),
            VariablePredicate("morale", "<=", intensity=0.3),
        )
    )
    low_morale = ledger_with(water_scarcity=0.85, morale=0.2)
    assert len(evaluate_rules(low_morale, (rule,))) == 1
    high_morale = ledger_with(water_scarcity=0.85, morale=0.6)
    assert evaluate_rules(high_morale, (rule,)) == []


def test_intensity_predicates_compare_raw_values():
    rule = drought_rule(trigger=(VariablePredicate("x", "<=", intensity=0.25),))
    assert len(evaluate_rules(ledger_with(x=0.25), (rule,))) == 1
    assert evaluate_rules(ledger_with(x=0.26), (rule,)) == []


def test_level_predicates_compare_ordinals():
    rule = drought_rule(trigger=(VariablePredicate("x", ">=", level=Level.ELEVATED),))
    assert len(evaluate_rules(ledger_with(x=0.4), (rule,))) == 1
    assert evaluate_rules(ledger_with(x=0.39), (rule,)) == []


def test_active_rule_does_not_refire():
    ledger = ledger_with(tick=5, water_scarcity=0.9)
    ledger = WorldLedger(
        tick=ledger.tick,
        variables=ledger.variables,
        season=ledger.season,
        fired_log=(MacroEvent("severe_drought", "severe_drought@4", 4, effects=(Effect("water_scarcity", 0.0, 3),)),),
    )
    assert evaluate_rules(ledger, (drought_rule(),)) == []


def test_cooldown_requires_strictly_more_ticks():
    fired = MacroEvent("severe_drought", "severe_drought@10", 10, critic_verdict=CriticVerdict.accept())
    rule = drought_rule(cooldown_ticks=5)

    def at(tick: int) -> list:
        ledger = ledger_with(tick=tick, water_scarcity=0.9)
        ledger = WorldLedger(
            tick=ledger.tick, variables=ledger.variables, season=ledger.season, fired_log=(fired,)
        )
        return evaluate_rules(ledger, (rule,))

    assert at(15) == []  # 15 - 10 == cooldown: still blocked
    assert len(at(16)) == 1  # 16 - 10 > cooldown


def test_empty_trigger_never_fires():
    rule = drought_rule(trigger=())
    assert evaluate_rules(ledger_with(water_scarcity=0.9), (rule,)) == []


def test_candidates_come_back_sorted_by_rule_id():
    rules = (
        drought_rule(id="zeta", trigger=(VariablePredicate("x", ">=", intensity=0.0),)),
        drought_rule(id="alpha", trigger=(VariablePredicate("x", ">=", intensity=0.0),)),
    )
    candidates = evaluate_rules(ledger_with(x=0.5), rules)
    assert [c.rule_id for c in candidates] == ["alpha", "zeta"]


# --- critic ------------------------------------------------------------------


def test_critic_accepts_when_requirements_hold():
    ledger = ledger_with(tick=4, season="Dry", water_scarcity=0.85)
    candidate = evaluate_rules(ledger, (drought_rule(),))[0]
    verdict = critic_check(drought_rule(), ledger)
    assert verdict == CriticVerdict.accept()


def test_critic_rejects_drought_in_rainy_season():
    ledger = ledger_with(tick=4, season="Rainy", water_scarcity=0.85)
    candidate = evaluate_rules(ledger, (drought_rule(),))[0]
    verdict = critic_check(drought_rule(), ledger)
    assert not verdict.accepted
    assert verdict.reason == "season is Rainy"
    assert verdict.violated_requirement == "season != Rainy"


def test_critic_names_the_first_violated_requirement():
    rule = drought_rule(
        consistency_requirements=(
            LedgerRequirement("tick", "ge", 10),
            LedgerRequirement("season", "ne", "Rainy"),
        )
    )
    ledger = ledger_with(tick=4, season="Rainy", water_scarcity=0.85)
    candidate = evaluate_rules(ledger, (rule,))[0]
    verdict = critic_check(rule, ledger)
    assert verdict.violated_requirement == "tick >= 10"
    assert verdict.reason == "tick is 4"


def test_critic_checks_variables_at_level_granularity():
    # A string-valued requirement compares levels; the reason shows the label.
    rule = drought_rule(consistency_requirements=(LedgerRequirement("morale", "ge", "Elevated"),))
    ledger = ledger_with(tick=4, water_scarcity=0.85, morale=0.1)
    candidate = evaluate_rules(ledger, (rule,))[0]
    verdict = critic_check(rule, ledger)
    assert not verdict.accepted
    assert verdict.reason == "morale is Normal"
    assert verdict.violated_requirement == "morale >= Elevated"


def test_critic_checks_variables_at_intensity_granularity():
    rule = drought_rule(consistency_requirements=(LedgerRequirement("morale", "le", 0.5),))
    ledger = ledger_with(tick=4, water_scarcity=0.85, morale=0.7)
    candidate = evaluate_rules(ledger, (rule,))[0]
    verdict = critic_check(rule, ledger)
    assert not verdict.accepted
    assert verdict.reason == "morale is 0.7"


def test_critic_passes_rules_without_requirements():
    rule = drought_rule(consistency_requirements=())
    ledger = ledger_with(tick=4, season="Rainy", water_scarcity=0.85)
    candidate = evaluate_rules(ledger, (rule,))[0]
    assert critic_check(rule, ledger).accepted


# --- apply_event -------------------------------------------------------------


def test_apply_event_commits_effects_and_log():
    ledger = ledger_with(tick=4, water_scarcity=0.85, food_scarcity=0.2)
    rule = drought_rule()
    candidate = evaluate_rules(ledger, (rule,))[0]
    event = MacroEvent(
        rule_id=candidate.rule_id,
        instance_id=candidate.instance_id,
        fired_tick=candidate.fired_tick,
        trigger_snapshot=candidate.trigger_snapshot,
        critic_verdict=CriticVerdict.accept(),
        effects=candidate.effects,
    )
    after = apply_event(ledger, event)
    assert after.fired_log == (event,)
    assert event.active_at(4)
    assert event.instance_id == "severe_drought@4"
    assert event.effects == (Effect("food_scarcity", 0.02, 10),)
    # The ledger itself only gains the registration; intensities move on the
    # next clock advance.
    assert after.intensity("food_scarcity") == 0.2


@pytest.mark.parametrize("verdict", [None, CriticVerdict.reject("season is Rainy", "season != Rainy")])
def test_apply_event_requires_an_accepting_verdict(verdict):
    ledger = ledger_with(tick=4, water_scarcity=0.85, food_scarcity=0.2)
    event = MacroEvent("severe_drought", "severe_drought@4", 4, critic_verdict=verdict)
    with pytest.raises(InvariantViolation):
        apply_event(ledger, event)


def test_apply_event_replaces_only_an_expired_firing():
    def fired(rule_id: str, tick: int) -> MacroEvent:
        return MacroEvent(
            rule_id, f"{rule_id}@{tick}", tick,
            critic_verdict=CriticVerdict.accept(), effects=(Effect("y", 0.0, 3),),
        )

    ledger = apply_event(ledger_with(tick=2, y=0.1), fired("other", 2))
    ledger = apply_event(ledger, fired("e", 2))
    with pytest.raises(InvariantViolation):
        apply_event(ledger, fired("e", 4))  # 4 - 2 < 3: the first is still active
    after = apply_event(ledger, fired("e", 5))
    assert [ev.instance_id for ev in after.fired_log] == ["other@2", "e@5"]


def test_rule_refires_after_effects_expire():
    # Fired at tick 1, the instance's effects land on ticks 2 and 3 and the
    # instance stops being active on tick 3, so with no cooldown the rule
    # is eligible again that same tick. Each instance still gets exactly
    # its 2 effect ticks; coverage never overlaps.
    rule = drought_rule(
        trigger=(VariablePredicate("x", ">=", intensity=0.5),),
        consistency_requirements=(),
        effects=(Effect("y", 0.0, 2),),
        cooldown_ticks=0,
    )
    ledger = ledger_with(x=0.9, y=0.1)
    fired_ticks = []
    for _ in range(6):
        ledger = advance_clock(ledger, ())
        for candidate in evaluate_rules(ledger, (rule,)):
            event = MacroEvent(
                candidate.rule_id,
                candidate.instance_id,
                candidate.fired_tick,
                candidate.trigger_snapshot,
                CriticVerdict.accept(),
                candidate.effects,
            )
            ledger = apply_event(ledger, event)
            fired_ticks.append(ledger.tick)
    assert fired_ticks == [1, 3, 5]
