"""Value types: levels, tags, selectors, profile checks, the wire packet."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cascade.core import (
    CausalVariable,
    CriticVerdict,
    Directive,
    Effect,
    LedgerRequirement,
    Level,
    LevelThresholds,
    MacroEvent,
    NpcProfile,
    TagSelector,
    VariablePredicate,
    WorldLedger,
    clamp,
    directive_to_packet,
    is_valid_tag,
    level_for,
    selector_matches,
    validate_profile,
)

DEFAULTS = LevelThresholds()


def test_level_boundaries_are_inclusive():
    assert level_for(0.0, DEFAULTS) is Level.NORMAL
    assert level_for(0.39, DEFAULTS) is Level.NORMAL
    assert level_for(0.4, DEFAULTS) is Level.ELEVATED
    assert level_for(0.79, DEFAULTS) is Level.ELEVATED
    assert level_for(0.8, DEFAULTS) is Level.CRITICAL
    assert level_for(1.0, DEFAULTS) is Level.CRITICAL


def test_level_order_and_labels():
    assert Level.NORMAL < Level.ELEVATED < Level.CRITICAL
    assert [lv.label for lv in Level] == ["Normal", "Elevated", "Critical"]


def test_scenario_thresholds_override():
    tight = LevelThresholds(elevated=0.2, critical=0.5)
    assert level_for(0.3, tight) is Level.ELEVATED
    assert level_for(0.5, tight) is Level.CRITICAL


def test_clamp():
    assert clamp(1.2, 0.0, 1.0) == 1.0
    assert clamp(-0.1, 0.0, 1.0) == 0.0
    assert clamp(0.5, 0.0, 1.0) == 0.5


@pytest.mark.parametrize("tag", ["Farmer", "water_scarcity", "x1-a", "A"])
def test_valid_tags(tag):
    assert is_valid_tag(tag)


@pytest.mark.parametrize("tag", ["", "1abc", "bad tag", "tag!", "-lead", "_lead"])
def test_invalid_tags(tag):
    assert not is_valid_tag(tag)


def test_selector_any_needs_one_shared_tag():
    selector = TagSelector("any", ("Farmer", "Guard"))
    assert selector_matches(selector, ("Merchant", "Guard"))
    assert not selector_matches(selector, ("Merchant", "Leader"))
    assert not selector_matches(selector, ())


def test_selector_all_needs_containment():
    selector = TagSelector("all", ("Farmer", "Hardworking"))
    assert selector_matches(selector, ("Farmer", "Hardworking", "Poor"))
    assert not selector_matches(selector, ("Farmer",))


_TAGS = ("A", "B", "C", "D")


@given(
    mode=st.sampled_from(["any", "all"]),
    selector_tags=st.sets(st.sampled_from(_TAGS), min_size=1),
    npc_tags=st.sets(st.sampled_from(_TAGS)),
)
def test_selector_matches_set_algebra(mode, selector_tags, npc_tags):
    selector = TagSelector(mode, tuple(sorted(selector_tags)))
    got = selector_matches(selector, tuple(sorted(npc_tags)))
    if mode == "any":
        assert got == bool(selector_tags & npc_tags)
    else:
        assert got == selector_tags.issubset(npc_tags)


def _directive(**overrides) -> Directive:
    base = dict(
        id="d000001",
        source_module="economy",
        cause_event="severe_drought@4",
        selector=TagSelector("any", ("Merchant",)),
        action_id="raise_price",
        parameters={"price_delta_pct": 30},
        base_priority=0.6,
        risk=0.2,
        issued_tick=4,
        ttl_ticks=30,
    )
    base.update(overrides)
    return Directive(**base)


def test_packet_has_exactly_the_wire_fields():
    packet = directive_to_packet(_directive())
    assert sorted(packet) == [
        "action_id",
        "base_priority",
        "cause_event",
        "id",
        "issued_tick",
        "parameters",
        "risk",
        "selector_mode",
        "selector_tags",
        "source_module",
        "ttl_ticks",
    ]


def test_packet_sorts_selector_tags():
    packet = directive_to_packet(_directive(selector=TagSelector("any", ("Z", "A", "M"))))
    assert packet["selector_tags"] == ["A", "M", "Z"]


def test_verdict_constructors():
    ok = CriticVerdict.accept()
    assert ok.accepted and ok.reason == "" and ok.violated_requirement is None
    bad = CriticVerdict.reject(reason="season is Rainy", requirement="season != Rainy")
    assert not bad.accepted
    assert bad.reason == "season is Rainy"
    assert bad.violated_requirement == "season != Rainy"


def test_requirement_describe_symbols():
    assert LedgerRequirement("season", "ne", "Rainy").describe() == "season != Rainy"
    assert LedgerRequirement("tick", "ge", 10).describe() == "tick >= 10"
    assert LedgerRequirement("morale", "le", "Elevated").describe() == "morale <= Elevated"
    assert LedgerRequirement("season", "eq", "Dry").describe() == "season == Dry"


def test_predicate_describe():
    by_level = VariablePredicate("water_scarcity", ">=", level=Level.CRITICAL)
    assert by_level.describe() == "water_scarcity >= Critical"
    by_intensity = VariablePredicate("morale", "<=", intensity=0.3)
    assert by_intensity.describe() == "morale <= 0.3"


def test_event_is_active_until_its_longest_effect_lands():
    bare = MacroEvent("e", "e@3", 3)
    assert bare.active_at(3)
    assert not bare.active_at(4)
    mixed = MacroEvent("e", "e@3", 3, effects=(Effect("x", 0.1, 2), Effect("y", 0.1, 5), Effect("x", 0.1, 1)))
    assert [t for t in range(3, 12) if mixed.active_at(t)] == [3, 4, 5, 6, 7]


def _profile(**overrides) -> NpcProfile:
    base = dict(
        id="farmer_1",
        tags=("Farmer", "Hardworking"),
        role_tag="Farmer",
        personality={"diligence": 0.8},
        needs={"hunger": 0.3},
        local_state={"wealth": 10.0},
    )
    base.update(overrides)
    return NpcProfile(**base)


def test_valid_profile_has_no_violations():
    assert validate_profile(_profile()) == []


def test_profile_violation_messages():
    assert validate_profile(_profile(personality={"greed": 2.0})) == [
        "personality.greed: 2.0 out of [-1, 1]"
    ]
    assert validate_profile(_profile(needs={"hunger": -0.5})) == [
        "needs.hunger: -0.5 out of [0, 1]"
    ]
    assert validate_profile(_profile(local_state={})) == ["local_state.wealth: required"]
    assert validate_profile(_profile(local_state={"wealth": -1.0})) == [
        "local_state.wealth: -1.0 must be >= 0"
    ]


def test_profile_tag_violations():
    missing = _profile(tags=())
    assert "tags: non-empty set required" in validate_profile(missing)
    duplicated = _profile(tags=("Farmer", "Farmer"))
    assert "tags[1]: duplicate tag 'Farmer'" in validate_profile(duplicated)
    off_role = _profile(role_tag="Guard")
    assert "role_tag: 'Guard' not in tags" in validate_profile(off_role)
    bad_id = _profile(id="9bad")
    assert "id: invalid identifier '9bad'" in validate_profile(bad_id)


def test_ledger_accessors():
    ledger = WorldLedger(
        tick=0,
        variables={"water_scarcity": CausalVariable("water_scarcity", 0.85)},
        season="Dry",
    )
    assert ledger.intensity("water_scarcity") == 0.85
    assert ledger.level("water_scarcity") is Level.CRITICAL
