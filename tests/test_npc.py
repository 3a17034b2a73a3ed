"""NPC layer: utility scoring, action selection and execution, tag
migration with hysteresis, and the dialogue seam."""

from __future__ import annotations

from dataclasses import replace

import pytest

from cascade.behavior import ActionLeaf, Condition
from cascade.core import (
    CausalVariable,
    Directive,
    InvariantViolation,
    NpcProfile,
    TagSelector,
    WorldLedger,
)
from cascade.npc import (
    ActionBinding,
    LlmCallCounter,
    NpcSnapshot,
    TagMigrationRule,
    TemplateDialogueProvider,
    UtilityBreakdown,
    UtilityWeights,
    best_breakdown,
    effective_margin,
    execute_action,
    migrate_tags,
    request_dialogue,
    score_directive,
    select_action,
)
from cascade.trace import TraceEvent

LEDGER = WorldLedger(tick=4, variables={"x": CausalVariable("x", 0.5)}, season="Dry")
WEIGHTS = UtilityWeights()


def npc(**overrides) -> NpcProfile:
    base = dict(
        id="merchant_1",
        tags=("Merchant", "Greedy"),
        role_tag="Merchant",
        personality={"greed": 0.8},
        needs={"hunger": 0.3},
        local_state={"wealth": 20.0},
    )
    base.update(overrides)
    return NpcProfile(**base)


def directive(d_id="d000001", action_id="raise_price", base_priority=0.6, risk=0.2) -> Directive:
    return Directive(
        id=d_id,
        source_module="economy",
        cause_event="severe_drought@4",
        selector=TagSelector("any", ("Merchant",)),
        action_id=action_id,
        parameters={"price_delta_pct": 30},
        base_priority=base_priority,
        risk=risk,
        issued_tick=4,
        ttl_ticks=30,
    )


RAISE_PRICE = ActionBinding("raise_price", trait_affinities={"greed": 1.0}, local_effects={"wealth": 5.0})
PATROL = ActionBinding("patrol_water_sources", trait_affinities={"diligence": 1.0})


# --- scoring -----------------------------------------------------------------


def test_greedy_merchant_accepts_a_price_hike():
    breakdown = score_directive(npc(), directive(), RAISE_PRICE, WEIGHTS)
    assert breakdown.base_term == 0.6
    assert breakdown.trait_term == pytest.approx(0.8)
    assert breakdown.need_term == 0.0
    assert breakdown.risk_term == 0.2
    assert breakdown.total == pytest.approx(1.2)
    assert breakdown.accepted


def test_lazy_guard_rejects_a_patrol():
    guard = npc(id="guard_2", tags=("Guard", "Lazy"), role_tag="Guard", personality={"diligence": -0.8})
    breakdown = score_directive(guard, directive(action_id="patrol_water_sources", base_priority=0.7, risk=0.3), PATROL, WEIGHTS)
    assert breakdown.total == pytest.approx(-0.4)
    assert not breakdown.accepted


def test_generous_merchant_rejects_hike_but_accepts_discount():
    generous = npc(id="merchant_2", tags=("Merchant", "Generous"), personality={"greed": -0.8})
    hike = score_directive(generous, directive(), RAISE_PRICE, WEIGHTS)
    assert hike.total == pytest.approx(-0.4)
    assert not hike.accepted
    discount_binding = ActionBinding("discount_water", trait_affinities={"greed": -1.0})
    discount = score_directive(
        generous, directive(d_id="d000002", action_id="discount_water", base_priority=0.6, risk=0.1),
        discount_binding, WEIGHTS,
    )
    assert discount.trait_term == pytest.approx(0.8)
    assert discount.total == pytest.approx(1.3)
    assert discount.accepted


def test_trait_term_clamps_to_unit_band():
    eager = npc(personality={"greed": 0.9, "pride": 0.9})
    binding = ActionBinding("boast", trait_affinities={"greed": 1.0, "pride": 1.0})
    breakdown = score_directive(eager, directive(), binding, WEIGHTS)
    assert breakdown.trait_term == 1.0
    sour = npc(personality={"greed": -0.9, "pride": -0.9})
    breakdown = score_directive(sour, directive(), binding, WEIGHTS)
    assert breakdown.trait_term == -1.0


def test_need_term_scales_relief_by_need_and_clamps():
    hungry = npc(needs={"hunger": 0.6})
    binding = ActionBinding("eat", satisfies_needs={"hunger": 0.5})
    breakdown = score_directive(hungry, directive(), binding, WEIGHTS)
    assert breakdown.need_term == pytest.approx(0.3)
    overfed = npc(needs={"hunger": 1.0, "thirst": 1.0})
    rich_binding = ActionBinding("feast", satisfies_needs={"hunger": 1.0, "thirst": 1.0})
    assert score_directive(overfed, directive(), rich_binding, WEIGHTS).need_term == 1.0


def test_missing_traits_and_needs_score_zero():
    blank = npc(personality={}, needs={})
    breakdown = score_directive(blank, directive(), RAISE_PRICE, WEIGHTS)
    assert breakdown.trait_term == 0.0
    assert breakdown.need_term == 0.0


def test_acceptance_threshold_is_inclusive():
    # base 0.5, no traits, no needs, no risk -> total exactly at the gate.
    blank = npc(personality={}, needs={})
    binding = ActionBinding("stand")
    breakdown = score_directive(blank, directive(base_priority=0.5, risk=0.0), binding, WEIGHTS)
    assert breakdown.total == 0.5
    assert breakdown.accepted


def test_weights_rescale_each_term():
    weights = UtilityWeights(base=2.0, trait=0.5, need=1.0, risk=3.0, threshold=0.0)
    breakdown = score_directive(npc(), directive(), RAISE_PRICE, weights)
    assert breakdown.total == pytest.approx(2.0 * 0.6 + 0.5 * 0.8 + 0.0 - 3.0 * 0.2)
    assert breakdown.threshold == 0.0


# --- selection ---------------------------------------------------------------


def _breakdown(d_id: str, total: float) -> UtilityBreakdown:
    return UtilityBreakdown(
        npc_id="merchant_1",
        directive_id=d_id,
        base_term=total,
        trait_term=0.0,
        need_term=0.0,
        risk_term=0.0,
        total=total,
        threshold=0.5,
        accepted=True,
    )


def test_best_breakdown_prefers_highest_total():
    best = best_breakdown([_breakdown("d000002", 0.9), _breakdown("d000001", 0.7)])
    assert best.directive_id == "d000002"


def test_best_breakdown_breaks_ties_on_smaller_id():
    best = best_breakdown([_breakdown("d000002", 0.9), _breakdown("d000001", 0.9)])
    assert best.directive_id == "d000001"


def test_best_breakdown_empty_is_none():
    assert best_breakdown([]) is None


def test_select_action_prefers_directives_over_tree():
    index = {"d000001": directive()}
    action = select_action(npc(), [_breakdown("d000001", 1.2)], ActionLeaf("idle"), LEDGER, index)
    assert action == "raise_price"


def test_select_action_falls_back_to_tree():
    action = select_action(npc(), [], ActionLeaf("idle"), LEDGER, {})
    assert action == "idle"


def test_select_action_faults_when_tree_yields_nothing():
    bare = Condition("needs.hunger", ">", 0.9)
    with pytest.raises(InvariantViolation):
        select_action(npc(), [], bare, LEDGER, {})


# --- execution ---------------------------------------------------------------


def test_execute_action_applies_local_effects():
    updated, deltas = execute_action(npc(), RAISE_PRICE)
    assert updated.local_state["wealth"] == 25.0
    assert npc().local_state["wealth"] == 20.0  # input profile untouched
    assert updated.tags == ("Merchant", "Greedy")
    assert deltas == (("wealth", 20.0, 25.0),)


def test_execute_action_without_directive():
    # An action with neither effects nor relief (the fallback "idle") hands
    # back the profile itself and records no change.
    profile = npc()
    updated, deltas = execute_action(profile, ActionBinding("idle"))
    assert updated is profile
    assert deltas == ()


def test_directive_parameters_are_kept_as_sorted_pairs():
    d = replace(directive(), parameters={"ration": "half", "price_delta_pct": 30})
    assert d.parameter_items == (("price_delta_pct", 30), ("ration", "half"))
    assert d == replace(d)  # derived, so never part of equality


def test_wealth_never_goes_negative():
    poor = npc(local_state={"wealth": 2.0})
    binding = ActionBinding("splurge", local_effects={"wealth": -5.0})
    updated, deltas = execute_action(poor, binding)
    assert updated.local_state["wealth"] == 0.0
    assert deltas == (("wealth", 2.0, 0.0),)


def test_no_delta_recorded_when_clamp_cancels_the_change():
    broke = npc(local_state={"wealth": 0.0})
    binding = ActionBinding("splurge", local_effects={"wealth": -1.0})
    updated, deltas = execute_action(broke, binding)
    assert updated.local_state["wealth"] == 0.0
    assert deltas == ()


def test_execute_action_creates_missing_state_keys():
    binding = ActionBinding("ration_water", local_effects={"wealth": 1.0, "stored_water": 3.0})
    updated, deltas = execute_action(npc(), binding)
    assert updated.local_state["stored_water"] == 3.0
    assert deltas == (("stored_water", 0.0, 3.0), ("wealth", 20.0, 21.0))  # in key order


def test_execute_action_relieves_needs_with_clamp():
    hungry = npc(needs={"hunger": 0.3})
    binding = ActionBinding("eat", satisfies_needs={"hunger": 0.5})
    updated, deltas = execute_action(hungry, binding)
    assert updated.needs["hunger"] == 0.0
    assert deltas == ()  # relief changes needs, not local state
    # Needs the NPC does not track are not invented by relief.
    assert "thirst" not in updated.needs


# --- migration ---------------------------------------------------------------

DOWN = TagMigrationRule("Merchant", "Beggar", "wealth", "<", 5.0, hysteresis_margin=2.0)
UP = TagMigrationRule("Beggar", "Merchant", "wealth", ">=", 5.0, hysteresis_margin=2.0)
RULES = (DOWN, UP)


def test_ruin_demotes_a_merchant():
    broke = npc(local_state={"wealth": 3.0})
    updated, events = migrate_tags(broke, RULES, tick=9)
    assert updated.role_tag == "Beggar"
    assert updated.tags == ("Beggar", "Greedy")  # in-place replacement
    assert updated.last_migration == ("Merchant", "Beggar")
    assert len(events) == 1
    event = events[0]
    assert (event.tick, event.phase, event.kind) == (9, "Migrate", "TagMigrated")
    assert event.payload == {"npc": "merchant_1", "from": "Merchant", "to": "Beggar", "field": "wealth", "value": 3.0}


def test_hysteresis_blocks_the_immediate_reversal():
    demoted, _ = migrate_tags(npc(local_state={"wealth": 3.0}), RULES, tick=9)
    # Wealth recovers to 6: the raw predicate holds but 6 - 5 = 1 <= margin.
    nearly = NpcProfile(
        id=demoted.id, tags=demoted.tags, role_tag=demoted.role_tag,
        personality=demoted.personality, needs=demoted.needs,
        local_state={"wealth": 6.0}, last_migration=demoted.last_migration,
    )
    unchanged, events = migrate_tags(nearly, RULES, tick=10)
    assert unchanged is nearly
    assert events == []


def test_hysteresis_requires_a_strict_crossing():
    demoted, _ = migrate_tags(npc(local_state={"wealth": 3.0}), RULES, tick=9)
    at_margin = NpcProfile(
        id=demoted.id, tags=demoted.tags, role_tag=demoted.role_tag,
        personality=demoted.personality, needs=demoted.needs,
        local_state={"wealth": 7.0}, last_migration=demoted.last_migration,
    )
    _, events = migrate_tags(at_margin, RULES, tick=10)
    assert events == []  # 7 - 5 == margin exactly: still blocked
    recovered = NpcProfile(
        id=demoted.id, tags=demoted.tags, role_tag=demoted.role_tag,
        personality=demoted.personality, needs=demoted.needs,
        local_state={"wealth": 7.5}, last_migration=demoted.last_migration,
    )
    updated, events = migrate_tags(recovered, RULES, tick=10)
    assert len(events) == 1
    assert updated.role_tag == "Merchant"
    assert updated.last_migration == ("Beggar", "Merchant")


def test_first_migration_fires_without_hysteresis():
    # A fresh NPC with no migration history crosses by less than the margin
    # and still migrates; only reversals are margin-gated.
    nearly_broke = npc(local_state={"wealth": 4.0})
    updated, events = migrate_tags(nearly_broke, RULES, tick=1)
    assert len(events) == 1
    assert updated.role_tag == "Beggar"


def test_unrelated_history_is_not_margin_gated():
    # Last hop was Farmer -> Merchant; Merchant -> Beggar is not its reversal.
    drifter = npc(local_state={"wealth": 4.5}, last_migration=("Farmer", "Merchant"))
    updated, events = migrate_tags(drifter, RULES, tick=2)
    assert len(events) == 1
    assert updated.role_tag == "Beggar"


def test_first_matching_rule_wins():
    rules = (
        TagMigrationRule("Merchant", "Beggar", "wealth", "<", 5.0),
        TagMigrationRule("Merchant", "Farmer", "wealth", "<", 10.0),
    )
    updated, _ = migrate_tags(npc(local_state={"wealth": 3.0}), rules, tick=1)
    assert updated.role_tag == "Beggar"
    second_only, _ = migrate_tags(npc(local_state={"wealth": 7.0}), rules, tick=1)
    assert second_only.role_tag == "Farmer"


def test_no_rule_matches_leaves_the_profile_alone():
    guard = npc(id="guard_1", tags=("Guard",), role_tag="Guard", local_state={"wealth": 1.0})
    unchanged, events = migrate_tags(guard, RULES, tick=1)
    assert unchanged is guard
    assert events == []


def test_migration_deduplicates_when_target_tag_already_present():
    hybrid = npc(tags=("Merchant", "Beggar"), local_state={"wealth": 1.0})
    updated, _ = migrate_tags(hybrid, RULES, tick=1)
    assert updated.tags == ("Beggar",)
    assert updated.role_tag == "Beggar"


def test_default_margin_is_ten_percent_of_threshold():
    assert effective_margin(TagMigrationRule("A", "B", "wealth", "<", 5.0)) == pytest.approx(0.5)
    assert effective_margin(TagMigrationRule("A", "B", "debt", ">", -10.0)) == pytest.approx(1.0)
    explicit = TagMigrationRule("A", "B", "wealth", "<", 5.0, hysteresis_margin=2.0)
    assert effective_margin(explicit) == 2.0


def test_missing_field_reads_as_zero():
    rule = TagMigrationRule("Merchant", "Beggar", "stored_water", "<=", 0.0)
    updated, events = migrate_tags(npc(), (rule,), tick=1)
    assert len(events) == 1
    assert updated.role_tag == "Beggar"


# --- dialogue ----------------------------------------------------------------


def test_dialogue_counts_exactly_one_call():
    counter = LlmCallCounter()
    text, event = request_dialogue(npc(), "hello", TemplateDialogueProvider(), counter, tick=7)
    assert counter.count == 1
    assert text.startswith("[merchant_1|idle]")
    assert (event.tick, event.phase, event.kind) == (7, "Dialogue", "DialogueRequested")
    assert event.payload == {"npc": "merchant_1", "utterance": "hello", "response": text}


def test_dialogue_grounds_in_last_action_and_events():
    counter = LlmCallCounter()
    text, _ = request_dialogue(
        npc(), "how goes it?", TemplateDialogueProvider(), counter,
        tick=9, last_action="raise_price", active_events=("severe_drought",),
    )
    assert text.startswith("[merchant_1|raise_price]")
    assert "severe drought" in text


def test_provider_failure_is_contained_and_still_counted():
    class Exploding:
        def generate(self, snapshot, player_utterance):
            raise RuntimeError("boom")

    counter = LlmCallCounter()
    text, event = request_dialogue(npc(), "hi", Exploding(), counter)
    assert counter.count == 1
    assert text == "[dialogue-error] merchant_1: boom"
    assert event.payload["response"] == text


def test_provider_sees_an_immutable_snapshot():
    captured: list[NpcSnapshot] = []

    class Capturing:
        def generate(self, snapshot, player_utterance):
            captured.append(snapshot)
            return "ok"

    request_dialogue(
        npc(), "hi", Capturing(), LlmCallCounter(),
        last_action="eat", active_events=("severe_drought",), active_actions=("raise_price",),
    )
    snapshot = captured[0]
    assert snapshot.npc_id == "merchant_1"
    assert snapshot.role_tag == "Merchant"
    assert snapshot.tags == ("Merchant", "Greedy")
    assert snapshot.last_action == "eat"
    assert snapshot.active_events == ("severe_drought",)
    assert snapshot.active_actions == ("raise_price",)
    with pytest.raises(AttributeError):
        snapshot.last_action = "other"


def test_template_provider_is_deterministic():
    provider = TemplateDialogueProvider()
    snapshot = NpcSnapshot("solo", "Villager", ("Villager",), None, (), ())
    assert provider.generate(snapshot, "x") == provider.generate(snapshot, "x")
    assert provider.generate(snapshot, "x") == "[solo|idle] Quiet times in town; nothing troubles a Villager."


# --- per-NPC records -----------------------------------------------------------


RECORDS = [
    (TraceEvent, ("tick", "phase", "kind", "payload"), (3, "Act", "ActionExecuted", {"npc": "solo"})),
    (
        UtilityBreakdown,
        ("npc_id", "directive_id", "base_term", "trait_term", "need_term", "risk_term", "total", "threshold",
         "accepted"),
        ("solo", "d000001", 0.5, 0.1, 0.2, 0.0, 0.8, 0.5, True),
    ),
    (
        NpcSnapshot,
        ("npc_id", "role_tag", "tags", "last_action", "active_events", "active_actions"),
        ("solo", "Villager", ("Villager",), None, ("severe_drought",), ()),
    ),
]


@pytest.mark.parametrize("record_type, names, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_and_build_the_same_either_way(record_type, names, values):
    positional = record_type(*values)
    keyword = record_type(**dict(zip(names, values)))
    assert keyword == positional
    assert [getattr(positional, name) for name in names] == list(values)
    for name in (*names, "unknown_field"):
        with pytest.raises(AttributeError):
            setattr(positional, name, None)


def test_trace_event_needs_a_payload():
    with pytest.raises(TypeError):
        TraceEvent(3, "Act", "ActionExecuted")
