"""Coordination layer: activation matching, directive compilation, broadcast."""

from __future__ import annotations

import pytest

from cascade.core import (
    CausalVariable,
    Directive,
    Level,
    MacroEvent,
    NpcProfile,
    TagSelector,
    VariablePredicate,
    WorldLedger,
)
from cascade.hub import (
    ActivationMatcher,
    DirectiveIdSource,
    DirectiveTemplate,
    DomainModuleSpec,
    ParameterExpr,
    TagIndex,
    broadcast,
    compile_directives,
    expire_directives,
    route_activation,
)


def ledger_with(tick=0, **intensities) -> WorldLedger:
    variables = {name: CausalVariable(name, value) for name, value in intensities.items()}
    return WorldLedger(tick=tick, variables=variables, season="Dry")


DROUGHT = MacroEvent("severe_drought", "severe_drought@4", 4)


def test_matcher_on_rule_id():
    matcher = ActivationMatcher(rule_id="severe_drought")
    assert matcher.matches(DROUGHT, ledger_with())
    assert not matcher.matches(MacroEvent("flood", "flood@4", 4), ledger_with())


def test_matcher_on_variable_condition():
    matcher = ActivationMatcher(condition=VariablePredicate("morale", ">=", level=Level.ELEVATED))
    assert matcher.matches(DROUGHT, ledger_with(morale=0.5))
    assert not matcher.matches(DROUGHT, ledger_with(morale=0.1))


def test_matcher_with_both_is_a_conjunction():
    matcher = ActivationMatcher(
        rule_id="severe_drought",
        condition=VariablePredicate("morale", "<=", intensity=0.3),
    )
    assert matcher.matches(DROUGHT, ledger_with(morale=0.2))
    assert not matcher.matches(DROUGHT, ledger_with(morale=0.9))
    assert not matcher.matches(MacroEvent("flood", "flood@4", 4), ledger_with(morale=0.2))


def test_empty_matcher_never_matches():
    assert not ActivationMatcher().matches(DROUGHT, ledger_with())


def module(module_id: str, *matchers: ActivationMatcher, templates=()) -> DomainModuleSpec:
    return DomainModuleSpec(id=module_id, activation=tuple(matchers), templates=tuple(templates))


def test_route_activation_keeps_declaration_order():
    modules = (
        module("security", ActivationMatcher(rule_id="severe_drought")),
        module("entertainment", ActivationMatcher(condition=VariablePredicate("morale", ">=", level=Level.ELEVATED))),
        module("economy", ActivationMatcher(rule_id="severe_drought")),
    )
    awake = route_activation(DROUGHT, ledger_with(morale=0.1), modules)
    assert [m.id for m in awake] == ["security", "economy"]  # entertainment stays asleep


def test_route_activation_any_of_matchers():
    spec = module(
        "resource_allocation",
        ActivationMatcher(rule_id="flood"),
        ActivationMatcher(rule_id="severe_drought"),
    )
    assert [m.id for m in route_activation(DROUGHT, ledger_with(), (spec,))] == ["resource_allocation"]


def test_parameter_expr_affine():
    ledger = ledger_with(water_scarcity=0.9)
    assert ParameterExpr("water_scarcity", scale=50.0).evaluate(ledger) == pytest.approx(45.0)
    assert ParameterExpr("water_scarcity", scale=2.0, offset=0.1).evaluate(ledger) == pytest.approx(1.9)
    assert ParameterExpr("water_scarcity").evaluate(ledger) == pytest.approx(0.9)


def _template(**overrides) -> DirectiveTemplate:
    base = dict(
        selector=TagSelector("any", ("Merchant",)),
        action_id="raise_price",
        parameters={"price_delta_pct": 30},
        base_priority=0.6,
        risk=0.2,
        ttl_ticks=30,
    )
    base.update(overrides)
    return DirectiveTemplate(**base)


def test_compile_fills_every_directive_field():
    spec = module("economy", ActivationMatcher(rule_id="severe_drought"), templates=[_template()])
    ledger = ledger_with(tick=4, water_scarcity=0.9)
    issued = compile_directives(spec, DROUGHT, ledger, DirectiveIdSource())
    assert len(issued) == 1
    d = issued[0]
    assert d.id == "d000001"
    assert d.source_module == "economy"
    assert d.cause_event == "severe_drought@4"
    assert d.selector == TagSelector("any", ("Merchant",))
    assert d.action_id == "raise_price"
    assert d.parameters == {"price_delta_pct": 30}
    assert d.base_priority == 0.6
    assert d.risk == 0.2
    assert d.issued_tick == 4
    assert d.ttl_ticks == 30


def test_compile_evaluates_affine_parameters_against_the_ledger():
    template = _template(parameters={"ration_pct": ParameterExpr("water_scarcity", scale=50.0), "note": "dry"})
    spec = module("resource_allocation", ActivationMatcher(rule_id="severe_drought"), templates=[template])
    issued = compile_directives(spec, DROUGHT, ledger_with(tick=4, water_scarcity=0.9), DirectiveIdSource())
    assert issued[0].parameters["ration_pct"] == pytest.approx(45.0)
    assert issued[0].parameters["note"] == "dry"


def test_compile_skips_templates_whose_condition_fails():
    gated = _template(condition=VariablePredicate("morale", ">=", level=Level.ELEVATED))
    open_template = _template(action_id="discount_water")
    spec = module("economy", ActivationMatcher(rule_id="severe_drought"), templates=[gated, open_template])
    issued = compile_directives(spec, DROUGHT, ledger_with(tick=4, morale=0.1), DirectiveIdSource())
    assert [d.action_id for d in issued] == ["discount_water"]


def test_compile_draws_ids_in_template_order():
    spec = module(
        "economy",
        ActivationMatcher(rule_id="severe_drought"),
        templates=[_template(action_id="raise_price"), _template(action_id="discount_water")],
    )
    issued = compile_directives(spec, DROUGHT, ledger_with(tick=4), DirectiveIdSource())
    assert [(d.id, d.action_id) for d in issued] == [
        ("d000001", "raise_price"),
        ("d000002", "discount_water"),
    ]


def test_id_source_is_lexicographically_monotonic():
    source = DirectiveIdSource()
    ids = [source.take() for _ in range(12)]
    assert ids[0] == "d000001"
    assert ids == sorted(ids)
    assert len(set(ids)) == 12


def npc(npc_id: str, *tags: str) -> NpcProfile:
    return NpcProfile(id=npc_id, tags=tags, role_tag=tags[0], local_state={"wealth": 1.0})


def _directive(selector: TagSelector, issued_tick=4, ttl=30, d_id="d000001") -> Directive:
    return Directive(
        id=d_id,
        source_module="economy",
        cause_event="severe_drought@4",
        selector=selector,
        action_id="raise_price",
        parameters={},
        base_priority=0.6,
        risk=0.2,
        issued_tick=issued_tick,
        ttl_ticks=ttl,
    )


def test_broadcast_resolves_selectors_and_sorts_ids():
    roster = [npc("zed", "Merchant"), npc("abe", "Merchant", "Greedy"), npc("gus", "Guard")]
    records = broadcast([_directive(TagSelector("any", ("Merchant",)))], TagIndex(roster))
    assert len(records) == 1
    assert records[0].directive_id == "d000001"
    assert records[0].npc_ids == ("abe", "zed")


def test_broadcast_all_mode_requires_every_tag():
    roster = [npc("abe", "Merchant", "Greedy"), npc("zed", "Merchant")]
    records = broadcast([_directive(TagSelector("all", ("Merchant", "Greedy")))], TagIndex(roster))
    assert records[0].npc_ids == ("abe",)


def test_broadcast_keeps_empty_deliveries():
    index = TagIndex([npc("abe", "Merchant")])
    records = broadcast([_directive(TagSelector("any", ("Leader",)))], index)
    assert records[0].npc_ids == ()


def test_tag_index_follows_moves():
    index = TagIndex([npc("abe", "Merchant", "Greedy"), npc("zed", "Beggar")])
    index.move("abe", ("Merchant", "Greedy"), ("Beggar", "Greedy"))
    assert index.select(TagSelector("any", ("Merchant",))) == set()
    assert index.select(TagSelector("any", ("Beggar",))) == {"abe", "zed"}
    assert index.select(TagSelector("all", ("Beggar", "Greedy"))) == {"abe"}


def test_expire_directives_boundary():
    # Issued at tick 3 with ttl 2: live through tick 4, gone at tick 5.
    d = _directive(TagSelector("any", ("Merchant",)), issued_tick=3, ttl=2)
    assert expire_directives([d], 4) == [d]
    assert expire_directives([d], 5) == []


def test_expire_directives_filters_independently():
    young = _directive(TagSelector("any", ("Merchant",)), issued_tick=9, ttl=5, d_id="d000002")
    old = _directive(TagSelector("any", ("Merchant",)), issued_tick=1, ttl=2, d_id="d000001")
    assert expire_directives([old, young], 10) == [young]
