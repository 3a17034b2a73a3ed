"""Scenario loading: strict schema, cross-reference checks, defaults."""

from __future__ import annotations

import json

import pytest

from conftest import load_town, minimal_town

from cascade.behavior import ActionLeaf, Selector
from cascade.core import Level, LevelThresholds
from cascade.npc import UtilityWeights
from cascade.scenario import ScenarioError, initial_ledger, load_scenario


def errors_from(doc: dict) -> list[str]:
    with pytest.raises(ScenarioError) as excinfo:
        load_town(doc)
    return excinfo.value.errors


# --- the shipped town --------------------------------------------------------


def test_golden_scenario_loads(golden):
    assert golden.name == "drought_town"
    assert golden.schema_version == 1
    assert golden.seed_default == 7
    assert golden.season == "Dry"
    assert golden.thresholds == LevelThresholds(0.4, 0.8)
    assert golden.weights == UtilityWeights(1.0, 1.0, 1.0, 1.0, 0.5)
    assert [v.name for v in golden.variables] == ["water_scarcity", "food_scarcity", "morale"]
    assert [m.id for m in golden.modules] == [
        "resource_allocation",
        "security",
        "economy",
        "entertainment",
    ]
    assert len(golden.npcs) == 10
    assert golden.catalog["idle"].default


def test_golden_disposition_table_fills_personality(golden):
    by_id = {n.id: n for n in golden.npcs}
    assert by_id["merchant_1"].personality["greed"] == 0.8
    assert by_id["merchant_2"].personality["greed"] == -0.8
    assert by_id["farmer_1"].personality["diligence"] == 0.8
    assert by_id["guard_2"].personality["diligence"] == -0.8
    assert by_id["mayor"].personality["civic_duty"] == 0.8


def test_golden_drought_rule(golden):
    rule = golden.rules[0]
    assert rule.id == "severe_drought"
    assert rule.trigger[0].level is Level.CRITICAL
    assert rule.consistency_requirements[0].describe() == "season != Rainy"
    assert rule.effects[0].duration_ticks == 10
    assert rule.cooldown_ticks == 60


def test_initial_ledger_seeds_history(golden):
    ledger = initial_ledger(golden)
    assert ledger.tick == 0
    assert ledger.season == "Dry"
    assert ledger.thresholds == golden.thresholds
    assert ledger.variables["water_scarcity"].intensity == 0.45
    assert ledger.variables["water_scarcity"].history == ((0, 0.45),)
    assert ledger.fired_log == ()


# --- minimal document and defaults -------------------------------------------


def test_minimal_document_gets_defaults():
    town = load_town(minimal_town())
    assert town.name == "minimal"
    assert town.season == "Temperate"
    assert town.seed_default == 0
    assert town.thresholds == LevelThresholds()
    assert town.weights == UtilityWeights()
    assert town.tree == ActionLeaf("idle")
    assert town.rules == ()
    assert town.modules == ()
    assert town.migration_rules == ()


def test_default_tree_picks_first_default_action_alphabetically():
    doc = minimal_town()
    doc["action_catalog"] = [
        {"action_id": "stroll", "default": True},
        {"action_id": "idle", "default": True},
        {"action_id": "work"},
    ]
    assert load_town(doc).tree == ActionLeaf("idle")


def test_explicit_tree_is_parsed():
    doc = minimal_town()
    doc["action_catalog"].append({"action_id": "eat", "satisfies_needs": {"hunger": 0.5}})
    doc["behavior_tree"] = {
        "kind": "selector",
        "children": [
            {
                "kind": "sequence",
                "children": [
                    {"kind": "condition", "field": "needs.hunger", "op": ">", "value": 0.7},
                    {"kind": "action", "action_id": "eat"},
                ],
            },
            {"kind": "action", "action_id": "idle"},
        ],
    }
    tree = load_town(doc).tree
    assert isinstance(tree, Selector)
    assert len(tree.children) == 2


# --- document-level failures -------------------------------------------------


def test_invalid_json_is_a_scenario_error():
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario("{not json")
    assert excinfo.value.errors[0].startswith("$: invalid JSON")


def test_overlong_integer_is_a_scenario_error():
    # Interpreters with an int digit limit refuse the literal while parsing;
    # without one it parses and fails the finite-number check.
    text = json.dumps(minimal_town()).replace('"intensity": 0.5', '"intensity": 1' + "0" * 5000)
    with pytest.raises(ScenarioError):
        load_scenario(text)


def test_non_object_document():
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario("[1, 2]")
    assert excinfo.value.errors == ["$: expected a top-level object"]


def test_missing_required_sections():
    doc = minimal_town()
    del doc["npcs"]
    assert "$: missing required field 'npcs'" in errors_from(doc)


def test_unknown_top_level_field():
    doc = minimal_town()
    doc["weather"] = "wet"
    assert "$: unknown field 'weather'" in errors_from(doc)


def test_schema_version_must_match():
    doc = minimal_town()
    doc["schema_version"] = 2
    assert "schema_version: expected 1, got 2" in errors_from(doc)


def test_all_errors_are_reported_together():
    doc = minimal_town()
    doc["schema_version"] = 2
    doc["weather"] = "wet"
    doc["npcs"][0]["local_state"] = {}
    errors = errors_from(doc)
    assert len(errors) == 3
    assert "npcs[0]: local_state.wealth: required" in errors


# --- section failures --------------------------------------------------------


def test_duplicate_variable_names():
    doc = minimal_town()
    doc["ledger_init"]["variables"].append({"name": "pressure", "intensity": 0.1})
    assert any("duplicate variable 'pressure'" in e for e in errors_from(doc))


def test_variable_intensity_bounds():
    doc = minimal_town()
    doc["ledger_init"]["variables"][0]["intensity"] = 1.5
    assert "ledger_init.variables[0].intensity: 1.5 above maximum 1.0" in errors_from(doc)


# Each slot puts a value where the loader expects a plain number.
NUMBER_SLOTS = {
    "utility_weights.threshold": lambda doc, v: doc.update(utility_weights={"threshold": v}),
    "ledger_init.variables[0].intensity": lambda doc, v: doc["ledger_init"]["variables"][0].update(intensity=v),
    "npcs[0].local_state.wealth": lambda doc, v: doc["npcs"][0]["local_state"].update(wealth=v),
    "drift_schedule[0].delta_per_tick": lambda doc, v: doc.update(
        drift_schedule=[{"variable": "pressure", "delta_per_tick": v, "start_tick": 1, "end_tick": 5}]
    ),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400, 1e300],
                         ids=["nan", "inf", "-inf", "1e400", "1e300"])
@pytest.mark.parametrize("path", sorted(NUMBER_SLOTS))
def test_non_finite_and_oversized_numbers_fail_at_load(path, value):
    doc = minimal_town()
    NUMBER_SLOTS[path](doc, value)
    assert f"{path}: expected a number in [-1e+15, 1e+15], got {value!r}" in errors_from(doc)


def test_numbers_at_the_magnitude_bound_load():
    doc = minimal_town()
    doc["npcs"][0]["local_state"]["wealth"] = 10**15
    doc["action_catalog"][0]["local_effects"] = {"wealth": -1e15}
    town = load_town(doc)
    assert town.npcs[0].local_state["wealth"] == 1e15
    assert town.catalog["idle"].local_effects == {"wealth": -1e15}


def test_wealth_that_would_overflow_in_act_fails_at_load():
    # Loaded, 1e308 wealth plus a 1e308 effect became inf on tick 1.
    doc = minimal_town()
    doc["npcs"][0]["local_state"]["wealth"] = 1e308
    doc["action_catalog"][0]["local_effects"] = {"wealth": 1e308}
    errors = errors_from(doc)
    assert "action_catalog[0].local_effects.wealth: expected a number in [-1e+15, 1e+15], got 1e+308" in errors
    assert "npcs[0].local_state.wealth: expected a number in [-1e+15, 1e+15], got 1e+308" in errors


def test_parameter_that_would_overflow_in_compile_fails_at_load(golden_path):
    # Loaded, this expression traced "amount": inf once the drought fired.
    doc = json.loads(golden_path.read_text(encoding="utf-8"))
    doc["domain_modules"][0]["directives"][0]["parameters"]["amount"] = {
        "variable": "water_scarcity", "scale": 1e308, "offset": 1e308,
    }
    path = "domain_modules[0].directives[0].parameters.amount"
    assert errors_from(doc) == [
        f"{path}.scale: expected a number in [-1e+15, 1e+15], got 1e+308",
        f"{path}.offset: expected a number in [-1e+15, 1e+15], got 1e+308",
    ]


def test_seed_default_must_fit_in_64_bits():
    doc = minimal_town()
    doc["seed_default"] = 2**64 - 1
    assert load_town(doc).seed_default == 2**64 - 1
    doc["seed_default"] = 2**64
    assert errors_from(doc) == ["$.seed_default: seed must fit in 64 bits, got 18446744073709551616"]


def test_season_vocabulary():
    doc = minimal_town()
    doc["ledger_init"]["season"] = "Monsoon"
    errors = errors_from(doc)
    assert any(e.startswith("ledger_init.season: season must be one of") for e in errors)


def test_threshold_ordering():
    doc = minimal_town()
    doc["level_thresholds"] = {"elevated": 0.8, "critical": 0.4}
    assert "level_thresholds: need 0 < elevated < critical, got 0.8, 0.4" in errors_from(doc)


def test_drift_references_must_resolve():
    doc = minimal_town()
    doc["drift_schedule"] = [
        {"variable": "ghost", "delta_per_tick": 0.1, "start_tick": 1, "end_tick": 5}
    ]
    assert "drift_schedule[0].variable: unknown variable 'ghost'" in errors_from(doc)


def test_drift_window_must_be_ordered():
    doc = minimal_town()
    doc["drift_schedule"] = [
        {"variable": "pressure", "delta_per_tick": 0.1, "start_tick": 5, "end_tick": 1}
    ]
    assert "drift_schedule[0]: start_tick 5 exceeds end_tick 1" in errors_from(doc)


def _with_rule(doc: dict, **overrides) -> dict:
    rule = {
        "id": "crisis",
        "name": "Crisis",
        "trigger": [{"variable": "pressure", "op": ">=", "level": "Critical"}],
    }
    rule.update(overrides)
    doc["macro_rules"] = [rule]
    return doc


def test_rule_trigger_must_be_non_empty():
    doc = _with_rule(minimal_town(), trigger=[])
    assert "macro_rules[0].trigger: non-empty list of predicates required" in errors_from(doc)


def test_predicate_needs_exactly_one_bound():
    doc = _with_rule(
        minimal_town(),
        trigger=[{"variable": "pressure", "op": ">=", "level": "Critical", "intensity": 0.8}],
    )
    assert (
        "macro_rules[0].trigger[0]: exactly one of 'level' or 'intensity' is required"
        in errors_from(doc)
    )


def test_predicate_comparator_vocabulary():
    doc = _with_rule(minimal_town(), trigger=[{"variable": "pressure", "op": ">", "level": "Critical"}])
    assert any("comparator must be '>=' or '<='" in e for e in errors_from(doc))


def test_requirement_field_must_be_known():
    doc = _with_rule(
        minimal_town(),
        consistency_requirements=[{"field": "weather", "op": "eq", "value": "Dry"}],
    )
    assert (
        "macro_rules[0].consistency_requirements[0].field: unknown ledger field 'weather'"
        in errors_from(doc)
    )


def test_season_requirements_only_support_equality():
    doc = _with_rule(
        minimal_town(),
        consistency_requirements=[{"field": "season", "op": "ge", "value": "Dry"}],
    )
    assert (
        "macro_rules[0].consistency_requirements[0].op: season only supports eq/ne"
        in errors_from(doc)
    )


def test_effect_duration_must_be_positive():
    doc = _with_rule(
        minimal_town(),
        effects=[{"variable": "pressure", "delta_per_tick": 0.1, "duration_ticks": 0}],
    )
    assert "macro_rules[0].effects[0].duration_ticks: 0 below minimum 1" in errors_from(doc)


def _with_module(doc: dict, **template_overrides) -> dict:
    doc = _with_rule(doc)
    template = {
        "selector": {"mode": "any", "tags": ["Villager"]},
        "action_id": "idle",
        "base_priority": 0.6,
        "risk": 0.2,
        "ttl_ticks": 10,
    }
    template.update(template_overrides)
    doc["domain_modules"] = [
        {"id": "response", "activation": [{"rule_id": "crisis"}], "directives": [template]}
    ]
    return doc


def test_template_actions_must_exist_in_catalog():
    doc = _with_module(minimal_town(), action_id="flee")
    assert "domain_modules[0].directives[0].action_id: unknown action 'flee'" in errors_from(doc)


def test_activation_rules_must_resolve():
    doc = _with_module(minimal_town())
    doc["domain_modules"][0]["activation"] = [{"rule_id": "ghost"}]
    assert "domain_modules[0].activation[0].rule_id: unknown rule 'ghost'" in errors_from(doc)


def test_activation_matcher_needs_some_condition():
    doc = _with_module(minimal_town())
    doc["domain_modules"][0]["activation"] = [{}]
    assert (
        "domain_modules[0].activation[0]: matcher needs 'rule_id' and/or 'condition'"
        in errors_from(doc)
    )


def test_selector_tags_must_be_non_empty():
    doc = _with_module(minimal_town(), selector={"mode": "any", "tags": []})
    assert "domain_modules[0].directives[0].selector.tags: non-empty list of tags required" in errors_from(doc)


def test_template_bounds():
    doc = _with_module(minimal_town(), base_priority=1.5, ttl_ticks=0)
    errors = errors_from(doc)
    assert "domain_modules[0].directives[0].base_priority: 1.5 above maximum 1.0" in errors
    assert "domain_modules[0].directives[0].ttl_ticks: 0 below minimum 1" in errors


def test_parameter_expressions_must_resolve_variables():
    doc = _with_module(minimal_town(), parameters={"pct": {"variable": "ghost", "scale": 50}})
    assert (
        "domain_modules[0].directives[0].parameters.pct.variable: unknown variable 'ghost'"
        in errors_from(doc)
    )


def test_catalog_needs_a_default_action():
    doc = minimal_town()
    doc["action_catalog"] = [{"action_id": "work"}]
    assert "action_catalog: at least one action must be marked default" in errors_from(doc)


def test_affinity_signs_are_unit():
    doc = minimal_town()
    doc["action_catalog"].append({"action_id": "work", "trait_affinities": {"diligence": 2}})
    assert (
        "action_catalog[1].trait_affinities.diligence: sign must be 1 or -1, got 2"
        in errors_from(doc)
    )


def test_relief_bounds():
    doc = minimal_town()
    doc["action_catalog"].append({"action_id": "feast", "satisfies_needs": {"hunger": 1.5}})
    assert (
        "action_catalog[1].satisfies_needs.hunger: relief must be in [0, 1], got 1.5"
        in errors_from(doc)
    )


@pytest.mark.parametrize("key", ["trait_affinities", "satisfies_needs", "local_effects"])
@pytest.mark.parametrize("value", ["x", [1], None])
def test_catalog_number_maps_must_be_objects(key, value):
    doc = minimal_town()
    doc["action_catalog"].append({"action_id": "work", key: value})
    assert errors_from(doc) == [f"action_catalog[1].{key}: expected an object"]


@pytest.mark.parametrize("key", ["personality", "needs", "local_state"])
def test_npc_number_maps_must_be_objects(key):
    doc = minimal_town()
    doc["npcs"][0][key] = None
    assert errors_from(doc)[0] == f"npcs[0].{key}: expected an object"


def test_disposition_entries_must_be_objects():
    doc = minimal_town()
    doc["disposition_table"] = {"Grim": [0.5]}
    assert errors_from(doc) == ["disposition_table.Grim: expected an object"]


def test_non_string_npc_tags_are_reported():
    doc = minimal_town()
    doc["npcs"][0]["tags"] = ["Villager", 5, None]
    assert errors_from(doc) == [
        "npcs[0].tags[1]: expected a string, got 5",
        "npcs[0].tags[2]: expected a string, got None",
    ]


def test_npc_violations_carry_their_index():
    doc = minimal_town()
    doc["npcs"][0]["personality"] = {"greed": 2.0}
    assert "npcs[0]: personality.greed: 2.0 out of [-1, 1]" in errors_from(doc)


def test_duplicate_npc_ids():
    doc = minimal_town()
    doc["npcs"].append(dict(doc["npcs"][0]))
    assert "npcs[1].id: duplicate npc id 'solo'" in errors_from(doc)


def test_disposition_table_merges_in_tag_order_with_overrides():
    doc = minimal_town()
    doc["disposition_table"] = {
        "Grim": {"cheer": -0.5, "grit": 0.5},
        "Sunny": {"cheer": 0.5},
    }
    doc["npcs"][0]["tags"] = ["Villager", "Grim", "Sunny"]
    doc["npcs"][0]["personality"] = {"grit": 0.9}
    npc = load_town(doc).npcs[0]
    assert npc.personality["cheer"] == 0.5  # later tag wins
    assert npc.personality["grit"] == 0.9  # explicit entry beats the table


def test_disposition_weights_are_bounded():
    doc = minimal_town()
    doc["disposition_table"] = {"Grim": {"cheer": -2.0}}
    assert "disposition_table.Grim.cheer: weight must be in [-1, 1], got -2.0" in errors_from(doc)


def test_migration_rules_validate():
    doc = minimal_town()
    doc["migration_rules"] = [
        {"from_tag": "Villager", "to_tag": "Villager", "field": "wealth", "op": "<", "threshold": 5},
    ]
    assert "migration_rules[0]: from_tag and to_tag must differ" in errors_from(doc)
    doc["migration_rules"] = [
        {"from_tag": "Villager", "to_tag": "Beggar", "field": "wealth", "op": "==", "threshold": 5},
    ]
    assert any("comparator must be one of < <= > >=" in e for e in errors_from(doc))
    doc["migration_rules"] = [
        {"from_tag": "Villager", "to_tag": "Beggar", "field": "wealth", "op": "<", "threshold": 5, "hysteresis_margin": -1},
    ]
    assert "migration_rules[0].hysteresis_margin: -1 below minimum 0.0" in errors_from(doc)


# --- behavior tree checks ----------------------------------------------------


def test_tree_leaves_must_exist_in_catalog():
    doc = minimal_town()
    doc["behavior_tree"] = {"kind": "action", "action_id": "fly"}
    assert "behavior_tree: unknown action 'fly'" in errors_from(doc)


def test_tree_must_contain_a_default_leaf():
    doc = minimal_town()
    doc["action_catalog"].append({"action_id": "work"})
    doc["behavior_tree"] = {"kind": "action", "action_id": "work"}
    assert "behavior_tree: no default action leaf in tree" in errors_from(doc)


def test_tree_must_guarantee_an_action():
    doc = minimal_town()
    doc["behavior_tree"] = {
        "kind": "sequence",
        "children": [
            {"kind": "condition", "field": "needs.hunger", "op": ">", "value": 0.7},
            {"kind": "action", "action_id": "idle"},
        ],
    }
    assert (
        "behavior_tree: tree can fail to produce an action; no unconditional path to a leaf"
        in errors_from(doc)
    )


@pytest.mark.parametrize("field, error", [
    ("mood.happy", "field 'mood.happy' must start with needs./state./personality./var."),
    ("var.nope", "unknown variable 'nope'"),
    ("var.", "field 'var.' names no key after its namespace"),
    ("needs.", "field 'needs.' names no key after its namespace"),
])
def test_tree_condition_field_checked_at_load(field, error):
    doc = minimal_town()
    doc["behavior_tree"] = {
        "kind": "selector",
        "children": [
            {"kind": "condition", "field": field, "op": ">", "value": 0.5},
            {"kind": "action", "action_id": "idle"},
        ],
    }
    assert f"behavior_tree.children[0].field: {error}" in errors_from(doc)


def _town_declaring_keys() -> dict:
    """The minimal town whose NPC and catalog each declare one key of
    every NPC namespace; the trait `greed` comes from a disposition tag."""
    doc = minimal_town()
    doc["disposition_table"] = {"Greedy": {"greed": 0.5}}
    doc["npcs"][0]["tags"].append("Greedy")
    doc["npcs"][0]["needs"] = {"hunger": 0.9}
    doc["action_catalog"].append({
        "action_id": "eat",
        "satisfies_needs": {"thirst": 0.5},
        "local_effects": {"grain": -1},
        "trait_affinities": {"charity": 1},
    })
    return doc


def _tree_on(doc: dict, field: str) -> dict:
    doc["behavior_tree"] = {
        "kind": "selector",
        "children": [
            {"kind": "sequence", "children": [
                {"kind": "condition", "field": field, "op": ">", "value": 0.5},
                {"kind": "action", "action_id": "eat"},
            ]},
            {"kind": "action", "action_id": "idle"},
        ],
    }
    return doc


@pytest.mark.parametrize("field", [
    "needs.hunger", "needs.thirst", "state.wealth", "state.grain", "personality.greed", "personality.charity",
])
def test_tree_condition_on_a_declared_key_loads(field):
    load_town(_tree_on(_town_declaring_keys(), field))


@pytest.mark.parametrize("field, error", [
    ("needs.hungr", "unknown need 'hungr'"),
    ("state.welth", "unknown state key 'welth'"),
    ("personality.gred", "unknown trait 'gred'"),
])
def test_tree_condition_on_an_undeclared_key_fails_at_load(field, error):
    # Before, such a condition loaded and read 0.0 on every tick.
    assert errors_from(_tree_on(_town_declaring_keys(), field)) == [
        f"behavior_tree.children[0].children[0].field: {error}"
    ]


def test_tree_unknown_node_kind():
    doc = minimal_town()
    doc["behavior_tree"] = {"kind": "parallel", "children": []}
    assert "behavior_tree.kind: unknown node kind 'parallel'" in errors_from(doc)
