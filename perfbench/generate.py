"""Seeded scenario generators for the benchmark workloads.

Every generator returns a plain scenario document (the JSON object the
loader reads); the engine only ever sees its serialised text. The same
seed gives the same document, and ids are unique by construction
(role prefix plus running index).
"""

from __future__ import annotations

import random
from itertools import cycle
from typing import Any

ROLES = ("Farmer", "Merchant", "Guard", "Townsfolk", "Leader")
ROLE_WEIGHTS = (0.30, 0.20, 0.15, 0.30, 0.05)
TRAITS = ("greed", "diligence", "civic_duty")

DISPOSITION_TABLE = {
    "Greedy": {"greed": 0.8},
    "Generous": {"greed": -0.8},
    "Lazy": {"diligence": -0.8},
    "Hardworking": {"diligence": 0.8},
    "Responsible": {"diligence": 0.8},
    "Lawful": {"civic_duty": 0.8},
}

# A handful of NPCs is too few to average over random draws: which of
# them accept directives sets the work and trace volume of every tick.
# So the hamlet's roster is fixed (these tag sets, numbers drawn from
# HAMLET_ROSTER_SEED) and the workload seed varies its macro layer.
HAMLET_ROSTER_SEED = 0
HAMLET_TAGS = (
    ["Farmer", "Hardworking"],
    ["Merchant", "Greedy"],
    ["Guard", "Lazy"],
    ["Townsfolk", "Farmer"],
    ["Leader", "Lawful"],
    ["Merchant", "Generous"],
)

ACTION_CATALOG = [
    {"action_id": "ration_water", "trait_affinities": {"diligence": 1}, "local_effects": {"stored_water": 3}},
    {"action_id": "convene_town_hall", "trait_affinities": {"civic_duty": 1}},
    {"action_id": "patrol_water_sources", "trait_affinities": {"diligence": 1}},
    {"action_id": "raise_price", "trait_affinities": {"greed": 1}, "local_effects": {"wealth": 5}},
    {"action_id": "discount_water", "trait_affinities": {"greed": -1}, "local_effects": {"wealth": -2}},
    {"action_id": "hoard_water", "trait_affinities": {"greed": 1}, "local_effects": {"wealth": 2}},
    {"action_id": "host_festival"},
    {"action_id": "eat", "satisfies_needs": {"hunger": 0.5}, "local_effects": {"wealth": -1}},
    {"action_id": "idle", "default": True},
]

MIGRATION_RULES = [
    {"from_tag": "Merchant", "to_tag": "Beggar", "field": "wealth", "op": "<", "threshold": 5, "hysteresis_margin": 2},
    {"from_tag": "Beggar", "to_tag": "Merchant", "field": "wealth", "op": ">=", "threshold": 5, "hysteresis_margin": 2},
]

# Hungry NPCs (hunger > 0.7) eat when no directive wins; everyone else idles.
BEHAVIOR_TREE = {
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


def _template(tags: list[str], action: str, priority: float, risk: float, ttl: int,
              mode: str = "any", parameters: dict[str, Any] | None = None) -> dict[str, Any]:
    return {
        "selector": {"mode": mode, "tags": tags},
        "action_id": action,
        "parameters": parameters or {},
        "base_priority": priority,
        "risk": risk,
        "ttl_ticks": ttl,
    }


def _npc(rng: random.Random, index: int, role: str, tags: list[str] | None = None) -> dict[str, Any]:
    """One varied inhabitant: a role, 0-2 disposition tags, maybe a second
    role-like tag (unless `tags` fixes them), explicit traits, hunger and
    wealth within loader bounds. Some hunger lands above the 0.7 eat branch
    and some merchant wealth inside the 5 +/- 2 migration band, so the
    fallback and Migrate fire."""
    if tags is None:
        tags = [role]
        tags += rng.sample(sorted(DISPOSITION_TABLE), rng.randint(0, 2))
        if rng.random() < 0.25:
            tags.append(rng.choice([r for r in ROLES if r != role]))
    personality = {
        trait: round(rng.uniform(-1.0, 1.0), 3)
        for trait in TRAITS
        if rng.random() < 0.6
    }
    if role == "Merchant" and rng.random() < 0.4:
        wealth = round(rng.uniform(3.0, 9.0), 2)
    else:
        wealth = round(rng.uniform(0.0, 100.0), 2)
    local_state: dict[str, float] = {"wealth": wealth}
    if role == "Farmer":
        local_state["stored_water"] = float(rng.randint(0, 5))
    return {
        "id": f"{role.lower()}_{index:05d}",
        "tags": tags,
        "role_tag": role,
        "personality": personality,
        "needs": {"hunger": round(rng.random(), 3)},
        "local_state": local_state,
    }


def _base(name: str, seed: int) -> dict[str, Any]:
    return {
        "schema_version": 1,
        "meta": {"name": name, "version": "1"},
        "seed_default": seed,
        "level_thresholds": {"elevated": 0.4, "critical": 0.8},
        "utility_weights": {"base": 1.0, "trait": 1.0, "need": 1.0, "risk": 1.0, "threshold": 0.5},
        "action_catalog": ACTION_CATALOG,
        "disposition_table": DISPOSITION_TABLE,
        "migration_rules": MIGRATION_RULES,
        "behavior_tree": BEHAVIOR_TREE,
    }


def crowd_town(seed: int, npc_count: int) -> dict[str, Any]:
    """A large town under the shipped drought macro layer: the drought
    fires on tick 4, its six directives live 30 ticks, cooldown 60. The
    macro layer is fixed; only the roster depends on the seed."""
    rng = random.Random(seed)
    doc = _base("perfbench_crowd", seed)
    doc["ledger_init"] = {
        "season": "Dry",
        "variables": [
            {"name": "water_scarcity", "intensity": 0.45},
            {"name": "food_scarcity", "intensity": 0.2},
            {"name": "morale", "intensity": 0.3},
        ],
    }
    doc["drift_schedule"] = [
        {"variable": "water_scarcity", "delta_per_tick": 0.1, "start_tick": 1, "end_tick": 30},
    ]
    doc["macro_rules"] = [{
        "id": "severe_drought",
        "name": "Severe Drought",
        "trigger": [{"variable": "water_scarcity", "op": ">=", "level": "Critical"}],
        "consistency_requirements": [{"field": "season", "op": "ne", "value": "Rainy"}],
        "effects": [{"variable": "food_scarcity", "delta_per_tick": 0.02, "duration_ticks": 10}],
        "cooldown_ticks": 60,
    }]
    doc["domain_modules"] = [
        {"id": "resource_allocation", "activation": [{"rule_id": "severe_drought"}], "directives": [
            _template(["Farmer"], "ration_water", 0.7, 0.3, 30, parameters={"ration_pct": 50}),
            _template(["Leader"], "convene_town_hall", 0.8, 0.1, 30, parameters={"agenda": "water_conservation"}),
        ]},
        {"id": "security", "activation": [{"rule_id": "severe_drought"}], "directives": [
            _template(["Guard"], "patrol_water_sources", 0.7, 0.3, 30),
        ]},
        {"id": "economy", "activation": [{"rule_id": "severe_drought"}], "directives": [
            _template(["Merchant"], "raise_price", 0.6, 0.2, 30, parameters={"price_delta_pct": 30}),
            _template(["Merchant"], "discount_water", 0.6, 0.1, 30, parameters={"discount_pct": 20}),
            _template(["Merchant", "Greedy"], "hoard_water", 0.5, 0.2, 30, mode="all"),
        ]},
        {"id": "entertainment",
         "activation": [{"condition": {"variable": "morale", "op": ">=", "level": "Elevated"}}],
         "directives": [_template(["Townsfolk"], "host_festival", 0.5, 0.1, 3)]},
    ]
    roles = rng.choices(ROLES, weights=ROLE_WEIGHTS, k=npc_count)
    doc["npcs"] = [_npc(rng, i, role) for i, role in enumerate(roles)]
    return doc


def hamlet(seed: int, npc_count: int) -> dict[str, Any]:
    """A handful of NPCs under a busy macro layer. Every variable carries
    an upward drift with noise for the whole run, and a short-cooldown
    rule whose effect pushes it back down, so rules fire at a steady rate
    that hardly depends on the seed. A "monsoon" rule holds almost every
    tick and the critic rejects it in the dry season. One module is woken
    by a condition, and directive TTLs are short: many directives are
    issued and expire, each read by few NPCs. The seed sets the initial
    intensities (and, as the run seed, the drift noise); the roster is
    the same for every seed."""
    rng = random.Random(seed)
    doc = _base("perfbench_hamlet", seed)
    drift = {"water_scarcity": 0.010, "food_scarcity": 0.008, "morale": 0.008, "unrest": 0.010}
    doc["ledger_init"] = {
        "season": "Dry",
        "variables": [{"name": v, "intensity": round(rng.uniform(0.3, 0.6), 3)} for v in drift],
    }
    doc["drift_schedule"] = [
        {"variable": v, "delta_per_tick": d, "start_tick": 1, "end_tick": 1_000_000_000, "noise": 0.05}
        for v, d in drift.items()
    ]

    def rule(rule_id: str, variable: str, bound: float, cooldown: int,
             effects: list[tuple[str, float, int]], requirements: list[dict[str, Any]]) -> dict[str, Any]:
        return {
            "id": rule_id,
            "name": rule_id.replace("_", " ").title(),
            "trigger": [{"variable": variable, "op": ">=", "intensity": bound}],
            "consistency_requirements": requirements,
            "effects": [{"variable": v, "delta_per_tick": d, "duration_ticks": n} for v, d, n in effects],
            "cooldown_ticks": cooldown,
        }

    dry = [{"field": "season", "op": "ne", "value": "Rainy"}]
    doc["macro_rules"] = [
        rule("drought", "water_scarcity", 0.7, 12, [("water_scarcity", -0.06, 3), ("food_scarcity", 0.01, 3)], dry),
        rule("famine", "food_scarcity", 0.6, 14, [("food_scarcity", -0.05, 3), ("morale", 0.01, 2)], []),
        rule("fair_day", "morale", 0.6, 13, [("morale", -0.05, 3), ("unrest", -0.01, 2)], []),
        rule("riot", "unrest", 0.7, 15, [("unrest", -0.06, 3)], [{"field": "morale", "op": "le", "value": 0.95}]),
        rule("monsoon", "water_scarcity", 0.05, 0, [("water_scarcity", -0.1, 1)],
             [{"field": "season", "op": "eq", "value": "Rainy"}]),
    ]
    doc["domain_modules"] = [
        {"id": "relief", "activation": [{"rule_id": "drought"}, {"rule_id": "famine"}], "directives": [
            _template(["Farmer"], "ration_water", 0.7, 0.3, 4, parameters={"ration_pct": 50}),
            _template(["Townsfolk"], "eat", 0.4, 0.1, 2),
        ]},
        {"id": "market", "activation": [{"rule_id": "famine"}], "directives": [
            _template(["Merchant"], "raise_price", 0.6, 0.2, 5, parameters={
                "price_delta_pct": {"variable": "food_scarcity", "scale": 50, "offset": 10}}),
            _template(["Merchant", "Greedy"], "hoard_water", 0.5, 0.2, 3, mode="all"),
        ]},
        {"id": "watch", "activation": [{"rule_id": "riot"}], "directives": [
            _template(["Guard"], "patrol_water_sources", 0.7, 0.3, 4),
            _template(["Leader"], "convene_town_hall", 0.8, 0.1, 3, parameters={"agenda": "order"}),
        ]},
        {"id": "festivities",
         "activation": [{"condition": {"variable": "morale", "op": ">=", "level": "Elevated"}}],
         "directives": [_template(["Townsfolk", "Leader"], "host_festival", 0.5, 0.1, 2)]},
    ]
    roster_rng = random.Random(HAMLET_ROSTER_SEED)
    doc["npcs"] = [_npc(roster_rng, i, tags[0], tags) for i, tags in zip(range(npc_count), cycle(HAMLET_TAGS))]
    return doc


def with_roster(doc: dict[str, Any], npcs: list[dict[str, Any]]) -> dict[str, Any]:
    """The same scenario with another roster; used for the reference run
    that checks directive counts do not depend on the town."""
    return {**doc, "npcs": npcs}
