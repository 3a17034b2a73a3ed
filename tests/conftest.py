"""Shared fixtures: the shipped scenarios plus a tiny synthetic town."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import settings

from cascade.scenario import Scenario, load_scenario, load_scenario_file

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "scenarios" / "drought_town.json"
MARKET_PATH = ROOT / "scenarios" / "market_cycle.json"


def minimal_town() -> dict:
    """Smallest valid scenario document: one variable, one NPC, idle only.
    Tests mutate the returned dict before loading."""
    return {
        "schema_version": 1,
        "meta": {"name": "minimal"},
        "ledger_init": {"variables": [{"name": "pressure", "intensity": 0.5}]},
        "action_catalog": [{"action_id": "idle", "default": True}],
        "npcs": [
            {
                "id": "solo",
                "tags": ["Villager"],
                "role_tag": "Villager",
                "local_state": {"wealth": 1},
            }
        ],
    }


def load_town(doc: dict) -> Scenario:
    return load_scenario(json.dumps(doc))


@pytest.fixture(scope="session")
def golden_path() -> Path:
    return GOLDEN_PATH


@pytest.fixture(scope="session")
def golden() -> Scenario:
    return load_scenario_file(str(GOLDEN_PATH))
