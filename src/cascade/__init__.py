"""Deterministic layered social simulation.

Macro causal events fire off a world ledger, domain modules compile them
into tag-routed directives, and NPCs accept or reject those through a
local utility calculus. The main loop makes zero language-model calls;
dialogue is an optional seam outside the tick pipeline.
"""

from .engine import RunSummary, Simulation, replicate_roster
from .scenario import Scenario, ScenarioError, load_scenario, load_scenario_file

__version__ = "0.1.0"

__all__ = [
    "RunSummary",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "load_scenario",
    "load_scenario_file",
    "replicate_roster",
]
