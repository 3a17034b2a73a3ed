"""Shared value types for the simulation.

Everything here is an immutable record: an update builds a new record,
in the pure functions of the layer modules, and shares whatever it does
not change. Dict-valued fields are treated as frozen by convention; no
code in this package mutates one after construction.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Optional, Union

Scalar = Union[int, float, str]

TAG_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")

SEASONS = ("Dry", "Temperate", "Rainy")

COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# Consistency-requirement operators: name -> (comparison, symbol shown).
REQUIREMENT_OPS = {
    "eq": (operator.eq, "=="),
    "ne": (operator.ne, "!="),
    "ge": (operator.ge, ">="),
    "le": (operator.le, "<="),
}


class InvariantViolation(RuntimeError):
    """An internal contract was broken; the run must abort."""


def clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def is_valid_tag(name: str) -> bool:
    return bool(TAG_PATTERN.match(name))


class Level(IntEnum):
    """Coarse ordinal reading of a causal variable's intensity."""

    NORMAL = 0
    ELEVATED = 1
    CRITICAL = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


LEVEL_BY_LABEL = {lv.label: lv for lv in Level}


@dataclass(frozen=True, slots=True)
class LevelThresholds:
    # Normal below `elevated`, Critical at or above `critical`.
    elevated: float = 0.4
    critical: float = 0.8


def level_for(intensity: float, thresholds: LevelThresholds) -> Level:
    if intensity >= thresholds.critical:
        return Level.CRITICAL
    if intensity >= thresholds.elevated:
        return Level.ELEVATED
    return Level.NORMAL


@dataclass(frozen=True, slots=True)
class CausalVariable:
    """A world-scale pressure tracked by the ledger, e.g. water scarcity."""

    name: str
    intensity: float  # always in [0, 1]
    # (tick, intensity) at load only; each later change is a Clock-phase
    # VariableChanged trace line.
    history: tuple[tuple[int, float], ...] = ()

    def level(self, thresholds: LevelThresholds) -> Level:
        return level_for(self.intensity, thresholds)


@dataclass(frozen=True, slots=True)
class VariablePredicate:
    """Atomic trigger condition: compare a variable against a level or a raw
    intensity bound. Exactly one of `level` / `intensity` is set."""

    variable: str
    op: str  # ">=" or "<="
    level: Optional[Level] = None
    intensity: Optional[float] = None

    def describe(self) -> str:
        bound = self.level.label if self.level is not None else self.intensity
        return f"{self.variable} {self.op} {bound}"

    def holds(self, ledger: "WorldLedger") -> bool:
        if self.level is not None:
            return COMPARE[self.op](ledger.level(self.variable), self.level)
        return COMPARE[self.op](ledger.intensity(self.variable), self.intensity)


@dataclass(frozen=True, slots=True)
class LedgerRequirement:
    """Consistency condition the critic checks before an event may fire."""

    field: str  # "season", "tick", or a variable name
    op: str  # a key of REQUIREMENT_OPS
    value: Scalar

    def describe(self) -> str:
        return f"{self.field} {REQUIREMENT_OPS[self.op][1]} {self.value}"


@dataclass(frozen=True, slots=True)
class Effect:
    variable: str
    delta_per_tick: float
    duration_ticks: int  # >= 1


@dataclass(frozen=True, slots=True)
class MacroEventRule:
    id: str
    name: str
    trigger: tuple[VariablePredicate, ...]
    consistency_requirements: tuple[LedgerRequirement, ...] = ()
    effects: tuple[Effect, ...] = ()
    cooldown_ticks: int = 0


@dataclass(frozen=True, slots=True)
class CriticVerdict:
    accepted: bool
    reason: str = ""  # empty iff accepted
    violated_requirement: Optional[str] = None

    @staticmethod
    def accept() -> "CriticVerdict":
        return CriticVerdict(accepted=True)

    @staticmethod
    def reject(reason: str, requirement: str) -> "CriticVerdict":
        return CriticVerdict(accepted=False, reason=reason, violated_requirement=requirement)


@dataclass(frozen=True, slots=True)
class MacroEvent:
    """One firing (or attempted firing) of a macro rule, carrying the rule's
    effects. Once applied, each effect lands on the `duration_ticks` ticks
    after `fired_tick`."""

    rule_id: str
    instance_id: str
    fired_tick: int
    trigger_snapshot: dict[str, float] = field(default_factory=dict)
    critic_verdict: Optional[CriticVerdict] = None
    effects: tuple[Effect, ...] = ()
    # The first tick on which the event is no longer active; set once here.
    ends_tick: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        longest = max((e.duration_ticks for e in self.effects), default=1)
        object.__setattr__(self, "ends_tick", self.fired_tick + longest)

    def active_at(self, tick: int) -> bool:
        """True until the tick on which its longest effect lands; an event
        without effects is active on its firing tick only."""
        return tick < self.ends_tick


@dataclass(frozen=True, slots=True)
class WorldLedger:
    """Objective world state. Holds causal variables and each rule's latest
    accepted firing; never tracks individual NPC behaviour."""

    tick: int
    variables: dict[str, CausalVariable]
    season: str
    fired_log: tuple[MacroEvent, ...] = ()
    # Carried here so ledger-in/ledger-out operations can derive levels
    # without extra plumbing.
    thresholds: LevelThresholds = LevelThresholds()

    def intensity(self, variable: str) -> float:
        return self.variables[variable].intensity

    def level(self, variable: str) -> Level:
        return self.variables[variable].level(self.thresholds)


@dataclass(frozen=True, slots=True)
class TagSelector:
    mode: str  # "any" or "all"
    tags: tuple[str, ...]  # non-empty


def selector_matches(selector: TagSelector, npc_tags: tuple[str, ...]) -> bool:
    tag_set = set(npc_tags)
    if selector.mode == "any":
        return any(t in tag_set for t in selector.tags)
    return all(t in tag_set for t in selector.tags)


@dataclass(frozen=True, slots=True)
class Directive:
    """Group-level instruction compiled by a domain module, addressed to a
    tag population rather than to individual NPCs."""

    id: str
    source_module: str
    cause_event: str
    selector: TagSelector
    action_id: str
    parameters: dict[str, Scalar]
    base_priority: float  # in [0, 1]
    risk: float  # in [0, 1]
    issued_tick: int
    ttl_ticks: int  # >= 1
    # `parameters` as key-sorted pairs for the trace, computed once here.
    parameter_items: tuple[tuple[str, Scalar], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameter_items", tuple(sorted(self.parameters.items())))


def directive_to_packet(d: Directive) -> dict[str, Any]:
    """Wire form of a directive: the flat JSON object recorded in traces."""
    return {
        "id": d.id,
        "source_module": d.source_module,
        "cause_event": d.cause_event,
        "selector_mode": d.selector.mode,
        "selector_tags": sorted(d.selector.tags),
        "action_id": d.action_id,
        "parameters": dict(d.parameters),
        "base_priority": d.base_priority,
        "risk": d.risk,
        "issued_tick": d.issued_tick,
        "ttl_ticks": d.ttl_ticks,
    }


@dataclass(frozen=True, slots=True)
class NpcProfile:
    """One inhabitant. `tags` keeps authoring order but is treated as a set
    for matching; `role_tag` is the single tag the migration machinery owns."""

    id: str
    tags: tuple[str, ...]
    role_tag: str
    personality: dict[str, float] = field(default_factory=dict)  # values in [-1, 1]
    needs: dict[str, float] = field(default_factory=dict)  # values in [0, 1]
    local_state: dict[str, float] = field(default_factory=dict)  # must carry wealth >= 0
    # (from_tag, to_tag) of the most recent migration; hysteresis needs it.
    last_migration: Optional[tuple[str, str]] = None


def validate_profile(npc: NpcProfile) -> list[str]:
    """Check profile invariants. Returns violation messages with field paths;
    an empty list means the profile is valid."""
    problems: list[str] = []
    if not is_valid_tag(npc.id):
        problems.append(f"id: invalid identifier {npc.id!r}")
    if not npc.tags:
        problems.append("tags: non-empty set required")
    seen: set[str] = set()
    for i, tag in enumerate(npc.tags):
        if not is_valid_tag(tag):
            problems.append(f"tags[{i}]: invalid tag {tag!r}")
        if tag in seen:
            problems.append(f"tags[{i}]: duplicate tag {tag!r}")
        seen.add(tag)
    if npc.tags and npc.role_tag not in npc.tags:
        problems.append(f"role_tag: {npc.role_tag!r} not in tags")
    for trait, value in npc.personality.items():
        if not -1.0 <= value <= 1.0:
            problems.append(f"personality.{trait}: {value} out of [-1, 1]")
    for need, value in npc.needs.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"needs.{need}: {value} out of [0, 1]")
    if "wealth" not in npc.local_state:
        problems.append("local_state.wealth: required")
    elif npc.local_state["wealth"] < 0:
        problems.append(f"local_state.wealth: {npc.local_state['wealth']} must be >= 0")
    return problems
