"""Coordination layer: sparse module activation, directive compilation and
tag routing.

A domain module wakes only when one of its activation matchers recognises
the fired event or the current variable levels. A woken module compiles
its directive templates into group-level packets routed by tag selector.
Activation and compilation read no NPC state, so directive counts are
independent of town size by construction; only the tag index knows which
NPCs carry which tags.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core import (
    Directive,
    MacroEvent,
    NpcProfile,
    Scalar,
    TagSelector,
    VariablePredicate,
    WorldLedger,
)


@dataclass(frozen=True, slots=True)
class ActivationMatcher:
    """One way to wake a module: by the fired rule's id, by a variable level
    test, or both (conjunction when both are present)."""

    rule_id: Optional[str] = None
    condition: Optional[VariablePredicate] = None

    def matches(self, event: MacroEvent, ledger: WorldLedger) -> bool:
        if self.rule_id is not None and event.rule_id != self.rule_id:
            return False
        if self.condition is not None and not self.condition.holds(ledger):
            return False
        return self.rule_id is not None or self.condition is not None


@dataclass(frozen=True, slots=True)
class ParameterExpr:
    """Affine parameter: variable intensity * scale + offset."""

    variable: str
    scale: float = 1.0
    offset: float = 0.0

    def evaluate(self, ledger: WorldLedger) -> float:
        return ledger.intensity(self.variable) * self.scale + self.offset


@dataclass(frozen=True, slots=True)
class DirectiveTemplate:
    selector: TagSelector
    action_id: str
    parameters: dict[str, Union[Scalar, ParameterExpr]]
    base_priority: float
    risk: float
    ttl_ticks: int
    condition: Optional[VariablePredicate] = None  # compiled only when it holds


@dataclass(frozen=True, slots=True)
class DomainModuleSpec:
    id: str
    activation: tuple[ActivationMatcher, ...]  # any-of
    templates: tuple[DirectiveTemplate, ...]


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    directive_id: str
    npc_ids: tuple[str, ...]  # sorted


class TagIndex:
    """Level 2 -> 3 routing: tag -> ids of the NPCs carrying it. Built from
    the roster and changed only when an NPC's tags change."""

    def __init__(self, npcs: Iterable[NpcProfile]) -> None:
        self._members: defaultdict[str, set[str]] = defaultdict(set)
        for npc in npcs:
            self.move(npc.id, (), npc.tags)

    def select(self, selector: TagSelector) -> set[str]:
        """Ids of the NPCs a selector reaches: the union of its tags'
        members for `any`, the intersection for `all`."""
        members = [self._members[tag] for tag in selector.tags]
        if selector.mode == "any":
            return set().union(*members)
        return set.intersection(*members)

    def move(self, npc_id: str, old_tags: Iterable[str], new_tags: Iterable[str]) -> None:
        for tag in old_tags:
            self._members[tag].discard(npc_id)
        for tag in new_tags:
            self._members[tag].add(npc_id)


class DirectiveIdSource:
    """Monotonic counter; zero-padded so lexicographic order is issue order."""

    def __init__(self) -> None:
        self._next = 0

    def take(self) -> str:
        self._next += 1
        return f"d{self._next:06d}"


def route_activation(
    event: MacroEvent, ledger: WorldLedger, modules: tuple[DomainModuleSpec, ...]
) -> list[DomainModuleSpec]:
    """Modules woken by this event, in module declaration order."""
    return [module for module in modules if any(m.matches(event, ledger) for m in module.activation)]


def compile_directives(
    module: DomainModuleSpec,
    event: MacroEvent,
    ledger: WorldLedger,
    id_source: DirectiveIdSource,
) -> list[Directive]:
    """Instantiate the module's templates against the current ledger. One
    directive per template whose condition holds; ids are drawn in template
    order so issue order is reproducible."""
    issued: list[Directive] = []
    for template in module.templates:
        if template.condition is not None and not template.condition.holds(ledger):
            continue
        parameters: dict[str, Scalar] = {}
        for name, expr in template.parameters.items():
            if isinstance(expr, ParameterExpr):
                parameters[name] = expr.evaluate(ledger)
            else:
                parameters[name] = expr
        issued.append(
            Directive(
                id=id_source.take(),
                source_module=module.id,
                cause_event=event.instance_id,
                selector=template.selector,
                action_id=template.action_id,
                parameters=parameters,
                base_priority=template.base_priority,
                risk=template.risk,
                issued_tick=ledger.tick,
                ttl_ticks=template.ttl_ticks,
            )
        )
    return issued


def broadcast(directives: list[Directive], index: TagIndex) -> list[DeliveryRecord]:
    """Resolve each directive's tag selector through the index. Matched ids
    come back sorted; delivery happens at the issue tick."""
    return [DeliveryRecord(d.id, tuple(sorted(index.select(d.selector)))) for d in directives]


def expire_directives(active: list[Directive], tick: int) -> list[Directive]:
    """Keep directives still within their time-to-live at `tick`."""
    return [d for d in active if d.issued_tick + d.ttl_ticks > tick]
