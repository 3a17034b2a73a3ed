"""Macro layer: narrative clock, threshold rules, causal critic.

Every operation is a pure ledger-in/ledger-out transformation. Per tick the
order is fixed: drift -> event effects -> rule evaluation -> critic
-> apply. Randomness enters only through optional drift noise, drawn from
the run's single generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from .core import (
    CriticVerdict,
    InvariantViolation,
    LEVEL_BY_LABEL,
    Level,
    MacroEvent,
    MacroEventRule,
    REQUIREMENT_OPS,
    WorldLedger,
    clamp,
)


@dataclass(frozen=True, slots=True)
class DriftEntry:
    variable: str
    delta_per_tick: float
    start_tick: int
    end_tick: int  # inclusive; start_tick <= end_tick
    noise: float = 0.0  # uniform +/- amplitude added to the delta when > 0


def advance_clock(
    ledger: WorldLedger,
    drifts: tuple[DriftEntry, ...],
    rng: Optional[random.Random] = None,
) -> WorldLedger:
    """Advance one tick: apply in-window drifts, then the effects of fired
    events whose window covers the new tick, clamping intensity to [0, 1].
    A variable whose intensity is unchanged keeps its record. An expired
    event lands nothing, so the fired log needs no filtering."""
    tick = ledger.tick + 1
    intensities = {name: v.intensity for name, v in ledger.variables.items()}
    start = dict(intensities)

    # Drift window test uses the tick being entered.
    for entry in drifts:
        if entry.start_tick <= tick <= entry.end_tick:
            delta = entry.delta_per_tick
            if entry.noise > 0.0 and rng is not None:
                delta += rng.uniform(-entry.noise, entry.noise)
            if entry.variable not in intensities:
                raise KeyError(f"drift references unknown variable {entry.variable!r}")
            intensities[entry.variable] = clamp(intensities[entry.variable] + delta, 0.0, 1.0)

    for event in ledger.fired_log:
        for eff in event.effects:
            if tick - event.fired_tick <= eff.duration_ticks:
                if eff.variable not in intensities:
                    raise KeyError(f"effect references unknown variable {eff.variable!r}")
                intensities[eff.variable] = clamp(
                    intensities[eff.variable] + eff.delta_per_tick, 0.0, 1.0
                )

    variables = {
        name: var if intensities[name] == start[name] else replace(var, intensity=intensities[name])
        for name, var in ledger.variables.items()
    }

    return replace(ledger, tick=tick, variables=variables)


def evaluate_rules(ledger: WorldLedger, rules: tuple[MacroEventRule, ...]) -> list[MacroEvent]:
    """Return candidate events for rules whose full trigger conjunction holds,
    which are not currently active, and whose cooldown has elapsed. Candidates
    come back ordered by rule id; each carries a snapshot of the trigger
    variables' intensities."""
    latest = {ev.rule_id: ev for ev in ledger.fired_log}
    candidates: list[MacroEvent] = []
    for rule in sorted(rules, key=lambda r: r.id):
        if not rule.trigger:
            continue  # a rule with no trigger never fires
        last = latest.get(rule.id)
        if last and (last.active_at(ledger.tick) or ledger.tick - last.fired_tick <= rule.cooldown_ticks):
            continue
        if all(p.holds(ledger) for p in rule.trigger):
            snapshot = {p.variable: ledger.intensity(p.variable) for p in rule.trigger}
            candidates.append(
                MacroEvent(
                    rule_id=rule.id,
                    instance_id=f"{rule.id}@{ledger.tick}",
                    fired_tick=ledger.tick,
                    trigger_snapshot=snapshot,
                    effects=rule.effects,
                )
            )
    return candidates


def _requirement_holds(req, ledger: WorldLedger) -> tuple[bool, str]:
    """Evaluate one consistency requirement; returns (holds, actual shown)."""
    if req.field == "season":
        actual: object = ledger.season
        display = ledger.season
    elif req.field == "tick":
        actual = ledger.tick
        display = str(ledger.tick)
    elif req.field in ledger.variables:
        if isinstance(req.value, str):  # compare at level granularity
            actual = ledger.level(req.field)
            display = ledger.level(req.field).label
        else:
            actual = ledger.intensity(req.field)
            display = str(actual)
    else:
        # Unknown fields never hold; the scenario validator rejects them first.
        return False, f"<unknown field {req.field!r}>"
    value = LEVEL_BY_LABEL[req.value] if isinstance(actual, Level) else req.value
    return REQUIREMENT_OPS[req.op][0](actual, value), display


def critic_check(rule: MacroEventRule, ledger: WorldLedger) -> CriticVerdict:
    """Gate a firing of `rule` against its consistency requirements. The first
    violated requirement (declaration order) becomes the rejection reason."""
    for req in rule.consistency_requirements:
        holds, actual = _requirement_holds(req, ledger)
        if not holds:
            return CriticVerdict.reject(
                reason=f"{req.field} is {actual}",
                requirement=req.describe(),
            )
    return CriticVerdict.accept()


def apply_event(ledger: WorldLedger, event: MacroEvent) -> WorldLedger:
    """Commit an accepted event: it replaces its rule's previous firing in
    the fired log, and its effects land over their durations. Applying a
    rejected event, or refiring a rule whose previous firing is still
    active, is a fault."""
    if event.critic_verdict is None or not event.critic_verdict.accepted:
        raise InvariantViolation(
            f"apply_event: event {event.instance_id!r} was not accepted by the critic"
        )
    for ev in ledger.fired_log:
        if ev.rule_id == event.rule_id and ev.active_at(event.fired_tick):
            raise InvariantViolation(f"apply_event: {event.instance_id!r} fired while {ev.instance_id!r} is active")
    kept = tuple(ev for ev in ledger.fired_log if ev.rule_id != event.rule_id)
    return replace(ledger, fired_log=kept + (event,))
