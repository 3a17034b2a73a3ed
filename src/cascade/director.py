"""Macro layer: narrative clock, threshold rules, causal critic.

Every operation is a pure ledger-in/ledger-out transformation. Per tick the
order is fixed: drift -> active-event effects -> rule evaluation -> critic
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
    """Advance one tick: apply in-window drifts, then the effects of active
    events whose window covers the new tick, clamping intensity to [0, 1].
    A variable whose intensity is unchanged keeps its record. Events whose
    last effect has landed drop out."""
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

    for event in ledger.active_events:
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

    return replace(
        ledger,
        tick=tick,
        variables=variables,
        active_events=tuple(e for e in ledger.active_events if e.active_at(tick)),
    )


def evaluate_rules(ledger: WorldLedger, rules: tuple[MacroEventRule, ...]) -> list[MacroEvent]:
    """Return candidate events for rules whose full trigger conjunction holds,
    which are not currently active, and whose cooldown has elapsed. Candidates
    come back ordered by rule id; each carries a snapshot of the trigger
    variables' intensities."""
    active_rule_ids = {ae.rule_id for ae in ledger.active_events}
    # apply_event appends in fired order, so walking the log backwards meets
    # each rule's latest firing first. An entry older than the longest
    # cooldown blocks no rule, and neither does anything before it.
    horizon = ledger.tick - max((rule.cooldown_ticks for rule in rules), default=0)
    last_fired: dict[str, int] = {}
    for ev in reversed(ledger.fired_log):
        if ev.fired_tick < horizon:
            break
        last_fired.setdefault(ev.rule_id, ev.fired_tick)

    candidates: list[MacroEvent] = []
    for rule in sorted(rules, key=lambda r: r.id):
        if not rule.trigger:
            continue  # a rule with no trigger never fires
        if rule.id in active_rule_ids:
            continue
        if rule.id in last_fired and ledger.tick - last_fired[rule.id] <= rule.cooldown_ticks:
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
    """Commit an accepted event: append it to the fired log and to the
    active events, where its effects land over their durations. Applying a
    rejected event is a fault."""
    if event.critic_verdict is None or not event.critic_verdict.accepted:
        raise InvariantViolation(
            f"apply_event: event {event.instance_id!r} was not accepted by the critic"
        )
    return replace(
        ledger,
        active_events=ledger.active_events + (event,),
        fired_log=ledger.fired_log + (event,),
    )
