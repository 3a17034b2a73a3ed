"""NPC layer: local utility calculus, action execution, tag migration,
and the dialogue seam.

Each NPC judges incoming directives with a small weighted sum over its own
profile; nothing global is consulted. Dialogue is fully decoupled: the
provider sees an immutable snapshot and can only return text, and the main
loop never calls it, which is what keeps model usage at zero during
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Protocol

from .behavior import BTNode, evaluate
from .core import COMPARE, Directive, InvariantViolation, NpcProfile, WorldLedger, clamp
from .trace import Deltas, TraceEvent


@dataclass(frozen=True, slots=True)
class UtilityWeights:
    base: float = 1.0
    trait: float = 1.0
    need: float = 1.0
    risk: float = 1.0
    threshold: float = 0.5  # accept iff total >= threshold


class UtilityBreakdown(NamedTuple):
    """Full audit record of one accept/reject decision. `total` is exactly
    w.base*base + w.trait*trait + w.need*need - w.risk*risk, evaluated in
    that order, so it can be recomputed bit-for-bit from the terms."""

    npc_id: str
    directive_id: str
    base_term: float
    trait_term: float
    need_term: float
    risk_term: float
    total: float
    threshold: float
    accepted: bool


@dataclass(frozen=True, slots=True)
class ActionBinding:
    """Catalog entry tying an action id to its scoring hooks and local
    consequences. `default` marks actions a behavior tree may end on."""

    action_id: str
    trait_affinities: dict[str, float] = field(default_factory=dict)  # trait -> +1/-1
    satisfies_needs: dict[str, float] = field(default_factory=dict)  # need -> relief
    local_effects: dict[str, float] = field(default_factory=dict)  # state -> delta
    default: bool = False
    # The three maps as key-sorted pairs, the order every sum and update
    # walks them in; computed once here rather than on every call.
    trait_terms: tuple[tuple[str, float], ...] = field(init=False, compare=False, repr=False)
    need_terms: tuple[tuple[str, float], ...] = field(init=False, compare=False, repr=False)
    effect_terms: tuple[tuple[str, float], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trait_terms", tuple(sorted(self.trait_affinities.items())))
        object.__setattr__(self, "need_terms", tuple(sorted(self.satisfies_needs.items())))
        object.__setattr__(self, "effect_terms", tuple(sorted(self.local_effects.items())))


def score_directive(
    npc: NpcProfile,
    directive: Directive,
    binding: ActionBinding,
    weights: UtilityWeights,
) -> UtilityBreakdown:
    """Judge one delivered directive against this NPC's profile. Missing
    traits count as 0; the trait term clamps to [-1, 1] and the need term
    to [0, 1]."""
    base_term = directive.base_priority
    # Plain left-to-right sums from 0.0, so an action without traits or
    # needs still writes its term as a float.
    trait_sum = 0.0
    personality = npc.personality
    for trait, sign in binding.trait_terms:
        trait_sum += sign * personality.get(trait, 0.0)
    need_sum = 0.0
    needs = npc.needs
    for need, relief in binding.need_terms:
        need_sum += relief * needs.get(need, 0.0)
    # core.clamp inlined: the same expression, so the same bits.
    trait_term = max(-1.0, min(1.0, trait_sum))
    need_term = max(0.0, min(1.0, need_sum))
    risk_term = directive.risk
    total = (
        weights.base * base_term
        + weights.trait * trait_term
        + weights.need * need_term
        - weights.risk * risk_term
    )
    threshold = weights.threshold
    return UtilityBreakdown(
        npc.id, directive.id, base_term, trait_term, need_term, risk_term, total, threshold, total >= threshold
    )


def best_breakdown(accepted: list[UtilityBreakdown]) -> Optional[UtilityBreakdown]:
    """Highest total wins; ties go to the smaller directive id."""
    if len(accepted) < 2:
        return accepted[0] if accepted else None
    return min(accepted, key=lambda b: (-b.total, b.directive_id))


def select_action(
    npc: NpcProfile,
    accepted: list[UtilityBreakdown],
    tree: BTNode,
    ledger: WorldLedger,
    directives: dict[str, Directive],
) -> str:
    """Pick exactly one action id for this tick: the winning accepted
    directive's action, else the behavior tree's choice."""
    best = best_breakdown(accepted)
    if best is not None:
        return directives[best.directive_id].action_id
    action_id = evaluate(tree, npc, ledger)
    if action_id is None:
        # The loader guarantees a reachable default leaf; reaching this
        # means the tree contract was bypassed.
        raise InvariantViolation(f"behavior tree produced no action for {npc.id!r}")
    return action_id


def execute_action(npc: NpcProfile, binding: ActionBinding) -> tuple[NpcProfile, Deltas]:
    """Apply the action's local effects (wealth never drops below 0) and
    need relief; return it with the (key, before, after) deltas of the
    local state keys that changed, in key order.

    The input profile is never changed. An action with neither effects nor
    relief returns it as it is; otherwise a new profile gets fresh copies
    of the maps the action touches and shares the rest."""
    deltas: Deltas = ()
    updated = npc
    if binding.effect_terms or binding.need_terms:
        local_state = npc.local_state
        if binding.effect_terms:
            local_state = dict(local_state)
            for key, delta in binding.effect_terms:
                before = local_state.get(key, 0.0)
                after = before + delta
                if key == "wealth":
                    after = max(0.0, after)
                local_state[key] = after
                if after != before:
                    deltas += ((key, before, after),)
        needs = npc.needs
        if binding.need_terms:
            needs = dict(needs)
            for need, relief in binding.need_terms:
                if need in needs:
                    needs[need] = clamp(needs[need] - relief, 0.0, 1.0)
        updated = NpcProfile(
            id=npc.id,
            tags=npc.tags,
            role_tag=npc.role_tag,
            personality=npc.personality,
            needs=needs,
            local_state=local_state,
            last_migration=npc.last_migration,
        )
    return updated, deltas


# --- tag migration -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TagMigrationRule:
    from_tag: str
    to_tag: str
    field: str  # local_state key
    op: str  # one of < <= > >=
    threshold: float
    hysteresis_margin: Optional[float] = None  # None -> 10% of |threshold|


def effective_margin(rule: TagMigrationRule) -> float:
    if rule.hysteresis_margin is not None:
        return rule.hysteresis_margin
    return 0.1 * abs(rule.threshold)


def migrate_tags(
    npc: NpcProfile, rules: tuple[TagMigrationRule, ...], tick: int
) -> tuple[NpcProfile, list[TraceEvent]]:
    """Run the role FSM: the first rule whose from_tag matches the NPC's role
    and whose predicate holds fires; at most one migration per tick.

    Hysteresis: a rule that undoes the NPC's previous migration only fires
    once the governing value has crossed its threshold by more than the
    margin, which is what stops flip-flopping at the boundary."""
    for rule in rules:
        if rule.from_tag != npc.role_tag:
            continue
        value = npc.local_state.get(rule.field, 0.0)
        if not COMPARE[rule.op](value, rule.threshold):
            continue
        if npc.last_migration == (rule.to_tag, rule.from_tag):
            margin = effective_margin(rule)
            crossed = (
                value - rule.threshold > margin
                if rule.op in (">", ">=")
                else rule.threshold - value > margin
            )
            if not crossed:
                continue
        new_tags = tuple(
            rule.to_tag if t == rule.from_tag else t
            for t in npc.tags
            if not (t == rule.from_tag and rule.to_tag in npc.tags)
        )
        updated = replace(
            npc,
            tags=new_tags,
            role_tag=rule.to_tag,
            last_migration=(rule.from_tag, rule.to_tag),
        )
        event = TraceEvent(tick, "Migrate", "TagMigrated", {
            "npc": npc.id,
            "from": rule.from_tag,
            "to": rule.to_tag,
            "field": rule.field,
            "value": value,
        })
        return updated, [event]
    return npc, []


# --- dialogue ----------------------------------------------------------------


class NpcSnapshot(NamedTuple):
    """Read-only view handed to dialogue providers: identity plus grounding
    facts, nothing mutable."""

    npc_id: str
    role_tag: str
    tags: tuple[str, ...]
    last_action: Optional[str]
    active_events: tuple[str, ...]  # rule ids of currently active events
    active_actions: tuple[str, ...]  # action ids of live directives for this NPC


class DialogueProvider(Protocol):
    def generate(self, snapshot: NpcSnapshot, player_utterance: str) -> str: ...


class TemplateDialogueProvider:
    """Deterministic stand-in for a language model: a canned line grounded
    in the snapshot. Real providers plug in behind the same interface."""

    def generate(self, snapshot: NpcSnapshot, player_utterance: str) -> str:
        prefix = f"[{snapshot.npc_id}|{snapshot.last_action or 'idle'}]"
        if snapshot.active_events:
            event = snapshot.active_events[0].replace("_", " ")
            return f"{prefix} The {event} weighs on us all; I do what a {snapshot.role_tag} must."
        return f"{prefix} Quiet times in town; nothing troubles a {snapshot.role_tag}."


class LlmCallCounter:
    """Counts provider invocations; the zero-call claim for the main loop is
    checked against this and the trace."""

    def __init__(self) -> None:
        self.count = 0

    def increment(self) -> None:
        self.count += 1


def request_dialogue(
    npc: NpcProfile,
    player_utterance: str,
    provider: DialogueProvider,
    counter: LlmCallCounter,
    tick: int = 0,
    last_action: Optional[str] = None,
    active_events: tuple[str, ...] = (),
    active_actions: tuple[str, ...] = (),
) -> tuple[str, TraceEvent]:
    """On-demand dialogue outside the tick pipeline. Exactly one counted
    provider call per request, even when the provider fails; the reply (or
    error text) comes back with its DialogueRequested trace event."""
    snapshot = NpcSnapshot(npc.id, npc.role_tag, npc.tags, last_action, active_events, active_actions)
    counter.increment()
    try:
        text = provider.generate(snapshot, player_utterance)
    except Exception as exc:  # provider faults must not poison the run
        text = f"[dialogue-error] {npc.id}: {exc}"
    payload = {"npc": npc.id, "utterance": player_utterance, "response": text}
    return text, TraceEvent(tick, "Dialogue", "DialogueRequested", payload)
