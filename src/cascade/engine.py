"""The tick pipeline: macro layer, coordination layer, NPC layer, in a
fixed phase order every tick:

  Clock -> MacroEval -> Critic -> Activation -> Compile -> Deliver
        -> Score -> Act -> Migrate

Dialogue never runs inside the pipeline; it is requested between ticks
through `Simulation.request_dialogue`. All iteration is over sorted ids
and the only randomness is the run's single seeded generator, so a
scenario plus a seed fully determines the trace, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Optional, TextIO, Union

from .core import Directive, MacroEvent, NpcProfile, directive_to_packet, selector_matches
from .director import advance_clock, apply_event, critic_check, evaluate_rules
from .hub import DirectiveIdSource, TagIndex, broadcast, compile_directives, expire_directives, route_activation
from .npc import (
    LlmCallCounter,
    TemplateDialogueProvider,
    UtilityBreakdown,
    best_breakdown,
    execute_action,
    migrate_tags,
    request_dialogue as npc_request_dialogue,
    score_directive,
    select_action,
)
from .scenario import Scenario, initial_ledger
from .trace import TraceCollector, TraceEvent, TraceWriter


@dataclass
class RunSummary:
    ticks: int = 0
    npc_count: int = 0
    events_fired: int = 0
    events_rejected: int = 0
    directives_issued: int = 0
    actions_executed: int = 0
    migrations: int = 0
    llm_calls: int = 0

    def line(self) -> str:
        return (
            f"ticks={self.ticks} npcs={self.npc_count} "
            f"events_fired={self.events_fired} directives_issued={self.directives_issued} "
            f"actions_executed={self.actions_executed} llm_calls={self.llm_calls}"
        )


def replicate_roster(npcs: tuple[NpcProfile, ...], target: int) -> tuple[NpcProfile, ...]:
    """Scale the roster to `target` NPCs by cycling copies with id suffixes,
    which keeps the tag distribution intact at whole multiples."""
    if target < 1:
        raise ValueError("npc count must be at least 1")
    if not npcs:
        raise ValueError("cannot replicate an empty roster")
    out: list[NpcProfile] = []
    copy = 0
    while len(out) < target:
        for npc in npcs:
            if len(out) >= target:
                break
            out.append(npc if copy == 0 else replace(npc, id=f"{npc.id}_x{copy}"))
        copy += 1
    return tuple(out)


def build_roster(npcs: tuple[NpcProfile, ...], npc_count: Optional[int] = None) -> tuple[NpcProfile, ...]:
    """`npcs`, replicated to `npc_count` if given; a repeated id is a ValueError."""
    roster = npcs if npc_count is None else replicate_roster(npcs, npc_count)
    seen: set[str] = set()
    for npc in roster:
        if npc.id in seen:
            raise ValueError(f"duplicate npc id {npc.id!r} in roster")
        seen.add(npc.id)
    return roster


def run_meta(scenario: Scenario, seed: int, npc_count: int) -> dict[str, Any]:
    return {
        "scenario": scenario.name,
        "seed": seed,
        "schema_version": scenario.schema_version,
        "npc_count": npc_count,
    }


class Simulation:
    """One run: owns the ledger, the roster, live directives, the trace sink,
    the RNG and the model-call counter."""

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = None,
        npc_count: Optional[int] = None,
        baseline_mode: str = "off",
        trace_stream: Optional[TextIO] = None,
    ) -> None:
        if baseline_mode not in ("off", "full-generative"):
            raise ValueError(f"unknown baseline mode {baseline_mode!r}")
        self.scenario = scenario
        self.seed = scenario.seed_default if seed is None else seed
        roster = build_roster(scenario.npcs, npc_count)
        self.npcs: dict[str, NpcProfile] = {npc.id: npc for npc in roster}
        self._order = sorted(self.npcs)
        self._tag_index = TagIndex(roster)
        self.meta = run_meta(scenario, self.seed, len(roster))
        self.trace: Union[TraceWriter, TraceCollector]
        if trace_stream is not None:
            self.trace = TraceWriter(trace_stream, self.meta)
        else:
            self.trace = TraceCollector(self.meta)
        self.baseline_mode = baseline_mode
        self.rng = random.Random(self.seed)
        self.ledger = initial_ledger(scenario)
        self._variable_names = sorted(self.ledger.variables)
        self.active_directives: list[Directive] = []
        self.directive_index: dict[str, Directive] = {}  # the live set by id, rebuilt in Score
        self.id_source = DirectiveIdSource()
        self.rules_by_id = {r.id: r for r in scenario.rules}
        self.provider = TemplateDialogueProvider()
        self.counter = LlmCallCounter()
        self.last_action: dict[str, Optional[str]] = {nid: None for nid in self._order}
        self.summary = RunSummary(npc_count=len(roster))

    # -- pipeline ------------------------------------------------------------

    def step(self) -> None:
        # Clock: advance time, drift variables, land active event effects,
        # drop directives past their time-to-live. Each changed variable
        # is traced, in name order.
        before = self.ledger.variables
        self.ledger = advance_clock(self.ledger, self.scenario.drifts, self.rng)
        tick = self.ledger.tick
        for name in self._variable_names:
            intensity = self.ledger.variables[name].intensity
            if intensity != before[name].intensity:
                self._emit(tick, "Clock", "VariableChanged", {"variable": name, "intensity": intensity})
        self.active_directives = expire_directives(self.active_directives, tick)

        # MacroEval: collect trigger-satisfying candidates.
        candidates = evaluate_rules(self.ledger, self.scenario.rules)

        # Critic: gate each candidate; accepted ones commit to the ledger.
        accepted_events: list[MacroEvent] = []
        for candidate in candidates:
            rule = self.rules_by_id[candidate.rule_id]
            verdict = critic_check(rule, self.ledger)
            if verdict.accepted:
                event = replace(candidate, critic_verdict=verdict)
                self.ledger = apply_event(self.ledger, event)
                accepted_events.append(event)
                self.summary.events_fired += 1
                self._emit(tick, "Critic", "EventFired", {
                    "event": event.instance_id,
                    "rule": event.rule_id,
                    "name": rule.name,
                    "trigger_snapshot": dict(sorted(event.trigger_snapshot.items())),
                })
            else:
                self.summary.events_rejected += 1
                self._emit(tick, "Critic", "EventRejected", {
                    "event": candidate.instance_id,
                    "rule": candidate.rule_id,
                    "reason": verdict.reason,
                    "violated_requirement": verdict.violated_requirement,
                })

        # Activation: wake only the modules that recognise each event.
        activated = [
            (module, event)
            for event in accepted_events
            for module in route_activation(event, self.ledger, self.scenario.modules)
        ]
        for module, event in sorted(activated, key=lambda p: (p[0].id, p[1].instance_id)):
            self._emit(tick, "Activation", "ModuleActivated", {
                "module": module.id,
                "event": event.instance_id,
            })

        # Compile: activated modules turn templates into directives, in
        # event order and then module declaration order.
        fresh: list[Directive] = []
        for module, event in activated:
            for directive in compile_directives(module, event, self.ledger, self.id_source):
                fresh.append(directive)
                self.summary.directives_issued += 1
                self._emit(tick, "Compile", "DirectiveIssued", {
                    "directive": directive_to_packet(directive),
                })

        # Deliver: one-shot tag-routed notification at the issue tick. The
        # directive stays in the active set until expiry so NPCs that
        # migrate into a matching tag later still see it when scoring.
        if fresh:
            for record in broadcast(fresh, self._tag_index):
                self._emit(tick, "Deliver", "DirectiveDelivered", {
                    "directive": record.directive_id,
                    "npcs": list(record.npc_ids),
                    "count": len(record.npc_ids),
                })
            self.active_directives.extend(fresh)

        # Score: every NPC judges every live directive matching its tags,
        # in NPC order and then directive id order. The tag index resolves
        # each selector once, so no NPC is tested against a directive that
        # does not reach it.
        live = sorted(self.active_directives, key=lambda d: d.id)
        self.directive_index = {d.id: d for d in live}
        reached: dict[str, list[Directive]] = {}
        for directive in live:
            for npc_id in self._tag_index.select(directive.selector):
                reached.setdefault(npc_id, []).append(directive)
        accepted_by_npc: dict[str, list[UtilityBreakdown]] = {}
        trace = self.trace
        for npc_id in self._order:
            directives = reached.get(npc_id)
            if directives is None:
                continue
            npc = self.npcs[npc_id]
            for directive in directives:
                binding = self.scenario.catalog[directive.action_id]
                breakdown = score_directive(npc, directive, binding, self.scenario.weights)
                trace.utility(tick, breakdown, directive.action_id)
                if breakdown.accepted:
                    accepted_by_npc.setdefault(npc_id, []).append(breakdown)

        # Act: exactly one action per NPC per tick.
        for npc_id in self._order:
            npc = self.npcs[npc_id]
            accepted = accepted_by_npc.get(npc_id, [])
            action_id = select_action(npc, accepted, self.scenario.tree, self.ledger, self.directive_index)
            best = best_breakdown(accepted)
            updated, deltas = execute_action(npc, self.scenario.catalog[action_id])
            directive = self.directive_index[best.directive_id] if best is not None else None
            directive_id, parameter_items = (None, ()) if directive is None else (directive.id, directive.parameter_items)
            trace.action(tick, npc_id, action_id, directive_id, parameter_items, npc.tags, deltas)
            self.npcs[npc_id] = updated
            self.last_action[npc_id] = action_id
            self.summary.actions_executed += 1

        # Migrate: role FSM, at most one hop per NPC per tick.
        for npc_id in self._order:
            npc = self.npcs[npc_id]
            updated, events = migrate_tags(npc, self.scenario.migration_rules, tick)
            if updated is not npc:
                self.npcs[npc_id] = updated
                self._tag_index.move(npc_id, npc.tags, updated.tags)
            self.summary.migrations += len(events)
            for event in events:
                self.trace.emit(event)

        # A full-generative baseline prompts every NPC every tick; modeled
        # here by routing each NPC through the dialogue seam so the counter
        # and trace show what constant per-agent prompting would cost.
        if self.baseline_mode == "full-generative":
            for npc_id in self._order:
                self.request_dialogue(npc_id, "")

        self.summary.ticks = tick
        self.summary.llm_calls = self.counter.count

    def run(self, ticks: int) -> RunSummary:
        for _ in range(ticks):
            self.step()
        self.trace.close()
        return self.summary

    # -- dialogue seam -------------------------------------------------------

    def request_dialogue(self, npc_id: str, player_utterance: str, provider=None) -> str:
        """On-demand conversation with one NPC. Reads a snapshot, never
        writes simulation state; each call is counted and traced."""
        npc = self.npcs[npc_id]
        tick = self.ledger.tick
        active_actions = tuple(
            d.action_id
            for d in sorted(self.active_directives, key=lambda d: d.id)
            if selector_matches(d.selector, npc.tags)
        )
        text, event = npc_request_dialogue(
            npc,
            player_utterance,
            provider or self.provider,
            self.counter,
            tick=tick,
            last_action=self.last_action.get(npc_id),
            active_events=tuple(ev.rule_id for ev in self.ledger.fired_log if ev.active_at(tick)),
            active_actions=active_actions,
        )
        self.trace.emit(event)
        self.summary.llm_calls = self.counter.count
        return text

    # -- helpers -------------------------------------------------------------

    def _emit(self, tick: int, phase: str, kind: str, payload: dict[str, Any]) -> None:
        self.trace.emit(TraceEvent(tick, phase, kind, payload))
