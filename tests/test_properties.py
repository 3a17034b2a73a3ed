"""Randomized cross-checks of the decision kernels. Each test pits the
implementation against an oracle written independently inside the test,
over generated inputs, so a shared bug in both would have to be written
twice."""

from __future__ import annotations

import copy
import io
import json
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MARKET_PATH

from cascade.behavior import ActionLeaf
from cascade.core import (
    CausalVariable,
    CriticVerdict,
    Directive,
    Effect,
    Level,
    LevelThresholds,
    MacroEvent,
    MacroEventRule,
    NpcProfile,
    TagSelector,
    VariablePredicate,
    WorldLedger,
    level_for,
    selector_matches,
)
from cascade.director import DriftEntry, advance_clock, apply_event, evaluate_rules
from cascade.hub import TagIndex, broadcast, expire_directives
from cascade.npc import (
    ActionBinding,
    TagMigrationRule,
    UtilityBreakdown,
    UtilityWeights,
    best_breakdown,
    execute_action,
    migrate_tags,
    score_directive,
    select_action,
)
from cascade.engine import Simulation, replicate_roster
from cascade.scenario import load_scenario_file
from cascade.trace import TraceCollector, TraceEvent, TraceWriter

ALPHABET = ("Farmer", "Guard", "Merchant", "Mayor", "Beggar", "Villager")
VARIABLES = ("water_scarcity", "crime", "morale", "trade")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
tag_subset = st.sets(st.sampled_from(ALPHABET), min_size=1).map(sorted).map(tuple)


def make_directive(i: int, selector: TagSelector, issued: int = 0, ttl: int = 1) -> Directive:
    return Directive(
        id=f"d{i:06d}",
        source_module="m",
        cause_event="e@0",
        selector=selector,
        action_id="idle",
        parameters={},
        base_priority=0.5,
        risk=0.0,
        issued_tick=issued,
        ttl_ticks=ttl,
    )


# --- levels ------------------------------------------------------------------


@given(
    intensity=unit,
    other=unit,
    elevated=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    critical=st.floats(min_value=0.55, max_value=0.95, allow_nan=False),
)
def test_level_for_matches_band_scan(intensity, other, elevated, critical):
    thresholds = LevelThresholds(elevated=elevated, critical=critical)
    if intensity < elevated:
        expected = Level.NORMAL
    elif intensity < critical:
        expected = Level.ELEVATED
    else:
        expected = Level.CRITICAL
    assert level_for(intensity, thresholds) is expected
    # Monotone: more pressure never maps to a calmer level.
    lo, hi = sorted((intensity, other))
    assert level_for(lo, thresholds) <= level_for(hi, thresholds)


# --- broadcast ---------------------------------------------------------------


@st.composite
def rosters(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    return [
        NpcProfile(id=f"npc{i}", tags=draw(tag_subset), role_tag="Villager", local_state={"wealth": 1.0})
        for i in range(size)
    ]


@st.composite
def selectors(draw):
    return TagSelector(mode=draw(st.sampled_from(["any", "all"])), tags=draw(tag_subset))


@given(roster=rosters(), sels=st.lists(selectors(), min_size=1, max_size=5))
def test_broadcast_agrees_with_set_algebra(roster, sels):
    directives = [make_directive(i + 1, sel) for i, sel in enumerate(sels)]
    records = broadcast(directives, TagIndex(roster))
    assert [r.directive_id for r in records] == [d.id for d in directives]
    for directive, record in zip(directives, records):
        wanted = set(directive.selector.tags)
        if directive.selector.mode == "any":
            expected = sorted(npc.id for npc in roster if wanted & set(npc.tags))
        else:
            expected = sorted(npc.id for npc in roster if wanted <= set(npc.tags))
        assert list(record.npc_ids) == expected


# --- Score routing -----------------------------------------------------------


@lru_cache(maxsize=1)
def market_town():
    return load_scenario_file(str(MARKET_PATH))


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**32), npcs=st.integers(min_value=1, max_value=60))
def test_score_visits_what_a_selector_scan_of_the_trace_selects(seed, npcs):
    """Rebuild, from the starting roster and the trace alone, each NPC's
    tags and the live directives at every Score phase, and require the
    tick's UtilityEvaluated (npc, directive) pairs, in order, to be a
    brute-force scan of every NPC against every live directive."""
    scenario = market_town()
    sim = Simulation(scenario, seed=seed, npc_count=npcs)
    sim.run(60)
    by_tick: dict[int, list] = {}
    for event in sim.trace.events:
        by_tick.setdefault(event.tick, []).append(event)

    tags = {npc.id: set(npc.tags) for npc in replicate_roster(scenario.npcs, npcs)}
    issued: list[tuple[str, TagSelector, int, int]] = []
    saw_all_mode = migrated = False
    for tick in range(1, 61):
        events = by_tick.get(tick, [])
        for e in events:
            if e.kind == "DirectiveIssued":
                packet = e.payload["directive"]
                selector = TagSelector(packet["selector_mode"], tuple(packet["selector_tags"]))
                issued.append((packet["id"], selector, packet["issued_tick"], packet["ttl_ticks"]))
        live = sorted((d for d in issued if d[2] <= tick < d[2] + d[3]), key=lambda d: d[0])
        expected = [
            (npc_id, directive_id)
            for npc_id in sorted(tags)
            for directive_id, selector, _, _ in live
            if selector_matches(selector, tuple(tags[npc_id]))
        ]
        evaluated = [(e.payload["npc"], e.payload["directive"]) for e in events if e.kind == "UtilityEvaluated"]
        assert evaluated == expected, f"tick {tick}"
        saw_all_mode |= any(sel.mode == "all" for _, sel, _, _ in live)
        for e in events:
            if e.kind == "ActionExecuted":
                assert set(e.payload["tags"]) == tags[e.payload["npc"]]
            elif e.kind == "TagMigrated":
                moved = tags[e.payload["npc"]]
                assert e.payload["from"] in moved
                moved.discard(e.payload["from"])
                moved.add(e.payload["to"])
                migrated = True
    assert saw_all_mode and (migrated or npcs < 3)


# --- macro rule evaluation ---------------------------------------------------


@st.composite
def ledgers_and_rules(draw):
    tick = draw(st.integers(min_value=0, max_value=20))
    names = draw(st.sets(st.sampled_from(VARIABLES), min_size=1).map(sorted))
    variables = {name: CausalVariable(name, draw(unit)) for name in names}

    def predicate(name):
        op = draw(st.sampled_from([">=", "<="]))
        if draw(st.booleans()):
            return VariablePredicate(name, op, level=draw(st.sampled_from(list(Level))))
        return VariablePredicate(name, op, intensity=draw(unit))

    rule_count = draw(st.integers(min_value=1, max_value=5))
    rules = tuple(
        MacroEventRule(
            id=f"r{i}",
            name=f"rule {i}",
            trigger=tuple(
                predicate(draw(st.sampled_from(names)))
                for _ in range(draw(st.integers(min_value=0, max_value=3)))
            ),
            cooldown_ticks=draw(st.integers(min_value=0, max_value=5)),
        )
        for i in range(rule_count)
    )

    # Each rule's latest firing, if any: (fired tick, effect durations).
    latest = {}
    for rule in rules:
        if draw(st.booleans()):
            latest[rule.id] = (
                draw(st.integers(min_value=0, max_value=tick)),
                draw(st.lists(st.integers(min_value=1, max_value=6), max_size=3)),
            )
    fired_log = tuple(
        MacroEvent(rid, f"{rid}@{t}", t, effects=tuple(Effect("x", 0.0, d) for d in durations))
        for rid, (t, durations) in sorted(latest.items(), key=lambda item: item[1][0])
    )
    ledger = WorldLedger(tick=tick, variables=variables, season="Dry", fired_log=fired_log)
    return ledger, rules, latest


@given(data=ledgers_and_rules())
def test_rule_evaluation_agrees_with_exhaustive_scan(data):
    ledger, rules, latest = data

    def level_of(value: float) -> int:
        if value >= ledger.thresholds.critical:
            return 2
        if value >= ledger.thresholds.elevated:
            return 1
        return 0

    def holds(pred: VariablePredicate) -> bool:
        value = ledger.variables[pred.variable].intensity
        if pred.level is not None:
            actual, bound = level_of(value), int(pred.level)
        else:
            actual, bound = value, pred.intensity
        return actual >= bound if pred.op == ">=" else actual <= bound

    for rule in rules:
        for pred in rule.trigger:
            assert pred.holds(ledger) == holds(pred)

    expected = []
    for rule in sorted(rules, key=lambda r: r.id):
        if not rule.trigger:
            continue
        if rule.id in latest:
            since = ledger.tick - latest[rule.id][0]
            if since < max(latest[rule.id][1], default=1) or since <= rule.cooldown_ticks:
                continue
        if all(holds(p) for p in rule.trigger):
            expected.append((
                rule.id,
                f"{rule.id}@{ledger.tick}",
                ledger.tick,
                {p.variable: ledger.variables[p.variable].intensity for p in rule.trigger},
            ))

    actual = [
        (c.rule_id, c.instance_id, c.fired_tick, c.trigger_snapshot)
        for c in evaluate_rules(ledger, rules)
    ]
    assert actual == expected


# --- narrative clock ---------------------------------------------------------


delta = st.floats(min_value=-0.3, max_value=0.3, allow_nan=False)


@st.composite
def clock_cases(draw):
    start = {"a": draw(unit), "b": draw(unit)}
    drifts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lo = draw(st.integers(min_value=0, max_value=15))
        hi = draw(st.integers(min_value=lo, max_value=15))
        drifts.append(DriftEntry(draw(st.sampled_from(("a", "b"))), draw(delta), lo, hi))
    firings = sorted(
        draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.lists(
                    st.tuples(st.sampled_from(("a", "b")), delta, st.integers(min_value=1, max_value=6)),
                    max_size=3,
                ),
            ),
            max_size=4,
        )),
        key=lambda f: f[0],
    )
    return start, tuple(drifts), firings


@given(case=clock_cases())
def test_clock_agrees_with_window_replay(case):
    start, drifts, firings = case
    ledger = WorldLedger(
        tick=0,
        variables={name: CausalVariable(name, value) for name, value in start.items()},
        season="Dry",
    )
    expected = dict(start)
    registered: list[tuple[str, int, list]] = []  # (instance id, fired tick, effects)

    def bounded(value: float) -> float:
        return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    for tick in range(16):
        if tick:
            ledger = advance_clock(ledger, drifts)
            for d in drifts:
                if d.start_tick <= tick <= d.end_tick:
                    expected[d.variable] = bounded(expected[d.variable] + d.delta_per_tick)
            for _, fired, effects in registered:
                for variable, step, duration in effects:
                    if 1 <= tick - fired <= duration:
                        expected[variable] = bounded(expected[variable] + step)
        for i, (fired, effects) in enumerate(firings):
            if fired != tick:
                continue
            rule = MacroEventRule(
                id=f"r{i}",
                name=f"r{i}",
                trigger=(),
                effects=tuple(Effect(v, s, d) for v, s, d in effects),
            )
            event = MacroEvent(f"r{i}", f"r{i}@{tick}", tick, critic_verdict=CriticVerdict.accept(),
                               effects=rule.effects)
            ledger = apply_event(ledger, event)
            registered.append((f"r{i}@{tick}", tick, effects))

        assert ledger.tick == tick
        assert {name: v.intensity for name, v in ledger.variables.items()} == expected
        live = [iid for iid, fired, effects in registered
                if tick - fired < max((d for _, _, d in effects), default=1)]
        assert [ev.instance_id for ev in ledger.fired_log if ev.active_at(tick)] == live


# --- utility scoring ---------------------------------------------------------


trait_names = st.sets(st.sampled_from(["greed", "caution", "diligence", "charity"]), max_size=4)
need_names = st.sets(st.sampled_from(["hunger", "rest", "safety"]), max_size=3)


@st.composite
def scoring_cases(draw):
    npc = NpcProfile(
        id="subject",
        tags=("Villager",),
        role_tag="Villager",
        personality={t: draw(st.floats(min_value=-1, max_value=1, allow_nan=False)) for t in draw(trait_names)},
        needs={n: draw(unit) for n in draw(need_names)},
        local_state={"wealth": 1.0},
    )
    binding = ActionBinding(
        action_id="idle",
        trait_affinities={t: draw(st.sampled_from([-1.0, 1.0])) for t in draw(trait_names)},
        satisfies_needs={n: draw(unit) for n in draw(need_names)},
    )
    weights = UtilityWeights(
        base=draw(st.floats(min_value=0, max_value=2, allow_nan=False)),
        trait=draw(st.floats(min_value=0, max_value=2, allow_nan=False)),
        need=draw(st.floats(min_value=0, max_value=2, allow_nan=False)),
        risk=draw(st.floats(min_value=0, max_value=2, allow_nan=False)),
        threshold=draw(st.floats(min_value=-1, max_value=2, allow_nan=False)),
    )
    return npc, binding, weights, draw(unit), draw(unit)


@given(case=scoring_cases())
def test_utility_breakdown_recomputes_bit_for_bit(case):
    npc, binding, weights, priority, risk = case
    directive = Directive(
        id="d000001",
        source_module="m",
        cause_event="e@0",
        selector=TagSelector("any", ("Villager",)),
        action_id="idle",
        parameters={},
        base_priority=priority,
        risk=risk,
        issued_tick=0,
        ttl_ticks=1,
    )
    b = score_directive(npc, directive, binding, weights)

    assert b.base_term == priority
    assert b.risk_term == risk
    trait_sum = sum(sign * npc.personality.get(t, 0.0) for t, sign in sorted(binding.trait_affinities.items()))
    need_sum = sum(relief * npc.needs.get(n, 0.0) for n, relief in sorted(binding.satisfies_needs.items()))
    assert b.trait_term == max(-1.0, min(1.0, trait_sum))
    assert b.need_term == max(0.0, min(1.0, need_sum))
    # Same expression, same order: equality here is bitwise, not approximate.
    assert b.total == (
        weights.base * b.base_term
        + weights.trait * b.trait_term
        + weights.need * b.need_term
        - weights.risk * b.risk_term
    )
    assert b.accepted == (b.total >= weights.threshold)


# --- action choice -----------------------------------------------------------


@st.composite
def breakdown_lists(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    ids = draw(st.permutations([f"d{i:06d}" for i in range(1, count + 1)]))
    totals = st.sampled_from([0.0, 0.5, 0.5, 1.0, 1.5]) | unit
    return [
        UtilityBreakdown(
            npc_id="subject",
            directive_id=ids[i],
            base_term=0.0,
            trait_term=0.0,
            need_term=0.0,
            risk_term=0.0,
            total=draw(totals),
            threshold=0.0,
            accepted=True,
        )
        for i in range(count)
    ]


@given(accepted=breakdown_lists())
def test_best_breakdown_agrees_with_brute_argmax(accepted):
    winner = None
    for b in accepted:
        if winner is None or b.total > winner.total:
            winner = b
        elif b.total == winner.total and b.directive_id < winner.directive_id:
            winner = b
    assert best_breakdown(accepted) is winner


@st.composite
def tied_breakdown_lists(draw):
    """0-6 breakdowns whose totals and directive ids repeat, with both
    signs of zero among the totals."""
    totals = st.sampled_from([0.0, -0.0, 0.5, 0.5, 1.0, -1.0])
    ids = st.sampled_from(["d000001", "d000002", "d000003"])
    return [
        UtilityBreakdown("subject", draw(ids), 0.0, 0.0, 0.0, 0.0, draw(totals), 0.0, True)
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]


@given(accepted=tied_breakdown_lists())
def test_best_breakdown_and_select_action_agree_with_sorting(accepted):
    ranked = sorted(accepted, key=lambda b: (-b.total, b.directive_id))
    winner = ranked[0] if ranked else None
    assert best_breakdown(accepted) is winner
    everyone = TagSelector("any", ("Villager",))
    directives = {f"d{i:06d}": replace(make_directive(i, everyone), action_id=f"act_{i}") for i in (1, 2, 3)}
    npc = NpcProfile(id="subject", tags=("Villager",), role_tag="Villager")
    ledger = WorldLedger(tick=1, variables={}, season="Dry")
    action = select_action(npc, accepted, ActionLeaf("fallback"), ledger, directives)
    assert action == (directives[winner.directive_id].action_id if winner is not None else "fallback")


# --- action execution --------------------------------------------------------


state_keys = st.sampled_from(["wealth", "stored_grain", "stored_water"])


@st.composite
def action_cases(draw):
    npc = NpcProfile(
        id="subject",
        tags=("Villager",),
        role_tag="Villager",
        personality={t: draw(st.floats(min_value=-1, max_value=1, allow_nan=False)) for t in draw(trait_names)},
        needs={n: draw(unit) for n in draw(need_names)},
        local_state={"wealth": draw(st.floats(min_value=0, max_value=50, allow_nan=False)),
                     **{k: draw(unit) for k in draw(st.sets(state_keys))}},
    )
    binding = ActionBinding(
        action_id="act",
        trait_affinities={t: draw(st.sampled_from([-1.0, 1.0])) for t in draw(trait_names)},
        satisfies_needs={n: draw(unit) for n in draw(need_names)},
        local_effects={k: draw(st.floats(min_value=-20, max_value=20, allow_nan=False)) for k in draw(st.sets(state_keys))},
    )
    return npc, binding


@given(case=action_cases(), parameters=st.dictionaries(st.sampled_from(["price_delta_pct", "ration"]),
                                                      st.integers(min_value=-50, max_value=50)))
def test_execute_action_never_changes_its_input(case, parameters):
    npc, binding = case
    directive = Directive(
        id="d000001", source_module="market", cause_event="e000001",
        selector=TagSelector(mode="any", tags=("Villager",)), action_id="act", parameters=parameters,
        base_priority=0.5, risk=0.1, issued_tick=0, ttl_ticks=3,
    )
    before = copy.deepcopy(npc)
    directive_before = copy.deepcopy(directive)
    updated, deltas = execute_action(npc, binding)
    assert npc == before
    assert (updated is npc) == (not binding.local_effects and not binding.satisfies_needs)
    # The deltas are exactly the local state keys whose value changed.
    assert deltas == tuple(
        (key, before.local_state.get(key, 0.0), updated.local_state[key])
        for key in sorted(updated.local_state)
        if updated.local_state[key] != before.local_state.get(key, 0.0)
    )
    assert directive.parameter_items == tuple(sorted(parameters.items()))
    assert directive == directive_before


# --- typed trace rows --------------------------------------------------------

trace_ids = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "caf\u00e9 \u2603 \U0001d11e", "tab\tline\n", ""]),
    st.text(max_size=6),
)
trace_numbers = st.one_of(
    st.sampled_from([-0.0, 0.0, 0, 1, -7, 2**70, 0.1 + 0.2, 5e-324, 1.7976931348623157e308]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def typed_rows(draw):
    """The arguments of one `utility` or `action` call, and the TraceEvent
    they stand for, built here as a payload dict. Now and then one number
    is replaced by a NaN or an infinity."""
    tick = draw(st.integers(min_value=0, max_value=10**6))
    if draw(st.booleans()):
        terms = [draw(trace_numbers) for _ in range(6)]
        if draw(st.integers(0, 4)) == 0:
            terms[draw(st.integers(0, 5))] = draw(non_finite)
        npc_id, directive_id, action_id = draw(trace_ids), draw(trace_ids), draw(trace_ids)
        breakdown = UtilityBreakdown(npc_id, directive_id, *terms, draw(st.booleans()))
        names = ("base_term", "trait_term", "need_term", "risk_term", "total", "threshold")
        payload = {"npc": npc_id, "directive": directive_id, "action": action_id, "accepted": breakdown.accepted,
                   **dict(zip(names, terms))}
        return "utility", (tick, breakdown, action_id), TraceEvent(tick, "Score", "UtilityEvaluated", payload)
    parameters = draw(st.dictionaries(trace_ids, st.one_of(trace_ids, trace_numbers), max_size=3))
    changes = draw(st.dictionaries(trace_ids, st.tuples(trace_numbers, trace_numbers), max_size=3))
    if changes and draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(sorted(changes)))
        changes[key] = (changes[key][0], draw(non_finite))
    directive_id = draw(st.one_of(st.none(), trace_ids))
    tags = tuple(draw(st.lists(trace_ids, max_size=3)))
    npc_id, action_id = draw(trace_ids), draw(trace_ids)
    deltas = tuple((key, before, after) for key, (before, after) in sorted(changes.items()))
    payload = {
        "npc": npc_id, "action": action_id, "directive": directive_id, "parameters": parameters, "tags": tags,
        "state_deltas": {key: {"before": before, "after": after} for key, (before, after) in changes.items()},
    }
    args = (tick, npc_id, action_id, directive_id, tuple(sorted(parameters.items())), tags, deltas)
    return "action", args, TraceEvent(tick, "Act", "ActionExecuted", payload)


@settings(max_examples=300)
@given(row=typed_rows())
def test_typed_trace_rows_write_what_json_dumps_writes(row):
    """Both sinks against json.dumps of the equivalent TraceEvent: the
    writer's line byte for byte, and the collector's rebuilt event both as
    a value and as the line it dumps to."""
    method, args, expected = row
    line = {"tick": expected.tick, "phase": expected.phase, "kind": expected.kind, **expected.payload}
    sink = io.StringIO()
    writer = TraceWriter(sink, {})
    collector = TraceCollector()
    getattr(collector, method)(*args)
    (event,) = collector.events
    assert event == expected
    try:
        expected_line = json.dumps(line, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            getattr(writer, method)(*args)
        return
    getattr(writer, method)(*args)
    assert sink.getvalue().splitlines()[1] == expected_line
    assert json.dumps(event.to_line_dict(), sort_keys=True, separators=(",", ":")) == expected_line


# --- migration hysteresis ----------------------------------------------------


@given(
    threshold=st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
    margin=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    steps=st.lists(st.floats(min_value=-0.9, max_value=0.9, allow_nan=False), min_size=1, max_size=30),
)
def test_walk_inside_hysteresis_band_migrates_at_most_once(threshold, margin, steps):
    # Values stay within 0.9 * margin of the threshold, so after the first
    # hop no reversal can ever clear the band. More than one migration in
    # such a walk would be exactly the flip-flopping the margin exists to
    # prevent.
    rules = (
        TagMigrationRule("Merchant", "Beggar", "wealth", "<", threshold, margin),
        TagMigrationRule("Beggar", "Merchant", "wealth", ">=", threshold, margin),
    )
    npc = NpcProfile(
        id="walker",
        tags=("Merchant",),
        role_tag="Merchant",
        local_state={"wealth": threshold},
    )
    migrations = 0
    for tick, step in enumerate(steps, start=1):
        value = threshold + step * margin
        npc = NpcProfile(
            id=npc.id,
            tags=npc.tags,
            role_tag=npc.role_tag,
            personality=npc.personality,
            needs=npc.needs,
            local_state={"wealth": value},
            last_migration=npc.last_migration,
        )
        npc, events = migrate_tags(npc, rules, tick)
        migrations += len(events)
    assert migrations <= 1


# --- directive expiry --------------------------------------------------------


@given(
    specs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=10)),
        max_size=8,
    ),
    tick=st.integers(min_value=0, max_value=40),
)
def test_expiry_matches_live_window(specs, tick):
    directives = [
        make_directive(i + 1, TagSelector("any", ("Villager",)), issued=issued, ttl=ttl)
        for i, (issued, ttl) in enumerate(specs)
    ]
    kept = expire_directives(directives, tick)
    # Live window is [issued, issued + ttl - 1], endpoints included.
    expected = [d.id for d in directives if d.issued_tick <= tick <= d.issued_tick + d.ttl_ticks - 1
                or tick < d.issued_tick]
    assert [d.id for d in kept] == expected
    for d in directives:
        assert d in expire_directives([d], d.issued_tick)


# --- roster replication ------------------------------------------------------


@given(roster=rosters(), multiplier=st.integers(min_value=1, max_value=5), extra=st.integers(min_value=0, max_value=7))
def test_replication_scales_the_tag_census(roster, multiplier, extra):
    base = tuple(roster)
    target = multiplier * len(base)
    scaled = replicate_roster(base, target)
    assert len(scaled) == target
    assert len({npc.id for npc in scaled}) == target
    assert scaled[: len(base)] == base

    def census(npcs):
        counts: dict[str, int] = {}
        for npc in npcs:
            for tag in npc.tags:
                counts[tag] = counts.get(tag, 0) + 1
        return counts

    assert census(scaled) == {tag: multiplier * n for tag, n in census(base).items()}

    ragged = replicate_roster(base, target + extra % len(base))
    assert len({npc.id for npc in ragged}) == len(ragged)
