"""The seven headline checks, end to end, one test per claim. Every test
prints a single `ACCEPTANCE n (<label>): PASS|FAIL` line before asserting,
so a verbose suite run doubles as a scorecard even when something breaks."""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import load_town, minimal_town

from cascade.core import (
    CausalVariable,
    Directive,
    Level,
    MacroEvent,
    MacroEventRule,
    NpcProfile,
    SEASONS,
    TagSelector,
    VariablePredicate,
    WorldLedger,
)
from cascade.behavior import ActionLeaf
from cascade.cli import main as cli_main
from cascade.director import evaluate_rules
from cascade.engine import Simulation, replicate_roster
from cascade.hub import TagIndex, broadcast
from cascade.npc import (
    ActionBinding,
    TagMigrationRule,
    UtilityBreakdown,
    UtilityWeights,
    migrate_tags,
    score_directive,
    select_action,
)
from cascade.trace import build_cost_report

GOLDEN_TICKS = 30
GOLDEN_SEED = 7


def verdict(number: int, label: str, failures: list[str]) -> None:
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if not failures else 'FAIL'}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def golden_run(golden):
    sim = Simulation(golden, seed=GOLDEN_SEED)
    started = time.perf_counter()
    summary = sim.run(GOLDEN_TICKS)
    elapsed = time.perf_counter() - started
    return sim, summary, elapsed


# 1. On the drought tick the ten-NPC town produces exactly the documented
#    action mapping, personality by personality, and the run is fast.

EXPECTED_DROUGHT_ACTIONS = {
    "mayor": ("convene_town_hall", ("agenda", "water_conservation")),
    "merchant_1": ("raise_price", ("price_delta_pct", 30)),
    "merchant_2": ("discount_water", ("discount_pct", 20)),
    "farmer_1": ("ration_water", ("ration_pct", 50)),
    "farmer_2": ("idle", None),
    "guard_1": ("patrol_water_sources", None),
    "guard_2": ("idle", None),
}


def test_acceptance_1_drought_day_action_table(golden_run):
    sim, summary, elapsed = golden_run
    failures: list[str] = []

    fired = [e for e in sim.trace.events if e.kind == "EventFired"]
    if not fired:
        failures.append("no macro event fired in 30 ticks")
    else:
        drought_tick = fired[0].tick
        acted = {
            e.payload["npc"]: e.payload
            for e in sim.trace.events
            if e.kind == "ActionExecuted" and e.tick == drought_tick
        }
        for npc, (action, param) in EXPECTED_DROUGHT_ACTIONS.items():
            got = acted.get(npc)
            if got is None:
                failures.append(f"{npc}: no action on tick {drought_tick}")
                continue
            if got["action"] != action:
                failures.append(f"{npc}: acted {got['action']}, expected {action}")
            elif param is not None:
                key, value = param
                if got["parameters"].get(key) != value:
                    failures.append(
                        f"{npc}: {action} {key}={got['parameters'].get(key)!r}, expected {value!r}"
                    )
    if elapsed >= 5.0:
        failures.append(f"golden run took {elapsed:.2f}s, budget is 5s")

    verdict(1, "drought-day action table", failures)


# 2. The 30-tick main loop makes zero model calls; the same town under a
#    prompt-every-NPC-every-tick policy would make 300.


def test_acceptance_2_zero_model_calls_in_the_loop(golden_run, golden):
    sim, summary, _ = golden_run
    failures: list[str] = []

    report = build_cost_report(sim.trace.events, summary.npc_count, GOLDEN_TICKS)
    if summary.llm_calls != 0:
        failures.append(f"main loop made {summary.llm_calls} model calls")
    if report.cascade_llm_calls != 0:
        failures.append(f"trace shows {report.cascade_llm_calls} model calls")
    if report.baseline_llm_calls != 300:
        failures.append(f"baseline should be 300 calls, got {report.baseline_llm_calls}")
    if report.reduction_ratio != 1.0:
        failures.append(f"reduction ratio {report.reduction_ratio!r}, expected exactly 1.0")

    naive = Simulation(golden, seed=GOLDEN_SEED, baseline_mode="full-generative")
    counted = naive.run(GOLDEN_TICKS).llm_calls
    if counted != 300:
        failures.append(f"running the full-generative baseline counted {counted} calls, not 300")

    verdict(2, "zero-model main loop", failures)


# 3. Directive traffic is a function of the event script, not the head
#    count: 10, 100 and 1000 NPCs get byte-identical directives, and the
#    scoring workload equals the tag-census prediction exactly.


def predicted_evaluations(packets: list[dict], roster, final_tick: int) -> int:
    total = 0
    for packet in packets:
        wanted = set(packet["selector_tags"])
        if packet["selector_mode"] == "any":
            audience = sum(1 for npc in roster if wanted & set(npc.tags))
        else:
            audience = sum(1 for npc in roster if wanted <= set(npc.tags))
        last_live = min(packet["issued_tick"] + packet["ttl_ticks"] - 1, final_tick)
        total += audience * (last_live - packet["issued_tick"] + 1)
    return total


def test_acceptance_3_directive_count_independence(golden, golden_path, capsys):
    failures: list[str] = []
    packets: dict[int, list[dict]] = {}
    evaluations: dict[int, int] = {}
    timings: dict[int, float] = {}

    for scale in (10, 100, 1000):
        sim = Simulation(golden, seed=GOLDEN_SEED, npc_count=scale)
        started = time.perf_counter()
        sim.run(GOLDEN_TICKS)
        timings[scale] = time.perf_counter() - started
        packets[scale] = [
            e.payload["directive"] for e in sim.trace.events if e.kind == "DirectiveIssued"
        ]
        evaluations[scale] = sim.trace.count("UtilityEvaluated")

    if not (packets[10] == packets[100] == packets[1000]):
        failures.append("directive packets differ across scales")
    counts = {scale: len(p) for scale, p in packets.items()}
    if len(set(counts.values())) != 1:
        failures.append(f"directive counts vary: {counts}")

    for scale, expected in ((10, 243), (100, 2430), (1000, 24300)):
        predicted = predicted_evaluations(
            packets[scale], replicate_roster(golden.npcs, scale), GOLDEN_TICKS
        )
        if predicted != expected:
            failures.append(f"census prediction off at {scale}: {predicted} != {expected}")
        if evaluations[scale] != predicted:
            failures.append(
                f"{scale} npcs: {evaluations[scale]} evaluations, census predicts {predicted}"
            )

    code = cli_main([
        "bench", "--scenario", str(golden_path), "--ticks", str(GOLDEN_TICKS),
        "--npcs", "10,100,1000",
    ])
    bench_out = capsys.readouterr().out
    if code != 0:
        failures.append(f"bench command exited {code}")
    if "directive count constant across scales: ok" not in bench_out:
        failures.append("bench command did not confirm the constant directive count")

    walls = ", ".join(f"{scale}: {t * 1000:.0f}ms" for scale, t in timings.items())
    print(f"  wall time per 30-tick run ({walls})")
    verdict(3, "directive count independent of town size", failures)


# 4. The critic gate: a drought candidate in a rainy season is rejected
#    with the violated requirement named, and across 1000 randomized runs
#    no rejected event ever reaches the active set or the fired log.


def test_acceptance_4_critic_rejects_inconsistent_events(golden_path):
    failures: list[str] = []

    doc = json.loads(golden_path.read_text(encoding="utf-8"))
    doc["ledger_init"]["season"] = "Rainy"
    sim = Simulation(load_town(doc), seed=GOLDEN_SEED)
    sim.run(GOLDEN_TICKS)
    rejections = [e for e in sim.trace.events if e.kind == "EventRejected"]
    if not rejections:
        failures.append("rainy-season drought candidate was never rejected")
    for event in rejections:
        if event.payload["violated_requirement"] != "season != Rainy":
            failures.append(
                f"violated requirement not named: {event.payload['violated_requirement']!r}"
            )
            break
        if event.payload["reason"] != "season is Rainy":
            failures.append(f"unexpected reason {event.payload['reason']!r}")
            break
    if sim.trace.count("EventFired") != 0 or sim.ledger.fired_log:
        failures.append("a rejected drought still reached the ledger")

    rng = random.Random(20260823)
    rejecting_runs = 0
    for i in range(1000):
        town = minimal_town()
        town["ledger_init"]["season"] = rng.choice(SEASONS)
        town["ledger_init"]["variables"] = [
            {"name": "pressure", "intensity": round(rng.uniform(0.3, 1.0), 6)}
        ]
        town["drift_schedule"] = [{
            "variable": "pressure",
            "delta_per_tick": round(rng.uniform(0.0, 0.25), 6),
            "start_tick": 1,
            "end_tick": 4,
        }]
        town["macro_rules"] = [{
            "id": "storm",
            "name": "Storm",
            "trigger": [{"variable": "pressure", "op": ">=", "level": "Critical"}],
            "consistency_requirements": [{"field": "season", "op": "eq", "value": "Dry"}],
            "cooldown_ticks": 0,
        }]
        run = Simulation(load_town(town), seed=i)
        run.run(4)

        rejected_ids = {
            e.payload["event"] for e in run.trace.events if e.kind == "EventRejected"
        }
        if rejected_ids:
            rejecting_runs += 1
        fired_ids = {ev.instance_id for ev in run.ledger.fired_log}
        if rejected_ids & fired_ids:
            failures.append(f"run {i}: rejected event in fired log")
            break
        for ev in run.ledger.fired_log:
            if ev.critic_verdict is None or not ev.critic_verdict.accepted:
                failures.append(f"run {i}: fired event without an accepting verdict")
                break
        for e in run.trace.events:
            if e.kind == "EventRejected" and e.payload["violated_requirement"] != "season == Dry":
                failures.append(f"run {i}: rejection without the violated predicate named")
                break
    if rejecting_runs < 50:
        failures.append(f"only {rejecting_runs} of 1000 runs exercised a rejection")

    verdict(4, "critic gate", failures)


# 5. Sparse activation: the entertainment module exists in the golden
#    scenario but never wakes during the drought run.


def test_acceptance_5_entertainment_module_stays_dark(golden_run, golden):
    sim, _, _ = golden_run
    failures: list[str] = []

    if "entertainment" not in {m.id for m in golden.modules}:
        failures.append("scenario lost its entertainment module; check is vacuous")
    activated = [
        e.payload["module"] for e in sim.trace.events if e.kind == "ModuleActivated"
    ]
    if "entertainment" in activated:
        failures.append("entertainment module was activated")
    if not activated:
        failures.append("no module activated at all; check is vacuous")
    sources = {
        e.payload["directive"]["source_module"]
        for e in sim.trace.events
        if e.kind == "DirectiveIssued"
    }
    if "entertainment" in sources:
        failures.append("entertainment module issued a directive")
    if sources != {"resource_allocation", "security", "economy"}:
        failures.append(f"unexpected directive sources: {sorted(sources)}")

    verdict(5, "sparse module activation", failures)


# 6. Determinism: same scenario, same seed, byte-identical trace files;
#    and dialogue is a pure projection, so a run interleaved with three
#    conversations matches the dialogue-free run event for event.


def test_acceptance_6_deterministic_traces(golden, tmp_path):
    failures: list[str] = []

    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        with open(path, "w", encoding="utf-8") as stream:
            Simulation(golden, seed=GOLDEN_SEED, trace_stream=stream).run(GOLDEN_TICKS)
    if paths[0].read_bytes() != paths[1].read_bytes():
        failures.append("same seed produced different trace bytes")

    plain = Simulation(golden, seed=GOLDEN_SEED)
    plain.run(GOLDEN_TICKS)
    chatty = Simulation(golden, seed=GOLDEN_SEED)
    for tick in range(1, GOLDEN_TICKS + 1):
        chatty.step()
        if tick in (10, 20, 30):
            chatty.request_dialogue("mayor", "how fares the town?")
    projected = [e for e in chatty.trace.events if e.kind != "DialogueRequested"]
    if projected != plain.trace.events:
        failures.append("non-dialogue projection differs from the dialogue-free run")
    if chatty.summary.llm_calls != 3:
        failures.append(f"expected 3 model calls, counted {chatty.summary.llm_calls}")
    if plain.summary.llm_calls != 0:
        failures.append("dialogue-free run counted model calls")

    verdict(6, "byte-identical traces, dialogue a pure projection", failures)


# 7. Oracle equivalence at volume: a thousand randomized instances per
#    kernel, each checked against a brute-force oracle, all in under a
#    minute.

ALPHABET = ("Farmer", "Guard", "Merchant", "Mayor", "Beggar", "Villager")


def _random_tags(rng: random.Random) -> tuple[str, ...]:
    return tuple(sorted(rng.sample(ALPHABET, rng.randint(1, len(ALPHABET)))))


def _check_broadcast(rng: random.Random, failures: list[str]) -> None:
    roster = [
        NpcProfile(id=f"npc{j}", tags=_random_tags(rng), role_tag="Villager",
                   local_state={"wealth": 1.0})
        for j in range(rng.randint(1, 6))
    ]
    selector = TagSelector(rng.choice(["any", "all"]), _random_tags(rng))
    directive = Directive(
        id="d000001", source_module="m", cause_event="e@0", selector=selector,
        action_id="idle", parameters={}, base_priority=0.5, risk=0.0,
        issued_tick=0, ttl_ticks=1,
    )
    wanted = set(selector.tags)
    if selector.mode == "any":
        expected = sorted(n.id for n in roster if wanted & set(n.tags))
    else:
        expected = sorted(n.id for n in roster if wanted <= set(n.tags))
    got = list(broadcast([directive], TagIndex(roster))[0].npc_ids)
    if got != expected:
        failures.append(f"broadcast mismatch: {got} != {expected}")


def _check_rule_eval(rng: random.Random, failures: list[str]) -> None:
    names = sorted(rng.sample(["water", "crime", "morale"], rng.randint(1, 3)))
    variables = {n: CausalVariable(n, rng.random()) for n in names}
    tick = rng.randint(0, 12)

    def predicate() -> VariablePredicate:
        name, op = rng.choice(names), rng.choice([">=", "<="])
        if rng.random() < 0.5:
            return VariablePredicate(name, op, level=rng.choice(list(Level)))
        return VariablePredicate(name, op, intensity=rng.random())

    rules = tuple(
        MacroEventRule(
            id=f"r{j}", name=f"rule {j}",
            trigger=tuple(predicate() for _ in range(rng.randint(0, 2))),
            cooldown_ticks=rng.randint(0, 4),
        )
        for j in range(rng.randint(1, 4))
    )
    fired = sorted(
        ((rng.randrange(len(rules)), rng.randint(0, tick)) for _ in range(rng.randint(0, 3))),
        key=lambda p: p[1],
    )
    ledger = WorldLedger(
        tick=tick, variables=variables, season="Dry",
        fired_log=tuple(MacroEvent(f"r{j}", f"r{j}@{t}", t) for j, t in fired),
    )

    def level_of(value: float) -> int:
        return 2 if value >= 0.8 else 1 if value >= 0.4 else 0

    def holds(pred: VariablePredicate) -> bool:
        value = variables[pred.variable].intensity
        actual, bound = (
            (level_of(value), int(pred.level)) if pred.level is not None
            else (value, pred.intensity)
        )
        return actual >= bound if pred.op == ">=" else actual <= bound

    expected = []
    for rule in sorted(rules, key=lambda r: r.id):
        history = [t for j, t in fired if f"r{j}" == rule.id]
        if not rule.trigger:
            continue
        if history and tick - max(history) <= rule.cooldown_ticks:
            continue
        if all(holds(p) for p in rule.trigger):
            expected.append(rule.id)
    got = [c.rule_id for c in evaluate_rules(ledger, rules)]
    if got != expected:
        failures.append(f"rule evaluation mismatch: {got} != {expected}")


def _check_argmax(rng: random.Random, failures: list[str]) -> None:
    count = rng.randint(0, 6)
    ids = [f"d{j:06d}" for j in rng.sample(range(1, 10), count)]
    accepted = [
        UtilityBreakdown(
            npc_id="n", directive_id=d, base_term=0, trait_term=0, need_term=0,
            risk_term=0, total=rng.choice([0.0, 0.5, 1.0, rng.random()]),
            threshold=0.0, accepted=True,
        )
        for d in ids
    ]
    directives = {
        d: Directive(
            id=d, source_module="m", cause_event="e@0",
            selector=TagSelector("any", ("Villager",)), action_id=f"act_{d}",
            parameters={}, base_priority=0.5, risk=0.0, issued_tick=0, ttl_ticks=1,
        )
        for d in ids
    }
    npc = NpcProfile(id="n", tags=("Villager",), role_tag="Villager",
                     local_state={"wealth": 1.0})
    ledger = WorldLedger(tick=0, variables={}, season="Dry")

    winner = None
    for b in accepted:
        if winner is None or (-b.total, b.directive_id) < (-winner.total, winner.directive_id):
            winner = b
    expected = "fallback" if winner is None else f"act_{winner.directive_id}"
    got = select_action(npc, accepted, ActionLeaf("fallback"), ledger, directives)
    if got != expected:
        failures.append(f"action choice mismatch: {got} != {expected}")


def _check_recompute(rng: random.Random, failures: list[str]) -> None:
    npc = NpcProfile(
        id="n", tags=("Villager",), role_tag="Villager",
        personality={"greed": rng.uniform(-1, 1), "diligence": rng.uniform(-1, 1)},
        needs={"hunger": rng.random()},
        local_state={"wealth": 1.0},
    )
    binding = ActionBinding(
        action_id="idle",
        trait_affinities={"greed": rng.choice([-1.0, 1.0]), "caution": rng.choice([-1.0, 1.0])},
        satisfies_needs={"hunger": rng.random()},
    )
    directive = Directive(
        id="d000001", source_module="m", cause_event="e@0",
        selector=TagSelector("any", ("Villager",)), action_id="idle", parameters={},
        base_priority=rng.random(), risk=rng.random(), issued_tick=0, ttl_ticks=1,
    )
    weights = UtilityWeights(
        base=rng.uniform(0, 2), trait=rng.uniform(0, 2), need=rng.uniform(0, 2),
        risk=rng.uniform(0, 2), threshold=rng.uniform(-1, 2),
    )
    b = score_directive(npc, directive, binding, weights)
    recomputed = (
        weights.base * b.base_term
        + weights.trait * b.trait_term
        + weights.need * b.need_term
        - weights.risk * b.risk_term
    )
    if b.total != recomputed:
        failures.append(f"breakdown does not recompute: {b.total!r} != {recomputed!r}")
    if b.accepted != (b.total >= weights.threshold):
        failures.append("acceptance flag disagrees with threshold comparison")


def _check_hysteresis(rng: random.Random, failures: list[str]) -> None:
    threshold = rng.uniform(1.0, 10.0)
    margin = rng.uniform(0.1, 2.0)
    rules = (
        TagMigrationRule("Merchant", "Beggar", "wealth", "<", threshold, margin),
        TagMigrationRule("Beggar", "Merchant", "wealth", ">=", threshold, margin),
    )
    npc = NpcProfile(id="n", tags=("Merchant",), role_tag="Merchant",
                     local_state={"wealth": threshold})
    migrations = 0
    for tick in range(1, rng.randint(2, 12)):
        value = threshold + rng.uniform(-0.9, 0.9) * margin
        npc = NpcProfile(
            id=npc.id, tags=npc.tags, role_tag=npc.role_tag,
            personality=npc.personality, needs=npc.needs,
            local_state={"wealth": value}, last_migration=npc.last_migration,
        )
        npc, events = migrate_tags(npc, rules, tick)
        migrations += len(events)
    if migrations > 1:
        failures.append(f"{migrations} migrations inside the hysteresis band")


def test_acceptance_7_oracle_equivalence_at_volume():
    failures: list[str] = []
    started = time.perf_counter()

    checks = (
        (_check_broadcast, 101),
        (_check_rule_eval, 102),
        (_check_argmax, 103),
        (_check_recompute, 104),
        (_check_hysteresis, 105),
    )
    for check, seed in checks:
        rng = random.Random(seed)
        for _ in range(1000):
            check(rng, failures)
            if failures:
                break
        if failures:
            break

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"oracle suite took {elapsed:.1f}s, budget is 60s")

    verdict(7, "oracle equivalence, 1000 instances per kernel", failures)
