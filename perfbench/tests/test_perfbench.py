"""The benchmark's own tests: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json

import pytest

from cascade.scenario import load_scenario

from perfbench import generate, harness
from perfbench.spans import GcMonitor, SpanRecorder, patched

GENERATORS = [(generate.crowd_town, 300), (generate.hamlet, 6)]
TINY = harness.Workload("tiny", 40, 12, 2, "collector", 1, generate.crowd_town)


@pytest.mark.parametrize("make,npcs", GENERATORS)
def test_generator_is_deterministic_per_seed(make, npcs):
    assert make(5, npcs) == make(5, npcs)
    assert make(5, npcs) != make(6, npcs)


@pytest.mark.parametrize("make,npcs", GENERATORS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_scenario_loads_with_every_npc(make, npcs, seed):
    scenario = load_scenario(json.dumps(make(seed, npcs)))
    assert len(scenario.npcs) == npcs
    assert len({n.id for n in scenario.npcs}) == npcs
    assert any(t.selector.mode == "all" for m in scenario.modules for t in m.templates)


def test_crowd_roster_reaches_the_fallback_and_migration_branches():
    npcs = generate.crowd_town(3, 1000)["npcs"]
    assert any(n["needs"]["hunger"] > 0.7 for n in npcs)
    assert any(n["role_tag"] == "Merchant" and 3 <= n["local_state"]["wealth"] <= 7 for n in npcs)
    assert {len(n["tags"]) for n in npcs} >= {1, 2, 3, 4}


def run_alone(seed, recorder=None, monitor=None, reference=None):
    doc = TINY.generate(seed, TINY.npcs)
    episode = harness.EpisodeRun(TINY, json.dumps(doc), seed, "unused", 0, recorder, monitor)
    episode.advance(TINY.ticks)
    if reference is None:
        reference = harness.reference_directives(TINY, doc, seed)
    return episode.finish(reference)


def test_reference_directives_match_the_generated_town():
    ep = run_alone(1)
    assert ep.problems == [] and ep.failed == 0
    assert ep.digest.kinds["DirectiveIssued"] == 6


def test_traced_child_spans_fit_inside_their_step():
    recorder, monitor = SpanRecorder(), GcMonitor()
    with patched(recorder), monitor.installed():
        ep = run_alone(2, recorder, monitor)
    assert ep.failed == 0
    step: dict[int, int] = {}
    children: dict[int, int] = {}
    for _episode, tick, phase, parent, name, _calls, ns, _hits in recorder.records:
        if name == "step":
            step[tick] = ns
        elif phase == "step" and parent == "step":
            children[tick] = children.get(tick, 0) + ns
    assert sorted(step) == list(range(1, TINY.ticks + 1))
    assert all(children[t] <= step[t] for t in step)
    names = {r[4] for r in recorder.records}
    assert {"selector_matches", "score_directive", "evaluate", "emit", "npc_request_dialogue"} <= names


def test_patching_is_undone():
    import cascade.engine

    original = cascade.engine.selector_matches
    with patched(SpanRecorder()):
        assert cascade.engine.selector_matches is not original
    assert cascade.engine.selector_matches is original


def broken_check(ctx):
    return "deliberately broken"


def raising_check(ctx):
    raise KeyError("missing")


@pytest.mark.parametrize("check", [broken_check, raising_check])
def test_a_failing_check_fails_the_run_without_crashing(check, monkeypatch):
    monkeypatch.setattr(harness, "MIN_TICKS", 1)
    monkeypatch.setattr(harness, "MIN_TALKS", 1)
    result = harness.run(TINY, 1, 0.0, traced=False, checks=harness.CHECKS + (check,))
    assert result.attempted > 0 and result.failed == result.attempted
    assert any(check.__name__ in p or "deliberately broken" in p for p in result.problems)
    assert harness.end_to_end(result)["ok_op_share"][0] == 0.0


def test_a_raising_step_counts_every_remaining_operation(monkeypatch):
    from cascade.engine import Simulation

    calls = {"n": 0}
    real_step = Simulation.step

    def flaky(self):
        calls["n"] += 1
        if calls["n"] == 5:
            raise RuntimeError("boom")
        real_step(self)

    monkeypatch.setattr(Simulation, "step", flaky)
    ep = run_alone(1, reference=6)
    assert any("boom" in p for p in ep.problems)
    assert ep.failed == ep.attempted


def test_digest_rejects_non_finite_numbers():
    digest = harness.TraceDigest()
    digest.write('{"tick": 1, "x": 1.5}\n{"tick": 2, "x": NaN}\n{"x": Infinity}\n')
    assert digest.lines == 3 and len(digest.bad_lines) == 2


def test_a_run_chains_episodes_with_identical_traces(monkeypatch):
    monkeypatch.setattr(harness, "MIN_TICKS", 1)
    monkeypatch.setattr(harness, "MIN_TALKS", 1)
    result = harness.run(TINY, 4, 0.0, traced=True)
    assert result.failed == 0 and len(result.untraced) >= 2 and result.traced
    assert len({ep.digest.hexdigest() for ep in result.episodes}) == 1
    assert harness.end_to_end(result)["tick_cost_growth"][0] > 0
    layers = harness.per_layer(result)
    assert layers["npc.best_breakdown.calls"][0] == 2 * TINY.npcs * TINY.ticks
    assert layers["hub.compile_directives.directives_issued"][0] == 6


def test_each_tick_is_scaled_by_the_probes_after_it(monkeypatch):
    monkeypatch.setattr(harness, "PROBE_WINDOW", 0)
    nominal = harness.NOMINAL_PROBE_NS
    ep = harness.Episode(4, 8, setup_s=[1.0], tick_ns=[100] * 4, talk_ns=[10] * 8,
                         probe_ns=[nominal, nominal // 2], probe_at=[2, 4])
    assert harness.scaled([ep]) == ([100, 100, 200, 200], [10] * 4 + [20] * 4, [1.0])
