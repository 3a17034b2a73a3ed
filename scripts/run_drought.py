#!/usr/bin/env python3
"""Run the shipped drought town and show the cascade end to end: the run
summary, the action table on the drought day, and a conversation grounded
in live simulation state, with the model-call counter visible throughout."""

from __future__ import annotations

import argparse
from pathlib import Path

from cascade.engine import Simulation
from cascade.scenario import load_scenario_file
from cascade.trace import build_cost_report

DEFAULT_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "drought_town.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=str(DEFAULT_SCENARIO))
    parser.add_argument("--ticks", type=int, default=30)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    scenario = load_scenario_file(args.scenario)
    sim = Simulation(scenario, seed=args.seed)

    # Step by hand so the sample conversation happens on the drought day,
    # while the event and its directives are still live.
    conversation = None
    for _ in range(args.ticks):
        sim.step()
        if conversation is None and sim.summary.events_fired:
            conversation = sim.request_dialogue("merchant_1", "Why is water so expensive?")
    summary = sim.summary
    print(summary.line())

    fired = [e for e in sim.trace.events if e.kind == "EventFired"]
    if not fired:
        print("no macro event fired; try more ticks")
        return
    drought_tick = fired[0].tick
    print(f"\n{fired[0].payload['name']} fired on tick {drought_tick}; actions that day:")
    for event in sim.trace.events:
        if event.kind == "ActionExecuted" and event.tick == drought_tick:
            p = event.payload
            params = " ".join(f"{k}={v}" for k, v in sorted(p["parameters"].items()))
            tags = "".join(f"[{t}]" for t in p["tags"])
            print(f"  {p['npc']:<12} {tags:<24} {p['action']:<22} {params}")

    print(f"\nplayer walks up to merchant_1 on tick {drought_tick}:")
    print(f"  {conversation}")

    report = build_cost_report(sim.trace.events, summary.npc_count, summary.ticks)
    print(
        f"\nmodel calls: {report.cascade_llm_calls} "
        f"(a prompt-per-NPC-per-tick baseline would have made {report.baseline_llm_calls}; "
        f"reduction ratio {report.reduction_ratio:.4f})"
    )


if __name__ == "__main__":
    main()
