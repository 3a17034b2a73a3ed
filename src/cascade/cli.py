"""Command line front end.

  cascade run     simulate a scenario and write a trace
  cascade bench   scaling sweep: directive/evaluation counts vs town size
  cascade report  cost summary, variable moves and final-tick actions from a trace

Exit codes: 0 success, 2 bad input or validation failure, 3 internal
invariant violation, 4 benchmark assertion failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .core import InvariantViolation
from .engine import Simulation, build_roster
from .scenario import MAX_SEED, Scenario, ScenarioError, load_scenario_file
from .trace import DEFAULT_TOKENS_PER_CALL, TraceError, TraceEvent, build_cost_report, read_trace_file

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_BENCH = 4


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _open_scenario(args: argparse.Namespace) -> Optional[tuple[Scenario, int]]:
    """Load `--scenario` and resolve the run seed. Problems are reported on
    stderr and give None; the command then exits with EXIT_INPUT."""
    try:
        scenario = load_scenario_file(args.scenario)
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"scenario error: {line}", file=sys.stderr)
        return None
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return None
    seed = scenario.seed_default if args.seed is None else args.seed
    if not 0 <= seed <= MAX_SEED:
        print(f"seed must fit in 64 bits, got {seed}", file=sys.stderr)
        return None
    return scenario, seed


def cmd_run(args: argparse.Namespace) -> int:
    opened = _open_scenario(args)
    if opened is None:
        return EXIT_INPUT
    scenario, seed = opened

    # Check the roster first, so a town that cannot run leaves an earlier trace as it was.
    try:
        build_roster(scenario.npcs, args.npcs)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        stream = open(args.trace, "w", encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot open trace for writing: {exc}", EXIT_INVARIANT)
    try:
        sim = Simulation(
            scenario,
            seed=seed,
            npc_count=args.npcs,
            baseline_mode=args.baseline,
            trace_stream=stream,
        )
        summary = sim.run(args.ticks)
    except InvariantViolation as exc:
        return _fail(f"invariant violation: {exc}", EXIT_INVARIANT)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except OSError as exc:
        return _fail(f"trace write failed: {exc}", EXIT_INVARIANT)
    finally:
        stream.close()
    print(summary.line())
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        scales = [int(x) for x in args.npcs.split(",") if x.strip()]
    except ValueError:
        return _fail(f"--npcs expects a comma-separated list of integers, got {args.npcs!r}", EXIT_INPUT)
    if not scales or any(n < 1 for n in scales):
        return _fail("--npcs needs at least one positive town size", EXIT_INPUT)
    opened = _open_scenario(args)
    if opened is None:
        return EXIT_INPUT
    scenario, seed = opened

    rows = []
    for n in scales:
        try:
            sim = Simulation(scenario, seed=seed, npc_count=n)
            started = time.perf_counter()
            sim.run(args.ticks)
            elapsed = time.perf_counter() - started
        except InvariantViolation as exc:
            return _fail(f"invariant violation: {exc}", EXIT_INVARIANT)
        except ValueError as exc:
            return _fail(str(exc), EXIT_INPUT)
        collector = sim.trace
        rows.append({
            "npcs": n,
            "directives": collector.count("DirectiveIssued"),
            "utility_evals": collector.count("UtilityEvaluated"),
            "ms_per_tick": 1000.0 * elapsed / max(args.ticks, 1),
        })

    print(f"{'npcs':>8}  {'ticks':>6}  {'directives':>10}  {'utility_evals':>13}  {'ms_per_tick':>11}")
    for row in rows:
        print(
            f"{row['npcs']:>8}  {args.ticks:>6}  {row['directives']:>10}  "
            f"{row['utility_evals']:>13}  {row['ms_per_tick']:>11.3f}"
        )

    counts = {row["directives"] for row in rows}
    if len(counts) > 1:
        detail = ", ".join(f"{row['npcs']} npcs -> {row['directives']}" for row in rows)
        return _fail(f"bench assertion failed: directive count varies with town size ({detail})", EXIT_BENCH)
    print("directive count constant across scales: ok")
    return EXIT_OK


# Payload fields `report` reads, with the JSON types it needs.
_REPORT_FIELDS = {"variable": str, "intensity": (int, float), "npc": str, "action": str, "tags": list}


def _payload(event: TraceEvent, *names: str) -> list:
    """The named payload fields of `event`; a missing or mistyped one is a ValueError."""
    values = [event.payload.get(name) for name in names]
    for name, value in zip(names, values):
        if isinstance(value, bool) or not isinstance(value, _REPORT_FIELDS[name]):
            raise ValueError(f"trace tick {event.tick} {event.kind}: {name!r} missing or of the wrong type, got {value!r}")
    return values


def cmd_report(args: argparse.Namespace) -> int:
    try:
        meta, events = read_trace_file(args.trace)
    except TraceError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except OSError as exc:
        return _fail(f"cannot read trace: {exc}", EXIT_INPUT)

    npc_count = meta.get("npc_count", 0)
    if type(npc_count) is not int or npc_count < 0:
        return _fail(f"trace metadata: npc_count must be a non-negative integer, got {npc_count!r}", EXIT_INPUT)
    ticks = max((e.tick for e in events), default=0)

    # variable -> [first traced intensity, last traced intensity, changes]
    moves: dict[str, list] = {}
    final_actions: dict[str, tuple[str, list[str]]] = {}
    try:
        for event in events:
            if event.kind == "VariableChanged":
                name, intensity = _payload(event, "variable", "intensity")
                move = moves.setdefault(name, [intensity, intensity, 0])
                move[1] = intensity
                move[2] += 1
            elif event.kind == "ActionExecuted" and event.tick == ticks:
                npc, action, tags = _payload(event, "npc", "action", "tags")
                final_actions[npc] = (action, tags)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    report = build_cost_report(events, npc_count, ticks, args.tokens_per_call)

    print(f"scenario:           {meta.get('scenario', '?')}")
    print(f"seed:               {meta.get('seed', '?')}")
    print(f"ticks:              {report.ticks}")
    print(f"npcs:               {report.npc_count}")
    print(f"llm calls:          {report.cascade_llm_calls}")
    print(f"baseline llm calls: {report.baseline_llm_calls}")
    print(f"tokens:             {report.cascade_tokens}")
    print(f"baseline tokens:    {report.baseline_tokens}")
    print(f"reduction ratio:    {report.reduction_ratio:.4f}")

    if moves:
        print()
        width = max(len(name) for name in [*moves, "variable"])
        print(f"{'variable':<{width}}   first    last  changes")
        for name, (first, last, changes) in sorted(moves.items()):
            print(f"{name:<{width}}  {first:.4f}  {last:.4f}  {changes:>7}")

    if final_actions:
        print()
        rows = [
            (npc, "".join(f"[{t}]" for t in tags), action)
            for npc, (action, tags) in sorted(final_actions.items())
        ]
        header = ("npc", "tags", "action")
        widths = [max(len(r[i]) for r in rows + [header]) for i in range(3)]
        print(f"{header[0]:<{widths[0]}}  {header[1]:<{widths[1]}}  {header[2]}")
        for npc, tags, action in rows:
            print(f"{npc:<{widths[0]}}  {tags:<{widths[1]}}  {action}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cascade", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and write a trace")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run.add_argument("--ticks", type=int, required=True, help="how many ticks to simulate")
    run.add_argument("--seed", type=int, default=None, help="64-bit run seed (default: scenario's)")
    run.add_argument("--trace", required=True, help="where to write the JSONL trace")
    run.add_argument("--baseline", choices=["full-generative"], default="off",
                     help="also prompt every NPC every tick, as a naive baseline would")
    run.add_argument("--npcs", type=int, default=None,
                     help="replicate the roster to this many NPCs")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="compare directive and scoring counts across town sizes")
    bench.add_argument("--npcs", required=True, help="comma-separated town sizes, e.g. 10,100,1000")
    bench.add_argument("--ticks", type=int, required=True)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--scenario", required=True)
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser("report", help="summarize a trace: cost model, variable moves, final actions")
    report.add_argument("--trace", required=True, help="path to a trace written by `cascade run`")
    report.add_argument("--tokens-per-call", type=int, default=DEFAULT_TOKENS_PER_CALL,
                        help="token estimate per model call")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "ticks", None) is not None and args.ticks < 0:
        return _fail("--ticks must be >= 0", EXIT_INPUT)
    if args.command == "run" and args.npcs is not None and args.npcs < 1:
        return _fail("--npcs must be >= 1", EXIT_INPUT)
    if getattr(args, "tokens_per_call", None) is not None and args.tokens_per_call < 0:
        return _fail("--tokens-per-call must be >= 0", EXIT_INPUT)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
