"""Benchmark entry point.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 40 --trace 0

Runs one workload of the cascade engine from this checkout's `src/`,
prints every metric by name with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs half the
time untraced and half traced and reports the per-layer metrics and the
tracing overhead. The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cascade engine benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cascade" / "engine.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    result = harness.run(workload, args.seed, args.seconds, traced=bool(args.trace))
    metrics = harness.per_layer(result) if args.trace else harness.end_to_end(result)
    if args.trace:
        spans = harness.SCRATCH / f"spans-{workload.name}-{args.seed}.csv"
        result.recorder.write_csv(str(spans))
        print(f"spans: {spans.relative_to(ROOT)}")

    for problem in result.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    episodes = result.episodes
    print(f"workload={workload.name} seed={args.seed} episodes={len(episodes)} "
          f"ticks/episode={workload.ticks} npcs={workload.npcs} trace_sha256={result.sha256} "
          f"machine_scale={harness.machine_scale(result.untraced):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
