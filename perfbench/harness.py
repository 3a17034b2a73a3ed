"""Episodes, output checks and metrics for the benchmark workloads.

An episode is one complete use of the engine: load the generated scenario
(`setups` times, the last one is kept), drive `Simulation.step()` for a
fixed number of ticks with player conversations between ticks, then
check the outputs. A run repeats episodes of one seed until it has
measured for the requested time and has enough samples for its
percentiles. Episode length is fixed per workload, so a run's tick mix
(quiet and busy ticks, early and late ticks) does not depend on how fast
the machine is.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from cascade.engine import Simulation
from cascade.scenario import load_scenario
from cascade.trace import KINDS, TraceWriter

from . import generate
from .spans import GcMonitor, SpanRecorder, TimedStream, patched

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SCENARIO = ROOT / "scenarios" / "drought_town.json"
SCRATCH = ROOT / ".perfbench"

UTTERANCES = (
    "How are you holding up?",
    "What are you doing today?",
    "Any news from the council?",
    "Is there water to spare?",
)

# Machine speed on a shared host drifts by tens of percent within
# seconds, and a run of one workload cannot average that out. So a fixed
# probe, which no change to the engine can speed up or slow down, runs
# between ticks (outside the timed regions) at most every PROBE_EVERY_NS,
# and every time is scaled by NOMINAL_PROBE_NS over the median of the
# PROBE_WINDOW probes on each side of it: end-to-end times read as on a
# machine where the probe takes 300 us. Scaling by the nearby probes, not
# the run's median, keeps a slow spell of the host out of the tail
# percentiles.
PROBE_EVERY_NS = 10_000_000
NOMINAL_PROBE_NS = 300_000
PROBE_WINDOW = 5
_PROBE_TABLE = {i: i * 0.5 for i in range(64)}


class _Walk:
    """A cycle through 4 MiB of slots, more than a core's private caches
    on common server parts, in a scattered order (a full-period linear
    congruential sequence), so each read depends on the last and misses
    them. Each walk goes on where the last one stopped, through lines the
    recent walks have not cached. An array is no Python container: the
    garbage collector never walks it."""

    SLOTS = 1 << 19

    def __init__(self) -> None:
        self.slots = array("q", bytes(8 * self.SLOTS))
        for i in range(self.SLOTS):
            self.slots[i] = (1103515245 * i + 12345) % self.SLOTS
        self.at = 0

    def steps(self, n: int) -> int:
        slots, at = self.slots, self.at
        for _ in range(n):
            at = slots[at]
        self.at = at
        return at


@functools.cache
def _walk() -> _Walk:
    return _Walk()


def probe() -> int:
    """Fixed work in two equal parts. Interpreter work (dict reads and
    float arithmetic, no container allocation) slows with the host as
    ordinary ticks do; a walk of dependent reads (`_Walk`) slows
    as the collector's walks over the heap and the first conversation
    after a tick, which miss the caches, do. Either part alone scales one
    kind of time well and the other badly."""
    table = _PROBE_TABLE
    total = 0.0
    for i in range(2000):
        total += table[i & 63] * i
    return int(total) + _walk().steps(1000)


# Percentiles need at least ten samples beyond them.
MIN_TICKS = 200  # p95
MIN_TALKS = 1000  # p99
# Stop starting new episodes after this much wall time, whatever the
# sample counts, so that a run always ends well within three minutes.
WALL_LIMIT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    npcs: int
    ticks: int  # per episode
    talks_per_tick: int  # player conversations after each tick
    sink: str  # "collector" (in memory) or "jsonl" (file)
    setups: int  # timed set-ups per episode
    generate: Callable[[int, int], dict[str, Any]]


WORKLOADS = {w.name: w for w in (
    # 40 ticks: quiet before the drought (1-3), busy while its directives
    # live (4-33), quiet after (34-40). Three busy ticks in four keep the
    # median inside the busy mode. The first conversation after a tick
    # meets cold caches and takes about five times the others; with 24
    # per tick the p99 falls inside that group, not at its sparse top.
    Workload("crowd", 2000, 40, 24, "collector", 3, generate.crowd_town),
    # Director and hub costs that grow with T; the file sink's encode and
    # write are about half of each tick.
    Workload("long_run", 6, 6000, 1, "jsonl", 20, generate.hamlet),
)}


# --- trace digest -------------------------------------------------------------


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite number {token}")


class TraceDigest:
    """Consumes trace lines: sha256 and byte count, and with `parse` a
    strict JSON parse of every line (no NaN or Infinity) and per-kind
    counts. Also a text sink, so a TraceWriter can encode collected events
    straight into it."""

    def __init__(self, parse: bool = True) -> None:
        self.parse = parse
        self._sha = hashlib.sha256()
        self._pending = ""
        self.bytes = 0
        self.lines = 0
        self.kinds: Counter[str] = Counter()
        self.bad_lines: list[str] = []

    def write(self, text: str) -> None:
        self._pending += text
        *lines, self._pending = self._pending.split("\n")
        for line in lines:
            self.feed(line + "\n")

    def flush(self) -> None:
        pass

    def feed(self, line: str) -> None:
        data = line.encode("utf-8")
        self._sha.update(data)
        self.bytes += len(data)
        self.lines += 1
        if not self.parse:
            return
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            self.bad_lines.append(f"line {self.lines}: {exc}")
            return
        if not isinstance(obj, dict):
            self.bad_lines.append(f"line {self.lines}: not a JSON object")
        elif self.lines > 1:
            self.kinds[obj.get("kind")] += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


# --- episodes -----------------------------------------------------------------


@dataclass
class Episode:
    ticks_planned: int
    talks_planned: int
    load_s: list[float] = field(default_factory=list)
    init_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    tick_ns: list[int] = field(default_factory=list)
    talk_ns: list[int] = field(default_factory=list)
    probe_ns: list[int] = field(default_factory=list)
    probe_at: list[int] = field(default_factory=list)  # ticks done before each probe
    failed: int = 0  # operations that raised or returned a dialogue error
    problems: list[str] = field(default_factory=list)
    live_directives: int = 0
    history_entries: int = 0
    fired_log_len: int = 0
    directive_index_size: int = 0
    digest: Optional[TraceDigest] = None

    @property
    def attempted(self) -> int:
        return self.ticks_planned + self.talks_planned

    @property
    def timed_s(self) -> float:
        return sum(self.setup_s) + (sum(self.tick_ns) + sum(self.talk_ns)) / 1e9


@dataclass
class CheckContext:
    workload: Workload
    sim: Simulation
    episode: Episode
    reference_directives: int
    talks_made: int


Check = Callable[[CheckContext], Optional[str]]


def check_roster(ctx: CheckContext) -> Optional[str]:
    if len(ctx.sim.npcs) != ctx.workload.npcs:
        return f"roster has {len(ctx.sim.npcs)} NPCs, generated {ctx.workload.npcs}"
    return None


def check_actions(ctx: CheckContext) -> Optional[str]:
    expected = ctx.workload.npcs * ctx.workload.ticks
    if ctx.sim.summary.actions_executed != expected:
        return f"actions executed {ctx.sim.summary.actions_executed}, expected N x ticks = {expected}"
    return None


def check_model_calls(ctx: CheckContext) -> Optional[str]:
    calls = (ctx.sim.counter.count, ctx.sim.summary.llm_calls)
    if calls != (ctx.talks_made, ctx.talks_made):
        return f"model calls {calls}, expected one per dialogue request ({ctx.talks_made})"
    return None


def check_directives(ctx: CheckContext) -> Optional[str]:
    if ctx.sim.summary.directives_issued != ctx.reference_directives:
        return (f"directives issued {ctx.sim.summary.directives_issued}, "
                f"the 10-NPC reference issued {ctx.reference_directives}")
    return None


def check_trace_lines(ctx: CheckContext) -> Optional[str]:
    digest = ctx.episode.digest
    if digest is None:
        return "trace was not read"
    if digest.bad_lines:
        return f"{len(digest.bad_lines)} trace lines are not strict JSON, first: {digest.bad_lines[0]}"
    return None


CHECKS: tuple[Check, ...] = (check_roster, check_actions, check_model_calls, check_directives, check_trace_lines)


def shipped_roster() -> list[dict[str, Any]]:
    with open(REFERENCE_SCENARIO, encoding="utf-8") as fh:
        return json.load(fh)["npcs"]


def reference_directives(workload: Workload, doc: dict[str, Any], seed: int) -> int:
    """Directives issued by the same scenario with the shipped 10-NPC
    drought_town roster, over one episode's ticks and the same seed. Its
    trace is only hashed, so the reference adds nothing to peak memory."""
    scenario = load_scenario(json.dumps(generate.with_roster(doc, shipped_roster())))
    sim = Simulation(scenario, seed=seed, trace_stream=TraceDigest(parse=False))
    for _ in range(workload.ticks):
        sim.step()
    return sim.summary.directives_issued


def _read_trace(workload: Workload, sim: Simulation, path: str, parse: bool) -> TraceDigest:
    digest = TraceDigest(parse)
    if workload.sink == "jsonl":
        with open(path, encoding="utf-8", newline="") as fh:
            for line in fh:
                digest.feed(line)
    else:
        writer = TraceWriter(digest, sim.meta)
        for event in sim.trace.events:
            writer.emit(event)
        writer.close()
    return digest


def _set_up(workload: Workload, text: str, seed: int, path: str,
            recorder: Optional[SpanRecorder]) -> tuple[Simulation, Any, tuple[float, float, float]]:
    """Load, construct and open the sink; returns the timings
    (load_scenario, Simulation(...), whole set-up)."""
    started = time.perf_counter()
    scenario = load_scenario(text)
    loaded = time.perf_counter()
    fh = None
    stream = None
    if workload.sink == "jsonl":
        fh = open(path, "w", encoding="utf-8", newline="")
        stream = fh if recorder is None else TimedStream(fh, recorder)
    sim = Simulation(scenario, seed=seed, trace_stream=stream)
    done = time.perf_counter()
    return sim, fh, (loaded - started, done - loaded, done - started)


class EpisodeRun:
    """One episode in progress: set up on construction, one tick (a step
    and the conversations after it) per `tick()`, checked by `finish()`."""

    def __init__(self, workload: Workload, text: str, seed: int, workdir: str, index: int,
                 recorder: Optional[SpanRecorder] = None, gc_monitor: Optional[GcMonitor] = None) -> None:
        self.workload = workload
        self.index = index
        self.recorder = recorder
        self.gc_monitor = gc_monitor
        self.ep = Episode(workload.ticks, workload.ticks * workload.talks_per_tick)
        self.path = os.path.join(workdir, f"trace-{index}.jsonl")
        if recorder is not None:
            recorder.phase = "setup"
        self.fh = None
        for _ in range(workload.setups):
            if self.fh is not None:
                self.fh.close()
            self.sim, self.fh, (load_s, init_s, setup_s) = _set_up(workload, text, seed, self.path, recorder)
            self.ep.load_s.append(load_s)
            self.ep.init_s.append(init_s)
            self.ep.setup_s.append(setup_s)
        if recorder is not None:
            self.sim.step = recorder.wrap("step", self.sim.step)
            self.sim.request_dialogue = recorder.wrap("dialogue", self.sim.request_dialogue)
            self.sim.trace.emit = recorder.wrap("emit", self.sim.trace.emit)
        self.talk_rng = random.Random(seed)
        self.ids = sorted(self.sim.npcs)
        self.talks_made = 0
        self.ticks_done = 0
        self.broken = False
        self.last_probe = 0

    def tick(self) -> None:
        if self.broken or self.ticks_done == self.workload.ticks:
            return
        sim, ep, recorder = self.sim, self.ep, self.recorder
        talks = self.workload.talks_per_tick
        self.ticks_done += 1
        tick = self.ticks_done
        clock = time.perf_counter_ns
        if self.gc_monitor is not None:
            self.gc_monitor.active = True
        if recorder is not None:
            recorder.phase = "step"
        started = clock()
        try:
            sim.step()
        except Exception as exc:  # a failing program is measured, not fatal
            ep.problems.append(f"tick {tick}: {type(exc).__name__}: {exc}")
            ep.failed += ep.attempted - (tick - 1) * (1 + talks)
            self.broken = True
            if self.gc_monitor is not None:
                self.gc_monitor.active = False
            return
        ep.tick_ns.append(clock() - started)
        ep.live_directives += len(sim.active_directives)
        if recorder is not None:
            recorder.phase = "dialogue"
        for _ in range(talks):
            npc_id = self.ids[self.talk_rng.randrange(len(self.ids))]
            utterance = UTTERANCES[self.talk_rng.randrange(len(UTTERANCES))]
            started = clock()
            try:
                reply = sim.request_dialogue(npc_id, utterance)
            except Exception as exc:
                reply = f"[dialogue-error] raised {type(exc).__name__}: {exc}"
            ep.talk_ns.append(clock() - started)
            self.talks_made += 1
            if reply.startswith("[dialogue-error]"):
                ep.failed += 1
                ep.problems.append(f"tick {tick}: {reply}")
        if self.gc_monitor is not None:
            self.gc_monitor.active = False
        if recorder is not None:
            recorder.end_tick(self.index, tick)
        if clock() - self.last_probe >= PROBE_EVERY_NS:
            started = clock()
            probe()
            self.last_probe = clock()
            ep.probe_ns.append(self.last_probe - started)
            ep.probe_at.append(self.ticks_done)

    def advance(self, until: int) -> None:
        while self.ticks_done < until and not self.broken:
            self.tick()

    def finish(self, reference: int, checks: tuple[Check, ...] = CHECKS, parse_trace: bool = True) -> Episode:
        """Close the sink and run the output checks. Without `parse_trace`
        the trace is only hashed; the run compares that hash with its
        first episode, whose trace was parsed."""
        sim, ep = self.sim, self.ep
        sim.trace.close()
        if self.fh is not None:
            self.fh.close()
        ledger = sim.ledger
        ep.history_entries = sum(len(v.history) for v in ledger.variables.values())
        ep.fired_log_len = len(ledger.fired_log)
        ep.directive_index_size = len(sim.directive_index)
        ep.digest = _read_trace(self.workload, sim, self.path, parse_trace)
        if self.fh is not None:
            os.remove(self.path)
        ctx = CheckContext(self.workload, sim, ep, reference, self.talks_made)
        for check in checks:
            try:
                problem = check(ctx)
            except Exception as exc:  # a broken check is a failed check
                problem = f"{getattr(check, '__name__', check)} raised {type(exc).__name__}: {exc}"
            if problem is not None:
                fail_checks(ep, problem)
        return ep


def fail_checks(ep: Episode, problem: str) -> None:
    """A failed output check fails every operation of the episode."""
    ep.problems.append(problem)
    ep.failed = ep.attempted


# --- runs ---------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _growth(episodes: list[Episode]) -> float:
    """Median tick time over the last tenth of an episode over that over
    its first tenth, both scaled to the nominal machine so that drift
    cancels; the median over the run's complete episodes."""
    ratios = []
    for ep in episodes:
        tenth = ep.ticks_planned // 10
        if tenth and len(ep.tick_ns) == ep.ticks_planned:
            ticks = scaled([ep])[0]
            ratios.append(statistics.median(ticks[-tenth:]) / statistics.median(ticks[:tenth]))
    return statistics.median(ratios) if ratios else 0.0


@dataclass
class RunResult:
    workload: Workload
    untraced: list[Episode]
    traced: list[Episode]
    modules: int
    recorder: Optional[SpanRecorder]
    gc_monitor: Optional[GcMonitor]

    @property
    def episodes(self) -> list[Episode]:
        return self.untraced + self.traced

    @property
    def attempted(self) -> int:
        return sum(ep.attempted for ep in self.episodes)

    @property
    def failed(self) -> int:
        return sum(ep.failed for ep in self.episodes)

    @property
    def problems(self) -> list[str]:
        return [p for ep in self.episodes for p in ep.problems]

    @property
    def sha256(self) -> str:
        return self.episodes[0].digest.hexdigest() if self.episodes[0].digest else ""


def _enough(episodes: list[Episode], workload: Workload, seconds: float) -> bool:
    ticks = sum(len(ep.tick_ns) for ep in episodes)
    talks = sum(len(ep.talk_ns) for ep in episodes)
    return (sum(ep.timed_s for ep in episodes) >= seconds
            and ticks >= MIN_TICKS
            and (talks >= MIN_TALKS or workload.talks_per_tick == 0))


def _chain(start: Callable[[], EpisodeRun], finish: Callable[[EpisodeRun], Episode],
           enough: Callable[[list[Episode]], bool]) -> list[Episode]:
    """Run episodes one after another, each alone in the process, until
    `enough` holds for the measured episodes (at least two, so that every
    run compares traces)."""
    done: list[Episode] = []
    while len(done) < 2 or not enough(done):
        current = start()
        current.advance(current.workload.ticks)
        done.append(finish(current))
        del current  # the next set-up starts with this simulation gone
    return done


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        checks: tuple[Check, ...] = CHECKS) -> RunResult:
    """Measure one workload for one seed. With `traced`, half the time
    runs untraced (the base of the overhead figure) and half traced."""
    doc = workload.generate(seed, workload.npcs)
    text = json.dumps(doc)
    reference = reference_directives(workload, doc, seed)
    probe()  # builds the probe's array before any timing
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    wall_started = time.monotonic()
    recorder = SpanRecorder() if traced else None
    gc_monitor = GcMonitor() if traced else None
    share = 0.5 if traced else 1.0
    index = itertools.count()
    live: list[EpisodeRun] = []  # unfinished; a finished episode's simulation is dropped
    first_digest: list[str] = []

    def start(traced_episode: bool) -> EpisodeRun:
        gc.collect()
        run_ = EpisodeRun(workload, text, seed, workdir, next(index),
                          recorder if traced_episode else None, gc_monitor if traced_episode else None)
        live.append(run_)
        return run_

    def finish(run_: EpisodeRun) -> Episode:
        live.remove(run_)
        ep = run_.finish(reference, checks, parse_trace=not first_digest)
        if ep.digest is not None:
            if not first_digest:
                first_digest.append(ep.digest.hexdigest())
            elif ep.digest.hexdigest() != first_digest[0]:
                fail_checks(ep, "trace sha256 differs from the first episode of this seed")
        return ep

    def enough(episodes: list[Episode]) -> bool:
        return time.monotonic() - wall_started > WALL_LIMIT_S or _enough(episodes, workload, seconds * share)

    try:
        untraced = _chain(lambda: start(False), finish, enough)
        traced_eps: list[Episode] = []
        if traced:
            assert recorder is not None and gc_monitor is not None
            with patched(recorder), gc_monitor.installed():
                traced_eps = _chain(lambda: start(True), finish, enough)
    finally:
        for run_ in live:
            if run_.fh is not None:
                run_.fh.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return RunResult(workload, untraced, traced_eps, len(doc["domain_modules"]), recorder, gc_monitor)


def machine_scale(episodes: list[Episode]) -> float:
    """The run's typical factor from measured times to times on the
    nominal machine (the times themselves are scaled by `scaled`)."""
    probes = [ns for ep in episodes for ns in ep.probe_ns]
    return NOMINAL_PROBE_NS / statistics.median(probes) if probes else 1.0


def _probe_factors(ep: Episode) -> list[float]:
    """Per probe of `ep`, NOMINAL_PROBE_NS over the median of the probes
    within PROBE_WINDOW of it."""
    probes = ep.probe_ns
    return [NOMINAL_PROBE_NS / statistics.median(probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
            for j in range(len(probes))]


def scaled(episodes: list[Episode]) -> tuple[list[float], list[float], list[float]]:
    """Tick times (ns), conversation times (ns) and set-up times (s) of
    `episodes` on the nominal machine. A tick and the conversations after
    it take the factor of the first probe after the tick; set-ups take
    the episode's first factor."""
    ticks: list[float] = []
    talks: list[float] = []
    setups: list[float] = []
    for ep in episodes:
        factors = _probe_factors(ep) or [machine_scale(episodes)]
        last = len(factors) - 1
        per_tick = [factors[min(bisect.bisect_left(ep.probe_at, tick), last)]
                    for tick in range(1, len(ep.tick_ns) + 1)]
        talks_per_tick = ep.talks_planned // ep.ticks_planned
        ticks += [ns * f for ns, f in zip(ep.tick_ns, per_tick)]
        talks += [ns * per_tick[i // talks_per_tick] for i, ns in enumerate(ep.talk_ns)]
        setups += [s * factors[0] for s in ep.setup_s]
    return ticks, talks, setups


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: RunResult) -> dict[str, tuple[float, str]]:
    eps = result.untraced
    w = result.workload
    ticks, talks, setups = scaled(eps)
    attempted = sum(ep.attempted for ep in eps)
    failed = sum(ep.failed for ep in eps)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tick_ms_p50": (_percentile(ticks, 0.50) / 1e6, "ms"),
        "tick_ms_p95": (_percentile(ticks, 0.95) / 1e6, "ms"),
        "us_per_npc_tick": (sum(ticks) / 1e3 / (w.npcs * len(ticks)) if ticks else 0.0, "us"),
        "dialogue_us_p50": (_percentile(talks, 0.50) / 1e3, "us"),
        "dialogue_us_p99": (_percentile(talks, 0.99) / 1e3, "us"),
        "tick_cost_growth": (_growth(eps), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_op_share": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(result: RunResult) -> dict[str, tuple[float, str]]:
    assert result.recorder is not None and result.gc_monitor is not None
    eps = result.traced
    w = result.workload
    n_eps = len(eps)
    n_ticks = max(1, sum(len(ep.tick_ns) for ep in eps))
    totals = result.recorder.totals()

    def agg(name: str, parent: Optional[str] = None, phase: str = "step") -> tuple[int, int, int]:
        calls = ns = hits = 0
        for (ph, par, nm), (c, t, h) in totals.items():
            if nm == name and ph == phase and (parent is None or par == parent):
                calls, ns, hits = calls + c, ns + t, hits + h
        return calls, ns, hits

    def per_tick_us(name: str) -> tuple[float, str]:
        return agg(name)[1] / 1e3 / n_ticks, "us/tick"

    def per_call_ns(name: str) -> tuple[float, str]:
        calls, ns, _ = agg(name)
        return (ns / calls if calls else 0.0), "ns/call"

    def per_episode(value: float, unit: str = "count/episode") -> tuple[float, str]:
        return value / n_eps, unit

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    step_ns = agg("step", parent="tick")[1]
    children_ns = sum(t for (ph, par, _), (_, t, _) in totals.items() if ph == "step" and par == "step")
    sel_calls, _, sel_hits = agg("selector_matches")
    score_calls, _, score_accepts = agg("score_directive")
    route_calls, _, woken = agg("route_activation")
    talk_calls, talk_ns, _ = agg("npc_request_dialogue", phase="dialogue")
    trace_bytes = sum(ep.digest.bytes for ep in eps if ep.digest is not None)
    # Every episode's trace hashes like the first one, which was parsed.
    first = result.episodes[0].digest
    kinds = first.kinds if first is not None else Counter()
    pauses = result.gc_monitor.pauses_ns
    untraced_ns = scaled(result.untraced)[0]
    traced_ns = scaled(eps)[0]

    metrics: dict[str, tuple[float, str]] = {
        "scenario.load_scenario.s": (statistics.median(s for ep in eps for s in ep.load_s), "s"),
        "engine.init.s": (statistics.median(s for ep in eps for s in ep.init_s), "s"),
        "engine.step.self_us_per_tick": ((step_ns - children_ns) / 1e3 / n_ticks, "us/tick"),
        "core.selector_matches.calls": per_episode(sel_calls),
        "core.selector_matches.ns_per_call": per_call_ns("selector_matches"),
        "core.selector_matches.hit_ratio": ratio(sel_hits, sel_calls),
        "npc.score_directive.calls": per_episode(score_calls),
        "npc.score_directive.ns_per_call": per_call_ns("score_directive"),
        "npc.score_directive.accept_ratio": ratio(score_accepts, score_calls),
        "npc.select_action.us_per_tick": per_tick_us("select_action"),
        "npc.best_breakdown.calls": per_episode(agg("best_breakdown")[0]),
        "npc.execute_action.ns_per_call": per_call_ns("execute_action"),
        "npc.migrate_tags.ns_per_call": per_call_ns("migrate_tags"),
        "npc.migrate_tags.migrations": per_episode(agg("migrate_tags")[2]),
        "behavior.evaluate.calls": per_episode(agg("evaluate")[0]),
        "behavior.evaluate.ns_per_call": per_call_ns("evaluate"),
        "npc.request_dialogue.us_per_call": ((talk_ns / 1e3 / talk_calls if talk_calls else 0.0), "us/call"),
        "trace.emit.calls": per_episode(agg("emit")[0]),
        "trace.emit.ns_per_event": per_call_ns("emit"),
        "trace.write.us_per_tick": per_tick_us("write"),
        "trace.bytes_per_npc_tick": (trace_bytes / (w.npcs * n_ticks), "B/npc-tick"),
        "gc.collections_gen2": per_episode(result.gc_monitor.gen2),
        "gc.pause_ms_total": per_episode(sum(pauses) / 1e6, "ms/episode"),
        "gc.pause_ms_max": (max(pauses, default=0) / 1e6, "ms"),
        "director.advance_clock.us_per_tick": per_tick_us("advance_clock"),
        "director.evaluate_rules.us_per_tick": per_tick_us("evaluate_rules"),
        "director.critic_check.calls": per_episode(agg("critic_check")[0]),
        "director.critic_check.rejects": per_episode(agg("critic_check")[2]),
        "director.apply_event.calls": per_episode(agg("apply_event")[0]),
        "director.history_entries": per_episode(sum(ep.history_entries for ep in eps)),
        "director.fired_log_len": per_episode(sum(ep.fired_log_len for ep in eps)),
        "hub.expire_directives.us_per_tick": per_tick_us("expire_directives"),
        "hub.broadcast.us_per_tick": per_tick_us("broadcast"),
        "hub.route_activation.calls": per_episode(route_calls),
        "hub.route_activation.activation_ratio": ratio(woken, route_calls * result.modules),
        "hub.compile_directives.us": per_episode(agg("compile_directives")[1] / 1e3, "us/episode"),
        "hub.compile_directives.directives_issued": per_episode(agg("compile_directives")[2]),
        "hub.live_directives": (sum(ep.live_directives for ep in eps) / n_ticks, "count/tick"),
        "hub.directive_index_size": per_episode(sum(ep.directive_index_size for ep in eps)),
        "machine.probe_us": (statistics.median(ns for ep in result.episodes for ns in ep.probe_ns) / 1e3, "us"),
        "tracing.overhead_ratio": ratio(
            statistics.mean(traced_ns) if traced_ns else 0.0,
            statistics.mean(untraced_ns) if untraced_ns else 0.0),
    }
    for kind in KINDS:
        metrics[f"trace.events.{kind}"] = (float(kinds[kind]), "count/episode")
    return metrics
