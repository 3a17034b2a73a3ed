"""Pinned trace digests: the behaviour contract for refactors.

Each case runs the shipped drought town for 30 ticks through a
`TraceWriter` whose sink only hashes what it is given, and compares the
sha256 of the JSONL bytes with a committed value. A change that keeps
these digests keeps every trace line, byte for byte. A change that means
to alter the trace re-pins the affected digests in the same commit.

Every case pins two digests: one of the full trace (`*_FULL_DIGESTS`) and
one of the trace without its Clock-phase `VariableChanged` lines
(`GRID_DIGESTS`, `NOISY_DIGESTS`). The second set predates those lines and
shows that adding them moved no other line.

The shipped town has no drift noise, so the noisy variant (built here from
the shipped JSON) is the case that exercises the run's RNG.

The drought town's 30 ticks leave most of the macro and NPC layers dark,
so `scenarios/market_cycle.json` is pinned too, over 120 ticks: critic
rejections, cooldown refires, overlapping events, an `all` selector, a
`var.*` tree condition and Merchant/Beggar migrations both ways. One of
its cases interleaves player dialogue at fixed ticks.
"""

from __future__ import annotations

import hashlib
import io
import json
from typing import Optional, TextIO

import pytest

from conftest import GOLDEN_PATH, MARKET_PATH

from cascade.engine import Simulation
from cascade.scenario import load_scenario
from cascade.trace import KINDS

TICKS = 30

GRID_DIGESTS = {
    (7, 10, "off"): "486ad27883e1b20000706f0bde1f5c55d6c71720787fda20e9cbf81dbe818e2c",
    (7, 10, "full-generative"): "6bdb6630d04e4f4fe9216c6fcedc0be4d44220bd821a841361a93db6024e7042",
    (7, 1000, "off"): "66e1aa7d96f4cd93b5c87bc6bf0d1db795049115b2e6f55d231d59afb2efe242",
    (7, 1000, "full-generative"): "8097952b00fbedd7c0940eab70edac889e85d8fe9c6cdf857fb6e57ec910b9bd",
    (11, 10, "off"): "35fda5ada07b323413fa555095066d8b196d8adcbd46697d247dafd51bf42621",
    (11, 10, "full-generative"): "537093fabd81fbcc6fab887a6ea97e8b428c8c23dcb8ffec4654a7d773f4762a",
    (11, 1000, "off"): "e5287f03cf642efb2a83c4d0978ffe3e05bc7e719b6676198083d7435228c547",
    (11, 1000, "full-generative"): "e57cd290b4b50dba762a23182fc87b47002c93fac07acf1274a78870410ce9d2",
}

NOISY_DIGESTS = {
    7: "748ddaa1cd5575a33fa98e91932a93930aea063da50f333910a5a4a9afd88625",
    11: "74ae1f3ea918c6fff19457d26a0f8a6228d7639b834f04e3435638ed0740c382",
}

GRID_FULL_DIGESTS = {
    (7, 10, "off"): "204b8bdc5944c8e42f2eebefc9591605eec63722e712312ea129b172e0be5fdf",
    (7, 10, "full-generative"): "ac6955c5c586d8199116d94393bba3e65deea276f0094779c74e9b738b1d3fe3",
    (7, 1000, "off"): "55e6273b59284dbfa73b9407ba5f4609df2dbc3a9bdb42ea4012133cb6574ae5",
    (7, 1000, "full-generative"): "23412cef8a0092310000366d8a28bffd3f3ea5c819a62697998b2e128def4926",
    (11, 10, "off"): "59dcc2bfbf26d54d79f479870b5973134506143d6f103823eef35a4f4226e4a1",
    (11, 10, "full-generative"): "d9fe4eb7153282419cad5819daafb2411fda38120b3b32c0faab413032f9164c",
    (11, 1000, "off"): "2c258b85f1b92dc78779ae11db0479d283b6db07f76d184196385bb849abfa31",
    (11, 1000, "full-generative"): "3cefee7fb2fe71102217d1fa57066bf8e65b370209fc779747d17f3fccf66e7f",
}

NOISY_FULL_DIGESTS = {
    7: "789cdf5bd86e16935ffbb285c226246d136076166012b671bdd5538fbbb0547a",
    11: "fa012aa0016a866879d8d67baebc34ed9db4327b513c40c8a8151c75363227a0",
}

MARKET_TICKS = 120

MARKET_DIGESTS = {
    (7, 10): "6ca77e144bf137652d077e4fdde8966f9c24575a4854533e52aaa035c47f5539",
    (7, 1000): "6347e7359bcaf71812d078f742f4fe2d5cb95b9f3ab1ddce42a6b598d1edc64b",
    (11, 10): "31631092baa53467f392c574466684b17e0a34180c562afafc904002372dadc4",
    (11, 1000): "154a88afc75787b0e02c8eccdb3eb6c2ed33996ba3e593ecc595aff4d350bdbf",
}

MARKET_DIALOGUE_DIGEST = "65de6572c2165d015e412a44f7549315c9951e1654cd364433de3d87faa53f3d"

# tick -> (npc, player utterance), asked right after that tick. The
# utterances carry quotes, a backslash, a control character and non-ASCII
# text, which the trace must escape.
DIALOGUE_SCRIPT = {
    5: ("merchant_a", 'Any "deals" today?'),
    40: ("beggar_a", "Spare a coin\\ for the road"),
    41: ("merchant_b", "¿Qué pasó con tu tienda?\n"),
    77: ("mayor", "Is the square safe? \u2603"),
    120: ("guard_a", "\tAll quiet?"),
}

VARIABLE_LINE = '"kind":"VariableChanged"'


class HashingSink:
    """Text sink that keeps only running sha256s of the UTF-8 bytes: one of
    everything and one without `VariableChanged` lines. A `TraceWriter`
    writes each line whole, so each write is judged as one line."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._without_variables = hashlib.sha256()

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        self._hash.update(data)
        if VARIABLE_LINE not in text:
            self._without_variables.update(data)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def hexdigest_without_variables(self) -> str:
        return self._without_variables.hexdigest()


def trace_digests(text: str, seed: int, npc_count: Optional[int] = None,
                  baseline: str = "off") -> tuple[str, str]:
    """(full trace, trace without VariableChanged lines)."""
    sink = HashingSink()
    sim = Simulation(
        load_scenario(text),
        seed=seed,
        npc_count=npc_count,
        baseline_mode=baseline,
        trace_stream=sink,
    )
    sim.run(TICKS)
    return sink.hexdigest(), sink.hexdigest_without_variables()


@pytest.mark.parametrize("seed,npcs,baseline", sorted(GRID_DIGESTS))
def test_shipped_town_trace_digest(seed, npcs, baseline):
    key = (seed, npcs, baseline)
    digests = trace_digests(GOLDEN_PATH.read_text(encoding="utf-8"), seed, npcs, baseline)
    assert digests == (GRID_FULL_DIGESTS[key], GRID_DIGESTS[key])


@pytest.mark.parametrize("seed", sorted(NOISY_DIGESTS))
def test_noisy_drift_trace_digest(seed):
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    (drift,) = doc["drift_schedule"]
    drift["noise"] = 0.05
    assert trace_digests(json.dumps(doc), seed) == (NOISY_FULL_DIGESTS[seed], NOISY_DIGESTS[seed])


def run_market(seed: int, npc_count: int, sink: Optional[TextIO] = None,
               dialogue: bool = False) -> Simulation:
    """The market town for MARKET_TICKS ticks, with the scripted player
    dialogue when asked; a `sink` streams the trace through `TraceWriter`,
    none keeps it in the collector."""
    sim = Simulation(
        load_scenario(MARKET_PATH.read_text(encoding="utf-8")),
        seed=seed,
        npc_count=npc_count,
        trace_stream=sink,
    )
    for _ in range(MARKET_TICKS):
        sim.step()
        if dialogue and sim.ledger.tick in DIALOGUE_SCRIPT:
            sim.request_dialogue(*DIALOGUE_SCRIPT[sim.ledger.tick])
    sim.trace.close()
    return sim


@pytest.mark.parametrize("seed,npcs", sorted(MARKET_DIGESTS))
def test_market_town_trace_digest(seed, npcs):
    sink = HashingSink()
    run_market(seed, npcs, sink)
    assert sink.hexdigest() == MARKET_DIGESTS[(seed, npcs)]


def test_market_town_with_dialogue_trace_digest():
    sink = HashingSink()
    run_market(7, 10, sink, dialogue=True)
    assert sink.hexdigest() == MARKET_DIALOGUE_DIGEST


def test_market_town_lights_every_trace_kind():
    events = run_market(7, 10, dialogue=True).trace.events
    assert {e.kind for e in events} == set(KINDS)
    fired = [e.payload["rule"] for e in events if e.kind == "EventFired"]
    assert {"riot", "market_day", "tax_levy"} <= set(fired)
    assert len(fired) > len(set(fired))  # cooldowns run out and rules refire
    assert any(e.kind == "EventRejected" for e in events)
    hops = {(e.payload["from"], e.payload["to"]) for e in events if e.kind == "TagMigrated"}
    assert hops == {("Merchant", "Beggar"), ("Beggar", "Merchant")}
    modes = {e.payload["directive"]["selector_mode"] for e in events if e.kind == "DirectiveIssued"}
    assert modes == {"any", "all"}
    assert any(e.kind == "ActionExecuted" and e.payload["action"] == "hide" for e in events)


@pytest.mark.parametrize("seed", [7, 11])
def test_file_sink_writes_the_collector_events_as_json(seed):
    """Both sinks see the same events, and the file sink's bytes are what
    plain `json.dumps` makes of them, line by line."""
    sink = io.StringIO()
    run_market(seed, 10, sink, dialogue=True)
    collected = run_market(seed, 10, dialogue=True).trace
    lines = [collected.meta] + [event.to_line_dict() for event in collected.events]
    expected = "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        for line in lines
    )
    assert sink.getvalue() == expected
