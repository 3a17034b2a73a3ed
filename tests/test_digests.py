"""Pinned trace digests: the behaviour contract for refactors.

Each case runs the shipped drought town for 30 ticks through a
`TraceWriter` whose sink only hashes what it is given, and compares the
sha256 of the JSONL bytes with a committed value. A change that keeps
these digests keeps every trace line, byte for byte. A change that means
to alter the trace re-pins the affected digests in the same commit.

The shipped town has no drift noise, so the noisy variant (built here from
the shipped JSON) is the case that exercises the run's RNG.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import pytest

from conftest import GOLDEN_PATH

from cascade.engine import Simulation
from cascade.scenario import load_scenario

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


class HashingSink:
    """Text sink that keeps only the running sha256 of the UTF-8 bytes."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self._hash.update(text.encode("utf-8"))

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def trace_digest(text: str, seed: int, npc_count: Optional[int] = None, baseline: str = "off") -> str:
    sink = HashingSink()
    sim = Simulation(
        load_scenario(text),
        seed=seed,
        npc_count=npc_count,
        baseline_mode=baseline,
        trace_stream=sink,
    )
    sim.run(TICKS)
    return sink.hexdigest()


@pytest.mark.parametrize("seed,npcs,baseline", sorted(GRID_DIGESTS))
def test_shipped_town_trace_digest(seed, npcs, baseline):
    digest = trace_digest(GOLDEN_PATH.read_text(encoding="utf-8"), seed, npcs, baseline)
    assert digest == GRID_DIGESTS[(seed, npcs, baseline)]


@pytest.mark.parametrize("seed", sorted(NOISY_DIGESTS))
def test_noisy_drift_trace_digest(seed):
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    (drift,) = doc["drift_schedule"]
    drift["noise"] = 0.05
    assert trace_digest(json.dumps(doc), seed) == NOISY_DIGESTS[seed]
