"""Pinned loader outcomes: the behaviour contract for the scenario loader.

Starting from the shipped drought town, the corpus holds, in this order:

  1. the document with one node (at any depth, the root included) replaced
     by each of `REPLACEMENTS`;
  2. the document with one object key dropped, for every key;
  3. the document with an unknown key added to one object, for every object.

Each document has one outcome: the full `ScenarioError.errors` list when
loading fails, otherwise the sha256 of its 6-tick JSONL trace. The test
pins the sha256 of the JSON list of outcomes, so a change to any error
message, to the order errors are reported in, to which documents load, or
to the trace of one that does, moves the digest. Any exception other than
`ScenarioError` fails the test outright. A change that means to alter the
loader's outcomes re-pins the digest and counts in the same commit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterator

from conftest import GOLDEN_PATH
from test_digests import HashingSink

from cascade.engine import Simulation
from cascade.scenario import ScenarioError, load_scenario

TICKS = 6

REPLACEMENTS = (None, True, "x", "Critical", -1, 0, 2, 0.5, 1e300, [], {}, ["x"], {"x": 1})

DOCUMENTS = 4610
LOADED = 499
OUTCOMES_DIGEST = "58415dd26f84d9aa108b3eefb1c382083af491ce8e80c4abe10d67d4d4baf4d9"


def _nodes(node: Any, path: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """Every node of a JSON tree with its key path, in pre-order."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _edited(text: str, path: tuple, change: Callable[[Any, Any], None]) -> Any:
    """A fresh copy of the document with `change(parent, key)` applied at
    `path`; the root is passed as the only entry of a one-item list."""
    holder = [json.loads(text)]
    parent, key = holder, 0
    for step in path:
        parent, key = parent[key], step
    change(parent, key)
    return holder[0]


def corpus(text: str) -> Iterator[Any]:
    nodes = list(_nodes(json.loads(text)))
    objects = [(path, node) for path, node in nodes if isinstance(node, dict)]
    for path, _ in nodes:
        for value in REPLACEMENTS:
            yield _edited(text, path, lambda parent, key: parent.__setitem__(key, value))
    for path, obj in objects:
        for name in obj:
            yield _edited(text, path, lambda parent, key: parent[key].pop(name))
    for path, _ in objects:
        yield _edited(text, path, lambda parent, key: parent[key].__setitem__("zz_unknown", 1))


def outcome(doc: Any) -> Any:
    try:
        scenario = load_scenario(json.dumps(doc))
    except ScenarioError as exc:
        return exc.errors
    sink = HashingSink()
    Simulation(scenario, trace_stream=sink).run(TICKS)
    return sink.hexdigest()


def test_loader_outcomes_are_pinned():
    outcomes = [outcome(doc) for doc in corpus(GOLDEN_PATH.read_text(encoding="utf-8"))]
    assert len(outcomes) == DOCUMENTS
    assert sum(isinstance(o, str) for o in outcomes) == LOADED
    digest = hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()
    assert digest == OUTCOMES_DIGEST
