"""Fallback behavior trees.

When no directive survives an NPC's utility gate, its tree picks the
action for the tick. Evaluation is collapsed to "which action, if any":
a node either yields an action id or fails with None.

  ActionLeaf  always yields its action.
  Condition   never yields; it gates a Sequence (holds -> keep going).
  Sequence    fails as soon as any child fails; otherwise yields the last
              action its children produced (None if none did).
  Selector    yields the first child result that is an action.

A tree is only usable as a fallback if some path yields an action no
matter what the NPC looks like; `guarantees_action` checks that shape
statically so scenario loading can reject trees that could come up empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Union

from .core import COMPARE, NpcProfile, WorldLedger


@dataclass(frozen=True, slots=True)
class Condition:
    """Threshold test on a dotted field: needs.*, state.*, personality.*
    read the NPC; var.* reads a causal variable's intensity."""

    field: str
    op: str  # one of < <= > >=
    value: float
    # `field` split at its first dot, once, at construction.
    space: str = dataclass_field(init=False, compare=False, repr=False)
    key: str = dataclass_field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        space, _, key = self.field.partition(".")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "key", key)

    def holds(self, npc: NpcProfile, ledger: WorldLedger) -> bool:
        space = self.space
        if space == "needs":
            actual = npc.needs.get(self.key, 0.0)
        elif space == "state":
            actual = npc.local_state.get(self.key, 0.0)
        elif space == "personality":
            actual = npc.personality.get(self.key, 0.0)
        elif space == "var":
            actual = ledger.intensity(self.key)
        else:
            raise KeyError(f"condition field {self.field!r} has unknown namespace")
        return COMPARE[self.op](actual, self.value)


@dataclass(frozen=True, slots=True)
class ActionLeaf:
    action_id: str


@dataclass(frozen=True, slots=True)
class Sequence:
    children: tuple["BTNode", ...]


@dataclass(frozen=True, slots=True)
class Selector:
    children: tuple["BTNode", ...]


BTNode = Union[Condition, ActionLeaf, Sequence, Selector]


def evaluate(node: BTNode, npc: NpcProfile, ledger: WorldLedger) -> Optional[str]:
    """Run the tree for this NPC; returns the chosen action id or None."""
    kind = type(node)
    if kind is ActionLeaf:
        return node.action_id
    if kind is Condition:
        return None  # a bare condition selects nothing
    if kind is Sequence:
        produced: Optional[str] = None
        for child in node.children:
            if type(child) is Condition:
                if not child.holds(npc, ledger):
                    return None
            else:
                result = evaluate(child, npc, ledger)
                if result is None:
                    return None
                produced = result
        return produced
    for child in node.children:  # Selector
        result = evaluate(child, npc, ledger)
        if result is not None:
            return result
    return None


def guarantees_action(node: BTNode) -> bool:
    """True when evaluation yields an action for every possible NPC state."""
    if isinstance(node, ActionLeaf):
        return True
    if isinstance(node, Condition):
        return False
    if isinstance(node, Sequence):
        return bool(node.children) and all(guarantees_action(c) for c in node.children)
    return any(guarantees_action(c) for c in node.children)


def leaf_action_ids(node: BTNode) -> list[str]:
    """Every action id referenced by the tree, in depth-first order."""
    if isinstance(node, ActionLeaf):
        return [node.action_id]
    if isinstance(node, Condition):
        return []
    out: list[str] = []
    for child in node.children:
        out.extend(leaf_action_ids(child))
    return out
