"""Replacement policies for set-associative tag stores.

A policy tracks access order *per set* and nominates a victim way when the
set is full.  LRU and FIFO are the same mechanism -- a per-set *victim
order*, the set's way numbers oldest first, whose front way is the victim
-- and differ only in *when* a way moves to the back, which the
``stamp_on_touch``/``stamp_on_insert`` flags declare.

The order is the sorted form of a per-way stamp rule: stamp every
touched way with a rising counter, start every way at stamp 0, and evict
the first way with the smallest stamp.  A restamp gives a way the largest
stamp, so it moves to the back; ways not stamped since the last reset tie
at 0 and keep way order at the front; invalidating a line restamps
nothing and so moves nothing.  The front way is therefore exactly the
first smallest stamp, ties included, and no eviction scans the set.

Orders are ``bytearray``s of way numbers, so a way number must fit in a
byte: :data:`MAX_ASSOC` bounds the associativity.  The tag store reads
the front of an order directly and applies the move-to-back rule inline
in its range loops, so replacement adds no Python call per line.
:meth:`touch`, :meth:`insert` and :meth:`victim` are the per-way form of
the same rules, for driving a policy on its own; ``random`` keeps a
:meth:`victim` call per eviction and its seeded RNG sequence.
"""

from __future__ import annotations

import random
from typing import List, Optional

#: Most ways a set may have: victim orders hold one way number per byte.
MAX_ASSOC = 256


class ReplacementPolicy:
    """Interface: track touches and choose victims within one set.

    ``orders`` holds one victim order per set (a ``bytearray`` of way
    numbers, oldest first) for policies that order ways, else None;
    ``reordered`` is True once any way has moved since the last reset.
    """

    #: Move a way to the back when a resident line is accessed (recency).
    stamp_on_touch = False
    #: Move a way to the back when a line is filled into it (age).
    stamp_on_insert = False

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.orders: Optional[List[bytearray]] = None
        self.reordered = False

    def touch(self, set_index: int, way: int) -> None:
        """Record an access to ``way`` of ``set_index``."""
        if self.stamp_on_touch:
            self._restamp(set_index, way)

    def insert(self, set_index: int, way: int) -> None:
        """Record a fill into ``way`` of ``set_index``."""
        if self.stamp_on_insert:
            self._restamp(set_index, way)

    def _restamp(self, set_index: int, way: int) -> None:
        order = self.orders[set_index]
        order.remove(way)
        order.append(way)
        self.reordered = True

    def victim(self, set_index: int, occupied: List[int]) -> int:
        """Choose a way to evict from a full set.

        ``occupied`` lists every way of the set in order: the tag store
        asks only when no way is free.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all recency/ordering state (back to construction)."""


class _OrderPolicy(ReplacementPolicy):
    """Evict the front way of the set's victim order."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._fresh = bytes(range(assoc))
        self.orders = [bytearray(self._fresh) for _ in range(num_sets)]

    def victim(self, set_index: int, occupied: List[int]) -> int:
        return self.orders[set_index][0]

    def reset(self) -> None:
        if not self.reordered:
            return  # untouched since construction/reset
        self.reordered = False
        fresh = self._fresh
        self.orders = [bytearray(fresh) for _ in range(self.num_sets)]


class LRUPolicy(_OrderPolicy):
    """Least-recently-used: evict the way touched longest ago."""

    stamp_on_touch = True
    stamp_on_insert = True


class FIFOPolicy(_OrderPolicy):
    """First-in-first-out: evict the way filled longest ago."""

    stamp_on_insert = True


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for reproducibility)."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 1) -> None:
        super().__init__(num_sets, assoc)
        self._seed = seed
        self._rng = random.Random(seed)

    def victim(self, set_index: int, occupied: List[int]) -> int:
        return self._rng.choice(occupied)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def policy_class(name: str) -> type:
    """The policy class called ``name``; ValueError naming the field."""
    cls = _POLICIES.get(name.lower()) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(
            f"policy: unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        )
    return cls


def make_policy(name: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Instantiate a policy by name ('lru', 'fifo', 'random')."""
    return policy_class(name)(num_sets, assoc)
