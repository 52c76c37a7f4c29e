"""Replacement policies for set-associative tag stores.

A policy tracks access order *per set* and nominates a victim way when the
set is full.  LRU and FIFO are the same mechanism -- one integer stamp per
way, victim = first way with the smallest stamp -- and differ only in
*when* a way is restamped, which the ``stamp_on_touch``/``stamp_on_insert``
flags declare.

The tag store asks :meth:`ReplacementPolicy.victim` for every eviction, so
victim choice lives only here.  Stamping is the one rule the store applies
itself: its range loops read the flags and bump ``stamp``/``stamps``
inline, so replacement adds no Python call per line.  :meth:`touch` and
:meth:`insert` are the per-way form of that rule, for driving a policy on
its own.
"""

from __future__ import annotations

import random
from typing import List, Optional


class ReplacementPolicy:
    """Interface: track touches and choose victims within one set.

    ``stamps`` is a flat per-way list (index ``set_index * assoc + way``)
    for policies that order ways by stamp, else None; ``stamp`` is the
    last stamp handed out.
    """

    #: Restamp a way when a resident line is accessed (recency).
    stamp_on_touch = False
    #: Restamp a way when a line is filled into it (age).
    stamp_on_insert = False

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.stamp = 0
        self.stamps: Optional[List[int]] = None

    def touch(self, set_index: int, way: int) -> None:
        """Record an access to ``way`` of ``set_index``."""
        if self.stamp_on_touch:
            self._restamp(set_index, way)

    def insert(self, set_index: int, way: int) -> None:
        """Record a fill into ``way`` of ``set_index``."""
        if self.stamp_on_insert:
            self._restamp(set_index, way)

    def _restamp(self, set_index: int, way: int) -> None:
        self.stamp += 1
        self.stamps[set_index * self.assoc + way] = self.stamp

    def victim(self, set_index: int, occupied: List[int]) -> int:
        """Choose a way to evict from a full set.

        ``occupied`` lists every way of the set in order: the tag store
        asks only when no way is free.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all recency/ordering state (back to construction)."""


class _StampPolicy(ReplacementPolicy):
    """Evict the first way holding the smallest stamp."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self.stamps = [0] * (num_sets * assoc)

    def victim(self, set_index: int, occupied: List[int]) -> int:
        base = set_index * self.assoc
        row = self.stamps[base : base + self.assoc]
        return row.index(min(row))

    def reset(self) -> None:
        if self.stamp == 0:
            return  # untouched since construction/reset
        self.stamp = 0
        self.stamps = [0] * len(self.stamps)


class LRUPolicy(_StampPolicy):
    """Least-recently-used: evict the way touched longest ago."""

    stamp_on_touch = True
    stamp_on_insert = True


class FIFOPolicy(_StampPolicy):
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
