"""Set-associative tag store.

Tracks which cache lines are resident, their dirty bits, and drives the
replacement policy.  Addresses are *line* addresses (byte address //
line_size); the :class:`~repro.cache.cache.Cache` handles byte-level
slicing.

The store works on *runs* of consecutive lines: :meth:`TagStore.lookup_range`,
:meth:`TagStore.fill_range` and :meth:`TagStore.invalidate_range` each walk
their lines in one local loop, so a cache pays one Python call per
transaction or miss run rather than one per line.  State lives in flat
lists indexed by *slot* (``set_index * assoc + way``): the resident line
and dirty bit of every way.  A free slot's dirty bit is stale and never
read: every fill overwrites it.

Replacement state is the policy's per-set victim order
(:mod:`repro.cache.replacement`).  The loops apply its rule inline: a
hit (LRU) or a fill moves the way to the back with one ``remove`` and
one ``append`` on the set's ``bytearray``, and a full set evicts the
front way, read directly, so an eviction costs no scan of the set and
no policy call.  Only ``random`` asks :meth:`ReplacementPolicy.victim`
per eviction.  The per-line methods (:meth:`access`, :meth:`fill`,
:meth:`invalidate`) are one-line runs of the same operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import (
    MAX_ASSOC,
    ReplacementPolicy,
    make_policy,
    policy_class,
)


def check_geometry(size: int, assoc: int, line_size: int, policy: str) -> None:
    """Raise ValueError naming the first bad field of a cache geometry."""
    if size <= 0:
        raise ValueError(f"size: cache size must be positive, got {size}")
    if assoc <= 0:
        raise ValueError(f"assoc: associativity must be positive, got {assoc}")
    if assoc > MAX_ASSOC:
        raise ValueError(
            f"assoc: associativity must be at most {MAX_ASSOC}, got {assoc}"
        )
    if line_size <= 0 or line_size & (line_size - 1):
        raise ValueError(
            f"line_size: line size must be a power of two, got {line_size}"
        )
    if size % (assoc * line_size):
        raise ValueError(
            f"size: {size} not divisible by assoc*line_size "
            f"({assoc}*{line_size})"
        )
    policy_class(policy)


class TagStore:
    """Tags for a set-associative cache.

    Parameters
    ----------
    size:
        Capacity in bytes.
    assoc:
        Associativity (ways per set).
    line_size:
        Bytes per line (power of two).
    policy:
        Replacement policy name ('lru', 'fifo', 'random').
    """

    def __init__(
        self, size: int, assoc: int, line_size: int = 64, policy: str = "lru"
    ) -> None:
        check_geometry(size, assoc, line_size, policy)
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size // (assoc * line_size)
        self.policy: ReplacementPolicy = make_policy(policy, self.num_sets, assoc)
        slots = self.num_sets * assoc
        self._lines: List[Optional[int]] = [None] * slots
        self._dirty: List[bool] = [False] * slots
        # line -> slot for O(1) lookup.
        self._where: Dict[int, int] = {}
        self._occupancy: List[int] = [0] * self.num_sets
        self._all_ways = list(range(assoc))

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def lookup_range(
        self, first: int, count: int, dirty: bool = False
    ) -> Tuple[int, List[Tuple[int, int]]]:
        """Look up ``count`` lines from ``first`` with recency update.

        Returns ``(hits, miss_runs)``: the number of resident lines and the
        missing ones as ascending ``(start, length)`` runs.  With ``dirty``
        every resident line is marked dirty.
        """
        where = self._where
        policy = self.policy
        orders = policy.orders if policy.stamp_on_touch else None
        num_sets = self.num_sets
        assoc = self.assoc
        dirty_bits = self._dirty
        hits = 0
        runs: List[Tuple[int, int]] = []
        run_start = None
        stop = first + count
        for line in range(first, stop):
            slot = where.get(line)
            if slot is None:
                if run_start is None:
                    run_start = line
                continue
            if run_start is not None:
                runs.append((run_start, line - run_start))
                run_start = None
            hits += 1
            if orders is not None:
                order = orders[line % num_sets]
                way = slot % assoc
                order.remove(way)
                order.append(way)
            if dirty:
                dirty_bits[slot] = True
        if run_start is not None:
            runs.append((run_start, stop - run_start))
        if hits and orders is not None:
            policy.reordered = True
        return hits, runs

    def fill_range(
        self, first: int, count: int, dirty: bool = False
    ) -> Tuple[int, List[int]]:
        """Insert ``count`` lines from ``first``, in order.

        Filling a line that is already resident just ORs in ``dirty`` and
        updates its recency.  Returns ``(evicted, dirty_victims)``: how
        many lines were evicted, and the dirty ones in eviction order.
        """
        where = self._where
        lines = self._lines
        dirty_bits = self._dirty
        occupancy = self._occupancy
        num_sets = self.num_sets
        assoc = self.assoc
        policy = self.policy
        orders = policy.orders
        touch = policy.stamp_on_touch
        insert = policy.stamp_on_insert
        all_ways = self._all_ways
        evicted = 0
        dirty_victims: List[int] = []
        for line in range(first, first + count):
            slot = where.get(line)
            set_index = line % num_sets
            if slot is not None:
                if dirty:
                    dirty_bits[slot] = True
                if touch:
                    order = orders[set_index]
                    way = slot % assoc
                    order.remove(way)
                    order.append(way)
                continue
            base = set_index * assoc
            if occupancy[set_index] < assoc:
                slot = lines.index(None, base, base + assoc)
                occupancy[set_index] += 1
            else:
                if orders is not None:
                    slot = base + orders[set_index][0]
                else:
                    slot = base + policy.victim(set_index, all_ways)
                victim = lines[slot]
                del where[victim]
                evicted += 1
                if dirty_bits[slot]:
                    dirty_victims.append(victim)
            lines[slot] = line
            dirty_bits[slot] = dirty
            where[line] = slot
            if insert:
                order = orders[set_index]
                way = slot - base
                order.remove(way)
                order.append(way)
        if orders is not None:
            policy.reordered = True
        return evicted, dirty_victims

    def invalidate_range(self, first: int, count: int) -> Tuple[int, List[int]]:
        """Drop the resident lines among ``count`` lines from ``first``.

        Returns ``(dropped, dirty_lines)``: how many lines were resident,
        and the dirty ones in ascending order.
        """
        where = self._where
        dirty_lines: List[int] = []
        if not where:
            return 0, dirty_lines
        lines = self._lines
        dirty_bits = self._dirty
        occupancy = self._occupancy
        assoc = self.assoc
        dropped = 0
        for line in range(first, first + count):
            slot = where.pop(line, None)
            if slot is None:
                continue
            dropped += 1
            if dirty_bits[slot]:
                dirty_lines.append(line)
            lines[slot] = None
            occupancy[slot // assoc] -= 1
        return dropped, dirty_lines

    # ------------------------------------------------------------------
    # Per-line operations
    # ------------------------------------------------------------------
    def set_index_of(self, line: int) -> int:
        return line % self.num_sets

    def probe(self, line: int) -> bool:
        """True if ``line`` is resident; does not update recency."""
        return line in self._where

    def access(self, line: int) -> bool:
        """Lookup with recency update; True on hit."""
        return self.lookup_range(line, 1)[0] == 1

    def is_dirty(self, line: int) -> bool:
        slot = self._where.get(line)
        return slot is not None and self._dirty[slot]

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; return evicted ``(line, was_dirty)`` if any.

        Filling a line that is already resident just updates its dirty bit
        (logical OR) and recency.
        """
        base = self.set_index_of(line) * self.assoc
        stop = base + self.assoc
        lines_before = self._lines[base:stop]
        dirty_before = self._dirty[base:stop]
        if not self.fill_range(line, 1, dirty)[0]:
            return None
        way = self._where[line] - base
        return lines_before[way], dirty_before[way]

    def mark_dirty(self, line: int) -> None:
        """Set the dirty bit of a resident line."""
        slot = self._where.get(line)
        if slot is None:
            raise KeyError(f"line {line:#x} not resident")
        self._dirty[slot] = True

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; returns True if it was dirty."""
        return bool(self.invalidate_range(line, 1)[1])

    def reset(self) -> None:
        """Empty every set and rewind the replacement policy."""
        if self._where:
            self._lines = [None] * len(self._lines)
            self._where.clear()
            self._occupancy = [0] * self.num_sets
        self.policy.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return len(self._where)

    def __contains__(self, line: int) -> bool:
        return line in self._where
