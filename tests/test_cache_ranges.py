"""Run-granular tag operations against a per-line reference model.

``RefTags`` below is the classic per-line tag store: one lookup, fill or
invalidate per line, one replacement-policy call per touch, fill and
victim choice.  The range operations of :class:`repro.cache.TagStore`
must reproduce it exactly -- hit counts, missing lines, evictions, the
order of dirty victims, residency and dirty bits -- for every policy,
including the seeded RNG call sequence of ``random``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheParams, TagStore

POLICIES = ["lru", "fifo", "random"]
# (size, assoc, line_size): 2-way/2 sets, 4-way/4 sets, direct-mapped,
# 8-way with 32-byte lines, one 16-way set (the LLC's associativity,
# still full within MAX_LINE lines), and 3-way/2 sets (an associativity
# that is not a power of two).
GEOMETRIES = [(256, 2, 64), (1024, 4, 64), (512, 1, 64), (2048, 8, 32),
              (1024, 16, 64), (384, 3, 64)]
# Few distinct lines and short runs, so sets fill, hit and evict often.
MAX_LINE = 24
MAX_RUN = 8
MIN_OPS = 20


class RefPolicy:
    """Per-set stamps (LRU/FIFO) or a seeded RNG (random), per line."""

    def __init__(self, name, num_sets, assoc):
        self.name = name
        self.stamp = 0
        self.stamps = [[0] * assoc for _ in range(num_sets)]
        self.rng = random.Random(1)

    def _restamp(self, set_index, way):
        self.stamp += 1
        self.stamps[set_index][way] = self.stamp

    def touch(self, set_index, way):
        if self.name == "lru":
            self._restamp(set_index, way)

    def insert(self, set_index, way):
        if self.name in ("lru", "fifo"):
            self._restamp(set_index, way)

    def victim(self, set_index, ways):
        if self.name == "random":
            return self.rng.choice(ways)
        return min(ways, key=self.stamps[set_index].__getitem__)


class RefTags:
    """One way object per way; every operation walks one line at a time."""

    def __init__(self, size, assoc, line_size, policy):
        self.assoc = assoc
        self.num_sets = size // (assoc * line_size)
        self.policy_name = policy
        self.reset()

    def reset(self):
        self.ways = [[[None, False] for _ in range(self.assoc)]
                     for _ in range(self.num_sets)]
        self.where = {}
        self.occupancy = [0] * self.num_sets
        self.policy = RefPolicy(self.policy_name, self.num_sets, self.assoc)

    def access(self, line, dirty=False):
        loc = self.where.get(line)
        if loc is None:
            return False
        self.policy.touch(*loc)
        if dirty:
            self.ways[loc[0]][loc[1]][1] = True
        return True

    def fill(self, line, dirty=False):
        loc = self.where.get(line)
        if loc is not None:
            way = self.ways[loc[0]][loc[1]]
            way[1] = way[1] or dirty
            self.policy.touch(*loc)
            return None
        set_index = line % self.num_sets
        ways = self.ways[set_index]
        victim = None
        if self.occupancy[set_index] < self.assoc:
            index = next(i for i, w in enumerate(ways) if w[0] is None)
            self.occupancy[set_index] += 1
        else:
            index = self.policy.victim(set_index, list(range(self.assoc)))
            victim = tuple(ways[index])
            del self.where[victim[0]]
        ways[index][:] = [line, dirty]
        self.where[line] = (set_index, index)
        self.policy.insert(set_index, index)
        return victim

    def invalidate(self, line):
        loc = self.where.pop(line, None)
        if loc is None:
            return None
        way = self.ways[loc[0]][loc[1]]
        dirty = way[1]
        way[:] = [None, False]
        self.occupancy[loc[0]] -= 1
        return dirty

    def resident(self):
        return {line: self.ways[s][w][1] for line, (s, w) in self.where.items()}


def resident(tags):
    return {line: tags.is_dirty(line) for line in range(MAX_LINE + MAX_RUN)
            if tags.probe(line)}


def expand(runs):
    return [line for start, length in runs
            for line in range(start, start + length)]


OP = st.tuples(
    # Weighted toward lookups and fills: recency bugs need a hit on a
    # full set's oldest way before the next eviction in that set.
    st.sampled_from(["lookup", "lookup", "lookup", "fill", "fill", "access",
                     "fill1", "invalidate", "invalidate1", "reset"]),
    st.integers(min_value=0, max_value=MAX_LINE - 1),
    st.integers(min_value=1, max_value=MAX_RUN),
    st.booleans(),
)
OPS = st.lists(OP, min_size=MIN_OPS, max_size=80)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=200, deadline=None)
@given(geometry=st.sampled_from(GEOMETRIES), ops=OPS)
def test_range_ops_match_per_line_model(policy, geometry, ops):
    size, assoc, line_size = geometry
    tags = TagStore(size, assoc, line_size, policy)
    ref = RefTags(size, assoc, line_size, policy)
    for kind, first, count, dirty in ops:
        lines = range(first, first + count)
        if kind == "lookup":
            hits, runs = tags.lookup_range(first, count, dirty)
            found = [ref.access(line, dirty) for line in lines]
            assert hits == sum(found)
            assert expand(runs) == [l for l, f in zip(lines, found) if not f]
        elif kind == "fill":
            evicted, dirty_victims = tags.fill_range(first, count, dirty)
            victims = [v for v in (ref.fill(l, dirty) for l in lines) if v]
            assert evicted == len(victims)
            assert dirty_victims == [line for line, d in victims if d]
        elif kind == "invalidate":
            dropped, dirty_lines = tags.invalidate_range(first, count)
            gone = [(l, ref.invalidate(l)) for l in lines]
            assert dropped == sum(d is not None for _, d in gone)
            assert dirty_lines == [l for l, d in gone if d]
        elif kind == "access":
            assert tags.access(first) == ref.access(first)
        elif kind == "fill1":
            assert tags.fill(first, dirty) == ref.fill(first, dirty)
        elif kind == "invalidate1":
            assert tags.invalidate(first) == bool(ref.invalidate(first))
        else:
            tags.reset()
            ref.reset()
        assert resident(tags) == ref.resident()
        assert tags.resident_lines == len(ref.where)


class TestRunShapes:
    @pytest.mark.parametrize("policy, victim", [("lru", 2), ("fifo", 0)])
    def test_range_hit_refreshes_recency_only_for_lru(self, policy, victim):
        tags = TagStore(size=256, assoc=2, line_size=64, policy=policy)
        tags.fill_range(0, 1)
        tags.fill_range(2, 1)
        tags.lookup_range(0, 1)  # line 0 becomes most recent under LRU
        tags.fill_range(4, 1)
        assert not tags.probe(victim)

    @pytest.mark.parametrize("policy, victim", [("lru", 2), ("fifo", 0)])
    def test_refill_refreshes_recency_only_for_lru(self, policy, victim):
        tags = TagStore(size=256, assoc=2, line_size=64, policy=policy)
        tags.fill_range(0, 1)
        tags.fill_range(2, 1)
        tags.fill_range(0, 1)  # resident: a touch, not an insert
        tags.fill_range(4, 1)
        assert not tags.probe(victim)

    def test_miss_runs_split_around_hits(self):
        tags = TagStore(size=4096, assoc=4, line_size=64)
        tags.fill_range(3, 2)  # lines 3, 4 resident
        hits, runs = tags.lookup_range(0, 8)
        assert hits == 2
        assert runs == [(0, 3), (5, 3)]

    def test_write_lookup_dirties_only_hits(self):
        tags = TagStore(size=4096, assoc=4, line_size=64)
        tags.fill_range(0, 2)
        tags.lookup_range(0, 4, dirty=True)
        assert tags.is_dirty(0) and tags.is_dirty(1)
        assert not tags.probe(2)

    def test_fill_range_reports_dirty_victims_in_order(self):
        tags = TagStore(size=256, assoc=1, line_size=64)  # 4 sets, 1 way
        tags.fill_range(0, 4, dirty=True)
        evicted, dirty_victims = tags.fill_range(4, 4)
        assert evicted == 4
        assert dirty_victims == [0, 1, 2, 3]


class TestGeometryValidation:
    """A bad cache geometry is refused by name when the params are built."""

    @pytest.mark.parametrize("field, overrides", [
        ("policy", {"policy": "plru"}),
        ("line_size", {"line_size": 48}),
        ("line_size", {"line_size": 0}),
        ("size", {"size": 1000}),
        ("size", {"size": 0}),
        ("assoc", {"assoc": 0}),
        ("assoc", {"assoc": 257, "size": 257 * 64}),
    ])
    def test_cache_params_name_the_bad_field(self, field, overrides):
        params = {"size": 4096, "assoc": 4, **overrides}
        with pytest.raises(ValueError, match=rf"^{field}:"):
            CacheParams(**params)

    def test_widest_set_evicts_in_fill_order(self):
        tags = TagStore(size=256 * 64, assoc=256, line_size=64)  # one set
        tags.fill_range(0, 256)
        evicted, _ = tags.fill_range(256, 2)
        assert evicted == 2
        assert not tags.probe(0) and not tags.probe(1) and tags.probe(2)

    def test_tag_store_shares_the_check(self):
        with pytest.raises(ValueError, match=r"^policy:"):
            TagStore(size=4096, assoc=4, policy="mru")

    def test_policy_name_is_case_insensitive(self):
        assert CacheParams(size=4096, assoc=4, policy="FIFO").policy == "FIFO"
