"""Unit and property tests for the cache hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheParams, TagStore, make_policy
from repro.memory.addr_range import AddrRange
from repro.memory.physmem import PhysicalMemory
from repro.memory.simple import SimpleMemory
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns
from repro.sim.transaction import Transaction

GB = 10**9


def make_cache(size=4096, assoc=4, mshrs=16, mem_latency=ns(100), **kw):
    sim = Simulator()
    mem = FixedLatencyTarget(sim, "mem", latency=mem_latency)
    params = CacheParams(size=size, assoc=assoc, hit_latency=ns(2),
                         miss_latency=ns(2), mshrs=mshrs, **kw)
    cache = Cache(sim, "l1", params, mem)
    return sim, cache, mem


def do_access(sim, cache, addr, size, write=False):
    """Send one access and return its completion tick."""
    done = []
    txn = Transaction.write(addr, size) if write else Transaction.read(addr, size)
    cache.send(txn, lambda t: done.append(sim.now))
    sim.run()
    return done[0]


class TestReplacementPolicies:
    def test_lru_evicts_least_recent(self):
        policy = make_policy("lru", num_sets=1, assoc=4)
        for way in range(4):
            policy.insert(0, way)
        policy.touch(0, 0)  # way 0 is now most recent
        assert policy.victim(0, [0, 1, 2, 3]) == 1

    def test_fifo_ignores_touches(self):
        policy = make_policy("fifo", num_sets=1, assoc=4)
        for way in range(4):
            policy.insert(0, way)
        policy.touch(0, 0)
        assert policy.victim(0, [0, 1, 2, 3]) == 0

    @pytest.mark.parametrize("name", ["lru", "fifo"])
    def test_fresh_and_reset_sets_evict_way_zero(self, name):
        policy = make_policy(name, num_sets=2, assoc=4)
        assert policy.victim(1, [0, 1, 2, 3]) == 0
        for way in (2, 0, 1, 3):
            policy.insert(1, way)
        assert policy.victim(1, [0, 1, 2, 3]) == 2
        policy.reset()
        assert policy.victim(1, [0, 1, 2, 3]) == 0

    @pytest.mark.parametrize("name", ["lru", "fifo"])
    def test_unstamped_ways_are_evicted_lowest_first(self, name):
        policy = make_policy(name, num_sets=1, assoc=4)
        policy.insert(0, 1)
        policy.insert(0, 3)
        victims = []
        for _ in range(4):
            victims.append(policy.victim(0, [0, 1, 2, 3]))
            policy.insert(0, victims[-1])
        assert victims == [0, 2, 1, 3]

    @pytest.mark.parametrize("name", ["lru", "fifo"])
    def test_refilled_way_becomes_newest(self, name):
        tags = TagStore(size=256, assoc=4, line_size=64, policy=name)  # 1 set
        tags.fill_range(0, 4)  # ways 0..3 in fill order
        assert tags.invalidate(1) is False  # frees way 1, moves nothing
        assert tags.fill(4) is None  # refills way 1 as the newest
        victims = [tags.fill(line)[0] for line in range(5, 9)]
        assert victims == [0, 2, 3, 4]

    def test_random_is_seeded(self):
        a = make_policy("random", 1, 8)
        b = make_policy("random", 1, 8)
        picks_a = [a.victim(0, list(range(8))) for _ in range(10)]
        picks_b = [b.victim(0, list(range(8))) for _ in range(10)]
        assert picks_a == picks_b

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("plru", 1, 4)


class TestTagStore:
    def test_fill_then_hit(self):
        tags = TagStore(size=1024, assoc=2, line_size=64)
        assert not tags.access(5)
        assert tags.fill(5) is None
        assert tags.access(5)

    def test_eviction_on_full_set(self):
        tags = TagStore(size=256, assoc=2, line_size=64)  # 2 sets
        # Lines 0, 2, 4 all map to set 0.
        tags.fill(0)
        tags.fill(2)
        victim = tags.fill(4)
        assert victim == (0, False)
        assert not tags.probe(0)
        assert tags.probe(2) and tags.probe(4)

    def test_dirty_eviction_reported(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill(0)
        tags.mark_dirty(0)
        tags.fill(2)
        victim = tags.fill(4)
        assert victim == (0, True)

    def test_refill_merges_dirty(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill(7, dirty=True)
        assert tags.fill(7, dirty=False) is None
        assert tags.is_dirty(7)

    def test_invalidate(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill(3, dirty=True)
        assert tags.invalidate(3) is True
        assert not tags.probe(3)
        assert tags.invalidate(3) is False

    def test_mark_dirty_missing_line(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        with pytest.raises(KeyError):
            tags.mark_dirty(99)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TagStore(size=1000, assoc=3, line_size=64)
        with pytest.raises(ValueError):
            TagStore(size=1024, assoc=2, line_size=60)

    def test_lru_order_respected(self):
        tags = TagStore(size=256, assoc=2, line_size=64)  # 2 sets
        tags.fill(0)
        tags.fill(2)
        tags.access(0)  # 0 most recent; victim should be 2
        victim = tags.fill(4)
        assert victim[0] == 2


class TestCacheTiming:
    def test_miss_then_hit_faster(self):
        sim, cache, _ = make_cache()
        t_miss = do_access(sim, cache, 0, 64)
        start = sim.now
        t_hit = do_access(sim, cache, 0, 64) - start
        assert t_miss >= ns(100)
        assert t_hit <= ns(4)

    def test_hit_and_miss_counters(self):
        sim, cache, _ = make_cache()
        do_access(sim, cache, 0, 128)       # 2 lines miss
        do_access(sim, cache, 0, 128)       # 2 lines hit
        assert cache.stats["misses"].value == 2
        assert cache.stats["hits"].value == 2
        assert cache.hit_rate == 0.5

    def test_partial_hit_fetches_only_missing(self):
        sim, cache, mem = make_cache()
        do_access(sim, cache, 0, 64)   # line 0 misses
        do_access(sim, cache, 0, 192)  # line 0 hit, lines 1-2 miss
        assert cache.stats["hits"].value == 1
        assert cache.stats["misses"].value == 3
        # Lines 1-2 are contiguous -> one coalesced fetch (plus the first).
        assert mem.stats["transactions"].value == 2

    def test_write_allocate_marks_dirty(self):
        sim, cache, _ = make_cache()
        do_access(sim, cache, 0, 64, write=True)
        assert cache.tags.is_dirty(0)

    def test_dirty_eviction_writes_back(self):
        sim, cache, mem = make_cache(size=256, assoc=2)  # 2 sets, 4 lines
        do_access(sim, cache, 0, 64, write=True)      # line 0, set 0
        do_access(sim, cache, 128, 64)                # line 2, set 0
        do_access(sim, cache, 256, 64)                # line 4, set 0: evicts 0
        sim.run()
        assert cache.stats["writebacks"].value == 1

    def test_write_no_allocate_forwards(self):
        sim, cache, mem = make_cache(write_allocate=False)
        do_access(sim, cache, 0, 64, write=True)
        assert cache.tags.resident_lines == 0
        assert mem.stats["transactions"].value == 1

    def test_mshr_limit_serializes(self):
        sim_few, cache_few, _ = make_cache(mshrs=1, mem_latency=ns(100))
        done_few = []
        for i in range(4):
            cache_few.send(
                Transaction.read(i * 4096, 64),
                lambda t: done_few.append(sim_few.now),
            )
        sim_few.run()

        sim_many, cache_many, _ = make_cache(mshrs=8, mem_latency=ns(100))
        done_many = []
        for i in range(4):
            cache_many.send(
                Transaction.read(i * 4096, 64),
                lambda t: done_many.append(sim_many.now),
            )
        sim_many.run()
        assert max(done_few) > max(done_many)

    def test_invalidate_range_drops_lines(self):
        sim, cache, _ = make_cache()
        do_access(sim, cache, 0, 256)
        assert cache.tags.resident_lines == 4
        dropped = cache.invalidate_range(0, 128)
        assert dropped == 2
        assert cache.tags.resident_lines == 2

    def test_invalidate_dirty_generates_writeback(self):
        sim, cache, mem = make_cache()
        do_access(sim, cache, 0, 64, write=True)
        cache.invalidate_range(0, 64)
        sim.run()
        assert cache.stats["writebacks"].value == 1


class TestCacheFunctional:
    def test_read_your_writes_through_cache(self):
        sim = Simulator()
        store = PhysicalMemory(AddrRange(0, 1 << 20))
        mem = SimpleMemory(sim, "mem", AddrRange(0, 1 << 20), ns(50), 10 * GB, store)
        cache = Cache(sim, "l1", CacheParams(size=4096, assoc=4), mem, store)
        payload = np.arange(64, dtype=np.uint8)
        cache.send(Transaction.write(0, 64, payload), lambda t: None)
        got = []
        cache.send(Transaction.read(0, 64), lambda t: got.append(t.data))
        sim.run()
        np.testing.assert_array_equal(got[0], payload)


class TestCacheProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=60
        )
    )
    def test_resident_never_exceeds_capacity(self, addrs):
        tags = TagStore(size=1024, assoc=2, line_size=64)  # 16 lines
        for line in addrs:
            tags.fill(line)
        assert tags.resident_lines <= 16

    @settings(max_examples=30, deadline=None)
    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=40
        )
    )
    def test_repeat_access_after_fill_always_hits(self, addrs):
        """Filling then immediately accessing the same line always hits."""
        tags = TagStore(size=2048, assoc=4, line_size=64)
        for line in addrs:
            tags.fill(line)
            assert tags.access(line)

    @settings(max_examples=20, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2048 - 64),
                st.sampled_from([64, 128, 256]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_hits_plus_misses_equals_lines(self, accesses):
        sim, cache, _ = make_cache(size=1024, assoc=4)
        total_lines = 0
        for addr, size in accesses:
            addr = (addr // 64) * 64
            total_lines += Transaction.read(addr, size).num_lines(64)
            cache.send(Transaction.read(addr, size), lambda t: None)
            sim.run()
        got = cache.stats["hits"].value + cache.stats["misses"].value
        assert got == total_lines
