"""Cache conservation: after a drained run every cache is back at rest.

Every MSHR is returned, no miss is left queued, and each demand line
sent to a cache was counted exactly once as a hit or a miss.
"""

import pytest

from repro import SystemConfig
from repro.cache import Cache, CacheParams
from repro.core.access_modes import AccessMode
from repro.core.runner import GemmRunner, system_for
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns
from repro.sim.transaction import Transaction


@pytest.fixture
def demand_lines(monkeypatch):
    """Count the demand lines every cache receives, per cache."""
    counts = {}
    send = Cache.send

    def counting_send(self, txn, on_complete):
        counts[self] = counts.get(self, 0) + txn.num_lines(self.params.line_size)
        send(self, txn, on_complete)

    monkeypatch.setattr(Cache, "send", counting_send)
    return counts


def assert_at_rest(cache, demand):
    assert cache.mshrs_in_use == 0, cache.name
    assert not cache._mshr_queue, cache.name
    hits = cache.stats["hits"].value
    misses = cache.stats["misses"].value
    assert hits + misses == demand, cache.name


def test_mshr_limited_cache_returns_to_rest(demand_lines):
    sim = Simulator()
    mem = FixedLatencyTarget(sim, "mem", latency=ns(100))
    params = CacheParams(size=4096, assoc=4, mshrs=1)
    cache = Cache(sim, "l1", params, mem)
    for i in range(4):
        cache.send(Transaction.read(i * 4096, 64), lambda t: None)
    # The single MSHR is busy and three misses wait for it.
    assert cache.mshrs_in_use == 1
    assert len(cache._mshr_queue) == 3
    sim.run()
    assert_at_rest(cache, demand_lines[cache])
    assert demand_lines[cache] == 4


def test_dc_gemm_point_leaves_every_cache_at_rest(demand_lines):
    config = SystemConfig.pcie_8gb()
    assert config.access_mode is AccessMode.DIRECT_CACHE
    system = system_for(config)
    GemmRunner().drive(system, m=32, k=32, n=32)
    caches = [obj for obj in system.sim.objects if isinstance(obj, Cache)]
    assert system.iocache in caches
    assert demand_lines.get(system.iocache, 0) > 0
    for cache in caches:
        assert_at_rest(cache, demand_lines.get(cache, 0))
