"""Unit tests for the device memory controller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.accel.devmem import DeviceMemory
from repro.core.runner import GemmRunner, system_for
from repro.memory.addr_range import AddrRange
from repro.memory.dram.devices import DDR4_2400, HBM2
from repro.memory.physmem import PhysicalMemory
from repro.sim.eventq import Simulator
from repro.sim.ticks import ns, serialization_ticks, ticks_to_seconds
from repro.sim.transaction import Transaction

GB = 10**9
RANGE = AddrRange(0x8_0000_0000, 0x8_0000_0000 + (1 << 24))


def make_simple(latency=ns(40), bandwidth=64 * GB, backing=False):
    sim = Simulator()
    store = PhysicalMemory(RANGE) if backing else None
    devmem = DeviceMemory(
        sim, "devmem", RANGE,
        simple_latency=latency, simple_bandwidth=bandwidth, backing=store,
    )
    return sim, devmem


class TestSimpleBackend:
    def test_access_latency_includes_controller(self):
        sim, devmem = make_simple(latency=ns(40))
        done = []
        devmem.send(
            Transaction.read(RANGE.start, 64), lambda t: done.append(sim.now)
        )
        sim.run()
        serialize = serialization_ticks(64, 64 * GB)
        assert done[0] == devmem.ctrl_latency + serialize + ns(40)

    def test_counts_accesses(self):
        sim, devmem = make_simple()
        for i in range(5):
            devmem.send(
                Transaction.read(RANGE.start + i * 64, 64), lambda t: None
            )
        sim.run()
        assert devmem.stats["accesses"].value == 5

    def test_functional_round_trip(self):
        sim, devmem = make_simple(backing=True)
        payload = np.arange(128, dtype=np.uint8)
        devmem.send(
            Transaction.write(RANGE.start, 128, payload), lambda t: None
        )
        got = []
        devmem.send(
            Transaction.read(RANGE.start, 128), lambda t: got.append(t.data)
        )
        sim.run()
        np.testing.assert_array_equal(got[0], payload)


class TestDRAMBackend:
    def test_dram_timing_model_used(self):
        sim = Simulator()
        devmem = DeviceMemory(sim, "devmem", RANGE, timings=HBM2)
        total = 1 << 20
        addr = RANGE.start
        while addr < RANGE.start + total:
            devmem.send(Transaction.read(addr, 4096), lambda t: None)
            addr += 4096
        sim.run()
        achieved = total / ticks_to_seconds(sim.now)
        # Streams approach, but never exceed, the HBM2 peak.
        assert 0.5 * HBM2.total_bandwidth < achieved <= HBM2.total_bandwidth

    def test_dram_beats_slow_simple(self):
        sim_a = Simulator()
        fast = DeviceMemory(sim_a, "d", RANGE, timings=HBM2)
        for i in range(64):
            fast.send(Transaction.read(RANGE.start + i * 4096, 4096),
                      lambda t: None)
        sim_a.run()

        sim_b, slow = make_simple(bandwidth=2 * GB)
        for i in range(64):
            slow.send(Transaction.read(RANGE.start + i * 4096, 4096),
                      lambda t: None)
        sim_b.run()
        assert sim_a.now < sim_b.now


class TestAddressCheck:
    def test_out_of_range_send_raises_before_anything_is_queued(self):
        sim, devmem = make_simple()
        with pytest.raises(ValueError, match="devmem"):
            devmem.send(Transaction.read(RANGE.end, 64), lambda t: None)
        assert sim.pending_events == 0
        assert devmem.stats["accesses"].value == 0

    def test_system_devmem_names_itself(self):
        system = system_for(SystemConfig.devmem_system())
        with pytest.raises(ValueError, match=r"^system\.devmem: "):
            system.devmem.send(
                Transaction.read(system.devmem_range.start - 64, 64),
                lambda t: None,
            )
        assert system.sim.pending_events == 0


class HopDeviceMemory(DeviceMemory):
    """Reference front-end: one scheduled controller hop per access, then
    ``memory.send`` at the arrival tick (the model before the hop was
    folded into :meth:`DeviceMemory.send`)."""

    def send(self, txn, on_complete):
        self._accesses.inc()
        memory_send = self.memory.send
        self.sim.schedule(
            self.ctrl_latency, lambda: memory_send(txn, on_complete)
        )


BACKENDS = {
    "hbm2": {"timings": HBM2},
    "ddr4": {"timings": DDR4_2400},
    "simple": {"simple_latency": ns(40), "simple_bandwidth": 16 * GB},
}

#: One access: (ticks after the previous issue, is_read, 64-byte block,
#: bytes, issue a follow-up write from the completion callback).
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, ns(3), ns(40), ns(400)]),
        st.booleans(),
        st.integers(0, 4095),
        st.sampled_from([1, 64, 100, 256, 1024, 4096, 5000]),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def drive(cls, backend, ops):
    """Issue ``ops`` through a fresh ``cls`` front-end; return the
    ``(tick, relative txn id)`` completion sequence and every stat."""
    sim = Simulator()
    devmem = cls(sim, "devmem", RANGE, **BACKENDS[backend])
    first_id = Transaction.read(RANGE.start, 1).id + 1
    completions = []

    def done(txn):
        completions.append((sim.now, txn.id - first_id))

    def chained(txn):
        done(txn)
        devmem.send(Transaction.write(txn.addr + 8192, 64), done)

    when = 0
    for gap, is_read, block, size, chain in ops:
        when += gap
        addr = RANGE.start + block * 64
        make = Transaction.read if is_read else Transaction.write
        callback = chained if chain else done
        sim.schedule(when, lambda m=make, a=addr, n=size, c=callback:
                     devmem.send(m(a, n), c))
    sim.run()
    stats = dict(devmem.stats.flatten())
    stats.update(devmem.memory.stats.flatten())
    return completions, stats, sim.now


class TestHopFold:
    """Handing the memory its arrival tick is exact: same completions, in
    the same order, at the same ticks, with the same controller stats
    as the scheduled hop."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @settings(max_examples=40, deadline=None)
    @given(ops=ops_strategy)
    def test_fold_matches_scheduled_hop(self, backend, ops):
        reference = drive(HopDeviceMemory, backend, ops)
        folded = drive(DeviceMemory, backend, ops)
        assert folded == reference
        completions, stats, _ = folded
        expected = len(ops) + sum(op[4] for op in ops)
        assert len(completions) == expected
        assert stats["devmem.accesses"] == expected


class TestDevMemConservation:
    """After a drained DevMem GEMM every segment was answered once."""

    def test_gemm_point_leaves_devmem_path_at_rest(self):
        system = system_for(SystemConfig.devmem_system())
        GemmRunner().drive(system, m=64, k=64, n=64)
        dma = system.wrapper.dma
        assert dma.tags_in_use == 0
        assert dma.idle
        assert system.sim.queue.peek_tick() is None

        devmem = system.devmem.stats
        dma_stats = dma.stats
        dram = system.devmem.memory.stats
        segments = dma_stats["segments"].value
        assert segments > 0
        assert devmem["accesses"].value == segments
        assert dram["reads"].value + dram["writes"].value == segments
        assert dram["bytes"].value == (
            dma_stats["bytes_read"].value + dma_stats["bytes_written"].value
        )
