#!/usr/bin/env python3
"""Memory hierarchy study: device-side vs host-side, and memory types.

A compact version of the paper's Fig. 5 and Fig. 6 studies:

1. compare GEMM performance with data in device-side memory vs host-side
   memory behind slow and fast PCIe links, across DRAM technologies;
2. sweep device-memory bandwidth and latency independently and observe
   that the accelerator is far more sensitive to bandwidth.

A wide-ingest systolic array (8 elements/cycle) is used so the memory
system, not the array, is the binding constraint, and host-side runs use
the DM access method so memory technology is measured rather than LLC
retention at reduced scale (the same methodology as the Fig. 5/6 sweeps
in ``repro.sweep.experiments``).

Run:  python examples/memory_hierarchy_study.py
"""

from repro import AccessMode, SystemConfig, format_table, run_gemm
from repro.accel.systolic import SystolicParams
from repro.memory.dram.devices import DDR4_2400, GDDR5, HBM2, LPDDR5
from repro.sim.ticks import ns

SIZE = 128
WIDE_SA = SystolicParams(ingest_elems=8)
GB = 10**9


def location_study() -> None:
    print("=" * 68)
    print(f"Device-side vs host-side memory ({SIZE}x{SIZE} GEMM, Fig. 5 style)")
    print("=" * 68)
    rows = []
    baseline_ticks = None
    for mem in (DDR4_2400, HBM2, GDDR5, LPDDR5):
        dev = run_gemm(
            SystemConfig.devmem_system(devmem=mem, systolic=WIDE_SA),
            SIZE, SIZE, SIZE,
        )
        host_slow = run_gemm(
            SystemConfig.pcie_2gb(
                host_mem=mem, systolic=WIDE_SA,
                access_mode=AccessMode.DIRECT_MEMORY,
            ),
            SIZE, SIZE, SIZE,
        )
        host_fast = run_gemm(
            SystemConfig.pcie_64gb(
                host_mem=mem, systolic=WIDE_SA,
                access_mode=AccessMode.DIRECT_MEMORY,
            ),
            SIZE, SIZE, SIZE,
        )
        if baseline_ticks is None:
            baseline_ticks = dev.ticks  # normalize to device-side DDR4
        rows.append(
            (
                mem.name,
                f"{baseline_ticks / dev.ticks:.2f}",
                f"{baseline_ticks / host_slow.ticks:.2f}",
                f"{baseline_ticks / host_fast.ticks:.2f}",
                f"{dev.ticks / host_fast.ticks:.2f}",
            )
        )
    print(
        format_table(
            [
                "memory",
                "device-side",
                "host @2GB/s",
                "host @64GB/s",
                "fast-host/device",
            ],
            rows,
            title="Normalized speedup (w.r.t. device-side DDR4)",
        )
    )
    print()


def bandwidth_latency_study() -> None:
    print("=" * 68)
    print("Device-memory bandwidth & latency sweeps (Fig. 6 style)")
    print("=" * 68)
    base = SystemConfig.devmem_system(devmem=None, systolic=WIDE_SA)

    rows = []
    times = {}
    for bw_gb in (2, 8, 25, 50, 100, 256):
        config = base.with_(devmem_simple=(ns(40), bw_gb * GB))
        result = run_gemm(config, SIZE, SIZE, SIZE)
        times[bw_gb] = result.ticks
        rows.append((bw_gb, f"{result.seconds * 1e6:.1f}"))
    print(format_table(["bandwidth GB/s", "exec us"], rows,
                       title="(a) bandwidth sweep at 40 ns latency"))
    gain = 100 * (times[2] - times[50]) / times[2]
    tail = 100 * (times[50] - times[256]) / times[50]
    print(f"  2 -> 50 GB/s improves {gain:.1f}%; 50 -> 256 GB/s only {tail:.1f}%\n")

    rows = []
    times = {}
    for lat_ns in (1, 6, 12, 24, 36):
        config = base.with_(devmem_simple=(ns(lat_ns), 64 * GB))
        result = run_gemm(config, SIZE, SIZE, SIZE)
        times[lat_ns] = result.ticks
        rows.append((lat_ns, f"{result.seconds * 1e6:.1f}"))
    print(format_table(["latency ns", "exec us"], rows,
                       title="(b) latency sweep at 64 GB/s"))
    overhead = 100 * (times[36] - times[1]) / times[1]
    print(f"  1 -> 36 ns adds only {overhead:.1f}% (pipelining hides latency)")


if __name__ == "__main__":
    location_study()
    bandwidth_latency_study()
