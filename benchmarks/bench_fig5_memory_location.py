"""Fig. 5 -- impact of DRAM type and location (device vs host side).

Paper setup: ramulator-backed DRAM models; device-side memory vs
host-side memory behind 2 GB/s and 64 GB/s PCIe links, across DDR4, HBM,
GDDR5 and LPDDR5.  Expected shape: device-side wins for every memory
type; the fast-PCIe host config reaches roughly 78% of device-side
performance; the device-vs-host gap is largest for the high-bandwidth
memories (HBM/GDDR).

Methodology notes: host-side runs use the DM access
method so that reduced-scale LLC retention does not mask the memory
system, and the systolic array is configured with a wide ingest port so
the memory system is the binding constraint, as in the paper's setup.
"""

from conftest import banner, scaled, sweep_options

from repro import format_table
from repro.sweep import build_sweep, run_sweep
from repro.sweep.experiments import FIG5_MEMORIES as MEMORIES


def _run_study(size: int) -> dict:
    spec = build_sweep("fig5-memory", size=size)
    return run_sweep(spec, **sweep_options()).results()


def test_fig5_memory_location(benchmark, repro_mode):
    size = scaled(256, 2048)

    results = benchmark.pedantic(
        lambda: _run_study(size), rounds=1, iterations=1
    )

    banner(f"Fig. 5: DRAM type and location, GEMM {size}")
    baseline = results[("DDR4-2400", "device")].ticks
    rows = []
    for mem in MEMORIES:
        dev = results[(mem.name, "device")].ticks
        slow = results[(mem.name, "host-2GB")].ticks
        fast = results[(mem.name, "host-64GB")].ticks
        rows.append(
            (
                mem.name,
                f"{baseline / dev:.2f}",
                f"{baseline / slow:.2f}",
                f"{baseline / fast:.2f}",
                f"{100 * dev / fast:.0f}%",
            )
        )
    print(format_table(
        ["memory", "device", "host @2GB/s", "host @64GB/s",
         "fast host vs device"],
        rows,
        title="normalized speedup w.r.t. device-side DDR4 "
              "(paper: host@64GB/s ~ 78% of device)",
    ))

    # Shape assertions ------------------------------------------------
    for mem in MEMORIES:
        dev = results[(mem.name, "device")].ticks
        slow = results[(mem.name, "host-2GB")].ticks
        fast = results[(mem.name, "host-64GB")].ticks
        assert dev <= fast <= slow, f"location ordering violated for {mem.name}"
    # Fast host achieves a large fraction of device performance.
    hbm_ratio = (
        results[("HBM2", "device")].ticks
        / results[("HBM2", "host-64GB")].ticks
    )
    assert 0.4 < hbm_ratio <= 1.0
    # The device advantage is biggest for HBM2 (highest bandwidth).
    gaps = {
        mem.name: results[(mem.name, "host-64GB")].ticks
        / results[(mem.name, "device")].ticks
        for mem in MEMORIES
    }
    assert gaps["HBM2"] == max(gaps.values())
