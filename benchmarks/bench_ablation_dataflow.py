"""Ablation -- accelerator dataflow and pipelining design choices.

Not a paper figure: these sweeps quantify design decisions of the
accelerator controller (``repro.accel.controller``).

* **A-panel reuse**: the MatrixFlow streaming dataflow (implied by the
  paper's Table IV translation counts) refetches the A panel for every
  output tile; keeping it resident across a tile row halves read traffic.
* **Prefetch depth**: double buffering (depth 2) hides transfer behind
  compute; depth 1 serializes them.
* **DMA tags**: the outstanding-request budget sets the bandwidth-delay
  product the link can sustain.

Runs through the ``ablation-dataflow`` registered sweep.
"""

from conftest import banner, scaled, sweep_options

from repro import format_table
from repro.sweep import build_sweep, run_sweep


def test_ablation_dataflow(benchmark, repro_mode):
    size = scaled(128, 1024)

    def run_all():
        spec = build_sweep("ablation-dataflow", size=size)
        return run_sweep(spec, **sweep_options()).results()

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    banner(f"Ablation: dataflow/pipelining design choices, GEMM {size}")
    baseline = results["baseline (stream)"]
    rows = [
        (
            name,
            f"{r.seconds * 1e6:.1f}",
            f"{r.traffic_bytes / 1e6:.2f}",
            f"{baseline.ticks / r.ticks:.2f}x",
        )
        for name, r in results.items()
    ]
    print(format_table(
        ["variant", "exec us", "traffic MB", "speedup vs baseline"], rows
    ))

    # Reuse halves A traffic and speeds up a bandwidth-bound system.
    assert results["reuse A panels"].traffic_bytes < baseline.traffic_bytes
    assert results["reuse A panels"].ticks < baseline.ticks
    # Deeper prefetch never hurts on this workload.
    assert results["prefetch depth 4"].ticks <= results["prefetch depth 1"].ticks
    # A single outstanding request serializes round trips.
    assert results["1 DMA tag"].ticks > results["32 DMA tags"].ticks
