"""Telemetry: span tracing, time-series metrics, layer profiles.

Three observability primitives for the simulator (docs/OBSERVABILITY.md):

* :mod:`repro.telemetry.tracer` -- tick-domain spans (DMA descriptor
  lifecycles, TLP trains per link hop, fault retrain/down-train
  windows) exported as deterministic Chrome
  trace-event JSON, loadable in Perfetto.
* :mod:`repro.telemetry.metrics` -- periodic StatGroup delta snapshots
  in a bounded ring buffer, with a Prometheus text exposition writer.
* :mod:`repro.telemetry.profiler` -- a cProfile of each simulated
  point, taken by the sweep engine outside the simulator and grouped
  by ``repro`` subpackage into host time per layer.

Sessions are process-global (:func:`activate` / :func:`deactivate`,
inherited by sweep pool workers through an environment variable) and
never touch cache keys or result records: telemetry observes a
simulation, it does not participate in one.  Disabled -- the default --
every hook is ``None`` and the golden-value tests pin bit-identical
results; the import itself is gated below 2% run-loop overhead by
``benchmarks/bench_perf_core.py``'s ``tracer_off_overhead`` metric.
"""

from repro.telemetry.metrics import MetricsSampler, render_prometheus
from repro.telemetry.profiler import layer_of
from repro.telemetry.runtime import TelemetryRuntime
from repro.telemetry.state import (
    TELEMETRY_ENV,
    TelemetrySettings,
    activate,
    active,
    current_runtime,
    deactivate,
    drain_point,
    on_system_acquired,
)
from repro.telemetry.tracer import (
    TRACER,
    NullTracer,
    SpanTracer,
    validate_chrome_trace,
)

__all__ = [
    "TELEMETRY_ENV",
    "MetricsSampler",
    "NullTracer",
    "SpanTracer",
    "TRACER",
    "TelemetryRuntime",
    "TelemetrySettings",
    "activate",
    "active",
    "current_runtime",
    "deactivate",
    "drain_point",
    "layer_of",
    "on_system_acquired",
    "render_prometheus",
    "validate_chrome_trace",
]
