"""Process-global telemetry session state.

This module is deliberately tiny and import-light: the system factory
(:func:`repro.core.runner.system_for`) consults it on *every* system
acquisition, including the default untraced path, so it must not drag
the rest of the telemetry stack (tracer, sampler, profiler) into the
import footprint of ordinary sweeps.  The heavy modules are imported
lazily, and only once a session is actually active.

A session is activated either in-process (:func:`activate`) or through
the :data:`TELEMETRY_ENV` environment variable -- the channel by which
sweep pool workers (spawned after the parent exported the variable)
inherit the parent's settings without the settings riding the
content-addressed cache key.  Telemetry never changes what a point
*computes*, so it must never change what a point is *named*.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "TELEMETRY_ENV",
    "TelemetrySettings",
    "activate",
    "active",
    "current_runtime",
    "deactivate",
    "drain_point",
    "on_system_acquired",
]

#: Environment channel: a JSON-encoded :class:`TelemetrySettings`.
TELEMETRY_ENV = "REPRO_TELEMETRY"


@dataclass(frozen=True)
class TelemetrySettings:
    """What the telemetry layer should collect for each simulated point.

    Everything defaults to *off*; :attr:`enabled` is False for the
    default settings, and the instrumentation hooks stay ``None`` so the
    fault-layer precedent holds: an inactive telemetry subsystem is
    bit-identical (and, within the perf gate, cost-identical) to a tree
    without one.
    """

    #: Record tick-domain spans (DMA lifecycles, TLP trains, fault
    #: windows) and export Chrome trace JSON.
    trace: bool = False
    #: Directory for per-point trace artifacts (``<key_hash>.trace.json``).
    trace_dir: Optional[str] = None
    #: Sample StatGroup deltas every N simulated ticks (None disables).
    metrics_every: Optional[int] = None
    #: Ring-buffer capacity of the metrics sampler (samples retained).
    metrics_capacity: int = 4096
    #: Take a cProfile layer profile of each simulated point
    #: (``<key_hash>.profile.json``; see repro.telemetry.profiler).
    profile: bool = False
    #: Capture ``Simulator.diagnostics()`` per point.
    diagnostics: bool = False

    @property
    def enabled(self) -> bool:
        return bool(
            self.trace
            or self.metrics_every is not None
            or self.profile
            or self.diagnostics
        )

    def to_json(self) -> dict:
        return {
            "trace": self.trace,
            "trace_dir": self.trace_dir,
            "metrics_every": self.metrics_every,
            "metrics_capacity": self.metrics_capacity,
            "profile": self.profile,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TelemetrySettings":
        return cls(
            trace=bool(payload.get("trace", False)),
            trace_dir=payload.get("trace_dir"),
            metrics_every=payload.get("metrics_every"),
            metrics_capacity=int(payload.get("metrics_capacity", 4096)),
            profile=bool(payload.get("profile", False)),
            diagnostics=bool(payload.get("diagnostics", False)),
        )


_ACTIVE: Optional[TelemetrySettings] = None
_RUNTIME = None
#: Raw env string the cached parse below corresponds to.
_ENV_RAW: Optional[str] = None
_ENV_PARSED: Optional[TelemetrySettings] = None


def activate(settings: TelemetrySettings, *, export_env: bool = True) -> None:
    """Make ``settings`` the process-wide telemetry session.

    ``export_env`` additionally publishes the settings through
    :data:`TELEMETRY_ENV` so worker processes forked/spawned *after*
    this call pick them up.  Activation drops the memoized system pool:
    systems built before the session exists carry no hooks, and reusing
    them would silently produce empty traces.
    """
    global _ACTIVE, _RUNTIME
    deactivate()
    _ACTIVE = settings
    _RUNTIME = None
    if export_env:
        os.environ[TELEMETRY_ENV] = json.dumps(
            settings.to_json(), sort_keys=True
        )
    from repro.core.runner import clear_system_memo

    clear_system_memo()


def deactivate() -> None:
    """End the session: detach hooks and clear the env channel."""
    global _ACTIVE, _RUNTIME, _ENV_RAW, _ENV_PARSED
    runtime = _RUNTIME
    _ACTIVE = None
    _RUNTIME = None
    _ENV_RAW = None
    _ENV_PARSED = None
    os.environ.pop(TELEMETRY_ENV, None)
    if runtime is not None:
        runtime.detach_all()
        from repro.core.runner import clear_system_memo

        clear_system_memo()


def active() -> Optional[TelemetrySettings]:
    """The current session settings, or None when telemetry is off.

    Checks the in-process session first, then the environment channel
    (re-parsed only when the raw string changes, so the steady-state
    cost on the untraced path is one dict lookup).
    """
    global _ENV_RAW, _ENV_PARSED
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(TELEMETRY_ENV)
    if not raw:
        return None
    if raw != _ENV_RAW:
        try:
            settings = TelemetrySettings.from_json(json.loads(raw))
        except (ValueError, TypeError):
            settings = None
        _ENV_RAW = raw
        _ENV_PARSED = settings
    return _ENV_PARSED


def current_runtime():
    """The live :class:`~repro.telemetry.runtime.TelemetryRuntime`.

    Created lazily on first use; None when no session is active.
    """
    global _RUNTIME
    settings = active()
    if settings is None or not settings.enabled:
        return None
    if _RUNTIME is None:
        from repro.telemetry.runtime import TelemetryRuntime

        _RUNTIME = TelemetryRuntime(settings)
    return _RUNTIME


def on_system_acquired(system) -> None:
    """Hook called by :func:`repro.core.runner.system_for`.

    A no-op (one None check) when telemetry is off; otherwise attaches
    instrumentation to ``system`` (idempotently) and begins a new
    per-point collection window.
    """
    runtime = current_runtime()
    if runtime is not None:
        runtime.on_system_acquired(system)


def drain_point() -> Optional[dict]:
    """Collect and clear everything recorded since the last acquisition.

    Returns None when no session is active; see
    :meth:`~repro.telemetry.runtime.TelemetryRuntime.drain_point`.
    """
    runtime = current_runtime()
    if runtime is None:
        return None
    return runtime.drain_point()
