"""Tests for the telemetry subsystem (repro.telemetry).

Covers the acceptance bars of docs/OBSERVABILITY.md:

* disabled defaults: every component hook is None, the null tracer is
  inert, and an inactive session reports None;
* Chrome trace export: schema-valid, metadata-first, deterministic
  (byte-identical across reruns and --shard slices);
* record bit-identity: a traced sweep produces the very records an
  untraced sweep does, with telemetry/diagnostics only as siblings;
* the metrics ring buffer, the Prometheus exposition, the per-point
  layer profile, and the env-var session channel.
"""

import json
import os
import sys

import pytest

from repro import SystemConfig
from repro.core.runner import run_gemm, system_for
from repro.sim.eventq import Simulator
from repro.sim.statistics import StatGroup
from repro.sweep import SweepSpec, gemm_points, run_sweep
from repro.telemetry import (
    TELEMETRY_ENV,
    TRACER,
    MetricsSampler,
    NullTracer,
    SpanTracer,
    TelemetrySettings,
    activate,
    active,
    deactivate,
    layer_of,
    validate_chrome_trace,
)

SIZE = 32


@pytest.fixture(autouse=True)
def clean_session():
    """Every test starts and ends with no telemetry session."""
    deactivate()
    yield
    deactivate()


def small_spec(name="telemetry-sweep", packets=(64, 256)):
    base = SystemConfig.table2_baseline()
    configs = {packet: base.with_packet_size(packet) for packet in packets}
    return SweepSpec(name=name, points=gemm_points(configs, SIZE))


def run_traced(tmp_path, subdir, **settings_kw):
    settings = TelemetrySettings(
        trace=True, trace_dir=str(tmp_path / subdir), **settings_kw
    )
    activate(settings)
    try:
        return run_sweep(small_spec(), workers=1, cache=False)
    finally:
        deactivate()


# ----------------------------------------------------------------------
# Disabled defaults
# ----------------------------------------------------------------------
class TestDisabledDefaults:
    def test_null_tracer_is_inert(self):
        assert isinstance(TRACER, NullTracer)
        assert TRACER.enabled is False
        TRACER.complete(0, "x", "span", "cat", 0, 10)
        TRACER.instant(0, "x", "mark", "cat", 5)
        TRACER.clear()  # all no-ops, nothing to assert beyond not raising

    def test_component_hooks_default_none(self):
        system = system_for(SystemConfig.table2_baseline())
        assert system.wrapper.dma.trace is None
        assert system.fabric.up.trace is None
        assert system.fabric.down.trace is None

    def test_inactive_session(self):
        assert active() is None
        from repro.telemetry import current_runtime, drain_point

        assert current_runtime() is None
        assert drain_point() is None

    def test_settings_disabled_by_default(self):
        settings = TelemetrySettings()
        assert not settings.enabled
        assert TelemetrySettings(trace=True).enabled
        assert TelemetrySettings(metrics_every=100).enabled
        assert TelemetrySettings(diagnostics=True).enabled


# ----------------------------------------------------------------------
# The span tracer and Chrome export
# ----------------------------------------------------------------------
class TestSpanTracer:
    def fill(self, tracer):
        tracer.complete(0, "link.up", "tlp-train", "pcie", 100, 50,
                        args={"tlps": 3})
        tracer.complete(1, "dma0", "dma-segment:A", "dma", 200, 75)
        tracer.instant(1, "dma0", "dma-submit:A", "dma", 150)

    def test_records_and_tids(self):
        tracer = SpanTracer()
        self.fill(tracer)
        assert len(tracer) == 3
        events = tracer.chrome_events()
        # Metadata first: 2 process names + 2 thread names, then spans.
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 4
        assert events[: len(meta)] == meta
        spans = [e for e in events if e["ph"] != "M"]
        assert [e["ph"] for e in spans] == ["X", "X", "i"]
        # Ticks are ps; Chrome ts is microseconds.
        assert spans[0]["ts"] == 100 / 10**6
        assert spans[0]["dur"] == 50 / 10**6

    def test_schema_valid_and_deterministic(self):
        one, two = SpanTracer(), SpanTracer()
        self.fill(one)
        self.fill(two)
        assert one.to_chrome_json() == two.to_chrome_json()
        document = json.loads(one.to_chrome_json())
        assert validate_chrome_trace(document) == []

    def test_validator_catches_problems(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]
        bad = {"traceEvents": [
            {"ph": "Z", "pid": 0, "tid": 0, "name": "x"},
            {"ph": "X", "pid": "no", "tid": 0, "name": "x", "ts": -1},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("unknown phase" in p for p in problems)
        assert any("pid" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("bad dur" in p for p in problems)

    def test_clear(self):
        tracer = SpanTracer()
        self.fill(tracer)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.chrome_events() == []


# ----------------------------------------------------------------------
# Session settings and the env channel
# ----------------------------------------------------------------------
class TestSessionChannel:
    def test_json_round_trip(self):
        settings = TelemetrySettings(
            trace=True, trace_dir="/tmp/t", metrics_every=1000,
            profile=True, diagnostics=True,
        )
        assert TelemetrySettings.from_json(settings.to_json()) == settings

    def test_activate_exports_env(self):
        settings = TelemetrySettings(trace=True, trace_dir="/tmp/t")
        activate(settings)
        assert active() == settings
        raw = os.environ[TELEMETRY_ENV]
        assert TelemetrySettings.from_json(json.loads(raw)) == settings
        deactivate()
        assert TELEMETRY_ENV not in os.environ
        assert active() is None

    def test_env_channel_alone_activates(self):
        # What a pool worker sees: no in-process activate() call, only
        # the inherited environment variable.
        settings = TelemetrySettings(diagnostics=True)
        os.environ[TELEMETRY_ENV] = json.dumps(settings.to_json())
        try:
            assert active() == settings
        finally:
            del os.environ[TELEMETRY_ENV]

    def test_malformed_env_is_ignored(self):
        os.environ[TELEMETRY_ENV] = "{not json"
        try:
            assert active() is None
        finally:
            del os.environ[TELEMETRY_ENV]


# ----------------------------------------------------------------------
# Traced sweeps: bit-identity and deterministic artifacts
# ----------------------------------------------------------------------
class TestTracedSweep:
    def test_records_bit_identical_and_siblings(self, tmp_path):
        untraced = run_sweep(small_spec(), workers=1, cache=False)
        traced = run_traced(tmp_path, "t", diagnostics=True)
        plain = {o.key: o.record for o in untraced.outcomes}
        with_telemetry = {o.key: o.record for o in traced.outcomes}
        assert plain == with_telemetry
        for outcome in traced.outcomes:
            record = outcome.to_record()
            assert "telemetry" in record and "diagnostics" in record
            assert "telemetry" not in record["record"]
            assert "diagnostics" not in record["record"]
            assert record["diagnostics"]["events_executed"] > 0
        for outcome in untraced.outcomes:
            record = outcome.to_record()
            assert "telemetry" not in record
            assert "diagnostics" not in record

    def test_trace_files_validate_and_rerun_byte_identical(self, tmp_path):
        first = run_traced(tmp_path, "one")
        second = run_traced(tmp_path, "two")
        one_dir, two_dir = tmp_path / "one", tmp_path / "two"
        names = sorted(p.name for p in one_dir.glob("*.trace.json"))
        assert names == sorted(p.name for p in two_dir.glob("*.trace.json"))
        assert len(names) == len(first.outcomes) == len(second.outcomes)
        for name in names:
            blob = (one_dir / name).read_bytes()
            assert blob == (two_dir / name).read_bytes()
            problems = validate_chrome_trace(json.loads(blob))
            assert problems == [], (name, problems)

    def test_trace_has_expected_span_families(self, tmp_path):
        run_traced(tmp_path, "fam")
        names = set()
        for path in (tmp_path / "fam").glob("*.trace.json"):
            for event in json.loads(path.read_text())["traceEvents"]:
                if event["ph"] in ("X", "i"):
                    names.add(event["name"].split(":")[0])
        assert "tlp-train" in names
        assert "dma-submit" in names
        assert "dma-segment" in names
        assert "dma-descriptor" in names

    def test_metrics_and_profile_artifacts(self, tmp_path):
        settings = TelemetrySettings(
            trace_dir=str(tmp_path / "m"), metrics_every=1_000_000,
            profile=True,
        )
        activate(settings)
        try:
            report = run_sweep(small_spec(), workers=1, cache=False)
        finally:
            deactivate()
        for outcome in report.outcomes:
            summary = outcome.telemetry
            assert summary["metrics"]["summary"]["samples"] > 0
            metrics_doc = json.loads(
                open(summary["metrics"]["path"]).read()
            )
            assert metrics_doc["timeline"]
            prom = open(summary["metrics"]["prometheus_path"]).read()
            assert "repro_stat{" in prom
            assert "repro_samples_total" in prom
            # A host-LLC point: the cache tag model and the event loop
            # both show up as layers.
            profile_doc = json.loads(open(summary["profile"]["path"]).read())
            layers = profile_doc["layers"]
            assert sum(row["share"] for row in layers.values()) == \
                pytest.approx(1.0, abs=1e-9)
            assert "cache" in layers and "sim" in layers
            assert profile_doc["functions"]
            assert all(row["layer"] in layers
                       for row in profile_doc["functions"])
            # Host wall-clock stays out of the cross-process summary.
            assert summary["profile"] == {"path": summary["profile"]["path"]}

    def test_diagnostics_only_session(self, tmp_path):
        settings = TelemetrySettings(diagnostics=True)
        activate(settings)
        try:
            report = run_sweep(small_spec(), workers=1, cache=False)
        finally:
            deactivate()
        for outcome in report.outcomes:
            record = outcome.to_record()
            assert "diagnostics" in record
            assert "telemetry" not in record  # nothing else captured

    def test_cached_points_capture_nothing(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, workers=1, cache_dir=tmp_path / "cache")
        settings = TelemetrySettings(
            trace=True, trace_dir=str(tmp_path / "cached-t")
        )
        activate(settings)
        try:
            replay = run_sweep(spec, workers=1, cache_dir=tmp_path / "cache")
        finally:
            deactivate()
        assert replay.fully_cached
        assert all(o.telemetry is None for o in replay.outcomes)
        assert not (tmp_path / "cached-t").exists()


# ----------------------------------------------------------------------
# Metrics sampler
# ----------------------------------------------------------------------
class _FakeObj:
    def __init__(self, name):
        self.stats = StatGroup(name)


class _FakeSystem:
    def __init__(self, objs):
        import types

        self.sim = types.SimpleNamespace(objects=objs)


class TestMetricsSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsSampler(every=0)
        with pytest.raises(ValueError):
            MetricsSampler(every=10, capacity=0)

    def test_deltas_and_clean_skip(self):
        hot, cold = _FakeObj("hot"), _FakeObj("cold")
        counter = hot.stats.scalar("count")
        cold.stats.scalar("idle")
        sampler = MetricsSampler(every=10)
        sampler.begin_run(_FakeSystem([hot, cold]))
        # Prime both groups' caches so the clean skip is observable.
        hot.stats.flatten()
        cold.stats.flatten()
        sampler.sample_now(0)

        counter.inc(5)
        deltas = sampler.sample_now(10)
        assert deltas == {"hot.count": 5}
        counter.inc(2)
        assert sampler.sample_now(20) == {"hot.count": 2}
        # A sample with nothing moved records an empty delta set.
        assert sampler.sample_now(30) == {}
        assert sampler.timeline("hot.count") == [(10, 5), (20, 2)]
        assert "hot.count" in sampler.series_names()

    def test_ring_buffer_bounds(self):
        obj = _FakeObj("dev")
        counter = obj.stats.scalar("n")
        sampler = MetricsSampler(every=1, capacity=4)
        sampler.begin_run(_FakeSystem([obj]))
        for tick in range(10):
            counter.inc()
            sampler.sample_now(tick)
        assert len(sampler.samples) == 4
        assert sampler.dropped == 6
        assert sampler.total_samples == 10
        assert sampler.summary()["retained"] == 4

    def test_arm_self_reschedules_and_stands_down(self):
        sim = Simulator()
        obj = _FakeObj("dev")
        counter = obj.stats.scalar("n")
        sampler = MetricsSampler(every=100)
        sampler.begin_run(_FakeSystem([obj]))
        state = {"left": 5}

        def tick():
            counter.inc()
            state["left"] -= 1
            if state["left"]:
                sim.schedule(150, tick)

        sim.schedule(1, tick)
        sampler.arm(sim)
        sim.run()  # must terminate: the sampler stands down when alone
        assert sampler.total_samples >= 5
        assert sum(d.get("dev.n", 0)
                   for _t, d in sampler.samples) == 5

    def test_prometheus_text(self):
        obj = _FakeObj("dev")
        obj.stats.scalar("n").inc(3)
        sampler = MetricsSampler(every=1)
        sampler.begin_run(_FakeSystem([obj]))
        sampler.sample_now(0)
        text = sampler.prometheus_text()
        assert 'repro_stat{series="dev.n"} 3' in text
        assert "repro_samples_total 1" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Layer profile
# ----------------------------------------------------------------------
class TestLayerProfile:
    def test_layer_grouping(self):
        assert layer_of("/src/repro/cache/tags.py") == "cache"
        assert layer_of("/src/repro/sweep/cache.py") == "result_cache"
        assert layer_of("/src/repro/sweep/engine.py") == "sweep"
        assert layer_of("C:\\src\\repro\\sim\\eventq.py") == "sim"
        assert layer_of("~") == "python"
        assert layer_of("/usr/lib/python3.11/json/decoder.py") == "python"
        assert layer_of(json.__file__) == "python"

    def test_profiled_sweep_records_equal(self, tmp_path):
        plain = run_sweep(small_spec(), workers=1, cache=False)
        activate(TelemetrySettings(trace_dir=str(tmp_path / "p"),
                                   profile=True))
        try:
            profiled = run_sweep(small_spec(), workers=1, cache=False)
        finally:
            deactivate()
        assert [o.record for o in plain.outcomes] == \
            [o.record for o in profiled.outcomes]
        assert len(list((tmp_path / "p").glob("*.profile.json"))) == \
            len(profiled.outcomes)

    def test_refuses_nested_profile(self, tmp_path, capsys):
        from repro.__main__ import main

        def outer_hook(frame, event, arg):
            return None

        sys.setprofile(outer_hook)
        try:
            with pytest.raises(SystemExit):
                main(["sweep", "--name", "access-modes", "--size", "16",
                      "--profile", "--no-cache",
                      "--telemetry-dir", str(tmp_path / "t")])
            err = capsys.readouterr().err
            assert "--profile" in err and "outer_hook" in err
            activate(TelemetrySettings(trace_dir=str(tmp_path / "e"),
                                       profile=True))
            with pytest.raises(RuntimeError, match="outer_hook"):
                run_sweep(small_spec(), workers=1, cache=False)
        finally:
            sys.setprofile(None)
        assert not (tmp_path / "t").exists()
        assert not (tmp_path / "e").exists()


    def test_summarize_reads_layer_profiles(self, tmp_path, capsys):
        from repro.__main__ import main

        good = {
            "total_s": 1.0,
            "layers": {"python": {"seconds": 0.5, "share": 0.5},
                       "cache": {"seconds": 0.3, "share": 0.3},
                       "sim": {"seconds": 0.2, "share": 0.2}},
            "functions": [],
        }
        (tmp_path / "aaaa.profile.json").write_text(json.dumps(good))
        assert main(["telemetry", "summarize", "--dir", str(tmp_path)]) == 0
        assert "cache (30%)" in capsys.readouterr().out

        truncated = tmp_path / "bbbb.profile.json"
        truncated.write_text(json.dumps(good)[:40])
        with pytest.raises(SystemExit) as exc:
            main(["telemetry", "summarize", "--dir", str(tmp_path)])
        assert str(truncated) in str(exc.value)

        truncated.write_text(json.dumps({"buckets": []}))
        with pytest.raises(SystemExit) as exc:
            main(["telemetry", "summarize", "--dir", str(tmp_path)])
        assert str(truncated) in str(exc.value)


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_simulator_diagnostics(self):
        sim = Simulator()
        handle = sim.schedule(5, lambda: None)
        handle.cancel()
        sim.schedule(10, lambda: None)
        sim.run()
        diag = sim.diagnostics()
        assert diag["events_executed"] == 1
        assert diag["events_skipped"] == 1
        assert diag["freelist_high_water"] >= 0

    def test_gemm_results_unchanged_by_telemetry(self, tmp_path):
        config = SystemConfig.table2_baseline()
        plain = run_gemm(config, SIZE, SIZE, SIZE)
        settings = TelemetrySettings(
            trace=True, trace_dir=str(tmp_path / "g"),
            metrics_every=1_000_000, profile=True, diagnostics=True,
        )
        activate(settings)
        try:
            traced = run_gemm(config, SIZE, SIZE, SIZE)
        finally:
            deactivate()
        assert plain == traced
