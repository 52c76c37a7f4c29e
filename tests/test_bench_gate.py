"""The perf-regression gate of ``benchmarks/bench_perf_core.py``.

The gate compares a fresh run against the committed ``BENCH_core.json``
baseline.  A metric the baseline tracks but the run no longer produces
must fail the gate by name: otherwise deleting (or breaking) a bench
silently removes it from the perf trajectory.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_perf_core.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_perf_core", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

BASELINE = {
    "calib_kops": 1000.0,
    "gemm_point_s": 0.5,
    "fig6_grid_s": 2.0,
    "tracer_off_overhead": 0.0,
}


def test_identical_run_passes(capsys):
    assert bench.check_regression(dict(BASELINE), BASELINE, 0.30) == 0
    assert "perf check passed" in capsys.readouterr().out


def test_missing_metric_fails_and_is_named(capsys):
    current = dict(BASELINE)
    del current["fig6_grid_s"]
    assert bench.check_regression(current, BASELINE, 0.30) == 1
    out = capsys.readouterr().out
    assert "fig6_grid_s" in out
    assert "missing from this run" in out


def test_missing_absolutely_gated_metric_fails(capsys):
    current = dict(BASELINE)
    del current["tracer_off_overhead"]
    assert bench.check_regression(current, BASELINE, 0.30) == 1
    assert "tracer_off_overhead" in capsys.readouterr().out


def test_regression_past_tolerance_fails(capsys):
    current = dict(BASELINE, gemm_point_s=1.0)
    assert bench.check_regression(current, BASELINE, 0.30) == 1
    assert "gemm_point_s" in capsys.readouterr().out
