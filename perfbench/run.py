"""The repository benchmark: one command per workload, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload host-llc --seed 1 --seconds 50 --trace 0

Workloads (workloads.py, README.md):

* ``host-llc`` -- cold sweeps ``pcie-bandwidth``@256 and
  ``topo-contention``@128 into an empty result cache;
* ``devmem``   -- cold sweep ``fig6a-mem-bandwidth``@768.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: it
repeats cold passes, each in a fresh process (sweep_pass.py), until
``--seconds`` is spent (at least three), and reports medians.  Timings
are reported at a reference host speed (benchstats.calibrate).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics from the spans (spans.py).

Every record is checked against the digests in ``expected.json``, and
every warm answer against the cold record.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches and the last traced run's spans.
OUT = os.path.join(ROOT, ".perfbench-out")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Fewest cold passes one untraced run makes.
MIN_REPEATS = 3
#: Seconds any one child process may take before it is killed.
CHILD_TIMEOUT = 170.0
#: Counts that must repeat exactly across two runs with the same seed.
EXACT_COUNTS = (
    "sim.events", "cache.line_accesses", "memory.calls", "smmu.walks",
    "result_cache.gets", "result_cache.puts",
)


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output)."""


def child_env() -> dict:
    """Environment for program processes: ``src`` importable, no knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    return env


def repeat_until(seconds: float, step) -> list:
    """Call ``step()`` at least :data:`MIN_REPEATS` times, and again while
    another call is expected to end within ``seconds`` of the start."""
    results, walls = [], []
    start = time.perf_counter()
    while (len(results) < MIN_REPEATS or time.perf_counter() - start
           + statistics.mean(walls) <= seconds):
        t = time.perf_counter()
        results.append(step())
        walls.append(time.perf_counter() - t)
    return results


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
def sweep_pass(workload: str, seed: int, run_dir: str, mode: str,
               spans_path: str = None) -> dict:
    """One cold pass in a fresh process (sweep_pass.py)."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=run_dir)
    out = os.path.join(run_dir, "pass.json")
    cmd = [sys.executable, os.path.join(HERE, "sweep_pass.py"),
           "--workload", workload, "--seed", str(seed),
           "--cache-dir", cache_dir, "--out", out, "--mode", mode]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} failed:\n"
                         f"{proc.stdout[-3000:]}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def run_sweep_workload(workload, seed, seconds, trace, run_dir) -> dict:
    if trace:
        plain = sweep_pass(workload, seed, run_dir, "plain")
        traced = sweep_pass(workload, seed, run_dir, "trace",
                            os.path.join(OUT, f"{workload}.spans"))
        summary = traced["trace"]
        metrics = layer_metrics(
            summary,
            events_base_s=plain["cold_s"],
            overhead=traced["wall_s"] / plain["wall_s"] - 1.0,
            uncovered=1.0 - spans.covered_seconds(
                summary["roots"], summary["windows"]) / traced["wall_s"],
        )
        passes = [plain, traced]
    else:
        passes = repeat_until(
            seconds, lambda: sweep_pass(workload, seed, run_dir, "plain"))
        metrics = end_to_end(passes)
    errors = [e for p in passes for e in p["errors"]]
    return {"metrics": metrics, "errors": errors,
            "attempted": sum(p["attempted"] for p in passes)}


def end_to_end(passes: list) -> dict:
    """End-to-end metrics over the passes of one untraced run.

    Each figure is taken per pass, at the reference host speed, and
    reported as the median over the passes, so one disturbed pass cannot
    move it.  The wall-clock figures and the warm tail are printed on
    ``#`` lines but are not metrics.
    """
    def med(key):
        return benchstats.median([p[key] for p in passes])

    def warm(key, q):
        return benchstats.median(
            [benchstats.percentile(p[key], q) for p in passes])

    def span_ms(key):
        times = [t for p in passes for t in p[key]]
        return f"{1e3 * min(times):.3f}-{1e3 * max(times):.3f} ms"

    print(f"# {len(passes)} cold passes of {len(passes[0]['warm_ms'])} warm "
          f"queries each; wall s: "
          + " ".join(f"{p['cold_wall_s']:.3f}" for p in passes))
    print(f"# wall medians: cold {med('cold_wall_s'):.4g} s, setup "
          f"{med('setup_wall_s'):.4g} s, warm p50 "
          f"{warm('warm_wall_ms', 50):.4g} ms; calibration loop "
          f"{span_ms('calibration_s')} (reference "
          f"{1e3 * benchstats.REFERENCE_S:g} ms), file "
          f"{span_ms('calibration_io_s')} (reference "
          f"{1e3 * benchstats.REFERENCE_IO_S:g} ms)")
    print(f"# warm p99 (not a metric): {warm('warm_ms', 99):.4g} ms")
    return {
        "cold_s": (med("cold_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MiB"),
        "warm_query_p50_ms": (warm("warm_ms", 50), "ms"),
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(summary: dict, events_base_s: float, overhead: float,
                  uncovered: float) -> dict:
    """Every per-layer metric from one traced pass."""
    names, counts = summary["names"], summary["counts"]
    totals = spans.layer_totals(names)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def incl(*wanted):
        return sum(entry["incl_s"] for name, entry in names.items()
                   if name in wanted or name.split(":")[0] in wanted)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"], "s")
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
    events = counts.get("sim.events", 0)
    lookups, fills = counts.get("cache.lookups", 0), counts.get(
        "cache.fills", 0)
    row_hits = counts.get("memory.row_hits", 0)
    walks, gets = calls("PageTableWalker.walk"), calls("ResultCache.get")
    metrics.update({
        "sim.events": (events, "count"),
        "sim.host_ns_per_event": (ratio(events_base_s * 1e9, events), "ns"),
        "core.systems_built": (calls("AcceSysSystem.build"), "count"),
        "core.build_s": (incl("AcceSysSystem.build"), "s"),
        "cache.line_accesses": (lookups + fills, "count"),
        "cache.hit_ratio": (ratio(counts.get("cache.line_hits", 0), lookups),
                            "ratio"),
        "smmu.walks": (walks, "count"),
        "smmu.tlb_hit_ratio": (
            1.0 - ratio(walks, calls("SMMU.translate"))
            if calls("SMMU.translate") else 0.0, "ratio"),
        "memory.row_hit_ratio": (ratio(
            row_hits, row_hits + counts.get("memory.row_misses", 0)),
            "ratio"),
        "sweep.key_s": (incl("point_key"), "s"),
        "sweep.codec_s": (incl("encode", "decode"), "s"),
        "result_cache.gets": (gets, "count"),
        "result_cache.puts": (calls("ResultCache.put"), "count"),
        "result_cache.hit_ratio": (ratio(counts.get("result_cache.hits", 0),
                                         gets), "ratio"),
        "result_cache.bytes_written": (
            counts.get("result_cache.bytes_written", 0), "bytes"),
    })
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.uncovered_share"] = (uncovered, "ratio")
    return metrics


def print_layers(metrics: dict) -> None:
    total = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    print("# layer          self_s   share      calls")
    for layer in sorted(spans.LAYERS,
                        key=lambda name: -metrics[f"{name}.self_s"][0]):
        self_s = metrics[f"{layer}.self_s"][0]
        print(f"# {layer:<13} {self_s:8.3f} {100 * self_s / total:6.1f}% "
              f"{metrics[f'{layer}.calls'][0]:10d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        outcome = run_sweep_workload(args.workload, args.seed, args.seconds,
                                     args.trace, run_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = outcome["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if args.trace:
        print_layers(metrics)
    for error in outcome["errors"][:20]:
        print(f"# WRONG OUTPUT: {error}")
    failed = len(outcome["errors"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
