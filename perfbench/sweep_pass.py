"""One cold pass of a sweep workload, run in a process of its own.

A fresh process per pass keeps every pass cold: nothing imported,
memoized or built by an earlier pass survives.  The pass runs the
workload's sweeps serially into an empty result cache.  As each point
lands, it queries that point warm :data:`WARM_PER_POINT` times from an
in-process result service (:class:`repro.serve.SweepService`, the query
path of ``repro serve`` without HTTP); spreading the warm queries over
the whole pass keeps one slow stretch of the host from owning them all.
That time is taken out of ``cold_s``.

Just before and just after every timed stretch (set-up, each point,
each burst of warm queries) the pass times a calibration task
(benchstats), and reports each stretch at the reference host speed as
well as in wall time.  Calibration time lies in no stretch.  The pass
checks every record and writes what it measured as JSON to ``--out``.

``--mode trace`` installs the span wrappers (spans.py) before any
system is built and adds the per-layer summary; ``--mode profile`` runs
the pass under cProfile and adds its ``tottime`` grouped by layer.

Run from the repository root, e.g.::

    PYTHONPATH=src python3 perfbench/sweep_pass.py --workload devmem \\
        --seed 1 --cache-dir /tmp/c --out /tmp/pass.json
"""

import time

import benchstats

SPEED0 = benchstats.calibrate()
T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Warm queries of each point as it lands.
WARM_PER_POINT = 200


def profile_by_layer(profiler) -> dict:
    """cProfile ``tottime`` summed per layer (``python`` outside repro)."""
    import pstats

    from spans import layer_of_module

    totals: dict = {}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        parts = filename.replace("\\", "/").split("/")
        layer = "python"
        if "repro" in parts[:-1]:
            i = len(parts) - 1 - parts[::-1].index("repro")
            module = ".".join(parts[i:])[:-len(".py")]
            layer = layer_of_module(module.replace(".__init__", ""))
        totals[layer] = totals.get(layer, 0.0) + row[2]
    return totals


class Stretches:
    """Timed stretches, each between two runs of a calibration task."""

    def __init__(self, calibrate, reference_s: float) -> None:
        self.calibrate = calibrate
        self.reference_s = reference_s
        self.calibrations, self.windows = [], []

    def begin(self) -> None:
        self.before = self.calibrate()
        self.calibrations.append(self.before)
        self.start = time.perf_counter()

    def end(self) -> tuple:
        """Close the stretch: its wall seconds, and the factor from wall
        time to time at the reference host speed."""
        end = time.perf_counter()
        after = self.calibrate()
        self.calibrations.append(after)
        self.windows.append((self.start, end))
        return end - self.start, 2.0 * self.reference_s / (self.before + after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "profile"),
                        default="plain")
    parser.add_argument("--spans", help="trace mode: write spans here")
    args = parser.parse_args(argv)

    import workloads

    recorder = None
    if args.mode == "trace":
        import spans

        recorder = spans.install()
    from repro.serve import ServeSettings, SweepService
    from repro.sweep import ResultCache, run_sweeps

    specs = workloads.seeded_specs(args.workload, args.seed)
    setup_wall_s = time.perf_counter() - T0
    setup_s = (setup_wall_s * 2.0 * benchstats.REFERENCE_S
               / (SPEED0 + benchstats.calibrate()))

    expected = workloads.load_expected(args.workload)
    cache = ResultCache(args.cache_dir)
    service = SweepService(ServeSettings(cache_dir=args.cache_dir))
    sweep_args = dict(workloads.SWEEP_WORKLOADS[args.workload])
    loop = asyncio.new_event_loop()
    profiler = None
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    name_of = {id(point): spec.name for spec in specs for point in spec.points}
    records, errors, warm_wall_ms, warm_ms = {}, [], [], []
    cold = {"wall_s": 0.0, "s": 0.0}
    io_path = args.out + ".calibration.json"
    benchstats.write_io_calibration(io_path)
    cold_stretches = Stretches(benchstats.calibrate, benchstats.REFERENCE_S)
    warm_stretches = Stretches(lambda: benchstats.calibrate_io(io_path),
                               benchstats.REFERENCE_IO_S)

    async def burst(name: str, key: str, record: dict) -> None:
        """Query the point that just landed, warm, from the result
        service; each answer must match the cold record byte for byte."""
        canonical = workloads.canonical(record)
        for _ in range(WARM_PER_POINT):
            t = time.perf_counter()
            answer = await service.query(name, key, sweep_args[name])
            warm_wall_ms.append((time.perf_counter() - t) * 1e3)
            if (not answer["cached"]
                    or workloads.canonical(answer["record"]) != canonical):
                errors.append(f"{workloads.point_id(name, key)}: "
                              f"warm query differs")

    def end_cold() -> None:
        wall_s, scale = cold_stretches.end()
        cold["wall_s"] += wall_s
        cold["s"] += wall_s * scale

    def landed(_finished, _total, outcome) -> None:
        end_cold()
        first = len(warm_wall_ms)
        warm_stretches.begin()
        loop.run_until_complete(burst(name_of[id(outcome.point)],
                                      repr(outcome.key), outcome.record))
        _, scale = warm_stretches.end()
        warm_ms.extend(ms * scale for ms in warm_wall_ms[first:])
        cold_stretches.begin()

    cold_stretches.begin()
    try:
        reports = run_sweeps(specs, workers=1, cache=cache, progress=landed)
        end_cold()
    finally:
        loop.close()
    if profiler is not None:
        profiler.disable()
    for report in reports:
        for outcome in report.outcomes:
            pid = workloads.point_id(report.spec_name, repr(outcome.key))
            records[pid] = outcome.record
            if outcome.cached:
                errors.append(f"{pid}: cold pass found a cached record")
    for pid, digest in sorted(expected.items()):
        if pid not in records:
            errors.append(f"{pid}: no record")
        elif workloads.record_digest(records[pid]) != digest:
            errors.append(f"{pid}: record differs from expected.json")
    extra = sorted(set(records) - set(expected))
    errors += [f"{pid}: not in expected.json" for pid in extra]

    windows = cold_stretches.windows + warm_stretches.windows
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "cold_s": cold["s"],
        "cold_wall_s": cold["wall_s"],
        "wall_s": sum(end - start for start, end in windows),
        "warm_ms": warm_ms,
        "warm_wall_ms": warm_wall_ms,
        "calibration_s": cold_stretches.calibrations,
        "calibration_io_s": warm_stretches.calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(records) + len(warm_ms),
        "errors": errors,
    }
    if recorder is not None:
        import spans

        summary = spans.summarize(recorder)
        summary["windows"] = windows
        if args.spans:
            recorder.dump(args.spans)
        result["trace"] = summary
    if profiler is not None:
        result["profile"] = profile_by_layer(profiler)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
