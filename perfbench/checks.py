"""Checks on the benchmark itself, run by hand from the repository root.

``repeat``       Two traced runs with the same seed must give identical
                 counts (run.EXACT_COUNTS); prints any count that differs
                 and exits 1.  Later count-based claims rest on this.
``attribution``  Groups cProfile ``tottime`` by ``repro`` subpackage in
                 one more pass and prints it beside the span self-time
                 shares of a traced one, with the difference per layer.  A layer whose spans read lower
                 than its profile has work landing in another layer.
``expected``     Rewrites expected.json from the sweep engine's records.
                 Only a change that means to alter simulated results may
                 do this, and must say so.

Examples::

    python3 perfbench/checks.py repeat --workload host-llc --seed 7
    python3 perfbench/checks.py attribution --workload devmem --seed 7
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import run
import spans
import workloads


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, text=True, stdout=subprocess.PIPE, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed:\n{proc.stdout[-3000:]}")
    metrics = last_json(proc.stdout)["metrics"]
    return {name: metrics[name]["value"] for name in run.EXACT_COUNTS}


def check_repeat(args) -> int:
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = 0
    for name in run.EXACT_COUNTS:
        same = first[name] == second[name]
        differ += not same
        print(f"{'ok  ' if same else 'DIFF'} {name}: {first[name]} "
              f"{'==' if same else '!='} {second[name]}")
    return 1 if differ else 0


def shares(totals: dict) -> dict:
    whole = sum(totals.values()) or 1.0
    return {layer: value / whole for layer, value in totals.items()}


def check_attribution(args) -> int:
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as run_dir:
        traced = run.sweep_pass(args.workload, args.seed, run_dir, "trace")
        profiled = run.sweep_pass(args.workload, args.seed, run_dir,
                                  "profile")
    layers = spans.layer_totals(traced["trace"]["names"])
    span_share = shares({layer: layers[layer]["self_s"]
                         for layer in spans.LAYERS + ("other",)})
    profile_share = shares(profiled["profile"])
    print(f"# {args.workload}: share of host time per layer")
    print(f"{'layer':<13} {'spans':>7} {'cProfile':>9} {'diff':>7}")
    for layer in sorted(set(span_share) | set(profile_share),
                        key=lambda name: -span_share.get(name, 0.0)):
        a, b = span_share.get(layer, 0.0), profile_share.get(layer, 0.0)
        print(f"{layer:<13} {100 * a:6.1f}% {100 * b:8.1f}% "
              f"{100 * (a - b):+6.1f}%")
    print("# spans: self time of wrapped entry points and callbacks; "
          "cProfile: tottime by defining module ('python' is the "
          "interpreter and standard library, which spans fold into the "
          "layer that called them)")
    return 0


def write_expected(_args) -> int:
    from repro.sweep import run_sweeps

    out = {}
    for workload in workloads.SWEEP_WORKLOADS:
        reports = run_sweeps(workloads.seeded_specs(workload, 0), workers=1,
                             cache=False)
        out[workload] = {
            workloads.point_id(r.spec_name, repr(o.key)):
            workloads.record_digest(o.record)
            for r in reports for o in r.outcomes}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="check", required=True)
    for name, func in (("repeat", check_repeat),
                       ("attribution", check_attribution)):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True,
                       choices=workloads.WORKLOADS)
        p.add_argument("--seed", type=int, default=1)
        p.set_defaults(func=func)
    sub.add_parser("expected").set_defaults(func=write_expected)
    args = parser.parse_args(argv)
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
