"""The benchmark's workloads, built from a seed.

``host-llc`` and ``devmem`` are cold sweeps over named experiments: the
seed shuffles the order in which their points run (every point still
runs once, so the records do not depend on the seed).

Every record is checked against ``expected.json``: a sha256 per point
of the record's canonical JSON, as the sweep engine produced it when
the benchmark was defined.  A host-speed change must leave all of them
unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Named sweeps (with factory arguments) each sweep workload runs cold.
SWEEP_WORKLOADS: Dict[str, Tuple[Tuple[str, dict], ...]] = {
    # Host memory behind PCIe through the host LLC (DC mode); four
    # devices share one switch uplink in topo-contention.
    "host-llc": (
        ("pcie-bandwidth", {"size": 256}),
        ("topo-contention", {"size": 128, "cluster": 4}),
    ),
    # Device-side HBM: no host LLC, no PCIe data path.
    "devmem": (
        ("fig6a-mem-bandwidth", {"size": 768}),
    ),
}

WORKLOADS = tuple(SWEEP_WORKLOADS)


def point_id(sweep: str, key_repr: str) -> str:
    return f"{sweep} {key_repr}"


def canonical(record: dict) -> str:
    """A record's canonical JSON (sorted keys, no spaces)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_digest(record: dict) -> str:
    """sha256 of a record's canonical JSON."""
    return hashlib.sha256(canonical(record).encode("utf-8")).hexdigest()


def load_expected(workload: str) -> Dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def seeded_specs(workload: str, seed: int) -> list:
    """The workload's sweep specs, points in a seed-shuffled order."""
    from repro.sweep import SweepSpec, build_sweep

    rng = random.Random(seed)
    specs = []
    for name, args in SWEEP_WORKLOADS[workload]:
        spec = build_sweep(name, **args)
        points = list(spec.points)
        rng.shuffle(points)
        specs.append(SweepSpec(name=spec.name, points=points,
                               runner=spec.runner, base_seed=spec.base_seed,
                               auto_seed=spec.auto_seed))
    rng.shuffle(specs)
    return specs
