"""Distributed sweep orchestration on top of ``--shard`` + the cache.

The sweep engine already made cross-machine work *possible*: shards are
deterministic disjoint slices and the result cache is content-addressed,
so any number of processes pointed at a shared cache directory compose.
This package adds the machinery that makes it *operational*:

* :func:`~repro.orchestrate.dispatcher.prepare_run` /
  :func:`~repro.orchestrate.dispatcher.orchestrate_run` -- split named
  sweeps into shard work units, launch workers from a local pool,
  poll the shared cache and the shard ledger, reassign dead workers,
  merge per-shard outcomes into one verified report.
* :class:`~repro.orchestrate.backends.LocalBackend` -- the pool of
  worker subprocesses on this machine.
* :mod:`~repro.orchestrate.lease` -- heartbeat/lease files giving every
  shard crash-evident state on a shared filesystem.
* :mod:`~repro.orchestrate.manifest` -- the run manifest pinning sweep
  fingerprints and the code digest, so mixed-version workers are
  refused instead of silently merged.
* :func:`~repro.orchestrate.dispatcher.resume_run` -- continue an
  interrupted run; everything already cached is never recomputed.

CLI: ``python -m repro orchestrate`` (see docs/ORCHESTRATION.md).
"""

from repro.orchestrate.backends import (
    LocalBackend,
    worker_command,
)
from repro.orchestrate.dispatcher import (
    MergeMismatchError,
    OrchestrationError,
    REPORT_NAME,
    orchestrate_run,
    prepare_run,
    resume_run,
)
from repro.orchestrate.lease import (
    Heartbeat,
    ShardLease,
    expire_lease,
    read_lease,
    read_leases,
    try_claim,
    write_lease,
)
from repro.orchestrate.manifest import (
    RunManifest,
    VersionMismatchError,
    apply_overrides,
    spec_fingerprint,
)
from repro.orchestrate.worker import (
    EXIT_VERSION_MISMATCH,
    run_worker,
)

__all__ = [
    "LocalBackend",
    "worker_command",
    "prepare_run",
    "orchestrate_run",
    "resume_run",
    "OrchestrationError",
    "MergeMismatchError",
    "REPORT_NAME",
    "RunManifest",
    "VersionMismatchError",
    "apply_overrides",
    "spec_fingerprint",
    "ShardLease",
    "Heartbeat",
    "read_lease",
    "read_leases",
    "write_lease",
    "try_claim",
    "expire_lease",
    "run_worker",
    "EXIT_VERSION_MISMATCH",
]
