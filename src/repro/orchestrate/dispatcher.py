"""The dispatcher: split, launch, watch, reassign, merge.

:func:`prepare_run` turns named sweeps into a run directory -- a pinned
manifest plus one pending :class:`~repro.orchestrate.lease.ShardLease`
per ``--shard I/N`` work unit.  :func:`orchestrate_run` then launches a
backend's workers at it and polls two things: the shard ledger (leases
going ``running``/``done``, heartbeats aging) and the shared
content-addressed cache (global points-finished progress).  A lease
whose heartbeat goes silent past the manifest's TTL -- or whose owner
the backend reports dead -- is expired: attempt bumped, state back to
pending, so any live worker picks the slice up and replays the corpse's
finished points from cache.

When every shard is done the dispatcher merges the per-shard outcome
records (:func:`repro.sweep.engine.merge_report_records`) and
cross-checks the merge against a serial in-process *replay* of the full
sweeps over the shared cache.  The replay must come back fully cached
-- every point simulated exactly once somewhere in the fleet -- and
bit-identical to the merged shard records; the combined report is
written to ``<run-dir>/report.json``.  Because cache keys are content
hashes over config + params + code digest, this merged report is
bit-identical to what a serial :func:`~repro.sweep.engine.run_sweep`
of the same specs would produce.

:func:`resume_run` is the crash-recovery path (``python -m repro
orchestrate --resume <run-dir>``): it re-verifies this tree against the
manifest, expires every stale or failed lease, and re-enters the same
poll loop -- nothing already in the cache is ever recomputed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.sweep.cache import ResultCache, atomic_write_json
from repro.sweep.engine import merge_report_records, run_sweeps
from repro.orchestrate import lease as lease_mod
from repro.orchestrate.lease import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    ShardLease,
    claim_age,
    expire_lease,
    read_leases,
    report_path,
    write_lease,
)
from repro.orchestrate.manifest import RunManifest

REPORT_NAME = "report.json"


class OrchestrationError(RuntimeError):
    """A run that cannot make progress (shard out of attempts, ...)."""


class MergeMismatchError(OrchestrationError):
    """Shard records and the cached replay disagree -- never expected."""


def prepare_run(
    run_dir: os.PathLike,
    sweeps: List[dict],
    cache_dir: os.PathLike,
    shards: int,
    lease_ttl: float = 60.0,
    extra_imports: Optional[List[str]] = None,
) -> RunManifest:
    """Create a run directory: manifest + one pending lease per shard.

    ``sweeps`` is ``[{"name": ..., "overrides": {...}}, ...]`` with
    JSON-safe override values (see :mod:`repro.orchestrate.manifest`).
    """
    run_dir = Path(run_dir)
    if RunManifest.path(run_dir).exists():
        raise FileExistsError(
            f"{run_dir} already holds a run manifest; use resume_run "
            f"(--resume) to continue it, or pick a fresh directory"
        )
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    manifest = RunManifest.create(
        sweeps=sweeps, shards=shards, cache_dir=cache_dir,
        lease_ttl=lease_ttl, extra_imports=extra_imports,
    )
    manifest.save(run_dir)
    for index in range(1, shards + 1):
        write_lease(run_dir, ShardLease(index=index, total=shards))
    return manifest


def _progress_line(leases: Dict[int, ShardLease], cached: int,
                   total_points: int) -> str:
    states = {state: 0 for state in lease_mod.STATES}
    for lease in leases.values():
        states[lease.state] = states.get(lease.state, 0) + 1
    return (
        f"shards: {states[DONE]} done / {states[RUNNING]} running / "
        f"{states[PENDING]} pending / {states[FAILED]} failed; "
        f"cache: {cached}/{total_points} points"
    )


def _poll_until_done(
    run_dir: Path,
    manifest: RunManifest,
    backend,
    total_points: int,
    poll_interval: float,
    max_attempts: int,
    log: Callable[[str], None],
    timeout: Optional[float] = None,
) -> Dict[int, ShardLease]:
    """Watch leases until all shards are done; expire and reassign dead
    ones along the way.  Attempt budgeting is per invocation, so a
    ``--resume`` always gets a fresh set of retries."""
    cache = ResultCache(manifest.cache_dir)
    attempts_here: Dict[int, int] = {}
    started = time.monotonic()
    last_line = ""
    last_sig = None
    cached = 0
    while True:
        leases = read_leases(run_dir)
        if len(leases) != manifest.shards:
            raise OrchestrationError(
                f"run dir holds {len(leases)} shard leases, manifest "
                f"says {manifest.shards} -- corrupted run directory?"
            )
        now = time.time()
        dead_owners = backend.dead_owners()
        pending = 0
        for lease in leases.values():
            if lease.state == DONE:
                continue
            expired = False
            if lease.state == PENDING:
                # A pending lease whose current attempt already has an
                # old claim marker is burned: the claimant died between
                # winning the marker and writing the running state, and
                # nobody can ever claim that attempt again.
                age = claim_age(run_dir, lease)
                if age is not None and age > manifest.lease_ttl:
                    expired = True
                    log(f"shard {lease.index}/{lease.total}: claimant "
                        f"died mid-claim {age:.1f}s ago; bumping attempt")
                else:
                    pending += 1
                    continue
            elif lease.state == FAILED:
                expired = True
                tail = lease.error.strip().splitlines()[-1:] or ["unknown"]
                log(f"shard {lease.index}/{lease.total} failed "
                    f"(attempt {lease.attempt}): {tail[0]}")
            elif lease.state == RUNNING:
                silent = lease.heartbeat_age(now) > manifest.lease_ttl
                owner_dead = lease.owner in dead_owners
                if silent or owner_dead:
                    expired = True
                    why = "owner process exited" if owner_dead else (
                        f"heartbeat silent {lease.heartbeat_age(now):.1f}s "
                        f"(ttl {manifest.lease_ttl:.1f}s)")
                    log(f"shard {lease.index}/{lease.total} lease dead: "
                        f"{why}; reassigning")
            if expired:
                used = attempts_here.get(lease.index, 0) + 1
                if used > max_attempts:
                    raise OrchestrationError(
                        f"shard {lease.index}/{lease.total} failed "
                        f"{used} time(s) this invocation; giving up. "
                        f"Last error: {lease.error or '(lease expired)'}"
                    )
                prior_attempt = lease.attempt
                refreshed = expire_lease(run_dir, lease)
                if (refreshed is lease
                        and refreshed.attempt == prior_attempt + 1):
                    # The expiry actually took; count the attempt.  If
                    # the lease moved under us (the "dead" worker
                    # finished, or went done mid-check), nothing was
                    # reassigned and nothing is charged.
                    attempts_here[lease.index] = used
                    pending += 1
        if all(lease.state == DONE for lease in leases.values()):
            return leases
        backend.maintain(run_dir, pending)
        if pending > 0 and backend.exhausted():
            raise OrchestrationError(
                f"{pending} shard(s) still pending but the backend's "
                f"worker/respawn budget is spent and no worker is "
                f"alive -- workers are dying before claiming work "
                f"(wrong tree? see {run_dir}/workers/*.log)"
            )
        # Count the shared cache (a full directory listing -- costly on
        # a big NFS cache dir) only when the shard ledger moved, not on
        # every poll tick.
        sig = tuple(sorted(
            (l.index, l.state, l.attempt, l.done_points)
            for l in leases.values()
        ))
        if sig != last_sig:
            last_sig = sig
            cached = len(cache)
            line = _progress_line(leases, cached, total_points)
            if line != last_line:
                log(line)
                last_line = line
        if timeout is not None and time.monotonic() - started > timeout:
            raise OrchestrationError(
                f"orchestration timed out after {timeout:.0f}s: {last_line}"
            )
        time.sleep(poll_interval)


def _merge_and_verify(
    run_dir: Path,
    manifest: RunManifest,
    specs,
    leases: Dict[int, ShardLease],
    backend,
) -> dict:
    """Merge shard records, cross-check against a cached serial replay,
    write and return the combined ``report.json`` payload."""
    # Collect each done shard's outcome records (one file per shard,
    # written atomically by whichever worker finished it last).
    shard_records: List[dict] = []
    shard_telemetry: Dict[int, dict] = {}
    for index in sorted(leases):
        path = report_path(run_dir, index)
        try:
            shard_records.append(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, json.JSONDecodeError) as exc:
            raise OrchestrationError(
                f"shard {index} is marked done but its report file "
                f"{path.name} is unreadable: {exc}"
            ) from exc
        telemetry = shard_records[-1].get("telemetry")
        if telemetry:
            shard_telemetry[index] = telemetry

    merged_per_spec = []
    for si, spec in enumerate(specs):
        records = [shard["spec_records"][si] for shard in shard_records
                   if si < len(shard.get("spec_records", []))]
        try:
            merged_per_spec.append(merge_report_records(records))
        except ValueError as exc:
            # Conflicting duplicate records, mixed-up shard files --
            # surface through the orchestration error taxonomy so the
            # CLI reports it cleanly instead of a raw traceback.
            raise MergeMismatchError(
                f"sweep {spec.name!r}: {exc}"
            ) from exc

    # The authoritative full-order result: a serial replay against the
    # shared cache.  Fully cached == every point was simulated exactly
    # once somewhere in the fleet.
    cache = ResultCache(manifest.cache_dir)
    replay_reports = run_sweeps(specs, workers=1, cache=cache)
    replay_records = [report.to_record() for report in replay_reports]

    for spec, merged, replay in zip(specs, merged_per_spec, replay_records):
        merged_points = {p["key"]: p["record"] for p in merged["points"]}
        replay_points = {p["key"]: p["record"] for p in replay["points"]}
        if merged_points != replay_points:
            missing = sorted(set(replay_points) - set(merged_points))
            extra = sorted(set(merged_points) - set(replay_points))
            differing = sorted(
                key for key in set(merged_points) & set(replay_points)
                if merged_points[key] != replay_points[key]
            )
            raise MergeMismatchError(
                f"sweep {spec.name!r}: merged shard records do not "
                f"match the cached replay (missing={missing[:3]}, "
                f"extra={extra[:3]}, differing={differing[:3]})"
            )

    replay_simulated = sum(report.misses for report in replay_reports)
    payload = {
        "run_dir": str(run_dir),
        "cache_dir": manifest.cache_dir,
        "shards": manifest.shards,
        "code": manifest.code,
        #: Points simulated by shard workers across every attempt.
        "simulated_points": sum(m["misses"] for m in merged_per_spec),
        #: Cache replays observed by shard workers (resumed shards).
        "replayed_points": sum(m["hits"] for m in merged_per_spec),
        #: Points the final replay had to simulate itself -- 0 unless a
        #: worker lost a race with cache eviction; always reported.
        "replay_simulated": replay_simulated,
        #: Transiently failed worker launches the backend retried
        #: (see repro.orchestrate.backends.LocalBackend._spawn_proc).
        "spawn_retries": backend.spawn_retries,
        "shard_provenance": [
            {
                "index": lease.index,
                "attempt": lease.attempt,
                "owner": lease.owner,
                "hits": lease.hits,
                "misses": lease.misses,
                # Telemetry bookkeeping shipped in the shard report (when
                # the fleet ran under a telemetry session): how many
                # points that shard captured and where the artifacts are.
                **(
                    {"telemetry": shard_telemetry[lease.index]}
                    if lease.index in shard_telemetry else {}
                ),
            }
            for lease in sorted(leases.values(), key=lambda l: l.index)
        ],
        "sweeps": replay_records,
    }
    atomic_write_json(run_dir / REPORT_NAME, payload, indent=1)
    return payload


def _default_log(message: str) -> None:
    print(f"orchestrate: {message}", file=sys.stderr, flush=True)


def orchestrate_run(
    run_dir: os.PathLike,
    backend,
    poll_interval: float = 0.5,
    max_attempts: int = 3,
    log: Callable[[str], None] = _default_log,
    timeout: Optional[float] = None,
) -> dict:
    """Drive an existing run directory to a merged, verified report.

    The manifest must already exist (see :func:`prepare_run`); this
    tree must match its code digest and spec fingerprints.  Returns the
    ``report.json`` payload.
    """
    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir)
    manifest.verify_code()
    specs = manifest.build_specs(verify=True)
    total_points = sum(len(spec.points) for spec in specs)
    log(f"run {run_dir.name}: {len(specs)} sweep(s), "
        f"{total_points} points in {manifest.shards} shard(s) "
        f"via {backend.describe()}")
    backend.launch(run_dir)
    try:
        leases = _poll_until_done(
            run_dir, manifest, backend, total_points,
            poll_interval=poll_interval, max_attempts=max_attempts,
            log=log, timeout=timeout,
        )
    finally:
        backend.shutdown()
    payload = _merge_and_verify(run_dir, manifest, specs, leases, backend)
    log(f"merged report written to {run_dir / REPORT_NAME} "
        f"({payload['simulated_points']} simulated, "
        f"{payload['replayed_points']} replayed from cache)")
    return payload


def resume_run(
    run_dir: os.PathLike,
    backend,
    poll_interval: float = 0.5,
    max_attempts: int = 3,
    log: Callable[[str], None] = _default_log,
    timeout: Optional[float] = None,
) -> dict:
    """Continue an interrupted run without recomputing cached points.

    Failed shards and stale running leases (heartbeat older than the
    TTL -- e.g. the whole previous fleet died with the dispatcher) are
    expired up front; leases with a *fresh* heartbeat are left alone,
    because their workers may well still be alive and writing into the
    shared cache.
    """
    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir)
    manifest.verify_code()
    now = time.time()
    revived = 0
    for lease in read_leases(run_dir).values():
        stale = (lease.state == RUNNING
                 and lease.heartbeat_age(now) > manifest.lease_ttl)
        if lease.state == FAILED or stale:
            expire_lease(run_dir, lease)
            revived += 1
    if revived:
        log(f"resume: reassigned {revived} dead shard(s)")
    return orchestrate_run(
        run_dir, backend, poll_interval=poll_interval,
        max_attempts=max_attempts, log=log, timeout=timeout,
    )
