"""The local worker pool that runs the orchestrator's shard workers.

A backend's only job is to get ``python -m repro orchestrate --worker
<run-dir>`` processes running; all coordination (claims, leases,
results) happens through the shared run directory and cache, so the
backend never carries protocol state.  :class:`LocalBackend` is a pool
of subprocesses on this machine (also what CI smoke-tests).

The pool exposes liveness (``dead_owners``) so the dispatcher can
reassign a crashed worker's shard *before* its lease TTL expires.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

WORKERS_SUBDIR = "workers"

#: Attempts per worker launch before the OSError propagates.  The
#: transient failures worth riding out (EAGAIN from a momentarily full
#: process table, a busy log file on a network filesystem) clear within
#: milliseconds; anything persistent should fail fast and loudly.
SPAWN_RETRY_LIMIT = 3

#: Base back-off delay between launch attempts, doubled each retry
#: (0.05 s, 0.1 s).  Deliberately jitter-free: tests and reruns observe
#: identical retry schedules.
SPAWN_BACKOFF_SECONDS = 0.05


def worker_command(
    run_dir: os.PathLike,
    worker_id: str,
    inner_workers: Optional[int] = 1,
) -> List[str]:
    """The argv that runs one shard worker against ``run_dir``."""
    cmd = [
        sys.executable, "-m", "repro", "orchestrate",
        "--worker", str(run_dir), "--worker-id", worker_id,
    ]
    if inner_workers is not None:
        cmd += ["--inner-workers", str(inner_workers)]
    return cmd


def _worker_env() -> dict:
    """Subprocess environment with this tree's ``repro`` importable."""
    import repro

    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    current = env.get("PYTHONPATH", "")
    parts = [package_parent] + ([current] if current else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class LocalBackend:
    """A pool of worker subprocesses on the local machine."""

    def __init__(self, workers: int = 2,
                 inner_workers: Optional[int] = 1,
                 max_spawns: Optional[int] = None) -> None:
        self.workers = max(1, int(workers))
        self.inner_workers = inner_workers
        #: Respawn budget: a crash-looping tree must not fork forever.
        self.max_spawns = (max_spawns if max_spawns is not None
                           else 4 * self.workers)
        self._procs: Dict[str, subprocess.Popen] = {}
        self._spawned = 0
        self._logs: List = []
        #: Launch attempts that failed transiently and were retried;
        #: surfaced in the run report's provenance.
        self.spawn_retries = 0

    def describe(self) -> str:
        return f"local pool ({self.workers} workers)"

    # -- liveness ------------------------------------------------------
    def live_owners(self) -> Set[str]:
        return {wid for wid, proc in self._procs.items()
                if proc.poll() is None}

    def dead_owners(self) -> Set[str]:
        """Workers whose process has exited (cleanly or not)."""
        return {wid for wid, proc in self._procs.items()
                if proc.poll() is not None}

    def live_count(self) -> int:
        return len(self.live_owners())

    def exhausted(self) -> bool:
        """No live workers left and the respawn budget is spent.

        The dispatcher turns this into a loud failure when claimable
        work remains -- a fleet whose workers all die before claiming
        anything (wrong tree, broken interpreter) must not poll
        forever in silence.
        """
        return (self._spawned >= self.max_spawns
                and self.live_count() == 0)

    # -- lifecycle -----------------------------------------------------
    def _spawn_proc(self, run_dir, cmd: Sequence[str], worker_id: str,
                    env: Optional[dict] = None) -> None:
        """Launch one worker, riding out transient ``OSError`` s.

        Bounded exponential back-off (:data:`SPAWN_RETRY_LIMIT`
        attempts, :data:`SPAWN_BACKOFF_SECONDS` base, doubling,
        jitter-free so the schedule is deterministic); the final
        attempt's failure propagates.  Each retried attempt counts in
        :attr:`spawn_retries` for the run report's provenance.
        """
        log_dir = Path(run_dir) / WORKERS_SUBDIR
        log_dir.mkdir(parents=True, exist_ok=True)
        env = env if env is not None else _worker_env()
        for attempt in range(SPAWN_RETRY_LIMIT):
            log = open(log_dir / f"{worker_id}.log", "ab")
            try:
                proc = subprocess.Popen(
                    list(cmd), stdout=log, stderr=subprocess.STDOUT, env=env,
                )
            except OSError:
                log.close()
                if attempt + 1 >= SPAWN_RETRY_LIMIT:
                    raise
                self.spawn_retries += 1
                time.sleep(SPAWN_BACKOFF_SECONDS * (2 ** attempt))
                continue
            self._logs.append(log)
            self._procs[worker_id] = proc
            self._spawned += 1
            return

    def shutdown(self) -> None:
        """Terminate stragglers and release log handles."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        for log in self._logs:
            try:
                log.close()
            except OSError:
                pass

    def _spawn(self, run_dir) -> None:
        worker_id = f"local-w{self._spawned}-{os.getpid()}"
        cmd = worker_command(run_dir, worker_id,
                             inner_workers=self.inner_workers)
        self._spawn_proc(run_dir, cmd, worker_id)

    def launch(self, run_dir) -> None:
        for _ in range(self.workers):
            self._spawn(run_dir)

    def maintain(self, run_dir, pending: int) -> None:
        """Top the pool back up while claimable work remains."""
        while (pending > 0 and self.live_count() < self.workers
               and self._spawned < self.max_spawns):
            self._spawn(run_dir)
            pending -= 1
