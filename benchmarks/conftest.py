"""Shared benchmark configuration.

Every bench reproduces one table or figure of the paper.  Problem sizes
default to reduced values so the whole harness finishes in minutes; set
``REPRO_FULL=1`` for paper-scale runs (2048x2048 matrices, full ViT
dimensions).  Where a reduced working set would fit in the LLC and mask
the memory system, the experiment bypasses the cache instead: Fig. 5/6
host-side runs use the DM access method (``repro.sweep.experiments``).

Each bench prints its table next to the paper's reference values; the
pytest-benchmark timer wraps the headline configuration so regression
tracking covers the simulator itself.
"""

from __future__ import annotations

import os

import pytest

#: Paper-scale toggle.
FULL = os.environ.get("REPRO_FULL", "0") == "1"


def scaled(reduced, full):
    """Pick the problem size for the current mode."""
    return full if FULL else reduced


def sweep_options() -> dict:
    """Engine options for benchmark sweeps.

    Workers come from ``$REPRO_SWEEP_WORKERS`` (serial by default so
    pytest-benchmark timings measure the simulator, not the pool), and
    the on-disk result cache is opt-in via ``REPRO_SWEEP_CACHE=1`` for
    the same reason.  Cache keys include the full configuration and the
    GEMM dimensions, so reduced and REPRO_FULL=1 runs never collide.
    """
    return {
        "workers": None,
        "cache": os.environ.get("REPRO_SWEEP_CACHE", "0") == "1",
    }


@pytest.fixture(scope="session")
def repro_mode() -> str:
    return "paper-scale" if FULL else "reduced"


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title, f"[{'FULL' if FULL else 'reduced'} scale]")
    print("=" * 72)
