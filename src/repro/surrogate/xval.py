"""Surrogate cross-validation: measure the error before trusting it.

The ladder's safety margin is only honest if the surrogate's error is
*measured* on the grid being pruned.  :func:`cross_validate` simulates a
stratified sample (every N-th point, so the sample spans the grid's
dynamic range), fits one multiplicative scale factor per runner (the
median simulated/estimated ratio -- the surrogate's systematic bias),
and records the residual relative error quantiles after scaling:

* ``p50`` -- the *signed* median residual (should sit near zero once the
  scale factor is fitted),
* ``p95`` / ``max`` -- quantiles of the *absolute* relative error; the
  ladder refuses to prune when ``p95`` exceeds the margin.

Because the sampled points run through the normal sweep engine, their
results land in the shared content-addressed cache -- cross-validation
pre-warms exactly the points a later ladder run may select.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.surrogate.model import estimate_spec
from repro.sweep.spec import SweepSpec


@dataclass(frozen=True)
class RunnerCalibration:
    """Fitted scale factor and residual error quantiles for one runner."""

    scale: float
    p50: float  # signed median residual after scaling
    p95: float  # absolute relative error, 95th percentile
    max: float  # absolute relative error, worst sample
    samples: int

    def to_record(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Calibration:
    """Per-runner calibration, JSON round-trippable for the CLI."""

    runners: Dict[str, RunnerCalibration] = field(default_factory=dict)

    def scale_for(self, runner: str) -> float:
        entry = self.runners.get(runner)
        return entry.scale if entry is not None else 1.0

    def p95_for(self, runner: str) -> Optional[float]:
        entry = self.runners.get(runner)
        return entry.p95 if entry is not None else None

    def to_record(self) -> Dict[str, Any]:
        return {
            name: entry.to_record() for name, entry in self.runners.items()
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Calibration":
        return cls(
            runners={
                name: RunnerCalibration(**entry)
                for name, entry in record.items()
            }
        )

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_record(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path) -> "Calibration":
        return cls.from_record(json.loads(Path(path).read_text()))

    def describe(self) -> str:
        lines = []
        for name, entry in sorted(self.runners.items()):
            lines.append(
                f"{name}: scale {entry.scale:.4g}, residual p50 "
                f"{entry.p50:+.4f}, |err| p95 {entry.p95:.4f} / "
                f"max {entry.max:.4f} ({entry.samples} samples)"
            )
        return "\n".join(lines) or "(no calibrated runners)"


def simulated_ticks(result) -> float:
    """The time objective of any runner's result object (or record)."""
    for attr in ("ticks", "total_ticks"):
        value = getattr(result, attr, None)
        if value is not None:
            return float(value)
    if isinstance(result, dict):
        for key in ("ticks", "total_ticks"):
            if key in result:
                return float(result[key])
    raise TypeError(
        f"cannot extract a tick count from {type(result).__name__}"
    )


def stratified_sample(spec: SweepSpec, fraction: float = 0.5) -> SweepSpec:
    """Every N-th point of the grid, at least two when the grid has two.

    Points keep their keys and configs, so the sampled results share
    cache entries with the full sweep.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    stride = max(1, round(1.0 / fraction))
    points = list(spec.points[::stride])
    if len(points) < 2 and len(spec.points) >= 2:
        points = [spec.points[0], spec.points[-1]]
    return dataclasses.replace(spec, points=points)


def cross_validate(
    spec: SweepSpec,
    fraction: float = 0.5,
    workers: Optional[int] = None,
    cache=True,
    cache_dir=None,
    progress=None,
) -> Calibration:
    """Simulate a stratified sample and fit the surrogate against it."""
    from repro.sweep.engine import run_sweep

    sample = stratified_sample(spec, fraction)
    estimates = {est.key: est for est in estimate_spec(sample)}
    report = run_sweep(
        sample, workers=workers, cache=cache, cache_dir=cache_dir,
        progress=progress,
    )
    runner = spec.runner if isinstance(spec.runner, str) else getattr(
        spec.runner, "name", str(spec.runner)
    )
    pairs: List[tuple] = []
    for key, result in report.results().items():
        sim = simulated_ticks(result)
        est = estimates[key].ticks
        if sim <= 0 or est <= 0:
            raise ValueError(
                f"non-positive time at point {key!r}: sim={sim}, est={est}"
            )
        pairs.append((sim, est))
    if not pairs:
        raise ValueError(f"sweep '{spec.name}' produced no sample results")

    scale = statistics.median(sim / est for sim, est in pairs)
    signed = sorted((est * scale - sim) / sim for sim, est in pairs)
    absolute = sorted(abs(err) for err in signed)
    entry = RunnerCalibration(
        scale=scale,
        p50=_quantile(signed, 0.50),
        p95=_quantile(absolute, 0.95),
        max=absolute[-1],
        samples=len(pairs),
    )
    return Calibration(runners={runner: entry})


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of a pre-sorted sample."""
    if not ordered:
        raise ValueError("empty sample")
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]
