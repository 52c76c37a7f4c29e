"""Layer profile: host time per ``repro`` subpackage, per simulated point.

With ``--profile``, the sweep engine wraps each simulated point's window
(system acquisition and reset, ``runner.run``, ``runner.encode``) in
one :class:`cProfile.Profile`, taken from outside the simulator, and
:func:`layer_profile` turns it into a ``<key>.profile.json`` artifact:
self time (``tottime``) and share per layer, plus the heaviest
functions, each tagged with its layer.

A function's layer is the ``repro`` subpackage its file lives in
(:func:`layer_of`), named like the benchmark's per-layer metrics:
``repro/sweep/cache.py`` is ``result_cache``.  Everything outside
``repro`` -- the interpreter's built-ins and the standard library --
is ``python``.  Because the grouping follows the code that actually
ran, cache work done synchronously inside a DMA or bus callback counts
as ``cache``, not as the event that called it.

The profile is host-side observation only: it never touches simulated
time, so results stay bit-identical.  Its numbers are wall-clock and
therefore non-deterministic; they go only into the artifact file,
never into result records or the cross-process telemetry summary.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # imported lazily: this module loads on every sweep
    import cProfile

__all__ = [
    "TOP_FUNCTIONS",
    "layer_of",
    "layer_profile",
    "refuse_nested_profile",
    "start_profile",
]

#: Heaviest functions (by self time) listed in each artifact.
TOP_FUNCTIONS = 20


def layer_of(filename: str) -> str:
    """The layer of the code in ``filename`` (a cProfile file name)."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts[:-1]:
        return "python"
    rest = parts[len(parts) - 1 - parts[-2::-1].index("repro"):]
    if rest == ["sweep", "cache.py"]:
        return "result_cache"
    return rest[0] if len(rest) > 1 else "repro"


def refuse_nested_profile() -> None:
    """Raise ``RuntimeError`` naming any profiler already active here.

    ``cProfile`` replaces an existing ``sys.setprofile`` hook silently
    (3.11) or fails with a bare ``ValueError`` (3.12+), so ``--profile``
    checks first and refuses with a message naming the other profiler.
    """
    hook = sys.getprofile()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    if hook is not None:
        kind = hook if hasattr(hook, "__qualname__") else type(hook)
        other = f"{kind.__module__}.{kind.__qualname__}"
    elif monitoring is not None:
        other = monitoring.get_tool(monitoring.PROFILER_ID)
    else:
        other = None
    if other is not None:
        raise RuntimeError(
            f"--profile cannot run under another profiler ({other} is "
            f"active); drop --profile or the outer profiler"
        )


def start_profile() -> cProfile.Profile:
    """An enabled profile; refuses to displace another profiler."""
    import cProfile

    refuse_nested_profile()
    profile = cProfile.Profile()
    profile.enable()
    return profile


def layer_profile(profile: cProfile.Profile) -> dict:
    """The artifact document of a finished (disabled) profile."""
    import pstats

    layers: dict = {}
    functions = []
    for (filename, line, name), row in pstats.Stats(profile).stats.items():
        _cc, calls, self_s, cum_s, _callers = row
        layer = layer_of(filename)
        layers[layer] = layers.get(layer, 0.0) + self_s
        functions.append({
            "function": f"{filename}:{line}({name})",
            "layer": layer,
            "calls": calls,
            "self_s": self_s,
            "cum_s": cum_s,
        })
    total = sum(layers.values())
    functions.sort(key=lambda row: (-row["self_s"], row["function"]))
    return {
        "total_s": total,
        "layers": {
            layer: {"seconds": seconds,
                    "share": seconds / total if total else 0.0}
            for layer, seconds in sorted(layers.items(),
                                         key=lambda kv: (-kv[1], kv[0]))
        },
        "functions": functions[:TOP_FUNCTIONS],
    }
