"""cProfile capture for experiment runs (``zns-repro run --profile``).

Profiling composes with the process pool: the executor raises
:data:`PROFILE_ENV` before forking workers, each worker profiles its own
unit of work (a whole experiment or a single sweep point) independently,
and the top cumulative-time entries travel back with the result payload
into :attr:`ExperimentResult.metrics`, next to a per-layer table: the
profile's self time summed per ``repro.<package>`` (``apps``, ``ftl``,
``zns``, ``flash``, ``sim``, ...), each with its seconds and its share.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from typing import Any, Callable

import repro

#: Set (to anything but ""/"0") to make worker entry points profile
#: themselves. The executor manages this around pool creation.
PROFILE_ENV = "ZNS_REPRO_PROFILE"

#: How many entries of the cumulative-time ranking are kept.
TOP_ENTRIES = 30

#: Layer charged with time no ``repro`` package can be blamed for.
OTHER = "other"

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def profiling_requested() -> bool:
    """True when the profiling env var is raised (worker-side check)."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


def profiled_call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, dict]:
    """Run ``fn`` under cProfile.

    Returns ``(result, {"entries": top cumulative entries, "layers":
    per-layer self time})``.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    stats = pstats.Stats(profile)
    return result, {"entries": top_entries(stats), "layers": layer_table(stats)}


def top_entries(stats: pstats.Stats, limit: int = TOP_ENTRIES) -> list[dict]:
    """The ``limit`` hottest functions by cumulative time, JSON-safe."""
    rows = []
    for (filename, line, func), (_cc, ncalls, tottime, cumtime, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        location = f"{os.path.basename(filename)}:{line}" if line else filename
        rows.append(
            {
                "function": func,
                "location": location,
                "ncalls": int(ncalls),
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )
    rows.sort(key=lambda row: (-row["cumtime_s"], row["location"], row["function"]))
    return rows[:limit]


def layer_of(filename: str) -> str | None:
    """The ``repro.<package>`` a source file belongs to; None outside repro."""
    if not filename.startswith(_REPRO_DIR):
        return None
    package, sep, _ = filename[len(_REPRO_DIR) :].partition(os.sep)
    return package if sep else OTHER


def layer_table(stats: pstats.Stats) -> dict[str, dict]:
    """Self time per layer, largest first, JSON-safe.

    Each layer's ``tottime_s`` and ``share`` of the profile's total self
    time; the seconds sum to that total. A function inside ``repro`` is
    charged to its package. A function outside it (a builtin such as
    ``sorted``, hashlib, numpy) is charged to the layers that called it,
    split by each caller's cumulative time in it and followed up through
    callers that are themselves outside ``repro``. Time with no ``repro``
    caller at all goes to ``other``.
    """
    table = stats.stats  # type: ignore[attr-defined]
    owners: dict[tuple, dict[str, float]] = {}

    def owner_shares(func: tuple, path: frozenset) -> dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = table[func][4] if func in table else {}
        if not callers or func in path:
            return {OTHER: 1.0}
        weights = {caller: edge[3] for caller, edge in callers.items()}
        total = sum(weights.values())
        shares: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            fraction = weight / total if total else 1 / len(weights)
            for owner, share in owner_shares(caller, path | {func}).items():
                shares[owner] += fraction * share
        owners[func] = dict(shares)
        return owners[func]

    seconds: dict[str, float] = defaultdict(float)
    for func, (_cc, _ncalls, tottime, _cumtime, _callers) in table.items():
        for owner, share in owner_shares(func, frozenset()).items():
            seconds[owner] += tottime * share
    return _as_table(seconds)


def merge_layer_tables(tables: list[dict[str, dict]]) -> dict[str, dict]:
    """One table for several profiled units (the points of a sweep)."""
    seconds: dict[str, float] = defaultdict(float)
    for table in tables:
        for layer, row in table.items():
            seconds[layer] += row["tottime_s"]
    return _as_table(seconds)


def _as_table(seconds: dict[str, float]) -> dict[str, dict]:
    total = sum(seconds.values())
    return {
        layer: {
            "tottime_s": round(value, 6),
            "share": round(value / total, 4) if total else 0.0,
        }
        for layer, value in sorted(seconds.items(), key=lambda kv: (-kv[1], kv[0]))
    }


__all__ = [
    "OTHER",
    "PROFILE_ENV",
    "TOP_ENTRIES",
    "layer_of",
    "layer_table",
    "merge_layer_tables",
    "profiled_call",
    "profiling_requested",
    "top_entries",
]
