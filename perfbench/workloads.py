"""The benchmark's four workloads, each a slice of what users run.

A workload is a list of *units* for a seed. A unit is one experiment, one
sweep point, or one LSM stream, called in-process through the experiment
modules' public entry points and ``repro.apps.lsm`` -- never through
``repro.exec``, so no result cache is ever timed. Every unit does the same
fixed work each time it runs, from a fresh device stack, so the runner can
repeat it. Each unit returns a result whose
JSON-safe summary the runner digests and checks: experiment units at seed
0 must equal ``tests/golden/run_all.json``, the others ``pinned.json``.

Units are small (0.1-3 s) so that several passes of a workload fit in
one run, with the calibration reference sampled before each unit.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: The LSM shape E4, A2 and E5 use.
_LSM_SHAPE = {"memtable_pages": 64, "level0_pages": 768, "max_table_pages": 32}


def _identity(result: Any) -> Any:
    return result


@dataclass
class Unit:
    """One timed piece of a workload.

    ``run(state)`` does the unit's work and returns its result; ``state``
    is what ``prepare()`` returned (set-up timed apart from the unit), or
    None. ``summary`` maps the result to the JSON-safe value that is
    digested and compared with the golden or pinned reference; ``golden``
    names the row of ``tests/golden/run_all.json`` it must equal at seed 0
    as ``(experiment id, row filter or None)``, and None means the unit is
    checked against ``pinned.json``. ``ops`` maps a result to the user
    operations it completed; ``failures`` to how many of them disagreed
    with the benchmark's own model. ``group`` names the
    ``experiments.<group>.wall_s`` metric the unit's time adds to.
    """

    unit_id: str
    run: Callable[[Any], Any]
    golden: tuple[str, Callable[[dict], bool] | None] | None = None
    prepare: Callable[[], Any] | None = None
    summary: Callable[[Any], Any] = _identity
    ops: Callable[[Any], int] = lambda result: 1
    failures: Callable[[Any], int] | None = None
    group: str = ""

    def __post_init__(self) -> None:
        self.group = self.group or self.unit_id


def _experiment(experiment_id: str, seed: int) -> dict:
    from repro.experiments.base import ExperimentConfig
    from repro.experiments.runner import module_for

    return module_for(experiment_id).run(ExperimentConfig(experiment_id, seed=seed)).to_dict()


def _experiment_unit(experiment_id: str, seed: int) -> Unit:
    return Unit(
        experiment_id,
        lambda _: _experiment(experiment_id, seed),
        golden=(experiment_id, None),
    )


class Workload:
    """Base: ``units(seed)`` lists the work of one pass."""

    name = ""

    def units(self, seed: int) -> list[Unit]:
        raise NotImplementedError


# -- LSM streams ----------------------------------------------------------------


def _zoned_store() -> Any:
    """An LSMStore on a ZNS zone-file backend (E5's ZNS stack)."""
    from repro.apps.lsm import LSMConfig, LSMStore, ZoneFileBackend
    from repro.block.factory import DeviceSpec, build_stack

    device = build_stack(
        DeviceSpec(kind="zns", geometry="small", blocks_per_zone=2, max_active_zones=14)
    )
    return LSMStore(ZoneFileBackend(device), LSMConfig(**_LSM_SHAPE))


def _block_store() -> Any:
    """An LSMStore on a conventional-SSD file backend with TRIM (E5's block stack)."""
    from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore
    from repro.block.factory import DeviceSpec, build_stack

    ssd = build_stack(
        DeviceSpec(kind="conventional-ssd", geometry="small", ftl={"op_ratio": 0.07})
    )
    return LSMStore(BlockFileBackend(ssd, trim_on_delete=True), LSMConfig(**_LSM_SHAPE))


STORES = {"zns": _zoned_store, "block": _block_store}


def _store_summary(store: Any) -> dict:
    stats = store.stats
    return {
        "levels": [len(level) for level in store.levels],
        "flushes": stats.flushes,
        "compactions": stats.compactions,
        "flush_pages": stats.flush_pages,
        "compaction_pages": stats.compaction_pages,
        "wal_pages": stats.wal_pages,
        "table_reads": stats.table_reads,
        "bloom_skips": stats.bloom_skips,
        "scan_pages_read": stats.scan_pages_read,
        "flash_bytes_written": _nand(store).physical_bytes_written(),
    }


def _nand(store: Any) -> Any:
    """The flash array under a store: the ZNS device's, or the SSD FTL's."""
    device = store.backend.device
    return device.nand if hasattr(device, "nand") else device.ftl.nand


# -- lsm-ingest ---------------------------------------------------------------------

#: A2's key space; 60,000 puts fill three levels (about 30 flushes and
#: 30 compactions per store).
INGEST_KEY_SPACE = 100_000
INGEST_PUTS = 60_000


@dataclass
class IngestResult:
    store: Any
    model: dict[int, int]


def ingest_keys(seed: int, puts: int = INGEST_PUTS) -> list[int]:
    rng = np.random.default_rng([seed, 0x494E47])
    return rng.integers(0, INGEST_KEY_SPACE, puts).tolist()


def ingest(make_store: Callable[[], Any], keys: list[int]) -> IngestResult:
    """Put ``keys`` (value = position) into a fresh store."""
    store = make_store()
    put = store.put
    for value, key in enumerate(keys):
        put(key, value)
    return IngestResult(store, {key: value for value, key in enumerate(keys)})


def ingest_failures(result: IngestResult) -> int:
    """Keys whose value a full scan of the store gets wrong, missing or extra."""
    got = dict(result.store.scan(0, INGEST_KEY_SPACE))
    want = result.model
    return sum(got.get(key) != value for key, value in want.items()) + len(got.keys() - want.keys())


class LsmIngest(Workload):
    """A seeded put-only stream into an LSMStore on each interface: the
    put/flush/compaction path (bloom builds, merges, table writes) on a
    ZNS zone-file backend and on a conventional block backend."""

    name = "lsm-ingest"

    def units(self, seed: int) -> list[Unit]:
        keys = ingest_keys(seed)
        return [
            Unit(
                f"ingest.{kind}",
                lambda _, make=make: ingest(make, keys),
                summary=lambda result: _store_summary(result.store),
                ops=lambda result: len(keys),
                failures=ingest_failures,
            )
            for kind, make in STORES.items()
        ]


# -- fleet --------------------------------------------------------------------------


def _fleet_requests(point: dict) -> int:
    counters = point["frame"]["counters"]
    return int(
        counters.get("fleet.request.read.requests", 0)
        + counters.get("fleet.request.write.requests", 0)
    )


def _sweep_units(experiment_id: str, seed: int, keep: Callable[[dict], bool], label) -> list[Unit]:
    """One unit per kept sweep point of a fleet experiment."""
    from repro.experiments.base import ExperimentConfig
    from repro.experiments.runner import module_for

    sweep = module_for(experiment_id).SWEEP
    return [
        Unit(
            f"{experiment_id}/{label(point)}",
            lambda _, point=point: sweep.point(**point),
            ops=_fleet_requests,
            group=experiment_id,
        )
        for point in sweep.points(ExperimentConfig(experiment_id, seed=seed))
        if keep(point)
    ]


class Fleet(Workload):
    """Shard 0 of eight E16 scenarios (both arms x both loads x fault scale
    0/1, least-loaded placement) and of five E17 scenarios (the
    conventional bar, naive and managed ZNS at 5 ms resets without faults
    and at 20 ms resets with management faults)."""

    name = "fleet"

    def units(self, seed: int) -> list[Unit]:
        e16 = _sweep_units(
            "E16", seed,
            lambda p: p["placement"] == "least-loaded" and p["shard"] == 0,
            lambda p: f"{p['arm']}.{p['load']}.f{p['fault_scale']:g}",
        )
        e17 = _sweep_units(
            "E17", seed,
            lambda p: p["shard"] == 0
            and (p["pressure_us"], p["mgmt_scale"]) in ((0.0, 0.0), (5_000.0, 0.0), (20_000.0, 1.0))
            and (p["arm"] == "conventional") == (p["pressure_us"] == 0.0),
            lambda p: f"{p['arm']}.r{p['pressure_us']:g}.m{p['mgmt_scale']:g}",
        )
        return e16 + e17


# -- device -------------------------------------------------------------------------


class Device(Workload):
    """Conventional-FTL GC (E1), ZNS append under the DES (E7), DFTL with
    a one-page CMT (A4's 12.5 % coverage point) and dm-zoned with simple
    copy on the timed stack (E12's point); no app layer."""

    name = "device"

    def units(self, seed: int) -> list[Unit]:
        from repro.experiments import a4_dramless, e12_dmzoned

        return [
            _experiment_unit("E1", seed),
            _experiment_unit("E7", seed),
            Unit(
                "A4.cmt4k",
                lambda _: a4_dramless.measure_cmt_budget(4096, True, seed),
                golden=("A4", lambda row: row["cmt_translation_pages"] == 1),
            ),
            Unit(
                "E12.simple-copy",
                lambda _: e12_dmzoned.measure_stack("zns+simple-copy", True, seed),
                golden=("E12", lambda row: row["stack"] == "zns+simple-copy"),
            ),
        ]


# -- lsm-serve ------------------------------------------------------------------

#: Keys are drawn from [0, KEY_SPACE); the load covers about half of them,
#: so gets both hit and miss (misses exercise the bloom filters).
KEY_SPACE = 50_000
LOAD_PUTS = 40_000
#: Ops in the timed stream; each op goes to both stores.
STREAM_OPS = 25_000
GET_SHARE = 0.75
PUT_SHARE = 0.20
SCAN_WIDTH = 16

GET, PUT, SCAN = 0, 1, 2


@dataclass(frozen=True)
class OpStream:
    """A seeded op stream: ``kinds[i]`` in {GET, PUT, SCAN}, ``keys[i]``."""

    load_keys: tuple[int, ...]
    kinds: tuple[int, ...]
    keys: tuple[int, ...]


def make_op_stream(seed: int, ops: int = STREAM_OPS, load: int = LOAD_PUTS) -> OpStream:
    """The load put stream and the get-heavy op mix for ``seed``."""
    rng = np.random.default_rng([seed, 0x4C534D])
    load_keys = rng.integers(0, KEY_SPACE, load)
    draws = rng.random(ops)
    kinds = np.where(draws < GET_SHARE, GET, np.where(draws < GET_SHARE + PUT_SHARE, PUT, SCAN))
    keys = rng.integers(0, KEY_SPACE, ops)
    return OpStream(tuple(load_keys.tolist()), tuple(kinds.tolist()), tuple(keys.tolist()))


class KvModel:
    """The dict the stores are checked against, with sorted keys for scans."""

    def __init__(self) -> None:
        self.data: dict[int, int] = {}
        self.sorted_keys: list[int] = []

    def put(self, key: int, value: int) -> None:
        if key not in self.data:
            bisect.insort(self.sorted_keys, key)
        self.data[key] = value

    def scan(self, lo: int, hi: int) -> list[tuple[int, int]]:
        start = bisect.bisect_left(self.sorted_keys, lo)
        end = bisect.bisect_right(self.sorted_keys, hi)
        return [(k, self.data[k]) for k in self.sorted_keys[start:end]]


@dataclass
class KvState:
    stream: OpStream
    stores: list[Any]
    model: KvModel


@dataclass
class KvResult:
    """What the op stream produced: a digestable summary plus timings."""

    summary: dict
    get_ns: list[int]
    ops: int
    failed: int


def load_stores(stream: OpStream) -> KvState:
    """Fresh stores on both backends, loaded with the stream's put phase."""
    stores = [make() for make in STORES.values()]
    model = KvModel()
    for value, key in enumerate(stream.load_keys):
        for store in stores:
            store.put(key, value)
        model.put(key, value)
    return KvState(stream, stores, model)


def run_op_stream(state: KvState) -> KvResult:
    """Apply the op mix to every store and check each answer against the model.

    Each ``get`` is timed on its own (host nanoseconds); puts and scans
    are timed only as part of the stream.
    """
    stream, stores, model = state.stream, state.stores, state.model
    perf_ns = time.perf_counter_ns
    get_ns: list[int] = []
    failed = 0
    hits = 0
    scanned = 0
    value = len(stream.load_keys)
    for kind, key in zip(stream.kinds, stream.keys):
        if kind == GET:
            expected = model.data.get(key)
            hits += expected is not None
            for store in stores:
                start = perf_ns()
                got = store.get(key)
                get_ns.append(perf_ns() - start)
                failed += got != expected
        elif kind == PUT:
            value += 1
            for store in stores:
                store.put(key, value)
            model.put(key, value)
        else:
            expected = model.scan(key, key + SCAN_WIDTH)
            scanned += len(expected)
            for store in stores:
                failed += store.scan(key, key + SCAN_WIDTH) != expected
    summary = {
        "ops": len(stream.kinds) * len(stores),
        "get_hits": hits,
        "scanned_keys": scanned,
        "stores": [_store_summary(store) for store in stores],
    }
    return KvResult(summary, get_ns, summary["ops"], failed)


class LsmServe(Workload):
    """Load a seeded put stream into a zone-file and a block-backed LSMStore
    (set-up), then run a get-heavy put/get/scan mix checked against a dict
    model. The stream mutates the stores, so every repeat loads afresh."""

    name = "lsm-serve"

    def units(self, seed: int) -> list[Unit]:
        stream = make_op_stream(seed)
        return [
            Unit(
                "kv.ops",
                run_op_stream,
                prepare=lambda: load_stores(stream),
                summary=lambda result: result.summary,
                ops=lambda result: result.ops,
                failures=lambda result: result.failed,
            )
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (LsmIngest(), LsmServe(), Fleet(), Device())
}

__all__ = [
    "KvModel", "OpStream", "Unit", "WORKLOADS", "Workload", "ingest", "make_op_stream",
]
