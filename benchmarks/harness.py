#!/usr/bin/env python
"""Tracked benchmark harness for the device-stack hot paths.

Runs a fixed-seed scenario suite comparing the vectorized/batched paths
introduced by the perf PR against a *legacy* reference that re-creates
the pre-optimization per-page code (so the speedup is measured against
what the repo actually shipped before, not against a strawman), then
gates the results against a committed baseline::

    PYTHONPATH=src python benchmarks/harness.py                 # run + gate
    PYTHONPATH=src python benchmarks/harness.py --no-gate       # measure only
    PYTHONPATH=src python benchmarks/harness.py --scenarios e1_wa_vs_op,e7_append

Each scenario reports operations/second, wall time, and peak RSS, and
asserts that both implementations agree on the physics (same WA, GC run
counts, zone states) before timing is trusted. Results land in
``BENCH_PR10.json``; the gate fails (exit 1) when a scenario's speedup
falls below ``max(speedup_floor, speedup_reference * (1 - tolerance))``
from ``benchmarks/baseline.json`` -- i.e. a >20% throughput regression
against the committed reference, or dropping under the absolute floor
the PR promises. The file also records its provenance: commit, Python
and numpy versions, and CPU count.

The scenarios are pure CPU with fixed seeds; speedup ratios (not raw
ops/sec) carry across machines, which is what the gate keys on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.block.factory import DeviceSpec, build_stack  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.flash.geometry import FlashGeometry  # noqa: E402
from repro.flash.ops import FlashOp, OpKind  # noqa: E402
from repro.fleet import FleetSpec, fleet_summary, simulate_fleet  # noqa: E402
from repro.ftl.ftl import ConventionalFTL, FTLConfig, GCStuckError  # noqa: E402
from repro.obs.events import GcEvent  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.sim.engine import Engine, Timeout  # noqa: E402
from repro.workloads.synthetic import (  # noqa: E402
    sequential_stream,
    uniform_array,
    zipfian_stream,
)
from repro.zns.zone import ZoneState  # noqa: E402

DEFAULT_OUT = "BENCH_PR10.json"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
TOLERANCE = 0.20  # >20% throughput regression vs the committed reference fails


# -- Legacy reference implementation -------------------------------------------
#
# The pre-optimization hot paths, verbatim: property-computed geometry
# sizes, pure-python min() block allocation, a per-candidate victim
# scan, and a page-at-a-time GC copy loop. Hosts drive it through the
# (still per-page) scalar write(), so a legacy run exercises the code
# the repo shipped before the vectorization PR. Where the shim cannot
# reproduce an old cost exactly it errs fast, so measured speedups are
# a floor on the true improvement.


class LegacyGeometry(FlashGeometry):
    """Pre-PR FlashGeometry: derived sizes recomputed on every access.

    The PR turned these five properties into precomputed fields; the
    no-op setters absorb ``__post_init__``'s cache writes so inherited
    address arithmetic transparently pays the old per-access cost.
    """

    total_planes = property(
        lambda self: self.planes_per_channel * self.channels, lambda self, v: None
    )
    total_blocks = property(
        lambda self: self.blocks_per_plane * self.total_planes, lambda self, v: None
    )
    total_pages = property(
        lambda self: self.total_blocks * self.pages_per_block, lambda self, v: None
    )
    block_size = property(
        lambda self: self.pages_per_block * self.page_size, lambda self, v: None
    )
    capacity_bytes = property(
        lambda self: self.total_pages * self.page_size, lambda self, v: None
    )

    @staticmethod
    def bench() -> "LegacyGeometry":
        return LegacyGeometry(
            page_size=4 * 1024,
            pages_per_block=128,
            blocks_per_plane=32,
            planes_per_channel=2,
            channels=8,
        )


class LegacyFTL(ConventionalFTL):
    """ConventionalFTL with the pre-PR scalar allocation and GC loops."""

    def _take_free_block(self) -> int:
        if not self._free:
            raise GCStuckError("free block pool is empty")
        wear = self.nand.wear.erase_counts
        planes = self.geometry.total_planes
        preferred = self._plane_cursor % planes
        self._plane_cursor += 1

        def key(block: int) -> tuple[int, int]:
            plane_distance = (self.geometry.plane_of_block(block) - preferred) % planes
            return (int(wear[block]), plane_distance)

        best = min(self._free, key=key)
        self._free.remove(best)
        return best

    def collect_once(self, build_ops: bool = True) -> list[FlashOp]:
        candidates = self._sealed
        if not candidates:
            raise GCStuckError("no sealed blocks to collect")
        victim = self.policy.select(
            candidates,
            self.map.block_valid_count,
            self.geometry.pages_per_block,
            lambda b: self._seal_times.get(b, 0),
            self._clock,
        )
        if self.map.block_valid_count(victim) >= self.geometry.pages_per_block:
            victim = min(candidates, key=self.map.block_valid_count)
        valid = self.map.valid_pages_in_block(victim)
        if len(valid) >= self.geometry.pages_per_block:
            raise GCStuckError(f"victim block {victim} is fully valid; no spare capacity")
        if self.tracer.enabled:
            self.tracer.publish(
                GcEvent(
                    "ftl.gc", "victim-selected", victim=victim,
                    valid_pages=len(valid), free_blocks=len(self._free),
                )
            )
        ops: list[FlashOp] = []
        for src in valid:
            dst_block = self._gc_destination()
            offset = self.nand.write_offset(dst_block)
            dst_page = self.geometry.first_page_of_block(dst_block) + offset
            latency = self.nand.copy_page(src, dst_page)
            self.map.relocate(src, dst_page)
            self.stats.gc_pages_copied += 1
            ops.append(
                FlashOp(
                    OpKind.COPY, dst_block, dst_page, latency,
                    uses_channel=not self.config.copyback,
                )
            )
        erase_latency = self.nand.erase(victim)
        self._sealed.discard(victim)
        self._seal_times.pop(victim, None)
        self.policy.notify_erased(victim)
        self._free.append(victim)
        self.stats.blocks_erased += 1
        ops.append(FlashOp(OpKind.ERASE, victim, None, erase_latency))
        self.stats.gc_runs += 1
        if self.tracer.enabled:
            self.tracer.publish(
                GcEvent(
                    "ftl.gc", "collected", victim=victim,
                    pages_copied=len(valid), free_blocks=len(self._free),
                )
            )
        return ops


# -- Measurement helpers --------------------------------------------------------


def _timed(fn, repeats: int = 1):
    """(result_of_last_run, best wall seconds over ``repeats`` runs)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _provenance() -> dict:
    """Where a result file came from: commit, interpreter, numpy, CPUs.

    ``commit`` is ``None`` outside a git checkout; ``dirty`` says whether
    tracked files differed from that commit when the run started.
    """
    root = Path(__file__).resolve().parent.parent

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _wa_workload(ftl_cls, op_ratio: float, multiple: float, seed: int, batched: bool) -> dict:
    """The E1/E14 steady-state WA measurement on either implementation."""
    config = FTLConfig(
        op_ratio=op_ratio, gc_policy="greedy", gc_low_watermark=1, gc_high_watermark=2
    )
    geometry = FlashGeometry.bench() if batched else LegacyGeometry.bench()
    ftl = ftl_cls(geometry, config)
    n = ftl.logical_pages
    phases = [
        np.arange(n, dtype=np.int64),
        uniform_array(n, n, seed=seed),
        uniform_array(n, int(multiple * n), seed=seed + 1),
    ]
    pages = 0
    for phase in phases:
        if batched:
            ftl.write_pages(phase)
        else:
            for lpn in phase.tolist():
                ftl.write(lpn)
        pages += int(phase.size)
    stats = ftl.stats
    return {
        "pages": pages,
        "wa": stats.device_write_amplification,
        "gc_runs": stats.gc_runs,
        "blocks_erased": stats.blocks_erased,
        "mapped": ftl.map.mapped_pages,
    }


def _wa_scenario(name: str, op_ratio: float, multiple: float, seed: int) -> dict:
    # The batched side is cheap enough to take best-of-2 (squeezes out
    # scheduler noise); the legacy side is the expensive one and a noisy
    # high reading would only overstate the reference, never the gate.
    current, current_s = _timed(
        lambda: _wa_workload(ConventionalFTL, op_ratio, multiple, seed, batched=True),
        repeats=2,
    )
    legacy, legacy_s = _timed(
        lambda: _wa_workload(LegacyFTL, op_ratio, multiple, seed, batched=False)
    )
    # Same physics or the timing comparison is meaningless.
    for field in ("pages", "wa", "gc_runs", "blocks_erased", "mapped"):
        if legacy[field] != current[field]:
            raise AssertionError(
                f"{name}: legacy/batched diverge on {field}: "
                f"{legacy[field]} != {current[field]}"
            )
    return {
        "ops": current["pages"],
        "unit": "host pages written",
        "wall_s": round(current_s, 4),
        "wall_s_reference": round(legacy_s, 4),
        "ops_per_sec": round(current["pages"] / current_s, 1),
        "ops_per_sec_reference": round(legacy["pages"] / legacy_s, 1),
        "speedup": round(legacy_s / current_s, 2),
        "write_amplification": round(current["wa"], 4),
        "gc_runs": current["gc_runs"],
    }


def scenario_e1_wa_vs_op() -> dict:
    """E1's costliest sweep point (7% OP) on the bench geometry."""
    return _wa_scenario("e1_wa_vs_op", op_ratio=0.07, multiple=1.0, seed=0)


def scenario_e14_endurance() -> dict:
    """E14's measured-WA workload (28% OP, the endurance config)."""
    return _wa_scenario("e14_endurance", op_ratio=0.28, multiple=1.0, seed=0)


def _append_workload(mode: str, chunk: int, rounds: int) -> dict:
    """Round-robin zone-append across the device, resetting full zones.

    ``mode`` selects the data path: ``scalar`` (per-page append, the
    legacy reference), ``batched`` (PR 4's per-record append_batch), or
    ``epoch`` (one append_epoch call per zone fill, the PR 7 path).
    """
    spec = DeviceSpec(kind="zns", geometry="bench")
    geometry = spec.zoned_geometry()
    device = build_stack(spec)
    zone_pages = geometry.pages_per_zone
    takes = []
    offset = 0
    while offset < zone_pages:
        take = min(chunk, zone_pages - offset)
        takes.append(take)
        offset += take
    expected = np.cumsum(takes) - takes  # assigned offset of each record
    take_arr = np.asarray(takes, dtype=np.int64)
    zone_count = geometry.zone_count
    # The whole round's burst as flat record arrays: every zone's fill,
    # chunked. Each zone fills completely before the next opens, so the
    # round respects the active-zone limit in every mode.
    round_zones = np.repeat(np.arange(zone_count, dtype=np.int64), len(takes))
    round_takes = np.tile(take_arr, zone_count)
    round_expected = np.tile(expected, zone_count)
    pages = 0
    for round_no in range(rounds):
        if round_no:
            for zone_id in range(zone_count):
                device.reset_zone(zone_id)
        if mode == "epoch":
            assigned = device.append_epoch(round_zones, round_takes)
            if not np.array_equal(assigned, round_expected):
                raise AssertionError("append offset mismatch")
        else:
            for zone_id, take, want in zip(
                round_zones.tolist(), round_takes.tolist(), round_expected.tolist()
            ):
                if mode == "batched":
                    got = device.append_batch(zone_id, take)
                else:
                    got, _ = device.append(zone_id, take)
                if got != want:
                    raise AssertionError("append offset mismatch")
        pages += zone_pages * zone_count
    counters = device.counters
    return {
        "pages": pages,
        "device_writes": counters.writes,
        "device_erases": counters.erases,
        "nand_writes": device.nand.counters.writes,
        "full_zones": len(device.zones_in_state(ZoneState.FULL)),
        "wps": [z.wp for z in device.zones],
    }


def scenario_e7_append(repeats: int = 3) -> dict:
    """E7's data path: zone append in 256-page records, full-device sweeps."""
    chunk, rounds = 256, 2
    legacy, legacy_s = _timed(lambda: _append_workload("scalar", chunk, rounds), repeats)
    batched, _ = _timed(lambda: _append_workload("batched", chunk, rounds), 1)
    current, current_s = _timed(lambda: _append_workload("epoch", chunk, rounds), repeats)
    if legacy != current or batched != current:
        raise AssertionError(f"e7_append: scalar/epoch diverge: {legacy} != {current}")
    return {
        "ops": current["pages"],
        "unit": "pages appended",
        "wall_s": round(current_s, 4),
        "wall_s_reference": round(legacy_s, 4),
        "ops_per_sec": round(current["pages"] / current_s, 1),
        "ops_per_sec_reference": round(legacy["pages"] / legacy_s, 1),
        "speedup": round(legacy_s / current_s, 2),
        "append_chunk_pages": chunk,
    }


def _timeout_storm(pooled: bool, processes: int, yields: int) -> int:
    """A DES storm of short sleeps; returns events processed."""
    engine = Engine()

    def worker(base: int):
        for i in range(yields):
            delay = float((base + i) % 7)  # deterministic mixed delays, some 0
            if pooled:
                yield engine.sleep(delay)
            else:
                yield Timeout(engine, delay)

    for p in range(processes):
        engine.process(worker(p))
    engine.run()
    return engine.processed_events


def scenario_engine_timeouts(repeats: int = 3) -> dict:
    """Timeout-heavy DES scheduling: pooled sleep() vs fresh Timeouts.

    Both sides run on the current engine (the FIFO zero-delay lane and
    the merged pop are structural and benefit either), so this isolates
    the event free-list; the speedup floor is accordingly modest.
    """
    processes, yields = 200, 400
    plain, plain_s = _timed(lambda: _timeout_storm(False, processes, yields), repeats)
    pooled, pooled_s = _timed(lambda: _timeout_storm(True, processes, yields), repeats)
    if plain != pooled:
        raise AssertionError(f"engine_timeouts: event counts diverge: {plain} != {pooled}")
    return {
        "ops": pooled,
        "unit": "events processed",
        "wall_s": round(pooled_s, 4),
        "wall_s_reference": round(plain_s, 4),
        "ops_per_sec": round(pooled / pooled_s, 1),
        "ops_per_sec_reference": round(plain / plain_s, 1),
        "speedup": round(plain_s / pooled_s, 2),
    }


class _GuardCountingTracer(Tracer):
    """A Tracer whose ``enabled`` reads are counted and always False.

    Used to count exactly how many ``if tracer.enabled`` guards the
    batched path executes; with the flag pinned False no event is ever
    constructed or published, exactly like a sink-less tracer.
    """

    __slots__ = ("guard_reads",)

    def __init__(self) -> None:
        self.guard_reads = 0
        super().__init__()

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        self.guard_reads += 1
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        pass  # attach/detach bookkeeping is irrelevant here


def _batched_fill(tracer: Tracer | None = None, detach_sinks: bool = False) -> int:
    """The batched E1 fill phases on a fresh FTL."""
    ftl = build_stack(
        DeviceSpec(
            kind="conventional-ftl",
            geometry="small",
            ftl={
                "op_ratio": 0.07,
                "gc_policy": "greedy",
                "gc_low_watermark": 1,
                "gc_high_watermark": 2,
            },
        ),
        tracer=tracer,
    )
    if detach_sinks:
        for sink in list(ftl.tracer.sinks):
            ftl.tracer.detach(sink)
        assert not ftl.tracer.enabled
    n = ftl.logical_pages
    ftl.write_pages(np.arange(n, dtype=np.int64))
    ftl.write_pages(uniform_array(n, n, seed=0))
    return 2 * n


def scenario_tracer_overhead(repeats: int = 3) -> dict:
    """Cost of the tracing machinery with no sinks attached.

    With no sinks, ``tracer.enabled`` is False and every publish site
    reduces to one attribute load and a branch -- nothing is allocated.
    A counting tracer tallies exactly how many guards the batched E1
    fill executes; a microbenchmark prices one guard; their product over
    the silent run's wall time is the total tracing overhead, gated
    under 2% of batched-path runtime. The with-sink slowdown is also
    reported (informational: that run does real counting work).
    """
    pages, silent_s = _timed(lambda: _batched_fill(detach_sinks=True), repeats)
    _, traced_s = _timed(lambda: _batched_fill(), repeats)

    counting = _GuardCountingTracer()
    _batched_fill(tracer=counting, detach_sinks=True)
    guards = counting.guard_reads

    probe = Tracer()  # enabled stays False: the real sink-less hot path
    iterations = 1_000_000
    start = time.perf_counter()
    for _ in range(iterations):
        if probe.enabled:
            raise AssertionError("probe tracer must stay disabled")
    per_guard_s = (time.perf_counter() - start) / iterations  # includes loop cost

    overhead_pct = guards * per_guard_s / silent_s * 100.0
    return {
        "ops": pages,
        "unit": "host pages written",
        "wall_s": round(silent_s, 4),
        "wall_s_with_counter_sink": round(traced_s, 4),
        "ops_per_sec": round(pages / silent_s, 1),
        "guard_reads": guards,
        "guard_cost_ns": round(per_guard_s * 1e9, 2),
        "overhead_pct": round(overhead_pct, 4),
        "sink_overhead_pct": round(
            max(0.0, (traced_s - silent_s) / silent_s * 100.0), 2
        ),
    }


def _fleet_bench_spec() -> FleetSpec:
    """A mixed conventional/ZNS rack sized like E16's quick scenario."""
    flash = (("blocks_per_plane", 8),)
    conv = DeviceSpec(
        kind="conventional-ftl", geometry="small", flash=flash, ftl={"op_ratio": 0.18}
    )
    zns = DeviceSpec(
        kind="zns",
        geometry="small",
        flash=flash,
        blocks_per_zone=2,
        max_active_zones=14,
    )
    return FleetSpec(
        mix=((conv, 2), (zns, 2)),
        tenants=8,
        ticks=240,
        warmup_ticks=160,
        utilization=0.9,
        seed=0,
    )


def scenario_fleet_serving(repeats: int = 2) -> dict:
    """E16's serving loop: one mixed rack, serial vs 4-way sharded.

    No legacy reference exists for the fleet layer, so this scenario is
    throughput-tracked rather than speedup-gated; the physics check is
    the redesign's invariant itself -- the 4-shard merge must reproduce
    the serial frame byte-for-byte before either timing is trusted. Both
    legs run in one process, so the sharded wall time is merge cost, not
    parallel speedup.
    """
    spec = _fleet_bench_spec()
    serial, serial_s = _timed(lambda: simulate_fleet(spec, shards=1), repeats)
    sharded, sharded_s = _timed(lambda: simulate_fleet(spec, shards=4), repeats)
    if sharded.to_dict() != serial.to_dict():
        raise AssertionError("fleet_serving: 4-shard merge diverges from serial frame")
    summary = fleet_summary(serial)
    requests = summary["reads"] + summary["writes"]
    return {
        "ops": requests,
        "unit": "host requests served",
        "wall_s": round(serial_s, 4),
        "wall_s_sharded_inprocess": round(sharded_s, 4),
        "ops_per_sec": round(requests / serial_s, 1),
        "devices": spec.num_devices,
        "tenants": spec.tenants,
        "fleet_wa": summary["fleet_wa"],
        "read_p99_us": summary["read_p99_us"],
    }


def scenario_fleet_rack64(repeats: int = 1) -> dict:
    """A rack of 64 devices (32 conventional + 32 ZNS) under bursty load.

    The fleet-scale stress on the per-request serving loop that E16 and
    E17 run: bursty arrivals (128-event bursts, 16 reads per
    tenant-tick) across 64 devices. Like ``fleet_serving`` it has no
    legacy reference, so it is throughput-tracked rather than
    speedup-gated; the physics check is the sharding invariant -- the
    8-shard merge must reproduce the serial frame byte-for-byte before
    either timing is trusted. Both legs run in one process, so the
    sharded wall time is merge cost, not parallel speedup.
    """
    flash = (("blocks_per_plane", 8),)
    conv = DeviceSpec(
        kind="conventional-ftl", geometry="small", flash=flash, ftl={"op_ratio": 0.18}
    )
    zns = DeviceSpec(
        kind="zns",
        geometry="small",
        flash=flash,
        blocks_per_zone=2,
        max_active_zones=14,
    )
    spec = FleetSpec(
        mix=((conv, 32), (zns, 32)),
        tenants=64,
        ticks=60,
        warmup_ticks=40,
        utilization=0.9,
        seed=0,
        burst_events=128,
        burst_start_prob=0.15,
        reads_per_tick=16,
    )
    serial, serial_s = _timed(lambda: simulate_fleet(spec), repeats)
    sharded, sharded_s = _timed(lambda: simulate_fleet(spec, shards=8), repeats)
    if sharded.to_dict() != serial.to_dict():
        raise AssertionError("fleet_rack64: 8-shard merge diverges from serial frame")
    summary = fleet_summary(serial)
    requests = summary["reads"] + summary["writes"]
    return {
        "ops": requests,
        "unit": "host requests served",
        "wall_s": round(serial_s, 4),
        "wall_s_sharded_inprocess": round(sharded_s, 4),
        "ops_per_sec": round(requests / serial_s, 1),
        "devices": spec.num_devices,
        "tenants": spec.tenants,
        "fleet_wa": summary["fleet_wa"],
        "read_p99_us": summary["read_p99_us"],
        "devices_failed": summary["devices_failed"],
    }


def scenario_fault_endurance(repeats: int = 2) -> dict:
    """Fault-armed endurance: the E14 workload with an armed injector.

    Exercises the recovery paths (burned pages, retired blocks, batch
    degradation) at benchmark scale, where the epoch fast paths must
    coexist with per-page fault absorption. Throughput-tracked: the
    physics check is determinism -- two runs of the same seeded plan
    must land identical fault and WA accounting.
    """
    plan = FaultPlan(
        seed=7,
        program_fail_prob=2e-4,
        erase_fail_prob=1e-3,
        grown_bad_blocks=((30_000, 11), (90_000, 203)),
    )
    spec = DeviceSpec(
        kind="conventional-ftl",
        geometry="bench",
        ftl={
            "op_ratio": 0.28,
            "gc_policy": "greedy",
            # Wider than the clean E14 watermarks: erase failures can eat
            # the block GC just freed, so the pool needs slack to ride
            # out a retire streak without wedging.
            "gc_low_watermark": 4,
            "gc_high_watermark": 8,
        },
        fault_plan=plan,
    )

    def run() -> dict:
        ftl = build_stack(spec)
        n = ftl.logical_pages
        ftl.write_pages(np.arange(n, dtype=np.int64))
        ftl.write_pages(uniform_array(n, n, seed=0))
        stats = ftl.stats
        return {
            "pages": 2 * n,
            "wa": round(stats.device_write_amplification, 6),
            "gc_runs": stats.gc_runs,
            "program_faults": stats.program_faults,
            "blocks_retired": stats.blocks_retired,
            "mapped": ftl.map.mapped_pages,
        }

    first, first_s = _timed(run, repeats)
    second, _ = _timed(run, 1)
    if first != second:
        raise AssertionError(
            f"fault_endurance: seeded runs diverge: {first} != {second}"
        )
    return {
        "ops": first["pages"],
        "unit": "host pages written",
        "wall_s": round(first_s, 4),
        "ops_per_sec": round(first["pages"] / first_s, 1),
        "write_amplification": first["wa"],
        "gc_runs": first["gc_runs"],
        "program_faults": first["program_faults"],
        "blocks_retired": first["blocks_retired"],
    }


_DFTL_SPEC = DeviceSpec(
    kind="dftl",
    geometry="small",
    flash=(("page_size", 512),),
    ftl={"op_ratio": 0.11},
    cmt_bytes=4 * 512,
)


def _dftl_stream(name: str, n: int, ops: int) -> np.ndarray:
    if name == "zipfian":
        stream = zipfian_stream(n, ops, theta=0.99, seed=11)
    else:
        stream = sequential_stream(n, ops)
    return np.fromiter(stream, dtype=np.int64, count=ops)


def _dftl_workload(stream_name: str, epoch: bool, epoch_len: int = 0) -> dict:
    """Prefill + serve one stream on either DFTL dispatch path.

    ``epoch=False`` is the per-lpn demand loop PR 8 shipped (one CMT
    probe and potential demand fault per write). ``epoch=True`` routes
    the same lpns through ``write_pages``: one fetch pass per distinct
    translation page per batch -- the whole stream at once, or
    ``epoch_len``-sized serving epochs when given.
    """
    device = build_stack(_DFTL_SPEC)
    n = device.logical_pages
    ops = 2 * n
    stream = _dftl_stream(stream_name, n, ops)
    if epoch:
        device.write_pages(np.arange(n, dtype=np.int64))
        step = epoch_len or ops
        for i in range(0, ops, step):
            device.write_pages(stream[i : i + step])
    else:
        for lpn in range(n):
            device.write(lpn)
        for lpn in stream.tolist():
            device.write(lpn)
    store = device.store
    return {
        "pages": n + ops,
        "host_pages_written": device.stats.host_pages_written,
        "mapped_mask": device.map.l2p >= 0,
        "hit_rate": round(store.stats.hit_rate, 4),
        "translation_writes": store.stats.translation_writes,
        "translation_gc_runs": store.stats.gc_runs,
        "peak_resident_bytes": store.peak_resident_bytes,
    }


def _check_dftl_legs(name: str, scalar: dict, epoch: dict) -> None:
    """Same host work on both dispatch paths, or the timing is noise.

    The epoch path's documented liberty is *translation* physics (one
    fetch per distinct translation page per batch instead of per-lpn
    demand faults); host data writes and the final mapping must agree
    exactly, and batching may only ever shrink translation traffic.
    """
    if scalar["host_pages_written"] != epoch["host_pages_written"]:
        raise AssertionError(
            f"{name}: scalar/epoch diverge on host pages: "
            f"{scalar['host_pages_written']} != {epoch['host_pages_written']}"
        )
    if not np.array_equal(scalar["mapped_mask"], epoch["mapped_mask"]):
        raise AssertionError(f"{name}: scalar/epoch final mappings diverge")
    if epoch["translation_writes"] > scalar["translation_writes"]:
        raise AssertionError(
            f"{name}: epoch translation writes {epoch['translation_writes']} "
            f"exceed scalar {scalar['translation_writes']}"
        )


def scenario_dftl_locality(repeats: int = 2) -> dict:
    """Demand-paged FTL at the CMT's hit-rate extremes, epoch vs per-lpn.

    A sequential sweep is the CMT's best case: each cached translation
    page covers epp consecutive lpns, so only one miss per epp writes.
    A zipfian stream is the hard case for a tiny CMT: the hot head helps
    but the skewed tail strides across translation pages and thrashes
    the cache. Both streams run on the per-lpn demand loop (the
    reference: the code PR 8 shipped) and on the epoch ``write_pages``
    path; the gate keys on the combined speedup. Hit-rate physics is
    asserted on the scalar legs -- the epoch path legitimately changes
    hit rates (grouped faults), which is exactly why the reference leg
    must carry the locality check.
    """
    scalar_zipf, scalar_zipf_s = _timed(
        lambda: _dftl_workload("zipfian", epoch=False), 1
    )
    scalar_seq, scalar_seq_s = _timed(
        lambda: _dftl_workload("sequential", epoch=False), 1
    )
    zipf, zipf_s = _timed(lambda: _dftl_workload("zipfian", epoch=True), repeats)
    seq, seq_s = _timed(lambda: _dftl_workload("sequential", epoch=True), repeats)
    if not scalar_seq["hit_rate"] > scalar_zipf["hit_rate"] + 0.2:
        raise AssertionError(
            f"dftl_locality: sequential hit rate {scalar_seq['hit_rate']} must "
            f"beat zipfian {scalar_zipf['hit_rate']} by a wide margin"
        )
    if scalar_zipf["translation_writes"] == 0 or scalar_seq["translation_writes"] == 0:
        raise AssertionError("dftl_locality: expected real translation traffic")
    _check_dftl_legs("dftl_locality[zipfian]", scalar_zipf, zipf)
    _check_dftl_legs("dftl_locality[sequential]", scalar_seq, seq)
    pages = zipf["pages"] + seq["pages"]
    wall_s = zipf_s + seq_s
    wall_ref_s = scalar_zipf_s + scalar_seq_s
    return {
        "ops": pages,
        "unit": "host pages written",
        "wall_s": round(wall_s, 4),
        "wall_s_reference": round(wall_ref_s, 4),
        "ops_per_sec": round(pages / wall_s, 1),
        "ops_per_sec_reference": round(pages / wall_ref_s, 1),
        "speedup": round(wall_ref_s / wall_s, 2),
        "zipfian_hit_rate": scalar_zipf["hit_rate"],
        "sequential_hit_rate": scalar_seq["hit_rate"],
        "zipfian_translation_writes": scalar_zipf["translation_writes"],
        "sequential_translation_writes": scalar_seq["translation_writes"],
        "epoch_zipfian_translation_writes": zipf["translation_writes"],
        "epoch_sequential_translation_writes": seq["translation_writes"],
        "translation_gc_runs": scalar_zipf["translation_gc_runs"]
        + scalar_seq["translation_gc_runs"],
    }


def scenario_dftl_zipfian_epoch(repeats: int = 2) -> dict:
    """Zipfian serving in epoch-sized batches under the CMT DRAM budget.

    The tentpole's serving shape: the host hands the FTL bursts of a
    few hundred writes (one serving epoch), not one lpn at a time and
    not the whole trace. Measures the epoch path's speedup over the
    per-lpn demand loop on identical 512-lpn epochs, and asserts the
    budget the CMT promises -- peak resident translation-page bytes
    never exceed ``cmt_bytes`` (rounded up to whole translation pages,
    the cache's allocation grain) on either leg.
    """
    scalar, scalar_s = _timed(lambda: _dftl_workload("zipfian", epoch=False), 1)
    epoch, epoch_s = _timed(
        lambda: _dftl_workload("zipfian", epoch=True, epoch_len=512), repeats
    )
    budget_bytes = _DFTL_SPEC.cmt_bytes
    for leg_name, leg in (("scalar", scalar), ("epoch", epoch)):
        if leg["peak_resident_bytes"] > budget_bytes:
            raise AssertionError(
                f"dftl_zipfian_epoch: {leg_name} CMT peaked at "
                f"{leg['peak_resident_bytes']} resident bytes, over the "
                f"{budget_bytes}-byte DRAM budget"
            )
    _check_dftl_legs("dftl_zipfian_epoch", scalar, epoch)
    return {
        "ops": epoch["pages"],
        "unit": "host pages written",
        "wall_s": round(epoch_s, 4),
        "wall_s_reference": round(scalar_s, 4),
        "ops_per_sec": round(epoch["pages"] / epoch_s, 1),
        "ops_per_sec_reference": round(scalar["pages"] / scalar_s, 1),
        "speedup": round(scalar_s / epoch_s, 2),
        "epoch_len": 512,
        "hit_rate": epoch["hit_rate"],
        "translation_writes": epoch["translation_writes"],
        "peak_resident_bytes": epoch["peak_resident_bytes"],
        "cmt_budget_bytes": budget_bytes,
    }


SCENARIOS = {
    "e1_wa_vs_op": scenario_e1_wa_vs_op,
    "e7_append": scenario_e7_append,
    "e14_endurance": scenario_e14_endurance,
    "engine_timeouts": scenario_engine_timeouts,
    "tracer_overhead": scenario_tracer_overhead,
    "fleet_serving": scenario_fleet_serving,
    "fleet_rack64": scenario_fleet_rack64,
    "fault_endurance": scenario_fault_endurance,
    "dftl_locality": scenario_dftl_locality,
    "dftl_zipfian_epoch": scenario_dftl_zipfian_epoch,
}


# -- Gating ---------------------------------------------------------------------


def evaluate_gates(results: dict, baseline: dict) -> list[dict]:
    tolerance = float(baseline.get("tolerance", TOLERANCE))
    gates = []
    for name, result in results.items():
        base = baseline.get("scenarios", {}).get(name, {})
        if "speedup" in result:
            floor = float(base.get("speedup_floor", 0.0))
            reference = base.get("speedup_reference")
            required = floor
            if reference is not None:
                required = max(required, float(reference) * (1.0 - tolerance))
            gates.append(
                {
                    "scenario": name,
                    "kind": "speedup",
                    "value": result["speedup"],
                    "required": round(required, 2),
                    "passed": result["speedup"] >= required,
                }
            )
        if "overhead_pct" in result:
            cap = float(base.get("max_overhead_pct", 2.0))
            gates.append(
                {
                    "scenario": name,
                    "kind": "tracer_overhead_pct",
                    "value": result["overhead_pct"],
                    "required": cap,
                    "passed": result["overhead_pct"] < cap,
                }
            )
    return gates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="result JSON path")
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE), help="committed baseline JSON"
    )
    parser.add_argument(
        "--scenarios",
        default=",".join(SCENARIOS),
        help="comma-separated subset of: " + ", ".join(SCENARIOS),
    )
    parser.add_argument(
        "--no-gate", action="store_true", help="measure only; skip the baseline gate"
    )
    args = parser.parse_args(argv)

    names = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    unknown = [s for s in names if s not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")

    provenance = _provenance()
    results: dict[str, dict] = {}
    for name in names:
        print(f"[bench] {name} ...", file=sys.stderr, flush=True)
        result = SCENARIOS[name]()
        result["peak_rss_kb"] = _peak_rss_kb()
        results[name] = result
        summary = ", ".join(
            f"{k}={result[k]}"
            for k in ("ops_per_sec", "speedup", "overhead_pct")
            if k in result
        )
        print(f"[bench] {name}: {summary}", file=sys.stderr, flush=True)

    payload: dict = {"schema": 1, "provenance": provenance, "results": results}
    exit_code = 0
    if not args.no_gate:
        baseline_path = Path(args.baseline)
        baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
        gates = evaluate_gates(results, baseline)
        payload["gates"] = gates
        payload["passed"] = all(g["passed"] for g in gates)
        for gate in gates:
            status = "ok" if gate["passed"] else "FAIL"
            print(
                f"[gate] {gate['scenario']}/{gate['kind']}: "
                f"{gate['value']} vs required {gate['required']} ... {status}",
                file=sys.stderr,
            )
        if not payload["passed"]:
            exit_code = 1

    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"[bench] wrote {args.out}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
