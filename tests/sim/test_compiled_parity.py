"""Parity suite for the array kernels (:mod:`repro.sim.compiled`).

The contract under test is *state identity*: every kernel must leave the
mapping/flash/zone state bit-for-bit equal to the interpreted scalar
path it replaces, over randomized operation sequences. The scalar
oracles are the per-page loops below, written in the order a scalar
device applies its updates. Each parity test runs in two legs (see
``kernel_mode``): once as the device stack calls the kernels, and once
with every kernel call, wherever the stack makes it, re-checked against
its scalar oracle.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.nand import NandArray
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.ftl.mapping import UNMAPPED, FullPageMap
from repro.sim import compiled
from repro.zns.device import ZNSDevice

GEOMETRY = FlashGeometry.small()
PPB = GEOMETRY.pages_per_block


def map_batch_loop(l2p, p2l, valid_counts, lpns, ppns, block, ppb):
    """Scalar oracle for ``map_batch_apply``: ``FullPageMap.map`` x n."""
    delta = 0
    for i in range(lpns.shape[0]):
        lpn = lpns[i]
        ppn = ppns[i]
        prev = l2p[lpn]
        if prev != UNMAPPED:
            p2l[prev] = UNMAPPED
            valid_counts[prev // ppb] -= 1
            if valid_counts[prev // ppb] < 0:
                raise ValueError("valid count went negative in map batch")
        else:
            delta += 1
        l2p[lpn] = ppn
        p2l[ppn] = lpn
        valid_counts[block] += 1
    return delta


def relocate_run_loop(l2p, p2l, valid_counts, src_pages, dst_first, src_block, dst_block):
    """Scalar oracle for ``relocate_run_apply``: ``FullPageMap.relocate`` x n."""
    for i in range(src_pages.shape[0]):
        src = src_pages[i]
        lpn = p2l[src]
        if lpn == UNMAPPED:
            raise ValueError("relocate of invalid physical page")
        p2l[src] = UNMAPPED
        valid_counts[src_block] -= 1
        dst = dst_first + i
        l2p[lpn] = dst
        p2l[dst] = lpn
        valid_counts[dst_block] += 1


def cmt_probe_loop(tvpn_slot, slot_dirty, slot_stamp, tvpns, counts, start, stamp):
    """Scalar oracle for ``cmt_probe_batch``: one hit group at a time.

    Each consumed hit group dirties its slot and advances the LRU stamp
    by the group's access count (one access plus count-1 immediate
    same-page hits), landing the slot on the group's last stamp. Stops
    at the first group whose translation page is not cached.
    """
    consumed = 0
    while start + consumed < tvpns.shape[0]:
        slot = tvpn_slot[tvpns[start + consumed]]
        if slot < 0:
            break
        k = counts[start + consumed]
        slot_dirty[slot] = 1
        slot_stamp[slot] = stamp + k - 1
        stamp += k
        consumed += 1
    return consumed, stamp


def cmt_evict_loop(slot_tvpn, slot_dirty, slot_stamp):
    """Scalar oracle for ``cmt_evict_batch``: walk slots oldest stamp first."""
    order = np.argsort(slot_stamp)
    out = np.empty(slot_tvpn.shape[0], dtype=np.int64)
    count = 0
    for j in range(order.shape[0]):
        s = order[j]
        if slot_tvpn[s] >= 0 and slot_dirty[s] != 0:
            out[count] = slot_tvpn[s]
            slot_dirty[s] = 0
            count += 1
    return out[:count]


def stripe_layout_loop(wp, n, width, ppb):
    """Scalar oracle for ``stripe_layout``: stripe the run page by page."""
    if n < 1:
        raise ValueError("stripe run must cover at least one page")
    per_lane: dict[int, list[int]] = {}
    for j in range(wp, wp + n):
        per_lane.setdefault(j % width, []).append(j // width)
    if (wp + n - 1) // width >= ppb:
        raise IndexError(f"append run [{wp}, {wp + n}) exceeds {width} blocks of {ppb} pages")
    lanes = sorted(per_lane)
    return (
        np.array(lanes, dtype=np.int64),
        np.array([per_lane[lane][0] for lane in lanes], dtype=np.int64),
        np.array([len(per_lane[lane]) for lane in lanes], dtype=np.int64),
    )


#: Every kernel in :mod:`repro.sim.compiled` with its scalar oracle.
ORACLES = {
    "map_batch_apply": map_batch_loop,
    "relocate_run_apply": relocate_run_loop,
    "cmt_probe_batch": cmt_probe_loop,
    "cmt_evict_batch": cmt_evict_loop,
    "stripe_layout": stripe_layout_loop,
}


def _same(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _shadowed(name, kernel, oracle, calls: Counter):
    """``kernel`` re-checked against ``oracle`` on copies of its arguments.

    Same return value, same in-place array mutations, and the same
    exception type when the oracle rejects the call.
    """

    def run(*args):
        calls[name] += 1
        copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        try:
            want = oracle(*copies)
        except (ValueError, IndexError) as exc:
            with pytest.raises(type(exc)) as raised:
                kernel(*args)
            raise raised.value
        got = kernel(*args)
        assert _same(got, want), f"{name} returned {got!r}, its oracle {want!r}"
        for i, (arg, copy) in enumerate(zip(args, copies)):
            if isinstance(arg, np.ndarray):
                assert np.array_equal(arg, copy), f"{name} argument {i} diverged"
        return got

    return run


@dataclass
class KernelMode:
    name: str
    calls: Counter = field(default_factory=Counter)

    @property
    def shadowed(self) -> bool:
        return self.name == "numpy-fallback"


@pytest.fixture(params=["dispatch", "numpy-fallback"])
def kernel_mode(request, monkeypatch):
    """Run each parity test twice over the numpy kernels.

    ``dispatch`` runs them exactly as the device stack calls them.
    ``numpy-fallback`` re-checks every kernel call against its scalar
    oracle (:data:`ORACLES`) and counts the calls in ``calls``. The leg
    ids predate the single numpy tier and are kept so test names stay
    stable.
    """
    mode = KernelMode(request.param)
    if mode.shadowed:
        for name, oracle in ORACLES.items():
            kernel = getattr(compiled, name)
            monkeypatch.setattr(compiled, name, _shadowed(name, kernel, oracle, mode.calls))
    return mode


def map_states(m: FullPageMap):
    return (m.l2p.copy(), m.p2l.copy(), m.valid_counts.copy(), m.mapped_pages)


def assert_maps_equal(a: FullPageMap, b: FullPageMap):
    sa, sb = map_states(a), map_states(b)
    assert np.array_equal(sa[0], sb[0]), "l2p diverged"
    assert np.array_equal(sa[1], sb[1]), "p2l diverged"
    assert np.array_equal(sa[2], sb[2]), "valid_counts diverged"
    assert sa[3] == sb[3], "mapped_pages diverged"


class TestModuleFlags:
    def test_unmapped_sentinel_matches_mapping_module(self):
        assert compiled.UNMAPPED == UNMAPPED


class TestMapBatchParity:
    @given(
        lpns=st.lists(st.integers(0, 63), min_size=1, max_size=PPB),
        premap=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_scalar_map_loop(self, kernel_mode, lpns, premap, seed):
        rng = np.random.default_rng(seed)
        scalar = FullPageMap(GEOMETRY, 64)
        batched = FullPageMap(GEOMETRY, 64)
        oracle = FullPageMap(GEOMETRY, 64)
        kernel = FullPageMap(GEOMETRY, 64)
        maps = (scalar, batched, oracle, kernel)
        # Pre-populate every map identically from a different block so the
        # batch can invalidate cross-block prior mappings.
        pre_block = 1
        pre_lpns = rng.choice(64, size=premap * 4, replace=False) if premap else []
        for i, lpn in enumerate(pre_lpns):
            for m in maps:
                m.map(int(lpn), pre_block * PPB + i)
        ppns = np.arange(2 * PPB, 2 * PPB + len(lpns), dtype=np.int64)
        arr = np.asarray(lpns, dtype=np.int64)
        for lpn, ppn in zip(arr.tolist(), ppns.tolist()):
            scalar.map(lpn, ppn)
        batched.map_batch(arr, ppns)
        assert_maps_equal(scalar, batched)
        # The kernel itself, below map_batch's short-batch scalar cutoff.
        want = map_batch_loop(oracle.l2p, oracle.p2l, oracle.valid_counts, arr, ppns, 2, PPB)
        got = compiled.map_batch_apply(
            kernel.l2p, kernel.p2l, kernel.valid_counts, arr, ppns, 2, PPB
        )
        assert got == want
        oracle.mapped_pages += want
        kernel.mapped_pages += got
        assert_maps_equal(oracle, kernel)
        assert_maps_equal(scalar, kernel)

    def test_negative_valid_count_raises(self, kernel_mode):
        # Both sides of map_batch's short-batch cutoff: the scalar map
        # loop and the numpy kernel must each detect the corruption.
        for n in (2, 17):
            m = FullPageMap(GEOMETRY, 32)
            m.map(0, 5)
            m.valid_counts[0] = 0  # corrupt: the remap below must detect it
            with pytest.raises(ValueError, match="negative"):
                m.map_batch(
                    np.arange(n, dtype=np.int64),
                    np.arange(PPB, PPB + n, dtype=np.int64),
                )
        if kernel_mode.shadowed:
            assert kernel_mode.calls["map_batch_apply"] == 1


class TestRelocateRunParity:
    @given(
        nvalid=st.integers(1, PPB),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_scalar_relocate_loop(self, kernel_mode, nvalid, seed):
        rng = np.random.default_rng(seed)
        scalar = FullPageMap(GEOMETRY, PPB)
        run = FullPageMap(GEOMETRY, PPB)
        oracle = FullPageMap(GEOMETRY, PPB)
        src_offsets = np.sort(rng.choice(PPB, size=nvalid, replace=False))
        src_block, dst_block = 0, 3
        for i, off in enumerate(src_offsets.tolist()):
            for m in (scalar, run, oracle):
                m.map(i, src_block * PPB + off)
        src_pages = src_block * PPB + src_offsets.astype(np.int64)
        dst_first = dst_block * PPB
        for i, src in enumerate(src_pages.tolist()):
            scalar.relocate(src, dst_first + i)
        run.relocate_run(src_pages, dst_first)
        relocate_run_loop(
            oracle.l2p, oracle.p2l, oracle.valid_counts, src_pages, dst_first, src_block, dst_block
        )
        assert_maps_equal(scalar, run)
        assert_maps_equal(oracle, run)

    def test_invalid_source_raises(self, kernel_mode):
        m = FullPageMap(GEOMETRY, 8)
        m.map(0, 0)
        with pytest.raises(ValueError, match="invalid physical page"):
            m.relocate_run(np.array([0, 1], dtype=np.int64), 3 * PPB)
        if kernel_mode.shadowed:
            assert kernel_mode.calls["relocate_run_apply"] == 1


class TestCopyRunParity:
    def _programmed_nand(self):
        nand = NandArray(GEOMETRY)
        nand.program_run(0, PPB)
        return nand

    @given(nsrc=st.integers(1, PPB), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_copy_page_loop(self, nsrc, seed):
        rng = np.random.default_rng(seed)
        src = np.sort(rng.choice(PPB, size=nsrc, replace=False)).astype(np.int64)
        a, b = self._programmed_nand(), self._programmed_nand()
        dst_block = 2
        lat_a = sum(a.copy_page(s, dst_block * PPB + i) for i, s in enumerate(src.tolist()))
        lat_b = b.copy_run(src, dst_block, 0)
        assert lat_a == pytest.approx(lat_b)
        assert np.array_equal(a.write_offsets, b.write_offsets)
        assert a.reads_since_erase(0) == b.reads_since_erase(0)
        assert a.counters.copies == b.counters.copies
        assert a.counters.bytes_copied == b.counters.bytes_copied

    def test_rejects_out_of_order_destination(self):
        nand = self._programmed_nand()
        from repro.flash.errors import ProgramOrderError

        with pytest.raises(ProgramOrderError):
            nand.copy_run(np.array([0, 1], dtype=np.int64), 2, 5)

    def test_rejects_multi_block_sources(self):
        nand = self._programmed_nand()
        nand.program_run(1, 2)
        with pytest.raises(ValueError, match="one block"):
            nand.copy_run(np.array([0, PPB + 1], dtype=np.int64), 2, 0)


class TestStripeLayout:
    @given(
        wp=st.integers(0, 4 * PPB - 1),
        n=st.integers(1, 2 * PPB),
        width=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_page_striping(self, wp, n, width):
        ppb = PPB
        if (wp + n - 1) // width >= ppb:
            with pytest.raises(IndexError):
                compiled.stripe_layout(wp, n, width, ppb)
            return
        lanes, first_offsets, counts = compiled.stripe_layout(wp, n, width, ppb)
        # Scalar reference: page offset j lands on lane j % width at
        # within-block offset j // width.
        per_lane: dict[int, list[int]] = {}
        for j in range(wp, wp + n):
            per_lane.setdefault(j % width, []).append(j // width)
        assert sorted(per_lane) == lanes.tolist()
        for lane, first, count in zip(
            lanes.tolist(), first_offsets.tolist(), counts.tolist()
        ):
            offsets = per_lane[lane]
            assert offsets == list(range(first, first + count))

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            compiled.stripe_layout(0, 0, 4, PPB)


class TestFTLEpochParity:
    """The collector's epoch compaction against the per-page scalar FTL."""

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_pages_matches_scalar_writes(self, kernel_mode, seed):
        config = FTLConfig(
            op_ratio=0.12, gc_policy="greedy",
            gc_low_watermark=1, gc_high_watermark=2,
        )
        scalar = ConventionalFTL(GEOMETRY, config)
        batched = ConventionalFTL(GEOMETRY, config)
        n = scalar.logical_pages
        rng = np.random.default_rng(seed)
        phases = [
            np.arange(n, dtype=np.int64),
            rng.integers(0, n, size=n, dtype=np.int64),
        ]
        for phase in phases:
            for lpn in phase.tolist():
                scalar.write(lpn)
            batched.write_pages(phase)
        assert_maps_equal(scalar.map, batched.map)
        assert scalar.stats == batched.stats
        assert scalar._free == batched._free
        assert scalar._sealed == batched._sealed
        assert np.array_equal(
            scalar.nand.write_offsets, batched.nand.write_offsets
        )
        assert np.array_equal(scalar._oob_lpn, batched._oob_lpn)
        assert np.array_equal(scalar._oob_serial, batched._oob_serial)
        scalar.check_invariants()
        batched.check_invariants()
        if kernel_mode.shadowed:
            assert kernel_mode.calls["map_batch_apply"] > 0
            assert kernel_mode.calls["relocate_run_apply"] > 0


@st.composite
def _append_records(draw):
    n = draw(st.integers(1, 40))
    zones = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    return zones, counts


class TestZnsEpochParity:
    """append_epoch against the per-record append_batch state machine."""

    @given(records=_append_records())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_append_batch(self, kernel_mode, records):
        zones, counts = records
        geometry = ZonedGeometry(
            flash=GEOMETRY, blocks_per_zone=2, max_active_zones=14
        )
        capacity = geometry.pages_per_zone
        fill = {z: 0 for z in range(geometry.zone_count)}
        usable = []
        for z, k in zip(zones, counts):
            if fill[z] + k <= capacity:
                usable.append((z, k))
                fill[z] += k
        if not usable:
            return
        zone_arr = np.array([z for z, _ in usable], dtype=np.int64)
        count_arr = np.array([k for _, k in usable], dtype=np.int64)

        ref = ZNSDevice(geometry)
        epoch = ZNSDevice(geometry)
        want = [ref.append_batch(int(z), int(k)) for z, k in usable]
        got = epoch.append_epoch(zone_arr, count_arr)
        assert got.tolist() == want
        assert [z.state for z in ref.zones] == [z.state for z in epoch.zones]
        assert [z.wp for z in ref.zones] == [z.wp for z in epoch.zones]
        assert ref._open_order == epoch._open_order
        assert ref.open_count == epoch.open_count
        assert ref.active_count == epoch.active_count
        assert np.array_equal(
            ref.nand.write_offsets, epoch.nand.write_offsets
        )
        assert ref.counters.writes == epoch.counters.writes
        assert ref.counters.bytes_written == epoch.counters.bytes_written
        assert ref.nand.counters.writes == epoch.nand.counters.writes
        if kernel_mode.shadowed:
            assert kernel_mode.calls["stripe_layout"] > 0

    def test_empty_epoch_is_a_no_op(self, kernel_mode):
        device = ZNSDevice(ZonedGeometry(flash=GEOMETRY, blocks_per_zone=2))
        out = device.append_epoch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert out.size == 0
        assert device.counters.writes == 0
        assert not kernel_mode.calls


def _random_cmt(rng, capacity: int, ntvpns: int):
    """Random CMT slot-array state with unique stamps, like a live cache."""
    tvpn_slot = np.full(ntvpns, UNMAPPED, dtype=np.int64)
    slot_tvpn = np.full(capacity, UNMAPPED, dtype=np.int64)
    slot_dirty = np.zeros(capacity, dtype=np.int8)
    used = int(rng.integers(0, capacity + 1))
    resident = rng.choice(ntvpns, size=used, replace=False)
    for slot, tvpn in enumerate(resident.tolist()):
        tvpn_slot[tvpn] = slot
        slot_tvpn[slot] = tvpn
        slot_dirty[slot] = int(rng.integers(0, 2))
    # One monotonic counter stamps every insert/hit, so live stamps are
    # unique; empty slots keep stale stamps, which the kernels ignore.
    slot_stamp = rng.permutation(capacity).astype(np.int64)
    return tvpn_slot, slot_tvpn, slot_dirty, slot_stamp


class TestCmtProbeParity:
    @given(
        capacity=st.integers(1, 12),
        ntvpns=st.integers(12, 48),
        ngroups=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_scalar_probe_loop(self, kernel_mode, capacity, ntvpns, ngroups, seed):
        rng = np.random.default_rng(seed)
        tvpn_slot, _slot_tvpn, slot_dirty, slot_stamp = _random_cmt(
            rng, capacity, ntvpns
        )
        tvpns = rng.choice(ntvpns, size=min(ngroups, ntvpns), replace=False).astype(
            np.int64
        )
        counts = rng.integers(1, 9, size=tvpns.size).astype(np.int64)
        start = int(rng.integers(0, tvpns.size))
        stamp = int(slot_stamp.max()) + 1

        ref_slot_dirty = slot_dirty.copy()
        ref_slot_stamp = slot_stamp.copy()
        ref_consumed, ref_stamp = cmt_probe_loop(
            tvpn_slot.copy(), ref_slot_dirty, ref_slot_stamp, tvpns, counts, start, stamp
        )
        consumed, next_stamp = compiled.cmt_probe_batch(
            tvpn_slot, slot_dirty, slot_stamp, tvpns, counts, start, stamp
        )
        assert consumed == ref_consumed
        assert next_stamp == ref_stamp
        assert np.array_equal(slot_dirty, ref_slot_dirty), "dirty bits diverged"
        assert np.array_equal(slot_stamp, ref_slot_stamp), "LRU stamps diverged"
        # The first unconsumed group (if any) really is a miss.
        if start + consumed < tvpns.size:
            assert tvpn_slot[tvpns[start + consumed]] == UNMAPPED

    def test_start_past_end_is_a_no_op(self, kernel_mode):
        tvpn_slot = np.full(4, UNMAPPED, dtype=np.int64)
        consumed, stamp = compiled.cmt_probe_batch(
            tvpn_slot, np.zeros(2, dtype=np.int8), np.zeros(2, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 7,
        )
        assert (consumed, stamp) == (0, 7)
        if kernel_mode.shadowed:
            assert kernel_mode.calls["cmt_probe_batch"] == 1


class TestCmtEvictParity:
    @given(
        capacity=st.integers(1, 16),
        ntvpns=st.integers(16, 64),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_scalar_evict_loop(self, kernel_mode, capacity, ntvpns, seed):
        rng = np.random.default_rng(seed)
        _tvpn_slot, slot_tvpn, slot_dirty, slot_stamp = _random_cmt(
            rng, capacity, ntvpns
        )
        ref_dirty = slot_dirty.copy()
        ref = cmt_evict_loop(slot_tvpn.copy(), ref_dirty, slot_stamp.copy())
        got = compiled.cmt_evict_batch(slot_tvpn, slot_dirty, slot_stamp)
        assert got.tolist() == ref.tolist()
        assert np.array_equal(slot_dirty, ref_dirty), "dirty bits diverged"
        # Selected tvpns come back LRU-ascending and all dirty bits clear.
        if got.size:
            stamps = slot_stamp[[int(np.flatnonzero(slot_tvpn == t)[0]) for t in got]]
            assert np.all(np.diff(stamps) > 0)
        occupied = slot_tvpn >= 0
        assert not slot_dirty[occupied].any()
