"""Tests for LSM bloom filters, range scans, and crash recovery."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore
from repro.apps.lsm.bloom import BloomFilter
from repro.block.ramdisk import RamDisk

SMALL_CFG = LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8)


def ram_store(cfg=SMALL_CFG):
    return LSMStore(BlockFileBackend(RamDisk(1 << 14), trim_on_delete=True), cfg)


def scalar_bloom_bits(keys, fp_rate=0.01) -> bytes:
    """Parity oracle: the filter bits set one key and one probe at a time.

    Probe ``i`` of a key is ``(h1 + i * h2) % m`` over Python ints, with
    ``h1``/``h2`` the little-endian halves of its 16-byte blake2b digest
    and ``h2`` forced odd.
    """
    sizing = BloomFilter(expected_items=max(len(keys), 1), fp_rate=fp_rate)
    m = sizing.num_bits
    bits = bytearray(len(sizing.bits))
    for key in keys:
        digest = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(sizing.num_hashes):
            pos = (h1 + i * h2) % m
            bits[pos >> 3] |= 1 << (pos & 7)
    return bytes(bits)


BLOOM_KEYS = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.tuples(st.integers(-5, 5), st.text(max_size=4)),
)


class TestBloomFilter:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(BLOOM_KEYS, min_size=1, max_size=300),
        dup=st.integers(0, 3),
        fp_rate=st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.5]),
    )
    def test_build_matches_scalar_oracle(self, keys, dup, fp_rate):
        keys = keys + keys[:dup]  # duplicates set the same bits again
        bloom = BloomFilter.build(keys, fp_rate=fp_rate)
        assert bloom.bits == scalar_bloom_bits(keys, fp_rate)
        assert all(bloom.might_contain(k) for k in keys)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
           fp_rate=st.sampled_from([0.01, 0.1]))
    def test_build_matches_scalar_oracle_at_table_sizes(self, n, seed, fp_rate):
        rng = np.random.default_rng(seed)
        keys = [int(k) for k in rng.integers(-(2**63), 2**63 - 1, size=n)]
        keys += [2**64 + k for k in keys[:10]]  # beyond uint64
        bloom = BloomFilter.build(keys, fp_rate=fp_rate)
        assert bloom.bits == scalar_bloom_bits(keys, fp_rate)

    def test_no_false_negatives(self):
        bloom = BloomFilter.build(list(range(1000)))
        assert all(bloom.might_contain(k) for k in range(1000))

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.build(list(range(5000)), fp_rate=0.01)
        false_positives = sum(
            bloom.might_contain(k) for k in range(10_000, 30_000)
        )
        assert false_positives / 20_000 < 0.03  # 3x slack on the 1% target

    def test_sizing_scales_with_items(self):
        small = BloomFilter(expected_items=100)
        big = BloomFilter(expected_items=10_000)
        assert big.num_bits > small.num_bits

    def test_mixed_key_types(self):
        bloom = BloomFilter.build(["alpha", 42, ("t", 1)])
        assert bloom.might_contain("alpha")
        assert bloom.might_contain(42)
        assert bloom.might_contain(("t", 1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=0)
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, fp_rate=1.5)

    def test_empty_build(self):
        bloom = BloomFilter.build([])
        assert bloom.bits == scalar_bloom_bits([]) == bytes(len(bloom.bits))
        assert not any(bloom.might_contain(k) for k in ("anything", 0, b"", ()))


class TestBloomInStore:
    def test_negative_lookups_skip_flash(self):
        store = ram_store()
        for i in range(0, 4000, 2):  # even keys only
            store.put(i, i)
        reads_before = store.stats.table_reads
        for i in range(1, 1001, 2):  # misses inside the key range
            assert store.get(i) is None
        probes = store.stats.table_reads - reads_before
        # Without blooms every miss would probe >= 1 table; with them,
        # almost none reach flash.
        assert probes < 100
        assert store.stats.bloom_skips > 300

    def test_positive_lookups_still_correct(self):
        store = ram_store()
        for i in range(2000):
            store.put(i, f"v{i}")
        for i in range(0, 2000, 37):
            assert store.get(i) == f"v{i}"


class TestRangeScan:
    def test_scan_merges_levels(self):
        store = ram_store()
        for i in range(1500):
            store.put(i, i * 10)
        result = store.scan(100, 110)
        assert result == [(k, k * 10) for k in range(100, 111)]

    def test_scan_sees_newest_version(self):
        store = ram_store()
        for i in range(1000):
            store.put(i, "old")
        for i in range(100, 120):
            store.put(i, "new")
        result = dict(store.scan(95, 125))
        assert result[100] == "new"
        assert result[95] == "old"

    def test_scan_excludes_deleted(self):
        store = ram_store()
        for i in range(1000):
            store.put(i, i)
        store.delete(105)
        keys = [k for k, _ in store.scan(100, 110)]
        assert 105 not in keys
        assert 104 in keys

    def test_scan_charges_page_reads(self):
        store = ram_store()
        for i in range(3000):
            store.put(i, i)
        before = store.stats.scan_pages_read
        store.scan(0, 2999)
        assert store.stats.scan_pages_read > before

    def test_scan_empty_range(self):
        store = ram_store()
        for i in range(100):
            store.put(i, i)
        assert store.scan(5000, 6000) == []

    def test_scan_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            ram_store().scan(10, 5)

    def test_scan_includes_memtable(self):
        store = ram_store()
        store.put(7, "memtable-only")
        assert store.scan(0, 100) == [(7, "memtable-only")]

    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 200), min_size=1, max_size=150),
        lo=st.integers(0, 200),
        span=st.integers(0, 100),
    )
    def test_scan_matches_dict_model(self, keys, lo, span):
        store = ram_store()
        model = {}
        for i, k in enumerate(keys):
            store.put(k, i)
            model[k] = i
        hi = lo + span
        expected = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
        assert store.scan(lo, hi) == expected


class TestCrashRecovery:
    def test_durable_entries_survive(self):
        store = ram_store()
        # 32 entries per WAL page (4096/128); write exactly 2 pages' worth.
        for i in range(64):
            store.put(i, i)
        lost = store.crash_and_recover()
        assert lost == 0
        for i in range(64):
            assert store.get(i) == i

    def test_unsynced_tail_is_lost(self):
        store = ram_store()
        for i in range(40):  # 32 durable + 8 unsynced
            store.put(i, i)
        lost = store.crash_and_recover()
        assert lost == 8
        for i in range(32):
            assert store.get(i) == i
        for i in range(32, 40):
            assert store.get(i) is None

    def test_flushed_data_always_survives(self):
        store = ram_store()
        for i in range(1000):
            store.put(i, i)
        store.flush()
        store.crash_and_recover()
        for i in range(0, 1000, 97):
            assert store.get(i) == i

    def test_deletes_recovered(self):
        store = ram_store()
        for i in range(32):
            store.put(i, i)
        store.flush()
        store.delete(5)
        for i in range(100, 131):  # pad to sync the tombstone's WAL page
            store.put(i, i)
        store.crash_and_recover()
        assert store.get(5) is None

    def test_without_wal_everything_volatile_is_lost(self):
        cfg = LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8,
                        wal_enabled=False)
        store = ram_store(cfg)
        for i in range(10):
            store.put(i, i)
        lost = store.crash_and_recover()
        assert lost == 10
        assert store.get(3) is None

    def test_recovery_counter(self):
        store = ram_store()
        store.crash_and_recover()
        assert store.stats.recoveries == 1

    @settings(max_examples=10, deadline=None)
    @given(ops=st.integers(1, 200), crash_at=st.integers(0, 199), seed=st.integers(0, 50))
    def test_recovered_state_is_prefix_consistent(self, ops, crash_at, seed):
        """After recovery the store equals the model at some cut point
        between the last durable entry and the crash instant."""
        crash_at = min(crash_at, ops - 1)
        store = ram_store()
        rng = np.random.default_rng(seed)
        history = []
        for i in range(ops):
            k = int(rng.integers(0, 40))
            store.put(k, i)
            history.append((k, i))
            if i == crash_at:
                lost = store.crash_and_recover()
                break
        durable_prefix = history[: len(history) - lost]
        model = {}
        for k, v in durable_prefix:
            model[k] = v
        for k in range(40):
            assert store.get(k) == model.get(k)
