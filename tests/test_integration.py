"""Cross-package integration tests.

These exercise whole stacks end to end: the same trace against every
block-device implementation, the LSM store over the host-translated ZNS
stack (three layers deep), and the experiment harness against the devices
it claims to measure.
"""

import numpy as np
import pytest

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore
from repro.block.dmzoned import ZonedBlockConfig, ZonedBlockDevice
from repro.block.ramdisk import RamDisk
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD
from repro.ftl.ftl import FTLConfig
from repro.workloads.synthetic import read_write_mix
from repro.workloads.traces import replay_trace, synthesize_trace
from repro.zns.device import ZNSDevice


def all_block_devices():
    """One of each BlockDevice implementation, comparably sized."""
    ram = RamDisk(num_blocks=4096)
    conventional = ConventionalSSD(FlashGeometry.small(), FTLConfig(op_ratio=0.11))
    zoned = ZonedBlockDevice(
        ZNSDevice(ZonedGeometry.small()), ZonedBlockConfig(op_ratio=0.11)
    )
    return {"ramdisk": ram, "conventional": conventional, "zns+host": zoned}


class TestTraceAcrossDevices:
    def test_same_trace_same_counts_everywhere(self):
        ops = list(read_write_mix(2048, 6000, read_fraction=0.3, seed=0))
        trace = synthesize_trace(ops)
        results = {
            name: replay_trace(trace, device)
            for name, device in all_block_devices().items()
        }
        baseline = results["ramdisk"]
        for name, counts in results.items():
            assert counts == baseline, f"{name} diverged: {counts} vs {baseline}"

    def test_flash_devices_amplify_ram_does_not(self):
        ops = [("write", int(lba)) for lba in
               np.random.default_rng(1).integers(0, 2048, size=12_000)]
        trace = synthesize_trace(ops)
        devices = all_block_devices()
        for device in devices.values():
            replay_trace(trace, device)
        assert devices["ramdisk"].counters.writes == 12_000
        conventional = devices["conventional"]
        flash_writes = conventional.ftl.nand.counters.bytes_written // 4096
        assert flash_writes > 12_000  # GC copies on top of host writes


class TestLsmOverHostTranslation:
    """LSM -> BlockFileBackend -> ZonedBlockDevice -> ZNSDevice -> NAND."""

    def test_three_layer_stack_round_trips(self):
        zoned_layer = ZonedBlockDevice(
            ZNSDevice(ZonedGeometry.small()), ZonedBlockConfig(op_ratio=0.11)
        )
        store = LSMStore(
            BlockFileBackend(zoned_layer, trim_on_delete=True),
            LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8),
        )
        rng = np.random.default_rng(2)
        truth = {}
        for i in range(4000):
            key = int(rng.integers(0, 600))
            store.put(key, i)
            truth[key] = i
        for key, value in truth.items():
            assert store.get(key) == value
        zoned_layer.check_invariants()

    def test_wa_ledger_multiplies_across_layers(self):
        """user -> app (LSM) -> host (translation) -> flash bytes all line up."""
        from repro.metrics.wa import WriteAmpAccounting

        device = ZNSDevice(ZonedGeometry.small())
        zoned_layer = ZonedBlockDevice(device, ZonedBlockConfig(op_ratio=0.11))
        store = LSMStore(
            BlockFileBackend(zoned_layer, trim_on_delete=True),
            LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8),
        )
        rng = np.random.default_rng(3)
        for i in range(6000):
            store.put(int(rng.integers(0, 800)), i)

        ledger = WriteAmpAccounting()
        ledger.record_user(store.stats.user_bytes)
        ledger.record_app(store.stats.app_pages_written * 4096)
        host_pages = zoned_layer.stats.user_pages_written + zoned_layer.stats.gc_pages_copied
        ledger.record_host(host_pages * 4096)
        ledger.record_flash(device.nand.physical_bytes_written())
        breakdown = ledger.breakdown()
        assert breakdown.application > 1.0  # compaction + WAL
        assert breakdown.host >= 1.0  # translation reclaim
        assert breakdown.device >= 0.99  # thin FTL adds nothing
        # Product consistency: total equals flash/user directly.
        direct = device.nand.physical_bytes_written() / store.stats.user_bytes
        assert breakdown.total == pytest.approx(direct, rel=0.01)


class TestDeterminism:
    def test_experiments_are_seed_deterministic(self):
        from repro.experiments import ExperimentConfig, run_config

        a = run_config(ExperimentConfig("E8", seed=5))
        b = run_config(ExperimentConfig("E8", seed=5))
        assert a.rows == b.rows
        c = run_config(ExperimentConfig("E8", seed=6))
        assert c.rows != a.rows  # and the seed actually matters

    def test_device_state_machines_deterministic(self):
        def run_once():
            layer = ZonedBlockDevice(
                ZNSDevice(ZonedGeometry.small()), ZonedBlockConfig(op_ratio=0.15)
            )
            rng = np.random.default_rng(7)
            n = layer.logical_pages
            for lba in range(n):
                layer.write(lba)
            for _ in range(n):
                layer.write(int(rng.integers(0, n)))
            return (
                layer.stats.gc_pages_copied,
                layer.stats.zones_reset,
                layer.device.nand.counters.bytes_written,
            )

        assert run_once() == run_once()
