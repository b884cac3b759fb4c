"""Tests for ``--profile``: the top-entry ranking and the per-layer table."""

import cProfile
import os
import pstats

import pytest

import repro
from repro.apps.lsm.bloom import BloomFilter
from repro.exec import Executor
from repro.exec.profiling import (
    OTHER,
    TOP_ENTRIES,
    layer_of,
    layer_table,
    merge_layer_tables,
    profiled_call,
)
from repro.experiments import runner
from repro.experiments.base import ExperimentConfig
from repro.experiments.e4_lsm_latency import capture_io_plan
from tests.exec import faulty_experiments as faulty

REPRO_DIR = os.path.dirname(repro.__file__)


def _stats(fn, *args):
    profile = cProfile.Profile()
    profile.enable()
    fn(*args)
    profile.disable()
    return pstats.Stats(profile)


def _bloom_then_sort():
    BloomFilter.build(list(range(3000)))
    sorted(range(50_000), key=lambda i: -i)


def _assert_well_formed(layers):
    assert layers
    assert sum(row["share"] for row in layers.values()) == pytest.approx(
        1.0, abs=1e-4 * len(layers)
    )
    assert all(row["tottime_s"] >= 0 for row in layers.values())


class TestLayerOf:
    def test_packages(self):
        assert layer_of(os.path.join(REPRO_DIR, "apps", "lsm", "bloom.py")) == "apps"
        assert layer_of(os.path.join(REPRO_DIR, "ftl", "ftl.py")) == "ftl"

    def test_top_level_module_is_other(self):
        assert layer_of(os.path.join(REPRO_DIR, "__init__.py")) == OTHER

    def test_outside_repro(self):
        assert layer_of(os.__file__) is None
        assert layer_of("~") is None


class TestLayerTable:
    def test_shares_sum_to_one_and_seconds_to_total(self):
        stats = _stats(_bloom_then_sort)
        layers = layer_table(stats)
        _assert_well_formed(layers)
        total = sum(row[2] for row in stats.stats.values())
        assert sum(row["tottime_s"] for row in layers.values()) == pytest.approx(
            total, abs=1e-5 * len(layers)
        )

    def test_builtins_charged_to_the_calling_layer(self):
        # blake2b, bytes.join and numpy run outside repro; build calls
        # them, so their time belongs to apps, not to other.
        layers = layer_table(_stats(BloomFilter.build, list(range(20_000))))
        assert layers["apps"]["share"] > 0.95

    def test_merge_sums_seconds_and_recomputes_shares(self):
        a = {"apps": {"tottime_s": 3.0, "share": 0.75}, "sim": {"tottime_s": 1.0, "share": 0.25}}
        b = {"sim": {"tottime_s": 4.0, "share": 1.0}}
        merged = merge_layer_tables([a, b])
        assert list(merged) == ["sim", "apps"]
        assert merged["sim"] == {"tottime_s": 5.0, "share": 0.625}
        assert merged["apps"] == {"tottime_s": 3.0, "share": 0.375}
        assert merge_layer_tables([]) == {}

    def test_e4_lsm_phase_is_apps(self):
        """E4's untimed LSM run (the capture of its flush/compaction plan)
        spends most of its self time in the LSM store, callees included."""
        _plan, profile = profiled_call(capture_io_plan, True, 0)
        layers = profile["layers"]
        _assert_well_formed(layers)
        assert next(iter(layers)) == "apps"
        assert layers["apps"]["share"] > 0.5
        assert len(profile["entries"]) == TOP_ENTRIES


class TestExecutorProfile:
    def test_whole_run_carries_layers(self):
        (record,) = Executor(jobs=1, profile=True).run([ExperimentConfig("E10")])
        metrics = record.result.metrics
        assert len(metrics["profile"]) <= TOP_ENTRIES
        _assert_well_formed(metrics["profile_layers"])

    def test_pooled_sweep_merges_point_layers(self, monkeypatch):
        monkeypatch.setitem(runner.MODULES, "E99", faulty)
        monkeypatch.delenv(faulty.MODE_ENV, raising=False)
        (record,) = Executor(jobs=2, profile=True).run([ExperimentConfig("E99")])
        metrics = record.result.metrics
        points = metrics["profile"]
        assert [p["point"] for p in points] == list(range(faulty.POINTS))
        assert all(p["entries"] and p["layers"] for p in points)
        assert metrics["profile_layers"] == merge_layer_tables([p["layers"] for p in points])
        _assert_well_formed(metrics["profile_layers"])
