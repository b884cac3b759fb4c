"""Tests for the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(bench.GOLDEN.read_text())


class OneExperiment(workloads.Workload):
    """A cheap stand-in workload: E7 alone (about 0.1 s)."""

    name = "e7-only"

    def units(self, seed):
        return [workloads._experiment_unit("E7", seed)]


def test_self_time_of_nested_spans():
    rec = tracing.SpanRecorder()
    a = rec.enter("a")
    b = rec.enter("b")
    c = rec.enter("c")
    rec.leave(c, 3.0, 4.0)
    rec.leave(b, 2.0, 5.0)
    b2 = rec.enter("b")
    rec.leave(b2, 6.0, 6.5)
    rec.leave(a, 0.0, 10.0)
    assert rec.totals["c"] == [1, pytest.approx(1.0)]
    assert rec.totals["b"] == [2, pytest.approx(2.0 + 0.5)]
    assert rec.totals["a"] == [1, pytest.approx(10.0 - 3.0 - 0.5)]
    assert rec.top_s == pytest.approx(10.0)
    assert sum(self_s for _, self_s in rec.totals.values()) == pytest.approx(rec.top_s)
    assert rec.edges[("a", "b")] == [2, pytest.approx(3.5)]
    assert rec.depth == 0


def test_reentrant_call_is_not_a_second_span():
    rec = tracing.SpanRecorder()

    def write(n):
        return n

    def append(n):
        return traced_write(n) + 1  # like ZNSDevice.append calling write

    traced_write = tracing._make_wrapper(write, rec, "zns.write", "write", None)
    traced_append = tracing._make_wrapper(append, rec, "zns.write", "append", None)
    assert traced_append(1) == 2
    assert traced_write(1) == 1
    assert rec.totals["zns.write"][0] == 2  # two operations entered the layer
    assert rec.edges.keys() == {("", "zns.write")}
    assert rec.fn_calls == {"append": 1, "write": 2}
    assert rec.depth == 0


def test_generator_resumes_are_timed_and_forwarded():
    rec = tracing.SpanRecorder()

    def inner():
        time.sleep(0.002)

    traced_inner = tracing._make_wrapper(inner, rec, "inner", "inner", None)

    def gen():
        received = yield 1
        traced_inner()
        try:
            yield received * 10
        except KeyError:
            yield "caught"

    traced_gen = tracing._make_wrapper(gen, rec, "gen", "gen", None)
    g = traced_gen()
    assert next(g) == 1
    time.sleep(0.05)  # the consumer's time is not the generator's
    assert g.send(4) == 40
    assert g.throw(KeyError) == "caught"
    with pytest.raises(StopIteration):
        next(g)
    calls, self_s = rec.totals["gen"]
    assert calls == 3  # objects drawn; the finishing resume is not a draw
    assert self_s < 0.02
    assert rec.totals["inner"][0] == 1
    assert rec.edges[("gen", "inner")][0] == 1
    assert rec.depth == 0


def test_wrappers_restored_and_untraced_digest_unchanged(golden):
    from repro.flash.nand import NandArray
    from repro.obs.runtime import _global_sinks

    originals = {
        (cls, name): cls.__dict__[name]
        for cls, name in ((NandArray, "program"), (NandArray, "program_batch"))
    }
    workload = OneExperiment()
    before = bench._one_pass(workload, 0, golden, {}, bench.Tally())
    rec = tracing.SpanRecorder()
    with tracing.Tracing(rec):
        assert NandArray.__dict__["program"] is not originals[(NandArray, "program")]
        traced = bench._one_pass(workload, 0, golden, {}, bench.Tally(), rec)
    for (cls, name), raw in originals.items():
        assert cls.__dict__[name] is raw
    assert not _global_sinks
    after = bench._one_pass(workload, 0, golden, {}, bench.Tally())
    assert before["digests"] == traced["digests"] == after["digests"]
    assert rec.totals["zns.write"][0] > 0


def test_traced_run_self_times_add_up(golden):
    outcome = bench.traced_run(OneExperiment(), 0, golden, {})
    assert outcome["tally"].failed == 0
    assert (outcome["tally"].attempted) == 2  # E7 untraced and traced
    spans = set(outcome["extra"]["spans"])
    assert all(name in bench.LAYER_SPANS or name.startswith("experiments.") for name in spans)
    m = outcome["metrics"]
    accounted = sum(m[f"{span}.self_s"] for span in bench.LAYER_SPANS)
    accounted += m["experiments.self_s"] + m["other.self_s"]
    assert accounted == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["experiments.E7.wall_s"] > 0
    assert m["flash.pages_programmed"] > 0
    assert set(m) == {name for name, _ in bench.per_layer_names()}


def test_perturbed_golden_row_counts_as_failure(golden):
    perturbed = copy.deepcopy(golden)
    entry = next(e for e in perturbed if e["experiment_id"] == "E7")
    first = entry["rows"][0]
    key = next(k for k, v in first.items() if isinstance(v, (int, float)) and not isinstance(v, bool))
    first[key] += 1
    unit = workloads._experiment_unit("E7", 0)

    tally = bench.Tally()
    bench.run_unit(unit, None, 0, golden, {}, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    tally = bench.Tally()
    bench.run_unit(unit, None, 0, perturbed, {}, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "golden" in tally.reasons[0]


def test_other_seeds_are_digested_not_judged(golden):
    unit = workloads._experiment_unit("E7", 3)
    tally = bench.Tally()
    result, digest, wall = bench.run_unit(unit, None, 3, golden, {}, tally)
    assert tally.failed == 0
    assert digest == bench.digest(result)
    assert wall > 0
    # A repeat must reproduce the first run, at any seed.
    bench.run_unit(unit, None, 3, golden, {}, tally, first=digest)
    assert tally.failed == 0
    bench.run_unit(unit, None, 3, golden, {}, tally, first="0" * 64)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "repeated" in tally.reasons[0]


def test_ingest_checked_against_model():
    keys = workloads.ingest_keys(2, puts=3_000)
    assert keys == workloads.ingest_keys(2, puts=3_000) != workloads.ingest_keys(3, puts=3_000)
    result = workloads.ingest(workloads.STORES["zns"], keys)
    assert workloads.ingest_failures(result) == 0
    result.model[keys[0]] += 1  # a store that lost the last write of one key
    result.model[-1] = 0  # and one it never held
    assert workloads.ingest_failures(result) >= 2


def test_op_stream_deterministic_per_seed():
    a = workloads.make_op_stream(3, ops=2_000, load=500)
    b = workloads.make_op_stream(3, ops=2_000, load=500)
    c = workloads.make_op_stream(4, ops=2_000, load=500)
    assert a == b
    assert a.kinds != c.kinds and a.keys != c.keys and a.load_keys != c.load_keys
    kinds = set(a.kinds)
    assert kinds == {workloads.GET, workloads.PUT, workloads.SCAN}


def test_op_stream_checked_against_model():
    state = workloads.load_stores(workloads.make_op_stream(5, ops=3_000, load=3_000))
    result = workloads.run_op_stream(state)
    assert result.failed == 0
    assert result.ops == 2 * 3_000
    assert 0 < result.summary["get_hits"] < len(result.get_ns)

    state = workloads.load_stores(workloads.make_op_stream(5, ops=3_000, load=3_000))
    store = state.stores[1]
    real_get = store.get
    store.get = lambda key: (real_get(key) or 0) + 1  # a store that answers wrong
    assert workloads.run_op_stream(state).failed == len(result.get_ns) // 2


def test_calibration_scales_to_nominal_host_speed():
    assert calibrate.reference_work(500) == calibrate.reference_work(500)
    cal = calibrate.Calibrator()
    cal.tick()
    assert len(cal.walls) == 1 and cal.walls[0] > 0
    cal.walls = [2 * calibrate.REFERENCE_S, 2 * calibrate.REFERENCE_S]  # a host at half speed
    assert cal.factor == pytest.approx(0.5)
