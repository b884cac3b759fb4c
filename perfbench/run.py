"""End-to-end benchmark of the reproduction, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload lsm-serve --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28 --trace 1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
It runs passes over the workload's units while another pass fits in
``--seconds`` and reports the mean pass time. Set-up is the
fresh-interpreter import time, plus for ``lsm-serve`` the median store
load. Both are scaled by how fast a fixed reference workload ran in the
same invocation (``calibrate.py``), because the host's speed for the same
code swings by up to 2x over tens of seconds. ``--trace 1`` runs
one untraced pass and one traced pass of the same work and reports the
per-layer split (see ``tracing.py``); the traced pass must produce the
same simulated outputs as the untraced one.

Every run of every unit is digested and checked: at seed 0 experiment
units must equal their row of ``tests/golden/run_all.json`` and the other
units the digests in ``pinned.json``; at every seed a repeat must equal
the first run; LSM answers are checked against a dict model.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with
provenance and digests, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "run_all.json"
PINNED = HERE / "pinned.json"
OUT = HERE / "out"

#: Fresh-interpreter imports per run; their median is part of setup_s.
IMPORT_REPEATS = 5

#: Imports a user of the CLI pays for: every experiment module, the LSM
#: app and the fleet layer.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.experiments.runner, repro.apps.lsm, repro.fleet.rack; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
LAYER_SPANS = (
    "apps.lsm.put",
    "apps.lsm.get",
    "apps.lsm.scan",
    "apps.lsm.compaction.merge",
    "apps.lsm.bloom.build",
    "apps.lsm.bloom.probe",
    "apps.lsm.sstable.overlaps_range",
    "apps.lsm.backend",
    "workloads.lifetime.events",
    "fleet.simulate_device",
    "obs.frame.observe",
    "obs.frame.merge",
    "obs.frame.quantile",
    "ftl.write",
    "ftl.read",
    "ftl.collect_once",
    "zns.write",
    "zns.read",
    "zns.mgmt",
    "flash.program",
    "flash.program_batched",
    "flash.read",
    "flash.erase",
    "sim.engine.run",
    "block.dmzoned",
    "hostio.timed",
    "hostio.zonelife",
)

EVENT_METRICS = tuple(
    f"obs.events.{kind}"
    for kind in (
        "flash_op", "gc", "zone_transition", "zone_append", "zone_mgmt",
        "host_request", "translation", "fault", "recovery",
    )
)

#: Every unit group of every workload (``Unit.group``, plus the store
#: load), so each traced run reports the same names.
UNIT_GROUPS = (
    "ingest.zns", "ingest.block", "kv.load", "kv.ops", "E16", "E17",
    "E1", "E7", "A4.cmt4k", "E12.simple-copy",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    names: list[tuple[str, str]] = []
    for span in LAYER_SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [
        ("apps.lsm.bloom.skip_ratio", "ratio"),
        ("apps.lsm.table_reads_per_get", "ratio"),
        ("kv.get_p50_us", "us"),
        ("kv.get_p99_us", "us"),
        ("kv.get_samples", "count"),
        ("fleet.requests", "count"),
        *((name, "count") for name in EVENT_METRICS),
        ("ftl.gc.pages_relocated", "count"),
        ("ftl.dftl.cmt_hit_ratio", "ratio"),
        ("zns.mgmt.queued_behind", "count"),
        ("flash.pages_programmed", "count"),
        ("flash.pages_per_program_call", "ratio"),
        ("sim.engine.events", "count"),
        ("block.dmzoned.reclaim_pages", "count"),
        ("faults.injected", "count"),
        ("faults.recovered", "count"),
        *((f"experiments.{group}.wall_s", "s") for group in UNIT_GROUPS),
        ("experiments.self_s", "s"),
        ("other.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return names


# -- Correctness --------------------------------------------------------------


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def golden_expectation(golden: list[dict], spec: tuple) -> Any:
    """The golden entry (or row, through the spec's filter) a unit must equal."""
    experiment_id, row_filter = spec
    entry = next(e for e in golden if e["experiment_id"] == experiment_id)
    if row_filter is None:
        return entry
    (row,) = [row for row in entry["rows"] if row_filter(row)]
    return row


def check_unit(unit, payload: Any, seed: int, golden: list[dict], pinned: dict,
               first: str | None) -> str | None:
    """None when ``payload`` is right for this unit, else why it is not.

    At seed 0 it must equal the golden row or the pinned digest; at every
    seed a repeat must equal the unit's first run (digest ``first``).
    """
    if first is not None and digest(payload) != first:
        return f"{unit.unit_id} gave a different result on a repeated run"
    if seed != 0:
        return None
    if unit.golden is not None:
        expected = golden_expectation(golden, unit.golden)
        if canonical(payload) != canonical(expected):
            return f"{unit.unit_id} differs from tests/golden/run_all.json"
        return None
    want = pinned.get(unit.unit_id)
    if want is None:
        return f"{unit.unit_id} has no pinned digest"
    if digest(payload) != want:
        return f"{unit.unit_id} digest differs from pinned.json"
    return None


class Tally:
    """Attempted/failed units and the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.append(reason)
        print(f"perfbench: FAILED {reason}", file=sys.stderr)


def run_unit(unit, state: Any, seed: int, golden, pinned, tally: Tally,
             first: str | None = None) -> tuple[Any, str | None, float]:
    """Run and check one unit; returns (result, digest, host seconds of the run).

    Only ``unit.run(state)`` is timed, not the checks. One unit run is one
    attempt, plus one per op for units that check ops against a model. A
    unit that raises returns ``(None, None, seconds)``.
    """
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = unit.run(state)
    except Exception:
        traceback.print_exc()
        tally.fail(f"{unit.unit_id} raised")
        return None, None, time.perf_counter() - start
    wall = time.perf_counter() - start
    if unit.failures is not None:
        tally.attempted += unit.ops(result)
        bad = unit.failures(result)
        if bad:
            tally.fail(f"{unit.unit_id}: {bad} op(s) disagree with the model", bad)
    payload = unit.summary(result)
    reason = check_unit(unit, payload, seed, golden, pinned, first)
    if reason is not None:
        tally.fail(reason)
    return result, digest(payload), wall


# -- Measurement helpers ---------------------------------------------------------


def import_seconds(calibrator) -> float:
    """Median host time to import the CLI's modules in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    samples = []
    for _ in range(IMPORT_REPEATS):
        calibrator.tick()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return sorted_values[index]


def provenance(args: argparse.Namespace) -> dict:
    def git(*cmd: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    import numpy

    # A checkout that is not itself a repository has no commit, even when
    # it sits inside some other repository.
    toplevel = git("rev-parse", "--show-toplevel")
    own = toplevel is not None and Path(toplevel).resolve() == ROOT
    commit = git("rev-parse", "HEAD") if own else None
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# -- Timed run (--trace 0) -----------------------------------------------------------


def _prepare(unit) -> tuple[Any, float]:
    """The unit's set-up state (None without one) and its host seconds."""
    if unit.prepare is None:
        return None, 0.0
    start = time.perf_counter()
    state = unit.prepare()
    return state, time.perf_counter() - start


def timed_run(workload, seed: int, seconds: float, golden, pinned) -> dict:
    """Passes over the units until the next would overrun ``seconds``.

    The reference workload runs before every unit and every set-up, so
    the host's speed is sampled as often as the program is timed.
    ``wall_s`` is the mean pass time and ``setup_s`` the set-up time, both
    scaled by the calibration factor (see ``calibrate.py``).
    """
    from calibrate import Calibrator

    tally = Tally()
    calibrator = Calibrator()
    import_s = import_seconds(calibrator)
    units = workload.units(seed)
    walls: dict[str, list[float]] = {u.unit_id: [] for u in units}
    setups: dict[str, list[float]] = {u.unit_id: [] for u in units if u.prepare}
    digests: dict[str, str | None] = {}
    ops: dict[str, int] = {}
    get_ns: list[int] = []
    phase_start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for unit in units:
            calibrator.tick()
            state, setup_wall = _prepare(unit)
            if unit.prepare is not None:
                setups[unit.unit_id].append(setup_wall)
                calibrator.tick()  # set-up and unit are timed apart; sample both
            result, unit_digest, wall = run_unit(
                unit, state, seed, golden, pinned, tally, digests.get(unit.unit_id)
            )
            state = None  # let the set-up state go before the next one is built
            walls[unit.unit_id].append(wall)
            digests.setdefault(unit.unit_id, unit_digest)
            if result is not None:
                ops[unit.unit_id] = unit.ops(result)
                get_ns = getattr(result, "get_ns", get_ns)
        passes += 1
        now = time.perf_counter()
        if now - phase_start + (now - pass_start) > seconds:
            break

    factor = calibrator.factor
    host_wall_s = sum(sum(w) for w in walls.values()) / passes
    host_setup_s = import_s + sum(statistics.median(s) for s in setups.values())
    wall_s = factor * host_wall_s
    metrics = {
        "wall_s": wall_s,
        "setup_s": factor * host_setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": sum(ops.values()) / wall_s,
    }
    extra = {
        "passes": passes,
        "calibration_factor": factor,
        "reference_walls_s": calibrator.walls,
        "host_wall_s": host_wall_s,
        "host_setup_s": host_setup_s,
        "import_s": import_s,
        "setup_walls_s": setups,
        "unit_walls_s": walls,
        "ops_per_pass": ops,
    }
    if get_ns:
        ordered = sorted(get_ns)
        extra["kv_get_us"] = {
            "p50": percentile(ordered, 0.50) / 1000.0,
            "p99": percentile(ordered, 0.99) / 1000.0,
            "samples": len(ordered),
        }
    return {"tally": tally, "metrics": metrics, "digests": digests, "extra": extra}


# -- Traced run (--trace 1) ---------------------------------------------------------


def _one_pass(workload, seed, golden, pinned, tally, recorder=None) -> dict:
    """Every unit once, with its set-up; spans opened around each when tracing.

    ``walls`` sums host seconds by unit group, and the store load by
    ``kv.load``.
    """
    from contextlib import nullcontext

    def span(name: str):
        return recorder.span(f"experiments.{name}") if recorder else nullcontext()

    walls: dict[str, float] = defaultdict(float)
    digests: dict[str, str | None] = {}
    get_ns: list[int] = []
    pass_start = time.perf_counter()
    for unit in workload.units(seed):
        if unit.prepare is not None:
            with span("kv.load"):
                state, walls["kv.load"] = _prepare(unit)
        else:
            state = None
        with span(unit.unit_id):
            result, digests[unit.unit_id], wall = run_unit(
                unit, state, seed, golden, pinned, tally
            )
        walls[unit.group] += wall
        if result is not None:
            get_ns = getattr(result, "get_ns", get_ns)
    wall = time.perf_counter() - pass_start
    return {"wall": wall, "walls": dict(walls), "digests": digests, "get_ns": get_ns}


def traced_run(workload, seed: int, golden, pinned) -> dict:
    from tracing import SpanRecorder, Tracing

    tally = Tally()
    plain = _one_pass(workload, seed, golden, pinned, tally)
    recorder = SpanRecorder()
    with Tracing(recorder) as tracing:
        traced = _one_pass(workload, seed, golden, pinned, tally, recorder)
    for unit_id, want in plain["digests"].items():
        if traced["digests"][unit_id] != want:
            tally.fail(f"{unit_id}: traced run gave different simulated outputs than untraced")

    return {
        "tally": tally,
        "metrics": layer_metrics(recorder, tracing, plain, traced),
        "digests": plain["digests"],
        "extra": {
            "spans": {name: {"calls": c, "self_s": s} for name, (c, s) in recorder.totals.items()},
            "calls_by_function": dict(sorted(recorder.fn_calls.items())),
            "edges": [
                {"parent": parent, "span": name, "calls": c, "total_s": s}
                for (parent, name), (c, s) in sorted(recorder.edges.items())
            ],
            "raw_spans": [
                {"span": n, "parent": p, "start_s": t, "duration_s": d}
                for n, p, t, d in recorder.raw
            ],
            "untraced_walls_s": plain["walls"],
            "traced_walls_s": traced["walls"],
        },
    }


def layer_metrics(recorder, tracing, plain: dict, traced: dict) -> dict:
    totals = recorder.totals
    counters = recorder.counters
    metrics: dict[str, float] = {}
    for span in LAYER_SPANS:
        calls, self_s = totals.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    probes = metrics["apps.lsm.bloom.probe.calls"]
    metrics["apps.lsm.bloom.skip_ratio"] = ratio(counters["apps.lsm.bloom.skips"], probes)
    reads = recorder.fn_calls["repro.apps.lsm.backends.LsmBackend.read_entry"]
    metrics["apps.lsm.table_reads_per_get"] = ratio(reads, metrics["apps.lsm.get.calls"])
    ordered = sorted(plain["get_ns"])
    metrics["kv.get_p50_us"] = percentile(ordered, 0.50) / 1000.0 if ordered else 0.0
    metrics["kv.get_p99_us"] = percentile(ordered, 0.99) / 1000.0 if ordered else 0.0
    metrics["kv.get_samples"] = len(ordered)
    metrics["fleet.requests"] = counters["fleet.requests"]
    for name in EVENT_METRICS:
        metrics[name] = counters[name]
    metrics["ftl.gc.pages_relocated"] = counters["ftl.gc.pages_relocated"]
    metrics["ftl.dftl.cmt_hit_ratio"] = ratio(
        sum(s.hits for s in tracing.cmt_stats), sum(s.lookups for s in tracing.cmt_stats)
    )
    metrics["zns.mgmt.queued_behind"] = counters["zns.mgmt.queued_behind"]
    pages = counters["flash.pages_programmed"]
    metrics["flash.pages_programmed"] = pages
    metrics["flash.pages_per_program_call"] = ratio(
        pages, metrics["flash.program.calls"] + metrics["flash.program_batched.calls"]
    )
    metrics["sim.engine.events"] = counters["sim.engine.events"]
    metrics["block.dmzoned.reclaim_pages"] = counters["block.dmzoned.reclaim_pages"]
    metrics["faults.injected"] = counters["obs.events.fault"]
    metrics["faults.recovered"] = counters["obs.events.recovery"]
    for group in UNIT_GROUPS:
        metrics[f"experiments.{group}.wall_s"] = plain["walls"].get(group, 0.0)
    metrics["experiments.self_s"] = sum(
        self_s for name, (_, self_s) in totals.items() if name.startswith("experiments.")
    )
    metrics["other.self_s"] = traced["wall"] - recorder.top_s
    metrics["trace.wall_s"] = traced["wall"]
    metrics["trace.overhead"] = traced["wall"] / plain["wall"]
    return metrics


# -- Reporting ------------------------------------------------------------------------


def print_end_to_end(rows: dict[str, dict]) -> None:
    names = list(END_TO_END_UNITS)
    header = ["workload"] + [f"{n} [{END_TO_END_UNITS[n]}]" for n in names] + ["attempted", "failed"]
    table = [header]
    for workload, row in rows.items():
        table.append(
            [workload]
            + [f"{row['metrics'][n]:.4g}" for n in names]
            + [str(row["attempted"]), str(row["failed"])]
        )
    _print_table(table)


def print_layers(rows: dict[str, dict]) -> None:
    """Self-time share of each span per workload, largest first."""
    shares: dict[str, dict[str, float]] = {}
    for workload, row in rows.items():
        metrics = row["metrics"]
        wall = metrics["trace.wall_s"]
        selfs = {span: metrics[f"{span}.self_s"] for span in LAYER_SPANS}
        selfs["experiments (unit code)"] = metrics["experiments.self_s"]
        selfs["other (outside spans)"] = metrics["other.self_s"]
        for span, self_s in selfs.items():
            shares.setdefault(span, {})[workload] = 100.0 * self_s / wall if wall else 0.0
    order = sorted(shares, key=lambda span: -max(shares[span].values()))
    table = [["span (self time %)"] + list(rows)]
    for span in order:
        table.append([span] + [f"{shares[span][w]:.1f}" for w in rows])
    table.append(["traced wall [s]"] + [f"{rows[w]['metrics']['trace.wall_s']:.2f}" for w in rows])
    table.append(["trace overhead [x]"] + [f"{rows[w]['metrics']['trace.overhead']:.2f}" for w in rows])
    _print_table(table)


def _print_table(table: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def write_record(prov: dict, workload_name: str, trace: int, outcome: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload_name}-seed{prov['seed']}-trace{trace}.json"
    tally = outcome["tally"]
    record = {
        "provenance": prov,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "failures": tally.reasons,
        "metrics": outcome["metrics"],
        "digests": outcome["digests"],
        **outcome["extra"],
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(
            f"perfbench: cannot find the program's source ({SRC}) or its golden "
            f"outputs ({GOLDEN}); run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Environment-driven telemetry would change what the timed code does.
    for var in ("ZNS_REPRO_TRACE", "ZNS_REPRO_METRICS"):
        os.environ.pop(var, None)

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; have {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2

    golden = json.loads(GOLDEN.read_text())
    pinned_all = json.loads(PINNED.read_text())
    prov = provenance(args)
    print("provenance: " + canonical(prov))

    timed_rows: dict[str, dict] = {}
    traced_rows: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        pinned = pinned_all.get(name, {})
        outcomes = []
        if not args.trace or args.workload == "all":
            outcome = timed_run(workload, args.seed, args.seconds, golden, pinned)
            timed_rows[name] = outcome
            outcomes.append((0, outcome))
        if args.trace:
            outcome = traced_run(workload, args.seed, golden, pinned)
            traced_rows[name] = outcome
            outcomes.append((1, outcome))
        for trace, outcome in outcomes:
            write_record(prov, name, trace, outcome)

    def summary(outcome: dict) -> dict:
        tally = outcome["tally"]
        return {"metrics": outcome["metrics"], "attempted": tally.attempted, "failed": tally.failed}

    if timed_rows:
        print("\nend-to-end (tracing off):")
        print_end_to_end({n: summary(o) for n, o in timed_rows.items()})
    if traced_rows:
        print("\nper-layer self time (traced pass):")
        print_layers({n: summary(o) for n, o in traced_rows.items()})

    rows = traced_rows if args.trace else timed_rows
    all_outcomes = list(timed_rows.values()) + list(traced_rows.values())
    attempted = sum(o["tally"].attempted for o in all_outcomes)
    failed = sum(o["tally"].failed for o in all_outcomes)
    if args.trace:
        units = dict(per_layer_names())
    else:
        units = END_TO_END_UNITS
    metrics = {}
    for name, outcome in rows.items():
        prefix = "" if len(rows) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": outcome["metrics"][metric], "unit": unit}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
