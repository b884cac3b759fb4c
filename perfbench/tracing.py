"""Host-time spans around the public functions of each ``repro`` layer.

Spans are recorded from outside the program: :class:`Tracing` monkeypatches
the functions listed in :data:`LAYER_FUNCTIONS` with timing wrappers while
it is active and puts the originals back when it exits, so nothing under
``src/`` knows it is being measured.

A span's *self time* is its duration minus the time its child spans
cover. Spans nest strictly on the one thread the simulator runs on, so a
stack of open spans is enough: each closing span adds its duration to its
parent's child time. Generator functions are wrapped so that every resume
is one span (the simulator's DES processes and the fleet's lifetime
stream are generators; timing only their creation would time nothing).

A wrapped function called from inside a span of the same name (a
subclass method calling ``super()``, ``append`` calling ``write``) runs
unwrapped: ``.calls`` counts operations entering the layer, not how
often the layer calls itself, so inlining such a call changes no count.

Code that no wrapper covers is charged to the nearest enclosing span:
the experiment modules' own loops to the ``experiments.<unit>`` span, DES
process bodies to ``sim.engine.run``, and so on.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from collections.abc import Generator, Iterator
from contextlib import contextmanager
from typing import Any, Callable

#: Raw spans kept for the written-out trace; aggregates cover every span.
RAW_SPAN_LIMIT = 20_000

#: The nine event kinds counted from the telemetry bus, by bus name.
EVENT_KINDS = {
    "flash-op": "flash_op",
    "gc": "gc",
    "zone-transition": "zone_transition",
    "zone-append": "zone_append",
    "zone-mgmt": "zone_mgmt",
    "host-request": "host_request",
    "host-request-batch": "host_request",
    "translation": "translation",
    "fault": "fault",
    "recovery": "recovery",
}


def _programmed(pages: Callable[[tuple, dict], int]) -> Callable[..., None]:
    def hook(args: tuple, kwargs: dict, result: Any, counters: dict) -> None:
        counters["flash.pages_programmed"] += pages(args, kwargs)

    return hook


def _bloom_skip(args: tuple, kwargs: dict, result: Any, counters: dict) -> None:
    if not result:
        counters["apps.lsm.bloom.skips"] += 1


#: span name -> [(module, class name or None, attribute names)].
#: Methods are patched on the class whose ``__dict__`` defines them;
#: inherited definitions are covered by patching the base class.
LAYER_FUNCTIONS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "apps.lsm.put": [("repro.apps.lsm.store", "LSMStore", ("put",))],
    "apps.lsm.get": [("repro.apps.lsm.store", "LSMStore", ("get",))],
    "apps.lsm.scan": [("repro.apps.lsm.store", "LSMStore", ("scan",))],
    "apps.lsm.compaction.merge": [
        ("repro.apps.lsm.compaction", "LeveledCompaction", ("merge",))
    ],
    "apps.lsm.bloom.build": [("repro.apps.lsm.bloom", "BloomFilter", ("build",))],
    "apps.lsm.bloom.probe": [("repro.apps.lsm.bloom", "BloomFilter", ("might_contain",))],
    "apps.lsm.sstable.overlaps_range": [
        ("repro.apps.lsm.sstable", "SSTable", ("overlaps_range",))
    ],
    "apps.lsm.backend": [
        ("repro.apps.lsm.backends", "LsmBackend", ("read_entry",)),
        (
            "repro.apps.lsm.backends",
            "BlockFileBackend",
            ("write_table", "delete_table", "read_table_page", "append_wal_page", "reset_wal"),
        ),
        (
            "repro.apps.lsm.backends",
            "ZoneFileBackend",
            (
                "write_table", "delete_table", "read_table_page",
                "append_wal_page", "reset_wal", "reclaim",
            ),
        ),
    ],
    "workloads.lifetime.events": [
        ("repro.workloads.lifetime", "ObjectLifetimeWorkload", ("events",))
    ],
    "fleet.simulate_device": [("repro.fleet.rack", None, ("simulate_device",))],
    "obs.frame.observe": [("repro.obs.frame", "MetricsFrame", ("observe", "observe_many"))],
    "obs.frame.merge": [("repro.obs.frame", "MetricsFrame", ("merge", "merged"))],
    "obs.frame.quantile": [("repro.obs.frame", "MetricsFrame", ("quantile",))],
    "ftl.write": [
        ("repro.ftl.ftl", "ConventionalFTL", ("write", "write_pages", "write_pages_timed")),
        ("repro.ftl.dftl", "DemandPagedFTL", ("write", "write_pages")),
    ],
    "ftl.read": [
        ("repro.ftl.ftl", "ConventionalFTL", ("read", "read_pages")),
        ("repro.ftl.dftl", "DemandPagedFTL", ("read",)),
    ],
    "ftl.collect_once": [
        ("repro.ftl.ftl", "ConventionalFTL", ("collect_once",)),
        ("repro.ftl.dftl", "DemandPagedFTL", ("collect_once",)),
    ],
    "zns.write": [
        (
            "repro.zns.device",
            "ZNSDevice",
            ("write", "append", "write_batch", "append_batch", "append_epoch"),
        )
    ],
    "zns.read": [("repro.zns.device", "ZNSDevice", ("read", "read_batch"))],
    "zns.mgmt": [
        ("repro.zns.device", "ZNSDevice", ("open_zone", "close_zone", "finish_zone", "reset_zone"))
    ],
    "flash.program": [("repro.flash.nand", "NandArray", ("program",))],
    "flash.program_batched": [
        ("repro.flash.nand", "NandArray", ("program_batch", "program_run", "program_lanes"))
    ],
    "flash.read": [("repro.flash.nand", "NandArray", ("read", "sense_batch"))],
    "flash.erase": [("repro.flash.nand", "NandArray", ("erase",))],
    "sim.engine.run": [("repro.sim.engine", "Engine", ("run",))],
    "block.dmzoned": [
        (
            "repro.block.dmzoned",
            "ZonedBlockDevice",
            (
                "read_block", "write_block", "trim_block", "read", "write", "trim",
                "reclaim_step", "collect_once", "collect",
            ),
        )
    ],
    # The timed block-on-ZNS facade does its work in DES process bodies;
    # submit_read/submit_write only schedule them.
    "hostio.timed": [
        (
            "repro.hostio.timed",
            "TimedZonedBlockDevice",
            ("_read_proc", "_write_proc", "_reclaim_loop"),
        )
    ],
    "hostio.zonelife": [
        (
            "repro.hostio.zonelife",
            "ZoneLifecycleManager",
            (
                "request_free_zone", "note_reclaimable", "defer_finish",
                "reset_now", "finish_now", "tick", "reset_estimate_us",
            ),
        )
    ],
}

#: (module, class, attribute) -> hook run on each successful call's result.
RESULT_HOOKS: dict[tuple[str, str, str], Callable[..., None]] = {
    ("repro.flash.nand", "NandArray", "program"): _programmed(lambda a, k: 1),
    ("repro.flash.nand", "NandArray", "program_batch"): _programmed(
        lambda a, k: len(a[1] if len(a) > 1 else k["pages"])
    ),
    ("repro.flash.nand", "NandArray", "program_run"): _programmed(
        lambda a, k: int(a[2] if len(a) > 2 else k["n"])
    ),
    ("repro.flash.nand", "NandArray", "program_lanes"): _programmed(
        lambda a, k: int((a[3] if len(a) > 3 else k["counts"]).sum())
    ),
    ("repro.apps.lsm.bloom", "BloomFilter", "might_contain"): _bloom_skip,
}


class SpanRecorder:
    """In-memory span aggregates plus a bounded sample of raw spans.

    ``totals[name]`` is ``[calls, self_s]``; ``edges[(parent, name)]`` is
    ``[calls, total_s]`` (which span caused which); ``top_s`` sums the
    durations of spans opened with no span open, so the time outside
    every span is ``wall - top_s``.
    """

    def __init__(self, raw_limit: int = RAW_SPAN_LIMIT) -> None:
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.raw: list[tuple[str, str, float, float]] = []
        self.raw_limit = raw_limit
        self.top_s = 0.0
        self.epoch = time.perf_counter()
        # Open spans: [name, child_s].
        self.stack: list[list] = []

    def enter(self, name: str) -> list:
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, start: float, end: float, counted: bool = True) -> None:
        stack = self.stack
        stack.pop()
        duration = end - start
        name = frame[0]
        total = self.totals[name]
        if counted:
            total[0] += 1
        total[1] += duration - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_name = parent[0]
        else:
            self.top_s += duration
            parent_name = ""
        edge = self.edges[(parent_name, name)]
        edge[0] += 1
        edge[1] += duration
        if len(self.raw) < self.raw_limit:
            self.raw.append((name, parent_name, start - self.epoch, duration))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A ``with`` block recorded as one span (used for work units)."""
        frame = self.enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.leave(frame, start, time.perf_counter())

    @property
    def depth(self) -> int:
        return len(self.stack)


class _TracedGenerator(Generator):
    """Forwards send/throw to a generator, timing each resume as a span.

    ``calls`` counts resumes that yielded a value (objects drawn); the
    resume that finishes the generator is timed but not counted.
    """

    __slots__ = ("_gen", "_recorder", "_name")

    def __init__(self, gen: Generator, recorder: SpanRecorder, name: str) -> None:
        self._gen = gen
        self._recorder = recorder
        self._name = name

    def _resume(self, method: Callable, *args: Any) -> Any:
        recorder = self._recorder
        frame = recorder.enter(self._name)
        start = time.perf_counter()
        try:
            value = method(*args)
        except BaseException:
            recorder.leave(frame, start, time.perf_counter(), counted=False)
            raise
        recorder.leave(frame, start, time.perf_counter())
        return value

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, typ: Any, val: Any = None, tb: Any = None) -> Any:
        if val is None and tb is None:
            return self._resume(self._gen.throw, typ)
        return self._resume(self._gen.throw, typ, val, tb)

    def close(self) -> None:
        self._gen.close()


def _make_wrapper(
    fn: Callable, recorder: SpanRecorder, name: str, qualname: str,
    hook: Callable[..., None] | None,
) -> Callable:
    perf = time.perf_counter
    fn_calls = recorder.fn_calls
    counters = recorder.counters
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args: Any, **kwargs: Any) -> Generator:
            fn_calls[qualname] += 1
            return _TracedGenerator(fn(*args, **kwargs), recorder, name)

        return traced_generator

    enter = recorder.enter
    leave = recorder.leave
    stack = recorder.stack

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        fn_calls[qualname] += 1
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = enter(name)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(frame, start, perf())
        if hook is not None:
            hook(args, kwargs, result, counters)
        return result

    return traced


def _make_engine_run_wrapper(fn: Callable, recorder: SpanRecorder, name: str) -> Callable:
    """``Engine.run`` also counts the events it processed."""
    perf = time.perf_counter
    counters = recorder.counters

    @functools.wraps(fn)
    def traced_run(engine: Any, *args: Any, **kwargs: Any) -> Any:
        recorder.fn_calls["repro.sim.engine.Engine.run"] += 1
        before = engine.processed_events
        frame = recorder.enter(name)
        start = perf()
        try:
            return fn(engine, *args, **kwargs)
        finally:
            recorder.leave(frame, start, perf())
            counters["sim.engine.events"] += engine.processed_events - before

    return traced_run


class CountingSink:
    """Counts telemetry events by kind, plus the sums that need event fields."""

    def __init__(self, counters: dict[str, float]) -> None:
        self.counters = counters

    def on_event(self, event: Any) -> None:
        kind = event.kind
        counters = self.counters
        counters[f"obs.events.{EVENT_KINDS.get(kind, kind)}"] += 1
        if kind == "gc":
            if event.layer == "ftl.gc" and event.action == "collected":
                counters["ftl.gc.pages_relocated"] += event.pages_copied
        elif kind == "zone-mgmt":
            counters["zns.mgmt.queued_behind"] += event.queued_behind
        elif kind == "reclaim":
            if event.layer == "block.dmzoned" and event.action == "step":
                counters["block.dmzoned.reclaim_pages"] += event.copies
        elif kind == "host-request":
            if event.layer == "fleet.request" and event.phase == "complete":
                counters["fleet.requests"] += 1
        elif kind == "host-request-batch":
            if event.layer == "fleet.request":
                counters["fleet.requests"] += event.count


class Tracing:
    """Install every layer wrapper and the counting sink; undo on exit.

    Device stacks built through ``repro.obs.runtime.new_tracer`` pick the
    counting sink up as a global sink. The fleet serves each device on a
    private tracer whose only sink is a ``FrameSink``, so the sink also
    taps ``FrameSink.on_event``.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.sink = CountingSink(recorder.counters)
        self.cmt_stats: list[Any] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracing":
        import importlib

        from repro.ftl.mapping import TranslationStore
        from repro.obs.frame import FrameSink
        from repro.obs.runtime import install_global_sink

        recorder = self.recorder
        try:
            for name, targets in LAYER_FUNCTIONS.items():
                for module_name, class_name, attrs in targets:
                    module = importlib.import_module(module_name)
                    owner = getattr(module, class_name) if class_name else module
                    for attr in attrs:
                        qualname = f"{module_name}.{class_name or ''}.{attr}"
                        if name == "sim.engine.run":
                            make = functools.partial(
                                _make_engine_run_wrapper, recorder=recorder, name=name
                            )
                        else:
                            make = functools.partial(
                                _make_wrapper, recorder=recorder, name=name,
                                qualname=qualname,
                                hook=RESULT_HOOKS.get((module_name, class_name, attr)),
                            )
                        self._patch(owner, attr, make)
            self._patch(TranslationStore, "__init__", self._tap_translation_store)
            self._patch(FrameSink, "on_event", self._tap_frame_sink)
            install_global_sink(self.sink)
        except BaseException:
            self._restore()
            raise
        return self

    def _tap_translation_store(self, init: Callable) -> Callable:
        stats = self.cmt_stats

        @functools.wraps(init)
        def tapped(store: Any, *args: Any, **kwargs: Any) -> None:
            init(store, *args, **kwargs)
            stats.append(store.stats)

        return tapped

    def _tap_frame_sink(self, on_event: Callable) -> Callable:
        count = self.sink.on_event

        @functools.wraps(on_event)
        def tapped(sink: Any, event: Any) -> None:
            count(event)
            on_event(sink, event)

        return tapped

    def _restore(self) -> None:
        from repro.obs.runtime import remove_global_sink

        remove_global_sink(self.sink)
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __exit__(self, *exc: Any) -> None:
        self._restore()


__all__ = ["CountingSink", "LAYER_FUNCTIONS", "SpanRecorder", "Tracing"]
