"""Span recorder and the wrappers that time each layer from outside.

The traced run installs wrappers around the public calls into each layer of
``repro``.  A timed wrapper records one span (name, start, end, parent span)
per call; a counting wrapper only increments a counter, for per-event calls
whose timing would cost more than the work.  Spans stay in memory and are
written out when the run ends.

A name bound by ``from module import name`` lives in the importing module,
so :func:`install` replaces the original object in *every* loaded ``repro``
module namespace, not only where it is defined.  :data:`REQUIRED_SITES`
names the bindings callers are known to use; :func:`install` fails loudly if
any of them still holds the unwrapped object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

#: Timed module-level functions: span name -> (defining module, attribute).
TIMED_FUNCTIONS = {
    "simulate.make_detector": ("repro.simulate.presets", "make_detector"),
    "simulate.calibrate_profile": ("repro.simulate.calibrate", "calibrate_profile"),
    "simulate.solve_base_recall": ("repro.simulate.calibrate", "solve_base_recall"),
    "simulate.expected_recall": ("repro.simulate.calibrate", "expected_recall"),
    "detection.class_aware_nms": ("repro.detection.nms", "class_aware_nms"),
    "data.load_dataset": ("repro.data.datasets", "load_dataset"),
    "experiments.prefetch_detections": ("repro.experiments.suite", "prefetch_detections"),
    "metrics.mean_average_precision": ("repro.metrics.voc_ap", "mean_average_precision"),
    "metrics.count_summary": ("repro.metrics.counting", "count_summary"),
    "metrics.rolling_quality": ("repro.metrics.rolling", "rolling_quality"),
    "runtime.serve_fleet": ("repro.runtime.serving", "serve_fleet"),
}

#: Timed methods: span name -> (module, class, method).
TIMED_METHODS = {
    "simulate.detect_split": ("repro.simulate.detector", "SimulatedDetector", "detect_split"),
    "core.discriminator.fit": ("repro.core.discriminator", "DifficultCaseDiscriminator", "fit"),
    "core.discriminator.decide_split": ("repro.core.discriminator", "DifficultCaseDiscriminator", "decide_split"),
    "core.system.run": ("repro.core.system", "SmallBigSystem", "run"),
    "experiments.cache.load": ("repro.experiments.harness", "Harness", "_load_shard"),
    "experiments.cache.store": ("repro.experiments.harness", "Harness", "_store_shard"),
}

#: Counted (not timed) per-event methods: counter name -> (module, class, method).
COUNTED_METHODS = {
    "runtime.events.scheduled": ("repro.runtime.events", "EventLoop", "schedule"),
    "runtime.fifo.acquired": ("repro.runtime.events", "FifoResource", "acquire"),
    "runtime.network.transfer_duration.calls": ("repro.runtime.network", "RateSchedule", "transfer_duration"),
    "runtime.control.admit.calls": ("repro.runtime.control", "EstimatedDeadlineAware", "admit"),
}

#: ``from ... import`` bindings callers look the wrapped functions up under.
REQUIRED_SITES = (
    ("repro.simulate.presets", "calibrate_profile"),
    ("repro.simulate.presets", "load_dataset"),
    ("repro.experiments.harness", "load_dataset"),
    ("repro.experiments.harness", "make_detector"),
    ("repro.experiments.harness", "mean_average_precision"),
    ("repro.experiments.harness", "count_summary"),
    ("repro.simulate.detector", "class_aware_nms"),
    ("repro.simulate", "make_detector"),
    ("repro.experiments", "prefetch_detections"),
    ("repro.metrics", "rolling_quality"),
    ("repro.runtime", "serve_fleet"),
)


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Counts made inside each :meth:`region`, by region name.
        self.region_counts: dict[str, Counter] = {}
        self._stack: list[int] = []

    def timed(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so every call records a span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so every call increments counter ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """Record one span around a block; yields the span's index."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        before = Counter(self.counts)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            self.region_counts[name] = self.counts - before

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON."""
        payload = {
            "span_fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "region_counts": {name: dict(counts) for name, counts in self.region_counts.items()},
        }
        path.write_text(json.dumps(payload))


def _count_images(recorder: Recorder, args, result) -> None:
    recorder.counts["simulate.detect_split.images"] += len(args[1])


def _count_dataset(recorder: Recorder, args, result) -> None:
    recorder.counts["data.load_dataset.images"] += len(result)


def _count_shard_load(recorder: Recorder, args, result) -> None:
    recorder.counts["experiments.cache.shards_requested"] += 1
    if result is not None:
        recorder.counts["experiments.cache.shards_loaded"] += 1


def _count_shard_store(recorder: Recorder, args, result) -> None:
    recorder.counts["experiments.cache.shards_stored"] += 1


def _count_shed(recorder: Recorder, args, result) -> None:
    if not result:
        recorder.counts["runtime.control.admit.shed"] += 1


_ON_RESULT = {
    "simulate.detect_split": _count_images,
    "data.load_dataset": _count_dataset,
    "experiments.cache.load": _count_shard_load,
    "experiments.cache.store": _count_shard_store,
    "runtime.control.admit.calls": _count_shed,
}


def _rebind_everywhere(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every loaded repro namespace."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                namespace[attribute] = wrapper


def _wrap_method(wrap, name: str, target: tuple) -> None:
    """Replace a method on its class by ``wrap(name, method, on_result)``."""
    module_name, class_name, method = target
    cls = getattr(importlib.import_module(module_name), class_name)
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(wrap(name, raw.__func__, _ON_RESULT.get(name))))
    else:
        setattr(cls, method, wrap(name, raw, _ON_RESULT.get(name)))


def install(recorder: Recorder) -> None:
    """Install every wrapper; raise if a known call site was missed."""
    importlib.import_module("repro.experiments")  # loads every module with a binding
    for name, (module_name, attribute) in TIMED_FUNCTIONS.items():
        original = getattr(importlib.import_module(module_name), attribute)
        _rebind_everywhere(original, recorder.timed(name, original, _ON_RESULT.get(name)))
    for name, target in TIMED_METHODS.items():
        _wrap_method(recorder.timed, name, target)
    for name, target in COUNTED_METHODS.items():
        _wrap_method(recorder.counted, name, target)
    unwrapped = [
        f"{module}.{attribute}"
        for module, attribute in REQUIRED_SITES
        if not hasattr(getattr(sys.modules[module], attribute), "__wrapped__")
    ]
    if unwrapped:
        raise RuntimeError(f"trace wrappers missing at: {', '.join(unwrapped)}")


def layer_table(spans: list[list], root: int) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name under span ``root``.

    Self time is a span's duration minus the time its direct child spans
    cover; spans nest on one thread, so children never overlap.  The root
    itself appears under its own name, and its self time is the part of the
    region no named layer accounts for.
    """
    child_time = [0.0] * len(spans)
    inside = [False] * len(spans)
    inside[root] = True
    for index in range(root + 1, len(spans)):
        name, start, end, parent = spans[index]
        if parent >= 0 and inside[parent]:
            inside[index] = True
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        if not inside[index]:
            continue
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return table
