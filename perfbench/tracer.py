"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` replaces each public function of the seven modules
(``trace``, ``threshold``, ``ks``, ``channel``, ``profiles``, ``fleet``,
``cli``) with a wrapper, in every module that holds a reference to it, so a
call is traced whichever module its caller looks it up on.  ``uninstall``
puts the originals back; the untraced run never installs anything.

Spans live in memory as parallel arrays (name, start, end, parent, job) and
are written out once at the end.  Generators (``ingest_trace``,
``fold_intervals``) get one span per ``next``, so their time lands where the
records are produced, not where the generator is created.  A layer's self
time is its span's duration minus that of its direct child spans.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import numpy as np

MODULES = ("trace", "threshold", "ks", "channel", "profiles", "fleet", "cli")

# (metric, span, "self" | "incl"): time per job spent in the span.
TIME_METRICS = (
    ("profiles.generate_s", "profiles.generate", "self"),
    ("profiles.histogram_s", "profiles.histogram", "self"),
    ("trace.emit_s", "trace.emit", "self"),
    ("trace.ingest_s", "trace.ingest", "self"),
    ("trace.fold_s", "trace.fold", "self"),
    ("trace.push_s", "trace.push", "self"),
    ("threshold.classify_s", "threshold.classify", "self"),
    ("threshold.sweep_s", "threshold.sweep", "self"),
    ("ks.classify_s", "ks.classify", "incl"),
    ("channel.required_requests_s", "channel.required_requests", "incl"),
    ("channel.calibrate_s", "channel.calibrate", "incl"),
    ("channel.simulate_s", "channel.simulate", "self"),
    ("channel.box_test_s", "channel.box_test", "self"),
    ("fleet.run_s", "fleet.run", "incl"),
    ("fleet.step_self_s", "fleet.step", "self"),
    ("cli.self_s", "cli.main", "self"),
)
COUNT_METRICS = (
    "profiles.snapshots_generated",
    "profiles.histograms_made",
    "trace.records_emitted",
    "trace.records_ingested",
    "trace.windows_folded",
    "trace.push_calls",
    "threshold.classify_calls",
    "threshold.suspects",
    "ks.classify_calls",
    "ks.top_branches_calls",
    "ks.suspects",
    "channel.calibrate_calls",
    "channel.readings_simulated",
    "fleet.step_calls",
    "fleet.isolations",
    "cli.commands",
)
# (metric, numerator count, denominator count), over all traced jobs.
RATIO_METRICS = (
    ("threshold.suspect_precision", "threshold.attack_suspects", "threshold.suspects"),
    ("fleet.isolation_precision", "fleet.attack_isolations", "fleet.isolations"),
)
OVERHEAD_METRIC = "bench.trace_overhead"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name, _span, _mode in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "ratio" for name, _num, _den in RATIO_METRICS})
    units[OVERHEAD_METRIC] = "ratio"
    return units


def _is_attack(worker_id) -> bool:
    return isinstance(worker_id, str) and worker_id.startswith("attack-")


def _sized(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.counts: list[Counter] = []
        self.job_index = -1
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def begin_job(self) -> None:
        self.job_index += 1
        self.counts.append(Counter())

    def count(self, key: str, n=1) -> None:
        self.counts[self.job_index][key] += n

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_index)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    # --- wrappers ---------------------------------------------------------

    def _call(self, span: str, fn, after=None):
        name_id = self._name_id(span)

        def wrapper(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _generator(self, span: str, fn, item_key: str):
        """Time the call and then every ``next`` of the iterator it returns."""
        name_id = self._name_id(span)
        tracer = self

        class _Traced(Iterator):
            def __init__(self, inner):
                self._inner = inner

            def __next__(self):
                index = tracer.open(name_id)
                try:
                    item = next(self._inner)
                finally:
                    tracer.close(index)
                tracer.count(item_key)
                return item

        def wrapper(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if isinstance(result, Iterator):
                return _Traced(result)
            self.count(item_key, _sized(result))
            return result

        return wrapper

    def _push(self, fn):
        """IntervalFolder.push, traced only when called outside fold_intervals.

        Pushes made by ``fold_intervals`` are part of the fold's own time.
        """
        name_id = self._name_id("trace.push")
        fold_id = self._name_id("trace.fold")

        def push(folder, *args, **kwargs):
            if self.stack and self.name[self.stack[-1]] == fold_id:
                return fn(folder, *args, **kwargs)
            index = self.open(name_id)
            try:
                return fn(folder, *args, **kwargs)
            finally:
                self.close(index)
                self.count("trace.push_calls")

        return push

    def _wrappers(self, modules: dict) -> dict[str, object]:
        """Wrapper for each public function, keyed by its defining module.name."""
        count = self.count

        def generated(_args, _kwargs, result):
            records = result[0] if isinstance(result, tuple) else result
            count("profiles.snapshots_generated", _sized(records))

        def histogram(_args, _kwargs, _result):
            count("profiles.histograms_made")

        def emitted(_args, _kwargs, result):
            count("trace.records_emitted", result if isinstance(result, int) else 0)

        def classified(args, kwargs, verdict):
            count("threshold.classify_calls")
            if verdict.suspect:
                count("threshold.suspects")
                avg = args[0] if args else kwargs.get("avg")
                if _is_attack(getattr(avg, "worker_id", None)):
                    count("threshold.attack_suspects")

        def ks_classified(_args, _kwargs, verdict):
            count("ks.classify_calls")
            if verdict.suspect:
                count("ks.suspects")

        def ranked(_args, _kwargs, _result):
            count("ks.top_branches_calls")

        def calibrated(_args, _kwargs, _result):
            count("channel.calibrate_calls")

        def simulated(args, kwargs, _result):
            count("channel.readings_simulated", kwargs.get("size", args[3] if len(args) > 3 else 0))

        def stepped(_args, _kwargs, _result):
            count("fleet.step_calls")

        def fleet_ran(_args, _kwargs, report):
            count("fleet.isolations", report.isolated_total)
            count("fleet.attack_isolations", report.attack_workers_flagged)

        def commanded(_args, _kwargs, _result):
            count("cli.commands")

        specs = {
            "profiles.generate_benign": ("profiles.generate", generated),
            "profiles.generate_attack": ("profiles.generate", generated),
            "profiles.make_benign_histogram": ("profiles.histogram", histogram),
            "profiles.make_attack_histogram": ("profiles.histogram", histogram),
            "trace.emit_trace": ("trace.emit", emitted),
            "threshold.classify_threshold": ("threshold.classify", classified),
            "threshold.sweep_thresholds": ("threshold.sweep", None),
            "ks.classify_ks": ("ks.classify", ks_classified),
            "ks.top_branches": ("ks.top_branches", ranked),
            "channel.required_requests": ("channel.required_requests", None),
            "channel.calibrate_decision": ("channel.calibrate", calibrated),
            "channel.simulate_bit_batch": ("channel.simulate", simulated),
            "channel.box_test": ("channel.box_test", None),
            "fleet.run_fleet": ("fleet.run", fleet_ran),
            "fleet.step_fleet": ("fleet.step", stepped),
            "cli.main": ("cli.main", commanded),
        }
        wrappers = {}
        for qualified, (span, after) in specs.items():
            module, attr = qualified.split(".")
            fn = getattr(modules[module], attr, None)
            if fn is not None:
                wrappers[qualified] = (fn, self._call(span, fn, after))
        for qualified, span, key in (
            ("trace.ingest_trace", "trace.ingest", "trace.records_ingested"),
            ("trace.fold_intervals", "trace.fold", "trace.windows_folded"),
        ):
            module, attr = qualified.split(".")
            fn = getattr(modules[module], attr, None)
            if fn is not None:
                wrappers[qualified] = (fn, self._generator(span, fn, key))
        return wrappers

    def install(self) -> None:
        modules = {name: importlib.import_module(f"spectreguard.{name}") for name in MODULES}
        for fn, wrapper in self._wrappers(modules).values():
            for module in modules.values():
                for attr, value in vars(module).items():
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        folder = getattr(modules["trace"], "IntervalFolder", None)
        if folder is not None and "push" in vars(folder):
            self._patched.append((folder, "push", folder.push))
            folder.push = self._push(folder.push)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results ----------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span with its parent link, plus the span-name table."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: medians over traced jobs of per-job totals."""
        jobs = self.job_index + 1
        if jobs == 0:
            raise ValueError("no traced job")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=duration.size)
        own = {"incl": duration, "self": duration - children}

        metrics: dict[str, float] = {}
        for metric, span, mode in TIME_METRICS:
            if span in self._name_ids:
                rows = name == self._name_ids[span]
                per_job = np.bincount(job[rows], weights=own[mode][rows], minlength=jobs)
                metrics[metric] = float(np.median(per_job))
            else:
                metrics[metric] = 0.0
        for key in COUNT_METRICS:
            metrics[key] = float(statistics.median(c[key] for c in self.counts))
        for metric, numerator, denominator in RATIO_METRICS:
            den = sum(c[denominator] for c in self.counts)
            metrics[metric] = sum(c[numerator] for c in self.counts) / den if den else 0.0
        return metrics
