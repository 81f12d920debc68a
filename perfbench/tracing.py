"""Spans around the public entry points of each layer, recorded from outside.

:class:`Tracer` replaces each probed function with a wrapper that records a
span (name, start, end, parent, job id and a few counts taken from the
arguments or the result) and restores every original on :meth:`restore`.
Nothing under ``src/`` knows about it: a module-level function is swapped in
every loaded ``repro`` module that imported it by name, a method on its
class.  Spans stay in memory; the job process writes them out at exit.

Only the main thread of the process that installed the tracer records.
Forked pool workers inherit the wrappers, which then just call through, so
per-layer figures describe the coordinator — the blocking path of a job.

:func:`layer_metrics` turns the spans of one job into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any


def _file_bytes(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _count_read(args, kwargs, result) -> dict:
    return {"bytes": _file_bytes(args[0])}


def _count_split(args, kwargs, result) -> dict:
    return {
        "sequences": len(result),
        "instances": sum(len(sequence.instances) for sequence in result),
    }


def _count_nmi(args, kwargs, result) -> dict:
    return {"pairs": len(result)}


def _count_backend(args, kwargs, result) -> dict:
    context, candidates = args[1], args[2]
    stats = result.stats
    return {
        "level": context.level,
        "candidates": len(candidates),
        "shard_max_s": stats.level_seconds.get(context.level, 0.0),
        "relation_checks": sum(stats.relation_checks.values()),
        "patterns": sum(len(node.patterns) for node in result.nodes),
        "retries": sum(stats.shard_retries.values()),
        "splits": sum(stats.shard_splits.values()),
        "warnings": len(stats.warnings),
    }


def _count_kernel(args, kwargs, result) -> dict:
    return {"pairs": len(args[0])}


def _count_shm(args, kwargs, result) -> dict:
    return {"bytes": len(args[0].blob)}


#: (module, attribute, span name, counter).  ``attribute`` is ``Class.method``
#: for methods.  Each is a public entry point of one layer.
PROBES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.io.csv_io", "read_time_series_csv", "csv_io.read", _count_read),
    ("repro.timeseries.symbolization", "symbolize_set", "timeseries.symbolize", None),
    ("repro.timeseries.segmentation", "split_into_sequences", "timeseries.split", _count_split),
    ("repro.core.correlation", "pairwise_nmi", "correlation.nmi", _count_nmi),
    ("repro.core.session", "MiningSession.mine", "session.mine", None),
    ("repro.core.session", "MiningSession.append", "session.append", None),
    ("repro.core.engine", "SerialBackend.run", "engine.run", _count_backend),
    ("repro.core.engine", "ProcessPoolBackend.run", "engine.run", _count_backend),
    ("repro.core.relation_kernel", "classify_pairs", "relation_kernel.classify", _count_kernel),
    ("repro.core.shm", "load_shared", "shm.load", _count_shm),
    ("repro.io.patterns_io", "write_patterns_json", "patterns_io.write", None),
    ("repro.io.session_io", "read_session", "session_io.read", None),
    ("repro.io.session_io", "write_session", "session_io.write", None),
)


class Tracer:
    """In-memory span recorder that patches the :data:`PROBES`."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def call(self, name: str, func: Callable, *args, counter=None, **kwargs):
        """Run ``func(*args, **kwargs)`` inside a span called ``name``."""
        if not self._recording():
            return func(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        counts = counter(args, kwargs, result) if counter is not None else {}
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "job": self.job_id,
                "counts": counts,
            }
        )
        return result

    def _wrap(self, name: str, func: Callable, counter) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, *args, counter=counter, **kwargs)

        return traced

    def install(self) -> None:
        """Swap every probed function for its traced wrapper."""
        for module_name, attribute, name, counter in PROBES:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patched.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original, counter))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, counter)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patched.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def restore(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


# --------------------------------------------------------------------------- derivation
def self_times(spans: list[dict]) -> dict[tuple, float]:
    """(job, span id) -> duration minus the time its child spans cover."""
    own = {(span["job"], span["id"]): span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[(span["job"], span["parent"])] -= span["end"] - span["start"]
    return own


def _ancestor_names(spans: list[dict]) -> dict[tuple, set[str]]:
    """(job, span id) -> names of every span enclosing it."""
    by_key = {(span["job"], span["id"]): span for span in spans}
    names: dict[tuple, set[str]] = {}
    for key, span in by_key.items():
        enclosing: set[str] = set()
        parent = span["parent"]
        while parent is not None:
            outer = by_key[(span["job"], parent)]
            enclosing.add(outer["name"])
            parent = outer["parent"]
        names[key] = enclosing
    return names


def append_candidates(spans: list[dict]) -> int:
    """Candidates the engine evaluated inside ``session.append`` spans."""
    enclosing = _ancestor_names(spans)
    return sum(
        span["counts"]["candidates"]
        for span in spans
        if span["name"] == "engine.run"
        and "session.append" in enclosing[(span["job"], span["id"])]
    )


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one job from the spans of all its invocations.

    Times are seconds summed over the job and counts are totals, except
    ``session.append_s``, the median append.  Every invocation has its own
    ``job`` id, so span ids are unique per (job, id).
    """
    enclosing = _ancestor_names(spans)

    def total(name: str, key: str | None = None, where=lambda span: True) -> float:
        return math.fsum(
            (span["counts"][key] if key else span["end"] - span["start"])
            for span in spans
            if span["name"] == name and where(span)
        )

    def inside(name: str):
        return lambda span: name in enclosing[(span["job"], span["id"])]

    def level(test):
        return lambda span: test(span["counts"]["level"])

    l2, lk = level(lambda n: n == 2), level(lambda n: n > 2)
    appends = [span for span in spans if span["name"] == "session.append"]
    candidates = total("engine.run", "candidates")
    kernel_calls = sum(1 for span in spans if span["name"] == "relation_kernel.classify")
    kernel_pairs = total("relation_kernel.classify", "pairs")
    lk_run = total("engine.run", where=lk)
    lk_shard = total("engine.run", "shard_max_s", where=lk)

    def in_session(span: dict) -> bool:
        return inside("session.mine")(span) or inside("session.append")(span)

    return {
        "csv_io.read_s": total("csv_io.read"),
        "csv_io.input_mb": total("csv_io.read", "bytes") / 1e6,
        "timeseries.symbolize_s": total("timeseries.symbolize"),
        "timeseries.split_s": total("timeseries.split"),
        "timeseries.sequences": total("timeseries.split", "sequences"),
        "timeseries.instances": total("timeseries.split", "instances"),
        "correlation.nmi_s": total("correlation.nmi"),
        "correlation.series_pairs": total("correlation.nmi", "pairs"),
        "session.mine_s": total("session.mine"),
        "session.append_s": _median([span["end"] - span["start"] for span in appends]),
        "session.self_s": total("session.mine")
        + total("session.append")
        - total("engine.run", where=in_session),
        "engine.l2.run_s": total("engine.run", where=l2),
        "engine.l2.candidates": total("engine.run", "candidates", where=l2),
        "engine.lk.run_s": lk_run,
        "engine.lk.candidates": total("engine.run", "candidates", where=lk),
        "engine.lk.shard_max_s": lk_shard,
        "engine.lk.wait_s": lk_run - lk_shard,
        "engine.relation_checks": total("engine.run", "relation_checks"),
        "engine.patterns_per_candidate": (
            total("engine.run", "patterns") / candidates if candidates else 0.0
        ),
        "engine.shard_retries": total("engine.run", "retries"),
        "engine.shard_splits": total("engine.run", "splits"),
        "engine.warnings": total("engine.run", "warnings"),
        "relation_kernel.calls": float(kernel_calls),
        "relation_kernel.pairs": kernel_pairs,
        "relation_kernel.s": total("relation_kernel.classify"),
        "relation_kernel.pairs_per_call": kernel_pairs / kernel_calls if kernel_calls else 0.0,
        "shm.responses": float(sum(1 for span in spans if span["name"] == "shm.load")),
        "shm.blob_bytes": total("shm.load", "bytes"),
        "shm.load_s": total("shm.load"),
        "patterns_io.write_s": total("patterns_io.write"),
        "session_io.read_s": total("session_io.read"),
        "session_io.write_s": total("session_io.write"),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
