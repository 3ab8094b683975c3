"""In-memory span tracer installed around ``repro``'s layer entry points.

The launcher (``launcher.py``) calls :func:`install` before it builds the
facade when a run is traced.  Each wrapped call records one span: its name,
start and end (monotonic ns), its own id, the id of the span that caused it
and the id of the HTTP request it serves.  Spans stay in memory and are
written to one ``.npz`` file when the server exits (or on ``SIGUSR1``, just
before the benchmark kills it).

Worker threads inherit the submitting thread's span as their parent: the
tracer wraps ``ThreadPoolExecutor.submit``, which the sharded engine uses for
its per-shard gathers.

:func:`self_times` turns the spans of one process into per-span-name self
time.  Every instant of the traced process's wall time is given to the spans
that are open and have no open child at that instant ("leaf" spans), split
evenly when several threads hold one, so the self times of all spans sum to
at most the wall time the spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# (layer span name, dotted owner, attribute).  Owners that are classes are
# wrapped on the class and on every subclass that overrides the attribute.
ENTRY_POINTS = [
    ("server", "repro.server.app._Handler", "_dispatch"),
    ("api.run", "repro.api.FairNN", "run"),
    ("api.mutate", "repro.api.FairNN", "insert_many"),
    ("api.mutate", "repro.api.FairNN", "delete"),
    ("api.checkpoint", "repro.api.FairNN", "checkpoint"),
    ("api.recover", "repro.api.FairNN", "recover"),
    ("engine", "repro.engine.batch.BatchQueryEngine", "run"),
    ("engine.sync", "repro.engine.batch.BatchQueryEngine", "_sync"),
    ("lsh.hash", "repro.lsh.tables.LSHTables", "query_keys_many"),
    ("lsh.hash", "repro.lsh.tables.LSHTables", "query_keys"),
    ("lsh.lookup", "repro.lsh.tables.LSHTables", "query_buckets"),
    ("lsh.lookup", "repro.lsh.tables.LSHTables", "colliding_view"),
    ("lsh.fit", "repro.lsh.tables.LSHTables", "fit"),
    ("gather.prefix", "repro.engine.gather", "bounded_shard_prefix"),
    ("gather.merge", "repro.engine.gather", "merge_prefix_parts"),
    ("core", "repro.core.base.NeighborSampler", "sample_*"),
    ("dynamic.sketch_sync", "repro.core.base.NeighborSampler", "notify_update"),
    ("distances.kernel", "repro.distances.base.Measure", "values_at"),
    ("store.gather", "repro.store.base.DatasetStore", "gather"),
    ("wal.append", "repro.engine.wal.WriteAheadLog", "append"),
    ("dynamic.insert", "repro.engine.dynamic.DynamicLSHTables", "insert_many"),
    ("dynamic.delete", "repro.engine.dynamic.DynamicLSHTables", "delete"),
    ("dynamic.compact", "repro.engine.dynamic.DynamicLSHTables", "compact"),
    ("snapshot.save", "repro.engine.snapshot", "save_engine"),
    ("snapshot.load", "repro.engine.snapshot", "load_engine"),
]


class Tracer:
    """Records spans from any thread; ``dump`` writes them as arrays."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self.names = []
        self._name_ids = {}
        # (name id, start ns, end ns, span id, parent id, request id, thread)
        self.spans = []
        # Counters read at layer boundaries (bytes gathered, WAL bytes).
        self.counters = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, function, after=None):
        """Return *function* wrapped in a span called *name*."""
        name_id = self.name_id(name)
        root = name == "server"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = 0, 0
            if root and not stack:
                request = next(self._requests)
            span_id = next(self._ids)
            stack.append((span_id, request))
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    (name_id, start, end, span_id, parent, request, threading.get_ident())
                )
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    def wrap_submit(self, submit):
        """Make pool workers run under the submitting thread's current span."""
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            context = stack[-1] if stack else None

            def run_in_context(*a, **kw):
                worker_stack = tracer._stack()
                saved = list(worker_stack)
                worker_stack[:] = [context] if context else []
                try:
                    return fn(*a, **kw)
                finally:
                    worker_stack[:] = saved

            return submit(pool, run_in_context, *args, **kwargs)

        return traced_submit

    def dump(self, path):
        """Write the spans recorded so far to *path* (an ``.npz`` file)."""
        spans = np.array(list(self.spans), dtype=np.int64).reshape(-1, 7)
        np.savez(
            path,
            spans=spans,
            names=np.array(self.names, dtype=str),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
        )


def _count_gathered_bytes(counters, args, result):
    parts = result if isinstance(result, tuple) else (result,)
    size = sum(int(getattr(part, "nbytes", 0)) for part in parts)
    counters["store.bytes_gathered"] = counters.get("store.bytes_gathered", 0) + size


def _read_wal_totals(counters, args, result):
    wal = args[0]
    counters["wal.appended_bytes"] = float(wal.appended_bytes)
    counters["wal.appended_records"] = float(wal.appended_records)


_AFTER = {"store.gather": _count_gathered_bytes, "wal.append": _read_wal_totals}


def _resolve(dotted):
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        return owner
    raise ImportError(dotted)


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in seen:
                seen.append(item)
    return seen


def install(tracer):
    """Wrap every entry point in :data:`ENTRY_POINTS`; return the count."""
    import sys

    import repro  # noqa: F401 - import the whole package so subclasses exist

    wrapped = 0
    for name, dotted, attr in ENTRY_POINTS:
        owner = _resolve(dotted)
        after = _AFTER.get(name)
        if inspect.ismodule(owner):
            original = getattr(owner, attr)
            replacement = tracer.wrap(name, original, after)
            # Modules that imported the function by name hold their own
            # reference; rebind those too.
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and getattr(
                    module, attr, None
                ) is original:
                    setattr(module, attr, replacement)
            wrapped += 1
            continue
        for cls in _subclasses(owner):
            for key, value in list(vars(cls).items()):
                matches = key == attr or (
                    attr.endswith("*") and key.startswith(attr[:-1])
                )
                if not matches or not callable(value) and not isinstance(value, classmethod):
                    continue
                if isinstance(value, classmethod):
                    setattr(cls, key, classmethod(tracer.wrap(name, value.__func__, after)))
                elif isinstance(value, staticmethod):
                    setattr(cls, key, staticmethod(tracer.wrap(name, value.__func__, after)))
                else:
                    setattr(cls, key, tracer.wrap(name, value, after))
                wrapped += 1
    ThreadPoolExecutor.submit = tracer.wrap_submit(ThreadPoolExecutor.submit)
    return wrapped


def load(path):
    """Read a dump back as ``(spans, names, counters)``."""
    with np.load(path) as data:
        counters = dict(zip(data["counter_names"].tolist(), data["counter_values"].tolist()))
        return data["spans"], data["names"].tolist(), counters


def self_times(spans, names):
    """Per-name self time (ms), inclusive time (ms), calls and busy wall (ms).

    The busy wall time is the time covered by at least one span.  A span's self time is
    the part of its interval during which it is open with no open child;
    instants held by several such spans (one per thread) are split evenly.
    """
    count = len(spans)
    self_ns = np.zeros(count)
    if count == 0:
        return {}, {}, {}, 0.0
    row_of = {int(span_id): row for row, span_id in enumerate(spans[:, 3])}
    parent_row = [row_of.get(int(parent), -1) for parent in spans[:, 4]]
    # Events: ends sort before starts at equal times; among starts, the
    # parent (lower id) opens first, among ends the child closes first.
    # Zero-length spans hold no time and are left out.
    timed = [row for row in range(count) if spans[row, 2] > spans[row, 1]]
    events = sorted(
        [(int(spans[row, 1]), 1, int(spans[row, 3]), row) for row in timed]
        + [(int(spans[row, 2]), 0, -int(spans[row, 3]), row) for row in timed]
    )
    if not events:
        events = [(0, 0, 0, 0)]
    open_rows = set()
    open_children = [0] * count
    leaves = set()
    wall = 0
    previous = events[0][0]
    for moment, is_start, _, row in events:
        elapsed = moment - previous
        if elapsed and leaves:
            share = elapsed / len(leaves)
            for leaf in leaves:
                self_ns[leaf] += share
            wall += elapsed
        previous = moment
        parent = parent_row[row]
        if is_start:
            open_rows.add(row)
            leaves.add(row)
            if parent in open_rows:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_rows.discard(row)
            leaves.discard(row)
            if parent in open_rows:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    # Inclusive time and calls count only the outermost span of a name, so
    # an override calling its base class is one call, not two.
    by_name_self, by_name_total, calls = {}, {}, {}
    durations = (spans[:, 2] - spans[:, 1]).astype(np.float64)
    for row in range(count):
        name_id = int(spans[row, 0])
        name = names[name_id]
        by_name_self[name] = by_name_self.get(name, 0.0) + self_ns[row] / 1e6
        parent = parent_row[row]
        if parent >= 0 and int(spans[parent, 0]) == name_id:
            continue
        by_name_total[name] = by_name_total.get(name, 0.0) + durations[row] / 1e6
        calls[name] = calls.get(name, 0) + 1
    return by_name_self, by_name_total, calls, wall / 1e6
