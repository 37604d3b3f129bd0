"""In-memory span recorder for traced runs of unitpack.

`install` wraps every public function of every unitpack module, in each
module that binds its name, so calls made through `from .x import f`
bindings are seen too.  Spans (name, start, end, parent) stay in memory
and are written once, when the traced process ends.  Nothing here
changes the program's results: a wrapper returns or raises exactly what
the wrapped function does.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import Counter

MODULES = ("unitpack", "unitpack.units", "unitpack.metadata",
           "unitpack.tabular", "unitpack.datapackage", "unitpack.collection",
           "unitpack.autotag", "unitpack.report", "unitpack.cli")

# Per-key, per-cell or per-path helpers: called so often that a span each
# would cost more than the work, so only their calls are counted and
# their time stays in the caller's self time.
COUNT_ONLY = {"autotag.path_matches", "metadata.normalize_key",
              "metadata.is_scalar", "metadata.canonical_scalar",
              "tabular.render_cell"}


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.used: int | None = None
        self.waits: list[tuple[int, int]] = []

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name_id, time.monotonic_ns(), 0, parent])
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self._stack.pop()

    def dump(self, path: str) -> None:
        record = {"run_id": self.run_id, "names": self.names,
                  "spans": self.spans, "counts": dict(self.counts),
                  "used": self.used, "waits": self.waits}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


# --- result hooks: counts taken at the boundary where the work happens ------

def _count_cells(rec, result, args):
    rec.counts["tabular.cells_typed"] += result.row_count * len(result.columns)


def _count_loaded(rec, result, args):
    rec.counts["collection.entries_loaded"] += len(result)


def _used(count):
    def hook(rec, result, args):
        rec.used = count(result, args)
    return hook


def _count_written(rec, result, args):
    rec.counts["report.files_written"] += len(result)
    for path in result:
        try:
            rec.counts["report.bytes_written"] += os.stat(path).st_size
        except OSError:
            pass


HOOKS = {
    "tabular.read_table": _count_cells,
    "collection.from_directory": _count_loaded,
    "collection.filter": _used(lambda result, args: len(result)),
    "collection.get": _used(lambda result, args: 1),
    "collection.describe": _used(lambda result, args: len(args[0])),
    "report.render_index": _used(lambda result, args: len(args[0])),
    "report.write_report": _count_written,
}


def _span_wrapper(rec: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, result, args)
        return result
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    key = f"{name}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def public_functions() -> dict[int, tuple[str, object, list]]:
    """id(function) -> (span name, function, modules binding it)."""
    found: dict[int, tuple[str, object, list]] = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for attr, value in vars(module).items():
            if attr.startswith("_") or not isinstance(value,
                                                      types.FunctionType):
                continue
            if not value.__module__.startswith("unitpack."):
                continue
            name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
            found.setdefault(id(value), (name, value, []))[2].append(
                (module, attr))
    return found


def install(rec: Recorder) -> None:
    """Wrap every public unitpack function in every module binding it."""
    for name, fn, bindings in public_functions().values():
        if name in COUNT_ONLY:
            wrapped = _count_wrapper(rec, name, fn)
        else:
            wrapped = _span_wrapper(rec, name, fn, HOOKS.get(name))
        for module, attr in bindings:
            setattr(module, attr, wrapped)


# --- analysis ----------------------------------------------------------------

def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_times(names: list[str], spans: list[list[int]]
               ) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it its child spans
    cover.  Inclusive time skips spans nested in a span of the same name,
    so recursion is not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name_id, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name_id, start, end, parent) in enumerate(spans):
        stats = out.setdefault(names[name_id],
                               {"calls": 0, "s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        covered = _covered(children.get(index, []), start, end)
        stats["self_s"] += (end - start - covered) / 1e9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            stats["s"] += (end - start) / 1e9
    return out


def idle_poll_busy_ms(waits: list[tuple[int, int]], lo_ns: int, hi_ns: int
                      ) -> tuple[float, int]:
    """Wall time the watcher spent outside its waits during [lo, hi],
    divided by the waits that began there; also returns that count."""
    inside = [(s, e) for s, e in waits if lo_ns <= s < hi_ns]
    if not inside:
        return 0.0, 0
    busy_ns = (hi_ns - lo_ns) - _covered(waits, lo_ns, hi_ns)
    return busy_ns / 1e6 / len(inside), len(inside)
