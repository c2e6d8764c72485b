"""Per-layer tracing of the dpmi package from outside it.

Each traced layer is a function that one dpmi module looks up by name in
another (``mi.rank_records`` calls ``prepare_records`` through the ``mi``
module's globals, for example). ``Tracer.install`` replaces every module-level
binding of such a function with a wrapper that records a span (name, start,
end, parent) and exact counts taken from the call's arguments and return
value. ``Tracer.uninstall`` puts the original functions back. Nothing under
``src/`` is changed.

Spans stay in memory until the run ends; ``write_spans`` then dumps them as
JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

MODULES = ("cli", "model", "dp", "aggregate", "mi", "evaluation")


def _size(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _prepare_counts(args, result):
    return {"rows_in": _size(args[0]), "rows_out": _size(result)}


def _release_counts(args, result):
    return {"cells_in": _size(args[0]), "cells_out": _size(result)}


def _accumulate_counts(args, result):
    return {"rows": result.row_count, "joint_cells": len(result.partial_joint)}


# (defining module, function name, counts from (positional args, return value)).
# ``model.validate_record`` runs once per input row inside ``cli.read_records``;
# wrapping it would cost more than the work it measures, so its time stays
# inside the read_records span.
TARGETS = (
    ("cli", "read_records", lambda a, r: {"rows_read": r[2], "rows_rejected": sum(r[1].values())}),
    ("cli", "write_results", lambda a, r: {"rows": _size(a[0])}),
    ("dp", "prepare_records", _prepare_counts),
    ("dp", "release_sums", _release_counts),
    ("aggregate", "accumulate", _accumulate_counts),
    ("aggregate", "release_aggregate_table", None),
    ("aggregate", "build_probability_tables", lambda a, r: {"pairs": _size(r)}),
    ("mi", "rank", lambda a, r: {"pairs": _size(r)}),
    ("mi", "rank_records", None),
    ("mi", "binary_rank", None),
    ("evaluation", "compare_rankings", None),
)

# Ratios of useful outcomes to attempts, each next to its base:
# name -> (numerator count, denominator count), both in the same layer.
RATIOS = {
    "kept_ratio": ("rows_out", "rows_in"),
    "released_ratio": ("cells_out", "cells_in"),
}


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    job: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the wrapped dpmi functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.job, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, original, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each target function in the dpmi modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module("dpmi")]
        modules += [importlib.import_module(f"dpmi.{m}") for m in MODULES]
        # A target that is gone raises AttributeError before anything is
        # wrapped, so a renamed layer fails the traced run instead of reading 0.
        originals = [getattr(importlib.import_module(f"dpmi.{module_name}"), func_name)
                     for module_name, func_name, _ in TARGETS]
        for (module_name, func_name, count), original in zip(TARGETS, originals):
            wrapper = self._wrap(f"{module_name}.{func_name}", original, count)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._restore.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._restore):
            setattr(module, func_name, original)
        self._restore = []

    # -- results -----------------------------------------------------------

    def job_stats(self, job: int) -> dict[str, dict[str, float]]:
        """Per-layer totals for one job: s, self_s, calls, counts and ratios.

        ``self_s`` is span time minus the time covered by direct child spans.
        The spans of one thread nest and never overlap, so the covered time is
        the sum of the children's durations.
        """
        spans = [s for s in self.spans if s.job == job]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent_id is not None:
                child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + (s.end - s.start)
        stats: dict[str, dict[str, float]] = {}
        for s in spans:
            layer = stats.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            duration = s.end - s.start
            layer["s"] += duration
            layer["self_s"] += duration - child_time.get(s.span_id, 0.0)
            layer["calls"] += 1
            for key, value in s.counts.items():
                layer[key] = layer.get(key, 0) + value
        for layer in stats.values():
            for ratio, (num, den) in RATIOS.items():
                if layer.get(den):
                    layer[ratio] = layer[num] / layer[den]
        return stats

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent_id,
                            "job": s.job,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "counts": s.counts,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
