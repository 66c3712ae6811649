"""Spans around the program's public functions, installed at run time.

A span records a name, a start, an end, its parent span and any counts noted
on it. Spans are kept in memory and written out when the run ends. Wrappers
replace a function in every loaded `nbsopt` module that holds a reference to
it, so calls through `from .model import build_model` are seen as well; no
source file of the program is edited.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "notes": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(record, result, args)` runs once it closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                after(record, result, args)
            return result

        return traced

    def install(self, module, attr: str, name: str, after=None) -> None:
        """Route every `nbsopt` module's reference to `module.attr` through a span."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        holders = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "nbsopt"]
        for holder in holders + [module]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def per_root(self, name: str) -> list[dict[str, float]]:
        """For each root span called `name`: self seconds per layer plus notes, summed."""
        own = self.self_times()
        owner: list[int | None] = []
        for k, s in enumerate(self.spans):
            parent = s["parent"]
            owner.append(k if parent is None else owner[parent])
        rows = {k: {} for k, s in enumerate(self.spans) if s["name"] == name and s["parent"] is None}
        for k, s in enumerate(self.spans):
            row = rows.get(owner[k])
            if row is None or k == owner[k]:
                continue
            key = s["name"] + "_s"
            row[key] = row.get(key, 0.0) + own[k]
            for note, value in s["notes"].items():
                row[note] = row.get(note, 0) + value
        return list(rows.values())

    def call_self_times(self, name: str) -> list[float]:
        own = self.self_times()
        return [own[k] for k, s in enumerate(self.spans) if s["name"] == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
