"""In-memory spans around the benchmark's own calls into optomech.

A span holds its name, start, end, parent span and run id, plus counters
set by the caller. The layer of a span is the first dotted part of its name
(``dynamics.integrate.newton_law`` belongs to ``dynamics``). Spans are kept
in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# Counters aggregated by maximum over the spans of a run; all others are summed.
MAX_COUNTERS = frozenset({"dynamics.energy_drift_rel"})


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` only hands out a
    scratch counter dict, so untraced passes run the same code."""

    def __init__(self) -> None:
        self.enabled = False
        self.run: int | None = None
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        rec = {
            "name": name,
            "run": self.run,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _run_metrics(spans: list[dict], ids: list[int]) -> dict[str, float]:
    """Metrics of one run: per span name its summed duration (``.busy_s``) and
    counters; per layer its busy time (union of its spans) and self time
    (busy time minus the part covered by child spans of other layers)."""
    out: dict[str, float] = {}
    by_layer: dict[str, list[int]] = {}
    for i in ids:
        rec = spans[i]
        key = rec["name"] + ".busy_s"
        out[key] = out.get(key, 0.0) + rec["end"] - rec["start"]
        for cname, value in rec["counts"].items():
            if cname in MAX_COUNTERS:
                out[cname] = max(out.get(cname, value), value)
            else:
                out[cname] = out.get(cname, 0) + value
        by_layer.setdefault(_layer(rec["name"]), []).append(i)
    for layer, members in by_layer.items():
        member_set = set(members)
        busy = _union_length([(spans[i]["start"], spans[i]["end"]) for i in members])
        children = [
            (spans[i]["start"], spans[i]["end"])
            for i in ids
            if spans[i]["parent"] in member_set and _layer(spans[i]["name"]) != layer
        ]
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.self_s"] = busy - _union_length(children)
    return out


def summarize(spans: list[dict]) -> dict[str, float]:
    """Median over traced runs of each run's metrics; a metric absent from a
    run counts as 0 there."""
    runs: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        runs.setdefault(rec["run"], []).append(i)
    per_run = [_run_metrics(spans, ids) for ids in runs.values()]
    names = set().union(*per_run) if per_run else set()
    return {n: statistics.median(m.get(n, 0) for m in per_run) for n in names}
