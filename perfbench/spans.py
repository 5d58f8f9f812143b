"""In-memory spans around the calls into each rankone layer.

A :class:`Tracer` replaces layer functions with recording wrappers at the
names their callers look up: module globals of ``construction``, ``series``
and ``weaktop`` (so ``scan_limits`` reaching ``corr`` goes through the
wrapper) and attributes of the ``LevelOccupancy`` class.  Wrappers are
installed only while a :meth:`Tracer.region` is open, so untraced passes
run the library untouched.

A span is ``(name, start, end, parent, run_id)``; ``parent`` indexes the
span list, -1 for a region root.  A layer's self time is its span duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from rankone import construction, series, weaktop
from rankone.construction import LevelOccupancy

# (owner, attribute) pairs wrapped as spans; the span name is the attribute.
SPAN_TARGETS = (
    (construction, "gen_p_construction"),
    (construction, "verify_frequencies"),
    (construction, "expand_occupancy"),
    (series, "enumerate_semigroup"),
    (series, "convolve"),
    (weaktop, "convolve"),
    (weaktop, "corr"),
    (weaktop, "scan_limits"),
    (weaktop, "weak_discrepancy"),
    (weaktop, "hadic_decompose"),
    (weaktop, "sample_gap_shifts"),
    (weaktop, "excision_factor"),
    (weaktop, "predicted_element"),
    (LevelOccupancy, "warm_shift_window"),
    (LevelOccupancy, "_count_pairs"),
)


class Tracer:
    """Spans and counters for one measured pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self.pair_k: list[int] = []          # one entry per _count_pairs span
        self.reads: set[int] = set()         # offsets asked of pair_shift_count
        self.warmed: set[int] = set()        # offsets some warm pass computed
        self.warm_offsets = 0                # offsets computed, repeats counted
        self.warm_starts = 0                 # copy starts scanned by warm passes

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _note_warm(self, occ, center, radius) -> None:
        # mirrors the work warm_shift_window does on the int64 path
        if not occ.uses_int64 or radius < 0:
            return
        lo, hi = int(center) - radius, int(center) + radius
        self.warm_offsets += 2 * radius + 1
        self.warmed.update(range(lo, hi + 1))
        if not (lo > occ.window or hi < -occ.window):
            self.warm_starts += occ.n_copies

    def _install(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in SPAN_TARGETS]
        for owner, attr, fn in saved:
            setattr(owner, attr, self._span_wrapper(attr, fn))

        warm = LevelOccupancy.warm_shift_window
        count = LevelOccupancy._count_pairs
        read = LevelOccupancy.pair_shift_count
        saved.append((LevelOccupancy, "pair_shift_count", read))

        def warm_shift_window(occ, center, radius):
            self._note_warm(occ, center, radius)
            return warm(occ, center, radius)

        def _count_pairs(occ, k):
            self.pair_k.append(k)
            return count(occ, k)

        def pair_shift_count(occ, k):
            self.reads.add(k)
            return read(occ, k)

        LevelOccupancy.warm_shift_window = warm_shift_window
        LevelOccupancy._count_pairs = _count_pairs
        LevelOccupancy.pair_shift_count = pair_shift_count

        def restore():
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
        return restore

    @contextmanager
    def region(self, name: str):
        """Trace every layer call made inside the block under a root span."""
        restore = self._install()
        try:
            idx = self._open(name)
            try:
                yield
            finally:
                self._close(idx)
        finally:
            restore()

    # -- analysis -----------------------------------------------------------

    def _children_time(self) -> list[float]:
        kids = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                kids[parent] += t1 - t0
        return kids

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        kids = self._children_time()
        out: dict[str, dict[str, float]] = {}
        for (name, t0, t1, _), child in zip(self.spans, kids):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child
        return out

    def root(self, name: str) -> tuple[float, float]:
        """(duration, self time) of the region root called ``name``."""
        kids = self._children_time()
        for (n, t0, t1, parent), child in zip(self.spans, kids):
            if n == name and parent == -1:
                return t1 - t0, t1 - t0 - child
        raise KeyError(name)

    def pair_durations_ms(self) -> list[float]:
        return [(t1 - t0) * 1e3 for name, t0, t1, _ in self.spans
                if name == "_count_pairs"]

    def useful_warm_ratio(self) -> float:
        if not self.warm_offsets:
            return 0.0
        return len((self.reads & self.warmed) - {0}) / self.warm_offsets

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, self.run_id]) + "\n")


def quantile(values: list[float], q: float) -> float:
    """Inclusive quantile of ``values`` at ``q`` in (0, 1); 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
