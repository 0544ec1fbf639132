"""Spans and counters recorded around the calls into each qdims layer.

The package modules import names directly (``from .systems import
sample_measure``), so a wrapper only sees a call when it replaces the name
where the caller looks it up. ``SITES`` lists those lookup sites; patching
``qdims.systems.sample_measure`` alone would miss every call made through
``qdims.harness`` or ``qdims.cli``.

Spans stay in memory and are written out when the run ends. Every span of
one pipeline pass carries that pass's id, and the pass itself is the root
span, so its self time is the part of the pass no layer span covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
import weakref
from collections import Counter
from dataclasses import asdict, dataclass

ROOT_SPAN = "bench.pass"

# counters whose per-pass value must repeat exactly for a given seed
DETERMINISTIC_COUNTS = (
    "systems.sample_points",
    "singular.svd_matrices",
    "singular.svf_calls",
    "empirical.binnings",
    "codespace.cutset_words",
)


@dataclass
class Span:
    name: str
    pass_id: int
    span_id: int
    parent: int | None
    start: float
    end: float = math.nan


class Tracer:
    """In-memory span and counter store for one worker process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[Span] = []
        self._pass_id: int | None = None
        self._seen: dict[str, list[weakref.ref]] = {}

    def begin_pass(self, pass_id: int) -> None:
        if self._stack:
            raise RuntimeError("a pass is already open")
        self._pass_id = pass_id
        self.counts[pass_id] = Counter()
        self._open(ROOT_SPAN)

    def end_pass(self) -> Span:
        root = self._stack[0]
        while self._stack:
            self._close()
        self._pass_id = None
        self._seen.clear()
        return root

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name=name, pass_id=self._pass_id, span_id=len(self.spans),
                    parent=parent, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self) -> None:
        self._stack.pop().end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if self._pass_id is not None:
            self.counts[self._pass_id][name] += value

    def count_distinct(self, name: str, obj) -> None:
        """Count ``obj`` once per pass by identity, holding it only weakly."""
        if self._pass_id is not None:
            seen = self._seen.setdefault(name, [])
            if not any(ref() is obj for ref in seen):
                seen.append(weakref.ref(obj))
                self.counts[self._pass_id][name] += 1

    def count_max(self, name: str, value: float) -> None:
        if self._pass_id is not None:
            counts = self.counts[self._pass_id]
            counts[name] = max(counts[name], value)

    def wrap(self, fn, span_name: str | None, counter):
        """``fn`` with a span (if named) and a counter hook on its result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._pass_id is None:
                return fn(*args, **kwargs)
            if span_name is not None:
                self._open(span_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close()
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}},
                      fh)


# ---------------------------------------------------------------------------
# counters, computed from the wrapped call's arguments and return value
# ---------------------------------------------------------------------------


def _count_sample(tracer, args, kwargs, sample):
    system = args[0]
    count, depth = sample.meta["count"], sample.meta["depth"]
    d = sample.points.shape[1]
    computed = count * depth * 8  # int64 letters
    if system.kind != "similar" or system.has_rotations:
        computed += count * d * d * 8  # float64 matrix stack
    tracer.count("systems.sample_points", len(sample))
    tracer.count("systems.sample_bytes", computed)
    tracer.count_max("systems.sample_depth", depth)


def _count_separation(tracer, args, kwargs, report):
    profile = args[0].profile
    words, level_size = 0, 1
    for level in range(1, report.depth + 1):
        level_size *= profile.size(level)
        words += level_size
    tracer.count("systems.separation_words", words)


def _count_csv_write(tracer, args, kwargs, _):
    tracer.count("systems.csv_bytes", os.path.getsize(args[1]))


def _count_binning(tracer, args, kwargs, _):
    tracer.count("empirical.binnings", 1)
    tracer.count_distinct("empirical.binned_samples", args[1])


def _count_svd(tracer, args, kwargs, logs):
    tracer.count("singular.svd_matrices", math.prod(logs.shape[:-1]))


def _count_one_svd(tracer, args, kwargs, _):
    tracer.count("singular.svd_matrices", 1)


def _count_svf(tracer, args, kwargs, _):
    tracer.count("singular.svf_calls", 1)


def _count_solve(tracer, args, kwargs, _):
    tracer.count("theory.solves", 1)


def _count_cutset(tracer, args, kwargs, logs):
    tracer.count("codespace.cutset_words", len(logs[0]))


def _count_report(tracer, args, kwargs, report):
    tracer.count("harness.realizations", report.meta["realizations"])
    tracer.count("harness.rows", len(report.rows))


# (module, attribute path, span name or None for a counter only, counter)
SITES = (
    ("qdims.cli", "main", "cli.command", None),
    ("qdims.cli", "emit_report", "cli.emit", None),
    ("qdims.cli", "write_spectrum_csv", "cli.emit", None),
    ("qdims.cli", "write_fit_csv", "cli.emit", None),
    ("qdims.cli", "run_experiment", "harness.run", _count_report),
    ("qdims.cli", "sample_measure", "systems.sample", _count_sample),
    ("qdims.harness", "sample_measure", "systems.sample", _count_sample),
    ("qdims.cli", "check_separation", "systems.separation", _count_separation),
    ("qdims.harness", "check_separation", "systems.separation", _count_separation),
    ("qdims.cli", "save_sample_csv", "systems.csv_write", _count_csv_write),
    ("qdims.cli", "load_sample_csv", "systems.csv_read", None),
    ("qdims.cli", "estimate_dimension", "empirical.estimate", None),
    ("qdims.harness", "estimate_dimension", "empirical.estimate", None),
    ("qdims.empirical", "MeshAccumulator.from_sample", "empirical.bin", _count_binning),
    ("qdims.empirical", "MeshAccumulator.coarsen", "empirical.coarsen", None),
    ("qdims.empirical", "fit_dimension", "empirical.fit", None),
    ("qdims.cli", "theoretical_exponents", "theory.solve", _count_solve),
    ("qdims.harness", "theoretical_exponents", "theory.solve", _count_solve),
    ("qdims.theory", "cutset_dimension", "theory.solve", _count_solve),
    ("qdims.theory", "batched_log_singular_values", "singular.svd", _count_svd),
    ("qdims.systems", "singular_values", "singular.svd", _count_one_svd),
    # svf_log runs hundreds of times per solve on small arrays: count it,
    # but leave its time inside theory.solve rather than add a span per call
    ("qdims.theory", "svf_log", None, _count_svf),
    ("qdims.theory", "scale_cut_set_masses", "codespace.cutset", _count_cutset),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class installed:
    """Context manager that patches every site in ``SITES`` and restores it.

    A site that no longer exists is skipped and listed in ``missing``, so a
    refactor that moves a name leaves its metric at zero instead of breaking
    the traced run.
    """

    def __init__(self, tracer: Tracer, sites=SITES):
        self.tracer = tracer
        self.sites = sites
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for module, path, span_name, counter in self.sites:
                try:
                    owner, attr = _owner(module, path)
                    raw = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self.tracer.wrap(raw.__func__, span_name, counter))
                else:
                    patched = self.tracer.wrap(raw, span_name, counter)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# self times and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.span_id, ())]
        out[s.span_id] = (s.end - s.start) - _covered(inner)
    return out


LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name, _ in SITES if name is not None))
COUNT_METRICS = (
    "systems.sample_points",
    "systems.sample_depth",
    "systems.sample_bytes",
    "systems.separation_words",
    "systems.csv_bytes",
    "empirical.binnings",
    "singular.svd_matrices",
    "singular.svf_calls",
    "theory.solves",
    "codespace.cutset_words",
    "harness.realizations",
    "harness.rows",
)


def pass_layers(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self time per span name, plus counts."""
    out: dict[str, float] = {f"{name}_s": 0.0 for name in LAYER_SPANS}
    selfs = self_times(spans)
    for s in spans:
        key = "bench.unattributed_s" if s.name == ROOT_SPAN else f"{s.name}_s"
        out[key] = out.get(key, 0.0) + selfs[s.span_id]
        if s.name == ROOT_SPAN:
            out["trace.wall_s"] = s.end - s.start
    for name in COUNT_METRICS:
        out[name] = float(counts.get(name, 0))
    samples = counts.get("empirical.binned_samples", 0)
    out["empirical.binnings_per_sample"] = (
        counts.get("empirical.binnings", 0) / samples if samples else 0.0
    )
    solves = counts.get("theory.solves", 0)
    out["theory.svf_calls_per_solve"] = (
        counts.get("singular.svf_calls", 0) / solves if solves else 0.0
    )
    return out
