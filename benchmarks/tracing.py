"""In-memory spans around keymark's layers, installed from outside the package.

`Tracer.install()` replaces each public callable named in `TARGETS` at the
name its callers look it up by (a module global, or a method on a class) with
a wrapper that records one span per call: name, start, end, parent span and
the benchmark round it belongs to.  Leaving the context restores the
originals, so an untraced run executes the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

_TERMS = ("thot.terms", lambda decomposition: len(decomposition.terms))

# (module, attribute, span name, size counter or None).  A callable imported
# into several modules is wrapped in each of them under one span name.
TARGETS: tuple[tuple[str, str, str, tuple[str, Callable] | None], ...] = (
    ("keymark", "construct_a", "construct_a.construct_a", None),
    ("keymark", "construct_b", "construct_b.construct_b", None),
    ("keymark.construct_a", "split_px", "split.split_px", None),
    ("keymark.construct_a", "decompose_t_hot", "thot.decompose_t_hot", _TERMS),
    ("keymark.construct_b", "decompose_t_hot", "thot.decompose_t_hot", _TERMS),
    ("keymark.construct_a", "build_pm1", "construct_a.build_pm1", None),
    ("keymark.construct_b", "build_pm1", "construct_a.build_pm1", None),
    ("keymark.construct_a", "build_pm2", "construct_a.build_pm2", None),
    ("keymark.construct_a", "build_pm3", "construct_a.build_pm3", None),
    ("keymark.construct_a", "restore_token_order", "construct_a.restore_token_order", None),
    ("keymark.construct_b", "restore_token_order", "construct_a.restore_token_order", None),
    ("keymark.construct_a", "merge_tables", "core.merge_tables", None),
    ("keymark.construct_b", "extend_px", "construct_b.extend_px", None),
    ("keymark.core", "ReducedKeySet.key", "core.ReducedKeySet.key", None),
    ("keymark.core", "ReducedKeySet.index", "core.ReducedKeySet.index", None),
    ("keymark", "check_scheme", "metrics.check_scheme", None),
    ("keymark", "error_report", "metrics.error_report", None),
    ("keymark.metrics", "miss_detection", "metrics.miss_detection", None),
    ("keymark.sim", "miss_detection", "metrics.miss_detection", None),
    ("keymark.metrics", "worst_false_alarm", "metrics.worst_false_alarm", None),
    ("keymark", "serialize_scheme", "serialize.serialize_scheme", None),
    ("keymark", "deserialize_scheme", "serialize.deserialize_scheme", None),
    ("keymark.serialize", "parse_mass", "rationals.parse_mass", None),
    ("keymark.rationals", "parse_mass", "rationals.parse_mass", None),
    ("keymark", "monte_carlo", "sim.monte_carlo", None),
    ("keymark", "build_primal", "lp.build_primal", None),
    ("keymark", "solve", "lp.solve", None),
    ("keymark.lp", "simplex_solve", "simplex.simplex_solve", None),
    ("keymark", "check_dual", "lp.check_dual", None),
)


class Tracer:
    """Spans are tuples (name, start, end, parent index or -1, round)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.round = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, size: tuple[str, Callable] | None) -> Callable:
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent, self.round)
                stack.pop()
            if size is not None:
                self.counts[size[0]] += size[1](result)
            return result

        return traced

    @contextmanager
    def install(self) -> Iterator["Tracer"]:
        restore = []
        try:
            for module_name, attr, name, size in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                restore.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, size))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> tuple[dict[str, float], Counter[str]]:
        """Total self seconds and call count per span name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for (name, *_), own in zip(self.spans, self.self_times()):
            seconds[name] += own
            calls[name] += 1
        return seconds, calls

    def self_within(self, roots: set[str]) -> dict[str, float]:
        """Total self seconds per span name, over spans under a root name
        (roots included).  Parents always precede children in `spans`."""
        inside = [False] * len(self.spans)
        seconds: dict[str, float] = defaultdict(float)
        for i, ((name, _, _, parent, _), own) in enumerate(zip(self.spans, self.self_times())):
            inside[i] = name in roots or (parent >= 0 and inside[parent])
            if inside[i]:
                seconds[name] += own
        return seconds
