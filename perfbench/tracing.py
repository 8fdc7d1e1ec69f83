"""Spans and call counts recorded from outside the program.

Every run records coarse spans (sweep, query, load_config/parse_config,
build_graph, write_report, oracle_operation): name, start, end, parent
and one trace id per query or sweep, kept in memory and written out when
the run ends.  A traced run also wraps the per-tick calls (``step``,
``Block.read`` and each block class's ``evaluate``/``latch``) and
``run_until``/``find_extremum``, aggregating each name as a call count
plus self time instead of one span per call.

Each name is patched where its caller looks it up: ``batchsim.sweep``
imports ``build_graph``, ``run_until`` and ``find_extremum`` by name,
``run_until`` calls ``step`` through ``batchsim.kernel``, ``load_config``
calls ``parse_config`` through ``batchsim.config``, and blocks reach
``read``, ``evaluate`` and ``latch`` through their class.  A name that
no longer exists is listed in ``missing`` and left alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

import batchsim as bs


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr._next_id += 1
        self.id = tr._next_id
        self.parent = tr._open[-1] if tr._open else None
        tr._open.append(self.id)
        tr._child.append(0)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        tr = self.tracer
        took = end - self.start
        child = tr._child.pop()
        tr._child[-1] += took
        tr._open.pop()
        tr.spans.append({"id": self.id, "parent": self.parent,
                         "trace": tr.trace_id, "name": self.name,
                         "start_ns": self.start, "end_ns": end,
                         "self_ns": took - child})
        return False


def _layer(cls: type) -> str:
    return cls.__module__.rpartition(".")[2]


def block_classes() -> list[type]:
    """Block subclasses the package exports."""
    return sorted((obj for obj in vars(bs).values()
                   if isinstance(obj, type) and issubclass(obj, bs.Block)
                   and obj is not bs.Block), key=lambda c: c.__name__)


def evaluate_names() -> list[str]:
    """Aggregate names of every exported block class's ``evaluate``."""
    return [f"{_layer(cls)}.{cls.__name__}.evaluate"
            for cls in block_classes()]


class Tracer:
    """Span recorder and call aggregator for one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, list[int]] = {}   # name -> [calls, self ns]
        self.trace_id: str | None = None
        self.missing: list[str] = []
        self._next_id = 0
        self._open: list[int] = []
        self._child: list[int] = [0]   # time of finished children, per level
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- wrappers -------------------------------------------------------

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        rec = self.calls.setdefault(name, [0, 0])
        child = self._child

        def wrapper(*args, **kwargs):
            child.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                rec[0] += 1
                rec[1] += took - child.pop()
                child[-1] += took
        return wrapper

    def _counted_noop(self, fn):
        """Base ``Block.evaluate``: counted per concrete class."""
        total = self.calls.setdefault("kernel.noop_evaluate", [0, 0])
        by_type: dict[type, list[int]] = {}
        calls = self.calls
        child = self._child

        def wrapper(block, *args, **kwargs):
            child.append(0)
            start = perf_counter_ns()
            try:
                return fn(block, *args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                own = took - child.pop()
                cls = type(block)
                rec = by_type.get(cls)
                if rec is None:
                    rec = calls.setdefault(
                        f"{_layer(cls)}.{cls.__name__}.evaluate", [0, 0])
                    by_type[cls] = rec
                rec[0] += 1
                rec[1] += own
                total[0] += 1
                total[1] += own
                child[-1] += took
        return wrapper

    def _patch(self, owner, attr: str, label: str, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- install / remove -------------------------------------------------

    def install(self, per_tick: bool) -> None:
        """Patch the coarse boundaries; with ``per_tick`` also the calls
        made every tick."""
        self._patch(bs.sweep, "build_graph", "build_graph",
                    lambda fn: self._spanned("build_graph", fn))
        if not per_tick:
            return
        self._patch(bs.sweep, "run_until", "run_until",
                    lambda fn: self._spanned("run_until", fn))
        self._patch(bs.sweep, "find_extremum", "find_extremum",
                    lambda fn: self._spanned("find_extremum", fn))
        self._patch(bs.config, "parse_config", "parse_config",
                    lambda fn: self._spanned("parse_config", fn))
        self._patch(bs.kernel, "step", "kernel.step",
                    lambda fn: self._counted("kernel.step", fn))
        self._patch(bs.Block, "read", "kernel.read",
                    lambda fn: self._counted("kernel.read", fn))
        self._patch(bs.Block, "evaluate", "kernel.noop_evaluate",
                    self._counted_noop)
        for cls in block_classes():
            for method in ("evaluate", "latch"):
                if method in cls.__dict__:
                    name = f"{_layer(cls)}.{cls.__name__}.{method}"
                    self._patch(cls, method, name,
                                lambda fn, n=name: self._counted(n, fn))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def span_us(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e3
                for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for name, (calls, self_ns) in sorted(self.calls.items()):
                handle.write(json.dumps({"aggregate": name, "calls": calls,
                                         "self_ns": self_ns}) + "\n")
