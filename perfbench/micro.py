"""One-block micro-benchmarks behind the per-class ns figures.

Each block class is built into a graph where Constant blocks drive its
inputs, and its bound ``evaluate`` is called in a tight loop with the
inputs of a quiet tick (strobes and resets low), the path nearly every
tick takes.  The plant instead runs whole fill/heat/release cycles of
the reference plant at k = 1, so its figure carries the real phase mix.
A figure is the median over repeats of ns per call, call overhead
included (the Constant figure is that overhead alone).

``kernel.dispatch_ns_per_block`` is the cost of one ``step`` over 22
Constant blocks (the size of the sweep graph), divided by 22.

A class or function a later change removed makes its metric absent
rather than failing the run.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import batchsim as bs

CALLS = 20_000
REPEATS = 7
DISPATCH_BLOCKS = 22
DISPATCH_TICKS = 2_000


def _per_call_ns(fn, arg, calls: int = CALLS) -> float:
    samples = []
    for _ in range(REPEATS):
        loop = itertools.repeat(arg, calls)
        start = perf_counter_ns()
        for a in loop:
            fn(a)
        samples.append((perf_counter_ns() - start) / calls)
    return median(samples)


def _evaluate_ns(block, inputs: dict[str, float], tick: int = 1) -> float:
    drivers = [bs.Constant(f"src_{port}", value)
               for port, value in inputs.items()]
    wires = [(f"src_{port}.OUT", f"{block.name}.{port}") for port in inputs]
    bs.build_graph(drivers + [block], wires)
    clock = bs.SimClock(0.1)
    clock.tick_index = tick
    return _per_call_ns(block.evaluate, clock)


def _cases(root: Path):
    plant_cfg, _ = bs.load_config(root / "configs" / "reference.ini")
    yield "blocks.Constant", lambda: _evaluate_ns(bs.Constant("b", 1.0), {})
    yield "blocks.Multiplier", lambda: _evaluate_ns(
        bs.Multiplier("b"), {"IN1": 2.0, "IN2": 3.0})
    yield "blocks.Summator", lambda: _evaluate_ns(
        bs.Summator("b", n_inputs=3), {"IN1": 1.0, "IN2": 2.0, "IN3": 3.0})
    yield "blocks.ResettableIntegrator", lambda: _evaluate_ns(
        bs.ResettableIntegrator("b"), {"IN": 1.0, "RES": 0.0})
    yield "blocks.IntervalTimer", lambda: _evaluate_ns(
        bs.IntervalTimer("b"), {"STR": 0.0, "FIN": 0.0})
    yield "blocks.RangeScanner", lambda: _evaluate_ns(
        bs.RangeScanner("b", 0.6, 3.0, 0.2), {"STR": 0.0})
    yield "blocks.ReportGenerator", lambda: _evaluate_ns(
        bs.ReportGenerator("b"),
        {"STR": 0.0, **{f"IN{i}": float(i) for i in range(1, 11)}})
    yield "blocks.UnitDelay", lambda: _evaluate_ns(
        bs.UnitDelay("b"), {"IN": 1.0})
    yield "blocks.PulseTrain", lambda: _evaluate_ns(bs.PulseTrain("b"), {})
    yield "plant.BatchHeaterPlant", lambda: _evaluate_ns(
        bs.BatchHeaterPlant("b", plant_cfg), {"CL": 1.0})
    yield "plant.WearRateGenerator", lambda: _evaluate_ns(
        bs.WearRateGenerator("b", plant_cfg.heater_nominal_power,
                             plant_cfg.wear_t_nominal, plant_cfg.wear_alpha),
        {"IN": 1.5 * plant_cfg.heater_nominal_power})
    yield "econ.OperationEvaluator", lambda: _evaluate_ns(
        bs.OperationEvaluator("b"),
        {"RE": 5.0, "PE": 6.0, "TO": 1000.0, "FIN": 0.0})


def dispatch_ns_per_block() -> float:
    graph = bs.build_graph(
        [bs.Constant(f"c{i}", 1.0) for i in range(DISPATCH_BLOCKS)], [])
    clock = bs.SimClock(0.1)
    step = bs.step
    return _per_call_ns(lambda c: step(graph, c), clock,
                        DISPATCH_TICKS) / DISPATCH_BLOCKS


def run_all(root: Path) -> dict[str, float]:
    """Per-class ns per evaluate; a figure that cannot be measured is
    left out."""
    values: dict[str, float] = {}
    try:
        values["kernel.dispatch_ns_per_block"] = dispatch_ns_per_block()
    except (AttributeError, TypeError):
        pass
    for name, measure in _cases(root):
        try:
            values[f"{name}.ns_per_evaluate"] = measure()
        except (AttributeError, TypeError, KeyError):
            pass
    return values
