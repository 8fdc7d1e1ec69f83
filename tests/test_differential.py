"""Differential test of the engine against a reference interpreter.

``reference_step`` is the plainest loop that meets the engine's
contract: clear the last tick's pulses, evaluate every block in plan
order, latch every block, screen every port, advance the clock.  Random
graphs of the built-in blocks run once through :func:`batchsim.step` and
once through it, and the two runs must agree bit for bit at every tick
(McKeeman, "Differential Testing for Software", Digital Technical
Journal 1998).  Any faster step must keep passing this test unchanged.
"""

from __future__ import annotations

import math
import struct

from hypothesis import example, given, settings, strategies as st

from batchsim import (BatchHeaterPlant, Block, Constant, IntervalTimer,
                      Multiplier, NumericFault, PlantConfig, PulseTrain,
                      RangeScanner, ReportGenerator, ResettableIntegrator,
                      SimClock, Summator, UnitCosts, UnitDelay,
                      WearRateGenerator, build_graph, step)


def reference_step(graph, clock):
    """One tick by the engine's contract, with nothing fixed at build."""
    for out, port in graph._fired:
        out[port] = 0.0
    graph._fired.clear()
    blocks = [graph.block(name) for name in graph.evaluation_order()]
    for b in blocks:
        b.evaluate(clock)
    for b in blocks:
        b.latch()
    for b in blocks:
        for port, v in b.out.items():
            if not math.isfinite(v):
                raise NumericFault(b.name, port, clock.tick_index)
    clock.advance()
    return clock


class PulseEvery(Block):
    """A user block: pulses every ``period`` ticks from tick 0."""

    output_ports = ("OUT",)

    def __init__(self, name, period):
        super().__init__(name)
        self.period = period

    def evaluate(self, clock):
        if clock.tick_index % self.period == 0:
            self.pulse("OUT")


# Fill, heat and release take about three ticks each at dt 0.1 and
# control 1, so a short run sees many operations.
FAST_PLANT = PlantConfig(
    batch_volume=0.3, fill_rate=1.0, release_intensity=1.0,
    ambient_temp=20.0, setpoint=25.0, heat_capacity=50.0, loss_coeff=1.0,
    heater_nominal_power=1000.0, heater_efficiency=0.9,
    wear_t_nominal=100.0, wear_alpha=2.0,
    unit_costs=UnitCosts(raw=0.1, energy=1e-6, wear=2500.0, output=0.6))

SPECIAL = (math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, -1e308, 1.0,
           -1.0, 0.5, 2.0, 1e-300)

MAKERS = {
    "const": Constant,
    "pulse": PulseTrain,
    "every": PulseEvery,
    "delay": UnitDelay,
    "mult": Multiplier,
    "sum": lambda name, n: Summator(name, n_inputs=n),
    "integ": ResettableIntegrator,
    "timer": IntervalTimer,
    "scanner": lambda name, lo, n, step, direction, stop: RangeScanner(
        name, lo / 4, (lo + n * step) / 4, step / 4, direction, stop),
    "report": ReportGenerator,
    "plant": lambda name: BatchHeaterPlant(name, FAST_PLANT),
    "wear": lambda name, t_nominal, alpha: WearRateGenerator(
        name, 1000.0, t_nominal, alpha),
}

ARGS = {
    "const": st.tuples(st.one_of(st.sampled_from(SPECIAL),
                                 st.floats(-10.0, 10.0))),
    "every": st.tuples(st.integers(1, 7)),
    "sum": st.tuples(st.integers(1, 3)),
    "scanner": st.tuples(st.integers(-8, 8), st.integers(1, 4),
                         st.integers(1, 4), st.integers(0, 1),
                         st.booleans()),
    "wear": st.tuples(st.sampled_from([100.0, 1e-300]),
                      st.sampled_from([0.0, 2.0, 3.0, 1000.0])),
}


def make_blocks(kinds):
    return [MAKERS[kind](f"{kind}{i}", *args)
            for i, (kind, args) in enumerate(kinds)]


@st.composite
def graphs(draw):
    """(kinds, wires, order, ticks): blocks as (kind, args) pairs, wires
    as (src, src port, dst, dst port) with block indices, the order the
    blocks are listed in, and the ticks to run.  A non-delayed wire runs
    from a lower index to a higher one; a wire into a UnitDelay may come
    from any block, itself included, and so closes feedback loops."""
    kinds = draw(st.lists(
        st.sampled_from(sorted(MAKERS)).flatmap(
            lambda kind: st.tuples(st.just(kind), ARGS.get(kind, st.just(())))),
        min_size=1, max_size=9))
    probes = make_blocks(kinds)
    wires = []
    for dst, block in enumerate(probes):
        sources = range(len(probes)) if block.breaks_cycle else range(dst)
        choices = [(src, port) for src in sources
                   for port in probes[src].output_ports]
        for port in block.input_ports:
            if choices:
                wire = draw(st.one_of(st.none(), st.sampled_from(choices)))
                if wire is not None:
                    wires.append((*wire, dst, port))
    order = draw(st.permutations(range(len(kinds))))
    return kinds, wires, order, draw(st.integers(1, 60))


def _bits(values):
    return tuple(struct.pack("<d", v) for v in values)


def _state(graph):
    """Every port, the halt flag, the latched rows and the plant events,
    with each float as its bytes, so -0.0 and NaN compare exactly."""
    blocks = [graph.block(name) for name in graph.evaluation_order()]
    return (tuple((b.name, tuple(b.out), _bits(b.out.values()))
                  for b in blocks),
            graph.halt_flag,
            tuple(tuple(_bits(row)) for b in blocks
                  if isinstance(b, ReportGenerator) for row in b.rows),
            tuple(tuple(b.events) for b in blocks
                  if isinstance(b, BatchHeaterPlant)))


def run(spec, stepper):
    """The state after every tick, and how the run ended: None, or the
    error's type and message and, for a NumericFault, its block, port and
    tick."""
    kinds, wires, order, ticks = spec
    blocks = make_blocks(kinds)
    graph = build_graph([blocks[i] for i in order],
                        [(f"{blocks[s].name}.{sp}", f"{blocks[d].name}.{dp}")
                         for s, sp, d, dp in wires])
    clock = SimClock(dt=0.1)
    states = []
    try:
        for _ in range(ticks):
            stepper(graph, clock)
            states.append(_state(graph))
    except Exception as exc:  # any error is an outcome to compare
        ended = (type(exc), str(exc), getattr(exc, "block", None),
                 getattr(exc, "port", None), getattr(exc, "tick", None))
        states.append(_state(graph))
    else:
        ended = None
    return states, ended, clock.tick_index


# The sweep protocol on the fast plant: a start pulse and the delayed PTF
# strobe the scanner, which drives the plant; PTF latches a report row of
# the control, the operation's time and its integrated energy.
SWEEP_PROTOCOL = (
    [("pulse", ()), ("delay", ()), ("sum", (2,)),
     ("scanner", (2, 3, 2, 0, True)), ("plant", ()), ("timer", ()),
     ("integ", ()), ("report", ())],
    [(4, "PTF", 1, "IN"), (0, "OUT", 2, "IN1"), (1, "OUT", 2, "IN2"),
     (2, "OUT", 3, "STR"), (3, "OUT", 4, "CL"), (4, "RTB", 5, "STR"),
     (4, "PTF", 5, "FIN"), (4, "RP", 6, "IN"), (4, "RTB", 6, "RES"),
     (4, "PTF", 7, "STR"), (3, "OUT", 7, "IN1"), (5, "TIM", 7, "IN2"),
     (6, "OUT", 7, "IN3")],
    [7, 6, 5, 4, 3, 2, 1, 0], 60)


@settings(max_examples=300, deadline=None)
@given(graphs())
@example(SWEEP_PROTOCOL)
@example(([("pulse", ()), ("delay", ())], [(0, "OUT", 1, "IN")], [0, 1], 3))
@example(([("const", (1.0,)), ("const", (math.nan,)), ("mult", ())],
          [(0, "OUT", 2, "IN1"), (0, "OUT", 2, "IN2")], [2, 1, 0], 2))
@example(([("const", (1e308,)), ("const", (1.0,)), ("mult", ()),
           ("mult", ())],
          [(0, "OUT", 2, "IN1"), (1, "OUT", 2, "IN2"),
           (0, "OUT", 3, "IN1"), (1, "OUT", 3, "IN2")], [0, 1, 2, 3], 3))
def test_step_agrees_with_the_reference_interpreter(spec):
    assert run(spec, step) == run(spec, reference_step)


def test_sweep_protocol_example_runs_operations():
    # The fixed example above must exercise what it claims to: a boundary
    # halt and, with no error, one report row per operation.  The plant
    # keeps running at the last control after the halt flag is raised.
    states, ended, ticks = run(SWEEP_PROTOCOL, step)
    _, halted, rows, (events,) = states[-1]
    assert ended is None and ticks == 60 and halted
    assert len(rows) == [name for name, _ in events].count("ptf") == 6
