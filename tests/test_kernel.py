"""Engine semantics: graph validation, tick evaluation, pulse contract,
halt handling and determinism."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from batchsim import (AlgebraicLoop, Block, Constant, Multiplier,
                      MultipleDrivers, NumericFault, PulseTrain,
                      ResettableIntegrator, SimClock, SimulationError,
                      Summator, TickBudgetExceeded, UnitDelay, UnknownPort,
                      build_graph, run_until, step)


class PulseAt(Block):
    """Test helper: emits a single pulse at a chosen tick."""

    output_ports = ("OUT",)

    def __init__(self, name, tick):
        super().__init__(name)
        self.tick = tick

    def evaluate(self, clock):
        if clock.tick_index == self.tick:
            self.pulse("OUT")


class NanAt(Block):
    """Test helper: outputs NaN at a chosen tick."""

    output_ports = ("OUT",)

    def __init__(self, name, tick):
        super().__init__(name)
        self.tick = tick

    def evaluate(self, clock):
        self.out["OUT"] = math.nan if clock.tick_index == self.tick else 0.0


def test_two_node_chain_builds_and_orders():
    blocks = [Constant("constant", 2.0), ResettableIntegrator("integrator")]
    graph = build_graph(blocks, [("constant.OUT", "integrator.IN")])
    assert graph.evaluation_order() == ["constant", "integrator"]


def test_cycle_without_delay_is_algebraic_loop():
    blocks = [Multiplier("a"), Multiplier("b")]
    wires = [("a.OUT", "b.IN1"), ("b.OUT", "a.IN1")]
    with pytest.raises(AlgebraicLoop):
        build_graph(blocks, wires)


def test_cycle_with_unit_delay_is_accepted():
    blocks = [Summator("a"), UnitDelay("d")]
    wires = [("a.OUT", "d.IN"), ("d.OUT", "a.IN1")]
    graph = build_graph(blocks, wires)
    assert set(graph.evaluation_order()) == {"a", "d"}


def test_two_drivers_into_one_input_rejected():
    blocks = [Constant("c1", 1.0), Constant("c2", 2.0),
              ResettableIntegrator("integrator")]
    wires = [("c1.OUT", "integrator.IN"), ("c2.OUT", "integrator.IN")]
    with pytest.raises(MultipleDrivers):
        build_graph(blocks, wires)


def test_unknown_port_rejected():
    blocks = [Constant("c", 1.0), ResettableIntegrator("integrator")]
    with pytest.raises(UnknownPort):
        build_graph(blocks, [("c.NOPE", "integrator.IN")])
    with pytest.raises(UnknownPort):
        build_graph(blocks, [("c.OUT", "missing.IN")])


def test_integrator_of_constant_one_over_one_second():
    blocks = [Constant("c", 1.0), ResettableIntegrator("integrator")]
    graph = build_graph(blocks, [("c.OUT", "integrator.IN")])
    clock = SimClock(dt=0.1)
    for _ in range(10):
        step(graph, clock)
    assert abs(graph.value("integrator.OUT") - 1.0) <= 1e-12


def test_pulse_is_one_for_exactly_one_tick():
    blocks = [PulseAt("p", 3), Summator("s", n_inputs=1)]
    graph = build_graph(blocks, [("p.OUT", "s.IN1")])
    clock = SimClock(dt=0.1)
    seen = []
    for _ in range(6):
        step(graph, clock)
        seen.append(graph.value("s.OUT"))
    # Downstream observes the pulse on the emitting tick and zero after.
    assert seen == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def test_unit_delay_shifts_by_one_tick():
    blocks = [PulseAt("p", 2), UnitDelay("d")]
    graph = build_graph(blocks, [("p.OUT", "d.IN")])
    clock = SimClock(dt=0.1)
    seen = []
    for _ in range(5):
        step(graph, clock)
        seen.append(graph.value("d.OUT"))
    assert seen == [0.0, 0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("blocks, wires, fault", [
    ([NanAt("bad", 4), Summator("s", n_inputs=1)], [("bad.OUT", "s.IN1")],
     ("bad", "OUT", 4)),
    ([Constant("c", math.nan)], [], ("c", "OUT", 0)),
    ([Constant("a", 1e200), Constant("b", 1e200), Multiplier("m")],
     [("a.OUT", "m.IN1"), ("b.OUT", "m.IN2")], ("m", "OUT", 0)),
    # Every port is finite though their sum overflows: the screen checks
    # each port on its own, never a sum of them.
    ([Constant("big", 1e308), Constant("one", 1.0), Multiplier("m1"),
      Multiplier("m2")],
     [("big.OUT", "m1.IN1"), ("one.OUT", "m1.IN2"),
      ("big.OUT", "m2.IN1"), ("one.OUT", "m2.IN2")], None),
], ids=["nan_at_tick_4", "nan_constant", "overflowing_product",
        "finite_ports_with_overflowing_sum"])
def test_numeric_fault_names_block_and_tick(blocks, wires, fault):
    graph = build_graph(blocks, wires)
    clock = SimClock(dt=0.1)
    if fault is None:
        for _ in range(3):
            step(graph, clock)
        assert clock.tick_index == 3
        return
    with pytest.raises(NumericFault) as excinfo:
        for _ in range(10):
            step(graph, clock)
    exc = excinfo.value
    assert (exc.block, exc.port, exc.tick) == fault


def test_run_until_predicate_stop():
    blocks = [Constant("c", 1.0), ResettableIntegrator("integrator")]
    graph = build_graph(blocks, [("c.OUT", "integrator.IN")])
    clock = SimClock(dt=0.1)
    run_until(graph, clock,
              lambda g, c: g.value("integrator.OUT") >= 5.0,
              tick_budget=10_000)
    assert abs(clock.t - 5.0) <= 0.1 + 1e-12


def test_run_until_budget_exhaustion():
    blocks = [Constant("c", 0.0)]
    graph = build_graph(blocks, [])
    clock = SimClock(dt=0.1)
    with pytest.raises(TickBudgetExceeded) as excinfo:
        run_until(graph, clock, lambda g, c: False, tick_budget=1000)
    assert excinfo.value.tick == 1000


def test_run_until_stops_on_halt_even_if_predicate_false():
    class HaltAt(Block):
        output_ports = ("OUT",)

        def __init__(self, name, tick):
            super().__init__(name)
            self.tick = tick

        def evaluate(self, clock):
            if clock.tick_index == self.tick:
                self.request_halt()

    graph = build_graph([HaltAt("h", 7)], [])
    clock = SimClock(dt=0.1)
    run_until(graph, clock, lambda g, c: False, tick_budget=1000)
    assert graph.halt_flag
    assert clock.tick_index == 8  # tick 7 completed, then the run stopped


def test_unconnected_input_reads_zero():
    graph = build_graph([Summator("s", n_inputs=2)], [])
    clock = SimClock(dt=0.1)
    step(graph, clock)
    assert graph.value("s.OUT") == 0.0


def test_time_exactness_no_drift():
    clock = SimClock(dt=0.1)
    for k in range(1, 100_001):
        clock.advance()
        assert clock.t == k * 0.1  # bit-exact by construction


@given(st.floats(min_value=1e-6, max_value=10.0,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=5000))
def test_time_exactness_property(dt, n):
    clock = SimClock(dt=dt)
    for _ in range(n):
        clock.advance()
    assert clock.t == n * dt


def _diamond_blocks():
    return [
        Constant("c", 1.5),
        Multiplier("left"),
        ResettableIntegrator("right"),
        Summator("join", n_inputs=2),
    ]


_DIAMOND_WIRES = [
    ("c.OUT", "left.IN1"), ("c.OUT", "left.IN2"),
    ("c.OUT", "right.IN"),
    ("left.OUT", "join.IN1"), ("right.OUT", "join.IN2"),
]


def _trace(block_order):
    graph = build_graph(block_order, _DIAMOND_WIRES)
    clock = SimClock(dt=0.1)
    trace = []
    for _ in range(25):
        step(graph, clock)
        trace.append(tuple(graph.value(f"{b}.OUT")
                           for b in ("c", "left", "right", "join")))
    return trace


def test_insertion_order_does_not_change_traces():
    reference = _trace(_diamond_blocks())
    for perm in itertools.permutations(range(4)):
        blocks = _diamond_blocks()
        assert _trace([blocks[i] for i in perm]) == reference


def test_identical_runs_are_bit_identical():
    def one_run():
        blocks = [PulseTrain("p", start=0, period=3),
                  ResettableIntegrator("i"), Summator("s", n_inputs=1)]
        graph = build_graph(blocks, [("p.OUT", "i.IN"), ("i.OUT", "s.IN1")])
        clock = SimClock(dt=0.1)
        trace = []
        for _ in range(100):
            step(graph, clock)
            trace.append((graph.value("p.OUT"), graph.value("i.OUT"),
                          graph.value("s.OUT")))
        return trace

    assert one_run() == one_run()


def test_rebuild_leaves_no_stale_wiring():
    # A block already in a graph is refused by name.
    m = Multiplier("m")
    build_graph([Constant("c", 3.0), m], [("c.OUT", "m.IN1"),
                                          ("c.OUT", "m.IN2")])
    with pytest.raises(SimulationError, match="'m' already belongs"):
        build_graph([m], [])
    # A refused build binds no inputs: the retry sees only its own wires.
    a, b, s = Constant("a", 2.0), Constant("b", 5.0), Summator("s", n_inputs=2)
    with pytest.raises(MultipleDrivers):
        build_graph([a, b, s], [("a.OUT", "s.IN1"), ("b.OUT", "s.IN1")])
    graph = build_graph([a, b, s], [("b.OUT", "s.IN2")])
    step(graph, SimClock(dt=0.1))
    assert graph.value("s.OUT") == 5.0
