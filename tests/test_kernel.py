"""Engine semantics: graph validation, tick evaluation, pulse contract,
halt handling and determinism."""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from batchsim import (AlgebraicLoop, Block, Constant, Multiplier,
                      MultipleDrivers, NumericFault, ResettableIntegrator,
                      SimClock, SimulationError, Summator, UnitDelay,
                      UnknownPort, build_graph, step, sweep)
from batchsim.plant import HEATING

from conftest import REPO_ROOT, make_reference_plant, make_reference_sweep


class PulseAt(Block):
    """Test helper: emits a single pulse at a chosen tick."""

    output_ports = ("OUT",)

    def __init__(self, name, tick):
        super().__init__(name)
        self.tick = tick

    def evaluate(self, clock):
        if clock.tick_index == self.tick:
            self.pulse("OUT")


class PulseEvery(Block):
    """Test helper: emits a pulse at ``start`` and then every ``period``
    ticks."""

    output_ports = ("OUT",)

    def __init__(self, name, period, start=0):
        super().__init__(name)
        self.period = period
        self.start = start

    def evaluate(self, clock):
        k = clock.tick_index - self.start
        if k >= 0 and k % self.period == 0:
            self.pulse("OUT")


class SequenceSource(Block):
    """Test helper: replays a list of values, one per tick, then holds
    the last one."""

    output_ports = ("OUT",)

    def __init__(self, name, values):
        super().__init__(name)
        self.values = list(values)

    def evaluate(self, clock):
        if self.values:
            k = min(clock.tick_index, len(self.values) - 1)
            self.out["OUT"] = self.values[k]


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
    # c is fed by the cycle but not in it, so the error must not name it.
    blocks = [Multiplier("a"), Multiplier("b"), Multiplier("c")]
    wires = [("a.OUT", "b.IN1"), ("b.OUT", "a.IN1"), ("a.OUT", "c.IN1")]
    with pytest.raises(AlgebraicLoop) as excinfo:
        build_graph(blocks, wires)
    named = str(excinfo.value).rpartition(": ")[2].split(" -> ")
    assert set(named) == {"a", "b"}


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
    # A constant evaluates nothing per tick, yet the screen still sees it.
    ([Constant("one", 1.0), Summator("s", n_inputs=1),
      Constant("hot", math.inf)], [("one.OUT", "s.IN1")], ("hot", "OUT", 0)),
    ([Constant("cold", -math.inf)], [], ("cold", "OUT", 0)),
    ([Constant("a", 1e200), Constant("b", 1e200), Multiplier("m")],
     [("a.OUT", "m.IN1"), ("b.OUT", "m.IN2")], ("m", "OUT", 0)),
    # Every port is finite though their sum overflows: the screen checks
    # each port on its own, never a sum of them.
    ([Constant("big", 1e308), Constant("one", 1.0), Multiplier("m1"),
      Multiplier("m2")],
     [("big.OUT", "m1.IN1"), ("one.OUT", "m1.IN2"),
      ("big.OUT", "m2.IN1"), ("one.OUT", "m2.IN2")], None),
], ids=["nan_at_tick_4", "nan_constant", "inf_constant_beside_others",
        "minus_inf_constant", "overflowing_product",
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


def test_constant_subclass_with_its_own_evaluate_runs_every_tick():
    class Ramp(Constant):
        def evaluate(self, clock):
            self.out["OUT"] = float(clock.tick_index)

    graph = build_graph([Ramp("r", 0.0), Summator("s", n_inputs=1)],
                        [("r.OUT", "s.IN1")])
    clock = SimClock(dt=0.1)
    seen = []
    for _ in range(4):
        step(graph, clock)
        seen.append(graph.value("s.OUT"))
    assert seen == [0.0, 1.0, 2.0, 3.0]


def test_subclass_that_inherits_evaluate_is_evaluated():
    class Gain(Multiplier):
        pass

    graph = build_graph([Constant("a", 2.0), Constant("b", 3.0), Gain("g")],
                        [("a.OUT", "g.IN1"), ("b.OUT", "g.IN2")])
    step(graph, SimClock(dt=0.1))
    assert graph.value("g.OUT") == 6.0


def test_class_patched_after_build_does_not_reach_the_graph(monkeypatch):
    # The per-tick methods are bound at build.
    graph = build_graph([Constant("a", 2.0), Multiplier("m")],
                        [("a.OUT", "m.IN1"), ("a.OUT", "m.IN2")])
    monkeypatch.setattr(Multiplier, "evaluate", lambda self, clock: None)
    step(graph, SimClock(dt=0.1))
    assert graph.value("m.OUT") == 4.0


def _calls_per_heating_tick(graph):
    """Every Python and C call a heating tick makes, ``step`` itself
    included, averaged over 1000 ticks after 500 that reach heating."""
    clock = SimClock(dt=0.1)
    for _ in range(500):
        step(graph, clock)
    assert graph.block("plant").phase == HEATING
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        for _ in range(1000):
            step(graph, clock)
        per_tick = calls / 1000
    finally:
        sys.setprofile(None)
    assert graph.block("plant").phase == HEATING
    return per_tick


def test_heating_tick_makes_at_most_21_calls():
    # An exact count, not a timing, so per-tick work cannot creep back
    # unnoticed: 74 before the per-tick lists were bound at build, 49
    # before the built-in blocks read their bound input slots.
    graph = sweep.build_sweep_graph(make_reference_plant(),
                                    make_reference_sweep())
    assert _calls_per_heating_tick(graph) <= 21


def test_single_graph_heating_tick_makes_at_most_16_calls():
    # 40 before the built-in blocks read their bound input slots.
    graph = sweep.build_single_graph(make_reference_plant(), 1.0)
    assert _calls_per_heating_tick(graph) <= 16


def test_a_block_that_rebinds_out_leaves_step_but_not_check_outs():
    # Reads and the finite screen use the dicts bound at build, so bare
    # step neither reads nor screens a rebound out; check_outs names it.
    class Leaves(Block):
        output_ports = ("OUT",)

        def evaluate(self, clock):
            self.out = {"OUT": math.inf if clock.tick_index == 2 else 1.0}

    graph = build_graph([Leaves("src"), Summator("sink", n_inputs=1)],
                        [("src.OUT", "sink.IN1")])
    clock = SimClock(dt=0.1)
    seen = []
    for _ in range(4):
        step(graph, clock)
        seen.append(graph.value("sink.OUT"))
    assert seen == [0.0] * 4
    with pytest.raises(SimulationError, match=r"^block 'src' rebound its out"):
        graph.check_outs()


def test_halt_flag_is_set_by_the_halting_tick():
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
    halts = []
    for _ in range(8):
        step(graph, clock)
        halts.append(graph.halt_flag)
    assert halts == [False] * 7 + [True]  # raised by tick 7 as it completes


def test_unconnected_input_reads_zero():
    graph = build_graph([Summator("s", n_inputs=2)], [])
    clock = SimClock(dt=0.1)
    step(graph, clock)
    assert graph.value("s.OUT") == 0.0


def test_read_of_an_undeclared_port_names_it():
    # A misspelt port used to read 0 on every tick.
    class Misspelt(Block):
        input_ports = ("IN",)

        def evaluate(self, clock):
            self.read("In")

    graph = build_graph([Constant("c", 1.0), Misspelt("b")],
                        [("c.OUT", "b.IN")])
    with pytest.raises(UnknownPort, match=r"^b\.In "):
        step(graph, SimClock(dt=0.1))


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
        blocks = [PulseEvery("p", 3),
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


def _ordered_graphs():
    """Both run graphs, and a fan-in listed sink first, whose sources
    would come out in hash-seed order if the sort kept them in a set."""
    fan_in = [Summator("sum", n_inputs=8)] + [Constant(f"c{i}", 1.0)
                                             for i in range(8)]
    return {"sweep": sweep.build_sweep_graph(make_reference_plant(),
                                             make_reference_sweep()),
            "single": sweep.build_single_graph(make_reference_plant(), 1.0),
            "fan_in": build_graph(fan_in, [(f"c{i}.OUT", f"sum.IN{i + 1}")
                                           for i in range(8)])}


_GRAPH_ORDERS = f"""
import json, sys
sys.path[:0] = [{str(REPO_ROOT / 'src')!r}, {str(REPO_ROOT / 'tests')!r}]
from test_kernel import _ordered_graphs
print(json.dumps({{name: graph.evaluation_order()
                  for name, graph in _ordered_graphs().items()}}))
"""


def test_evaluation_order_is_topological_and_ignores_the_hash_seed():
    orders = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _GRAPH_ORDERS], capture_output=True,
            text=True, timeout=120, env={**os.environ, "PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
        orders.append(json.loads(done.stdout))
    graphs = _ordered_graphs()
    assert orders[0] == orders[1] == {
        name: graph.evaluation_order() for name, graph in graphs.items()}
    # Every non-delayed wire's source evaluates before its destination.
    for graph in graphs.values():
        position = {id(b.out): i for i, b in enumerate(graph._plan)}
        for i, b in enumerate(graph._plan):
            if not b.breaks_cycle:
                assert all(position.get(id(out), -1) < i
                           for out, _ in b._sources.values()), b.name
