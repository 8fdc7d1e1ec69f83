"""Instrument block contracts.

Scanner sequences are checked against a reference enumeration written
independently here, not against the production scan helpers.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from batchsim import (Constant, IntervalTimer, InvalidRange, Multiplier,
                      PulseTrain, RangeScanner, ReportGenerator,
                      ResettableIntegrator, SimClock, Summator, UnitDelay,
                      build_graph, enumerate_scan_values, step)

from test_kernel import PulseAt, PulseEvery, SequenceSource


def reference_scan_sequence(minimum, maximum, step_size, direction):
    """Independent enumeration of the expected scan values: walk from the
    near boundary in fixed steps, clamp onto the far boundary."""
    tol = 1e-9 * step_size
    values = []
    index = 0
    while True:
        if direction == 0:
            raw = minimum + index * step_size
            if raw >= maximum - tol:
                values.append(maximum)
                return values
        else:
            raw = maximum - index * step_size
            if raw <= minimum + tol:
                values.append(minimum)
                return values
        values.append(raw)
        index += 1


def drive_scanner(scanner, n_strobes, collect_rpt=False):
    """Strobe a scanner once per tick and collect OUT after each strobe."""
    strobe = PulseEvery("strobe", 1)
    graph = build_graph([strobe, scanner], [("strobe.OUT", "control.STR")])
    clock = SimClock(dt=0.1)
    outs, rpts = [], []
    for _ in range(n_strobes):
        step(graph, clock)
        outs.append(graph.value("control.OUT"))
        rpts.append(graph.value("control.RPT"))
    return (outs, rpts) if collect_rpt else outs


class TestRangeScanner:
    def test_ascending_even_range(self):
        scanner = RangeScanner("control", 2.0, 8.0, 2.0, direction=0)
        outs, rpts = drive_scanner(scanner, 4, collect_rpt=True)
        assert outs == [2.0, 4.0, 6.0, 8.0]
        assert rpts == [0.0, 0.0, 0.0, 1.0]

    def test_descending_even_range(self):
        scanner = RangeScanner("control", 2.0, 8.0, 2.0, direction=1)
        outs, rpts = drive_scanner(scanner, 4, collect_rpt=True)
        assert outs == [8.0, 6.0, 4.0, 2.0]
        assert rpts == [0.0, 0.0, 0.0, 1.0]

    def test_overshoot_clamps_on_boundary(self):
        scanner = RangeScanner("control", 0.0, 5.0, 2.0, direction=0)
        outs, rpts = drive_scanner(scanner, 4, collect_rpt=True)
        assert outs == [0.0, 2.0, 4.0, 5.0]
        assert rpts == [0.0, 0.0, 0.0, 1.0]

    def test_degenerate_range_rejected_at_construction(self):
        with pytest.raises(InvalidRange):
            RangeScanner("control", 5.0, 5.0, 1.0)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidRange):
            RangeScanner("control", 0.0, 5.0, 0.0)

    @pytest.mark.parametrize("minimum, maximum, step_size", [
        (math.nan, 5.0, 1.0), (0.0, math.nan, 1.0), (0.0, 5.0, math.nan),
        (-math.inf, 5.0, 1.0), (0.0, math.inf, 1.0), (0.0, 5.0, math.inf)])
    def test_non_finite_range_rejected(self, minimum, maximum, step_size):
        # A NaN range or step used to pass the guards, and enumerating it
        # never reached the boundary.
        with pytest.raises(InvalidRange):
            enumerate_scan_values(minimum, maximum, step_size)
        with pytest.raises(InvalidRange):
            RangeScanner("control", minimum, maximum, step_size)

    def test_scan_of_more_than_a_million_steps_rejected_at_construction(
            self):
        # 24 M points; the sweep planner refuses the same range.
        with pytest.raises(InvalidRange, match="too small"):
            RangeScanner("control", 0.6, 3.0, 1e-7)

    def test_descending_overshoot_clamps_on_lower_boundary(self):
        scanner = RangeScanner("control", 0.0, 5.0, 2.0, direction=1)
        outs, rpts = drive_scanner(scanner, 4, collect_rpt=True)
        assert outs == [5.0, 3.0, 1.0, 0.0]
        assert rpts[-1] == 1.0

    def test_strobe_after_boundary_is_ignored(self):
        scanner = RangeScanner("control", 2.0, 8.0, 2.0)
        outs, rpts = drive_scanner(scanner, 7, collect_rpt=True)
        assert outs == [2.0, 4.0, 6.0, 8.0, 8.0, 8.0, 8.0]
        assert rpts[3:] == [1.0] * 4  # RPT is a level and stays raised

    def test_every_strobe_after_rpt_flags_a_halt(self):
        # The scanner has no stop switch: the run decides whether to step
        # the halting tick.
        with pytest.raises(TypeError):
            RangeScanner("control", 2.0, 8.0, 2.0, stop_on_boundary=True)
        scanner = RangeScanner("control", 2.0, 8.0, 2.0)
        strobe = PulseEvery("strobe", 1)
        graph = build_graph([strobe, scanner], [("strobe.OUT", "control.STR")])
        clock = SimClock(dt=0.1)
        halts = []
        for _ in range(6):
            step(graph, clock)
            halts.append(graph.halt_flag)
            graph.halt_flag = False  # so each tick shows its own request
        # 4 strobes walk the range (RPT on the 4th); the 5th and 6th halt.
        assert halts == [False] * 4 + [True] * 2
        assert not hasattr(scanner, "stop_on_boundary")

    @pytest.mark.parametrize("direction",
                             ["ascending", "descending", 2, -1, 0.5, None])
    def test_direction_other_than_0_or_1_rejected(self, direction):
        # Read by truthiness, "ascending" used to scan descending.
        with pytest.raises(InvalidRange, match="direction"):
            enumerate_scan_values(0.6, 1.0, 0.2, direction)
        with pytest.raises(InvalidRange, match="direction"):
            RangeScanner("control", 0.6, 1.0, 0.2, direction=direction)

    @pytest.mark.parametrize("direction", [0, 1, False, True])
    def test_bools_and_the_ints_0_and_1_accepted(self, direction):
        scanner = RangeScanner("control", 0.6, 1.0, 0.2, direction=direction)
        assert scanner.points == enumerate_scan_values(0.6, 1.0, 0.2,
                                                       direction)
        assert scanner.points[0] == (1.0 if direction else 0.6)

    def test_fifty_randomized_configurations_match_reference(self):
        rng = random.Random(20240817)
        for _ in range(50):
            minimum = rng.uniform(-10.0, 10.0)
            span = rng.uniform(0.5, 20.0)
            maximum = minimum + span
            step_size = rng.uniform(span / 40.0, span * 1.5)
            direction = rng.choice((0, 1))
            expected = reference_scan_sequence(minimum, maximum, step_size,
                                               direction)
            scanner = RangeScanner("control", minimum, maximum, step_size,
                                   direction=direction)
            outs, rpts = drive_scanner(scanner, len(expected),
                                       collect_rpt=True)
            assert outs == expected
            assert rpts[-1] == 1.0 and all(v == 0.0 for v in rpts[:-1])
            deltas = [b - a for a, b in zip(outs, outs[1:])]
            if direction == 0:
                assert all(d > 0 for d in deltas)
            else:
                assert all(d < 0 for d in deltas)

    @settings(max_examples=60, deadline=None)
    @given(minimum=st.floats(-50, 50, allow_nan=False),
           span=st.floats(0.1, 30.0, allow_nan=False),
           ratio=st.floats(0.05, 2.0, allow_nan=False),
           direction=st.sampled_from((0, 1)))
    def test_sequence_properties(self, minimum, span, ratio, direction):
        maximum = minimum + span
        step_size = span * ratio
        expected = reference_scan_sequence(minimum, maximum, step_size,
                                           direction)
        scanner = RangeScanner("control", minimum, maximum, step_size,
                               direction=direction)
        outs = drive_scanner(scanner, len(expected))
        assert outs == expected
        assert min(outs) >= minimum and max(outs) <= maximum
        # Count: full steps + start, plus one clamped point on overshoot.
        n_full = math.floor(span / step_size + 1e-9 * step_size)
        divisible = abs(span / step_size - round(span / step_size)) <= 1e-9
        assert len(outs) == n_full + 1 + (0 if divisible else 1)

    @settings(max_examples=50, deadline=None)
    @given(minimum=st.floats(-50, 50, allow_nan=False),
           span=st.floats(0.1, 30.0, allow_nan=False),
           ratio=st.floats(0.05, 2.0, allow_nan=False),
           direction=st.sampled_from((0, 1)))
    def test_rpt_and_halt_follow_the_boundary(self, minimum, span, ratio,
                                              direction):
        # RPT is the scanner's only record of reaching the boundary, so
        # it alone must decide both the hold and the halt.
        maximum = minimum + span
        step_size = span * ratio
        expected = reference_scan_sequence(minimum, maximum, step_size,
                                           direction)
        n = len(expected)
        scanner = RangeScanner("control", minimum, maximum, step_size,
                               direction=direction)
        strobe = PulseEvery("strobe", 1)
        graph = build_graph([strobe, scanner], [("strobe.OUT", "control.STR")])
        clock = SimClock(dt=0.1)
        outs, rpts, halts = [], [], []
        for _ in range(n + 2):
            step(graph, clock)
            outs.append(graph.value("control.OUT"))
            rpts.append(graph.value("control.RPT"))
            halts.append(graph.halt_flag)
        assert outs == expected + [expected[-1]] * 2
        assert rpts == [0.0] * (n - 1) + [1.0] * 3
        assert halts == [False] * n + [True] * 2


class TestIntervalTimer:
    def _run(self, str_tick, fin_tick, ticks, dt=0.1):
        blocks = [PulseAt("s", str_tick), PulseAt("f", fin_tick),
                  IntervalTimer("t")]
        graph = build_graph(blocks, [("s.OUT", "t.STR"), ("f.OUT", "t.FIN")])
        clock = SimClock(dt=dt)
        for _ in range(ticks):
            step(graph, clock)
        return graph.value("t.TIM")

    def test_measures_interval(self):
        assert self._run(str_tick=10, fin_tick=45, ticks=50) == 3.5

    def test_same_tick_measures_zero(self):
        assert self._run(str_tick=20, fin_tick=20, ticks=25) == 0.0

    def test_fin_without_str_leaves_tim_unchanged(self):
        assert self._run(str_tick=90, fin_tick=30, ticks=50) == 0.0

    def test_tim_is_exact_tick_difference(self):
        for str_tick, fin_tick in ((3, 1237), (100, 40_321), (7, 8)):
            got = self._run(str_tick, fin_tick, fin_tick + 1)
            assert got == (fin_tick - str_tick) * 0.1


class TestResettableIntegrator:
    def test_constant_input(self):
        blocks = [Constant("c", 3.0), ResettableIntegrator("i")]
        graph = build_graph(blocks, [("c.OUT", "i.IN")])
        clock = SimClock(dt=0.1)
        for _ in range(20):  # 2.0 s
            step(graph, clock)
        assert abs(graph.value("i.OUT") - 6.0) <= 1e-9

    def test_ramp_against_closed_form(self):
        # integral of t over [0, 2] is 2.0; rectangle rule is O(dt) low.
        dt = 0.001
        n = 2000
        ramp = SequenceSource("ramp", [k * dt for k in range(n)])
        graph = build_graph([ramp, ResettableIntegrator("i")],
                            [("ramp.OUT", "i.IN")])
        clock = SimClock(dt=dt)
        for _ in range(n):
            step(graph, clock)
        assert abs(graph.value("i.OUT") - 2.0) <= 2 * dt

    def test_reset_pulse_zeroes_before_current_increment(self):
        blocks = [Constant("c", 2.0), PulseAt("r", 5),
                  ResettableIntegrator("i")]
        graph = build_graph(blocks, [("c.OUT", "i.IN"), ("r.OUT", "i.RES")])
        clock = SimClock(dt=0.1)
        outs = []
        for _ in range(8):
            step(graph, clock)
            outs.append(graph.value("i.OUT"))
        # Ticks 0..4 accumulate to 1.0; the reset tick restarts at one
        # increment (0.2), then accumulation continues.
        assert abs(outs[4] - 1.0) <= 1e-12
        assert abs(outs[5] - 0.2) <= 1e-12
        assert abs(outs[7] - 0.6) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-100, 100, allow_nan=False),
                           min_size=1, max_size=60),
           a=st.floats(-5, 5, allow_nan=False),
           b=st.floats(-5, 5, allow_nan=False))
    def test_linearity(self, values, a, b):
        f = values
        g = list(reversed(values))

        def integrate(seq):
            graph = build_graph(
                [SequenceSource("src", seq), ResettableIntegrator("i")],
                [("src.OUT", "i.IN")])
            clock = SimClock(dt=0.1)
            for _ in range(len(seq)):
                step(graph, clock)
            return graph.value("i.OUT")

        combined = integrate([a * x + b * y for x, y in zip(f, g)])
        split = a * integrate(f) + b * integrate(g)
        assert combined == pytest.approx(split, rel=1e-9, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(ticks=st.lists(st.tuples(st.floats(-1e3, 1e3, allow_nan=False),
                                    st.booleans()),
                          min_size=1, max_size=40),
           dt=st.floats(1e-3, 1.0, allow_nan=False))
    def test_matches_reference_loop(self, ticks, dt):
        ins = [x for x, _ in ticks]
        resets = [1.0 if reset else 0.0 for _, reset in ticks]
        graph = build_graph(
            [SequenceSource("in", ins), SequenceSource("res", resets),
             ResettableIntegrator("i")],
            [("in.OUT", "i.IN"), ("res.OUT", "i.RES")])
        clock = SimClock(dt=dt)
        acc = 0.0
        for x, reset in ticks:
            step(graph, clock)
            if reset:
                acc = 0.0
            acc += x * dt
            assert graph.value("i.OUT") == acc


class TestArithmetic:
    def _value(self, blocks, wires, probe, ticks=1):
        graph = build_graph(blocks, wires)
        clock = SimClock(dt=0.1)
        for _ in range(ticks):
            step(graph, clock)
        return graph.value(probe)

    def test_mult(self):
        got = self._value([Constant("a", 4.0), Constant("b", 2.5),
                           Multiplier("m")],
                          [("a.OUT", "m.IN1"), ("b.OUT", "m.IN2")], "m.OUT")
        assert got == 10.0

    def test_mult_by_zero_annihilates(self):
        for x in (-7.25, 0.0, 3.5e5):
            got = self._value([Constant("a", x), Constant("b", 0.0),
                               Multiplier("m")],
                              [("a.OUT", "m.IN1"), ("b.OUT", "m.IN2")],
                              "m.OUT")
            assert got == 0.0

    def test_sum(self):
        blocks = [Constant("a", 10.0), Constant("b", 20.0),
                  Constant("c", 30.0), Summator("s", n_inputs=3)]
        wires = [("a.OUT", "s.IN1"), ("b.OUT", "s.IN2"), ("c.OUT", "s.IN3")]
        assert self._value(blocks, wires, "s.OUT") == 60.0


class TestPulseTrain:
    def test_fires_once_on_tick_zero(self):
        graph = build_graph([PulseTrain("p")], [])
        clock = SimClock(dt=0.1)
        seen = []
        for _ in range(5):
            step(graph, clock)
            seen.append(graph.value("p.OUT"))
        assert seen == [1.0, 0.0, 0.0, 0.0, 0.0]


class TestUnitDelay:
    @pytest.mark.parametrize("kwargs, first", [({}, 0.0),
                                               ({"initial": 1.0}, 1.0)])
    def test_initial_condition_then_latched_input(self, kwargs, first):
        graph = build_graph([Constant("c", 5.0), UnitDelay("d", **kwargs)],
                            [("c.OUT", "d.IN")])
        clock = SimClock(dt=0.1)
        seen = []
        for _ in range(3):
            step(graph, clock)
            seen.append(graph.value("d.OUT"))
        assert seen == [first, 5.0, 5.0]


class TestReportGenerator:
    def test_strobed_rows_number_from_one(self):
        src = SequenceSource("src", [1.5] * 10 + [2.5] * 10 + [3.5] * 10)
        strobe = PulseEvery("strobe", 10, start=9)
        report = ReportGenerator("report")
        graph = build_graph([src, strobe, report],
                            [("src.OUT", "report.IN1"),
                             ("strobe.OUT", "report.STR")])
        clock = SimClock(dt=0.1)
        for _ in range(30):
            step(graph, clock)
        # Rows are value tuples in strobe order; record numbers are their
        # positions from 1 (pinned end to end in test_sweep).
        assert [r[0] for r in report.rows] == [1.5, 2.5, 3.5]
        assert all(type(r) is tuple and len(r) == 10 for r in report.rows)

    def test_no_strobe_no_rows(self):
        report = ReportGenerator("report")
        graph = build_graph([Constant("c", 9.0), report],
                            [("c.OUT", "report.IN1")])
        clock = SimClock(dt=0.1)
        for _ in range(20):
            step(graph, clock)
        assert report.rows == []

    def test_latch_captures_value_at_strobe_tick(self):
        # Input changes every tick; the latched value must be the one the
        # source held on the strobe tick itself.
        values = [float(k) for k in range(40)]
        src = SequenceSource("src", values)
        strobe = PulseEvery("strobe", 13, start=7)
        report = ReportGenerator("report")
        graph = build_graph([src, strobe, report],
                            [("src.OUT", "report.IN1"),
                             ("strobe.OUT", "report.STR")])
        clock = SimClock(dt=0.1)
        for _ in range(40):
            step(graph, clock)
        assert [r[0] for r in report.rows] == [7.0, 20.0, 33.0]

    def test_rows_are_append_only(self):
        strobe = PulseEvery("strobe", 5)
        src = SequenceSource("src", [float(k) for k in range(60)])
        report = ReportGenerator("report")
        graph = build_graph([src, strobe, report],
                            [("src.OUT", "report.IN1"),
                             ("strobe.OUT", "report.STR")])
        clock = SimClock(dt=0.1)
        snapshots = []
        for _ in range(30):
            step(graph, clock)
            snapshots.append(list(report.rows))
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later[:len(earlier)] == earlier
