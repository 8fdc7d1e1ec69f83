"""Economics: cost aggregation (direct vs block-wired), operation
indicators, criteria and scaling invariance."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from batchsim import (BUILTIN_CRITERIA, Constant, FlowVolumes, Multiplier,
                      OperationEvaluator, OperationRecord, SimClock, Summator,
                      UnitCosts, aggregate_costs, build_graph,
                      compute_indicators, step)

from test_kernel import PulseAt


def block_wired_costs(volumes: FlowVolumes, costs: UnitCosts):
    """The multiplier/summator network computing the same aggregation as
    aggregate_costs, used as its dual route."""
    blocks = [
        Constant("rtv", volumes.rtv), Constant("rpv", volumes.rpv),
        Constant("ptv", volumes.ptv), Constant("rwv", volumes.rwv),
        Constant("raw_price", costs.raw), Constant("energy_price", costs.energy),
        Constant("wear_price", costs.wear), Constant("output_price", costs.output),
        Multiplier("raw_cost"), Multiplier("energy_cost"),
        Multiplier("wear_cost"), Multiplier("output_value"),
        Summator("re_sum", n_inputs=3),
    ]
    wires = [
        ("rtv.OUT", "raw_cost.IN1"), ("raw_price.OUT", "raw_cost.IN2"),
        ("rpv.OUT", "energy_cost.IN1"), ("energy_price.OUT", "energy_cost.IN2"),
        ("rwv.OUT", "wear_cost.IN1"), ("wear_price.OUT", "wear_cost.IN2"),
        ("ptv.OUT", "output_value.IN1"), ("output_price.OUT", "output_value.IN2"),
        ("raw_cost.OUT", "re_sum.IN1"),
        ("energy_cost.OUT", "re_sum.IN2"),
        ("wear_cost.OUT", "re_sum.IN3"),
    ]
    graph = build_graph(blocks, wires)
    step(graph, SimClock(dt=0.1))
    return graph.value("re_sum.OUT"), graph.value("output_value.OUT")


class TestAggregateCosts:
    def test_worked_example(self):
        volumes = FlowVolumes(rtv=10.0, rpv=2.093e6, ptv=10.0, rwv=0.1046)
        costs = UnitCosts(raw=0.1, energy=1e-6, wear=10.0, output=0.5)
        re, pe = aggregate_costs(volumes, costs)
        assert re == pytest.approx(1.0 + 2.093 + 1.046, rel=1e-12)
        assert pe == pytest.approx(5.0, rel=1e-12)

    def test_zero_volumes(self):
        volumes = FlowVolumes(0.0, 0.0, 0.0, 0.0)
        costs = UnitCosts(raw=0.1, energy=1e-6, wear=10.0, output=0.5)
        assert aggregate_costs(volumes, costs) == (0.0, 0.0)

    def test_block_route_equals_direct_route(self):
        volumes = FlowVolumes(rtv=10.0, rpv=2.093e6, ptv=10.0, rwv=0.1046)
        costs = UnitCosts(raw=0.1, energy=1e-6, wear=10.0, output=0.5)
        direct = aggregate_costs(volumes, costs)
        wired = block_wired_costs(volumes, costs)
        assert wired[0] == pytest.approx(direct[0], rel=1e-12)
        assert wired[1] == pytest.approx(direct[1], rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(vols=st.tuples(*[st.floats(0, 1e7, allow_nan=False)] * 4),
           prices=st.tuples(*[st.floats(1e-9, 1e4, allow_nan=False)] * 4))
    def test_dual_route_property(self, vols, prices):
        volumes = FlowVolumes(*vols)
        costs = UnitCosts(*prices)
        direct = aggregate_costs(volumes, costs)
        wired = block_wired_costs(volumes, costs)
        assert wired[0] == pytest.approx(direct[0], rel=1e-12, abs=1e-300)
        assert wired[1] == pytest.approx(direct[1], rel=1e-12, abs=1e-300)


class TestIndicators:
    def test_worked_example(self):
        prf, rnt, r, e, valid = compute_indicators(re=10.0, pe=15.0, t_op=2.0)
        assert (prf, rnt, r, e, valid) == (5.0, 0.5, 20.0, 0.25, True)

    def test_break_even(self):
        prf, rnt, r, e, valid = compute_indicators(re=10.0, pe=10.0, t_op=2.0)
        assert (prf, rnt, e, valid) == (0.0, 0.0, 0.0, True)

    def test_degenerate_zero_cost(self):
        prf, rnt, r, e, valid = compute_indicators(re=0.0, pe=15.0, t_op=2.0)
        assert not valid
        assert all(math.isnan(v) for v in (prf, rnt, r, e))

    def test_degenerate_zero_duration(self):
        prf, rnt, r, e, valid = compute_indicators(re=10.0, pe=15.0, t_op=0.0)
        assert not valid
        assert all(math.isnan(v) for v in (prf, rnt, r, e))

    def test_recomputation_is_bit_stable(self):
        prf, rnt, *_ = compute_indicators(re=7.3, pe=11.9, t_op=3.7)
        assert prf == 11.9 - 7.3
        assert rnt == (11.9 - 7.3) / 7.3


class TestOperationEvaluator:
    def _graph(self, re, pe, t_op, fin_tick=3):
        blocks = [Constant("re", re), Constant("pe", pe),
                  Constant("to", t_op), PulseAt("fin", fin_tick),
                  OperationEvaluator("evaluator")]
        wires = [("re.OUT", "evaluator.RE"), ("pe.OUT", "evaluator.PE"),
                 ("to.OUT", "evaluator.TO"), ("fin.OUT", "evaluator.FIN")]
        return build_graph(blocks, wires)

    @staticmethod
    def _ports(graph):
        return tuple(graph.value(f"evaluator.{port}")
                     for port in ("PRF", "RNT", "R", "E"))

    def test_computes_on_fin_pulse_only(self):
        graph = self._graph(10.0, 15.0, 2.0)
        clock = SimClock(dt=0.1)
        for _ in range(3):
            step(graph, clock)
        assert self._ports(graph) == (0.0, 0.0, 0.0, 0.0)
        step(graph, clock)
        assert self._ports(graph) == (5.0, 0.5, 20.0, 0.25)
        graph.block("pe").out["OUT"] = 99.0  # inputs move between pulses
        for _ in range(5):
            step(graph, clock)
        assert self._ports(graph) == (5.0, 0.5, 20.0, 0.25)

    def test_degenerate_operation_flags_record_keeps_ports_finite(self):
        graph = self._graph(0.0, 15.0, 2.0)
        clock = SimClock(dt=0.1)
        for _ in range(6):
            step(graph, clock)  # NumericFault would raise here
        assert self._ports(graph) == (0.0, 0.0, 0.0, 0.0)
        # Records take their indicators from the same function.
        assert not compute_indicators(0.0, 15.0, 2.0)[4]


def _scored(name, re, pe, t_op):
    """Score under a built-in criterion of a record whose indicators
    compute_indicators filled from (re, pe, t_op)."""
    record = OperationRecord(1, 1.0, t_op, 1.0, 1.0, 1.0, 0.0, re, pe,
                             *compute_indicators(re, pe, t_op))
    return BUILTIN_CRITERIA[name].score(record)


class TestCriteria:
    def test_value_added(self):
        assert _scored("value_added", 10.0, 15.0, 2.0) == 5.0

    def test_default_efficiency(self):
        assert _scored("efficiency", 10.0, 15.0, 2.0) == 0.25

    def test_neg_cost_flips_sign(self):
        assert _scored("neg_cost", 4.139, 5.0, 2.0) == -4.139


class TestHomogeneity:
    @settings(max_examples=50, deadline=None)
    @given(vols=st.tuples(*[st.floats(0.01, 1e6, allow_nan=False)] * 4),
           prices=st.tuples(*[st.floats(1e-6, 1e3, allow_nan=False)] * 4),
           lam=st.floats(0.01, 100.0, allow_nan=False),
           t_op=st.floats(0.1, 1e5, allow_nan=False))
    def test_cost_scaling(self, vols, prices, lam, t_op):
        volumes = FlowVolumes(*vols)
        base = UnitCosts(*prices)
        scaled = UnitCosts(*(lam * p for p in prices))
        re0, pe0 = aggregate_costs(volumes, base)
        re1, pe1 = aggregate_costs(volumes, scaled)
        assert re1 == pytest.approx(lam * re0, rel=1e-12)
        assert pe1 == pytest.approx(lam * pe0, rel=1e-12)
        _, rnt0, _, e0, _ = compute_indicators(re0, pe0, t_op)
        _, rnt1, _, e1, _ = compute_indicators(re1, pe1, t_op)
        assert rnt1 == pytest.approx(rnt0, rel=1e-12)
        # lambda cancels out of (pe-re)/(re*t_op) entirely, so rankings
        # (and the sweep argmax) cannot move.
        assert e1 == pytest.approx(e0, rel=1e-12)
