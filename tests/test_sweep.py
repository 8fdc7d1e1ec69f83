"""Sweep orchestration: record protocol, extremum location, oracles,
sweep/single-run equivalence, entry checks and properties over random
feasible plants."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from batchsim import (BUILTIN_CRITERIA, BatchHeaterPlant, Criterion,
                      NoValidRecords, OperationRecord, RangeScanner,
                      SimulationError, SweepConfig, ValidationError,
                      WearRateGenerator, enumerate_scan_values,
                      feasible_control_range, find_extremum,
                      oracle_heating_time, oracle_operation, oracle_ticks,
                      run_single, run_sweep, sweep as sweep_module,
                      validate_sweep_config)
from batchsim.config import DEFAULT_TICK_BUDGET

from conftest import make_reference_plant, operation_pulses

# 1.01 s is just above the reference limit: a tenth of the 10 s fill.
BAD_DTS = [math.nan, math.inf, 0.0, -1.0, 1.01]

# Bad run_single arguments -> the field name a ValidationError carries.
BAD_SINGLE_ARGS = [({"control_k": math.nan}, "control_k"),
                   ({"control_k": math.inf}, "control_k"),
                   ({"tick_budget": 0}, "tick_budget"),
                   ({"tick_budget": 1000.5}, "tick_budget"),
                   ({"criterion": "bogus"}, "criterion"),
                   # k**alpha overflows a float.
                   ({"control_k": 1e200}, "control_k"),
                   # bool is an int, but no tick count.
                   ({"tick_budget": True}, "tick_budget")]

# PlantConfig attribute -> the field name a ValidationError carries.
PLANT_FIELDS = [("heat_capacity", "heat_capacity"),
                ("loss_coeff", "loss_coeff"), ("setpoint", "setpoint"),
                ("ambient_temp", "ambient_temp"), ("fill_rate", "fill_rate"),
                ("heater_nominal_power", "heater_nominal_power"),
                ("wear_alpha", "alpha")]


def _refuse_graph(*args):
    raise AssertionError("a graph was built for a run refused at entry")


def _budget_needed(plant, k, dt):
    """Ticks one operation steps: its start tick, then the twin's fill,
    heat and release ticks."""
    return 1 + sum(oracle_ticks(plant, k, dt, DEFAULT_TICK_BUDGET))


def _phase_ticks(report):
    """Fill, heat and release ticks of a one-operation report, read off
    its pulse stream."""
    tick = {channel: round(t / report.dt)
            for channel, t in report.pulse_events}
    return (tick["rtf"] - tick["rtb"], tick["red"] - tick["rtf"],
            tick["ptf"] - tick["red"])


# A round plant (h = 0, eta = 1, whole-number parameters) on which the
# closed-form tick count ceil(heat_time / dt) = 1000 is one short: the
# simulated temperature accumulates rounding and needs 1001 ticks.
ROUND_PLANT = make_reference_plant()._replace(
    heat_capacity=1000.0, heater_nominal_power=1000.0, heater_efficiency=1.0,
    loss_coeff=0.0)


def _maybe_whole(draw, low, high):
    """A float in [low, high], half the time a whole number."""
    if draw(st.booleans()):
        return float(draw(st.integers(math.ceil(low), math.floor(high))))
    return draw(st.floats(low, high))


@st.composite
def twin_cases(draw):
    """A random feasible plant, a control at least 1.2x its floor and a
    dt up to the entry check's limit.  Round plants are frequent: h = 0,
    eta = 1, whole-number parameters and controls, and dt 0.1.  Heating
    lasts 0.5 to 4 fills, so a case runs at most about 1,400 ticks."""
    fill_rate = _maybe_whole(draw, 1.0, 5.0)
    fill_s = _maybe_whole(draw, 5.0, 20.0)
    release_ratio = draw(st.sampled_from([0.5, 1.0, 2.0])
                         | st.floats(0.5, 2.0))
    ambient = _maybe_whole(draw, -10.0, 30.0)
    delta = _maybe_whole(draw, 10.0, 80.0)
    plant = make_reference_plant()._replace(
        batch_volume=fill_rate * fill_s,
        fill_rate=fill_rate, release_intensity=fill_rate / release_ratio,
        ambient_temp=ambient, setpoint=ambient + delta,
        heater_nominal_power=_maybe_whole(draw, 500.0, 5000.0),
        heater_efficiency=draw(st.just(1.0) | st.floats(0.5, 1.0)),
        loss_coeff=draw(st.just(0.0) | st.integers(1, 20).map(float)
                        | st.floats(0.1, 20.0)))
    floor = feasible_control_range(plant)
    k = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.2, 3.0))
    k = max(k, math.ceil(floor * 2.4) / 2)
    # Heating time is linear in the heat capacity.
    per_capacity = oracle_heating_time(plant._replace(heat_capacity=1.0), k)
    capacity = fill_s * draw(st.floats(0.5, 4.0)) / per_capacity
    if draw(st.booleans()):
        capacity = float(max(1, round(capacity)))
    plant = plant._replace(heat_capacity=capacity)
    # The entry check's dt limit, computed as it computes it.
    limit = min(plant.batch_volume / plant.fill_rate,
                plant.batch_volume / plant.release_intensity,
                oracle_heating_time(plant, k)) / 10.0
    dt = min(limit, draw(st.sampled_from([0.1, limit])
                         | st.floats(0.25 * limit, limit)))
    return plant, k, dt


@st.composite
def asymptote_cases(draw):
    """A plant with losses and a control within 3 ulps of its asymptote
    h*dT/(P*eta), where the delivered power meets the losses."""
    ambient = draw(st.floats(-10.0, 30.0))
    plant = make_reference_plant()._replace(
        ambient_temp=ambient, setpoint=ambient + draw(st.floats(10.0, 80.0)),
        heater_nominal_power=draw(st.floats(500.0, 5000.0)),
        heater_efficiency=draw(st.floats(0.5, 1.0)),
        loss_coeff=draw(st.floats(0.1, 20.0)))
    k = (plant.loss_coeff * (plant.setpoint - plant.ambient_temp)
         / (plant.heater_nominal_power * plant.heater_efficiency))
    return plant, k + draw(st.integers(-3, 3)) * math.ulp(k)


def _refuses(twin, plant, k, *args):
    """Whether ``twin`` refuses control ``k`` as infeasible."""
    try:
        twin(plant, k, *args)
    except ValidationError as exc:
        assert exc.field == "control_k"
        return True
    return False


@st.composite
def feasible_cases(draw):
    """A random feasible plant, a 3-point ascending sweep with controls
    between 1.2x and 3x the feasible floor, and dt a twentieth of the
    shortest phase (fill, release, or heating at the top control)."""
    fill_s = draw(st.floats(5.0, 20.0))
    release_s = fill_s * draw(st.floats(0.5, 2.0))
    mass = draw(st.floats(1.0, 20.0))
    ambient = draw(st.floats(-10.0, 30.0))
    delta = draw(st.floats(20.0, 80.0))
    power = draw(st.floats(500.0, 5000.0))
    eta = draw(st.floats(0.8, 1.0))
    # Control at which delivered power only just offsets the losses.
    k_zero = draw(st.floats(0.2, 1.0))
    loss = k_zero * power * eta / delta
    plant = make_reference_plant()._replace(
        batch_volume=mass, fill_rate=mass / fill_s,
        release_intensity=mass / release_s,
        ambient_temp=ambient, setpoint=ambient + delta,
        loss_coeff=loss, heater_nominal_power=power, heater_efficiency=eta)
    floor = feasible_control_range(plant)
    low = floor * draw(st.floats(1.2, 2.5))
    high = floor * draw(st.floats(low / floor + 0.25, 3.0))
    # Heating at the top control lasts 1 to 3 fills.
    heat_high = fill_s * draw(st.floats(1.0, 3.0))
    plant = plant._replace(heat_capacity=loss * heat_high
                           / -math.log1p(-k_zero / high))
    sweep = SweepConfig(k_min=low, k_max=high, k_step=(high - low) / 2)
    dt = min(fill_s, release_s, oracle_heating_time(plant, high)) / 20.0
    return plant, sweep, k_zero, dt


def _record(num, k, score_stand_in):
    """Record whose value_added score equals score_stand_in."""
    return OperationRecord(num, k, t_op=1.0, rtv=1, rpv=1, ptv=1, rwv=0,
                           re=1.0, pe=1.0 + score_stand_in,
                           prf=score_stand_in, rnt=score_stand_in,
                           r=1.0, e=score_stand_in)


class TestFindExtremum:
    CRITERION = BUILTIN_CRITERIA["value_added"]

    def test_argmax(self):
        records = [_record(1, 0.5, 1.0), _record(2, 1.0, 3.0),
                   _record(3, 1.5, 2.0)]
        result = find_extremum(records, self.CRITERION)
        assert (result.index, result.control_k, result.score) == (1, 1.0, 3.0)

    def test_tie_breaks_toward_lower_control(self):
        # The second case is a full tie, same score and control: the
        # first record wins.
        for records, index in (
                ([_record(1, 2.0, 2.0), _record(2, 1.0, 2.0)], 1),
                ([_record(1, 1.0, 2.0), _record(2, 1.0, 2.0)], 0)):
            result = find_extremum(records, self.CRITERION)
            assert result.index == index and result.control_k == 1.0

    def test_all_invalid_raises(self):
        records = [_record(1, 1.0, 1.0)._replace(valid=False)]
        with pytest.raises(NoValidRecords):
            find_extremum(records, self.CRITERION)

    def test_invalid_records_skipped(self):
        records = [_record(1, 1.0, 9.0)._replace(valid=False),
                   _record(2, 2.0, 1.0)]
        assert find_extremum(records, self.CRITERION).index == 1


class TestHeatingOracle:
    def test_zero_loss_value(self):
        cfg = make_reference_plant()._replace(loss_coeff=0.0,
                                              heater_efficiency=1.0)
        assert oracle_heating_time(cfg, 1.0) == pytest.approx(1046.5,
                                                              rel=1e-12)

    def test_vanishing_loss_approaches_zero_loss_formula(self):
        lossless = make_reference_plant()._replace(loss_coeff=0.0)
        tiny_loss = make_reference_plant()._replace(loss_coeff=1e-9)
        for k in (0.7, 1.0, 2.5):
            assert oracle_heating_time(tiny_loss, k) == pytest.approx(
                oracle_heating_time(lossless, k), rel=1e-6)

    def test_infeasible_control_raises(self):
        cfg = make_reference_plant()  # needs k > 0.5 to beat losses
        with pytest.raises(ValidationError) as excinfo:
            oracle_heating_time(cfg, 0.4)
        assert excinfo.value.field == "control_k"

    def test_oracle_operation_volumes(self):
        cfg = make_reference_plant()._replace(loss_coeff=0.0,
                                              heater_efficiency=1.0)
        op = oracle_operation(cfg, 1.0)
        assert op["rpv"] == pytest.approx(2.093e6, rel=1e-12)
        assert op["rtv"] == op["ptv"] == 10.0
        assert op["t_op"] == pytest.approx(10.0 + 1046.5 + 10.0, rel=1e-12)


class TestRunSweep:
    def test_reference_sweep_records_and_monotonicity(self, coarse_report):
        records = coarse_report.records
        assert len(records) == 13
        assert [r.num for r in records] == list(range(1, 14))
        t_ops = [r.t_op for r in records]
        rpvs = [r.rpv for r in records]
        rwvs = [r.rwv for r in records]
        assert all(b < a for a, b in zip(t_ops, t_ops[1:]))
        assert all(b < a for a, b in zip(rpvs, rpvs[1:]))
        assert all(b > a for a, b in zip(rwvs, rwvs[1:]))

    def test_records_match_closed_form_oracles(self, reference_plant,
                                               coarse_report):
        for rec in coarse_report.records:
            op = oracle_operation(reference_plant, rec.control_k)
            assert rec.t_op == pytest.approx(op["t_op"], rel=0.005)
            assert rec.rpv == pytest.approx(op["rpv"], rel=0.005)
            assert rec.rwv == pytest.approx(op["rwv"], rel=0.005)
            assert rec.rtv == pytest.approx(10.0, rel=1e-12)
            assert rec.ptv == pytest.approx(10.0, rel=1e-12)

    def test_output_cost_line_constant_across_sweep(self, coarse_report):
        pes = [r.pe for r in coarse_report.records]
        assert all(pe == pytest.approx(pes[0], rel=1e-12) for pe in pes)

    def test_neg_cost_extremum_is_interior(self, reference_plant,
                                           reference_sweep):
        sweep = reference_sweep._replace(criterion="neg_cost")
        report = run_sweep(reference_plant, sweep)
        assert 0 < report.extremum.index < len(report.records) - 1

    def test_custom_criterion_ranks_any_record_field(self, coarse_report):
        # Wear grows with k, so the least-wear operation is the first.
        result = find_extremum(coarse_report.records,
                               Criterion("neg_wear", lambda rec: -rec.rwv))
        assert (result.index, result.control_k) == (0, 0.6)

    def test_direction_reversal_yields_same_extremum(self, reference_plant,
                                                     reference_sweep,
                                                     coarse_report):
        reversed_sweep = reference_sweep._replace(direction="descending")
        reversed_report = run_sweep(reference_plant, reversed_sweep)
        ks = [r.control_k for r in reversed_report.records]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        # Grid points are recomputed from the opposite anchor, so allow
        # machine-epsilon play on the control value itself.
        assert reversed_report.extremum.control_k == pytest.approx(
            coarse_report.extremum.control_k, abs=1e-9)

    def test_pulse_protocol_per_operation(self, coarse_report):
        ops = operation_pulses(coarse_report)
        assert len(ops) == 13
        for pulses in ops:
            assert set(pulses) == {"rtb", "rtf", "red", "ptf"}
            assert (pulses["rtb"] < pulses["rtf"]
                    < pulses["red"] < pulses["ptf"])

    def test_infeasible_range_rejected(self, reference_plant):
        sweep = SweepConfig(k_min=0.1, k_max=0.4, k_step=0.1)
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant, sweep)
        assert excinfo.value.field == "k_min"

    def test_tick_budget_names_offending_control(self, reference_plant,
                                                 reference_sweep):
        sweep = reference_sweep._replace(tick_budget=500)
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant, sweep)
        assert excinfo.value.field == "tick_budget"
        assert "at control 0.6," in str(excinfo.value)

    @pytest.mark.parametrize("flag", ["false", "", 0, 1, None])
    def test_stop_on_boundary_that_is_no_bool_is_refused_at_entry(
            self, reference_plant, reference_sweep, monkeypatch, flag):
        # The text "false" is truthy: it used to run as if the flag were
        # set, stepping one more tick than parse_config's False.
        monkeypatch.setattr(sweep_module, "build_sweep_graph", _refuse_graph)
        sweep = reference_sweep._replace(stop_on_boundary=flag)
        for entry in (lambda: run_sweep(reference_plant, sweep),
                      lambda: validate_sweep_config(sweep)):
            with pytest.raises(ValidationError) as excinfo:
                entry()
            assert excinfo.value.field == "stop_on_boundary"

    def test_stop_without_boundary_halt_uses_record_count(
            self, reference_plant, reference_sweep, coarse_report):
        sweep = reference_sweep._replace(stop_on_boundary=False)
        report = run_sweep(reference_plant, sweep)
        assert [r.control_k for r in report.records] == \
            [r.control_k for r in coarse_report.records]

    def test_single_run_matches_sweep_record(self, reference_plant,
                                             coarse_report):
        # A per-point graph and the scanner graph meter each operation
        # identically.
        for rec in coarse_report.records:
            single = run_single(reference_plant, rec.control_k).records[0]
            assert single._replace(num=rec.num) == rec

    @pytest.mark.parametrize("dt", BAD_DTS)
    def test_bad_dt_rejected_at_entry(self, reference_plant, reference_sweep,
                                      dt):
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant, reference_sweep, dt=dt)
        assert excinfo.value.field == "dt"

    def test_dt_at_resolution_limit_accepted(self, reference_plant,
                                             reference_sweep):
        report = run_sweep(reference_plant, reference_sweep, dt=1.0)
        assert len(report.records) == 13

    def test_sweep_that_does_not_halt_is_refused(self, reference_plant,
                                                 reference_sweep,
                                                 monkeypatch):
        # With stop_on_boundary, the tick after the last operation must
        # halt the graph.
        monkeypatch.setattr(RangeScanner, "request_halt", lambda self: None)
        with pytest.raises(SimulationError, match="did not halt"):
            run_sweep(reference_plant, reference_sweep, dt=1.0)

    @pytest.mark.parametrize("path", ["sweep", "single"])
    def test_a_block_that_rebinds_out_is_refused_by_name(
            self, reference_plant, reference_sweep, monkeypatch, path):
        # The graph reads and screens the out dicts bound at build, so the
        # inf written into a rebound dict is neither read nor screened;
        # the run checks every block's out once per operation instead.
        def leave_the_graph(self, clock):
            self.out = {"OUT": math.inf}

        monkeypatch.setattr(WearRateGenerator, "evaluate", leave_the_graph)
        with pytest.raises(SimulationError) as excinfo:
            if path == "sweep":
                run_sweep(reference_plant, reference_sweep, dt=1.0)
            else:
                run_single(reference_plant, 1.0, dt=1.0)
        assert excinfo.type is SimulationError
        assert str(excinfo.value).startswith(
            "block 'wear_gen' rebound its out dict")

    def test_dt_refusal_reads_apart_from_the_limit(self, reference_plant,
                                                   reference_sweep):
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant, reference_sweep, dt=1.0000001)
        assert "1.0000001" in str(excinfo.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("attr, field", PLANT_FIELDS)
    def test_bad_plant_field_rejected_at_entry(self, reference_plant,
                                               reference_sweep, attr, field,
                                               value):
        plant = reference_plant._replace(**{attr: value})
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(plant, reference_sweep)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field", ["k_min", "k_max", "k_step"])
    def test_nan_sweep_field_rejected_at_entry(self, reference_plant,
                                               reference_sweep, field):
        sweep = reference_sweep._replace(**{field: math.nan})
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant, sweep)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("plant_edit, sweep_edit", [
        ({}, {"k_max": 1e200, "k_step": 1e199}),
        ({"wear_alpha": 1000.0}, {})], ids=["k_max", "alpha"])
    def test_overflowing_wear_rate_names_k_max_at_entry(
            self, reference_plant, reference_sweep, monkeypatch,
            plant_edit, sweep_edit):
        # k**alpha overflows a float at the top of the range.
        monkeypatch.setattr(sweep_module, "build_sweep_graph", _refuse_graph)
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant._replace(**plant_edit),
                      reference_sweep._replace(**sweep_edit))
        assert excinfo.value.field == "k_max"

    @pytest.mark.parametrize("entry", ["run_sweep", "run_single"])
    def test_wear_rate_overflowing_through_t_nominal_names_it_at_entry(
            self, reference_plant, reference_sweep, monkeypatch, entry):
        # k**alpha is finite, but dividing it by a subnormal t_nominal is
        # not: the run used to fail on wear_gen.OUT at tick 101.
        monkeypatch.setattr(sweep_module, "build_sweep_graph", _refuse_graph)
        monkeypatch.setattr(sweep_module, "build_single_graph",
                            _refuse_graph)
        plant = reference_plant._replace(wear_t_nominal=1e-320)
        with pytest.raises(ValidationError) as excinfo:
            if entry == "run_sweep":
                run_sweep(plant, reference_sweep)
            else:
                run_single(plant, 1.0)
        assert excinfo.value.field == "t_nominal"

    def test_too_fine_scan_step_names_k_step(self, reference_plant,
                                             reference_sweep):
        # 2.4 M points; the refusal used to be a bare InvalidRange.
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant, reference_sweep._replace(k_step=1e-6))
        assert excinfo.value.field == "k_step"

    @pytest.mark.parametrize("budget", [500, 39_000])
    def test_insufficient_budget_refused_before_any_tick(
            self, reference_plant, reference_sweep, monkeypatch, budget):
        # An operation at control 0.6 steps 39,676 ticks.
        monkeypatch.setattr(sweep_module, "build_sweep_graph", _refuse_graph)
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant,
                      reference_sweep._replace(tick_budget=budget))
        assert excinfo.value.field == "tick_budget"
        assert "at control 0.6," in str(excinfo.value)
        assert "exhausted" not in str(excinfo.value)
        assert f"steps more than {budget} ticks" in str(excinfo.value)

    def test_tick_budget_caps_each_operation(self, reference_plant,
                                             reference_sweep):
        # The longest operation (control 0.6) steps 39,676 ticks, the
        # whole sweep about 146k.  A sweep at exactly that budget is
        # checked in TestRunSingle; here a 40,000 budget completes a
        # single run, and 39,000 stops the sweep at its first operation.
        single = run_single(reference_plant, 0.8, tick_budget=40_000)
        assert len(single.records) == 1
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(reference_plant,
                      reference_sweep._replace(tick_budget=39_000))
        assert excinfo.value.field == "tick_budget"
        assert "at control 0.6," in str(excinfo.value)

    def test_repeat_run_bit_identical(self, reference_plant, reference_sweep,
                                      coarse_report):
        again = run_sweep(reference_plant, reference_sweep)
        assert again.records == coarse_report.records
        assert again.pulse_events == coarse_report.pulse_events


class TestRunSingle:
    def test_single_operation_report(self, reference_plant):
        report = run_single(reference_plant, 1.0)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.control_k == 1.0
        op = oracle_operation(reference_plant, 1.0)
        assert rec.t_op == pytest.approx(op["t_op"], rel=0.005)
        assert report.extremum.index == 0

    def test_single_below_floor_rejected(self, reference_plant):
        with pytest.raises(ValidationError) as excinfo:
            run_single(reference_plant, 0.3)
        assert excinfo.value.field == "control_k"

    @pytest.mark.parametrize("dt", BAD_DTS)
    def test_bad_dt_rejected_at_entry(self, reference_plant, dt):
        with pytest.raises(ValidationError) as excinfo:
            run_single(reference_plant, 1.0, dt=dt)
        assert excinfo.value.field == "dt"

    def test_dt_at_resolution_limit_accepted(self, reference_plant):
        report = run_single(reference_plant, 1.0, dt=1.0)
        assert report.records[0].valid

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("attr, field", PLANT_FIELDS)
    def test_bad_plant_field_rejected_at_entry(self, reference_plant, attr,
                                               field, value):
        plant = reference_plant._replace(**{attr: value})
        with pytest.raises(ValidationError) as excinfo:
            run_single(plant, 1.0)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("kwargs, field", BAD_SINGLE_ARGS,
                             ids=["nan_control", "inf_control", "zero_budget",
                                  "fractional_budget", "unknown_criterion",
                                  "overflowing_wear", "bool_budget"])
    def test_bad_argument_rejected_at_entry(self, reference_plant,
                                            monkeypatch, kwargs, field):
        monkeypatch.setattr(sweep_module, "build_single_graph",
                            _refuse_graph)
        args = {"control_k": 1.0, **kwargs}
        with pytest.raises(ValidationError) as excinfo:
            run_single(reference_plant, **args)
        assert excinfo.value.field == field

    def test_budget_of_predicted_need_passes_and_one_less_is_refused(
            self, reference_plant, reference_sweep, coarse_report,
            monkeypatch):
        # The sweep's longest operation is at control 0.6; the single run
        # takes control 1.0.  A budget caps each operation, not the run.
        sweep_need = _budget_needed(reference_plant, 0.6, 0.1)
        single_need = _budget_needed(reference_plant, 1.0, 0.1)
        assert (sweep_need, single_need) == (39_676, 15_472)
        sweep = reference_sweep._replace(tick_budget=sweep_need)
        assert run_sweep(reference_plant, sweep).records == \
            coarse_report.records
        assert run_single(reference_plant, 1.0,
                          tick_budget=single_need).records[0].valid

        monkeypatch.setattr(sweep_module, "build_sweep_graph", _refuse_graph)
        monkeypatch.setattr(sweep_module, "build_single_graph",
                            _refuse_graph)
        refused = [
            (lambda: run_sweep(reference_plant,
                               sweep._replace(tick_budget=sweep_need - 1)),
             0.6),
            (lambda: run_single(reference_plant, 1.0,
                                tick_budget=single_need - 1), 1.0)]
        for run, k in refused:
            with pytest.raises(ValidationError) as excinfo:
                run()
            assert excinfo.value.field == "tick_budget"
            assert f"at control {k:g}," in str(excinfo.value)

    def test_custom_criterion_threading(self, reference_plant):
        report = run_single(reference_plant, 1.0, criterion="value_added")
        rec = report.records[0]
        assert report.extremum.score == pytest.approx(rec.pe - rec.re,
                                                      rel=1e-12)


class TestRandomFeasiblePlants:
    """Properties over random feasible plants.

    Error bound: each of the three phase ends (fill, heating, release) is
    quantised to one step, and explicit Euler shifts the end of heating by
    about -ln(1 - k_zero/k) / 2 steps, under one step for controls at
    least 1.2x the floor (1.26 k_zero).  A correct run is therefore within
    4 steps of the closed form in t_op, and in the heating time that rpv
    and rwv are proportional to.
    """

    ERROR_STEPS = 3 + 1

    @settings(max_examples=25, deadline=None)
    @given(feasible_cases())
    def test_records_near_closed_form_and_equal_single_twins(self, case):
        plant, sweep, k_zero, dt = case
        report = run_sweep(plant, sweep, dt=dt)
        ks = enumerate_scan_values(sweep.k_min, sweep.k_max, sweep.k_step)
        assert [rec.control_k for rec in report.records] == ks
        assert len(ks) == 3
        for rec in report.records:
            assert -math.log1p(-k_zero / rec.control_k) / 2 < 1.0
            op = oracle_operation(plant, rec.control_k)
            bound = self.ERROR_STEPS * dt / op["heat_time"]
            for field in ("t_op", "rpv", "rwv"):
                assert abs(getattr(rec, field) - op[field]) <= \
                    bound * op[field]
            single = run_single(plant, rec.control_k, dt=dt).records[0]
            assert single._replace(num=rec.num) == rec

    @settings(max_examples=25, deadline=None)
    @given(feasible_cases(), st.integers(0, 2))
    def test_budget_of_ticks_taken_is_accepted(self, case, index):
        plant, sweep, _, dt = case
        k = enumerate_scan_values(sweep.k_min, sweep.k_max,
                                  sweep.k_step)[index]
        report = run_single(plant, k, dt=dt)
        again = run_single(plant, k, dt=dt,
                           tick_budget=_budget_needed(plant, k, dt))
        assert again.records == report.records


class TestOracleTicks:
    """The discrete twin against the simulation, tick for tick."""

    @settings(max_examples=100, deadline=None)
    @given(twin_cases())
    @example((ROUND_PLANT, 0.5, 0.1))
    def test_twin_equals_simulated_ticks(self, case):
        plant, k, dt = case
        report = run_single(plant, k, dt=dt)
        twin = oracle_ticks(plant, k, dt, DEFAULT_TICK_BUDGET)
        assert _phase_ticks(report) == twin
        assert report.records[0].t_op == sum(twin) * dt

    def test_round_plant_is_where_the_closed_form_falls_short(self):
        heat_s = oracle_heating_time(ROUND_PLANT, 0.5)
        assert math.ceil(heat_s / 0.1) == 1000
        assert oracle_ticks(ROUND_PLANT, 0.5, 0.1,
                            DEFAULT_TICK_BUDGET) == (100, 1001, 100)

    def test_replay_stops_at_the_limit(self, reference_plant):
        need = _budget_needed(reference_plant, 1.0, 0.1)
        assert oracle_ticks(reference_plant, 1.0, 0.1, need - 1) is not None
        assert oracle_ticks(reference_plant, 1.0, 0.1, need - 2) is None
        assert oracle_ticks(reference_plant, 1.0, 0.1, 0) is None

    def test_replay_that_stalls_below_the_setpoint_ends_at_the_limit(self):
        # 1 ulp above the asymptote the closed form heats for about
        # 79,410 s, but the replayed Euler temperature stalls just below
        # the 70.0 setpoint, so only the limit ends the replay.
        plant = make_reference_plant()._replace(heater_efficiency=0.9)
        k = math.nextafter(950 / 1800, 1)
        assert oracle_heating_time(plant, k) == pytest.approx(79_409.86,
                                                              abs=0.01)
        assert oracle_ticks(plant, k, 1.0, 1_000_000) is None

    def test_infeasible_control_refused(self, reference_plant):
        with pytest.raises(ValidationError) as excinfo:
            oracle_ticks(reference_plant, 0.5, 0.1, DEFAULT_TICK_BUDGET)
        assert excinfo.value.field == "control_k"

    @settings(max_examples=200, deadline=None)
    @given(asymptote_cases())
    @example((make_reference_plant()._replace(heater_efficiency=0.9),
              950 / 1800))
    def test_twins_and_plant_give_one_verdict_at_the_asymptote(self, case):
        # In the example k*(P*eta), as the plant groups it, is exactly
        # the 950 W lost at the setpoint, so all three refuse; (k*P)*eta
        # rounds 1 ulp above it.
        plant, k = case
        refused = _refuses(oracle_heating_time, plant, k)
        assert _refuses(oracle_ticks, plant, k, 0.1, 0) == refused
        assert BatchHeaterPlant("plant", plant).reaches_setpoint(k) \
            != refused

    @pytest.mark.parametrize("direction", ["ascending", "descending"])
    def test_plan_holds_the_twins_in_scan_order(
            self, reference_plant, reference_sweep, coarse_report, direction):
        sweep = reference_sweep._replace(direction=direction)
        ks = enumerate_scan_values(sweep.k_min, sweep.k_max, sweep.k_step,
                                   sweep.direction_code())
        plan, dt_limit = sweep_module.check_entry(
            reference_plant, ks, 0.1, sweep.tick_budget, ("k_min", "k_max"))
        assert [op.control_k for op in plan] == ks
        for op in plan:
            assert (op.fill, op.heat, op.release) == oracle_ticks(
                reference_plant, op.control_k, 0.1, DEFAULT_TICK_BUDGET)
            assert op.heat_time == oracle_heating_time(reference_plant,
                                                       op.control_k)
        assert dt_limit == 1.0
        # Every operation's steps, then the tick that halts the sweep.
        last_tick = round(coarse_report.pulse_events[-1][1] / 0.1)
        assert sum(op.steps for op in plan) + 1 == 146_227 == last_tick + 1

    @pytest.mark.parametrize("shift", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("path, num", [("sweep", 3), ("single", 1)])
    def test_run_off_the_twin_names_the_operation(
            self, reference_plant, reference_sweep, monkeypatch, path, num,
            shift):
        # A run steps each operation for the twin's ticks and requires it
        # to end with PTF on the last, so a twin one heating tick off at
        # the third control stops the run at that operation.
        ks = enumerate_scan_values(reference_sweep.k_min,
                                   reference_sweep.k_max,
                                   reference_sweep.k_step)
        k = ks[2]

        def shifted(plant, control_k, dt, limit=None):
            fill, heat, release = oracle_ticks(plant, control_k, dt, limit)
            return fill, heat + (shift if control_k == k else 0), release

        monkeypatch.setattr(sweep_module, "oracle_ticks", shifted)
        with pytest.raises(SimulationError) as excinfo:
            if path == "sweep":
                run_sweep(reference_plant, reference_sweep, dt=1.0)
            else:
                run_single(reference_plant, k, dt=1.0)
        assert excinfo.type is SimulationError
        assert f"operation {num} at control {k:g} " in str(excinfo.value)
