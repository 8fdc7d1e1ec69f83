"""Exact record twin: a whole-run differential over random plants.

``replay_operation`` is the plainest statement of what one operation's
record holds.  It calls the plant's own ``fill_tick``, ``heat_tick`` and
``release_tick``, then applies, in the order the graph evaluates them,
the four integrators (reset on the start tick), the wear generator from
``RP / P_nom``, the cost products, the input-cost sum added from 0.0 in
port order and the timer, as whole ticks times dt.  It builds no graph,
so ``run_sweep`` and ``run_single`` must reproduce it bit for bit on any
plant, not just on the reference one that the golden digests pin.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from batchsim import (BatchHeaterPlant, OperationRecord, SweepConfig,
                      compute_indicators, enumerate_scan_values,
                      feasible_control_range, oracle_heating_time,
                      run_single, run_sweep)

from conftest import make_reference_plant


def replay_operation(plant_cfg, control_k, dt, num):
    """The record of one operation at ``control_k``, numbered ``num``."""
    plant = BatchHeaterPlant("twin", plant_cfg)
    p_nom = plant_cfg.heater_nominal_power
    # Each tick's flow rates (RT, RP, PT); the start tick raises RTB and
    # moves nothing.
    flows = [(0.0, 0.0, 0.0)]
    mass, done = 0.0, False
    while not done:
        rt, mass, done = plant.fill_tick(mass, dt)
        flows.append((rt, 0.0, 0.0))
    temp, done = plant_cfg.ambient_temp, False
    while not done:
        temp, done = plant.heat_tick(temp, control_k, dt)
        flows.append((0.0, control_k * p_nom, 0.0))
    done = False
    while not done:
        pt, mass, done = plant.release_tick(mass, dt)
        flows.append((0.0, 0.0, pt))
    rtv = rpv = ptv = rwv = 0.0
    for rt, rp, pt in flows:
        wear = ((rp / p_nom) ** plant_cfg.wear_alpha
                / plant_cfg.wear_t_nominal if rp > 0.0 else 0.0)
        rtv += rt * dt
        rpv += rp * dt
        ptv += pt * dt
        rwv += wear * dt
    costs = plant_cfg.unit_costs
    re = 0.0 + rtv * costs.raw + rpv * costs.energy + rwv * costs.wear
    pe = ptv * costs.output
    t_op = (len(flows) - 1) * dt
    return OperationRecord(num, control_k, t_op, rtv, rpv, ptv, rwv, re, pe,
                           *compute_indicators(re, pe, t_op))


def replay_sweep(plant_cfg, sweep, dt):
    ks = enumerate_scan_values(sweep.k_min, sweep.k_max, sweep.k_step,
                               sweep.direction_code())
    return [replay_operation(plant_cfg, k, dt, num)
            for num, k in enumerate(ks, start=1)]


def magnitudes(low_exp, high_exp):
    """Floats spread over decades, from 10**low_exp to 10**high_exp."""
    return st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e)


@st.composite
def record_cases(draw):
    """(plant, sweep, dt, index): a random valid plant, a sweep of 2 to 5
    controls from its feasible floor up to 9x it, either direction, with
    or without the boundary stop, a dt from a twentieth of the entry
    check's limit up to the limit, and one scan index for ``run_single``.
    Losses and wear growth are zero as often as not.  Heating at the top
    control and the release each last 0.5 to 2 fills, so a case runs a
    few thousand ticks at most."""
    fill_s = draw(st.floats(1.0, 100.0))
    volume = draw(magnitudes(-1, 3))
    ambient = draw(st.floats(-20.0, 40.0))
    costs = make_reference_plant().unit_costs._replace(
        raw=draw(magnitudes(-4, 2)), energy=draw(magnitudes(-9, -3)),
        wear=draw(magnitudes(0, 5)), output=draw(magnitudes(-4, 2)))
    plant = make_reference_plant()._replace(
        batch_volume=volume, fill_rate=volume / fill_s,
        release_intensity=volume / (fill_s * draw(st.floats(0.5, 2.0))),
        ambient_temp=ambient, setpoint=ambient + draw(st.floats(1.0, 90.0)),
        heater_nominal_power=draw(magnitudes(2, 5)),
        heater_efficiency=draw(st.just(1.0) | st.floats(0.1, 1.0)),
        loss_coeff=draw(st.just(0.0) | magnitudes(-2, 2)),
        wear_t_nominal=draw(magnitudes(2, 8)),
        wear_alpha=draw(st.just(0.0) | st.floats(0.0, 4.0)),
        unit_costs=costs)
    low = feasible_control_range(plant) * draw(st.floats(1.0, 3.0))
    high = low * draw(st.floats(1.01, 3.0))
    # Heating time is linear in the heat capacity.
    per_capacity = oracle_heating_time(plant._replace(heat_capacity=1.0),
                                       high)
    plant = plant._replace(heat_capacity=fill_s * draw(st.floats(0.5, 2.0))
                           / per_capacity)
    sweep = SweepConfig(
        k_min=low, k_max=high,
        k_step=(high - low) / draw(st.floats(0.5, 3.5)),
        direction=draw(st.sampled_from(["ascending", "descending"])),
        stop_on_boundary=draw(st.booleans()))
    ks = enumerate_scan_values(sweep.k_min, sweep.k_max, sweep.k_step)
    # The entry check's dt limit, computed as it computes it.
    limit = min(plant.batch_volume / plant.fill_rate,
                plant.batch_volume / plant.release_intensity,
                *(oracle_heating_time(plant, k) for k in ks)) / 10.0
    dt = limit * draw(st.just(1.0) | st.floats(0.05, 1.0))
    return plant, sweep, dt, draw(st.integers(0, len(ks) - 1))


@settings(max_examples=200, deadline=None)
@given(record_cases())
def test_runs_equal_the_replay_bit_for_bit(case):
    plant, sweep, dt, index = case
    expected = replay_sweep(plant, sweep, dt)
    # repr, so NaN and -0.0 compare exactly.
    assert repr(run_sweep(plant, sweep, dt=dt).records) == repr(expected)
    single = run_single(plant, expected[index].control_k, dt=dt).records
    assert repr(single) == repr([expected[index]._replace(num=1)])


def test_replay_matches_the_reference_sweep(coarse_report, reference_plant,
                                            reference_sweep):
    # The golden config, at the dt the report digests pin.
    assert repr(coarse_report.records) == repr(
        replay_sweep(reference_plant, reference_sweep, 0.1))
