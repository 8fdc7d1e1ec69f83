"""Plant physics: phase protocol, thermal closed forms, wear law and
feasibility guard.

The analytic heating times used here are restated independently instead
of importing the production oracle, and the lossy case is additionally
cross-checked with a fine-step integration written in this file.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from batchsim import (BatchHeaterPlant, Constant, FEASIBILITY_MARGIN,
                      NeverReachesSetpoint, PlantConfig, PulseTrain,
                      ResettableIntegrator, SimClock, UnitCosts,
                      WearRateGenerator, build_graph, feasible_control_range,
                      run_until, step, wear_rate)

from conftest import make_reference_plant

CHEAP_COSTS = UnitCosts(raw=0.1, energy=1e-6, wear=10.0, output=0.5)


def make_plant(loss_coeff=0.0, eta=1.0, setpoint=70.0, alpha=2.0,
               t_nominal=1e4, fill_rate=1.0, release=1.0):
    return PlantConfig(
        batch_volume=10.0, fill_rate=fill_rate, release_intensity=release,
        ambient_temp=20.0, setpoint=setpoint, heat_capacity=41860.0,
        loss_coeff=loss_coeff, heater_nominal_power=2000.0,
        heater_efficiency=eta, wear_t_nominal=t_nominal, wear_alpha=alpha,
        unit_costs=CHEAP_COSTS)


def analytic_heating_time(cfg, k):
    """Independent restatement of the linear-loss solution."""
    power = k * cfg.heater_nominal_power * cfg.heater_efficiency
    delta = cfg.setpoint - cfg.ambient_temp
    if cfg.loss_coeff == 0.0:
        return cfg.heat_capacity * delta / power
    x = cfg.loss_coeff * delta / power
    return -(cfg.heat_capacity / cfg.loss_coeff) * math.log(1.0 - x)


def fine_step_heating_time(cfg, k, dt=1e-3):
    """Brute-force integration of dT/dt at a much finer step."""
    temp = cfg.ambient_temp
    power = k * cfg.heater_nominal_power * cfg.heater_efficiency
    t = 0.0
    while temp < cfg.setpoint:
        temp += dt * (power - cfg.loss_coeff * (temp - cfg.ambient_temp)) \
            / cfg.heat_capacity
        t += dt
        if t > 1e7:
            raise AssertionError("fine-step integration did not converge")
    return t


def run_one_operation(cfg, k, dt=0.1):
    """Drive a plant through one full operation with its flow volumes
    metered by integrators (rtv, rpv, ptv, and rwv fed by the wear-rate
    generator), all reset by RTB; returns the pulse tick times and the
    graph."""
    plant = BatchHeaterPlant("plant", cfg)
    blocks = [Constant("control", k), plant,
              WearRateGenerator("wear", cfg.heater_nominal_power,
                                cfg.wear_t_nominal, cfg.wear_alpha)]
    wires = [("control.OUT", "plant.CL"), ("plant.RP", "wear.IN")]
    for name, source in (("rtv", "plant.RT"), ("rpv", "plant.RP"),
                         ("ptv", "plant.PT"), ("rwv", "wear.OUT")):
        blocks.append(ResettableIntegrator(name))
        wires += [(source, f"{name}.IN"), ("plant.RTB", f"{name}.RES")]
    graph = build_graph(blocks, wires)
    run_until(graph, SimClock(dt=dt),
              lambda g, c: any(name == "ptf" for name, _ in plant.events),
              tick_budget=2_000_000)
    pulses = {}
    for name, tick in plant.events:
        pulses.setdefault(name.upper(), []).append(tick)
    return pulses, graph


class TestHeatingPhysics:
    def test_zero_loss_closed_form(self):
        # C*dT/(k*P*eta) = 41860*50/2000 = 1046.5 s at k=1, eta=1, h=0.
        cfg = make_plant(loss_coeff=0.0, eta=1.0)
        pulses, graph = run_one_operation(cfg, 1.0)
        heat_time = (pulses["RED"][0] - pulses["RTF"][0]) * 0.1
        assert heat_time == pytest.approx(1046.5, rel=0.005)
        assert graph.value("rpv.OUT") == pytest.approx(2.093e6, rel=0.005)

    def test_lossy_heating_matches_analytic_and_fine_step(self):
        cfg = make_plant(loss_coeff=19.0, eta=0.95)
        for k in (0.7, 1.0, 1.8):
            expected = analytic_heating_time(cfg, k)
            brute = fine_step_heating_time(cfg, k)
            assert brute == pytest.approx(expected, rel=1e-3)
            pulses, _ = run_one_operation(cfg, k)
            heat_time = (pulses["RED"][0] - pulses["RTF"][0]) * 0.1
            assert heat_time == pytest.approx(expected, rel=0.005)

    def test_exact_asymptote_never_reaches_setpoint(self):
        # k*P*eta == h*dT makes the asymptote equal the setpoint.
        cfg = make_plant(loss_coeff=20.0, eta=1.0)  # h*dT = 1000 W
        k = 0.5  # k*P*eta = 1000 W
        plant = BatchHeaterPlant("plant", cfg)
        graph = build_graph([Constant("control", k), plant],
                            [("control.OUT", "plant.CL")])
        clock = SimClock(dt=0.1)
        with pytest.raises(NeverReachesSetpoint) as excinfo:
            step(graph, clock)
        assert excinfo.value.control_k == k

    def test_heating_time_converges_linearly_in_dt(self):
        # Mean error over several incommensurate control levels; a single
        # point is dominated by crossing-tick quantization and can alias
        # between step sizes.
        cfg = make_plant(loss_coeff=19.0, eta=0.95)
        ks = (0.67, 0.9, 1.13, 1.45, 1.78, 2.21, 2.64)
        means = []
        for dt in (0.4, 0.2, 0.1):
            errs = []
            for k in ks:
                pulses, _ = run_one_operation(cfg, k, dt=dt)
                heat_time = (pulses["RED"][0] - pulses["RTF"][0]) * dt
                errs.append(abs(heat_time - analytic_heating_time(cfg, k)))
            means.append(sum(errs) / len(errs))
            assert means[-1] <= 2.0 * dt  # O(dt) bound
        # Halving dt twice: each halving shrinks the mean error clearly.
        assert means[1] <= means[0] * 0.75
        assert means[2] <= means[1] * 0.75

    def test_energy_volume_constant_in_k_without_losses(self):
        # With h=0 the drawn energy is C*dT/eta regardless of the load
        # level: faster heating saves time, not energy.
        cfg = make_plant(loss_coeff=0.0, eta=1.0)
        volumes = []
        for k in (0.5, 1.0, 2.0, 3.0):
            _, graph = run_one_operation(cfg, k)
            volumes.append(graph.value("rpv.OUT"))
        expected = 41860.0 * 50.0
        for v in volumes:
            assert v == pytest.approx(expected, rel=0.005)

    def test_temperature_never_below_ambient_while_heating(self):
        cfg = make_plant(loss_coeff=19.0, eta=0.95)
        plant = BatchHeaterPlant("plant", cfg)
        graph = build_graph([Constant("control", 1.0), plant],
                            [("control.OUT", "plant.CL")])
        clock = SimClock(dt=0.1)
        for _ in range(5000):
            step(graph, clock)
            assert plant.out["TMP"] >= cfg.ambient_temp


class TestOperationProtocol:
    def test_pulse_order_and_single_firing(self):
        cfg = make_plant(loss_coeff=19.0, eta=0.95)
        pulses, _ = run_one_operation(cfg, 1.5)
        assert [len(pulses[p]) for p in ("RTB", "RTF", "RED", "PTF")] \
            == [1, 1, 1, 1]
        assert (pulses["RTB"][0] < pulses["RTF"][0]
                < pulses["RED"][0] < pulses["PTF"][0])

    def test_mass_conservation_through_integrators(self):
        cfg = make_plant(loss_coeff=19.0, eta=0.95, fill_rate=0.7,
                         release=1.3)
        _, graph = run_one_operation(cfg, 1.0)
        assert graph.value("rtv.OUT") == pytest.approx(10.0, rel=1e-12)
        assert graph.value("ptv.OUT") == pytest.approx(10.0, rel=1e-12)
        assert graph.block("plant").mass == 0.0

    def test_operation_time_includes_fill_and_release(self):
        cfg = make_plant(loss_coeff=0.0, eta=1.0, fill_rate=2.0, release=0.5)
        pulses, _ = run_one_operation(cfg, 1.0)
        t_op = (pulses["PTF"][0] - pulses["RTB"][0]) * 0.1
        # 5 s fill + 1046.5 s heat + 20 s release, plus phase ticks.
        assert t_op == pytest.approx(5.0 + 1046.5 + 20.0, abs=2.0)

    def test_single_tick_fill_still_follows_protocol(self):
        # fill_rate*dt exceeds the batch: the fill scales to land exactly
        # on the batch volume within one tick.
        cfg = make_plant(loss_coeff=0.0, eta=1.0, fill_rate=500.0)
        pulses, graph = run_one_operation(cfg, 1.0)
        assert pulses["RTF"][0] == pulses["RTB"][0] + 1
        assert graph.value("rtv.OUT") == pytest.approx(10.0, rel=1e-12)

    def test_back_to_back_operations_reset_state(self):
        cfg = make_plant(loss_coeff=19.0, eta=0.95)
        plant = BatchHeaterPlant("plant", cfg)
        graph = build_graph([Constant("control", 2.0), plant],
                            [("control.OUT", "plant.CL")])
        run_until(graph, SimClock(dt=0.1),
                  lambda g, c: sum(n == "ptf" for n, _ in plant.events) >= 3,
                  tick_budget=2_000_000)
        ptf_ticks = [tick for name, tick in plant.events if name == "ptf"]
        spans = [b - a for a, b in zip(ptf_ticks, ptf_ticks[1:])]
        assert spans[0] == spans[1]  # identical operations tick for tick


class TestWearLaw:
    def test_nominal_mode_consumes_inverse_t_nominal(self):
        for alpha in (0.0, 1.0, 2.5, 7.0):
            cfg = make_plant(alpha=alpha, t_nominal=1e4)
            assert wear_rate(1.0, cfg) == pytest.approx(1e-4, rel=1e-12)

    def test_power_law_rate(self):
        cfg = make_plant(alpha=2.0, t_nominal=1e4)
        assert wear_rate(2.0, cfg) == pytest.approx(4e-4, rel=1e-12)

    def test_alpha_zero_ignores_mode(self):
        cfg = make_plant(alpha=0.0, t_nominal=1e4)
        for k in (0.25, 1.0, 3.0, 10.0):
            assert wear_rate(k, cfg) == pytest.approx(1e-4, rel=1e-12)

    def test_generator_block_matches_function(self):
        cfg = make_plant(alpha=3.0, t_nominal=3.6e6)
        gen = WearRateGenerator("wear", cfg.heater_nominal_power,
                                cfg.wear_t_nominal, cfg.wear_alpha)
        for k in (0.5, 1.0, 1.7, 2.9):
            graph = build_graph(
                [Constant("rate", k * cfg.heater_nominal_power),
                 WearRateGenerator("wear", cfg.heater_nominal_power,
                                   cfg.wear_t_nominal, cfg.wear_alpha)],
                [("rate.OUT", "wear.IN")])
            clock = SimClock(dt=0.1)
            step(graph, clock)
            assert graph.value("wear.OUT") == pytest.approx(
                wear_rate(k, cfg), rel=1e-12)
        assert gen.out["OUT"] == 0.0  # idle heater wears nothing

    def test_wear_volume_increasing_in_k_without_losses(self):
        # With h=0 the per-operation wear is k**(alpha-1) * C*dT/(T_n*P*eta),
        # strictly increasing for alpha > 1.
        cfg = make_plant(loss_coeff=0.0, eta=1.0, alpha=2.0, t_nominal=1e4)
        volumes = []
        for k in (0.5, 1.0, 1.5, 2.0, 3.0):
            pulses, graph = run_one_operation(cfg, k)
            volumes.append(graph.value("rwv.OUT"))
        assert all(b > a for a, b in zip(volumes, volumes[1:]))


class TestFeasibility:
    def test_no_loss_floor_is_margin_only(self):
        cfg = make_plant(loss_coeff=0.0)
        assert feasible_control_range(cfg) == FEASIBILITY_MARGIN

    def test_loss_bound_scaled_by_margin(self):
        # h*dT = 500 W against P*eta = 2000 W -> 0.25 * 1.05.
        cfg = make_plant(loss_coeff=10.0, eta=1.0)
        assert feasible_control_range(cfg) == pytest.approx(0.2625, rel=1e-12)

    def test_setpoint_at_ambient_needs_only_margin(self):
        cfg = make_plant(loss_coeff=10.0, setpoint=20.0)
        assert feasible_control_range(cfg) == FEASIBILITY_MARGIN

    def test_reference_config_floor(self):
        cfg = make_reference_plant()
        # 19*50 / (2000*0.95) * 1.05 = 0.525
        assert feasible_control_range(cfg) == pytest.approx(0.525, rel=1e-12)
