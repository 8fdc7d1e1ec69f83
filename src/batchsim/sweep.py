"""Control-range sweep orchestration.

Wires the full experiment graph (scanner -> plant -> instruments ->
economics -> report latch), runs one complete operation per scan point,
and locates the optimum of the configured criterion across the range.

Closed-form twins of the simulated quantities live here too: heating
time from the linear loss model and per-operation flow volumes.  They
never touch the tick engine, which makes them usable as independent
checks on the simulated results and as a cheap dense scan when
bracketing an extremum.  The discrete twin ``oracle_ticks`` replays the
plant's per-tick updates instead, and so gives each phase's exact tick
count: the entry check plans each operation from it, holds the tick
budget to that plan, and a run steps each operation as planned.
"""

from __future__ import annotations

from itertools import count, islice
from math import inf, log1p
from typing import NamedTuple

from . import econ, kernel
from .blocks import (Constant, IntervalTimer, Multiplier, PulseTrain,
                     RangeScanner, ReportGenerator, ResettableIntegrator,
                     Summator, UnitDelay, enumerate_scan_values)
from .config import (DEFAULT_CRITERION, DEFAULT_TICK_BUDGET, SweepConfig,
                     ValidationError, _require_positive, validate_plant_config,
                     validate_run_settings, validate_sweep_config)
from .econ import (BUILTIN_CRITERIA, Criterion, OperationRecord,
                   compute_indicators)
from .kernel import BlockGraph, SimClock, SimulationError, build_graph
from .plant import (BatchHeaterPlant, PlantConfig, WearRateGenerator,
                    feasible_control_range, wear_rate)

DEFAULT_DT = 0.1

# Sources of report IN1..IN8 in OperationRecord field order; IN9, IN10 read 0.
_REPORT_SOURCES = ("control.OUT", "op_timer.TIM", "rtv_int.OUT",
                   "rpv_int.OUT", "ptv_int.OUT", "rwv_int.OUT", "re_sum.OUT",
                   "output_value.OUT")


class NoValidRecords(SimulationError):
    """Extremum requested over a record set with no valid entries."""


class OperationPlan(NamedTuple):
    """One operation as the entry check plans it: its control, the
    closed-form heating time and the twin's phase tick counts."""

    control_k: float
    heat_time: float
    fill: int
    heat: int
    release: int

    @property
    def steps(self) -> int:
        """Ticks the operation steps: a start tick, which raises RTB,
        then its fill, heat and release ticks."""
        return 1 + self.fill + self.heat + self.release


class ExtremumResult(NamedTuple):
    """Best record under a criterion: list index, control and score."""

    index: int
    control_k: float
    score: float


class SweepReport(NamedTuple):
    """Ordered sweep outcome plus the located extremum.

    ``pulse_events`` is the ordered (channel, time) stream of the four
    phase pulses (rtb, rtf, red, ptf), times in seconds from the start of
    the run, kept for protocol verification.
    """

    records: list[OperationRecord]
    criterion: str
    extremum: ExtremumResult
    pulse_events: list[tuple[str, float]]
    dt: float


def oracle_heating_time(config: PlantConfig, control_k: float) -> float:
    """Closed-form heating duration for the linear loss model.

    Solves dT/dt = (k*P*eta - h*(T - T_amb)) / C from ambient up to the
    setpoint.  With losses the time is -(C/h)*ln(1 - h*dT/(k*P*eta));
    without losses it degrades to C*dT/(k*P*eta).  log1p keeps the h -> 0
    limit numerically clean.  A control whose delivered power does not
    beat the losses at the setpoint is refused; the power is grouped as
    the plant groups it, k*(P*eta), so the two refuse the same controls.
    """
    power = control_k * (config.heater_nominal_power
                         * config.heater_efficiency)
    delta = config.setpoint - config.ambient_temp
    loss = config.loss_coeff * delta
    if power <= loss:
        raise ValidationError(
            "control_k", f"{control_k:g} is infeasible: delivered power "
            f"{power:g} W cannot overcome losses {loss:g} W at the setpoint")
    if config.loss_coeff == 0.0:
        return config.heat_capacity * delta / power
    return -(config.heat_capacity / config.loss_coeff) * log1p(-loss / power)


def oracle_operation(config: PlantConfig, control_k: float) -> dict[str, float]:
    """Closed-form per-operation times and flow volumes at one control."""
    heat = oracle_heating_time(config, control_k)
    fill = config.batch_volume / config.fill_rate
    release = config.batch_volume / config.release_intensity
    rpv = control_k * config.heater_nominal_power * heat
    rwv = wear_rate(control_k, config) * heat
    return {
        "heat_time": heat,
        "t_op": fill + heat + release,
        "rtv": config.batch_volume,
        "rpv": rpv,
        "ptv": config.batch_volume,
        "rwv": rwv,
    }


def oracle_ticks(config: PlantConfig, control_k: float, dt: float,
                 limit: int) -> tuple[int, int, int] | None:
    """Fill, heat and release tick counts of one operation at
    ``control_k``, by replaying the plant's own per-tick updates, so they
    equal a run's counts exactly.  (A ceil of the closed forms can be a
    tick short: the simulated temperature accumulates rounding.)  The
    replay counts at most ``limit`` ticks: a longer operation gives None.
    A control that never heats the batch is refused by the closed form.
    """
    oracle_heating_time(config, control_k)
    plant = BatchHeaterPlant("twin", config)
    # One counter across the phases: each loop leaves it at the number
    # of operation ticks so far.
    ticks = islice(count(1), limit)
    mass = 0.0
    for fill in ticks:
        _, mass, done = plant.fill_tick(mass, dt)
        if done:
            break
    else:
        return None
    temp = config.ambient_temp
    for heat in ticks:
        temp, done = plant.heat_tick(temp, control_k, dt)
        if done:
            break
    else:
        return None
    for release in ticks:
        _, mass, done = plant.release_tick(mass, dt)
        if done:
            break
    else:
        return None
    return fill, heat - fill, release - heat


def oracle_cost_curve(config: PlantConfig,
                      ks: list[float]) -> list[tuple[float, float]]:
    """(k, input cost) pairs from the closed forms, for dense scans."""
    curve = []
    for k in ks:
        op = oracle_operation(config, k)
        re, _ = econ.aggregate_costs(
            econ.FlowVolumes(op["rtv"], op["rpv"], op["ptv"], op["rwv"]),
            config.unit_costs)
        curve.append((k, re))
    return curve


def find_extremum(records: list[OperationRecord],
                  criterion: Criterion) -> ExtremumResult:
    """Index of the maximal criterion score among valid records.

    Ties break toward the lower control level (at equal merit the
    gentler mode wins), then toward the earlier record, which max keeps.
    """
    def rank(i: int) -> tuple[float, float]:
        return criterion.score(records[i]), -records[i].control_k
    best = max((i for i, rec in enumerate(records) if rec.valid),
               key=rank, default=None)
    if best is None:
        raise NoValidRecords("no valid operation records to rank")
    return ExtremumResult(best, records[best].control_k, rank(best)[0])


def _instrument_wiring(plant_cfg: PlantConfig) -> tuple[list, list]:
    """Blocks and wires shared by the sweep and single-operation graphs:
    plant, wear generator, four reset integrators, cost network, timer
    and report latch.  The caller adds the block "control" that drives
    the plant load level.  The report latches ``_REPORT_SOURCES`` on the
    PTF tick."""
    uc = plant_cfg.unit_costs
    blocks = [
        BatchHeaterPlant("plant", plant_cfg),
        WearRateGenerator("wear_gen", plant_cfg.heater_nominal_power,
                          plant_cfg.wear_t_nominal, plant_cfg.wear_alpha),
        ResettableIntegrator("rtv_int"),
        ResettableIntegrator("rpv_int"),
        ResettableIntegrator("ptv_int"),
        ResettableIntegrator("rwv_int"),
        Constant("raw_price", uc.raw),
        Constant("energy_price", uc.energy),
        Constant("wear_price", uc.wear),
        Constant("output_price", uc.output),
        Multiplier("raw_cost"),
        Multiplier("energy_cost"),
        Multiplier("wear_cost"),
        Multiplier("output_value"),
        Summator("re_sum", n_inputs=3),
        IntervalTimer("op_timer"),
        ReportGenerator("report"),
    ]
    wires = [
        ("control.OUT", "plant.CL"),
        ("plant.RP", "wear_gen.IN"),
        ("plant.RT", "rtv_int.IN"), ("plant.RTB", "rtv_int.RES"),
        ("plant.RP", "rpv_int.IN"), ("plant.RTB", "rpv_int.RES"),
        ("plant.PT", "ptv_int.IN"), ("plant.RTB", "ptv_int.RES"),
        ("wear_gen.OUT", "rwv_int.IN"), ("plant.RTB", "rwv_int.RES"),
        ("rtv_int.OUT", "raw_cost.IN1"), ("raw_price.OUT", "raw_cost.IN2"),
        ("rpv_int.OUT", "energy_cost.IN1"), ("energy_price.OUT", "energy_cost.IN2"),
        ("rwv_int.OUT", "wear_cost.IN1"), ("wear_price.OUT", "wear_cost.IN2"),
        ("ptv_int.OUT", "output_value.IN1"), ("output_price.OUT", "output_value.IN2"),
        ("raw_cost.OUT", "re_sum.IN1"),
        ("energy_cost.OUT", "re_sum.IN2"),
        ("wear_cost.OUT", "re_sum.IN3"),
        ("plant.RTB", "op_timer.STR"), ("plant.PTF", "op_timer.FIN"),
        ("plant.PTF", "report.STR"),
    ]
    wires += [(source, f"report.IN{i}")
              for i, source in enumerate(_REPORT_SOURCES, start=1)]
    return blocks, wires


def build_sweep_graph(plant_cfg: PlantConfig, sweep: SweepConfig) -> BlockGraph:
    """Full sweep protocol graph.

    A one-shot pulse strobes the scanner at tick 0; afterwards each
    operation-complete pulse, delayed one tick to break the feedback
    loop, strobes the scanner to advance the control for the next
    operation.  With stop_on_boundary set, the strobe that follows the
    boundary operation raises the halt flag, which ``_run`` checks.
    """
    blocks, wires = _instrument_wiring(plant_cfg)
    blocks += [
        PulseTrain("start"),
        UnitDelay("ptf_delay"),
        Summator("strobe", n_inputs=2),
        RangeScanner("control", sweep.k_min, sweep.k_max, sweep.k_step,
                     direction=sweep.direction_code(),
                     stop_on_boundary=sweep.stop_on_boundary),
    ]
    wires += [
        ("plant.PTF", "ptf_delay.IN"),
        ("start.OUT", "strobe.IN1"),
        ("ptf_delay.OUT", "strobe.IN2"),
        ("strobe.OUT", "control.STR"),
    ]
    return build_graph(blocks, wires)


def build_single_graph(plant_cfg: PlantConfig, control_k: float) -> BlockGraph:
    """One-operation graph driven by a constant control level."""
    blocks, wires = _instrument_wiring(plant_cfg)
    blocks.append(Constant("control", control_k))
    return build_graph(blocks, wires)


def _assemble_records(report: ReportGenerator) -> list[OperationRecord]:
    """Records from the latched rows; the derived indicators are computed
    from the latched PTF-tick costs and duration."""
    records = []
    for num, row in enumerate(report.rows, start=1):
        latched = row[:len(_REPORT_SOURCES)]
        _, t_op, *_, re, pe = latched
        records.append(OperationRecord(
            num, *latched, *compute_indicators(re, pe, t_op)))
    return records


def check_entry(plant_cfg: PlantConfig, ks: list[float], dt: float,
                tick_budget: int, control_fields: tuple[str, str]
                ) -> tuple[list[OperationPlan], float]:
    """Entry checks of every run over its controls ``ks``, each refusal a
    ``ValidationError`` naming its field: a valid plant, controls above
    the feasible floor and with a finite wear rate (the lowest or
    highest control, ``control_fields``, or t_nominal), a finite dt no
    coarser than a tenth of the shortest phase, and a tick_budget that
    covers each operation's ``steps``, in scan order.
    Returns the plan, one ``OperationPlan`` per control in scan order,
    and the dt limit.

    The feasibility margin caps heating at about 3.04*C/h, so the dt
    limit also keeps dt below the explicit-Euler stability bound 2*C/h.
    """
    if not 0.0 < dt < inf:  # also false for NaN
        raise ValidationError("dt", f"must be finite and > 0, got {dt!r}")
    validate_plant_config(plant_cfg)
    low, high = control_fields
    k_floor = feasible_control_range(plant_cfg)
    if min(ks) < k_floor:
        raise ValidationError(low, f"{min(ks):g} is below the feasible "
                              f"control floor {k_floor:g}")
    # alpha >= 0, so the wear rate k**alpha/t_nominal is largest at the top.
    try:
        top_wear = wear_rate(max(ks), plant_cfg)
    except OverflowError:  # k**alpha
        raise ValidationError(high, "the wear rate k**alpha overflows at "
                              f"{max(ks):g}") from None
    if not top_wear < inf:
        raise ValidationError("t_nominal", "the wear rate k**alpha/t_nominal"
                              f" overflows at {max(ks):g}")
    heat_times = [oracle_heating_time(plant_cfg, k) for k in ks]
    limit = min(plant_cfg.batch_volume / plant_cfg.fill_rate,
                plant_cfg.batch_volume / plant_cfg.release_intensity,
                *heat_times) / 10.0
    if dt > limit:
        raise ValidationError(
            "dt", f"must be at most {limit!r} s, a tenth of the shortest "
            f"phase, got {dt!r}")
    plan = []
    for k, heat_time in zip(ks, heat_times):
        counts = oracle_ticks(plant_cfg, k, dt, tick_budget - 1)
        if counts is None:
            raise ValidationError(
                "tick_budget", f"{tick_budget} cannot finish the operation "
                f"at control {k:g}, which steps more than {tick_budget} ticks")
        plan.append(OperationPlan(k, heat_time, *counts))
    return plan, limit


def _run(graph: BlockGraph, plan: list[OperationPlan], dt: float,
         criterion: Criterion, until_halt: bool) -> SweepReport:
    """Run each operation of ``plan`` for its ``steps``.  An operation
    must end on its last tick with PTF and every ``out`` as bound at
    build; with ``until_halt``, the tick after the last one must halt
    the graph.  Records come from the report latch, pulse events from
    the plant's log."""
    plant: BatchHeaterPlant = graph.block("plant")
    clock = SimClock(dt)
    for n, op in enumerate(plan, start=1):
        for _ in range(op.steps):
            kernel.step(graph, clock)
        graph.check_outs()
        end = clock.tick_index - 1
        if plant.events[-1] != ("ptf", end):
            raise SimulationError(
                f"operation {n} at control {op.control_k:g} did not end on "
                f"its predicted tick {end}")
    if until_halt:
        kernel.step(graph, clock)
        if not graph.halt_flag:
            raise SimulationError(
                f"the graph did not halt at tick {clock.tick_index - 1}, "
                f"after its last operation")
    records = _assemble_records(graph.block("report"))
    pulse_events = [(channel, tick * dt) for channel, tick in plant.events]
    return SweepReport(records, criterion.name,
                       find_extremum(records, criterion), pulse_events, dt)


def plan_sweep(plant_cfg: PlantConfig, sweep: SweepConfig,
               dt: float) -> tuple[list[OperationPlan], float]:
    """A sweep's entry: its checks over the scan points, then the plan
    and dt limit of ``check_entry``.  ``batchsim validate`` calls it too,
    so it refuses exactly what a sweep refuses."""
    validate_sweep_config(sweep)
    ks = enumerate_scan_values(sweep.k_min, sweep.k_max, sweep.k_step,
                               sweep.direction_code())
    return check_entry(plant_cfg, ks, dt, sweep.tick_budget,
                       ("k_min", "k_max"))


def run_sweep(plant_cfg: PlantConfig, sweep: SweepConfig,
              dt: float = DEFAULT_DT) -> SweepReport:
    """Run one complete operation per scan point through the scanner's
    strobe protocol and rank the records."""
    plan, _ = plan_sweep(plant_cfg, sweep, dt)
    return _run(build_sweep_graph(plant_cfg, sweep), plan, dt,
                BUILTIN_CRITERIA[sweep.criterion], sweep.stop_on_boundary)


def run_single(plant_cfg: PlantConfig, control_k: float,
               dt: float = DEFAULT_DT, tick_budget: int = DEFAULT_TICK_BUDGET,
               criterion: str = DEFAULT_CRITERION) -> SweepReport:
    """One complete operation at a fixed control in a fresh graph,
    packaged as a one-record report."""
    _require_positive("control_k", control_k)
    validate_run_settings(criterion, tick_budget)
    plan, _ = check_entry(plant_cfg, [control_k], dt, tick_budget,
                          ("control_k", "control_k"))
    return _run(build_single_graph(plant_cfg, control_k), plan, dt,
                BUILTIN_CRITERIA[criterion], False)
