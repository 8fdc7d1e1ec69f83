"""Batch liquid-heating plant: fill -> heat -> release phase machine over a
lumped single-node thermal model, plus the heater wear-rate generator.

The vessel takes one batch of raw product at ambient temperature, heats
it to the setpoint with an electric heater running at a commanded load
level, and drains the finished batch.  Heat leaks to ambient through a
linear loss term, which is what makes slow heating expensive: a longer
operation loses more energy at the same setpoint.

The heater ages faster than linearly with its load level.  Service life
in a mode with load ``k`` is ``t_nominal * k**-alpha``, so the life
consumed per second is ``k**alpha / t_nominal``; integrated over an
operation this gives the wear charged to that operation.
"""

from __future__ import annotations

from typing import NamedTuple

from .kernel import Block, SimClock, SimulationError

# Phase codes (ints keep the per-tick dispatch cheap).
IDLE, FILLING, HEATING, RELEASING = 0, 1, 2, 3

# Safety margin applied above the asymptotic feasibility bound so heating
# time stays finite and numerically stable at the low end of a sweep.
FEASIBILITY_MARGIN = 0.05


class NeverReachesSetpoint(SimulationError):
    """Commanded load cannot push the temperature up to the setpoint."""

    def __init__(self, control_k: float, tick: int):
        super().__init__(
            f"load level {control_k:g} cannot reach the setpoint "
            f"(asymptotic temperature at or below it), at tick {tick}")
        self.control_k = control_k
        self.tick = tick


class UnitCosts(NamedTuple):
    """Cost per unit of each flow: raw (per kg), energy (per J), wear
    (per life-fraction unit), output (per kg)."""

    raw: float
    energy: float
    wear: float
    output: float


class PlantConfig(NamedTuple):
    """Physical and economic parameters of the heating subsystem.

    Validation happens at the parsing/run boundary (see config module),
    not at construction, so probe configs for edge cases stay cheap to
    build.
    """

    batch_volume: float        # kg of raw product per operation
    fill_rate: float           # kg/s into the vessel
    release_intensity: float   # kg/s out of the vessel
    ambient_temp: float        # deg C
    setpoint: float            # deg C the batch must reach
    heat_capacity: float       # J/K for one batch
    loss_coeff: float          # W/K linear loss to ambient
    heater_nominal_power: float  # W drawn at load level 1
    heater_efficiency: float   # fraction of drawn power delivered as heat
    wear_t_nominal: float      # s of service life at load level 1
    wear_alpha: float          # wear growth exponent (>= 0)
    unit_costs: UnitCosts


def wear_rate(control_k: float, config: PlantConfig) -> float:
    """Life fraction consumed per second at load level ``control_k``.

    Service life scales as ``t_nominal * k**-alpha``; the wear rate is
    its reciprocal, so nominal mode (k=1) consumes exactly 1/t_nominal
    per second regardless of alpha.
    """
    return control_k ** config.wear_alpha / config.wear_t_nominal


def feasible_control_range(config: PlantConfig) -> float:
    """Smallest load level that can still reach the setpoint, padded by
    the safety margin.  With no losses any positive load works and only
    the margin remains."""
    denom = config.heater_nominal_power * config.heater_efficiency
    delta = config.setpoint - config.ambient_temp
    base = config.loss_coeff * delta / denom
    return max(base * (1.0 + FEASIBILITY_MARGIN), FEASIBILITY_MARGIN)


class BatchHeaterPlant(Block):
    """The technological subsystem as a single block.

    Input port CL commands the heater load level.  The plant runs whole
    operations autonomously: while idle with CL > 0 it starts a new
    batch, emitting one-tick pulses at each phase boundary:

    * RTB - start of raw product feed (operation start)
    * RTF - vessel full, heating begins next tick
    * RED - setpoint reached, release begins next tick
    * PTF - vessel drained, operation complete

    Level outputs carry the current flow rates (RT raw kg/s, RP energy W,
    PT output kg/s) and the batch temperature TMP, which is the thermal
    state itself; ``phase`` and ``mass`` (kg in the vessel) hold the rest.
    Each phase pulse is also logged to ``events`` as a (name, tick index)
    pair, the name being rtb, rtf, red or ptf.

    A fill or drain tick that would overshoot the batch volume is scaled
    to land exactly on the boundary, so integrated flow volumes equal the
    batch volume to rounding error.
    """

    input_ports = ("CL",)
    output_ports = ("RTB", "RTF", "RED", "PTF", "RT", "RP", "PT", "TMP")

    def __init__(self, name: str, config: PlantConfig):
        super().__init__(name)
        self.phase = IDLE
        self.mass = 0.0
        self.events: list[tuple[str, int]] = []
        c = config
        self._batch = c.batch_volume
        self._fill = c.fill_rate
        self._release = c.release_intensity
        self._t_amb = c.ambient_temp
        self._setpoint = c.setpoint
        self._c = c.heat_capacity
        self._h = c.loss_coeff
        self._p_nom = c.heater_nominal_power
        self._p_eta = c.heater_nominal_power * c.heater_efficiency
        self._loss_at_setpoint = c.loss_coeff * (c.setpoint - c.ambient_temp)
        self._mass_eps = 1e-9 * c.batch_volume
        self.out["TMP"] = c.ambient_temp

    def evaluate(self, clock: SimClock) -> None:
        out = self.out
        dt = clock.dt
        phase = self.phase
        rt = rp = pt = 0.0

        if phase == HEATING:
            k = self.read("CL")
            rp = k * self._p_nom
            out["TMP"], done = self.heat_tick(out["TMP"], k, dt)
            if done:
                self.phase = RELEASING
                self._phase_pulse("RED", clock)
        elif phase == FILLING:
            rt, self.mass, done = self.fill_tick(self.mass, dt)
            if done:
                self.phase = HEATING
                self._phase_pulse("RTF", clock)
        elif phase == RELEASING:
            pt, self.mass, done = self.release_tick(self.mass, dt)
            if done:
                self.phase = IDLE
                self._phase_pulse("PTF", clock)
        else:  # IDLE
            k = self.read("CL")
            if k > 0.0:
                if not self.reaches_setpoint(k):
                    raise NeverReachesSetpoint(k, clock.tick_index)
                self.phase = FILLING
                out["TMP"] = self._t_amb
                self.mass = 0.0
                self._phase_pulse("RTB", clock)

        out["RT"] = rt
        out["RP"] = rp
        out["PT"] = pt

    # The per-tick updates of the three phases.  They read only the
    # plant's constants, so the discrete twin ``sweep.oracle_ticks``
    # replays an operation through them without a graph.  Each returns
    # the new state and whether the phase ended; fill and release first
    # give the tick's flow rate, scaled down on the phase's last tick.

    def fill_tick(self, mass: float, dt: float) -> tuple[float, float, bool]:
        """Feed from ``mass`` kg in the vessel; the tick that fills it
        lands exactly on the batch volume."""
        room = self._batch - mass
        rt = self._fill if room >= self._fill * dt else room / dt
        mass += rt * dt
        if mass >= self._batch - self._mass_eps:
            return rt, self._batch, True
        return rt, mass, False

    def heat_tick(self, temp: float, control_k: float,
                  dt: float) -> tuple[float, bool]:
        """Explicit-Euler step of the batch temperature at load level
        ``control_k``; the phase ends at the setpoint."""
        temp += dt * (control_k * self._p_eta
                      - self._h * (temp - self._t_amb)) / self._c
        return temp, temp >= self._setpoint

    def release_tick(self, mass: float,
                     dt: float) -> tuple[float, float, bool]:
        """Drain from ``mass`` kg; the tick that empties the vessel lands
        exactly on zero."""
        pt = self._release if mass >= self._release * dt else mass / dt
        mass -= pt * dt
        if mass <= self._mass_eps:
            return pt, 0.0, True
        return pt, mass, False

    def reaches_setpoint(self, control_k: float) -> bool:
        """Whether load ``control_k`` delivers more than the losses at the
        setpoint, so heating ends."""
        return control_k * self._p_eta > self._loss_at_setpoint

    def _phase_pulse(self, port: str, clock: SimClock) -> None:
        """Raise a phase pulse and log it to ``events`` in one place."""
        self.pulse(port)
        self.events.append((port.lower(), clock.tick_index))


class WearRateGenerator(Block):
    """Turns the live energy feed rate into the heater wear rate.

    The input is the drawn power in watts; dividing by the nominal power
    recovers the load level k, and the output is k**alpha / t_nominal.
    Zero input (heater idle) produces zero wear.
    """

    input_ports = ("IN",)
    output_ports = ("OUT",)

    def __init__(self, name: str, nominal_rate: float, t_nominal: float,
                 alpha: float):
        super().__init__(name)
        self._nominal = nominal_rate
        self._t_n = t_nominal
        self._alpha = alpha

    def evaluate(self, clock: SimClock) -> None:
        rate = self.read("IN")
        if rate > 0.0:
            k = rate / self._nominal
            self.out["OUT"] = k ** self._alpha / self._t_n
        else:
            self.out["OUT"] = 0.0
