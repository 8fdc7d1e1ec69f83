"""Generic instrument blocks: sources, arithmetic, integrator, timer,
control-range scanner and the report latch, which records rows and has
no outputs.

Port names follow the plant-floor convention used across the project:
configuration ports are written in full words at construction time, while
runtime signals use short uppercase section names (STR for strobe, RES
for reset, TIM for measured time, and so on).
"""

from __future__ import annotations

from math import inf

from .kernel import Block, SimClock, SimulationError


class InvalidRange(SimulationError):
    """Scan range empty or not finite, or step not finite and positive."""


# Relative slack used when deciding that a scan value has reached the far
# boundary; keeps float step accumulation from adding a phantom point.
_BOUNDARY_TOL = 1e-9

# Guard for callers that enumerate a whole scan up front.
_MAX_SCAN_POINTS = 1_000_000


def _check_range(minimum: float, maximum: float, step: float) -> None:
    """Refuse all but finite minimum < maximum and 0 < step < inf (so NaN)."""
    if not (-inf < minimum < maximum < inf and 0.0 < step < inf):
        raise InvalidRange(
            f"scan range requires finite minimum < maximum and finite "
            f"step > 0, got [{minimum}, {maximum}] step {step}")


def scan_value(minimum: float, maximum: float, step: float,
               direction: int, index: int) -> tuple[float, bool]:
    """Value of scan point ``index`` (0-based) and whether it is the
    clamped far boundary.

    Points are recomputed as ``minimum + index * step`` rather than
    accumulated, so the emitted sequence is identical no matter where it
    is produced (scanner block, sweep planner, validators).
    """
    _check_range(minimum, maximum, step)
    tol = _BOUNDARY_TOL * step
    if direction == 0:
        raw = minimum + index * step
        if raw >= maximum - tol:
            return maximum, True
        return raw, False
    raw = maximum - index * step
    if raw <= minimum + tol:
        return minimum, True
    return raw, False


def enumerate_scan_values(minimum: float, maximum: float, step: float,
                          direction: int = 0) -> list[float]:
    """Full ordered scan sequence, boundary point included."""
    _check_range(minimum, maximum, step)
    if (maximum - minimum) / step > _MAX_SCAN_POINTS:
        raise InvalidRange("scan step is too small for the range")
    values = []
    index = 0
    while True:
        value, boundary = scan_value(minimum, maximum, step, direction, index)
        values.append(value)
        if boundary:
            return values
        index += 1


class Constant(Block):
    """Level source holding a fixed value."""

    output_ports = ("OUT",)

    def __init__(self, name: str, value: float):
        super().__init__(name)
        self.out["OUT"] = float(value)


class PulseTrain(Block):
    """Pulse source firing at ``start`` and then every ``period`` ticks.

    ``period=None`` gives a single pulse, handy for kicking off a run.
    """

    output_ports = ("OUT",)

    def __init__(self, name: str, start: int = 0, period: int | None = None):
        super().__init__(name)
        self.start = start
        self.period = period

    def evaluate(self, clock: SimClock) -> None:
        k = clock.tick_index
        if k < self.start:
            return
        if self.period is None:
            if k == self.start:
                self.pulse("OUT")
        elif (k - self.start) % self.period == 0:
            self.pulse("OUT")


class SequenceSource(Block):
    """Level source replaying a precomputed list of values, one per tick,
    then holding the last one."""

    output_ports = ("OUT",)

    def __init__(self, name: str, values: list[float]):
        super().__init__(name)
        self.values = list(values)

    def evaluate(self, clock: SimClock) -> None:
        k = clock.tick_index
        if k < len(self.values):
            self.out["OUT"] = self.values[k]
        elif self.values:
            self.out["OUT"] = self.values[-1]


class UnitDelay(Block):
    """One-tick delay; the only element allowed to close feedback loops.

    Outputs the previous tick's input (initially 0) and latches the new
    input once the whole tick has evaluated.
    """

    input_ports = ("IN",)
    output_ports = ("OUT",)
    breaks_cycle = True

    def __init__(self, name: str):
        super().__init__(name)
        self._state = 0.0

    def evaluate(self, clock: SimClock) -> None:
        self.out["OUT"] = self._state

    def latch(self) -> None:
        self._state = self.read("IN")


class Multiplier(Block):
    """Two-input product."""

    input_ports = ("IN1", "IN2")
    output_ports = ("OUT",)

    def evaluate(self, clock: SimClock) -> None:
        self.out["OUT"] = self.read("IN1") * self.read("IN2")


class Summator(Block):
    """N-input sum; inputs are added in port order IN1, IN2, ..."""

    output_ports = ("OUT",)

    def __init__(self, name: str, n_inputs: int = 2):
        self.input_ports = tuple(f"IN{i}" for i in range(1, n_inputs + 1))
        super().__init__(name)

    def evaluate(self, clock: SimClock) -> None:
        total = 0.0
        for port in self.input_ports:
            total += self.read(port)
        self.out["OUT"] = total


class ResettableIntegrator(Block):
    """Rectangle-rule integrator with a pulse reset.

    A RES pulse zeroes the accumulator before the current tick's
    contribution, so the reset tick still integrates its own input.
    """

    input_ports = ("IN", "RES")
    output_ports = ("OUT",)

    def evaluate(self, clock: SimClock) -> None:
        out = self.out
        acc = 0.0 if self.read("RES") > 0.5 else out["OUT"]
        out["OUT"] = acc + self.read("IN") * clock.dt


class IntervalTimer(Block):
    """Measures the interval between a start pulse (STR) and a finish
    pulse (FIN) on the TIM output.

    The measurement is taken in whole ticks and scaled by dt once, so TIM
    is exactly the difference of the pulse-tick times and does not depend
    on where in absolute time the interval sits.  A FIN with no armed STR
    leaves TIM unchanged; STR and FIN on the same tick measure zero.
    """

    input_ports = ("STR", "FIN")
    output_ports = ("TIM",)

    def __init__(self, name: str):
        super().__init__(name)
        self._start_tick: int | None = None

    def evaluate(self, clock: SimClock) -> None:
        if self.read("STR") > 0.5:
            self._start_tick = clock.tick_index
        if self.read("FIN") > 0.5 and self._start_tick is not None:
            self.out["TIM"] = (clock.tick_index - self._start_tick) * clock.dt
            self._start_tick = None


class RangeScanner(Block):
    """Linear scanner stepping a control signal across a range.

    Configuration (minimum, maximum, step, direction, stop_on_boundary)
    is fixed and checked at construction.  Each STR strobe advances OUT one step from
    the near boundary toward the far one, clamping the final point onto
    the far boundary exactly; the strobe that lands there also raises the
    RPT level.  Strobes arriving after RPT never restart the scan: with
    ``stop_on_boundary`` set they halt the whole system instead, which in
    a strobe-per-operation protocol stops the run right after the
    boundary operation completes.
    """

    input_ports = ("STR",)
    output_ports = ("OUT", "RPT")

    def __init__(self, name: str, minimum: float, maximum: float, step: float,
                 direction: int = 0, stop_on_boundary: bool = False):
        super().__init__(name)
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self.step = float(step)
        self.direction = 1 if direction else 0
        self.stop_on_boundary = bool(stop_on_boundary)
        _check_range(self.minimum, self.maximum, self.step)
        self._emitted = 0

    def evaluate(self, clock: SimClock) -> None:
        if self.read("STR") <= 0.5:
            return
        if self.out["RPT"]:
            if self.stop_on_boundary:
                self.request_halt()
            return
        value, boundary = scan_value(self.minimum, self.maximum, self.step,
                                     self.direction, self._emitted)
        self._emitted += 1
        self.out["OUT"] = value
        if boundary:
            self.out["RPT"] = 1.0


class ReportGenerator(Block):
    """Ten-channel report latch: a recorder with no outputs.

    Between strobes the inputs may change freely; an STR pulse appends a
    tuple of the ten input channel values to ``rows``.
    """

    input_ports = ("STR",) + tuple(f"IN{i}" for i in range(1, 11))

    def __init__(self, name: str):
        super().__init__(name)
        self.rows: list[tuple[float, ...]] = []

    def evaluate(self, clock: SimClock) -> None:
        if self.read("STR") <= 0.5:
            return
        self.rows.append(tuple(self.read(port)
                               for port in self.input_ports[1:]))
