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
    """Scan range empty or not finite, step not finite and positive, more
    than a million steps, or a direction not 0 or 1."""


# Relative slack used when deciding that a scan value has reached the far
# boundary; keeps float step accumulation from adding a phantom point.
_BOUNDARY_TOL = 1e-9

# Most steps a scan may take.
_MAX_SCAN_POINTS = 1_000_000


def enumerate_scan_values(minimum: float, maximum: float, step: float,
                          direction: int = 0) -> list[float]:
    """Full ordered scan, ascending unless ``direction`` is set: point i
    is ``minimum + i * step`` (or ``maximum - i * step``), not a running
    sum, and the last one is clamped onto the far boundary.  The only
    code that produces a scan: the scanner block, the sweep planner and
    the validators all take their points from here.  Refuses a range
    that is empty or not finite, a step that is not finite and positive,
    more than a million steps, and a ``direction`` other than 0 or 1.
    """
    if direction not in (0, 1):
        raise InvalidRange(f"direction must be 0 or 1, got {direction!r}")
    if not (-inf < minimum < maximum < inf and 0.0 < step < inf):  # NaN fails
        raise InvalidRange(
            f"scan range requires finite minimum < maximum and finite "
            f"step > 0, got [{minimum}, {maximum}] step {step}")
    if (maximum - minimum) / step > _MAX_SCAN_POINTS:
        raise InvalidRange("scan step is too small for the range")
    tol = _BOUNDARY_TOL * step
    values = []
    if not direction:
        while (raw := minimum + len(values) * step) < maximum - tol:
            values.append(raw)
        values.append(maximum)
    else:
        while (raw := maximum - len(values) * step) > minimum + tol:
            values.append(raw)
        values.append(minimum)
    return values


class Constant(Block):
    """Level source holding a fixed value."""

    output_ports = ("OUT",)

    def __init__(self, name: str, value: float):
        super().__init__(name)
        self.out["OUT"] = float(value)


class PulseTrain(Block):
    """Pulse source firing once, on tick 0; no run graph builds it, but
    user graphs and the benchmark's one-block timings may."""

    output_ports = ("OUT",)

    def evaluate(self, clock: SimClock) -> None:
        if clock.tick_index == 0:
            self.pulse("OUT")


class UnitDelay(Block):
    """One-tick delay; the only element allowed to close feedback loops.

    Outputs ``initial`` on tick 0, then the previous tick's input, and
    latches the new input once the whole tick has evaluated.
    """

    input_ports = ("IN",)
    output_ports = ("OUT",)
    breaks_cycle = True

    def __init__(self, name: str, initial: float = 0.0):
        super().__init__(name)
        self._state = float(initial)

    def evaluate(self, clock: SimClock) -> None:
        self.out["OUT"] = self._state

    def latch(self) -> None:
        (src, key), = self._in
        self._state = src[key]


class Multiplier(Block):
    """Two-input product."""

    input_ports = ("IN1", "IN2")
    output_ports = ("OUT",)

    def evaluate(self, clock: SimClock) -> None:
        (a, ka), (b, kb) = self._in
        self.out["OUT"] = a[ka] * b[kb]


class Summator(Block):
    """N-input sum; inputs are added in port order IN1, IN2, ..."""

    output_ports = ("OUT",)

    def __init__(self, name: str, n_inputs: int = 2):
        self.input_ports = tuple(f"IN{i}" for i in range(1, n_inputs + 1))
        super().__init__(name)

    def evaluate(self, clock: SimClock) -> None:
        total = 0.0
        for src, key in self._in:
            total += src[key]
        self.out["OUT"] = total


class ResettableIntegrator(Block):
    """Rectangle-rule integrator with a pulse reset.

    A RES pulse zeroes the accumulator before the current tick's
    contribution, so the reset tick still integrates its own input.
    """

    input_ports = ("IN", "RES")
    output_ports = ("OUT",)

    def evaluate(self, clock: SimClock) -> None:
        (inp, ki), (res, kr) = self._in
        out = self.out
        acc = 0.0 if res[kr] > 0.5 else out["OUT"]
        out["OUT"] = acc + inp[ki] * clock.dt


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
        (strobe, ks), (fin, kf) = self._in
        if strobe[ks] > 0.5:
            self._start_tick = clock.tick_index
        if fin[kf] > 0.5 and self._start_tick is not None:
            self.out["TIM"] = (clock.tick_index - self._start_tick) * clock.dt
            self._start_tick = None


class RangeScanner(Block):
    """Linear scanner stepping a control signal across a range.

    The construction takes the points, and refuses a bad range, once
    through :func:`enumerate_scan_values`.  Each STR strobe emits the
    next point on OUT; the strobe that emits the last one, the far
    boundary, also raises the RPT level.  Strobes after RPT never restart
    the scan: each raises the graph's halt flag instead, which a caller
    running one operation per strobe may read as the end of the run,
    right after the boundary operation completes.
    """

    input_ports = ("STR",)
    output_ports = ("OUT", "RPT")

    def __init__(self, name: str, minimum: float, maximum: float, step: float,
                 direction: int = 0):
        super().__init__(name)
        self.points = enumerate_scan_values(float(minimum), float(maximum),
                                            float(step), direction)
        self._emitted = 0

    def evaluate(self, clock: SimClock) -> None:
        (strobe, key), = self._in
        if strobe[key] <= 0.5:
            return
        if self.out["RPT"]:
            self.request_halt()
            return
        self.out["OUT"] = self.points[self._emitted]
        self._emitted += 1
        if self._emitted == len(self.points):
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
        strobe, key = self._in[0]
        if strobe[key] <= 0.5:
            return
        self.rows.append(tuple(src[k] for src, k in self._in[1:]))
