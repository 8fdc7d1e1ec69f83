"""Seeded inputs, timed passes and the correctness gate of the benchmark.

A workload turns ``(seed, pass index)`` into items: INI documents with a
step size and, for point queries, one control level.  The program sees
only those inputs, through the public ``batchsim`` API.  A pass runs its
items one after another (a closed loop with one client), times the
program calls, and then checks every record against its closed-form twin
``oracle_operation``.

Generated plants keep inside the guards a run boundary may enforce: every
control level sits above ``feasible_control_range``, dt is at most the
shortest phase / 21 (fill, release, and heating at ``k_max``) and far
below the explicit-Euler bound ``2C/h``, and ``tick_budget`` is twice the
predicted tick count of the whole configured sweep, so it suffices
whether it caps the sweep or each operation.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import batchsim as bs

REFERENCE_DT = 0.1
REFERENCE_OPERATIONS = 13
# Golden digests of the reference sweep at dt 0.1 (see ROADMAP.md).
GOLDEN_DIGESTS = {
    "operations.csv":
        "96e5851c6a05d5e9eafac00b1c78e675f037ba661c059f8064d00e61ce0b4b01",
    "summary.txt":
        "7132bcd916fcc41b5f0d4a62c83bd04014f6dd34d80c479392e29dbdf73ec32a",
}

# O(dt) tolerance of a simulated record against its closed form: the
# relative error of t_op, rpv and rwv must not exceed
# ORACLE_TOL_STEPS * dt / heat_time.  Each of the three phase ends is
# quantised to one step, and explicit Euler shifts the heating end by
# about -ln(1 - h*dT/(k*P*eta)) / 2 steps (under one step for every plant
# generated here), so a correct run stays below 4 steps.
ORACLE_TOL_STEPS = 4.0
# rtv and ptv must equal batch_volume up to rounding.
VOLUME_RTOL = 1e-9

QUERIES_PER_PASS = 100
WIDE_SCAN_STEPS = 120
WIDE_TICKS_PER_PASS = 120_000
DT_PHASE_DIVISOR = 21.0


@dataclass(frozen=True)
class Item:
    """One unit of client work: a single-operation query or a sweep."""

    dt: float
    expected_ops: int
    text: str | None = None          # generated INI document
    path: Path | None = None         # config file read with load_config
    control_k: float | None = None   # None: sweep the configured range
    golden: bool = False             # check the reference digests


@dataclass
class PassResult:
    """What one pass did: program time, outcomes and simulated output."""

    program_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    ticks: int = 0
    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    records: int = 0
    phase_ticks: dict[str, int] = field(
        default_factory=lambda: {"filling": 0, "heating": 0, "releasing": 0})
    report_bytes: list[int] = field(default_factory=list)
    digest: str = ""


def _ini(plant: dict, costs: dict, wear: dict, sweep: dict) -> str:
    lines = []
    for section, values in (("plant", plant), ("costs", costs),
                            ("wear", wear), ("sweep", sweep)):
        lines.append(f"[{section}]")
        for key, value in values.items():
            text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def _heat_time(c_over_h: float, loss_share: float) -> float:
    """Closed-form heating time for C/h and loss share h*dT/(k*P*eta)."""
    return c_over_h * -math.log1p(-loss_share)


def _economics(rng: random.Random) -> tuple[dict, dict]:
    costs = {"raw": rng.uniform(0.05, 0.2), "energy": rng.uniform(5e-7, 2e-6),
             "wear": rng.uniform(1000.0, 4000.0),
             "output": rng.uniform(0.4, 0.8)}
    wear = {"t_nominal": rng.uniform(2e6, 5e6), "alpha": rng.uniform(2.0, 3.5)}
    return costs, wear


def _budget(ks: list[float], fixed_s: float, c_over_h: float,
            loss_share_at: float, k_at: float, dt: float) -> int:
    ticks = sum(math.ceil((fixed_s + _heat_time(
        c_over_h, loss_share_at * k_at / k)) / dt) + 2 for k in ks)
    return 2 * ticks + 1000


def point_query(rng: random.Random) -> Item:
    """A feasible plant, one control level and dt = shortest phase / 21.

    Heating lasts 110..140 fills, so a query is about 2.6k ticks.
    """
    mass = rng.uniform(2.0, 20.0)
    fill_s = rng.uniform(8.0, 15.0)
    release_s = fill_s * rng.uniform(1.0, 1.4)
    t_amb = rng.uniform(10.0, 25.0)
    delta = rng.uniform(30.0, 70.0)
    p_nom = rng.uniform(1000.0, 5000.0)
    eta = rng.uniform(0.85, 0.98)
    k = rng.uniform(0.8, 2.5)
    share = rng.uniform(0.3, 0.7)       # losses / delivered power at k
    h = share * k * p_nom * eta / delta
    c_over_h = fill_s * rng.uniform(110.0, 140.0) / -math.log1p(-share)
    k_max = k * rng.uniform(1.2, 2.0)
    floor = max(share * k * (1.0 + bs.FEASIBILITY_MARGIN),
                bs.FEASIBILITY_MARGIN)
    k_min = floor * rng.uniform(1.05, 1.2)
    k_step = (k_max - k_min) / rng.randint(4, 8)
    shortest = min(fill_s, release_s,
                   _heat_time(c_over_h, share * k / k_max))
    dt = shortest / DT_PHASE_DIVISOR
    assert dt < 2.0 * c_over_h and k_min < k < k_max
    direction = rng.choice(["ascending", "descending"])
    ks = bs.enumerate_scan_values(k_min, k_max, k_step,
                                  1 if direction == "descending" else 0)
    costs, wear = _economics(rng)
    text = _ini(
        {"batch_volume": mass, "fill_rate": mass / fill_s,
         "release_intensity": mass / release_s, "ambient_temp": t_amb,
         "setpoint": t_amb + delta, "heat_capacity": c_over_h * h,
         "loss_coeff": h, "heater_nominal_power": p_nom,
         "heater_efficiency": eta},
        costs, wear,
        {"k_min": k_min, "k_max": k_max, "k_step": k_step,
         "direction": direction,
         "criterion": rng.choice(sorted(bs.BUILTIN_CRITERIA)),
         "stop_on_boundary": rng.choice(["true", "false"]),
         "tick_budget": _budget(ks, fill_s + release_s, c_over_h, share, k,
                                dt)})
    return Item(dt=dt, expected_ops=1, text=text, control_k=k)


def wide_sweep(rng: random.Random) -> Item:
    """A small fast plant scanned descending over 121 points without
    stopping on the boundary.

    Dimensional values vary freely with the seed; the dimensionless shape
    (release and heating at k_max in fills, loss share at k_min,
    k_max / k_min) stays in narrow bands, and dt is set so a pass is
    about 120k ticks.  That keeps the work per pass, and the worst error
    against the closed form, alike across seeds.
    """
    mass = rng.uniform(0.5, 2.0)
    fill_s = rng.uniform(3.0, 6.0)
    release_s = fill_s * rng.uniform(1.2, 1.3)
    t_amb = rng.uniform(10.0, 25.0)
    delta = rng.uniform(30.0, 70.0)
    p_nom = rng.uniform(500.0, 3000.0)
    eta = rng.uniform(0.85, 0.98)
    k_min = rng.uniform(0.5, 1.0)
    share = rng.uniform(0.60, 0.64)     # losses / delivered power at k_min
    k_max = k_min * rng.uniform(3.4, 3.6)
    h = share * k_min * p_nom * eta / delta
    heat_at_max = fill_s * rng.uniform(2.9, 3.1)
    c_over_h = heat_at_max / -math.log1p(-share * k_min / k_max)
    k_step = (k_max - k_min) / WIDE_SCAN_STEPS
    ks = bs.enumerate_scan_values(k_min, k_max, k_step, 1)
    total_s = sum(fill_s + release_s + _heat_time(c_over_h, share * k_min / k)
                  for k in ks)
    dt = total_s / WIDE_TICKS_PER_PASS
    assert dt <= min(fill_s, release_s, heat_at_max) / DT_PHASE_DIVISOR
    assert dt < 2.0 * c_over_h
    costs, wear = _economics(rng)
    text = _ini(
        {"batch_volume": mass, "fill_rate": mass / fill_s,
         "release_intensity": mass / release_s, "ambient_temp": t_amb,
         "setpoint": t_amb + delta, "heat_capacity": c_over_h * h,
         "loss_coeff": h, "heater_nominal_power": p_nom,
         "heater_efficiency": eta},
        costs, wear,
        {"k_min": k_min, "k_max": k_max, "k_step": k_step,
         "direction": "descending",
         "criterion": rng.choice(sorted(bs.BUILTIN_CRITERIA)),
         "stop_on_boundary": "false",
         "tick_budget": _budget(ks, fill_s + release_s, c_over_h, share,
                                k_min, dt)})
    return Item(dt=dt, expected_ops=len(ks), text=text)


class Workload:
    """Named item generator; ``items(i)`` is pass i's input."""

    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.seed = seed
        self.root = root

    def items(self, index: int) -> list[Item]:
        if self.name == "reference_sweep":
            return [Item(dt=REFERENCE_DT, expected_ops=REFERENCE_OPERATIONS,
                         path=self.root / "configs" / "reference.ini",
                         golden=True)]
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        if self.name == "point_queries":
            return [point_query(rng) for _ in range(QUERIES_PER_PASS)]
        return [wide_sweep(rng)]


def parse(item: Item):
    """Parse an item's config through the public API."""
    if item.path is not None:
        return bs.load_config(item.path)
    return bs.parse_config(item.text)


def simulated_ticks(report) -> int:
    """Ticks the run stepped, from the report: the run starts at tick 0
    and its last step raises the last phase pulse."""
    return max(round(t / report.dt) for _, t in report.pulse_events) + 1


def add_phase_ticks(report, phase_ticks: dict[str, int]) -> None:
    """Per-phase ticks from the pulse stream: filling runs from RTB to
    RTF, heating to RED, releasing to PTF."""
    last: dict[str, int] = {}
    for channel, t in report.pulse_events:
        tick = round(t / report.dt)
        last[channel] = tick
        if channel == "ptf":
            phase_ticks["filling"] += last["rtf"] - last["rtb"]
            phase_ticks["heating"] += last["red"] - last["rtf"]
            phase_ticks["releasing"] += tick - last["red"]


def check_records(plant, sweep, item: Item, report, tracer) -> tuple[int, float]:
    """Failed operations and the worst relative error of one report."""
    if item.control_k is None:
        ks = bs.enumerate_scan_values(
            sweep.k_min, sweep.k_max, sweep.k_step,
            1 if sweep.direction == "descending" else 0)
    else:
        ks = [item.control_k]
    records = report.records
    failed = abs(item.expected_ops - len(records))
    if len(ks) != item.expected_ops:
        failed = item.expected_ops
    worst = 0.0
    for i, (rec, k) in enumerate(zip(records, ks)):
        with tracer.span("oracle_operation"):
            oracle = bs.oracle_operation(plant, k)
        tol = ORACLE_TOL_STEPS * item.dt / oracle["heat_time"]
        errs = [abs(getattr(rec, f) - oracle[f]) / abs(oracle[f])
                for f in ("t_op", "rpv", "rwv")]
        worst = max(worst, *errs)
        volume = plant.batch_volume
        ok = (rec.num == i + 1 and rec.control_k == k and rec.valid
              and max(errs) <= tol
              and abs(rec.rtv - volume) <= VOLUME_RTOL * volume
              and abs(rec.ptv - volume) <= VOLUME_RTOL * volume)
        if not ok:
            failed += 1
    return min(failed, item.expected_ops), worst


def run_pass(items: list[Item], tracer, out_dir: Path,
             trace_prefix: str) -> PassResult:
    """Run items one after another; time only the program calls."""
    res = PassResult()
    digest = hashlib.sha256()
    out_dir.mkdir(parents=True, exist_ok=True)
    for n, item in enumerate(items):
        tracer.trace_id = f"{trace_prefix}:{n}"
        res.attempted += item.expected_ops
        kind = "sweep" if item.control_k is None else "query"
        try:
            t0 = perf_counter()
            with tracer.span(kind):
                with tracer.span("load_config" if item.path else
                                 "parse_config"):
                    plant, sweep = parse(item)
                if item.control_k is None:
                    report = bs.run_sweep(plant, sweep, item.dt)
                else:
                    report = bs.run_single(plant, item.control_k, item.dt,
                                           tick_budget=sweep.tick_budget,
                                           criterion=sweep.criterion)
                with tracer.span("write_report"):
                    paths = bs.write_report(report, out_dir)
            elapsed = perf_counter() - t0
            failed, worst = check_records(plant, sweep, item, report, tracer)
            blobs = {p.name: p.read_bytes() for p in paths}
            ticks = simulated_ticks(report)
            add_phase_ticks(report, res.phase_ticks)
        except Exception:  # a failed item is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            res.failed += item.expected_ops
            continue
        if item.golden and any(
                hashlib.sha256(blobs.get(name, b"")).hexdigest() != want
                for name, want in GOLDEN_DIGESTS.items()):
            failed = item.expected_ops
        res.failed += failed
        res.program_s += elapsed
        res.latencies_ms.append(elapsed * 1e3)
        res.max_rel_err = max(res.max_rel_err, worst)
        res.records += len(report.records)
        res.ticks += ticks
        res.report_bytes.append(sum(len(b) for b in blobs.values()))
        for name in sorted(blobs):
            digest.update(name.encode() + b"\0" + blobs[name])
    tracer.trace_id = None
    res.digest = digest.hexdigest()
    return res
