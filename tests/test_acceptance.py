"""Acceptance suite: the nine release criteria, each printed as a
pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import hashlib
import random
import time

from batchsim import (FlowVolumes, RangeScanner, SimClock, UnitCosts,
                      aggregate_costs, build_graph, enumerate_scan_values,
                      oracle_heating_time, oracle_operation, oracle_ticks,
                      run_single, run_sweep, step, wear_rate, write_report)
from batchsim.config import DEFAULT_TICK_BUDGET

from conftest import (make_reference_plant, make_reference_sweep,
                      operation_pulses)
from test_blocks import reference_scan_sequence
from test_kernel import PulseEvery

# sha256 of the reference sweep's report files at dt=0.1.
GOLDEN_DIGESTS = {
    "operations.csv":
        "96e5851c6a05d5e9eafac00b1c78e675f037ba661c059f8064d00e61ce0b4b01",
    "summary.txt":
        "7132bcd916fcc41b5f0d4a62c83bd04014f6dd34d80c479392e29dbdf73ec32a",
}

# sha256 of repr(report.pulse_events): the reference sweep at dt=0.1 (53
# events, ending with the stray rtb of the halting tick) and
# run_single(reference plant, 0.7).
GOLDEN_PULSE_DIGESTS = {
    "sweep":
        "755d2c6aa4901fe0e3a881d022b4659888742d80c25e03375a3c5ef0c1da4996",
    "single_0.7":
        "1839c28240e210642ec4c4347724e69d3c86789d1adee3e89e229aed0df7f2e0",
}


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _strictly_decreasing(xs):
    return all(b < a for a, b in zip(xs, xs[1:]))


def _strictly_increasing(xs):
    return all(b > a for a, b in zip(xs, xs[1:]))


def test_criterion_1_monotonic_time_and_energy(reference_plant,
                                               reference_sweep):
    started = time.perf_counter()
    report = run_sweep(reference_plant, reference_sweep, dt=0.1)
    elapsed = time.perf_counter() - started
    records = report.records
    ok = (len(records) == 13
          and _strictly_decreasing([r.t_op for r in records])
          and _strictly_decreasing([r.rpv for r in records])
          and elapsed < 5.0)
    _verdict(1, "t_op and energy volume strictly decrease in k", ok,
             f"13 records in {elapsed:.2f} s")


def test_criterion_2_wear_growth_and_cost_crossover(reference_plant,
                                                    coarse_report):
    records = coarse_report.records
    wear_increasing = _strictly_increasing([r.rwv for r in records])
    costs = reference_plant.unit_costs
    diffs = [costs.wear * r.rwv - costs.energy * r.rpv for r in records]
    crossover = any(a < 0.0 < b for a, b in zip(diffs, diffs[1:]))
    _verdict(2, "wear volume grows in k and wear cost crosses energy cost",
             wear_increasing and crossover,
             f"cost difference spans [{min(diffs):.3f}, {max(diffs):.3f}]")


def _oracle_input_cost(plant, k):
    """Input cost of one operation at ``k`` from the closed forms."""
    op = oracle_operation(plant, k)
    return aggregate_costs(
        FlowVolumes(op["rtv"], op["rpv"], op["ptv"], op["rwv"]),
        plant.unit_costs)[0]


def test_criterion_3_interior_cost_minimum(reference_plant, reference_sweep):
    started = time.perf_counter()
    report = run_sweep(reference_plant, reference_sweep, dt=0.1)
    res = [r.re for r in report.records]
    coarse_index = res.index(min(res))
    coarse_k = report.records[coarse_index].control_k
    interior = 0 < coarse_index < len(res) - 1
    unimodal = (_strictly_decreasing(res[:coarse_index + 1])
                and _strictly_increasing(res[coarse_index:]))
    dense_ks = [0.6 + 0.01 * i for i in range(241)]
    dense_k = min(dense_ks,
                  key=lambda k: _oracle_input_cost(reference_plant, k))
    elapsed = time.perf_counter() - started
    ok = (interior and unimodal and abs(dense_k - coarse_k) <= 0.2
          and elapsed < 60.0)
    _verdict(3, "input cost minimum is interior and dense scan brackets it",
             ok, f"coarse k={coarse_k:.6g}, dense k={dense_k:.6g}, "
             f"{elapsed:.2f} s")


def test_criterion_4_thermal_oracle_and_convergence(reference_plant,
                                                    reference_sweep,
                                                    coarse_report):
    def heating_errors(report):
        errors = []
        for rec, pulses in zip(report.records, operation_pulses(report)):
            simulated = pulses["red"] - pulses["rtf"]
            expected = oracle_heating_time(reference_plant, rec.control_k)
            errors.append(abs(simulated - expected) / expected)
        return errors

    coarse_errors = heating_errors(coarse_report)
    fine_errors = heating_errors(
        run_sweep(reference_plant, reference_sweep, dt=0.05))
    within_band = max(coarse_errors) <= 0.005
    mean_coarse = sum(coarse_errors) / len(coarse_errors)
    mean_fine = sum(fine_errors) / len(fine_errors)
    ratio = mean_coarse / mean_fine
    halves = 1.6 <= ratio <= 2.4
    _verdict(4, "simulated heating time matches closed form, O(dt)",
             within_band and halves,
             f"max rel err {max(coarse_errors):.2e}, halving ratio "
             f"{ratio:.2f}")


def test_criterion_5_wear_formula(reference_plant):
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 4.0):
        for alpha in (0.0, 1.0, 2.0, 3.0):
            cfg = reference_plant._replace(wear_alpha=alpha,
                                           wear_t_nominal=1e4)
            got = wear_rate(k, cfg)
            # Independent route: repeated multiplication for the integer
            # exponent, divided once.
            expected = 1.0
            for _ in range(int(alpha)):
                expected *= k
            expected /= 1e4
            worst = max(worst, abs(got - expected) / expected)
    _verdict(5, "wear rate equals k**alpha / t_nominal", worst <= 1e-12,
             f"worst rel dev {worst:.2e}")


def test_criterion_6_indicator_algebra(reference_plant, coarse_report):
    costs = reference_plant.unit_costs
    exact = True
    worst_dual = 0.0
    for rec in coarse_report.records:
        exact &= rec.prf == rec.pe - rec.re
        exact &= rec.rnt == rec.prf / rec.re
        direct_re, direct_pe = aggregate_costs(
            FlowVolumes(rec.rtv, rec.rpv, rec.ptv, rec.rwv), costs)
        worst_dual = max(worst_dual,
                         abs(direct_re - rec.re) / direct_re,
                         abs(direct_pe - rec.pe) / direct_pe)
    _verdict(6, "indicator algebra exact, dual-route aggregation agrees",
             exact and worst_dual <= 1e-12,
             f"worst dual-route rel dev {worst_dual:.2e}")


def test_criterion_7_scanner_protocol():
    rng = random.Random(1123581321)
    failures = []
    for case in range(50):
        minimum = rng.uniform(-20.0, 20.0)
        span = rng.uniform(0.3, 25.0)
        maximum = minimum + span
        step_size = rng.uniform(span / 50.0, span * 1.2)
        direction = rng.choice((0, 1))
        expected = reference_scan_sequence(minimum, maximum, step_size,
                                           direction)

        scanner = RangeScanner("control", minimum, maximum, step_size,
                               direction=direction, stop_on_boundary=True)
        strobe = PulseEvery("strobe", 1)
        graph = build_graph([strobe, scanner],
                            [("strobe.OUT", "control.STR")])
        clock = SimClock(dt=0.1)
        outs, rpts = [], []
        while not graph.halt_flag and clock.tick_index < len(expected) + 5:
            step(graph, clock)
            outs.append(graph.value("control.OUT"))
            rpts.append(graph.value("control.RPT"))

        emitted = outs[:len(expected)]
        monotone = (_strictly_increasing(emitted) if direction == 0
                    else _strictly_decreasing(emitted))
        boundary_rpt = (rpts[len(expected) - 1] == 1.0
                        and all(v == 0.0 for v in rpts[:len(expected) - 1]))
        # The strobe after the boundary one stops the system: exactly one
        # extra tick ran.
        halted_after = graph.halt_flag and len(outs) == len(expected) + 1
        if not (emitted == expected and monotone and boundary_rpt
                and halted_after):
            failures.append(case)
    _verdict(7, "50 randomized scanner runs match the reference enumeration",
             not failures, f"failing cases: {failures or 'none'}")


def test_criterion_8_cost_scaling_invariance(reference_plant,
                                             reference_sweep, coarse_report):
    base_records = coarse_report.records
    base_extremum = coarse_report.extremum
    ok = True
    details = []
    for lam in (0.5, 3.0):
        costs = reference_plant.unit_costs
        scaled_plant = reference_plant._replace(unit_costs=UnitCosts(
            raw=lam * costs.raw, energy=lam * costs.energy,
            wear=lam * costs.wear, output=lam * costs.output))
        scaled = run_sweep(scaled_plant, reference_sweep, dt=0.1)
        worst = max(abs(s.rnt - b.rnt) / abs(b.rnt)
                    for s, b in zip(scaled.records, base_records))
        ok &= worst <= 1e-12
        ok &= scaled.extremum.index == base_extremum.index
        details.append(f"lam={lam:g}: rnt dev {worst:.2e}, "
                       f"extremum index {scaled.extremum.index}")
    _verdict(8, "uniform cost scaling leaves rnt and the extremum unchanged",
             ok, "; ".join(details))


def test_criterion_9_determinism_and_pulse_protocol(
        reference_plant, reference_sweep, coarse_report, tmp_path):
    second = run_sweep(reference_plant, reference_sweep, dt=0.1)
    paths_a = write_report(coarse_report, tmp_path / "a")
    paths_b = write_report(second, tmp_path / "b")
    digests = [tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in paths) for paths in (paths_a, paths_b)]
    identical = digests[0] == digests[1]

    channels = [channel for channel, _ in coarse_report.pulse_events]
    cycle = ["rtb", "rtf", "red", "ptf"]
    complete, residue = divmod(len(channels), 4)
    protocol_ok = complete == 13 and channels[:complete * 4] == cycle * 13
    # The stop strobe lands after the boundary operation has finished, so
    # at most a single stray operation start may trail the stream.
    protocol_ok &= residue <= 1 and (residue == 0
                                     or channels[-1] == "rtb")
    _verdict(9, "byte-identical reruns and strict pulse ordering",
             identical and protocol_ok,
             f"{complete} complete operations, residue {residue}")


def test_reference_report_matches_golden_digests(coarse_report, tmp_path):
    paths = write_report(coarse_report, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths} == GOLDEN_DIGESTS


def test_pulse_streams_match_golden_digests(coarse_report, reference_plant):
    reports = {"sweep": coarse_report,
               "single_0.7": run_single(reference_plant, 0.7)}
    assert {name: hashlib.sha256(repr(r.pulse_events).encode()).hexdigest()
            for name, r in reports.items()} == GOLDEN_PULSE_DIGESTS


def _twin_pulse_events(plant, ks, dt, stray_start):
    """The pulse stream of one operation per control in ``ks`` derived
    from ``oracle_ticks`` alone: each operation's start tick raises rtb,
    its phases end on rtf, red and ptf, and the next operation starts on
    the tick after ptf.  ``stray_start`` adds the rtb of a sweep's
    halting tick."""
    events, tick = [], 0
    for k in ks:
        fill, heat, release = oracle_ticks(plant, k, dt, DEFAULT_TICK_BUDGET)
        for channel, ticks in (("rtb", 0), ("rtf", fill), ("red", heat),
                               ("ptf", release)):
            tick += ticks
            events.append((channel, tick * dt))
        tick += 1
    if stray_start:
        events.append(("rtb", tick * dt))
    return events


def test_discrete_twin_reproduces_golden_pulse_streams(reference_plant,
                                                       reference_sweep):
    sweep = reference_sweep
    streams = {
        "sweep": _twin_pulse_events(
            reference_plant,
            enumerate_scan_values(sweep.k_min, sweep.k_max, sweep.k_step,
                                  sweep.direction_code()),
            0.1, stray_start=True),
        "single_0.7": _twin_pulse_events(reference_plant, [0.7], 0.1,
                                         stray_start=False)}
    assert {name: hashlib.sha256(repr(events).encode()).hexdigest()
            for name, events in streams.items()} == GOLDEN_PULSE_DIGESTS
