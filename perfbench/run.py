"""Benchmark harness for batchsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, and the run fails (nonzero exit status, no result
line) when it is not there.  One process, no threads; only the exported
``batchsim`` API is called.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``reference_sweep`` - ``configs/reference.ini`` at dt 0.1: serial
  ``run_sweep`` plus ``write_report``, repeated for S seconds.
* ``point_queries`` - a closed loop with one client: each query parses a
  generated plant, runs ``run_single`` at one control level and writes
  the report.  A pass is 100 fresh queries.
* ``wide_sweep`` - a generated small plant scanned descending over 121
  points without stopping on the boundary; a fresh plant every pass.

``--trace 0`` measures the end-to-end metrics: passes run back to back
for S seconds (at least one) and timings are medians over passes.
``--trace 1`` measures the per-layer metrics and does not use S: the
one-block micro-benchmarks, then pass 0 untraced and pass 0 again with
every per-tick call wrapped.  Counts are exact figures for one pass, and
the ratio of the two pass times is the tracing overhead.

Every record is checked against ``oracle_operation`` and the reference
reports against their golden digests; failures count in ``failed``.
Human-readable lines (machine, each metric with its unit, sample counts,
the digest and tick count of pass 0, absent metrics) come first; the
last line of stdout is the JSON result.  The same data, plus the spans,
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5

# The program under test is the one in this checkout, never an installed
# copy.
sys.path.insert(0, str(SRC))
try:
    import batchsim
except ImportError as exc:
    sys.exit(f"cannot import batchsim from {SRC}: {exc}")
if not Path(batchsim.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"batchsim was imported from {batchsim.__file__}, not {SRC}")

import micro  # noqa: E402  (these import batchsim themselves)
import tracing  # noqa: E402
import workloads  # noqa: E402

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import batchsim; "
                 "print(time.perf_counter() - t)")


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}


def import_seconds() -> float:
    """Time ``import batchsim`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE,
                           str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def measure_setup(wl) -> tuple[list[float], list]:
    """Samples of import + input generation + parsing the first config."""
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        items = wl.items(0)
        workloads.parse(items[0])
        samples.append(imported + perf_counter() - start)
    return samples, items


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[98]


def end_to_end(wl, seconds: float, items0, setup_samples: list[float],
               info: dict) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    tracer.install(per_tick=False)
    passes = []
    start = perf_counter()
    try:
        items = items0
        while not passes or perf_counter() - start < seconds:
            passes.append(workloads.run_pass(
                items, tracer, OUT / wl.name, f"{wl.name}:{len(passes)}"))
            items = wl.items(len(passes))
    finally:
        tracer.remove()
    timed = [p for p in passes if p.program_s > 0.0]
    latencies = [ms for p in passes for ms in p.latencies_ms]
    builds = tracer.span_us("build_graph")
    metrics = {}
    if timed:
        metrics["wall_s"] = median(p.program_s for p in timed)
        metrics["ticks_per_s"] = median(p.ticks / p.program_s for p in timed)
        metrics["query_p50_ms"] = median(latencies)
        metrics["query_p99_ms"] = p99(latencies)
    metrics["setup_s"] = median(setup_samples) + (
        median(builds) / 1e6 if builds else 0.0)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics["max_rel_err"] = max(p.max_rel_err for p in passes)
    info["passes"] = len(passes)
    info["query_samples"] = len(latencies)
    info["setup_samples_s"] = setup_samples
    info["build_graph_samples"] = len(builds)
    tracer.write(OUT / f"{wl.name}-seed{wl.seed}-trace0.spans.jsonl")
    return metrics, passes


def per_layer(wl, items0, info: dict) -> tuple[dict, list, list[str]]:
    metrics = micro.run_all(ROOT)
    plain = tracing.Tracer()
    plain.install(per_tick=False)
    try:
        untraced = workloads.run_pass(items0, plain, OUT / wl.name,
                                      f"{wl.name}:0")
    finally:
        plain.remove()
    tracer = tracing.Tracer()
    tracer.install(per_tick=True)
    try:
        traced = workloads.run_pass(items0, tracer, OUT / wl.name,
                                    f"{wl.name}:0")
    finally:
        tracer.remove()
    tracer.write(OUT / f"{wl.name}-seed{wl.seed}-trace1.spans.jsonl")

    calls = tracer.calls
    gone = set(tracer.missing)
    for name in ("kernel.step", "kernel.read", "kernel.noop_evaluate"):
        if name not in gone:
            metrics[f"{name}.calls"] = calls.get(name, [0])[0]
    for name in tracing.evaluate_names():
        metrics[f"{name}.calls"] = calls.get(name, [0])[0]
    for metric, span in (("kernel.build_graph.us", "build_graph"),
                         ("config.parse_config.us", "parse_config"),
                         ("sweep.find_extremum.us", "find_extremum"),
                         ("sweep.oracle_operation.us", "oracle_operation"),
                         ("reportio.write_report.us", "write_report")):
        samples = tracer.span_us(span)
        if samples:
            metrics[metric] = median(samples)
    for phase, ticks in traced.phase_ticks.items():
        metrics[f"plant.ticks.{phase}"] = ticks
    metrics["econ.records"] = traced.records
    if traced.report_bytes:
        metrics["reportio.bytes"] = median(traced.report_bytes)
    if untraced.program_s > 0.0:
        metrics["trace.overhead_ratio"] = traced.program_s / untraced.program_s
    info["traced_missing"] = sorted(gone)
    info["untraced_pass_s"] = untraced.program_s
    info["traced_pass_s"] = traced.program_s
    info["self_ns"] = {name: rec[1] for name, rec in sorted(calls.items())}
    problems = []
    if (traced.digest, traced.ticks) != (untraced.digest, untraced.ticks):
        problems.append("traced pass output differs from the untraced pass")
    return metrics, [untraced, traced], problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    names = {w["name"] for w in declared["workloads"]}
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(names)}")

    OUT.mkdir(parents=True, exist_ok=True)
    machine = machine_info()
    info: dict = {}
    wl = workloads.Workload(args.workload, args.seed, ROOT)
    setup_samples, items0 = measure_setup(wl)
    if args.trace:
        metrics, passes, problems = per_layer(wl, items0, info)
    else:
        metrics, passes = end_to_end(wl, args.seconds, items0, setup_samples,
                                     info)
        problems = []
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    absent = sorted(set(units) - set(metrics))
    correct = failed == 0 and not problems and attempted > 0

    first = passes[0]
    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "run": info,
        "pass0": {"digest": first.digest, "ticks": first.ticks},
        "error_rate": failed / attempted if attempted else 1.0,
        "absent": absent, "problems": problems, "metrics": metrics,
    }
    (OUT / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} "
          f"python={machine['python']}")
    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}: "
          f"{len(passes)} passes, pass 0 digest {first.digest} "
          f"ticks {first.ticks}")
    if not args.trace:
        print(f"query latency samples: {info['query_samples']}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units.get(name, '')}")
    print(f"error_rate = {record['error_rate']!r} ratio "
          f"({failed} failed of {attempted} operations)")
    for name in absent:
        print(f"absent: {name}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in units if name in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
