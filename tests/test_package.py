"""The package as a user meets it: a light import, the CLI run as a
program, public records that cannot change under their holder, source
the oldest supported Python can parse, and every name and micro-benchmark
the benchmark harness reads."""

from __future__ import annotations

import ast
import importlib.util
import json
import subprocess
import sys

import pytest

import batchsim
from batchsim import ExtremumResult, OperationRecord, SweepReport

from conftest import (REFERENCE_INI, REPO_ROOT, make_reference_plant,
                      make_reference_sweep)


def _isolated_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh ``python -I`` with only ``src`` added to
    its path, so no site, user or environment setting leaks in."""
    prelude = f"import sys; sys.path.insert(0, {str(REPO_ROOT / 'src')!r}); "
    return subprocess.run([sys.executable, "-I", "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_dataclasses_inspect_or_csv():
    # Nothing in the package needs them, and each adds to its import time.
    done = _isolated_python(
        "import batchsim; print(sorted({'dataclasses', 'inspect', 'csv'}"
        " & sys.modules.keys()))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_module_runs_as_a_program():
    done = _isolated_python(
        "import runpy; runpy.run_module('batchsim.cli', run_name='__main__',"
        " alter_sys=True)", "validate", "--config", str(REFERENCE_INI))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("config: OK\n")


_RECORD = OperationRecord(1, 1.0, 1250.0, 10.0, 2.2e6, 10.0, 3.5e-4, 4.07,
                          6.0, 1.93, 0.47, 5087.5, 3.8e-4)


@pytest.mark.parametrize("record, field, value", [
    (make_reference_plant(), "heat_capacity", 1000.0),
    (make_reference_sweep(), "k_max", 2.0),
    (_RECORD, "prf", 0.0),
    (SweepReport([_RECORD], "efficiency", ExtremumResult(0, 1.0, 3.8e-4),
                 [], 0.1), "dt", 0.5),
], ids=["PlantConfig", "SweepConfig", "OperationRecord", "SweepReport"])
def test_public_records_are_immutable(record, field, value):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    changed = record._replace(**{field: value})
    assert getattr(changed, field) == value
    assert getattr(record, field) == before
    assert changed._replace(**{field: before}) == record


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10; this refuses 3.11-only grammar such as
    # except*, though not 3.11-only library calls.
    sources = [path for top in ("src/batchsim", "tests", "perfbench")
               for path in sorted((REPO_ROOT / top).rglob("*.py"))]
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_package_imports_only_the_standard_library():
    # The package has no dependencies: every import is relative or names
    # a standard-library module (sys.stdlib_module_names is 3.10+).
    for path in sorted((REPO_ROOT / "src" / "batchsim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (
                    f"{path.name} imports {name}")


def test_every_package_name_the_benchmark_reads_exists():
    # perfbench imports the package as ``bs``: a name gone from it would
    # otherwise first show in the benchmark's own smoke test.
    names = set()
    for path in sorted((REPO_ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "bs"):
                names.add(node.attr)
    assert len(names) > 10
    assert sorted(name for name in names if not hasattr(batchsim, name)) == []


def test_every_declared_micro_benchmark_is_measured():
    # run_all leaves out a figure whose constructor or ports broke; with
    # one repeat each, that shows here and not only in the smoke test.
    spec = importlib.util.spec_from_file_location(
        "perfbench_micro", REPO_ROOT / "perfbench" / "micro.py")
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    micro.REPEATS = 1
    per_layer = json.loads((REPO_ROOT / "BENCHMARK.json")
                           .read_text(encoding="utf-8"))["per_layer"]
    declared = {m["name"] for m in per_layer
                if m["name"].endswith(".ns_per_evaluate")
                or m["name"] == "kernel.dispatch_ns_per_block"}
    assert len(declared) > 10
    values = micro.run_all(REPO_ROOT)
    assert sorted(declared - values.keys()) == []
    assert all(values[name] > 0 for name in declared)
