from __future__ import annotations

from pathlib import Path

import pytest

from batchsim import PlantConfig, SweepConfig, UnitCosts, run_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_INI = REPO_ROOT / "configs" / "reference.ini"


def make_reference_plant() -> PlantConfig:
    """The reference plant, written out literally so config parsing can be
    checked against an independent statement of the same values."""
    return PlantConfig(
        batch_volume=10.0,
        fill_rate=1.0,
        release_intensity=1.0,
        ambient_temp=20.0,
        setpoint=70.0,
        heat_capacity=41860.0,
        loss_coeff=19.0,
        heater_nominal_power=2000.0,
        heater_efficiency=0.95,
        wear_t_nominal=3.6e6,
        wear_alpha=3.0,
        unit_costs=UnitCosts(raw=0.1, energy=1e-6, wear=2500.0, output=0.6),
    )


def operation_pulses(report) -> list[dict[str, float]]:
    """Per-operation phase-pulse times (keys rtb, rtf, red, ptf) grouped
    from the report's pulse stream; a trailing operation cut off by the
    system stop is dropped."""
    ops: list[dict[str, float]] = []
    current: dict[str, float] = {}
    for channel, t in report.pulse_events:
        current[channel] = t
        if channel == "ptf":
            ops.append(current)
            current = {}
    return ops


def make_reference_sweep() -> SweepConfig:
    return SweepConfig(k_min=0.6, k_max=3.0, k_step=0.2,
                       direction="ascending", criterion="efficiency",
                       stop_on_boundary=True, tick_budget=2_000_000)


@pytest.fixture(scope="session")
def reference_plant() -> PlantConfig:
    return make_reference_plant()


@pytest.fixture(scope="session")
def reference_sweep() -> SweepConfig:
    return make_reference_sweep()


@pytest.fixture(scope="session")
def coarse_report(reference_plant, reference_sweep):
    """The reference 13-point sweep at dt=0.1, shared by tests that only
    read it."""
    return run_sweep(reference_plant, reference_sweep, dt=0.1)


@pytest.fixture(scope="session")
def no_boundary_report(reference_plant, reference_sweep):
    """The same sweep without stop_on_boundary, shared likewise."""
    sweep = reference_sweep._replace(stop_on_boundary=False)
    return run_sweep(reference_plant, sweep, dt=0.1)
