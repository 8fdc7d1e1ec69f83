"""Per-operation economics: cost aggregation over flow volumes, the
operation evaluator block, and pluggable optimization criteria.

Three key indicators describe every completed operation: the cost of its
inputs (re), the cost estimate of its output (pe) and its duration
(t_op).  Everything else derives from those three:

* value added   prf = pe - re
* profitability rnt = prf / re
* resource intensity r = re * t_op
* efficiency        e = prf / (re * t_op)

Resource intensity and efficiency have no single canonical formula; the
ones above are dimensionally coherent and reward value added per unit of
committed cost-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .kernel import Block, SimClock
from .plant import UnitCosts

NAN = float("nan")

IndicatorFn = Callable[[float, float, float], float]


@dataclass(frozen=True, slots=True)
class FlowVolumes:
    """Integrated flow volumes of one operation."""

    rtv: float  # raw product, kg
    rpv: float  # energy product, J
    ptv: float  # output product, kg
    rwv: float  # equipment wear, life fraction


@dataclass(frozen=True, slots=True)
class OperationRecord:
    """One completed operation with key and derived indicators.

    ``valid`` is False for degenerate operations (zero input cost or zero
    duration); their derived indicators are NaN rather than fabricated.
    """

    num: int
    control_k: float
    t_op: float
    rtv: float
    rpv: float
    ptv: float
    rwv: float
    re: float
    pe: float
    prf: float
    rnt: float
    r: float
    e: float
    valid: bool = True


@dataclass(frozen=True, slots=True)
class Criterion:
    """Named optimization score over (re, pe, t_op); higher is better."""

    name: str
    score: IndicatorFn


BUILTIN_CRITERIA: dict[str, Criterion] = {
    c.name: c for c in (
        Criterion("value_added", lambda re, pe, t_op: pe - re),
        Criterion("profitability", lambda re, pe, t_op: (pe - re) / re),
        Criterion("efficiency", lambda re, pe, t_op: (pe - re) / (re * t_op)),
        Criterion("neg_cost", lambda re, pe, t_op: -re),
        Criterion("neg_resource_intensity",
                  lambda re, pe, t_op: -(re * t_op)),
    )
}


class UnknownCriterion(KeyError):
    pass


def get_criterion(name: str) -> Criterion:
    try:
        return BUILTIN_CRITERIA[name]
    except KeyError:
        raise UnknownCriterion(
            f"unknown criterion {name!r}; available: "
            + ", ".join(sorted(BUILTIN_CRITERIA))) from None


def aggregate_costs(volumes: FlowVolumes,
                    unit_costs: UnitCosts) -> tuple[float, float]:
    """Direct input/output cost aggregation.

    Serves as the closed-form twin of the multiplier/summator network the
    sweep wires up; terms are added in the same raw, energy, wear order
    so both routes agree to rounding error.
    """
    re = (unit_costs.raw * volumes.rtv
          + unit_costs.energy * volumes.rpv
          + unit_costs.wear * volumes.rwv)
    pe = unit_costs.output * volumes.ptv
    return re, pe


def compute_indicators(re: float, pe: float, t_op: float
                       ) -> tuple[float, float, float, float, bool]:
    """(prf, rnt, r, e, valid) for one operation.

    Degenerate inputs (re <= 0 or t_op <= 0) yield NaN indicators and
    valid=False; nothing is invented for them.
    """
    if re <= 0.0 or t_op <= 0.0:
        return NAN, NAN, NAN, NAN, False
    prf = pe - re
    r = re * t_op
    return prf, prf / re, r, prf / r, True


class OperationEvaluator(Block):
    """Computes derived indicators once per operation.

    Reads the aggregated costs (RE, PE) and the measured duration (TO)
    whenever the FIN pulse marks an operation as complete and exposes the
    derived indicators on the PRF, RNT, R and E level outputs.  For a
    degenerate operation the ports hold their previous finite values, so
    the numeric fault screen stays quiet.
    """

    input_ports = ("RE", "PE", "TO", "FIN")
    output_ports = ("PRF", "RNT", "R", "E")

    def evaluate(self, clock: SimClock) -> None:
        if self.read("FIN") <= 0.5:
            return
        re = self.read("RE")
        pe = self.read("PE")
        t_op = self.read("TO")
        prf, rnt, r, e, valid = compute_indicators(re, pe, t_op)
        if valid:
            out = self.out
            out["PRF"] = prf
            out["RNT"] = rnt
            out["R"] = r
            out["E"] = e

