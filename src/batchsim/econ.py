"""Per-operation economics: cost aggregation over flow volumes, the
operation evaluator block, and pluggable optimization criteria.

Three key indicators describe every completed operation: the cost of its
inputs (re), the cost estimate of its output (pe) and its duration
(t_op).  ``compute_indicators`` derives everything else from those
three, and the criteria rank the record fields it fills:

* value added   prf = pe - re
* profitability rnt = prf / re
* resource intensity r = re * t_op
* efficiency        e = prf / r

Resource intensity and efficiency have no single canonical formula; the
ones above are dimensionally coherent and reward value added per unit of
committed cost-time.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .kernel import Block, SimClock
from .plant import UnitCosts

NAN = float("nan")


class FlowVolumes(NamedTuple):
    """Integrated flow volumes of one operation."""

    rtv: float  # raw product, kg
    rpv: float  # energy product, J
    ptv: float  # output product, kg
    rwv: float  # equipment wear, life fraction


class OperationRecord(NamedTuple):
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


class Criterion(NamedTuple):
    """Named score of an ``OperationRecord``, higher is better; it may
    rank any field, such as ``rwv`` for wear."""

    name: str
    score: Callable[[OperationRecord], float]


BUILTIN_CRITERIA: dict[str, Criterion] = {
    c.name: c for c in (
        Criterion("value_added", lambda rec: rec.prf),
        Criterion("profitability", lambda rec: rec.rnt),
        Criterion("efficiency", lambda rec: rec.e),
        Criterion("neg_cost", lambda rec: -rec.re),
        Criterion("neg_resource_intensity", lambda rec: -rec.r),
    )
}


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
        (re, kr), (pe, kp), (t_op, kt), (fin, kf) = self._in
        if fin[kf] <= 0.5:
            return
        prf, rnt, r, e, valid = compute_indicators(re[kr], pe[kp], t_op[kt])
        if valid:
            out = self.out
            out["PRF"] = prf
            out["RNT"] = rnt
            out["R"] = r
            out["E"] = e

