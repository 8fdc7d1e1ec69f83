"""Fixed-step synchronous execution engine for wired block graphs.

Blocks expose named input and output ports.  A wire connects one output
port to any number of input ports, but every input port accepts at most
one driver.  Each simulation tick evaluates every block exactly once, in
an order derived from the wiring, so a block always sees the values its
upstream blocks produced on the same tick.  Feedback cycles must contain
a unit-delay element (``breaks_cycle``), which hands the previous tick's
value downstream; cycles without one are rejected as algebraic loops.

Two kinds of signal travel over the same wires:

* level - holds its value until the producing block rewrites it.
* pulse - set to 1.0 for exactly one tick, then cleared by the engine
  before the next tick's evaluations.

:func:`step` advances a built graph by one tick and is the engine's one
entry.  How many ticks make a run is the caller's to know: the sweep
fixes each operation's length before its first tick.

Each tick's work is fixed at build.  :func:`build_graph` binds, in plan
order, the ``evaluate`` of every block whose class overrides
:meth:`Block.evaluate` and the ``latch`` of every block whose class
overrides :meth:`Block.latch`.  A block without its own ``evaluate``,
such as a constant source, is never called per tick, and patching a
class's ``evaluate`` or ``latch`` after the build does not reach graphs
already built.  The finite screen still covers every port that holds a
value, constant sources included.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from math import isfinite
from typing import Sequence


class SimulationError(Exception):
    """Base class for engine and model errors."""


class UnknownPort(SimulationError):
    """A wire or a read references a block or port that does not exist."""


class MultipleDrivers(SimulationError):
    """Two or more wires drive the same input port."""


class AlgebraicLoop(SimulationError):
    """A wiring cycle contains no unit-delay element."""


class NumericFault(SimulationError):
    """A block produced a non-finite output value."""

    def __init__(self, block: str, port: str, tick: int):
        super().__init__(f"non-finite value on {block}.{port} at tick {tick}")
        self.block = block
        self.port = port
        self.tick = tick


class SimClock:
    """Simulation time base.

    ``t`` is derived from the tick count, so repeated addition can never
    accumulate drift: t == tick_index * dt exactly.
    """

    __slots__ = ("dt", "tick_index")

    def __init__(self, dt: float, tick_index: int = 0):
        self.dt = dt
        self.tick_index = tick_index

    @property
    def t(self) -> float:
        return self.tick_index * self.dt

    def advance(self) -> None:
        self.tick_index += 1


class Block:
    """Base class for dataflow blocks.

    Subclasses declare ``input_ports`` and ``output_ports`` (tuples of
    names); an output becomes a one-tick pulse through :meth:`pulse`.
    ``breaks_cycle`` marks delay-style blocks whose output does
    not depend on the current tick's inputs; only such blocks may close
    feedback loops.  Port values live in the plain dict ``out``: write
    into it, never rebind it, as the graph reads and screens the dict
    bound at build.  User blocks read inputs through :meth:`read`; the
    built-ins read ``_in``, the slots bound at build, in port order.
    """

    input_ports: tuple[str, ...] = ()
    output_ports: tuple[str, ...] = ()
    breaks_cycle: bool = False

    def __init__(self, name: str):
        self.name = name
        self.out: dict[str, float] = {p: 0.0 for p in self.output_ports}
        self._sources: dict[str, tuple[dict[str, float], str]] = {}
        self._in: tuple[tuple[dict[str, float], str], ...] = ()
        self._graph: BlockGraph | None = None

    def read(self, port: str) -> float:
        """Current value on an input port.  A port the block does not
        declare, or any port before :func:`build_graph`, raises UnknownPort."""
        try:
            out, key = self._sources[port]
        except KeyError:
            raise UnknownPort(
                f"{self.name}.{port} is not a bound input") from None
        return out[key]

    def pulse(self, port: str) -> None:
        """Raise a one-tick unit pulse on an output port."""
        self.out[port] = 1.0
        self._graph._fired.append((self.out, port))

    def request_halt(self) -> None:
        """Raise the graph's halt flag; the caller decides what it means."""
        self._graph.halt_flag = True

    def evaluate(self, clock: SimClock) -> None:
        """Compute this tick's outputs from current inputs and state."""

    def latch(self) -> None:
        """Deferred state update, run after every block has evaluated."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class BlockGraph:
    """A validated, executable wiring of block instances.

    Construct through :func:`build_graph`, which checks the wiring and
    fixes the per-tick evaluation order.
    """

    def __init__(self, blocks: dict[str, Block], plan: list[Block]):
        self._blocks = blocks
        self._plan = plan
        self._evaluates = [b.evaluate for b in plan
                           if type(b).evaluate is not Block.evaluate]
        self._latches = [b.latch for b in plan
                         if type(b).latch is not Block.latch]
        self._views = [b.out.values() for b in plan if b.out]
        self._outs = [(b, b.out) for b in plan]
        self._fired: list[tuple[dict[str, float], str]] = []
        self.halt_flag = False

    def block(self, name: str) -> Block:
        return self._blocks[name]

    def value(self, ref: str) -> float:
        """Read ``"block.PORT"`` as a float, for probes."""
        name, _, port = ref.partition(".")
        return self._blocks[name].out[port]

    def evaluation_order(self) -> list[str]:
        return [b.name for b in self._plan]

    def check_outs(self) -> None:
        """Raise :class:`SimulationError` naming a block whose ``out`` is
        no longer the dict bound at build; :func:`step` never looks."""
        for b, out in self._outs:
            if b.out is not out:
                raise SimulationError(
                    f"block {b.name!r} rebound its out dict")


def _parse_endpoint(ref: str) -> tuple[str, str]:
    name, sep, port = ref.partition(".")
    if not sep or not name or not port:
        raise UnknownPort(f"malformed port reference {ref!r}, expected 'block.PORT'")
    return name, port


def build_graph(blocks: Sequence[Block],
                wires: Sequence[tuple[str, str]]) -> BlockGraph:
    """Validate blocks and wires and fix a tick evaluation order.

    ``wires`` are ``("src.PORT", "dst.PORT")`` pairs.  The evaluation
    order is a topological order over non-delayed wires, where independent
    blocks run in the order their wiring makes them ready; a cycle of such
    wires is an :class:`AlgebraicLoop` that names it.  A wire into a
    ``breaks_cycle`` block orders nothing: it is read after the tick, in
    :meth:`Block.latch`.  A block can belong to one graph only.  Every
    declared input is bound: unwired ones to the one zero source.  A
    block's ``_in`` holds its ``_sources`` slots in ``input_ports`` order.

    The graph's per-tick lists are bound here too: the ``evaluate`` of
    each block whose class overrides :meth:`Block.evaluate`, the
    ``latch`` of each block whose class overrides :meth:`Block.latch`,
    and a view of the ports of each block that has outputs.  A class
    patched after this call does not reach the returned graph.
    """
    by_name: dict[str, Block] = {}
    for b in blocks:
        if b._graph is not None:
            raise SimulationError(
                f"block {b.name!r} already belongs to a graph")
        if b.name in by_name:
            raise MultipleDrivers(f"duplicate block name {b.name!r}")
        by_name[b.name] = b

    # Inputs are bound only once the whole wiring validates, so a refused
    # build leaves every block as it was.
    zero = ({"OUT": 0.0}, "OUT")
    sources: dict[str, dict[str, tuple[dict[str, float], str]]] = {
        b.name: dict.fromkeys(b.input_ports, zero) for b in blocks}
    # Non-delayed predecessors, in dicts: a set's order follows the hash seed.
    preds: dict[str, dict[str, None]] = {b.name: {} for b in blocks}
    for src_ref, dst_ref in wires:
        src_name, src_port = _parse_endpoint(src_ref)
        dst_name, dst_port = _parse_endpoint(dst_ref)
        src = by_name.get(src_name)
        dst = by_name.get(dst_name)
        if src is None or src_port not in src.out:
            raise UnknownPort(f"wire source {src_ref!r} does not exist")
        if dst is None or dst_port not in dst.input_ports:
            raise UnknownPort(f"wire destination {dst_ref!r} does not exist")
        if sources[dst_name][dst_port] is not zero:
            raise MultipleDrivers(f"input {dst_ref!r} has more than one driver")
        sources[dst_name][dst_port] = (src.out, src_port)
        if not dst.breaks_cycle:
            preds[dst_name][src_name] = None

    try:
        order = list(TopologicalSorter(preds).static_order())
    except CycleError as exc:
        raise AlgebraicLoop("wiring cycle without a unit delay: "
                            + " -> ".join(exc.args[1])) from None

    plan = [by_name[name] for name in order]
    graph = BlockGraph(by_name, plan)
    for b in plan:
        b._sources = sources[b.name]
        b._in = tuple(b._sources.values())
        b._graph = graph
    return graph


def step(graph: BlockGraph, clock: SimClock) -> SimClock:
    """Advance the simulation by one tick.

    Pulses emitted on the previous tick are cleared first, then every
    block with its own ``evaluate`` evaluates once in plan order, then
    delay blocks latch, through the methods bound at build.  Then every
    port that holds a value is screened: a non-finite one raises
    :class:`NumericFault`.  A block's halt request only sets
    ``graph.halt_flag``: ``step`` stops nothing.
    """
    fired = graph._fired
    if fired:
        for out, port in fired:
            out[port] = 0.0
        fired.clear()

    for evaluate in graph._evaluates:
        evaluate(clock)
    for latch in graph._latches:
        latch()

    # Finite screen: v - v is 0.0 for every finite v and NaN for inf/NaN,
    # which keeps the per-tick cost of the check low.
    for values in graph._views:
        for v in values:
            if v - v != 0.0:
                _raise_numeric_fault(graph, clock)

    clock.advance()
    return clock


def _raise_numeric_fault(graph: BlockGraph, clock: SimClock) -> None:
    for b in graph._plan:
        for port, v in b.out.items():
            if not isfinite(v):
                raise NumericFault(b.name, port, clock.tick_index)
    raise AssertionError("finite screen tripped without a non-finite port")
