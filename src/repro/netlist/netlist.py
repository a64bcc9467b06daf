"""The netlist IR.

A :class:`Netlist` is a set of named nets connected by single-output gates
and D flip-flops.  Invariants maintained by the mutator methods:

* every net has at most one driver (gate output, DFF Q, or primary input);
* gate inputs may reference nets that are declared later (construction is
  order-independent); :func:`repro.netlist.validate.validate_netlist`
  checks that everything is driven and acyclic at the end;
* primary outputs are just markers on existing nets.

DFFs are modelled as (D net -> Q net) pairs.  Clocking, scan stitching and
reset are handled by the simulators / scan package, keeping the structural
IR purely about connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.netlist.gates import GateType, check_arity


class NetlistError(Exception):
    """Raised for structural violations (duplicate drivers, bad arity...)."""


@dataclass(frozen=True)
class Gate:
    """A combinational gate: ``output = gtype(*inputs)``."""

    output: str
    gtype: GateType
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        check_arity(self.gtype, len(self.inputs))


@dataclass(frozen=True)
class Dff:
    """A D flip-flop: net ``q`` takes the value of net ``d`` at each clock."""

    q: str
    d: str


class Netlist:
    """Mutable gate-level netlist."""

    def __init__(self, name: str = "top"):
        self.name = name
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self._output_set: set[str] = set()  # mirrors outputs for add_output
        self.gates: dict[str, Gate] = {}  # keyed by output net
        self.dffs: dict[str, Dff] = {}  # keyed by Q net
        self._drivers: set[str] = set()
        self._version = 0
        self._topo_cache: list[Gate] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        self._claim_driver(net, "primary input")
        self.inputs.append(net)
        self._invalidate_caches()
        return net

    def add_output(self, net: str) -> str:
        if net in self._output_set:
            raise NetlistError(f"net {net!r} is already a primary output")
        self.outputs.append(net)
        self._output_set.add(net)
        self._invalidate_caches()
        return net

    def set_outputs(self, nets: Sequence[str]) -> None:
        """Replace the primary-output list (order-sensitive, no duplicates).

        The supported way to retarget outputs in place -- assigning
        ``netlist.outputs`` directly bypasses cache/version invalidation
        and can serve stale derived structures (topological order, Tseitin
        template) to later callers.
        """
        nets = list(nets)
        output_set = set(nets)
        if len(output_set) != len(nets):
            raise NetlistError(f"duplicate primary outputs in {nets!r}")
        self.outputs = nets
        self._output_set = output_set
        self._invalidate_caches()

    def remove_gate(self, output: str) -> Gate:
        """Remove (and return) the gate driving ``output``.

        Releases the driver claim so the net can be re-driven -- the
        fault-injection transform in :mod:`repro.atpg` rebuilds faulted
        nets this way.  All derived caches are invalidated.
        """
        gate = self.gates.pop(output, None)
        if gate is None:
            raise NetlistError(f"no gate drives net {output!r}")
        self._drivers.discard(output)
        self._invalidate_caches()
        return gate

    def remove_input(self, net: str) -> str:
        """Remove a primary input, releasing its driver claim."""
        if net not in self.inputs:
            raise NetlistError(f"net {net!r} is not a primary input")
        self.inputs.remove(net)
        self._drivers.discard(net)
        self._invalidate_caches()
        return net

    def add_gate(self, output: str, gtype: GateType, inputs: Sequence[str]) -> Gate:
        self._claim_driver(output, "gate output")
        gate = Gate(output=output, gtype=gtype, inputs=tuple(inputs))
        self.gates[output] = gate
        self._invalidate_caches()
        return gate

    def add_dff(self, q: str, d: str) -> Dff:
        self._claim_driver(q, "flip-flop output")
        dff = Dff(q=q, d=d)
        self.dffs[q] = dff
        self._invalidate_caches()
        return dff

    def _invalidate_caches(self) -> None:
        self._version += 1
        self._topo_cache = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Bumped by *every* mutator (``add_input``/``add_output``/
        ``add_gate``/``add_dff``/``set_outputs``/``remove_*``), so
        derived caches -- the Tseitin template behind
        :func:`repro.sat.tseitin.encoding_for` -- can pair a cached
        structure with the netlist state it was built from and never
        serve a stale view, even after a mutation that leaves every
        size count unchanged.
        """
        return self._version

    def _claim_driver(self, net: str, kind: str) -> None:
        if net in self._drivers:
            raise NetlistError(f"net {net!r} already has a driver (adding {kind})")
        self._drivers.add(net)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_dffs(self) -> int:
        return len(self.dffs)

    def dff_q_nets(self) -> list[str]:
        """Q nets in insertion order (the canonical flop ordering)."""
        return list(self.dffs.keys())

    def dff_d_nets(self) -> list[str]:
        return [self.dffs[q].d for q in self.dffs]

    def all_nets(self) -> set[str]:
        nets: set[str] = set(self.inputs) | set(self.outputs)
        for gate in self.gates.values():
            nets.add(gate.output)
            nets.update(gate.inputs)
        for dff in self.dffs.values():
            nets.add(dff.q)
            nets.add(dff.d)
        return nets

    # ------------------------------------------------------------------
    # topological ordering of the combinational part
    # ------------------------------------------------------------------
    def topological_gates(self) -> list[Gate]:
        """Gates in dependency order.

        Sources are primary inputs, DFF Q nets and constants; a gate is
        emitted once all of its inputs are resolved.  Raises NetlistError
        on a combinational cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache

        resolved: set[str] = set(self.inputs) | set(self.dffs)
        pending: dict[str, int] = {}
        consumers: dict[str, list[Gate]] = {}
        ready: list[Gate] = []
        for gate in self.gates.values():
            unresolved = 0
            for net in gate.inputs:
                if net not in resolved and net in self.gates:
                    unresolved += 1
                    consumers.setdefault(net, []).append(gate)
            if unresolved == 0:
                ready.append(gate)
            else:
                pending[gate.output] = unresolved

        order: list[Gate] = []
        cursor = 0
        while cursor < len(ready):
            gate = ready[cursor]
            cursor += 1
            order.append(gate)
            for consumer in consumers.get(gate.output, ()):  # newly resolvable
                pending[consumer.output] -= 1
                if pending[consumer.output] == 0:
                    ready.append(consumer)

        if len(order) != len(self.gates):
            stuck = sorted(set(self.gates) - {g.output for g in order})
            raise NetlistError(
                f"combinational cycle involving nets {stuck[:10]}"
                + ("..." if len(stuck) > 10 else "")
            )
        self._topo_cache = order
        return order

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Size summary used by reports and the CLI."""
        by_type: dict[str, int] = {}
        for gate in self.gates.values():
            by_type[gate.gtype.value] = by_type.get(gate.gtype.value, 0) + 1
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self.gates),
            "dffs": len(self.dffs),
            **{f"gate_{k}": v for k, v in sorted(by_type.items())},
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={len(self.gates)}, "
            f"dffs={len(self.dffs)})"
        )


class NetNamer:
    """Generates fresh net names with a shared prefix.

    Used by transforms (locking insertion, model construction) that add
    logic to an existing netlist and must avoid colliding with its nets.
    """

    def __init__(self, netlist: Netlist, prefix: str):
        self._prefix = prefix
        self._counter = 0
        self._taken = netlist.all_nets()

    def fresh(self, hint: str = "") -> str:
        while True:
            name = f"{self._prefix}{hint}{self._counter}"
            self._counter += 1
            if name not in self._taken:
                self._taken.add(name)
                return name
