"""SAT-based automatic test pattern generation.

For a stuck-at fault, build the standard ATPG miter -- a good copy and a
faulty copy sharing primary inputs, constrained to differ on at least one
output -- and hand it to the project's CDCL solver.  SAT model = test
pattern; UNSAT = fault untestable (redundant logic).

This reuses the exact machinery the attacks use (Tseitin encoder +
solver), which is fitting: the SAT attack literature grew out of ATPG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atpg.faults import StuckAtFault
from repro.atpg.fault_sim import FaultSimulator
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.transform import rename_nets
from repro.sat.solver import CdclSolver
from repro.sat.tseitin import CircuitEncoder


def _faulty_copy(netlist: Netlist, fault: StuckAtFault, prefix: str) -> Netlist:
    """Copy of the netlist with the fault site replaced by a constant.

    The faulted net keeps its name but is driven by CONST; its original
    driver (if a gate) is re-emitted under an alias so side outputs are
    unaffected (single-output gates: the alias is simply unused).
    """
    def mapper(net: str) -> str:
        return prefix + net

    copy = rename_nets(netlist, mapper)
    target = prefix + fault.net
    const = GateType.CONST1 if fault.stuck_value else GateType.CONST0
    if target in copy.gates:
        gate = copy.remove_gate(target)  # releases the driver claim
        copy.add_gate(f"{target}__prefault", gate.gtype, gate.inputs)
        copy.add_gate(target, const, [])
    elif target in [prefix + n for n in netlist.inputs]:
        copy.remove_input(target)
        copy.add_gate(target, const, [])
    else:
        raise NetlistError(f"fault site {fault.net!r} not found")
    return copy


@dataclass
class AtpgResult:
    """Outcome of test generation over a fault list."""

    patterns: list[dict[str, int]]
    detected: list[StuckAtFault]
    untestable: list[StuckAtFault]
    aborted: list[StuckAtFault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.untestable) + len(self.aborted)
        if total == 0:
            return 1.0
        return len(self.detected) / total


def generate_test(
    netlist: Netlist,
    fault: StuckAtFault,
    max_conflicts: int | None = 100_000,
) -> dict[str, int] | None:
    """One test pattern detecting ``fault``, or None if untestable.

    Raises TimeoutError when the conflict budget runs out (rare at this
    project's circuit sizes).
    """
    if netlist.dffs:
        raise NetlistError("ATPG operates on the combinational core")
    encoder = CircuitEncoder()
    # Shared primary inputs.  A fault on an input must NOT be aliased:
    # in the faulty copy that net is a constant, while the good copy (and
    # the generated pattern) still drive the real value.
    for net in netlist.inputs:
        var = encoder.var_for(f"X::{net}")
        encoder.alias(f"G::{net}", var)
        if net != fault.net:
            encoder.alias(f"F::{net}", var)
    good = encoder.encode_netlist(netlist, prefix="G::")
    faulty_netlist = _faulty_copy(netlist, fault, prefix="F::")
    # The faulty copy is pre-prefixed; encode without additional prefix.
    faulty = encoder.encode_netlist(faulty_netlist, prefix="")

    cnf = encoder.cnf
    diff_lits = []
    for net in netlist.outputs:
        yg, yf = good[net], faulty[f"F::{net}"]
        d = cnf.new_var()
        cnf.add_clause([-d, yg, yf])
        cnf.add_clause([-d, -yg, -yf])
        cnf.add_clause([d, yg, -yf])
        cnf.add_clause([d, -yg, yf])
        diff_lits.append(d)
    cnf.add_clause(diff_lits)

    solver = CdclSolver(cnf)
    result = solver.solve(max_conflicts=max_conflicts)
    if result.satisfiable is None:
        raise TimeoutError(f"ATPG budget exhausted for {fault}")
    if result.satisfiable is False:
        return None
    assert result.model is not None
    return {
        net: result.model[encoder.var_for(f"X::{net}")] for net in netlist.inputs
    }


def generate_test_set(
    netlist: Netlist,
    faults: list[StuckAtFault],
) -> AtpgResult:
    """Generate patterns covering a fault list.

    Each new pattern is fault-simulated against the remaining faults so
    already-covered faults are skipped -- the standard ATPG flow.
    """
    sim = FaultSimulator(netlist)
    remaining = list(faults)
    patterns: list[dict[str, int]] = []
    detected: list[StuckAtFault] = []
    untestable: list[StuckAtFault] = []
    aborted: list[StuckAtFault] = []

    while remaining:
        fault = remaining.pop(0)
        try:
            pattern = generate_test(netlist, fault)
        except TimeoutError:
            aborted.append(fault)
            continue
        if pattern is None:
            untestable.append(fault)
            continue
        patterns.append(pattern)
        detected.append(fault)
        still_remaining = []
        for other in remaining:
            if sim.detects(pattern, other):
                detected.append(other)
            else:
                still_remaining.append(other)
        remaining = still_remaining
    return AtpgResult(
        patterns=patterns,
        detected=detected,
        untestable=untestable,
        aborted=aborted,
    )
