"""DFS: robust design-for-security architecture (simplified model).

Guin et al. (TVLSI 2018) protect a logic-locked design by *blocking the
scan-out port* in functional mode and on any mode switch, so captured
responses never leave through the scan chain and the SAT attack loses its
oracle.  Shift-and-leak (Limaye et al. 2019) defeated it by leaking
response information through paths that remain observable.

Substitution note (documented in DESIGN.md): we model the essence rather
than the full mode-controller FSM.  The locked chip here allows

* loading any flip-flop state through the scan chain (shift-in works),
* observing primary outputs in functional mode,

and forbids scan-out after a capture.  The simplified shift-and-leak in
:mod:`repro.attack.shift_and_leak` then works exactly like the published
attack's end effect: it turns PO observations under attacker-chosen states
into an oracle for a combinational SAT attack on the logic-locking key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.locking.rll import RllLock, lock_combinational_rll
from repro.netlist.netlist import Netlist
from repro.sim.logicsim import CombinationalSimulator


@dataclass(frozen=True)
class DfsPublicView:
    """Reverse-engineerable facts about a DFS-protected chip."""
    key_inputs: tuple[str, ...]
    key_bits: int


@dataclass
class DfsLock:
    """A sequential circuit whose logic is RLL-locked and scan-out blocked."""

    rll: RllLock

    @property
    def netlist(self) -> Netlist:
        return self.rll.locked

    @property
    def key_bits(self) -> int:
        return self.rll.key_bits

    def public_view(self) -> DfsPublicView:
        return DfsPublicView(
            key_inputs=tuple(self.rll.key_inputs), key_bits=self.rll.key_bits
        )

    def make_oracle(self) -> "DfsOracle":
        return DfsOracle(self)


class DfsOracle:
    """The chip under the DFS restrictions.

    ``load_and_observe`` is the only data path the defense leaves open:
    scan in a state, stay in functional mode, read the primary outputs
    combinationally.  Any attempt to scan out raises, mirroring the
    blocked port.
    """

    def __init__(self, lock: DfsLock):
        self._lock = lock
        # The oracle owns the secret key; evaluation uses the locked
        # netlist with the correct key applied, which equals the original.
        self._sim = CombinationalSimulator(lock.rll.locked)
        self._functional_inputs = [
            net
            for net in lock.rll.locked.inputs
            if net not in set(lock.rll.key_inputs)
        ]
        self.query_count = 0

    @property
    def n_flops(self) -> int:
        return self._lock.netlist.n_dffs

    @property
    def functional_inputs(self) -> list[str]:
        return list(self._functional_inputs)

    def load_and_observe(
        self, state: Sequence[int], primary_inputs: Sequence[int] | None = None
    ) -> list[int]:
        """Scan a state in, observe POs in functional mode (no capture)."""
        netlist = self._lock.netlist
        if len(state) != netlist.n_dffs:
            raise ValueError(f"state must have {netlist.n_dffs} bits")
        pi = (
            list(primary_inputs)
            if primary_inputs is not None
            else [0] * len(self._functional_inputs)
        )
        if len(pi) != len(self._functional_inputs):
            raise ValueError("primary input width mismatch")
        self.query_count += 1
        inputs = dict(zip(self._functional_inputs, pi))
        for net, bit in zip(self._lock.rll.key_inputs, self._lock.rll.secret_key):
            inputs[net] = bit
        state_map = dict(zip(netlist.dff_q_nets(), [int(b) for b in state]))
        values = self._sim.run(inputs, state_map)
        return [values[net] for net in netlist.outputs]

    def scan_out(self) -> None:
        raise PermissionError(
            "DFS blocks the scan-out port after functional operation"
        )


def lock_with_dfs(netlist: Netlist, key_bits: int, rng: random.Random) -> DfsLock:
    """Apply the (simplified) DFS defense: RLL logic lock + blocked scan-out."""
    return DfsLock(rll=lock_combinational_rll(netlist, key_bits, rng))
