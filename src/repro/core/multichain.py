"""DynUnlock against multi-chain locked designs (extension).

The modeling step generalises verbatim: with all chains clocked together
and padded loads, the keystream cycle at which a payload bit crosses a
key gate depends only on the *maximum* chain length, so the closed forms
of :mod:`repro.core.algorithm1` carry over with ``n := max_len`` and the
key-gate index replaced by the global key-bit index.  The correctness
criterion -- model(true seed) == oracle -- is asserted in the test suite
against the independently implemented multi-chain oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attack.bruteforce import refine_candidates_by_replay
from repro.attack.satattack import SatAttack, SatAttackConfig
from repro.core.modeling import CombinationalModel
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import copy_with_prefix, extract_combinational_core
from repro.prng.symbolic import SymbolicLfsr
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec
from repro.util.timing import Stopwatch


def derive_multichain_crossings(
    spec: MultiChainSpec, n_captures: int = 1
) -> tuple[list[frozenset], list[frozenset]]:
    """(cycle, global key index) crossings per *global* flop index."""
    n = spec.max_length
    crossings_in: list[frozenset] = []
    crossings_out: list[frozenset] = []
    for chain in range(spec.n_chains):
        gates = spec.gates_in_chain(chain)
        length = spec.chain_lengths[chain]
        for l in range(length):
            hits_in = {
                (n - l + position, key_index)
                for key_index, position in gates
                if position < l
            }
            hits_out = {
                (n + n_captures + position - l, key_index)
                for key_index, position in gates
                if position >= l
            }
            crossings_in.append(frozenset(hits_in))
            crossings_out.append(frozenset(hits_out))
    return crossings_in, crossings_out


def build_multichain_model(
    netlist: Netlist,
    spec: MultiChainSpec,
    taps: Sequence[int],
    key_bits: int,
    n_captures: int = 1,
    include_pos: bool = True,
) -> CombinationalModel:
    """Combinational model of a multi-chain EFF-Dyn lock.

    Returns a :class:`repro.core.modeling.CombinationalModel`; ``a`` and
    ``b`` indices use the global flop order, matching the oracle.
    """
    if spec.n_flops != netlist.n_dffs:
        raise ValueError("chain spec does not match the netlist flop count")
    if key_bits < spec.n_keygates:
        raise ValueError("key width smaller than the number of key gates")
    n_total = spec.n_flops

    core, _, _ = extract_combinational_core(netlist)
    model = Netlist(name=f"{netlist.name}_mc_model")
    a_inputs = [f"dyn_a{l}" for l in range(n_total)]
    for net in a_inputs:
        model.add_input(net)
    pi_inputs = [f"c0::{net}" for net in netlist.inputs]
    key_inputs = [f"dyn_seed{j}" for j in range(key_bits)]

    for k in range(n_captures):
        prefix = f"c{k}::"
        core_copy = copy_with_prefix(core, prefix)
        if k == 0:
            for net in core_copy.inputs:
                if not net.startswith(f"{prefix}ppi_"):
                    model.add_input(net)
        else:
            for orig in netlist.inputs:
                model.add_gate(f"{prefix}{orig}", GateType.BUF, [f"c0::{orig}"])
            for idx in range(n_total):
                model.add_gate(
                    f"{prefix}ppi_{idx}", GateType.BUF, [f"c{k - 1}::ppo_{idx}"]
                )
        for gate in core_copy.gates.values():
            model.add_gate(gate.output, gate.gtype, gate.inputs)

    for net in key_inputs:
        model.add_input(net)

    sym = SymbolicLfsr(width=key_bits, taps=tuple(taps))
    crossings_in, crossings_out = derive_multichain_crossings(
        spec, n_captures=n_captures
    )

    # One ascending keystream sweep for all overlay rows (see the
    # equivalent batching note in repro.core.modeling).
    dense_rows: dict[frozenset, np.ndarray] = {}
    wanted: dict[int, list[tuple[frozenset, int]]] = {}
    for crossing in list(crossings_in) + list(crossings_out):
        if crossing in dense_rows:
            continue
        dense_rows[crossing] = np.zeros(key_bits, dtype=np.uint8)
        for cycle, key_index in crossing:
            wanted.setdefault(cycle, []).append((crossing, key_index))
    for cycle, rows in sym.iter_rows(wanted.keys()):
        for crossing, key_index in wanted[cycle]:
            dense_rows[crossing] ^= rows[key_index]

    def overlay_operands(crossings: frozenset) -> list[str]:
        return [key_inputs[j] for j in np.nonzero(dense_rows[crossings])[0]]
    for l in range(n_total):
        operands = [a_inputs[l]] + overlay_operands(crossings_in[l])
        target = f"c0::ppi_{l}"
        if len(operands) == 1:
            model.add_gate(target, GateType.BUF, operands)
        else:
            model.add_gate(target, GateType.XOR, operands)

    last = f"c{n_captures - 1}::"
    b_outputs = [f"dyn_b{l}" for l in range(n_total)]
    for l in range(n_total):
        operands = [f"{last}ppo_{l}"] + overlay_operands(crossings_out[l])
        if len(operands) == 1:
            model.add_gate(b_outputs[l], GateType.BUF, operands)
        else:
            model.add_gate(b_outputs[l], GateType.XOR, operands)
        model.add_output(b_outputs[l])

    po_outputs: list[str] = []
    if include_pos:
        for net in netlist.outputs:
            po_net = f"{last}{net}"
            model.add_output(po_net)
            po_outputs.append(po_net)

    # Reuse the single-chain result type; `spec` differs, so store a
    # surrogate single-chain view only for the shared fields.
    from repro.scan.chain import ScanChainSpec

    surrogate = ScanChainSpec(n_flops=n_total)
    return CombinationalModel(
        netlist=model,
        a_inputs=a_inputs,
        pi_inputs=pi_inputs,
        key_inputs=key_inputs,
        b_outputs=b_outputs,
        po_outputs=po_outputs,
        spec=surrogate,
        mode="dynamic",
        n_captures=n_captures,
    )


@dataclass
class MultiChainAttackResult:
    """Outcome of DynUnlock against a multi-chain oracle."""
    success: bool
    recovered_seed: list[int] | None
    seed_candidates: list[list[int]]
    iterations: int
    runtime_s: float


def dynunlock_multichain(
    netlist: Netlist,
    spec: MultiChainSpec,
    taps: Sequence[int],
    key_bits: int,
    oracle: MultiChainScanOracle,
    candidate_limit: int = 256,
    verify_patterns: int = 24,
    timeout_s: float | None = None,
    rng_seed: int = 0x3C4A,
) -> MultiChainAttackResult:
    """Run DynUnlock against a multi-chain oracle."""
    watch = Stopwatch().start()
    model = build_multichain_model(netlist, spec, taps, key_bits)
    n_a = len(model.a_inputs)

    def oracle_fn(x_bits: list[int]) -> list[int]:
        response = oracle.query(x_bits[:n_a], x_bits[n_a:])
        observed = list(response.scan_out)
        if model.po_outputs:
            observed += list(response.primary_outputs)
        return observed

    attack = SatAttack(
        model.netlist,
        model.key_inputs,
        oracle_fn,
        SatAttackConfig(candidate_limit=candidate_limit, timeout_s=timeout_s),
    )
    result = attack.run()

    recovered: list[int] | None = None
    if result.key_candidates:
        refinement = refine_candidates_by_replay(
            model,
            result.key_candidates,
            lambda scan_in, pi: oracle_fn(list(scan_in) + list(pi)),
            random.Random(rng_seed),
            n_patterns=verify_patterns,
            stop_at_one=False,
        )
        if refinement.survivors:
            recovered = refinement.survivors[0]

    watch.stop()
    return MultiChainAttackResult(
        success=recovered is not None,
        recovered_seed=recovered,
        seed_candidates=result.key_candidates,
        iterations=result.iterations,
        runtime_s=watch.total,
    )
