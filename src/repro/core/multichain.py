"""DynUnlock against multi-chain locked designs (extension).

The modeling step generalises verbatim: with all chains clocked together
and padded loads, the keystream cycle at which a payload bit crosses a
key gate depends only on the *maximum* chain length, so the closed forms
of :mod:`repro.core.algorithm1` carry over with ``n := max_len`` and the
key-gate index replaced by the global key-bit index.  Only the crossing
sets differ from the single-chain case: the model is wired by the same
:func:`repro.core.modeling.assemble_model`, and the attack is the same
:func:`repro.attack.bruteforce.attack_and_replay` pipeline.  The
correctness criterion -- model(true seed) == oracle -- is asserted in
the test suite against the independently implemented multi-chain
oracle.
"""

from __future__ import annotations

from typing import Sequence

from repro.attack.bruteforce import attack_and_replay
from repro.attack.satattack import AttackResult
from repro.core.modeling import CombinationalModel, assemble_model
from repro.netlist.netlist import Netlist
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
) -> CombinationalModel:
    """Combinational model of a multi-chain EFF-Dyn lock.

    Returns a :class:`repro.core.modeling.CombinationalModel`; ``a`` and
    ``b`` indices use the global flop order, matching the oracle.
    """
    if spec.n_flops != netlist.n_dffs:
        raise ValueError("chain spec does not match the netlist flop count")
    if key_bits < spec.n_keygates:
        raise ValueError("key width smaller than the number of key gates")
    key_inputs = [f"dyn_seed{j}" for j in range(key_bits)]
    crossings_in, crossings_out = derive_multichain_crossings(
        spec, n_captures=n_captures
    )
    return assemble_model(
        netlist,
        f"{netlist.name}_mc_model",
        key_inputs,
        crossings_in,
        crossings_out,
        taps,
        n_captures=n_captures,
    )


def dynunlock_multichain(
    netlist: Netlist,
    spec: MultiChainSpec,
    taps: Sequence[int],
    key_bits: int,
    oracle: MultiChainScanOracle,
    timeout_s: float | None = None,
) -> AttackResult:
    """Run DynUnlock against a multi-chain oracle.

    ``recovered_key`` is the LFSR seed; replay runs every pattern.
    """
    watch = Stopwatch().start()
    model = build_multichain_model(netlist, spec, taps, key_bits)
    return attack_and_replay(
        model,
        lambda scan_in, pi: model.observe(oracle.query(scan_in, pi)),
        watch,
        candidate_limit=256,
        timeout_s=timeout_s,
        opt_level=None,
        verify_patterns=24,
        rng_seed=0x3C4A,
        stop_at_one=False,
    )
