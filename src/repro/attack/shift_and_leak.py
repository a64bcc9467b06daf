"""Simplified shift-and-leak attack against the DFS defense.

Limaye et al. (2019) broke DFS (blocked scan-out) by noticing that the
attacker still *controls* the flip-flop state via scan-in and still
*observes* primary outputs in functional mode; key information leaks
through those outputs.  With that access pattern, key recovery reduces to
an oracle-guided SAT attack on the combinational core where the inputs
are (state, primary inputs) and the observables are the primary outputs
only.

This module implements that reduction directly (see the substitution note
in :mod:`repro.locking.dfs`): it extracts the locked combinational core,
treats the pseudo-primary inputs as controllable, strips the unobservable
pseudo-primary outputs, and runs the standard SAT attack with the DFS
oracle's ``load_and_observe`` as the query primitive.
"""

from __future__ import annotations

from repro.attack.satattack import AttackResult, SatAttack, SatAttackConfig
from repro.locking.dfs import DfsOracle
from repro.netlist.transform import extract_combinational_core, strip_outputs
from repro.util.timing import Stopwatch


def shift_and_leak_attack(
    lock_netlist,
    public_view,
    oracle: DfsOracle,
    candidate_limit: int = 64,
    timeout_s: float | None = None,
    opt_level: int | None = None,
) -> AttackResult:
    """Recover the DFS logic-locking key through PO leakage.

    ``lock_netlist`` is the reverse-engineered locked netlist (with key
    inputs); ``public_view`` names those key inputs.
    """
    watch = Stopwatch().start()
    core, ppi_nets, _ = extract_combinational_core(lock_netlist)
    # Scan-out is blocked, so pseudo-primary outputs are unobservable.
    observable = strip_outputs(
        core, [net for net in core.outputs if not net.startswith("ppo_")]
    )

    key_set = set(public_view.key_inputs)
    x_inputs = [net for net in observable.inputs if net not in key_set]
    n_state = len(ppi_nets)
    # x order: original PIs first, then ppi_* (extract_combinational_core
    # appends state inputs after the functional ones).
    n_pi = len(x_inputs) - n_state

    def oracle_fn(x_bits: list[int]) -> list[int]:
        pi = x_bits[:n_pi]
        state = x_bits[n_pi:]
        return oracle.load_and_observe(state, pi)

    attack = SatAttack(
        locked=observable,
        key_inputs=list(public_view.key_inputs),
        oracle_fn=oracle_fn,
        config=SatAttackConfig(
            candidate_limit=candidate_limit,
            timeout_s=timeout_s,
            opt_level=opt_level,  # SatAttack optimizes the observable core
        ),
    )
    result = attack.run()
    watch.stop()
    recovered = result.key_candidates[0] if result.key_candidates else None
    return AttackResult(
        success=result.converged and recovered is not None,
        recovered_key=recovered,
        key_candidates=result.key_candidates,
        iterations=result.iterations,
        runtime_s=watch.total,
        timed_out=result.timed_out,
    )

