"""ScanSAT: the SAT attack on *statically* obfuscated scan chains.

Alrahis et al. (ASP-DAC 2019) broke static EFF by modeling the scan
scramble as XOR overlays controlled directly by the (static) key and
running the SAT attack -- Table I's first row.  DynUnlock generalises
this to per-cycle dynamic keys; here the same project machinery is run in
``static`` mode, so the attack shares every line of modeling and SAT code
with DynUnlock and differs only in what the key inputs mean.  The
attack itself is :func:`repro.attack.bruteforce.attack_and_replay`: the
DIP loop in one incremental solver session, then bit-parallel replay
refinement.
"""

from __future__ import annotations

from repro.attack.bruteforce import attack_and_replay
from repro.attack.satattack import AttackResult
from repro.core.modeling import build_combinational_model
from repro.locking.eff import EffStaticPublicView
from repro.netlist.netlist import Netlist
from repro.scan.oracle import ScanOracle
from repro.util.timing import Stopwatch


def scansat_attack(
    netlist: Netlist,
    public_view: EffStaticPublicView,
    oracle: ScanOracle,
    candidate_limit: int = 256,
    timeout_s: float | None = None,
    opt_level: int | None = None,
) -> AttackResult:
    """Recover a static EFF scan-locking key through the oracle."""
    watch = Stopwatch().start()
    model = build_combinational_model(
        netlist,
        spec=public_view.spec,
        taps=None,
        key_bits=public_view.spec.n_keygates,
        mode="static",
    )
    return attack_and_replay(
        model,
        lambda scan_in, pi: model.observe(oracle.query(scan_in, pi)),
        watch,
        candidate_limit=candidate_limit,
        timeout_s=timeout_s,
        opt_level=opt_level,
        verify_patterns=16,
        rng_seed=0x5CA9,
    )
