#!/usr/bin/env python3
"""Reproduce Fig. 2: the EFF-Dyn test-authentication scheme.

Run:  python examples/fig2_authentication.py

Fig. 2 of the paper shows a comparator checking the external test key
against the TPM-stored secret key, and a key selector routing either the
secret key (match) or the per-cycle PRNG output (mismatch) to the key
gates.  This script exercises all the paths: trusted tester, attacker,
and the capture-cycle behaviour where the TPM always wins.
"""

import random

from repro.bench_suite.iscas import s27_netlist
from repro.locking.effdyn import lock_with_effdyn
from repro.locking.tpm import AuthenticationScheme, TamperProofMemory
from repro.util.bitvec import bits_to_str, random_bits


def main() -> None:
    rng = random.Random(2)
    netlist = s27_netlist()
    lock = lock_with_effdyn(netlist, key_bits=2, rng=rng)
    secret_key = list(lock.secret_key)
    print(f"TPM secret key: {bits_to_str(secret_key)} "
          "(known only to the design house and trusted testers)")

    auth = AuthenticationScheme(TamperProofMemory.with_key(secret_key))
    prng = lock.keystream()

    # --- Trusted tester path ------------------------------------------
    print("\n[trusted tester] supplies the correct test key")
    matched = auth.authenticate(secret_key)
    print(f"comparator output: {'match' if matched else 'MISMATCH'}")
    assert matched
    for cycle in range(3):
        key = auth.select_key(scan_enable=1, prng_key=prng.next_key())
        print(f"  shift cycle {cycle}: key gates driven by "
              f"{bits_to_str(key)} (the secret key, every cycle)")
        assert key == secret_key

    # --- Attacker path -------------------------------------------------
    print("\n[attacker] supplies a wrong test key")
    guess = [1 - b for b in secret_key]
    matched = auth.authenticate(guess)
    print(f"comparator output: {'match' if matched else 'MISMATCH'}")
    assert not matched
    prng.restart()
    for cycle in range(4):
        key = auth.select_key(scan_enable=1, prng_key=prng.next_key())
        print(f"  shift cycle {cycle}: key gates driven by "
              f"{bits_to_str(key)} (PRNG output -- changes every cycle)")

    # --- Capture: TPM always controls the gates (SE low) ---------------
    print("\n[capture cycle] SE low: the TPM key drives the gates for")
    print("everyone, so functional operation is never corrupted:")
    key = auth.select_key(scan_enable=0, prng_key=prng.next_key())
    print(f"  capture: key gates driven by {bits_to_str(key)}")
    assert key == secret_key

    # --- Effect on actual scan data ------------------------------------
    print("\neffect on scan responses for the same pattern:")
    pattern = random_bits(3, rng)
    trusted = lock.make_oracle(test_key=secret_key)
    attacker = lock.make_oracle(test_key=guess)
    print(f"  pattern:         {bits_to_str(pattern)}")
    print(f"  trusted tester:  "
          f"{bits_to_str(trusted.query(pattern).scan_out)}")
    print(f"  attacker:        "
          f"{bits_to_str(attacker.query(pattern).scan_out)}")


if __name__ == "__main__":
    main()
