"""Stuck-at fault testing substrate (extension).

Scan chains exist so testers can apply and observe test patterns; scan
*locking* protects that access.  This package supplies the missing third
leg for end-to-end demonstrations: a stuck-at fault model, a SAT-based
ATPG (reusing the project's Tseitin encoder and CDCL solver), and a fault
simulator.  The ATPG bench shows the security story concretely: fault
coverage collapses for an unauthenticated tester on a locked chip, and is
fully restored once DynUnlock recovers the seed.
"""

from repro.atpg.faults import StuckAtFault, enumerate_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.atpg import generate_test, generate_test_set, AtpgResult

__all__ = [
    "StuckAtFault",
    "enumerate_faults",
    "FaultSimulator",
    "generate_test",
    "generate_test_set",
    "AtpgResult",
]
