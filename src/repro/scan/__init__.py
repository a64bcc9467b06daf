"""Scan-chain substrate.

Models the design-for-test machinery the paper's defenses live in: a
single scan chain stitched through all flip-flops, a shift/capture test
protocol, and the *oracle* — the attacker's view of a working chip whose
scan path is obfuscated by key gates driven by a dynamic PRNG.

The shift semantics are implemented exactly once
(:mod:`repro.scan.chain`), generically over the bit type, and reused by:

* the concrete protocol oracle (:mod:`repro.scan.oracle`),
* the symbolic overlay derivation used by DynUnlock's combinational
  modeling (:mod:`repro.core.modeling`),
* the structural netlist emitter (:mod:`repro.scan.structural`) used for
  figure reproduction and cross-checking.
"""

from repro.scan.chain import ScanChainSpec, shift_in
from repro.scan.oracle import ScanOracle, ScanResponse
from repro.scan.structural import build_scan_netlist
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec

__all__ = [
    "MultiChainScanOracle",
    "MultiChainSpec",
    "ScanChainSpec",
    "shift_in",
    "ScanOracle",
    "ScanResponse",
    "build_scan_netlist",
]
