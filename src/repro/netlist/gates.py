"""Primitive gate library.

The set matches what the ISCAS-89 ``.bench`` format uses (AND, NAND, OR,
NOR, XOR, XNOR, NOT, BUFF) plus a 2:1 MUX (select, in0, in1) used by
MUX-based locking schemes, and constants.  DFFs are represented at the
netlist level, not as a gate type, because they have state.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np


class GateType(Enum):
    """The primitive gate vocabulary shared by every subsystem."""
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    MUX = "MUX"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Required input count per gate type; None means "two or more".
GATE_ARITY: dict[GateType, int | None] = {
    GateType.AND: None,
    GateType.NAND: None,
    GateType.OR: None,
    GateType.NOR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.MUX: 3,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
}


def check_arity(gtype: GateType, n_inputs: int) -> None:
    """Raise ValueError when an input count is illegal for the gate type."""
    required = GATE_ARITY[gtype]
    if required is None:
        if n_inputs < 2:
            raise ValueError(f"{gtype} requires at least 2 inputs, got {n_inputs}")
    elif n_inputs != required:
        raise ValueError(f"{gtype} requires {required} inputs, got {n_inputs}")


def evaluate_gate(gtype: GateType, inputs: Sequence[int]) -> int:
    """Evaluate one gate on scalar bit inputs."""
    check_arity(gtype, len(inputs))
    if gtype is GateType.AND:
        return int(all(inputs))
    if gtype is GateType.NAND:
        return int(not all(inputs))
    if gtype is GateType.OR:
        return int(any(inputs))
    if gtype is GateType.NOR:
        return int(not any(inputs))
    if gtype is GateType.XOR:
        acc = 0
        for bit in inputs:
            acc ^= bit
        return acc
    if gtype is GateType.XNOR:
        acc = 1
        for bit in inputs:
            acc ^= bit
        return acc
    if gtype is GateType.NOT:
        return 1 - inputs[0]
    if gtype is GateType.BUF:
        return int(inputs[0])
    if gtype is GateType.MUX:
        sel, in0, in1 = inputs
        return int(in1 if sel else in0)
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    raise ValueError(f"unknown gate type {gtype!r}")  # pragma: no cover


def evaluate_gate_vec(gtype: GateType, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate one gate on numpy bit arrays (vectorised over patterns)."""
    check_arity(gtype, len(inputs))
    if gtype is GateType.AND or gtype is GateType.NAND:
        acc = inputs[0].copy()
        for arr in inputs[1:]:
            acc &= arr
        return acc if gtype is GateType.AND else acc ^ 1
    if gtype is GateType.OR or gtype is GateType.NOR:
        acc = inputs[0].copy()
        for arr in inputs[1:]:
            acc |= arr
        return acc if gtype is GateType.OR else acc ^ 1
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        acc = inputs[0].copy()
        for arr in inputs[1:]:
            acc ^= arr
        return acc if gtype is GateType.XOR else acc ^ 1
    if gtype is GateType.NOT:
        return inputs[0] ^ 1
    if gtype is GateType.BUF:
        return inputs[0].copy()
    if gtype is GateType.MUX:
        sel, in0, in1 = inputs
        return (in0 & (sel ^ 1)) | (in1 & sel)
    raise ValueError(f"vector evaluation unsupported for {gtype!r}")


# .bench name -> GateType (both directions; BUFF is the ISCAS spelling).
BENCH_NAMES: dict[str, GateType] = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "MUX": GateType.MUX,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}


def bench_name(gtype: GateType) -> str:
    """Canonical ``.bench`` spelling of a gate type."""
    if gtype is GateType.BUF:
        return "BUFF"
    return gtype.value
