"""Structural hashing: rewrite a netlist into a canonical DAG.

One linear pass over the topological gate order rewrites every gate to a
canonical form and merges structurally identical logic:

* **constant folding** -- CONST0/CONST1 operands are absorbed per gate
  semantics (``AND(x, 0) = 0``, ``XOR(x, 1) = NOT x``, ``MUX`` with a
  constant select collapses to one branch, ...);
* **commutative-input sorting** -- AND/NAND/OR/NOR/XOR/XNOR operands are
  sorted by net name, so input-order variants hash identically;
* **idempotence / involution rewrites** -- duplicate AND/OR operands
  drop, XOR operand pairs cancel (fanout-1 XOR/XNOR chains are flattened
  first, which is what cancels the double key-overlay XORs the locked
  models emit), ``NOT(NOT(x))`` and complementary AND/OR operand pairs
  collapse;
* **common-subexpression elimination** -- two gates with the same
  canonical ``(type, operands)`` share one output net.

Nets listed in ``pinned`` (primary outputs, flip-flop D pins, caller
extras) always stay present and driven under their own name: when a
pinned gate output simplifies away, a BUF (or constant gate) alias is
materialised so the interface contract of :mod:`repro.opt` holds.  The
pass never renames or reorders primary inputs, outputs or flip-flops.
"""

from __future__ import annotations

from repro.netlist.gates import GateType
from repro.netlist.netlist import Gate, Netlist, NetNamer

#: A rewrite value: a driving net name, or a constant bit (int 0/1).
Value = "str | int"

_COMMUTATIVE = frozenset(
    {
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    }
)

#: Gate types the fanout-1 flattening step may absorb into a parent
#: XOR/XNOR (XNOR absorption flips the parent's output parity).
_XOR_CLASS = frozenset({GateType.XOR, GateType.XNOR})


class _Rewriter:
    """One structural-hashing run over a source netlist."""

    def __init__(self, src: Netlist, pinned: frozenset[str]):
        self.src = src
        self.pinned = pinned
        self.out = Netlist(name=src.name)
        # net -> canonical Value of every gate output folded away.
        self.value: dict[str, Value] = {}
        # canonical (gtype, operands) -> output net of the emitted gate.
        self.cse: dict[tuple, str] = {}
        # emitted gate output -> its canonical (gtype, operands) form.
        self.driver: dict[str, tuple[GateType, tuple[str, ...]]] = {}
        self.namer = NetNamer(src, "opt_")
        self.reads = _read_counts(src)
        self.stats = {
            "folded_const": 0,
            "aliased": 0,
            "cse_merged": 0,
            "flattened": 0,
            "pinned_aliases": 0,
        }

    # ------------------------------------------------------------------
    def run(self) -> Netlist:
        out = self.out
        for net in self.src.inputs:
            out.add_input(net)
        for dff in self.src.dffs.values():
            out.add_dff(q=dff.q, d=dff.d)
        for gate in self.src.topological_gates():
            self._rewrite(gate)
        for net in self.src.outputs:
            out.add_output(net)
        return out

    # ------------------------------------------------------------------
    def resolve(self, net: str) -> Value:
        """Follow the alias chain of ``net`` to its canonical value."""
        seen: list[str] = []
        current: Value = net
        while isinstance(current, str) and current in self.value:
            seen.append(current)
            current = self.value[current]
        for name in seen:  # path compression
            self.value[name] = current
        return current

    def _rewrite(self, gate: Gate) -> None:
        out_net = gate.output
        val = self._simplify(gate)
        if val is None:
            return  # emitted under its own name
        self.value[out_net] = val
        if out_net in self.pinned:
            self._materialize(out_net, val)

    def _materialize(self, name: str, val: Value) -> None:
        """Drive a pinned net whose logic simplified away.

        Deliberately bypasses CSE: every pinned net needs its own driver
        even when several pins share one representative.
        """
        self.stats["pinned_aliases"] += 1
        if isinstance(val, int):
            self.out.add_gate(
                name, GateType.CONST1 if val else GateType.CONST0, []
            )
        else:
            self.out.add_gate(name, GateType.BUF, [val])

    def _emit(self, out_net: str, gtype: GateType, ins: tuple[str, ...]) -> Value | None:
        """CSE-aware gate emission; returns a Value on a merge hit."""
        key = (gtype, ins)
        hit = self.cse.get(key)
        if hit is not None:
            self.stats["cse_merged"] += 1
            return hit
        self.out.add_gate(out_net, gtype, list(ins))
        self.driver[out_net] = key
        self.cse[key] = out_net
        return None

    def _not_net(self, net: str) -> str:
        """A net carrying ``NOT(net)``, reusing existing inverters."""
        form = self.driver.get(net)
        if form is not None and form[0] is GateType.NOT:
            return form[1][0]
        key = (GateType.NOT, (net,))
        hit = self.cse.get(key)
        if hit is not None:
            return hit
        fresh = self.namer.fresh("not")
        self.out.add_gate(fresh, GateType.NOT, [net])
        self.driver[fresh] = key
        self.cse[key] = fresh
        return fresh

    # ------------------------------------------------------------------
    # per-type simplification
    # ------------------------------------------------------------------
    def _simplify(self, gate: Gate) -> Value | None:
        """Canonicalise one gate; Value = folded away, None = emitted."""
        gtype = gate.gtype
        ins = [self.resolve(n) for n in gate.inputs]

        if gtype is GateType.CONST0:
            self.stats["folded_const"] += 1
            return 0
        if gtype is GateType.CONST1:
            self.stats["folded_const"] += 1
            return 1
        if gtype is GateType.BUF:
            self.stats["aliased"] += 1
            return ins[0]
        if gtype is GateType.NOT:
            return self._simplify_not(gate.output, ins[0])
        if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
            return self._simplify_and_or(gate.output, gtype, ins)
        if gtype in (GateType.XOR, GateType.XNOR):
            return self._simplify_xor(gate.output, gtype, ins)
        if gtype is GateType.MUX:
            return self._simplify_mux(gate.output, ins)
        raise ValueError(f"unknown gate type {gtype!r}")  # pragma: no cover

    def _simplify_not(self, out_net: str, operand: Value) -> Value | None:
        if isinstance(operand, int):
            self.stats["folded_const"] += 1
            return 1 - operand
        form = self.driver.get(operand)
        if form is not None and form[0] is GateType.NOT:
            self.stats["aliased"] += 1
            return form[1][0]  # NOT(NOT(x)) = x
        return self._emit(out_net, GateType.NOT, (operand,))

    def _simplify_and_or(
        self, out_net: str, gtype: GateType, ins: list[Value]
    ) -> Value | None:
        is_and = gtype in (GateType.AND, GateType.NAND)
        inverted = gtype in (GateType.NAND, GateType.NOR)
        dominant = 0 if is_and else 1  # absorbing constant
        operands: list[str] = []
        for operand in ins:
            if isinstance(operand, int):
                if operand == dominant:
                    self.stats["folded_const"] += 1
                    return dominant ^ 1 if inverted else dominant
                continue  # identity constant drops out
            operands.append(operand)
        operands = sorted(set(operands))
        # Complementary pair: AND(x, NOT x) = 0, OR(x, NOT x) = 1.
        operand_set = set(operands)
        for operand in operands:
            form = self.driver.get(operand)
            if (
                form is not None
                and form[0] is GateType.NOT
                and form[1][0] in operand_set
            ):
                self.stats["folded_const"] += 1
                return dominant ^ 1 if inverted else dominant
        if not operands:
            identity = 1 if is_and else 0
            self.stats["folded_const"] += 1
            return identity ^ 1 if inverted else identity
        if len(operands) == 1:
            if inverted:
                return self._simplify_not(out_net, operands[0])
            self.stats["aliased"] += 1
            return operands[0]
        base = GateType.AND if is_and else GateType.OR
        if inverted:
            base = GateType.NAND if is_and else GateType.NOR
        return self._emit(out_net, base, tuple(operands))

    def _simplify_xor(
        self, out_net: str, gtype: GateType, ins: list[Value]
    ) -> Value | None:
        parity = 1 if gtype is GateType.XNOR else 0
        counts: dict[str, int] = {}

        def add(operand: Value) -> None:
            nonlocal parity
            if isinstance(operand, int):
                parity ^= operand
            else:
                counts[operand] = counts.get(operand, 0) ^ 1

        for operand in ins:
            add(operand)

        # Involution rewrite: inline a fanout-1 XOR/XNOR operand *only*
        # when it shares a term with the rest of the operand set, i.e.
        # when inlining provably cancels something (XOR(XOR(x, k), k) ->
        # x).  Unconditional flattening would merely widen the XOR and
        # measurably hurt the SAT search on the overlay models.
        for _ in range(32):  # safety bound; each step cancels >= 1 term
            inlined = False
            for net, live in list(counts.items()):
                if not live:
                    continue
                form = self.driver.get(net)
                if (
                    form is None
                    or form[0] not in _XOR_CLASS
                    or net in self.pinned
                    or self.reads.get(net, 0) > 1
                ):
                    continue
                if not any(counts.get(term, 0) for term in form[1]):
                    continue  # nothing to cancel; keep the shared node
                self.stats["flattened"] += 1
                counts[net] = 0
                if form[0] is GateType.XNOR:
                    parity ^= 1
                for term in form[1]:
                    add(term)
                inlined = True
                break
            if not inlined:
                break
        operands = sorted(net for net, live in counts.items() if live)
        if not operands:
            self.stats["folded_const"] += 1
            return parity
        if len(operands) == 1:
            if parity:
                return self._simplify_not(out_net, operands[0])
            self.stats["aliased"] += 1
            return operands[0]
        base = GateType.XNOR if parity else GateType.XOR
        return self._emit(out_net, base, tuple(operands))

    def _simplify_mux(self, out_net: str, ins: list[Value]) -> Value | None:
        sel, d0, d1 = ins
        if isinstance(sel, int):
            chosen = d1 if sel else d0
            key = "folded_const" if isinstance(chosen, int) else "aliased"
            self.stats[key] += 1
            return chosen
        if d0 == d1:
            self.stats["aliased"] += 1
            return d0
        if d0 == 0 and d1 == 1:
            self.stats["aliased"] += 1
            return sel
        if d0 == 1 and d1 == 0:
            return self._simplify_not(out_net, sel)
        if d1 == 0:  # sel ? 0 : d0  ==  NOT(sel) AND d0
            return self._simplify_and_or(
                out_net, GateType.AND, [self._not_net(sel), d0]
            )
        if d1 == 1:  # sel ? 1 : d0  ==  sel OR d0
            return self._simplify_and_or(out_net, GateType.OR, [sel, d0])
        if d0 == 0:  # sel ? d1 : 0  ==  sel AND d1
            return self._simplify_and_or(out_net, GateType.AND, [sel, d1])
        if d0 == 1:  # sel ? d1 : 1  ==  NOT(sel) OR d1
            return self._simplify_and_or(
                out_net, GateType.OR, [self._not_net(sel), d1]
            )
        return self._emit(out_net, GateType.MUX, (sel, d0, d1))


def _read_counts(netlist: Netlist) -> dict[str, int]:
    """How many sinks read each net.

    Gate-input fanout comes from the netlist's cached
    :meth:`~repro.netlist.netlist.Netlist.fanout_map`; DFF D pins and
    primary outputs are additional sinks the fanout map excludes.
    """
    reads = {net: len(gates) for net, gates in netlist.fanout_map().items()}
    for dff in netlist.dffs.values():
        reads[dff.d] = reads.get(dff.d, 0) + 1
    for net in netlist.outputs:
        reads[net] = reads.get(net, 0) + 1
    return reads


def structural_hash(
    netlist: Netlist,
    pinned: frozenset[str] = frozenset(),
) -> tuple[Netlist, dict[str, int]]:
    """Rewrite ``netlist`` into canonical form; see the module docstring.

    Returns ``(rewritten, stats)``.  The input netlist is never mutated;
    the result preserves input/output/DFF names and order, and every net
    in ``pinned`` remains present and driven.
    """
    rewriter = _Rewriter(netlist, pinned)
    return rewriter.run(), rewriter.stats
