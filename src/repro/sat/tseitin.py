"""Tseitin encoding of netlists into CNF.

Each net gets one SAT variable; every gate contributes the standard
constant-size clause set expressing ``output <-> op(inputs)``.  Multi-input
XOR/XNOR gates are decomposed into binary XOR chains with auxiliary
variables so clause counts stay linear.

Two layers:

* :func:`encoding_for` compiles a netlist **once** into a
  :class:`NetlistEncoding` — clauses over a private local variable
  numbering plus a net-name -> local-variable map.  Compilations are
  cached per netlist object, so the incremental SAT attack pays the
  gate-walk and dict churn a single time per circuit.
* :class:`CircuitEncoder` stamps template copies into a shared
  :class:`Cnf`.  Stamping is pure integer translation: one fresh-variable
  block plus a signed literal lookup table per copy, which one numpy
  gather applies to the template's flat literal buffer, appended to the
  :class:`Cnf` as one block.  That is what makes per-DIP miter extension
  cheap.

A template compiled with key inputs puts its *key-only prefix* first:
every gate whose operands are all key inputs or key-only nets, and, for
each XOR/XNOR gate with two or more key-only operands, one local holding
the XOR of just those (the gate then reads its other operands plus that
local).  A key-only net is a function of the key alone, so every copy
that shares a key computes the same value for it.  The SAT attack stamps
each key side once in full and every per-DIP copy *over* that side's
copy: it takes that copy's variables for the key inputs and the prefix
and appends only the clauses after the prefix, so a DIP copy costs the
same at every key width.  Without key-only logic (an RLL lock, or no key
inputs) the prefix is empty and the template is the plain one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.netlist.gates import GateType
from repro.netlist.netlist import Gate, Netlist
from repro.sat.cnf import Cnf


# ----------------------------------------------------------------------
# gate clause emission (shared by template compilation and ad-hoc use)
# ----------------------------------------------------------------------
def encode_gate_clauses(
    cnf: "Cnf | _FlatClauses", gate: Gate, out: int, ins: list[int]
) -> None:
    """Append the clause set for ``out <-> gate(ins)`` to ``cnf``.

    ``cnf`` is any clause sink with ``add_clause`` and ``new_var`` (a
    :class:`Cnf`, or template compilation's unchecked buffer).  Clause
    and literal order are part of the template contract: every stamped
    copy of a :class:`NetlistEncoding` replays them verbatim, so the
    solver sees the same CNF for the same netlist on every run.
    """
    gtype = gate.gtype
    add = cnf.add_clause
    if gtype is GateType.AND:
        for x in ins:
            add([-out, x])
        add([out] + [-x for x in ins])
    elif gtype is GateType.NAND:
        for x in ins:
            add([out, x])
        add([-out] + [-x for x in ins])
    elif gtype is GateType.OR:
        for x in ins:
            add([out, -x])
        add([-out] + list(ins))
    elif gtype is GateType.NOR:
        for x in ins:
            add([-out, -x])
        add([out] + list(ins))
    elif gtype is GateType.XOR:
        _encode_xor_chain(cnf, out, ins, invert=False)
    elif gtype is GateType.XNOR:
        _encode_xor_chain(cnf, out, ins, invert=True)
    elif gtype is GateType.NOT:
        add([-out, -ins[0]])
        add([out, ins[0]])
    elif gtype is GateType.BUF:
        add([-out, ins[0]])
        add([out, -ins[0]])
    elif gtype is GateType.MUX:
        sel, in0, in1 = ins
        add([-out, sel, in0])
        add([out, sel, -in0])
        add([-out, -sel, in1])
        add([out, -sel, -in1])
    elif gtype is GateType.CONST0:
        add([-out])
    elif gtype is GateType.CONST1:
        add([out])
    else:  # pragma: no cover
        raise ValueError(f"cannot encode gate type {gtype!r}")


def _encode_xor_chain(cnf: Cnf, out: int, ins: Sequence[int], invert: bool) -> None:
    """``out = x1 ^ x2 ^ ... [^ 1 when invert]``.

    Reduced as a balanced tree rather than a linear chain: same clause
    count, but implication depth O(log n), which measurably helps unit
    propagation on the wide seed-overlay XORs the attack models emit.
    """
    add = cnf.add_clause
    layer = list(ins)
    while len(layer) > 2:
        next_layer: list[int] = []
        for i in range(0, len(layer) - 1, 2):
            aux = cnf.new_var()
            _encode_xor2(cnf, aux, layer[i], layer[i + 1])
            next_layer.append(aux)
        if len(layer) % 2:
            next_layer.append(layer[-1])
        layer = next_layer
    if len(layer) == 1:
        acc = layer[0]
        if invert:
            add([-out, -acc])
            add([out, acc])
        else:
            add([-out, acc])
            add([out, -acc])
        return
    if invert:
        _encode_xor2(cnf, -out, layer[0], layer[1])
    else:
        _encode_xor2(cnf, out, layer[0], layer[1])


def _encode_xor2(cnf: Cnf, out: int, a: int, b: int) -> None:
    """``out = a ^ b`` (out may be a negative literal for XNOR)."""
    add = cnf.add_clause
    add([-out, a, b])
    add([-out, -a, -b])
    add([out, a, -b])
    add([out, -a, b])


# ----------------------------------------------------------------------
# compiled per-netlist templates
# ----------------------------------------------------------------------
_INT_SIZE = np.dtype(np.intc).itemsize


@dataclass(frozen=True)
class NetlistEncoding:
    """A netlist compiled to CNF over local variables ``1..n_locals``.

    The clauses are held flat and immutable: ``lits`` is every clause's
    literals in order and ``lengths`` the clause lengths, both as bytes
    of C ints (read with ``np.frombuffer``, which gives read-only
    arrays).  ``net_local`` maps every named net (primary inputs, gate
    outputs, gate operand nets and primary outputs) to its local
    variable; the remaining locals are Tseitin auxiliaries.  Templates
    are shared between all stamped copies.

    ``shared`` lists, as bytes of C ints, the locals a copy stamped over
    another copy of the same key side takes from it: the key inputs and
    the key-only prefix (module docstring).  The prefix's clauses are
    the first ``prefix_clauses``.
    """

    name: str
    n_locals: int
    lits: bytes
    lengths: bytes
    net_local: Mapping[str, int]
    shared: bytes
    prefix_clauses: int

    @property
    def n_clauses(self) -> int:
        return len(self.lengths) // _INT_SIZE

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """The clauses over local variables, as tuples."""
        cnf = Cnf(self.n_locals)
        cnf.append_block(self.lits, self.lengths)
        return tuple(cnf.clauses)


class _FlatClauses:
    """The clause sink of :func:`compile_encoding`: flat lists, unchecked.

    Compilation allocates every variable itself, so the per-literal
    checks of :meth:`Cnf.add_clause` have nothing to catch.
    """

    __slots__ = ("n_vars", "lits", "lengths")

    def __init__(self) -> None:
        self.n_vars = 0
        self.lits: list[int] = []
        self.lengths: list[int] = []

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add_clause(self, clause: list[int]) -> None:
        self.lits += clause
        self.lengths.append(len(clause))


#: netlist -> (the ``Netlist.version`` and key set it was compiled at,
#: template).
_TEMPLATE_CACHE: (
    "WeakKeyDictionary[Netlist, tuple[int, frozenset[str], NetlistEncoding]]"
) = WeakKeyDictionary()


def compile_encoding(
    netlist: Netlist, key_inputs: Collection[str] = ()
) -> NetlistEncoding:
    """Compile a netlist into a fresh :class:`NetlistEncoding` (no cache).

    Inputs take locals ``1..`` in input order.  With ``key_inputs``, the
    key-only prefix (module docstring) follows them; every other gate
    comes after it in topological order.
    """
    if netlist.dffs:
        raise ValueError(
            "cannot Tseitin-encode a sequential netlist; "
            "build a combinational model first"
        )
    cnf = _FlatClauses()
    net_local: dict[str, int] = {}

    def var_for(net: str) -> int:
        var = net_local.get(net)
        if var is None:
            var = cnf.new_var()
            net_local[net] = var
        return var

    for net in netlist.inputs:
        var_for(net)
    first_prefix_local = cnf.n_vars + 1
    key_only = set(key_inputs)
    shared = [net_local[net] for net in netlist.inputs if net in key_only]
    # (gate, operands, local of its key-only operands' XOR or 0)
    rest: list[tuple[Gate, Sequence[str], int]] = []
    for gate in netlist.topological_gates():
        keyed = [net for net in gate.inputs if net in key_only]
        if gate.inputs and len(keyed) == len(gate.inputs):
            key_only.add(gate.output)
            out = var_for(gate.output)
            encode_gate_clauses(cnf, gate, out, [net_local[n] for n in keyed])
        elif len(keyed) > 1 and gate.gtype in (GateType.XOR, GateType.XNOR):
            partial = cnf.new_var()
            _encode_xor_chain(
                cnf, partial, [net_local[n] for n in keyed], invert=False
            )
            others = [net for net in gate.inputs if net not in key_only]
            rest.append((gate, others, partial))
        else:
            rest.append((gate, gate.inputs, 0))
    shared += range(first_prefix_local, cnf.n_vars + 1)
    prefix_clauses = len(cnf.lengths)
    for gate, operands, partial in rest:
        out = var_for(gate.output)
        ins = [var_for(n) for n in operands]
        if partial:
            ins.append(partial)
        encode_gate_clauses(cnf, gate, out, ins)
    for net in netlist.outputs:
        var_for(net)
    return NetlistEncoding(
        name=netlist.name,
        n_locals=cnf.n_vars,
        lits=array("i", cnf.lits).tobytes(),
        lengths=array("i", cnf.lengths).tobytes(),
        net_local=net_local,
        shared=array("i", shared).tobytes(),
        prefix_clauses=prefix_clauses,
    )


def encoding_for(
    netlist: Netlist, key_inputs: Collection[str] = ()
) -> NetlistEncoding:
    """Cached :func:`compile_encoding`.

    Keyed on the netlist object, its mutation counter
    (:attr:`~repro.netlist.netlist.Netlist.version`) and the key set:
    every mutator bumps the counter, so a netlist edited after being
    encoded is always recompiled.
    """
    keys = frozenset(key_inputs)
    cached = _TEMPLATE_CACHE.get(netlist)
    if cached is not None and cached[:2] == (netlist.version, keys):
        return cached[2]
    template = compile_encoding(netlist, keys)
    _TEMPLATE_CACHE[netlist] = (netlist.version, keys, template)
    return template


class CircuitEncoder:
    """Encodes one or more netlists into a shared :class:`Cnf`.

    Net-to-variable maps are namespaced by an instance prefix so that a
    miter (two copies of the locked circuit) can share key variables while
    keeping internal nets separate.  Copies are stamped from the cached
    :class:`NetlistEncoding` template, so encoding the same netlist many
    times (the SAT attack adds two copies per DIP, each over its key
    side's miter copy) costs integer translation only.
    """

    def __init__(self, cnf: Cnf | None = None):
        self.cnf = cnf if cnf is not None else Cnf()
        self._net_vars: dict[str, int] = {}

    def var_for(self, net: str) -> int:
        """SAT variable of a (namespaced) net, created on first use."""
        var = self._net_vars.get(net)
        if var is None:
            var = self.cnf.new_var()
            self._net_vars[net] = var
        return var

    def alias(self, net: str, var: int) -> None:
        """Force a net to use an existing variable (key sharing)."""
        existing = self._net_vars.get(net)
        if existing is not None and existing != var:
            raise ValueError(f"net {net!r} already bound to variable {existing}")
        self._net_vars[net] = var

    # ------------------------------------------------------------------
    def encode_netlist(self, netlist: Netlist, prefix: str = "") -> dict[str, int]:
        """Stamp one copy of ``netlist`` into the shared CNF.

        Flip-flops are rejected: sequential circuits must first be turned
        into combinational models (that is the whole point of the attack).
        Nets already bound in the encoder's namespace (via :meth:`alias`
        or a previous copy) keep their variables; everything else gets a
        fresh contiguous variable block.  Returns the net -> variable map
        for this instance (unprefixed net names as keys).
        """
        return self.stamp(encoding_for(netlist), prefix=prefix)[0]

    def stamp(
        self,
        template: NetlistEncoding,
        prefix: str = "",
        over: np.ndarray | None = None,
    ) -> tuple[dict[str, int], np.ndarray]:
        """Instantiate a compiled template under ``prefix``.

        Returns the copy's net -> variable map and its local -> variable
        table.  ``over`` is the table of an earlier copy of the same
        template: this copy then takes that copy's variables for the
        template's ``shared`` locals (key inputs and key-only prefix)
        and appends only the clauses after the prefix.
        """
        cnf = self.cnf
        net_vars = self._net_vars
        nets = template.net_local
        keys = [prefix + net for net in nets]
        locals_ = np.fromiter(nets.values(), dtype=np.intp, count=len(nets))
        # Local -> global lookup table, slot 0 unused: nets already bound
        # keep their variables, every other local takes the next fresh
        # variable in local order.
        lut = np.zeros(template.n_locals + 1, dtype=np.intc)
        lut[locals_] = [net_vars.get(key, 0) for key in keys]
        literals = np.frombuffer(template.lits, dtype=np.intc)
        lengths = np.frombuffer(template.lengths, dtype=np.intc)
        if over is not None:
            shared = np.frombuffer(template.shared, dtype=np.intc)
            lut[shared] = over[shared]
            literals = literals[lengths[: template.prefix_clauses].sum() :]
            lengths = lengths[template.prefix_clauses :]
        fresh = np.flatnonzero(lut == 0)[1:]
        lut[fresh] = np.arange(cnf.n_vars + 1, cnf.n_vars + 1 + fresh.size)
        cnf.n_vars += fresh.size

        variables = lut[locals_].tolist()
        net_vars.update(zip(keys, variables))
        mapping = dict(zip(nets, variables))

        # Signed table: the negated entries appended in reverse, so
        # negative indexing maps literal -l to -lut[l].
        signed = np.concatenate((lut, -lut[:0:-1]))
        cnf.append_block(signed.take(literals), lengths)
        return mapping, lut
