"""ISCAS-89 ``.bench`` format reader/writer.

The format, as used by the ISCAS-89 and ITC-99 suites the paper evaluates:

.. code-block:: text

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G7 = DFF(G10)
    G10 = NAND(G0, G7)
    G17 = NOT(G10)

Gate names are case-insensitive keywords; nets are arbitrary identifiers.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.netlist.gates import BENCH_NAMES, bench_name
from repro.netlist.netlist import Netlist, NetlistError

_LINE_RE = re.compile(
    r"^\s*(?P<out>[\w.\[\]$/\\-]+)\s*=\s*(?P<op>\w+)\s*\(\s*(?P<args>[^)]*)\)\s*$"
)
_IO_RE = re.compile(r"^\s*(?P<kind>INPUT|OUTPUT)\s*\(\s*(?P<net>[\w.\[\]$/\\-]+)\s*\)\s*$", re.I)


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse ``.bench`` source text into a :class:`Netlist`.

    Every structural violation -- duplicate drivers, duplicate INPUT or
    OUTPUT declarations, bad gate arity, unknown operators, malformed
    lines -- raises :class:`NetlistError` carrying the 1-based source
    line number.  Blank lines, ``\\r\\n`` endings and ``#`` comments
    (full-line or trailing) are tolerated everywhere.
    """
    netlist = Netlist(name=name)
    deferred_outputs: list[str] = []
    seen_outputs: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            io_match = _IO_RE.match(line)
            if io_match:
                net = io_match.group("net")
                if io_match.group("kind").upper() == "INPUT":
                    netlist.add_input(net)
                else:
                    if net in seen_outputs:
                        raise NetlistError(
                            f"net {net!r} is already a primary output"
                        )
                    seen_outputs.add(net)
                    deferred_outputs.append(net)
                continue
            gate_match = _LINE_RE.match(line)
            if not gate_match:
                raise NetlistError(f"cannot parse {raw!r}")
            out = gate_match.group("out")
            op = gate_match.group("op").upper()
            args = [
                a.strip() for a in gate_match.group("args").split(",") if a.strip()
            ]
            if op == "DFF":
                if len(args) != 1:
                    raise NetlistError(f"DFF takes one input, got {args}")
                netlist.add_dff(q=out, d=args[0])
            elif op in BENCH_NAMES:
                # ValueError covers arity violations from Gate.__post_init__.
                netlist.add_gate(out, BENCH_NAMES[op], args)
            else:
                raise NetlistError(f"unknown gate type {op!r}")
        except (NetlistError, ValueError) as err:
            raise NetlistError(f"line {lineno}: {err}") from err
    # OUTPUT() may name a net declared later, so markers apply at the end;
    # duplicates were already rejected above, with their line number.
    for net in deferred_outputs:
        netlist.add_output(net)
    return netlist


def write_bench(netlist: Netlist) -> str:
    """Serialise a netlist to ``.bench`` text (stable ordering)."""
    lines = [f"# {netlist.name}"]
    lines += [f"INPUT({net})" for net in netlist.inputs]
    lines += [f"OUTPUT({net})" for net in netlist.outputs]
    lines += [f"{dff.q} = DFF({dff.d})" for dff in netlist.dffs.values()]
    for gate in netlist.gates.values():
        lines.append(f"{gate.output} = {bench_name(gate.gtype)}({', '.join(gate.inputs)})")
    return "\n".join(lines) + "\n"


def load_bench_file(path: str | Path) -> Netlist:
    """Parse a ``.bench`` file from disk into a :class:`Netlist`."""
    path = Path(path)
    return parse_bench(path.read_text(), name=path.stem)
