"""CNF formula container and DIMACS serialisation.

Literals follow the DIMACS convention: non-zero signed integers, where
``+v`` is the positive literal of variable ``v`` (variables are 1-based)
and ``-v`` its negation.

A :class:`Cnf` keeps its clauses flat, as MiniSat keeps its clause
arena: one buffer of 32-bit literals, every clause's literals in order,
and one buffer of clause lengths.  Encoders append to it without
building a Python object per clause, and the solver takes a suffix of
both buffers in one call (:meth:`Cnf.suffix`).  ``clauses`` is a
tuple-per-clause view for the cold paths (DIMACS output, evaluation,
preprocessing, tests).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


def lit_of(var: int, positive: bool = True) -> int:
    """Build a literal from a variable index."""
    if var <= 0:
        raise ValueError("variables are 1-based positive integers")
    return var if positive else -var


def var_of(lit: int) -> int:
    """Variable index of a literal."""
    if lit == 0:
        raise ValueError("0 is not a literal")
    return abs(lit)


def is_negative(lit: int) -> bool:
    """True when the literal is a negated variable."""
    return lit < 0


class Cnf:
    """A growable CNF formula.

    Tracks the highest variable used; fresh-variable allocation goes
    through :meth:`new_var` so encoders can interleave with manually
    numbered variables safely.
    """

    def __init__(self, n_vars: int = 0):
        self.n_vars = n_vars
        self._lits = array("i")
        self._lengths = array("i")

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append one clause; ``n_vars`` grows to cover its literals."""
        clause = list(lits)
        top = self.n_vars
        for lit in clause:
            if lit > top:
                top = lit
            elif -lit > top:
                top = -lit
            elif not lit:
                raise ValueError("literal 0 is not allowed")
        self._store(clause, [len(clause)], top)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def _store(self, lits: list[int], lengths: list[int], top: int) -> None:
        """Append clauses of non-zero literals whose largest variable is ``top``."""
        try:
            self._lits.fromlist(lits)  # all or nothing
        except OverflowError:
            bad = next(lit for lit in lits if not -(2**31) <= lit < 2**31)
            raise ValueError(f"literal {bad} does not fit in 32 bits") from None
        self._lengths.fromlist(lengths)
        self.n_vars = int(top)

    def append_block(self, lits, lengths) -> None:
        """Append clauses given as flat buffers of C ints, unchecked.

        ``lits`` holds every clause's literals in order and ``lengths``
        the clause lengths (numpy arrays, arrays or bytes).  The caller
        guarantees non-zero literals within ``n_vars``: this is the bulk
        path for template copies, whose variables the encoder allocated.
        """
        self._lits.frombytes(memoryview(lits).cast("B"))
        self._lengths.frombytes(memoryview(lengths).cast("B"))

    def extend(self, other: "Cnf") -> None:
        """Append another formula (same variable namespace)."""
        self.n_vars = max(self.n_vars, other.n_vars)
        self._lits.extend(other._lits)
        self._lengths.extend(other._lengths)

    @property
    def n_clauses(self) -> int:
        return len(self._lengths)

    @property
    def clauses(self) -> list[tuple[int, ...]]:
        """The clauses as tuples, built afresh on every access."""
        lits = self._lits.tolist()
        clauses = []
        start = 0
        for length in self._lengths:
            end = start + length
            clauses.append(tuple(lits[start:end]))
            start = end
        return clauses

    @contextmanager
    def suffix(self, start: int) -> Iterator[tuple[memoryview, memoryview]]:
        """Read-only views of the literals and lengths of clauses ``start:``.

        The views share the buffers, which cannot grow while they are
        exported, so they are released when the ``with`` block ends;
        nothing made from them may outlive it.
        """
        lengths = memoryview(self._lengths)[start:].toreadonly()
        offset = len(self._lits) - int(np.frombuffer(lengths, dtype=np.intc).sum())
        lits = memoryview(self._lits)[offset:].toreadonly()
        try:
            yield lits, lengths
        finally:
            lits.release()
            lengths.release()

    # -- DIMACS -----------------------------------------------------------
    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.n_vars} {self.n_clauses}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "Cnf":
        """Parse DIMACS: a stream of literals in which 0 ends each clause.

        Comment lines are skipped and a line starting with ``%`` (the
        SATLIB trailer) ends the formula.  A last clause without its
        closing 0 is still read as a clause.
        """
        declared_vars = 0
        tokens: list[str] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("%"):
                break
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"bad problem line: {line!r}")
                declared_vars = int(parts[2])
                continue
            tokens += line.split()
        values = list(map(int, tokens))
        if values and values[-1] != 0:
            values.append(0)
        ends = [index for index, value in enumerate(values) if value == 0]
        lengths = [end - start - 1 for start, end in zip([-1, *ends], ends)]
        lits = [value for value in values if value]
        top = max(map(abs, lits), default=0)
        cnf = cls()
        cnf._store(lits, lengths, max(top, declared_vars))
        return cnf

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_dimacs())

    @classmethod
    def load(cls, path: str | Path) -> "Cnf":
        return cls.from_dimacs(Path(path).read_text())

    def evaluate(self, assignment: Sequence[int]) -> bool:
        """Check a full assignment (index 0 unused; values 0/1)."""
        for clause in self.clauses:
            satisfied = False
            for lit in clause:
                value = assignment[abs(lit)]
                if (lit > 0 and value == 1) or (lit < 0 and value == 0):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def __repr__(self) -> str:
        return f"Cnf(vars={self.n_vars}, clauses={self.n_clauses})"
