"""Solving affine systems over GF(2).

After DynUnlock's SAT loop converges, the surviving seed assignments form
(empirically, and provably when all learned constraints are linear) an
affine subspace; the paper reports candidate counts of 1, 2, 4, 16 and 128
-- all powers of two.  These routines reproduce that analysis: given linear
constraints ``A x = b`` we compute the rank, a particular solution and a
nullspace basis, and enumerate the ``2**(n - rank)`` candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.gf2.matrix import GF2Matrix


def gaussian_eliminate(
    a: GF2Matrix, b: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Row-reduce ``[A | b]`` to reduced row-echelon form.

    Returns ``(R, rhs, pivot_cols)`` where ``R`` is the reduced matrix,
    ``rhs`` the transformed right-hand side (zeros when ``b`` is None) and
    ``pivot_cols`` the pivot column of each non-zero row.
    """
    mat = a.data.astype(np.uint8).copy()
    n_rows, n_cols = mat.shape
    rhs = np.zeros(n_rows, dtype=np.uint8)
    if b is not None:
        rhs_in = np.asarray(b, dtype=np.uint8)
        if rhs_in.shape != (n_rows,):
            raise ValueError("right-hand side length mismatch")
        rhs = rhs_in.copy()

    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n_cols):
        # Find a row at/below pivot_row with a 1 in this column.
        candidates = np.nonzero(mat[pivot_row:, col])[0]
        if candidates.size == 0:
            continue
        src = pivot_row + int(candidates[0])
        if src != pivot_row:
            mat[[pivot_row, src]] = mat[[src, pivot_row]]
            rhs[[pivot_row, src]] = rhs[[src, pivot_row]]
        # Eliminate this column from every other row (reduced form).
        hits = np.nonzero(mat[:, col])[0]
        for r in hits:
            if r != pivot_row:
                mat[r] ^= mat[pivot_row]
                rhs[r] ^= rhs[pivot_row]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return mat, rhs, pivot_cols


def rank(a: GF2Matrix) -> int:
    """Rank of a GF(2) matrix."""
    _, _, pivots = gaussian_eliminate(a)
    return len(pivots)


def solve_affine(a: GF2Matrix, b: Sequence[int]) -> list[int] | None:
    """One particular solution of ``A x = b`` or None if inconsistent."""
    mat, rhs, pivots = gaussian_eliminate(a, b)
    # Inconsistency: a zero row with non-zero rhs.
    for r in range(mat.shape[0]):
        if rhs[r] and not mat[r].any():
            return None
    x = [0] * a.n_cols
    for row_idx, col in enumerate(pivots):
        x[col] = int(rhs[row_idx])
    return x


def nullspace_basis(a: GF2Matrix) -> list[list[int]]:
    """Basis of the nullspace of ``A`` (list of bit vectors)."""
    mat, _, pivots = gaussian_eliminate(a)
    n_cols = a.n_cols
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [0] * n_cols
        vec[free] = 1
        # Back-substitute: each pivot row reads  x[pivot] = sum(free terms).
        for row_idx, col in enumerate(pivots):
            if mat[row_idx, free]:
                vec[col] = 1
        basis.append(vec)
    return basis


def enumerate_affine_solutions(
    a: GF2Matrix, b: Sequence[int], limit: int = 1 << 20
) -> Iterator[list[int]]:
    """Yield every solution of ``A x = b`` up to ``limit`` many.

    Enumeration walks the affine space ``x0 + span(nullspace)`` in Gray-ish
    order (plain binary counter over the basis coefficients).
    """
    x0 = solve_affine(a, b)
    if x0 is None:
        return
    basis = nullspace_basis(a)
    n_free = len(basis)
    count = min(limit, 1 << n_free) if n_free < 63 else limit
    basis_arr = (
        np.array(basis, dtype=np.uint8)
        if basis
        else np.zeros((0, a.n_cols), dtype=np.uint8)
    )
    x0_arr = np.array(x0, dtype=np.uint8)
    for idx in range(count):
        combo = x0_arr.copy()
        rem = idx
        j = 0
        while rem:
            if rem & 1:
                combo ^= basis_arr[j]
            rem >>= 1
            j += 1
        yield list(combo.astype(int))


@dataclass
class AffineSystem:
    """An incrementally grown affine constraint system ``A x = b``.

    DynUnlock's restart loop appends seed equations learned from each
    capture-cycle model; this accumulator answers "how many candidates
    remain" (``2 ** dof``) and enumerates them for brute-force refinement.
    """

    n_vars: int
    rows: list[list[int]] = field(default_factory=list)
    rhs: list[int] = field(default_factory=list)

    def add_equation(self, coeffs: Sequence[int], value: int) -> None:
        if len(coeffs) != self.n_vars:
            raise ValueError("coefficient vector length mismatch")
        if value not in (0, 1):
            raise ValueError("rhs must be a bit")
        self.rows.append([int(c) & 1 for c in coeffs])
        self.rhs.append(value)

    def add_assignment(self, var: int, value: int) -> None:
        """Constrain a single variable (``x[var] = value``)."""
        coeffs = [0] * self.n_vars
        coeffs[var] = 1
        self.add_equation(coeffs, value)

    def _matrix(self) -> tuple[GF2Matrix, list[int]]:
        if not self.rows:
            return GF2Matrix(np.zeros((0, self.n_vars), dtype=np.uint8)), []
        return GF2Matrix.from_rows(self.rows), list(self.rhs)

    def is_consistent(self) -> bool:
        a, b = self._matrix()
        if not self.rows:
            return True
        return solve_affine(a, b) is not None

    def degrees_of_freedom(self) -> int:
        a, _ = self._matrix()
        if not self.rows:
            return self.n_vars
        return self.n_vars - rank(a)

    def candidate_count(self) -> int:
        """Number of satisfying assignments (0 when inconsistent)."""
        if not self.is_consistent():
            return 0
        return 1 << self.degrees_of_freedom()

    def solutions(self, limit: int = 1 << 20) -> Iterator[list[int]]:
        a, b = self._matrix()
        if not self.rows:
            # Unconstrained: enumerate the full space (only sane for tiny n).
            zero = GF2Matrix(np.zeros((0, self.n_vars), dtype=np.uint8))
            yield from enumerate_affine_solutions(zero, [], limit=limit)
            return
        yield from enumerate_affine_solutions(a, b, limit=limit)
