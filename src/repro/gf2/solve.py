"""Solving affine systems over GF(2).

After DynUnlock's SAT loop converges, the surviving seed assignments form
(empirically, and provably when all learned constraints are linear) an
affine subspace; the paper reports candidate counts of 1, 2, 4, 16 and 128
-- all powers of two.  These routines reproduce that analysis: given linear
constraints ``A x = b`` we compute the rank, a particular solution and a
nullspace basis, and enumerate the ``2**(n - rank)`` candidates.
"""

from __future__ import annotations

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
