"""Cross-substrate validation: the SAT solver vs GF(2) linear algebra.

Random affine systems over GF(2) have ground-truth solvability via
Gaussian elimination; encoded as XOR constraints they exercise exactly
the clause structure DynUnlock's seed overlays produce.  The CDCL solver
must agree with the algebra on satisfiability, model validity, and
solution counts.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gf2.matrix import GF2Matrix
from repro.gf2.solve import nullspace_basis, rank, solve_affine
from repro.sat.cnf import Cnf
from repro.sat.enumerate import count_models
from repro.sat.solver import CdclSolver


def encode_affine_system(matrix: np.ndarray, rhs: list[int]) -> Cnf:
    """CNF for ``A x = b``: one XOR chain per row."""
    n_rows, n_cols = matrix.shape
    cnf = Cnf(n_cols)  # vars 1..n_cols are x
    for row_idx in range(n_rows):
        lits = [int(col) + 1 for col in np.nonzero(matrix[row_idx])[0]]
        parity = rhs[row_idx]
        if not lits:
            if parity:
                cnf.add_clause([1])
                cnf.add_clause([-1])
            continue
        # Chain: acc_0 = x_l0; acc_i = acc_{i-1} ^ x_li; acc_last = parity.
        acc = lits[0]
        for lit in lits[1:]:
            aux = cnf.new_var()
            cnf.add_clause([-aux, acc, lit])
            cnf.add_clause([-aux, -acc, -lit])
            cnf.add_clause([aux, acc, -lit])
            cnf.add_clause([aux, -acc, lit])
            acc = aux
        cnf.add_clause([acc] if parity else [-acc])
    return cnf


def random_system(rng: random.Random, n_rows: int, n_cols: int):
    matrix = np.array(
        [[rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)],
        dtype=np.uint8,
    )
    rhs = [rng.randrange(2) for _ in range(n_rows)]
    return matrix, rhs


class TestSolverAgreesWithGaussianElimination:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_satisfiability_matches(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 10), rng.randint(1, 8)
        matrix, rhs = random_system(rng, n_rows, n_cols)
        algebraic = solve_affine(GF2Matrix(matrix), rhs)
        cnf = encode_affine_system(matrix, rhs)
        result = CdclSolver(cnf).solve()
        assert (result.satisfiable is True) == (algebraic is not None)
        if result.satisfiable:
            x = np.array(
                [result.model[v] for v in range(1, n_cols + 1)],
                dtype=np.uint8,
            )
            assert list((matrix @ x) & 1) == [int(b) for b in rhs]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_model_count_is_two_to_the_nullity(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix, rhs = random_system(rng, n_rows, n_cols)
        gf2_matrix = GF2Matrix(matrix)
        expected = (
            0
            if solve_affine(gf2_matrix, rhs) is None
            else 1 << len(nullspace_basis(gf2_matrix))
        )
        cnf = encode_affine_system(matrix, rhs)
        solver = CdclSolver(cnf)
        counted = count_models(
            solver, list(range(1, n_cols + 1)), limit=expected + 8
        )
        assert counted == expected

    def test_rank_deficient_system_has_multiple_solutions(self):
        matrix = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)
        assert rank(GF2Matrix(matrix)) == 1
        cnf = encode_affine_system(matrix, [1, 1])
        assert count_models(CdclSolver(cnf), [1, 2, 3], limit=16) == 4
