"""Unit and property tests for the GF(2) linear algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gf2.matrix import GF2Matrix, identity, zeros
from repro.gf2.solve import (
    enumerate_affine_solutions,
    gaussian_eliminate,
    nullspace_basis,
    rank,
    solve_affine,
)


def random_matrix(rng: np.random.Generator, n_rows: int, n_cols: int) -> GF2Matrix:
    return GF2Matrix(rng.integers(0, 2, size=(n_rows, n_cols), dtype=np.uint8))


class TestGF2Matrix:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            GF2Matrix([[0, 2]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            GF2Matrix(np.zeros(3, dtype=np.uint8))

    def test_identity_is_multiplicative_unit(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 5, 5)
        assert identity(5) @ m == m
        assert m @ identity(5) == m

    def test_addition_is_xor(self):
        a = GF2Matrix([[1, 0], [1, 1]])
        b = GF2Matrix([[1, 1], [0, 1]])
        assert (a + b) == GF2Matrix([[0, 1], [1, 0]])

    def test_self_addition_is_zero(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 4, 6)
        assert (m + m) == zeros(4, 6)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            zeros(2, 3) @ zeros(2, 3)

    def test_matmul_mod2(self):
        a = GF2Matrix([[1, 1]])
        b = GF2Matrix([[1], [1]])
        assert (a @ b) == zeros(1, 1)  # 1+1 = 0 mod 2

    def test_pow_zero_is_identity(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 4, 4)
        assert m.pow(0) == identity(4)

    def test_pow_matches_repeated_multiplication(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 5, 5)
        expected = identity(5)
        for exponent in range(6):
            assert m.pow(exponent) == expected
            expected = expected @ m

    def test_pow_requires_square(self):
        with pytest.raises(ValueError):
            zeros(2, 3).pow(2)

    def test_mul_vec_matches_matmul(self):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, 4, 7)
        v = list(rng.integers(0, 2, size=7))
        column = GF2Matrix(np.array([v], dtype=np.uint8).T)
        assert m.mul_vec(v) == [int(x) for x in (m @ column).data[:, 0]]

    def test_transpose(self):
        m = GF2Matrix([[1, 0, 1], [0, 1, 1]])
        assert m.transpose() == GF2Matrix([[1, 0], [0, 1], [1, 1]])


class TestGaussianElimination:
    def test_rank_identity(self):
        assert rank(identity(6)) == 6

    def test_rank_zero_matrix(self):
        assert rank(zeros(4, 5)) == 0

    def test_rank_duplicate_rows(self):
        m = GF2Matrix([[1, 1, 0], [1, 1, 0]])
        assert rank(m) == 1

    def test_solve_simple(self):
        a = GF2Matrix([[1, 0], [0, 1]])
        assert solve_affine(a, [1, 0]) == [1, 0]

    def test_solve_inconsistent(self):
        a = GF2Matrix([[1, 1], [1, 1]])
        assert solve_affine(a, [0, 1]) is None

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_eliminate(identity(3), [1, 0])

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_solution_satisfies_system(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = random_matrix(rng, n_rows, n_cols)
        b = list(rng.integers(0, 2, size=n_rows))
        x = solve_affine(a, b)
        if x is not None:
            assert a.mul_vec(x) == [int(v) for v in b]

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_nullspace_vectors_are_in_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = random_matrix(rng, n_rows, n_cols)
        for vec in nullspace_basis(a):
            assert a.mul_vec(vec) == [0] * n_rows

    def test_rank_nullity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n_rows, n_cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = random_matrix(rng, n_rows, n_cols)
            assert rank(a) + len(nullspace_basis(a)) == n_cols


class TestEnumeration:
    def test_enumerates_full_solution_set(self):
        a = GF2Matrix([[1, 1, 0]])
        solutions = list(enumerate_affine_solutions(a, [1]))
        assert len(solutions) == 4  # 2 free variables
        assert len({tuple(s) for s in solutions}) == 4
        for x in solutions:
            assert a.mul_vec(x) == [1]

    def test_inconsistent_yields_nothing(self):
        a = GF2Matrix([[1, 1], [1, 1]])
        assert list(enumerate_affine_solutions(a, [1, 0])) == []

    def test_limit(self):
        a = zeros(1, 10)
        assert len(list(enumerate_affine_solutions(a, [0], limit=16))) == 16
