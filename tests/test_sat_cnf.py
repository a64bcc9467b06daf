"""Tests for the CNF container and DIMACS I/O."""

import pytest

from repro.sat.cnf import Cnf, is_negative, lit_of, var_of


class TestLiterals:
    def test_lit_of(self):
        assert lit_of(3) == 3
        assert lit_of(3, positive=False) == -3

    def test_lit_of_rejects_nonpositive_var(self):
        with pytest.raises(ValueError):
            lit_of(0)

    def test_var_of(self):
        assert var_of(-7) == 7
        assert var_of(7) == 7

    def test_var_of_zero(self):
        with pytest.raises(ValueError):
            var_of(0)

    def test_is_negative(self):
        assert is_negative(-1)
        assert not is_negative(1)


class TestCnf:
    def test_new_var_counts_up(self):
        cnf = Cnf()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.new_vars(3) == [3, 4, 5]

    def test_add_clause_extends_var_count(self):
        cnf = Cnf()
        cnf.add_clause([1, -9])
        assert cnf.n_vars == 9
        assert cnf.n_clauses == 1

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Cnf().add_clause([1, 0])

    @pytest.mark.parametrize("lit", [2**31, -(2**31) - 1, 2**40])
    def test_literal_beyond_32_bits_rejected_by_name(self, lit):
        cnf = Cnf()
        cnf.add_clause([1, -2])
        with pytest.raises(ValueError, match=str(lit)):
            cnf.add_clause([3, lit])
        assert (cnf.n_vars, cnf.clauses) == (2, [(1, -2)])

    def test_clauses_is_a_read_only_view(self):
        cnf = Cnf()
        cnf.add_clause([1, -2])
        cnf.clauses.append((3,))
        assert cnf.clauses == [(1, -2)]
        with pytest.raises(AttributeError):
            cnf.clauses = []

    def test_suffix_views_the_clauses_from_an_index(self):
        cnf = Cnf()
        for clause in ([1, -2], [3], [], [-1, 2, 4]):
            cnf.add_clause(clause)
        with cnf.suffix(1) as (lits, lengths):
            assert (lits.tolist(), lengths.tolist()) == ([3, -1, 2, 4], [1, 0, 3])
            assert lits.readonly and lengths.readonly
        cnf.add_clause([5])  # the views are released: the buffers can grow
        with cnf.suffix(cnf.n_clauses) as (lits, lengths):
            assert (len(lits), len(lengths)) == (0, 0)

    def test_extend(self):
        a = Cnf()
        a.add_clause([1, 2])
        b = Cnf()
        b.add_clause([-3])
        a.extend(b)
        assert a.n_clauses == 2
        assert a.n_vars == 3

    def test_evaluate(self):
        cnf = Cnf()
        cnf.add_clause([1, -2])
        cnf.add_clause([2, 3])
        assert cnf.evaluate([0, 1, 0, 1])  # x1=1 sat c1; x3=1 sat c2
        assert not cnf.evaluate([0, 0, 1, 0])  # c1 fails (x1=0, x2=1)

    def test_dimacs_roundtrip(self):
        cnf = Cnf()
        cnf.add_clause([1, -2, 3])
        cnf.add_clause([-1])
        text = cnf.to_dimacs()
        parsed = Cnf.from_dimacs(text)
        assert parsed.n_vars == cnf.n_vars
        assert parsed.clauses == cnf.clauses

    def test_dimacs_ignores_comments(self):
        parsed = Cnf.from_dimacs("c a comment\np cnf 3 1\n1 -3 0\n")
        assert parsed.n_vars == 3
        assert parsed.clauses == [(1, -3)]

    @pytest.mark.parametrize(
        "text,clauses",
        [
            # 0 ends a clause, not a newline.
            ("p cnf 3 1\n1 2\n-3 0\n", [(1, 2, -3)]),
            ("p cnf 3 2\n1 2 0 -3 0\n", [(1, 2), (-3,)]),
            # The SATLIB trailer ends the formula.
            ("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n", [(1, -2), (2, 3)]),
            # A lone 0 is the empty clause, as to_dimacs writes it.
            ("p cnf 2 2\n1 2 0\n0\n", [(1, 2), ()]),
        ],
        ids=["clause-across-lines", "clauses-on-one-line", "satlib-trailer", "empty"],
    )
    def test_dimacs_clauses_end_at_zero(self, text, clauses):
        parsed = Cnf.from_dimacs(text)
        assert parsed.clauses == clauses
        assert parsed.n_vars == int(text.split()[2])

    def test_dimacs_bad_header(self):
        with pytest.raises(ValueError):
            Cnf.from_dimacs("p sat 3 1\n1 0\n")

    def test_save_load(self, tmp_path):
        cnf = Cnf()
        cnf.add_clause([2, -1])
        path = tmp_path / "f.cnf"
        cnf.save(path)
        assert Cnf.load(path).clauses == cnf.clauses
