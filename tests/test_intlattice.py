"""Integer lattice helpers, cross-checked against sympy (test-only oracle)."""

import random

import sympy
from sympy.matrices.normalforms import smith_normal_form

from smalg.intlattice import (
    gf2_kernel_basis,
    integer_kernel_basis,
    smith_invariant_factors,
)

from oracles import oracle_rational_matrix_rank


def rand_mat(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def sympy_invariant_factors(mat):
    m = sympy.Matrix(mat)
    s = smith_normal_form(m)
    diag = [abs(s[i, i]) for i in range(min(s.rows, s.cols))]
    return [int(d) for d in diag if d != 0]


class TestSmith:
    def test_known(self):
        assert smith_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
        assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
        assert smith_invariant_factors([[0, 0], [0, 0]]) == []
        assert smith_invariant_factors([[6]]) == [6]
        assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_against_sympy(self):
        rng = random.Random(97)
        for _ in range(60):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = rand_mat(rng, rows, cols)
            mine = smith_invariant_factors(m)
            assert mine == sympy_invariant_factors(m)
            for a, b in zip(mine, mine[1:]):
                assert b % a == 0

    def test_rank_consistency(self):
        rng = random.Random(13)
        for _ in range(40):
            m = rand_mat(rng, rng.randrange(1, 6), rng.randrange(1, 6))
            assert len(smith_invariant_factors(m)) == oracle_rational_matrix_rank(m)


class TestIntegerKernel:
    def test_annihilates_and_counts(self):
        rng = random.Random(31)
        for _ in range(60):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(1, 6)
            m = rand_mat(rng, rows, cols) if rows else []
            basis = integer_kernel_basis(m, cols=cols)
            assert len(basis) == cols - (oracle_rational_matrix_rank(m) if m else 0)
            for v in basis:
                for row in m:
                    assert sum(a * b for a, b in zip(row, v)) == 0

    def test_saturated(self):
        # a basis of a saturated lattice forms a primitive matrix: all
        # invariant factors are 1
        rng = random.Random(37)
        for _ in range(40):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            m = rand_mat(rng, rows, cols)
            basis = integer_kernel_basis(m)
            if not basis:
                continue
            cols_mat = [[v[i] for v in basis] for i in range(cols)]
            inv = smith_invariant_factors(cols_mat)
            assert inv == [1] * len(basis)


class TestGF2Kernel:
    def test_kernel_property(self):
        rng = random.Random(41)
        for _ in range(60):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(1, 6)
            m = rand_mat(rng, rows, cols, 0, 1) if rows else []
            basis = gf2_kernel_basis(m, cols=cols)
            for v in basis:
                assert all(x in (0, 1) for x in v)
                for row in m:
                    assert sum(a * b for a, b in zip(row, v)) % 2 == 0
            # dimension count over GF(2)
            mm = sympy.Matrix(m) if m else sympy.zeros(0, cols)
            rk = len(mm.rref(iszerofunc=lambda x: x % 2 == 0, simplify=lambda x: x % 2)[1]) if m else 0
            assert len(basis) == cols - rk
