"""Integer lattice helpers, cross-checked against sympy (test-only oracle)."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from smalg.intlattice import _unit_pivots, lattice

from smalg.quasiorder import approx_classes, from_edges
from smalg.transmap import _gauge, _relation_vectors

from fixtures import (
    bowtie,
    chain10,
    moore_face_poset,
    rp2_face_poset,
    rp2_wedge_circle_face_poset,
    rp2_wedge_rp2_face_poset,
    seven_point,
    twisted_grid_face_poset,
    upper_chain,
)
from oracles import (
    dense_gf2_kernel_basis,
    integer_bareiss_rank,
    integer_kernel_basis,
    oracle_rational_matrix_rank,
    smith_invariant_factors,
)


def sparse(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def dense(rows, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def rand_mat(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def bases(rows, cols):
    """``lattice``'s kernel bases over Z and over GF(2), as lists."""
    _, kernel = lattice(rows, cols)
    return list(kernel()), list(kernel(True))


def gf2_rank(vectors, cols):
    return cols - len(dense_gf2_kernel_basis(vectors, cols))


def assert_same_gf2_span(basis, ref, cols):
    # two bases of one space: each is independent and lies in the span of
    # the other, so stacking them keeps the rank, read off the dense kernel
    # of the stacked vectors
    assert all(len(v) == cols and set(v) <= {0, 1} for v in basis)
    assert len(basis) == len(ref)
    assert gf2_rank(basis, cols) == gf2_rank(ref, cols) == gf2_rank(basis + ref, cols)


def gauge_rows(q):
    """The relation rows of q over the strict pairs off its spanning
    forest, and their number: the system that ``all-trivial`` reduces."""
    _, off, _ = _gauge(q)
    return _relation_vectors(q, {e: t for t, e in enumerate(off)})[1], len(off)


def sympy_invariant_factors(mat):
    m = sympy.Matrix(mat)
    s = smith_normal_form(m)
    diag = [abs(s[i, i]) for i in range(min(s.rows, s.cols))]
    return [int(d) for d in diag if d != 0]


class TestSmith:
    def test_known(self):
        assert smith_invariant_factors(sparse([[2, 4], [6, 8]])) == [2, 4]
        assert smith_invariant_factors(sparse([[1, 0], [0, 1]])) == [1, 1]
        assert smith_invariant_factors(sparse([[0, 0], [0, 0]])) == []
        assert smith_invariant_factors(sparse([[6]])) == [6]
        assert smith_invariant_factors(sparse([[2, 0], [0, 3]])) == [1, 6]

    def test_against_sympy(self):
        rng = random.Random(97)
        for _ in range(60):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = rand_mat(rng, rows, cols)
            mine = smith_invariant_factors(sparse(m))
            assert mine == sympy_invariant_factors(m)
            for a, b in zip(mine, mine[1:]):
                assert b % a == 0

    def test_relation_vectors_against_sympy(self):
        # transitivity rows (three unit entries) and two-sided rows
        # e_ij + e_ji, the input the unit-pivot elimination is built for
        rng = random.Random(71)
        torsion_free = 0
        for _ in range(24):
            n = rng.randrange(2, 10)
            density = rng.choice((0.1, 0.2, 0.3, 0.45))
            q = from_edges(n, [
                (i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j and rng.random() < density
            ])
            edges, vecs = _relation_vectors(q)
            if not vecs:
                continue
            assert all(len(row) <= 3 for row in vecs)
            mine = smith_invariant_factors(vecs)
            assert mine == sympy_invariant_factors(dense(vecs, len(edges)))
            torsion_free += all(d == 1 for d in mine)
        assert torsion_free > 0

    def test_sparse_against_sympy(self):
        rng = random.Random(73)
        weights = [0] * 12 + [1, -1] * 3 + [2, -2] * 2 + [3, -4, 6]
        beyond_units = 0
        for _ in range(120):
            rows = rng.randrange(1, 13)
            cols = rng.randrange(1, 13)
            m = [[rng.choice(weights) for _ in range(cols)] for _ in range(rows)]
            mine = smith_invariant_factors(sparse(m))
            assert mine == sympy_invariant_factors(m)
            beyond_units += any(d > 1 for d in mine)
        assert beyond_units > 0

    @pytest.mark.parametrize("n", [14, 20])
    def test_chain_factors(self, n):
        # Z^E / R is free of rank n - 1 on the chain, so the C(n, 3)
        # transitivity rows have C(n - 1, 2) invariant factors, all 1
        _, vecs = _relation_vectors(upper_chain(n))
        assert len(vecs) == n * (n - 1) * (n - 2) // 6
        assert smith_invariant_factors(vecs) == [1] * ((n - 1) * (n - 2) // 2)

    def test_rank_consistency(self):
        rng = random.Random(13)
        for _ in range(40):
            m = rand_mat(rng, rng.randrange(1, 6), rng.randrange(1, 6))
            assert len(smith_invariant_factors(sparse(m))) == oracle_rational_matrix_rank(m)

    def test_bareiss_rank_matches_the_pair_arithmetic_rank(self):
        # the integer oracle that the face posets' gauges are ranked by,
        # against the Fraction-pair eliminator on small matrices, with
        # rows and columns that vanish or repeat
        rng = random.Random(17)
        for _ in range(300):
            m = rand_mat(rng, rng.randrange(1, 7), rng.randrange(1, 7))
            if rng.random() < 0.3:
                m.append([2 * x - y for x, y in zip(m[0], m[-1])])
            assert integer_bareiss_rank(m) == oracle_rational_matrix_rank(m)


def _kernel_inputs():
    """(sparse rows, column count): random dense matrices, sparse ones with
    unit entries, matrices with no unit entry or few, whose complement
    keeps non-unit entries, and the relation rows of random quasi-orders
    and of the fixtures, over every strict pair and in the spanning-forest
    gauge."""
    rng = random.Random(31)
    for _ in range(60):
        rows = rng.randrange(0, 5)
        cols = rng.randrange(1, 6)
        yield sparse(rand_mat(rng, rows, cols)), cols
    weights = [0] * 12 + [1, -1] * 3 + [2, -2] * 2 + [3, -4, 6]
    for _ in range(60):
        rows = rng.randrange(1, 13)
        cols = rng.randrange(1, 13)
        m = [[rng.choice(weights) for _ in range(cols)] for _ in range(rows)]
        yield sparse(m), cols
    weights = [0] * 6 + [2, -2, 3, 4, -6, 9, 1]
    for _ in range(60):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        m = [[rng.choice(weights) for _ in range(cols)] for _ in range(rows)]
        yield sparse(m), cols
    relations = [bowtie(), chain10(), seven_point(), upper_chain(6), rp2_face_poset()]
    for _ in range(30):
        n = rng.randrange(2, 7)
        density = rng.choice((0.1, 0.2, 0.3))
        relations.append(from_edges(n, [
            (i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if i != j and rng.random() < density
        ]))
    for q in relations:
        edges, rows = _relation_vectors(q)
        yield rows, len(edges)
        yield gauge_rows(q)


class TestIntegerKernel:
    def test_inputs_keep_non_unit_complements(self):
        # the Smith reduction and its transform see more than an empty
        # complement: some inputs keep entries that no unit pivot clears
        kept = sum(
            any(abs(v) > 1 for row in _unit_pivots(rows)[1] for v in row.values())
            for rows, _ in _kernel_inputs()
        )
        assert kept > 30

    def test_annihilates_and_counts(self):
        for rows, cols in _kernel_inputs():
            factors, kernel = lattice(rows, cols)
            over_q, over_2 = list(kernel()), list(kernel(True))
            m = dense(rows, cols)
            assert len(over_q) == cols - (oracle_rational_matrix_rank(m) if m else 0)
            assert len(over_q) == cols - len(factors)
            for v in over_q:
                assert len(v) == cols
                for row in rows:
                    assert sum(x * v[c] for c, x in row.items()) == 0
            for v in over_2:
                assert len(v) == cols and set(v) <= {0, 1}
                for row in rows:
                    assert sum(x * v[c] for c, x in row.items()) % 2 == 0

    def test_gf2_vectors_span_the_dense_kernel(self):
        for rows, cols in _kernel_inputs():
            _, over_2 = bases(rows, cols)
            assert_same_gf2_span(over_2, dense_gf2_kernel_basis(dense(rows, cols), cols), cols)

    def test_integer_basis_is_saturated(self):
        # the columns of a unimodular transform: a basis of the whole kernel
        # lattice, not of a sublattice, so the vectors form a primitive
        # matrix, all invariant factors 1
        for rows, cols in _kernel_inputs():
            over_q, _ = bases(rows, cols)
            if over_q:
                cols_mat = [{t: v[i] for t, v in enumerate(over_q) if v[i]} for i in range(cols)]
                assert smith_invariant_factors(cols_mat) == [1] * len(over_q)

    def test_saturated(self):
        # the reference route's integer kernel basis (tests/oracles.py)
        # generates the whole kernel lattice, so its search for a
        # nontrivial map is complete: a basis of a saturated lattice forms
        # a primitive matrix, all invariant factors 1
        rng = random.Random(37)
        for _ in range(40):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            m = rand_mat(rng, rows, cols)
            basis = integer_kernel_basis(m)
            if not basis:
                continue
            cols_mat = [[v[i] for v in basis] for i in range(cols)]
            inv = smith_invariant_factors(sparse(cols_mat))
            assert inv == [1] * len(basis)


class TestGF2Kernel:
    def test_kernel_property(self):
        rng = random.Random(41)
        for _ in range(60):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(1, 6)
            m = rand_mat(rng, rows, cols, 0, 1) if rows else []
            _, basis = bases(sparse(m), cols)
            for v in basis:
                assert all(x in (0, 1) for x in v)
                for row in m:
                    assert sum(a * b for a, b in zip(row, v)) % 2 == 0
            # dimension count over GF(2)
            mm = sympy.Matrix(m) if m else sympy.zeros(0, cols)
            rk = len(mm.rref(iszerofunc=lambda x: x % 2 == 0, simplify=lambda x: x % 2)[1]) if m else 0
            assert len(basis) == cols - rk

    def test_odd_entries_span_the_dense_elimination(self):
        rng = random.Random(43)
        for _ in range(300):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 12)
            density = rng.random()
            # odd entries other than 1 count as 1, even ones as 0
            m = [
                [rng.choice((1, 3, -1, 2, -2, 6)) if rng.random() < density else 0
                 for _ in range(cols)]
                for _ in range(rows)
            ]
            _, basis = bases(sparse(m), cols)
            assert_same_gf2_span(basis, dense_gf2_kernel_basis(m, cols), cols)

    def test_relation_rows_span_the_dense_elimination(self):
        # the 20-chain beside a bowtie: 1,140 composable triples over 194
        # strict pairs, where the dense rows took about 0.4 s
        bowtie = [(21, 23), (21, 24), (22, 23), (22, 24)]
        rho = from_edges(24, [(i, i + 1) for i in range(1, 20)] + bowtie)
        edges, rows = _relation_vectors(rho)
        m = dense(rows, len(edges))
        assert (len(m), len(edges)) == (1140, 194)
        _, basis = bases(rows, len(edges))
        assert_same_gf2_span(basis, dense_gf2_kernel_basis(m, len(edges)), len(edges))
        assert len(basis) == 23


# (face poset, free rank of H_1, its torsion factors)
FACE_POSETS = {
    "rp2": (rp2_face_poset, 0, [2]),
    "rp2+circle": (rp2_wedge_circle_face_poset, 1, [2]),
    "rp2+rp2": (rp2_wedge_rp2_face_poset, 0, [2, 2]),
    "twisted-grid": (twisted_grid_face_poset, 1, [2]),
    "moore3": (lambda: moore_face_poset(3), 0, [3]),
    "moore5": (lambda: moore_face_poset(5), 0, [5]),
}


@pytest.mark.parametrize("name", sorted(FACE_POSETS))
def test_face_posets_give_their_first_homology(name):
    # Z^N / R_N is the first homology of the complex, so the gauge's Smith
    # factors are ones and the torsion, and the full relation rows, over
    # every strict pair, have the same torsion behind a free part of rank
    # n - #components; the kernels count the free rank over Q and the free
    # rank plus the even torsion over GF(2)
    build, free, torsion = FACE_POSETS[name]
    q = build()
    rows, cols = gauge_rows(q)
    factors, kernel = lattice(rows, cols)
    assert factors == [1] * (cols - free - len(torsion)) + torsion
    edges, full_rows = _relation_vectors(q)
    full = smith_invariant_factors(full_rows)
    assert [d for d in full if d > 1] == torsion
    assert len(edges) - len(full) == free + q.n - len(approx_classes(q).blocks)
    over_q, over_2 = list(kernel()), list(kernel(True))
    assert len(over_q) == free == cols - integer_bareiss_rank(dense(rows, cols))
    assert len(over_2) == free + sum(d % 2 == 0 for d in torsion)
    assert_same_gf2_span(over_2, dense_gf2_kernel_basis(dense(rows, cols), cols), cols)
