"""Exact scalar and matrix layer, checked against the independent oracle."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smalg.errors import DimensionMismatch, FormatError, Singular
from smalg.exactnum import (
    DenseMatrix,
    GaussianRational,
    _gauss_jordan,
    format_matrix,
    inverse,
    multiply,
    parse_matrix,
    permutation_matrix,
    rank,
    scalar,
)
from smalg.jordan import LinearMapOnSMA
from smalg.sampling import random_quasiorder

from fixtures import BAD_LITERALS, random_literal, upper_chain
from oracles import (
    bareiss_gauss_jordan,
    cadd,
    cdiv,
    cmul,
    conjugate_transpose,
    csub,
    fraction_pair,
    grid_of,
    invert_permutation,
    is_rank_one_by_minors,
    jordan_product,
    oracle_rank,
    oracle_rank_of,
    outer,
    pivot_columns,
    RankNotOne,
    rank_one_factor,
    relabel_matrix,
    to_grid,
)

POOL = [0, 0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3)]
IM_POOL = [0, 0, 0, 0, 0, 1, -1, Fraction(1, 2)]


def rand_scalar(rng):
    return GaussianRational(rng.choice(POOL), rng.choice(IM_POOL))


def rand_matrix(rng, r, c):
    return DenseMatrix(r, c, [rand_scalar(rng) for _ in range(r * c)])


def rand_invertible(rng, n):
    """Product of elementary row operations applied to the identity."""
    m = to_grid(DenseMatrix.identity(n))
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = GaussianRational(rng.choice([1, -1, 2, Fraction(1, 2)]), rng.choice([0, 0, 1]))
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return DenseMatrix.from_rows(m)


def chain_matrix_10():
    """Alternating-pair chain matrix on 10 points, transcribed entry by entry."""
    entries = {
        (1, 2): 1, (1, 10): 1, (3, 2): 1, (3, 4): -1, (5, 4): -1,
        (5, 6): 1, (7, 6): 1, (7, 8): -1, (9, 8): -1, (9, 10): -1,
    }
    grid = [[entries.get((i, j), 0) for j in range(1, 11)] for i in range(1, 11)]
    return DenseMatrix.from_rows(grid)


class TestScalar:
    def test_product_example(self):
        a = GaussianRational(1, 2)
        b = GaussianRational(3, -1)
        assert a * b == GaussianRational(5, 5)

    def test_field_ops(self):
        rng = random.Random(11)
        for _ in range(200):
            x, y, z = (rand_scalar(rng) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            assert x * y == y * x
            if y:
                assert (x / y) * y == x
                assert y * y.reciprocal() == scalar(1)

    def test_components_stay_reduced(self):
        x = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
        re, im = fraction_pair(x)
        assert (re.numerator, re.denominator) == (1, 2)
        assert (im.numerator, im.denominator) == (1, 2)
        assert (x.p, x.q, x.d) == (1, 1, 2)

    def test_literal_fixtures(self):
        cases = {
            "3": GaussianRational(3),
            "-1/2": GaussianRational(Fraction(-1, 2)),
            "2+1/3i": GaussianRational(2, Fraction(1, 3)),
            "-1i": GaussianRational(0, -1),
            "0": GaussianRational(0),
            "5-2i": GaussianRational(5, -2),
        }
        for text, value in cases.items():
            assert GaussianRational.from_literal(text) == value
        # canonical reprint for each canonical input
        for text in cases:
            assert GaussianRational.from_literal(text).literal() == text

    def test_literal_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(300):
            x = rand_scalar(rng)
            assert GaussianRational.from_literal(x.literal()) == x

    def test_literal_parts(self):
        rng = random.Random(17)
        for _ in range(500):
            text, (re, im) = random_literal(rng)
            p, q, d = GaussianRational.literal_parts(text)
            assert d > 0
            assert (Fraction(p, d), Fraction(q, d)) == (re, im)
            assert GaussianRational.from_literal(text) == GaussianRational(re, im)

    @pytest.mark.parametrize("bad", ["i", "1+i", "-i", "1/0", "--3", "1 + 2i", "2i3", ""])
    def test_bad_literals(self, bad):
        with pytest.raises(FormatError):
            GaussianRational.from_literal(bad)


# Real and imaginary parts: small, near 10^9 and fractions, so sums, products
# and quotients exercise the reduction by a common factor of p, q and d.
SCALAR_PARTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(-(10**9) - 3, 10**9 + 3).map(Fraction),
    st.fractions(max_denominator=10**6),
)
SCALAR_PAIRS = st.tuples(SCALAR_PARTS, SCALAR_PARTS)


def assert_canonical(x, pair):
    """x is the triple (p, q, d) of the pair in lowest terms, d > 0."""
    assert all(type(v) is int for v in (x.p, x.q, x.d))
    assert x.d > 0 and gcd(x.p, x.q, x.d) == 1
    assert fraction_pair(x) == pair


def pair_literal(pair):
    """The literal spelled from the parts' own ``str``: ``-1/2``, ``2/3i``."""
    re, im = pair
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


class TestScalarTriple:
    """The (p, q, d) scalar against (Fraction, Fraction) pair arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(SCALAR_PAIRS, SCALAR_PAIRS)
    @example((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))
    @example((Fraction(3), Fraction(0)), (Fraction(0), Fraction(0)))
    @example((Fraction(-2, 3), Fraction(0)), (Fraction(0), Fraction(2, 3)))
    def test_field_ops_match_pairs(self, u, v):
        x, y = GaussianRational(*u), GaussianRational(*v)
        assert_canonical(x, u)
        assert_canonical(y, v)
        assert_canonical(x + y, cadd(u, v))
        assert_canonical(x - y, csub(u, v))
        assert_canonical(x * y, cmul(u, v))
        assert_canonical(-x, csub((0, 0), u))
        assert_canonical(x.conjugate(), (u[0], -u[1]))
        if any(v):
            assert_canonical(x / y, cdiv(u, v))
            assert_canonical(y.reciprocal(), cdiv((1, 0), v))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.reciprocal()
        # ints and Fractions on either side
        assert_canonical(x * 3, cmul(u, (3, 0)))
        assert_canonical(2 - x, csub((2, 0), u))
        assert_canonical(x + Fraction(1, 3), cadd(u, (Fraction(1, 3), 0)))
        if any(u):
            assert_canonical(1 / x, cdiv((1, 0), u))
        assert bool(x) == any(u)

    @settings(max_examples=200, deadline=None)
    @given(SCALAR_PAIRS, SCALAR_PAIRS)
    @example((Fraction(1, 2), Fraction(5)), (Fraction(1, 2), Fraction(-5)))
    @example((Fraction(-1, 3), Fraction(0)), (Fraction(-1, 2), Fraction(7)))
    def test_equality_hash_literal_and_order_match_pairs(self, u, v):
        x, y = GaussianRational(*u), GaussianRational(*v)
        assert (x == y) == (u == v)
        assert (x != y) == (u != v)
        assert x.literal() == pair_literal(u)
        again = GaussianRational.from_literal(x.literal())
        for same in (again, (x + y) - y, x * 1):
            assert same == x
            assert hash(same) == hash(x)
        kx, ky = x.sort_key(), y.sort_key()
        assert (kx < ky) == (u < v)
        assert (kx > ky) == (u > v)
        assert (kx == ky) == (u == v)
        if x.d == 1:
            assert x == GaussianRational(x.p, x.q)
        if not u[1]:
            assert x == u[0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(SCALAR_PAIRS, max_size=8))
    def test_sort_key_sorts_like_pairs(self, pairs):
        xs = [GaussianRational(*u) for u in pairs]
        got = sorted(xs, key=GaussianRational.sort_key)
        assert [fraction_pair(x) for x in got] == sorted(pairs)


class TestNoFractionsInTheScalarLayer:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def test_importing_the_cli_loads_no_fractions(self):
        # pytest's pythonpath setting does not reach a subprocess.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import smalg.cli, sys; print('fractions' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_no_source_file_names_fraction(self):
        sources = sorted((self.SRC / "smalg").glob("*.py"))
        assert sources
        assert [p.name for p in sources if "Fraction" in p.read_text(encoding="utf-8")] == []


class TestMatrixAlgebra:
    def test_multiply_identities(self):
        rng = random.Random(23)
        for _ in range(50):
            a = rand_matrix(rng, 3, 4)
            b = rand_matrix(rng, 4, 2)
            c = rand_matrix(rng, 2, 5)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(DenseMatrix.identity(3), a) == a
            assert multiply(a, DenseMatrix.identity(4)) == a

    def test_scale_columns_scales_each_entry_by_its_column_value(self):
        rng = random.Random(29)
        for _ in range(40):
            a = rand_matrix(rng, rng.randrange(4), 3)
            values = [rand_scalar(rng) for _ in range(3)]
            got = a.scale_columns(values)
            assert got.shape == a.shape
            assert [x for row in to_grid(got) for x in row] == list(
                a.at(i, j) * values[j - 1]
                for i in range(1, a.rows + 1)
                for j in range(1, 4)
            )
        with pytest.raises(DimensionMismatch):
            a.scale_columns(values[:2])

    def test_scale_rows_scales_each_entry_by_its_row_value(self):
        rng = random.Random(31)
        for _ in range(40):
            a = rand_matrix(rng, 3, rng.randrange(4))
            values = [rand_scalar(rng) for _ in range(3)]
            got = a.scale_rows(values)
            assert got.shape == a.shape
            assert [x for row in to_grid(got) for x in row] == list(
                values[i - 1] * a.at(i, j)
                for i in range(1, 4)
                for j in range(1, a.cols + 1)
            )
            assert got == DenseMatrix.diag(values) * a
        with pytest.raises(DimensionMismatch):
            a.scale_rows(values[:2])

    def test_shape_errors(self):
        a = DenseMatrix.zeros(2, 3)
        b = DenseMatrix.zeros(2, 3)
        with pytest.raises(DimensionMismatch):
            multiply(a, b)
        with pytest.raises(DimensionMismatch):
            a + DenseMatrix.zeros(3, 2)

    def test_conjugate_transpose(self):
        rng = random.Random(5)
        for _ in range(30):
            a = rand_matrix(rng, 3, 4)
            b = rand_matrix(rng, 4, 3)
            star = conjugate_transpose(a)
            assert star.shape == (4, 3)
            for i in range(1, 4):
                for j in range(1, 5):
                    assert star.at(j, i) == a.at(i, j).conjugate()
            assert conjugate_transpose(conjugate_transpose(a)) == a
            assert conjugate_transpose(multiply(a, b)) == multiply(
                conjugate_transpose(b), conjugate_transpose(a)
            )

    def test_jordan_product_symmetry(self):
        rng = random.Random(9)
        for _ in range(30):
            a = rand_matrix(rng, 4, 4)
            b = rand_matrix(rng, 4, 4)
            assert jordan_product(a, b) == jordan_product(b, a)
        e12 = DenseMatrix.unit(2, 1, 2)
        e21 = DenseMatrix.unit(2, 2, 1)
        assert jordan_product(e12, e21) == DenseMatrix.identity(2)


class TestRank:
    def test_against_oracle_random(self):
        rng = random.Random(71)
        for _ in range(200):
            r = rng.randrange(1, 6)
            c = rng.randrange(1, 6)
            if rng.random() < 0.5:
                m = rand_matrix(rng, r, c)
            else:
                # low-rank construction: sum of a few outer products
                k = rng.randrange(0, 3)
                m = DenseMatrix.zeros(r, c)
                for _ in range(k):
                    u = [rand_scalar(rng) for _ in range(r)]
                    v = [rand_scalar(rng) for _ in range(c)]
                    m = m + outer(u, v)
            assert rank(m) == oracle_rank_of(m)

    def test_fixtures(self):
        assert rank(DenseMatrix.zeros(3, 3)) == 0
        assert rank(DenseMatrix.identity(4)) == 4
        bowtie = DenseMatrix.unit(4, 1, 3) + DenseMatrix.unit(4, 1, 4) + \
            DenseMatrix.unit(4, 2, 3) + DenseMatrix.unit(4, 2, 4)
        assert rank(bowtie) == 1

    def test_chain_matrix_rank_and_scaled_rank(self):
        a = chain_matrix_10()
        assert rank(a) == 4
        assert oracle_rank_of(a) == 4
        # scaling the (9,10) entry by 2 breaks the column dependency
        grid = to_grid(a)
        grid[8][9] = grid[8][9] * scalar(2)
        scaled = DenseMatrix.from_rows(grid)
        assert oracle_rank_of(scaled) == 5
        assert rank(scaled) == 5

    def test_subadditive(self):
        rng = random.Random(13)
        for _ in range(100):
            a = rand_matrix(rng, 4, 4)
            b = rand_matrix(rng, 4, 4)
            assert rank(a + b) <= rank(a) + rank(b)

    def test_rank_one_by_minors_matches_rank(self):
        rng = random.Random(37)
        for _ in range(200):
            r = rng.randrange(1, 5)
            c = rng.randrange(1, 5)
            if rng.random() < 0.4:
                m = outer([rand_scalar(rng) for _ in range(r)],
                          [rand_scalar(rng) for _ in range(c)])
            else:
                m = rand_matrix(rng, r, c)
            assert is_rank_one_by_minors(m) == (rank(m) == 1)

    def test_rank_one_factor(self):
        bowtie = DenseMatrix.unit(4, 1, 3) + DenseMatrix.unit(4, 1, 4) + \
            DenseMatrix.unit(4, 2, 3) + DenseMatrix.unit(4, 2, 4)
        u, v = rank_one_factor(bowtie)
        assert u == [scalar(1), scalar(1), scalar(0), scalar(0)]
        assert v == [scalar(0), scalar(0), scalar(1), scalar(1)]
        assert outer(u, v) == bowtie

    def test_rank_one_factor_random(self):
        rng = random.Random(41)
        for _ in range(100):
            r = rng.randrange(1, 5)
            c = rng.randrange(1, 5)
            m = outer([rand_scalar(rng) for _ in range(r)],
                      [rand_scalar(rng) for _ in range(c)])
            if rank(m) != 1:
                continue
            u, v = rank_one_factor(m)
            assert outer(u, v) == m
            lead = next(x for x in u if x)
            assert lead == scalar(1)

    def test_rank_one_factor_rejects(self):
        with pytest.raises(RankNotOne):
            rank_one_factor(DenseMatrix.identity(2))
        with pytest.raises(RankNotOne):
            rank_one_factor(DenseMatrix.zeros(2, 2))


class TestInverse:
    def test_fixture(self):
        m = DenseMatrix.from_rows([[1, 1], [0, 1]])
        inv = inverse(m)
        assert inv == DenseMatrix.from_rows([[1, -1], [0, 1]])
        assert multiply(m, inv) == DenseMatrix.identity(2)

    def test_random_round_trip(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = rand_invertible(rng, n)
            inv = inverse(m)
            assert multiply(m, inv) == DenseMatrix.identity(n)
            assert multiply(inv, m) == DenseMatrix.identity(n)
            assert inverse(inv) == m

    def test_singular(self):
        with pytest.raises(Singular):
            inverse(DenseMatrix.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(DimensionMismatch):
            inverse(DenseMatrix.zeros(2, 3))


class TestBlockRow:
    """The row of blocks a linear map holds, its unit images side by side,
    against the images it was built from."""

    def test_reads_match_the_blocks(self):
        rng = random.Random(97)
        for _ in range(150):
            rho = random_quasiorder(rng, 1, 4)
            n, units = rho.n, rho.pairs()
            blocks = [rand_matrix(rng, n, n) for _ in units]
            row = LinearMapOnSMA(rho, dict(zip(units, blocks)))
            assert len(row.nonzeros) == len(units)
            assert row.matrix.shape == (n, n * len(units))
            for r in range(1, n + 1):
                assert row.matrix.row_list(r) == [
                    x for b in blocks for x in b.row_list(r)
                ]
            # the same row read back out of its blocks
            again = LinearMapOnSMA(rho, row.unit_images())
            assert (again.d, again.nonzeros) == (row.d, row.nonzeros)
            for t, b in enumerate(blocks):
                assert row.block(t) == b
                positions = {(pos // n + 1, pos % n + 1) for pos, _, _ in row.nonzeros[t]}
                assert positions == b.support()
                assert row.literals(t) == [x.literal() for r in to_grid(b) for x in r]
            coeffs = [
                (rand_scalar(rng), rng.randrange(len(units))) for _ in range(rng.randint(0, 3))
            ]
            total = DenseMatrix.zeros(n, n)
            for c, t in coeffs:
                total = total + blocks[t].scale(c)
            assert row.combination(coeffs) == total
            # the nonzeros read back out of a product with the blocks
            assert row.left_multiplied(DenseMatrix.identity(n)).nonzeros == row.nonzeros
            m = rand_matrix(rng, n, n)
            assert row.left_multiplied(m) == LinearMapOnSMA(
                rho, {p: m * b for p, b in zip(units, blocks)}
            )

    def test_shapes(self):
        rho = upper_chain(2)
        blocks = {p: DenseMatrix.identity(2) for p in rho.pairs()}
        with pytest.raises(DimensionMismatch):
            LinearMapOnSMA(rho, {**blocks, (1, 2): DenseMatrix.identity(3)})
        with pytest.raises(DimensionMismatch):
            LinearMapOnSMA(rho, blocks).left_multiplied(DenseMatrix.identity(3))


class TestFromEntries:
    def test_places_entries_and_zeros(self):
        m = DenseMatrix.from_entries(2, 3, {(1, 3): 2, (2, 1): "1i"})
        assert m == DenseMatrix.from_rows([[0, 0, 2], [GaussianRational(0, 1), 0, 0]])
        assert DenseMatrix.from_entries(2, 2, {}) == DenseMatrix.zeros(2, 2)

    @pytest.mark.parametrize("pos", [(0, 1), (1, 0), (3, 1), (1, 4), (-1, 2)])
    def test_out_of_range(self, pos):
        with pytest.raises(DimensionMismatch):
            DenseMatrix.from_entries(2, 3, {pos: 1})

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (4, 1), (1, 4), (-1, 1)])
    def test_unit_out_of_range(self, i, j):
        # negative list indices used to wrap: unit(3, 0, 1) gave E_31
        with pytest.raises(DimensionMismatch):
            DenseMatrix.unit(3, i, j)


class TestPermutations:
    def test_unit_relabeling(self):
        pi = (2, 3, 1)
        p = permutation_matrix(pi)
        pinv = inverse(p)
        for i in range(1, 4):
            for j in range(1, 4):
                lhs = multiply(multiply(p, DenseMatrix.unit(3, i, j)), pinv)
                assert lhs == DenseMatrix.unit(3, pi[i - 1], pi[j - 1])

    def test_relabel_matches_conjugation(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(1, 6)
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            pi = tuple(pi)
            m = rand_matrix(rng, n, n)
            p = permutation_matrix(pi)
            assert relabel_matrix(m, pi) == multiply(multiply(p, m), inverse(p))
            assert relabel_matrix(relabel_matrix(m, pi), invert_permutation(pi)) == m


class TestMatrixFormat:
    def test_round_trip(self):
        rng = random.Random(19)
        for _ in range(30):
            m = rand_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            assert parse_matrix(format_matrix(m)) == m

    def test_comments_and_layout(self):
        text = "2 2  # shape\n1 1/2\n# a comment line\n-1i 2+1/3i\n"
        m = parse_matrix(text)
        assert m.at(1, 2) == scalar(Fraction(1, 2))
        assert m.at(2, 1) == GaussianRational(0, -1)
        assert m.at(2, 2) == GaussianRational(2, Fraction(1, 3))

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_matrix("")
        with pytest.raises(FormatError):
            parse_matrix("2\n1 2\n")
        with pytest.raises(FormatError):
            parse_matrix("1 2\n1\n")
        with pytest.raises(FormatError) as exc:
            parse_matrix("1 1\nnope\n")
        assert exc.value.line == 2

    def test_literals_match_the_scalar_path(self):
        rng = random.Random(23)
        for _ in range(200):
            r, c = rng.randrange(0, 5), rng.randrange(1, 5)
            cells = [random_literal(rng) for _ in range(r * c)]
            rows = [" ".join(t for t, _ in cells[k * c : (k + 1) * c]) for k in range(r)]
            m = parse_matrix(f"{r} {c}\n" + "\n".join(rows) + "\n")
            assert m == DenseMatrix(r, c, [GaussianRational.from_literal(t) for t, _ in cells])
            assert m == DenseMatrix(r, c, [GaussianRational(*v) for _, v in cells])

    @pytest.mark.parametrize("bad, message", BAD_LITERALS)
    def test_bad_literal_names_its_line(self, bad, message):
        with pytest.raises(FormatError) as exc:
            parse_matrix(f"2 2\n1 0\n# note\n0 {bad}\n")
        assert exc.value.line == 4
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 1\n\u0663\n", 2),  # ARABIC-INDIC DIGIT THREE
            ("1 1\n1/\u0663\n", 2),
            ("1 1\n1+\uff12i\n", 2),  # FULLWIDTH DIGIT TWO
            ("1 1\n1_0\n", 2),
            ("1 1_0\n" + "0 " * 10 + "\n", 1),
            ("\u0661 1\n0\n", 1),
        ],
    )
    def test_only_ascii_digits(self, text, line):
        with pytest.raises(FormatError) as exc:
            parse_matrix(text)
        assert exc.value.line == line


# --- properties of the elimination kernel ------------------------------------

PARTS = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(10**9 - 3, 10**9 + 3),
    st.integers(-(10**9) - 3, -(10**9) + 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Gaussian-rational matrices up to 7x7 (0 rows or 0 columns included):
    all real, all imaginary (so every pivot is imaginary) or mixed, with
    some columns replaced by multiples of earlier columns and some rows by
    combinations of earlier rows."""
    r = draw(st.integers(0, 7)) if rows is None else rows
    c = draw(st.integers(0, 7)) if cols is None else cols
    mode = draw(st.sampled_from(["real", "imaginary", "mixed"]))

    def entry():
        a, b = draw(PARTS), draw(PARTS)
        if mode == "real":
            return GaussianRational(a)
        if mode == "imaginary":
            return GaussianRational(0, b)
        return GaussianRational(a, b)

    grid = [[entry() for _ in range(c)] for _ in range(r)]
    for j in range(1, c):
        if draw(st.integers(0, 2)) == 0:
            k, s = draw(st.integers(0, j - 1)), entry()
            for row in grid:
                row[j] = s * row[k]
    for i in range(1, r):
        if draw(st.integers(0, 2)) == 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = entry(), entry()
            grid[i] = [s * x + t * y for x, y in zip(grid[j], grid[k])]
    return DenseMatrix(r, c, [x for row in grid for x in row])


def square_matrices():
    return st.integers(0, 7).flatmap(lambda n: matrices(n, n))


def same_shape_pairs():
    return st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
        lambda s: st.tuples(matrices(*s), matrices(*s))
    )


KERNEL = settings(max_examples=60, deadline=None)

SMALL = st.integers(-4, 4)
NONZERO = SMALL.filter(bool)


@st.composite
def elimination_inputs(draw):
    """Gaussian-integer rows for the elimination kernel, as (re, im) stacks:
    sparse, upper or lower triangular, a permutation times a diagonal,
    dense, dense with Gaussian entries, singular (rows combined from earlier
    ones), or any of these augmented by the identity, as inverse runs it."""
    kind = draw(st.sampled_from(
        ["sparse", "upper", "lower", "permutation", "dense", "gaussian", "singular"]
    ))
    n = draw(st.integers(0, 7))
    c = n if kind in ("upper", "lower", "permutation") else draw(st.integers(0, 8))
    imaginary = kind == "gaussian" or draw(st.integers(0, 3)) == 0
    sparse = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3])

    def part(i, j):
        if kind in ("sparse", "singular"):
            return draw(sparse)
        if kind == "upper" and i > j or kind == "lower" and i < j:
            return 0
        if kind in ("upper", "lower") and i == j:
            return draw(NONZERO) if draw(st.integers(0, 4)) else 0
        if kind == "permutation":
            return 0
        return draw(SMALL)

    re = [[part(i, j) for j in range(c)] for i in range(n)]
    im = [[part(i, j) if imaginary else 0 for j in range(c)] for i in range(n)]
    if kind == "permutation":
        for i, j in enumerate(draw(st.permutations(range(n)))):
            re[i][j] = draw(NONZERO)
            im[i][j] = draw(SMALL) if imaginary else 0
    if kind == "singular":
        for i in range(1, n):
            if draw(st.booleans()):
                k, s = draw(st.integers(0, i - 1)), draw(NONZERO)
                re[i] = [a + s * b for a, b in zip(re[i], re[k])]
                im[i] = [a + s * b for a, b in zip(im[i], im[k])]
    if draw(st.booleans()):
        for i in range(n):
            re[i] += [int(i == j) for j in range(n)]
            im[i] += [0] * n
    return re, im


def _bareiss_both_ways(rows):
    re, im = rows
    for reduce in (False, True):
        got_re, got_im = [list(r) for r in re], [list(r) for r in im]
        want_re, want_im = [list(r) for r in re], [list(r) for r in im]
        got = _gauss_jordan(got_re, got_im, reduce)
        assert got == bareiss_gauss_jordan(want_re, want_im, reduce)
        assert (got_re, got_im) == (want_re, want_im)


class TestEliminationKernel:
    """The kernel skips rows with a zero in the pivot column and lifts them
    when they are read; it must return what Bareiss's every-row update
    returns and leave the same rows."""

    @settings(max_examples=400, deadline=None)
    @given(elimination_inputs())
    @example(([[1, 0, 1, 0], [0, 1, 0, 1]], [[0, 0, 0, 0], [0, 0, 0, 0]]))
    @example(([[0, 2, 1], [0, 0, 3], [2, 0, 0]], [[0, 1, 0], [0, 0, 0], [1, 0, 0]]))
    @example(([[2, 3, 0, 0], [0, 2, 3, 0], [0, 0, 2, 3], [0, 0, 0, 2]], [[0] * 4] * 4))
    def test_matches_bareiss_row_for_row(self, rows):
        _bareiss_both_ways(rows)

    def test_matches_bareiss_on_random_sparse_stacks(self):
        rng = random.Random(19)
        for _ in range(300):
            r, c = rng.randint(1, 12), rng.randint(1, 14)
            density = rng.choice((0.1, 0.3, 1.0))

            def part():
                return rng.randint(-5, 5) if rng.random() < density else 0

            re = [[part() for _ in range(c)] for _ in range(r)]
            im = [[part() if rng.random() < 0.5 else 0 for _ in range(c)] for _ in range(r)]
            _bareiss_both_ways((re, im))

    def test_inverse_of_the_identity_at_400_under_two_seconds(self):
        ident = DenseMatrix.identity(400)
        start = time.perf_counter()
        assert inverse(ident) == ident
        assert time.perf_counter() - start < 2.0

    def test_rank_of_a_bidiagonal_at_400_under_two_seconds(self):
        n = 400
        entries = {(i, i): 2 for i in range(1, n + 1)}
        entries.update({(i + 1, i): "1i" for i in range(1, n)})
        m = DenseMatrix.from_entries(n, n, entries)
        start = time.perf_counter()
        assert rank(m) == n
        assert time.perf_counter() - start < 2.0


class TestKernelProperties:
    @KERNEL
    @given(matrices())
    def test_rank_matches_oracle(self, m):
        assert rank(m) == oracle_rank_of(m)

    @KERNEL
    @given(square_matrices())
    def test_inverse_or_singular(self, m):
        n = m.rows
        if oracle_rank_of(m) < n:
            with pytest.raises(Singular):
                inverse(m)
        else:
            assert m * inverse(m) == DenseMatrix.identity(n)

    @KERNEL
    @given(matrices())
    @example(DenseMatrix.from_rows([[1, 2, 0], [0, 0, 3]]))  # free column between pivots
    def test_pivot_columns(self, m):
        # The pivots are the greedy left-to-right independent columns: those
        # that raise the rank of the columns before them.
        grid = grid_of(m)
        prefix_ranks = [oracle_rank([row[:j] for row in grid]) for j in range(m.cols + 1)]
        greedy = [j for j in range(1, m.cols + 1) if prefix_ranks[j] > prefix_ranks[j - 1]]
        assert pivot_columns(m) == greedy
        assert len(greedy) == oracle_rank_of(m)

    @KERNEL
    @given(same_shape_pairs())
    def test_storage_is_canonical(self, pair):
        a, b = pair
        rebuilt = DenseMatrix(a.rows, a.cols, [x for row in to_grid(a) for x in row])
        for same in ((a + b) - b, a.scale(2).scale(Fraction(1, 2)), rebuilt):
            assert same == a
            assert hash(same) == hash(a)
