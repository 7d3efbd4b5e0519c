"""Tests for spectral idempotents and the in-algebra simultaneous
diagonalization built by pushing unit columns through Lagrange factors."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smalg.diag
import smalg.exactnum
import smalg.polyroots
from smalg.diag import simultaneous_diagonalize_in_sma
from smalg.errors import (
    IrrationalSpectrum,
    NotDiagonalizable,
    PreconditionViolated,
    SmalgError,
    SupportViolation,
)
from smalg.exactnum import DenseMatrix, inverse, permutation_matrix, rank, scalar
from smalg.quasiorder import block_triangular_form, from_edges, reverse

from fixtures import (
    delta,
    full,
    random_class_order,
    random_invertible_in_sma,
    random_quasiorder,
    upper_chain,
)
import oracles
from oracles import (
    col_list,
    dense_simultaneous_diagonalize,
    fraction_pair,
    grid_of,
    is_diagonalizable,
    oracle_spectral_pairs,
    spectral_idempotents,
)


def rows(m):
    return [m.row_list(i) for i in range(1, m.rows + 1)]


def test_is_diagonalizable_basics():
    assert is_diagonalizable(DenseMatrix.diag([1, 1, 2]))
    assert is_diagonalizable(DenseMatrix.from_rows([[0, 1], [0, 1]]))
    assert not is_diagonalizable(DenseMatrix.from_rows([[0, 1], [0, 0]]))
    # rotation by i: diagonalizable over the Gaussian rationals
    assert is_diagonalizable(DenseMatrix.from_rows([[0, -1], [1, 0]]))


def test_spectral_idempotents_diagonal():
    d = spectral_idempotents(DenseMatrix.diag([1, 2]))
    assert d.eigenvalues == [scalar(1), scalar(2)]
    assert d.idempotents == [DenseMatrix.unit(2, 1, 1), DenseMatrix.unit(2, 2, 2)]


def test_spectral_idempotents_projection_pattern():
    # [DERIVED] A = [[0,1],[0,1]]: p_1(x) = x, p_0(x) = 1 - x
    a = DenseMatrix.from_rows([[0, 1], [0, 1]])
    d = spectral_idempotents(a)
    assert d.eigenvalues == [scalar(0), scalar(1)]
    assert rows(d.idempotents[0]) == rows(DenseMatrix.from_rows([[1, -1], [0, 0]]))
    assert rows(d.idempotents[1]) == rows(a)


def test_spectral_idempotents_errors():
    with pytest.raises(NotDiagonalizable):
        spectral_idempotents(DenseMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(IrrationalSpectrum):
        spectral_idempotents(DenseMatrix.from_rows([[0, 1], [2, 0]]))


def test_spectral_idempotents_gaussian_eigenvalues():
    # [DERIVED] the rotation matrix splits as -i and i over the field
    a = DenseMatrix.from_rows([[0, -1], [1, 0]])
    d = spectral_idempotents(a)
    assert d.eigenvalues == [scalar("-1i"), scalar("1i")]
    total = d.idempotents[0] + d.idempotents[1]
    assert total == DenseMatrix.identity(2)


def test_spectral_invariants_random():
    rng = random.Random(31)
    for _ in range(20):
        rho = random_quasiorder(rng, n_max=5)
        s0 = random_invertible_in_sma(rho, rng)
        d0 = DenseMatrix.diag([rng.randrange(4) for _ in range(rho.n)])
        a = s0 * d0 * inverse(s0)
        dec = spectral_idempotents(a)
        n = rho.n
        total = DenseMatrix.zeros(n, n)
        recon = DenseMatrix.zeros(n, n)
        for lam, p in dec.pairs:
            assert p * p == p
            total = total + p
            recon = recon + p.scale(lam)
        assert total == DenseMatrix.identity(n)
        assert recon == a
        eigs = dec.eigenvalues
        assert eigs == sorted(eigs, key=lambda e: e.sort_key())


def test_diagonalize_in_sma_worked_example():
    # [DERIVED] on the order 1 <= 2 the similarity is exactly [[1,1],[0,1]]
    rho = upper_chain(2)
    a = DenseMatrix.from_rows([[0, 1], [0, 1]])
    s, s_inv, diagonals = simultaneous_diagonalize_in_sma(rho, [a])
    assert rows(s) == rows(DenseMatrix.from_rows([[1, 1], [0, 1]]))
    assert s_inv == inverse(s)
    assert inverse(s) * a * s == DenseMatrix.diag([0, 1])
    assert diagonals == ([scalar(0), scalar(1)],)
    # adding the identity to the family changes nothing
    s2, _, diagonals2 = simultaneous_diagonalize_in_sma(
        rho, [a, DenseMatrix.identity(2)]
    )
    assert s2 == s
    assert diagonals2 == ([scalar(0), scalar(1)], [scalar(1), scalar(1)])


def test_idempotent_similarity_composes_with_spectral():
    # [DERIVED] the spectral idempotents of [[0,1],[0,1]] are I - A (for 0)
    # and A (for 1); column j of S is column j of the one with a 1 at (j, j)
    a = DenseMatrix.from_rows([[0, 1], [0, 1]])
    fam = spectral_idempotents(a).idempotents
    assert fam == [DenseMatrix.identity(2) - a, a]
    s = simultaneous_diagonalize_in_sma(upper_chain(2), [a]).s
    for j in (1, 2):
        (owner,) = [p for p in fam if p.at(j, j) == scalar(1)]
        assert col_list(s, j) == col_list(owner, j)
    assert rows(s) == rows(DenseMatrix.from_rows([[1, 1], [0, 1]]))
    assert inverse(s) * a * s == DenseMatrix.diag([0, 1])


def test_diagonalize_in_sma_full_block_worked_example():
    # [DERIVED] A = [[1,1],[1,1]] has projectors (A - 2I)/(-2) and A/2, in
    # eigenvalue order 0, 2. Both blocks pivot on column 1, so S takes
    # column 1 of each: [1/2, -1/2] then [1/2, 1/2].
    a = DenseMatrix.from_rows([[1, 1], [1, 1]])
    s = simultaneous_diagonalize_in_sma(full(2), [a]).s
    half = Fraction(1, 2)
    assert rows(s) == rows(DenseMatrix.from_rows([[half, half], [-half, half]]))
    assert inverse(s) * a * s == DenseMatrix.diag([0, 2])


def test_diagonalize_in_sma_diagonal_family_on_full_block_is_identity():
    fam = [DenseMatrix.diag([1, 2, 3]), DenseMatrix.diag([0, 0, 5])]
    assert simultaneous_diagonalize_in_sma(full(3), fam).s == DenseMatrix.identity(3)


def test_diagonalize_in_sma_lower_triangular_member():
    f = DenseMatrix.from_rows([[1, 0], [1, 2]])
    s = simultaneous_diagonalize_in_sma(full(2), [f]).s
    assert (inverse(s) * f * s).is_diagonal()


def test_diagonalize_in_sma_family_of_powers():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randrange(2, 5)
        s0 = random_invertible_in_sma(full(n), rng)
        a = s0 * DenseMatrix.diag([rng.randrange(3) for _ in range(n)]) * inverse(s0)
        s = simultaneous_diagonalize_in_sma(full(n), [a, a * a]).s
        sinv = inverse(s)
        assert (sinv * a * s).is_diagonal()
        assert (sinv * (a * a) * s).is_diagonal()


def test_diagonalize_in_sma_triangular_family_takes_owning_projector_columns():
    # Members upper-triangular on every class: column j of S is column j of
    # the one joint projector with a 1 at (j, j), so S is unit upper-triangular.
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randrange(2, 6)
        s0 = random_invertible_in_sma(upper_chain(n), rng)
        fam = [
            s0 * DenseMatrix.diag([rng.randrange(3) for _ in range(n)]) * inverse(s0)
            for _ in range(2)
        ]
        joint = [
            p * q
            for p in spectral_idempotents(fam[0]).idempotents
            for q in spectral_idempotents(fam[1]).idempotents
        ]
        for rho in (upper_chain(n), full(n)):
            s = simultaneous_diagonalize_in_sma(rho, fam).s
            assert s.is_upper_triangular()
            for j in range(1, n + 1):
                (owner,) = [q for q in joint if q.at(j, j) == scalar(1)]
                assert col_list(s, j) == col_list(owner, j)


def test_diagonalize_in_sma_full_block_errors():
    e12 = DenseMatrix.from_rows([[0, 1], [0, 0]])
    e21 = DenseMatrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(PreconditionViolated, match="commute"):
        simultaneous_diagonalize_in_sma(full(2), [e12, e21])
    with pytest.raises(NotDiagonalizable):
        simultaneous_diagonalize_in_sma(full(2), [e12])
    with pytest.raises(IrrationalSpectrum):
        simultaneous_diagonalize_in_sma(full(2), [DenseMatrix.from_rows([[0, 1], [2, 0]])])


def test_diagonalize_in_sma_member_messages():
    eye = DenseMatrix.identity(2)
    cases = [
        (DenseMatrix.from_rows([[0, 1], [0, 0]]), NotDiagonalizable,
         "member 2 is not diagonalizable"),
        (DenseMatrix.from_rows([[1, 1], [-1, -1]]), NotDiagonalizable,
         "member 2 is not diagonalizable"),
        (DenseMatrix.from_rows([[0, 1], [2, 0]]), IrrationalSpectrum,
         "member 2 has irrational eigenvalues"),
    ]
    for member, error, message in cases:
        with pytest.raises(error) as exc:
            simultaneous_diagonalize_in_sma(full(2), [eye, member])
        assert str(exc.value) == message


def test_diagonalize_in_sma_diagonal_input_stays_fixed():
    rng = random.Random(61)
    for rho in (delta(3), upper_chain(4), random_quasiorder(rng)):
        d = DenseMatrix.diag(list(range(1, rho.n + 1)))
        s = simultaneous_diagonalize_in_sma(rho, [d]).s
        assert inverse(s) * d * s == d


def test_diagonalize_in_sma_empty_family():
    ident = DenseMatrix.identity(3)
    assert simultaneous_diagonalize_in_sma(delta(3), []) == (ident, ident, ())


def test_diagonalize_in_sma_errors():
    rho = upper_chain(2)
    outside = DenseMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(SupportViolation) as exc:
        simultaneous_diagonalize_in_sma(rho, [outside])
    assert exc.value.pair == (2, 1)
    # each class block is a scalar, so only the conjugate check finds the
    # defect, and the annihilation test then names it
    with pytest.raises(NotDiagonalizable, match="^member 1 is not diagonalizable$"):
        simultaneous_diagonalize_in_sma(rho, [DenseMatrix.from_rows([[0, 1], [0, 0]])])
    e12 = DenseMatrix.from_rows([[0, 1], [0, 0]])
    e21 = DenseMatrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(PreconditionViolated, match="commute"):
        simultaneous_diagonalize_in_sma(full(2), [e12 + e21, e12])


def test_diagonalize_in_sma_random_roundtrip():
    # discovery-scale version of the randomized acceptance suite
    rng = random.Random(71)
    for _ in range(30):
        rho = random_quasiorder(rng)
        s0 = random_invertible_in_sma(rho, rng)
        s0inv = inverse(s0)
        fam = [
            s0 * DenseMatrix.diag([rng.randrange(4) for _ in range(rho.n)]) * s0inv
            for _ in range(2)
        ]
        s = simultaneous_diagonalize_in_sma(rho, fam).s
        sinv = inverse(s)
        assert all(p in rho for p in s.support())
        assert all(p in rho for p in sinv.support())
        for f in fam:
            assert (sinv * f * s).is_diagonal()


# --- triangular spectra come off the diagonal ---------------------------------


def test_spectral_idempotents_large_prime_spectrum():
    # The characteristic-polynomial route factors a norm near 1e54 by trial
    # division here; the diagonal gives the spectrum at once.
    p, q, r = 999999937, 1000000007, 1000000009
    upper = {(1, 2): 1, (1, 5): -2, (2, 4): "1i", (3, 6): 3, (4, 6): 1}
    u = DenseMatrix.from_entries(6, 6, {**{(k, k): 1 for k in range(1, 7)}, **upper})
    a = u * DenseMatrix.diag([q, p, r, q, p, q]) * inverse(u)
    dec = spectral_idempotents(a)
    assert dec.eigenvalues == [scalar(p), scalar(q), scalar(r)]
    assert [rank(e) for e in dec.idempotents] == [2, 3, 1]
    for lam, e in dec.pairs:
        assert a * e == e.scale(lam)


EIGENVALUES = ["0", "1", "-2", "1/2", "1i", "-1+2i"]
COEFFICIENTS = ["1", "-1", "2", "1i", "-1/3"]


@st.composite
def upper_triangular_inputs(draw):
    """U (D + c E_pq) U^-1 with U unit upper-triangular: diagonalizable when
    no coupling c is drawn, and not when c couples two equal diagonal
    entries of D."""
    n = draw(st.integers(1, 6))
    eigs = draw(st.lists(st.sampled_from(EIGENVALUES), min_size=n, max_size=n))
    core = {(k, k): e for k, e in enumerate(eigs, start=1)}
    repeats = [
        (p, q)
        for p in range(1, n + 1)
        for q in range(p + 1, n + 1)
        if eigs[p - 1] == eigs[q - 1]
    ]
    if repeats and draw(st.booleans()):
        core[draw(st.sampled_from(repeats))] = draw(st.sampled_from(COEFFICIENTS))
    unit = {(k, k): 1 for k in range(1, n + 1)}
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            if draw(st.booleans()):
                unit[(p, q)] = draw(st.sampled_from(COEFFICIENTS))
    u = DenseMatrix.from_entries(n, n, unit)
    return u * DenseMatrix.from_entries(n, n, core) * inverse(u)


@settings(max_examples=60, deadline=None)
@given(upper_triangular_inputs())
@example(DenseMatrix.from_rows([[1, 1], [0, 1]]))
@example(DenseMatrix.from_rows([["1i", 1, 0], [0, "-1i", 2], [0, 0, "1i"]]))
def test_triangular_spectrum_matches_charpoly_route(a):
    assert a.is_upper_triangular()
    try:
        expected = oracle_spectral_pairs(grid_of(a))
    except (NotDiagonalizable, IrrationalSpectrum) as exc:
        with pytest.raises(type(exc)) as got:
            spectral_idempotents(a)
        assert str(got.value) == str(exc)
        return
    dec = spectral_idempotents(a)
    assert [fraction_pair(lam) for lam in dec.eigenvalues] == [lam for lam, _ in expected]
    assert [grid_of(e) for e in dec.idempotents] == [e for _, e in expected]


@pytest.fixture
def root_search_calls(monkeypatch):
    """Counts of charpoly and root-search calls made through smalg.diag."""
    calls = {"charpoly": 0, "roots": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        smalg.diag, "charpoly", counting("charpoly", smalg.diag.charpoly)
    )
    monkeypatch.setattr(
        smalg.diag,
        "roots_in_gaussian_rationals",
        counting("roots", smalg.diag.roots_in_gaussian_rationals),
    )
    return calls


def test_chain_family_needs_no_root_search(root_search_calls):
    rng = random.Random(83)
    rho = upper_chain(5)
    s0 = random_invertible_in_sma(rho, rng)
    fam = [
        s0 * DenseMatrix.diag([rng.randrange(4) for _ in range(5)]) * inverse(s0)
        for _ in range(3)
    ]
    s = simultaneous_diagonalize_in_sma(rho, fam).s
    assert all((inverse(s) * f * s).is_diagonal() for f in fam)
    assert root_search_calls == {"charpoly": 0, "roots": 0}


def _reduced_echelon(m):
    """The nonzero rows of the reduced row echelon form of m, as a matrix,
    and its 0-based pivot columns, by elimination on scalars."""
    rows = [m.row_list(i) for i in range(1, m.rows + 1)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        src = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = rows[r][c].reciprocal()
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return DenseMatrix.from_rows(rows[: len(pivots)]), pivots


def _expected_root_searches(family, idx):
    """The root searches of the class-block stage on the class ``idx``: one
    for each restriction that is not upper-triangular, of a member's block
    to a joint piece of dimension 2 or more, in the piece's reduced echelon
    basis. The first member's piece is the whole space, whose restriction
    is its block. The pieces are the row spaces of the nonzero products of
    the earlier members' block projectors (``spectral_idempotents``)."""
    size = len(idx)
    pieces, count = [DenseMatrix.identity(size)], 0
    for f in family:
        block = f.submatrix(idx, idx)
        for q in pieces:
            if rank(q) >= 2:
                w, cols = _reduced_echelon(q)
                m = (w * block).submatrix(range(1, w.rows + 1), [c + 1 for c in cols])
                count += not m.is_upper_triangular()
        projectors = spectral_idempotents(block).idempotents
        pieces = [q * e for q in pieces for e in projectors if not (q * e).is_zero()]
    return count


def test_full_block_family_searches_the_first_member_and_wide_restrictions(root_search_calls):
    # The first member's block is searched when it is not upper-triangular;
    # a later member is searched only on the pieces of dimension 2 or more
    # whose restriction is not upper-triangular, never as a whole block.
    # The second member splits both pieces of the first, the third has
    # only 1 x 1 restrictions, and the fourth is scalar.
    rng = random.Random(89)
    rho = full(4)
    s0 = random_invertible_in_sma(rho, rng, steps=10)
    fam = _conjugates(s0, [[0, 0, 1, 1], [2, 5, 2, 5], [1, 1, 1, 4]])
    fam.append(DenseMatrix.identity(4).scale(3))
    non_triangular = sum(not f.is_upper_triangular() for f in fam)
    expected = _expected_root_searches(fam, [1, 2, 3, 4])
    # the first member and a restriction of the second
    assert 2 <= expected < non_triangular == 3
    s = simultaneous_diagonalize_in_sma(rho, fam).s
    assert all((inverse(s) * f * s).is_diagonal() for f in fam)
    assert root_search_calls == {"charpoly": expected, "roots": expected}


# --- the column construction against the dense joint projectors ---------------


GAUSSIAN_EIGENVALUES = ["0", "1", "-2", "1/2", "1i", "-1+2i"]


def _outcome(diagonalize, rho, family):
    try:
        return diagonalize(rho, family)
    except Exception as exc:  # the two must fail alike
        return type(exc), str(exc)


def _random_family(rng):
    """A relation with classes of 1 to 4 vertices and a family of 1 to 3
    members S0 D_k S0^-1 with Gaussian eigenvalues, with S0 invertible in
    the algebra. Some families get a member with a nilpotent coupling D_pp
    = D_qq, some a 2 x 2 block of irrational eigenvalues on one class, and
    some a member conjugated by a second, unrelated S1."""
    n = rng.randint(1, 8)
    rho = random_class_order(rng, n, rng.choice((0.2, 0.5, 0.9)), sizes=(1, 2, 3, 4))
    s0 = random_invertible_in_sma(rho, rng, steps=rng.randrange(0, 8))
    s0inv = inverse(s0)
    pool = GAUSSIAN_EIGENVALUES[: rng.randint(1, len(GAUSSIAN_EIGENVALUES))]
    values = [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    kind = rng.choice(("plain", "plain", "defective", "irrational", "non-commuting"))
    strict = rho.strict_pairs()
    mutual = [(i, j) for (i, j) in strict if (j, i) in rho]
    extra = {}
    if kind == "defective" and strict:
        p, q = rng.choice(strict)
        extra = {(p, q): rng.choice(("1", "-1/3", "1i"))}
    elif kind == "irrational" and mutual:
        p, q = rng.choice(mutual)
        extra = {(p, q): 1, (q, p): rng.choice((2, 3, "1i"))}
    if extra:
        # every member is scalar on {p, q}, so each commutes with the coupling
        for row in values:
            row[q - 1] = row[p - 1]
    family = []
    for k, row in enumerate(values):
        core = {(i, i): v for i, v in enumerate(row, start=1)}
        if k == 0:
            core.update(extra)
        family.append(s0 * DenseMatrix.from_entries(n, n, core) * s0inv)
    if kind == "non-commuting" and n > 1:
        s1 = random_invertible_in_sma(rho, rng)
        d1 = DenseMatrix.diag([rng.choice(pool) for _ in range(n)])
        family.append(s1 * d1 * inverse(s1))
    rng.shuffle(family)
    return rho, family


def _conjugates(s0, diagonals):
    s0inv = inverse(s0)
    return [s0 * DenseMatrix.diag(d) * s0inv for d in diagonals]


def _two_classes():
    """The classes {1, 2, 3} below {4, 5}."""
    return from_edges(5, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (2, 4)])


def _class_block_cases(rng):
    """Families chosen to reach each branch of the class-block stage: full
    blocks of size 3 and 4 with repeated eigenvalues, Gaussian eigenvalues,
    class blocks that are upper-triangular, and one to three members."""
    two_classes = _two_classes()
    repeated = [[1, 1, 2, 2], [0, 3, 3, 0], ["1i", 0, 0, "1i"]]
    gaussian = [["1i", "1i", "-1+2i"], ["-1i", 2, 2]]
    cases = []
    for _ in range(4):
        s4 = random_invertible_in_sma(full(4), rng, steps=10)
        for k in (1, 2, 3):
            cases.append((full(4), _conjugates(s4, repeated[:k])))
        s3 = random_invertible_in_sma(full(3), rng, steps=8)
        cases.append((full(3), _conjugates(s3, [[5, 5, -1]])))
        for k in (1, 2):
            cases.append((full(3), _conjugates(s3, gaussian[:k])))
        # upper-triangular on the whole relation, so on every class block
        u4 = random_invertible_in_sma(upper_chain(4), rng, steps=8)
        cases.append((full(4), _conjugates(u4, repeated)))
        s5 = random_invertible_in_sma(two_classes, rng, steps=10)
        cases.append((two_classes, _conjugates(s5, [[2, 2, 7, 7, 2], ["1i", 0, 0, 0, "1i"]])))
    # a 3 x 3 block with a repeated eigenvalue that is not diagonalizable,
    # and one with a 2 x 2 irrational part, each beside a diagonalizable member
    defective = DenseMatrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 0, 2]])
    irrational = DenseMatrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 1]])
    for bad in (defective, irrational):
        cases.append((full(3), [DenseMatrix.identity(3), bad]))
    return cases


def test_column_construction_matches_dense_joint_projectors():
    rng = random.Random(2024)
    seen = set()
    # the pivot tie: both projectors of [[0,1],[1,0]] pivot on column 1
    cases = [(full(2), [DenseMatrix.from_rows([[0, 1], [1, 0]])])]
    cases += _class_block_cases(rng)
    cases += [_random_family(rng) for _ in range(1000)]
    for rho, family in cases:
        got = _outcome(simultaneous_diagonalize_in_sma, rho, family)
        assert got == _outcome(dense_simultaneous_diagonalize, rho, family)
        seen.add(got[0] if isinstance(got[0], type) else "ok")
    assert seen == {
        "ok", IrrationalSpectrum, NotDiagonalizable, PreconditionViolated,
    }


def test_diagonalize_products_stay_within_the_spectra(monkeypatch):
    # one product per member and eigenvalue, and one per member for the
    # certificate F S = S D; the n x n joint projectors took 86 here, and
    # the conjugates S^-1 F S with the commute check 6 more. Every product
    # runs on the row kernel, exactnum.multiply's and the push's alike.
    n = 10
    rng = random.Random(97)
    s0 = random_invertible_in_sma(upper_chain(n), rng, steps=12)
    s0inv = inverse(s0)
    family = [
        s0 * DenseMatrix.diag([(k * i) % 5 for i in range(n)]) * s0inv
        for k in (1, 2)
    ]
    products = []
    kernel = smalg.exactnum._rows_times

    def counting(re_rows, im_rows, b_rows):
        re_rows, im_rows = list(re_rows), list(im_rows)
        if (len(b_rows[0]), b_rows[2]) == (n, n):
            products.append(len(re_rows))
        return kernel(re_rows, im_rows, b_rows)

    for module in (smalg.exactnum, smalg.diag, smalg.polyroots):
        monkeypatch.setattr(module, "_rows_times", counting)
    result = simultaneous_diagonalize_in_sma(upper_chain(n), family)
    assert [len(set(d)) for d in result.diagonals] == [5, 5]
    assert len(products) <= 5 + 5 + 2
    # the two certificate products take all n rows of F
    assert products.count(n) >= 2


def test_full_block_stage_forms_no_projector_and_multiplies_each_piece_once(monkeypatch):
    # Diagonalizability and the picks are read off the left eigenspaces:
    # no minimal polynomial is evaluated, no annihilation test runs and no
    # Lagrange projector is formed. Each later member's class block is
    # multiplied once by the echelon basis W of each joint piece, as many
    # rows as the piece's dimension d, and the restriction read off it is
    # checked by one d x d times W product; a piece that the member splits
    # gives one product y W per eigenvalue, as many rows as the new piece's
    # dimension. Every other product is n x n (the push and the
    # certificate F S = S D).
    rho = _two_classes()
    rng = random.Random(101)
    s0 = random_invertible_in_sma(rho, rng, steps=12)
    values = [[2, 2, 7, 7, 2], ["1i", 0, 0, 0, "1i"], [1, 3, 3, 1, 1]]
    family = _conjugates(s0, values)
    classes = ([1, 2, 3], [4, 5])
    assert any(
        not f.submatrix(idx, idx).is_upper_triangular() for f in family for idx in classes
    )
    calls = []

    def forbidden(name):
        def wrapper(*args):
            calls.append(name)
            raise AssertionError(f"{name} ran on a diagonalizable family")
        return wrapper

    monkeypatch.setattr(smalg.diag, "poly_eval_matrix", forbidden("poly_eval_matrix"))
    for name in ("lagrange_spectrum", "lagrange_projectors", "lagrange_annihilate"):
        monkeypatch.setattr(oracles, name, forbidden(name))
    shapes = []
    kernel = smalg.exactnum._rows_times

    def recording(re_rows, im_rows, b_rows):
        re_rows, im_rows = list(re_rows), list(im_rows)
        shapes.append((len(re_rows), len(b_rows[0]), b_rows[2]))
        return kernel(re_rows, im_rows, b_rows)

    for module in (smalg.exactnum, smalg.diag):
        monkeypatch.setattr(module, "_rows_times", recording)
    s, s_inv, diagonals = simultaneous_diagonalize_in_sma(rho, family)
    assert calls == []
    # S0 D_k S0^-1 has the rows of S0^-1 as its left eigenvectors, so the
    # pieces before member k on a class group its vertices by the values
    # of the members before k
    expected = []
    for idx in classes:
        for k in range(1, len(values)):
            groups = {}
            for v in idx:
                key = tuple(values[j][v - 1] for j in range(k))
                groups.setdefault(key, {}).setdefault(values[k][v - 1], []).append(v)
            for split in groups.values():
                size = sum(map(len, split.values()))
                expected += [(size, len(idx), len(idx)), (size, size, len(idx))]
                if len(split) > 1:
                    expected += [(len(part), size, len(idx)) for part in split.values()]
    assert sorted(x for x in shapes if x[1:] != (5, 5)) == sorted(expected)
    assert any(x[1:] == (5, 5) for x in shapes)
    for f, d in zip(family, diagonals):
        assert s_inv * f * s == DenseMatrix.diag(d)


def _layered_family(rng):
    """A relation with classes of 1 to 3 vertices and a commuting family of
    1 to 3 members S0 D_k S0^-1, where each class draws its eigenvalues from
    a pool of its own, so that the class blocks above a column carry fewer
    eigenvalues than the member's whole spectrum. Half the families get a
    coupling on a strict pair (p, q) with D_pp = D_qq in every member: they
    commute, every class block is diagonalizable, and the first member is
    not."""
    n = rng.randint(2, 8)
    rho = random_class_order(rng, n, rng.choice((0.3, 0.6)), sizes=(1, 1, 2, 3))
    pools = {}
    for a, members in enumerate(block_triangular_form(rho).class_order):
        pool = [scalar(a), scalar(a) + scalar("1i"), scalar(-a - 1)]
        for v in members:
            pools[v] = pool
    s0 = random_invertible_in_sma(rho, rng, steps=rng.randrange(0, 10))
    s0inv = inverse(s0)
    values = [[rng.choice(pools[v]) for v in range(1, n + 1)] for _ in range(rng.randint(1, 3))]
    extra = {}
    strict = [(i, j) for (i, j) in rho.strict_pairs() if (j, i) not in rho]
    if strict and rng.random() < 0.5:
        p, q = rng.choice(strict)
        extra = {(p, q): rng.choice(("1", "-1/3", "1i"))}
        for row in values:
            row[q - 1] = row[p - 1]
    family = []
    for k, row in enumerate(values):
        core = {(i, i): v for i, v in enumerate(row, start=1)}
        if k == 0:
            core.update(extra)
        family.append(s0 * DenseMatrix.from_entries(n, n, core) * s0inv)
    return rho, family


def test_push_through_the_factors_above_a_column_matches_dense_joint_projectors(monkeypatch):
    # Column j takes only the factors (F_k - mu I) for the eigenvalues mu of
    # the class blocks above its class; S, S^-1 and the diagonals must
    # still be the ones read off the n x n joint projectors, and a family
    # that commutes but is not diagonalizable must fail alike.
    rng = random.Random(4049)
    push = smalg.diag._push
    dropped = []

    def recording(family, spectra, sources, targets, factors):
        dropped.append(
            any(len(fs[k]) < len(spectra[k]) - 1 for fs in factors for k in range(len(spectra)))
        )
        return push(family, spectra, sources, targets, factors)

    monkeypatch.setattr(smalg.diag, "_push", recording)
    outcomes = {"ok": 0, NotDiagonalizable: 0}
    for _ in range(300):
        rho, family = _layered_family(rng)
        got = _outcome(simultaneous_diagonalize_in_sma, rho, family)
        assert got == _outcome(dense_simultaneous_diagonalize, rho, family)
        kind = got[0] if isinstance(got[0], type) else "ok"
        outcomes[kind] += 1
        if kind is NotDiagonalizable:
            assert got[1] == "member 1 is not diagonalizable"
    assert min(outcomes.values()) >= 50
    assert sum(dropped) >= 100


def test_irrational_block_searches_its_roots_once(monkeypatch):
    # (x^2 - 2)^2 for a diagonalizable block: the factor the search leaves
    # has degree 4 and its squarefree part, the one the message names,
    # degree 2
    searches = []
    search = smalg.diag.roots_in_gaussian_rationals

    def counting(cs):
        searches.append(len(cs) - 1)
        return search(cs)

    monkeypatch.setattr(smalg.diag, "roots_in_gaussian_rationals", counting)
    rng = random.Random(7)
    s4 = random_invertible_in_sma(full(4), rng, steps=8)
    block = DenseMatrix.from_rows([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])
    member = s4 * block * inverse(s4)
    with pytest.raises(IrrationalSpectrum) as exc:
        simultaneous_diagonalize_in_sma(full(4), [DenseMatrix.identity(4), member])
    assert str(exc.value) == "member 2 has irrational eigenvalues"
    assert str(exc.value.__cause__) == (
        "characteristic factor of degree 2 has no Gaussian-rational root"
    )
    assert searches == [4]


# --- the refinement by restrictions against the intersection route -----------


def _outcome_with_cause(diagonalize, rho, family):
    try:
        return diagonalize(rho, family)
    except Exception as exc:  # the routes must fail alike, cause included
        cause = exc.__cause__
        return type(exc), str(exc), None if cause is None else (type(cause), str(cause))


def _mixed_failure_family(rng, defective_first):
    """Two members on the 4-point full block: the first splits it into two
    planes, and the second is not diagonalizable on one of them and has the
    irrational eigenvalues +-sqrt(2) on the other. ``defective_first`` puts
    the defective plane on the first member's smaller eigenvalue, whose
    piece is split first."""
    s0 = random_invertible_in_sma(full(4), rng, steps=8)
    defective = {(1, 1): 5, (1, 2): 1, (2, 2): 5}
    irrational = {(3, 4): 1, (4, 3): 2}
    if not defective_first:
        defective, irrational = (
            {(i + 2, j + 2): v for (i, j), v in defective.items()},
            {(i - 2, j - 2): v for (i, j), v in irrational.items()},
        )
    second = DenseMatrix.from_entries(4, 4, {**defective, **irrational})
    return full(4), _conjugates(s0, [[0, 0, 1, 1]]) + [s0 * second * inverse(s0)]


@st.composite
def refinement_families(draw):
    """A relation whose mutual classes have 2 to 5 vertices (the last may
    be cut to 1), and 1 to 4 members S0 D_k S0^-1, with repeated
    eigenvalues from a small pool and S0 invertible in the algebra (the
    identity for some, so that every class block is triangular). Some
    members are scalar on every class. A kind may add a nilpotent coupling
    or an irrational 2 x 2 block to a member on a pair of one class where
    every member is scalar, give a later member both (the defective pair
    on one piece of the first member, the irrational one on another), or
    add a member that does not commute."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ("plain", "scalar", "defective", "irrational", "mixed", "non-commuting")
    ))
    if kind == "mixed":
        return (*_mixed_failure_family(rng, draw(st.booleans())), kind)
    n = draw(st.integers(2, 7))
    rho = random_class_order(rng, n, draw(st.sampled_from((0.0, 0.5, 1.0))), sizes=(2, 3, 4, 5))
    s0 = random_invertible_in_sma(rho, rng, steps=draw(st.sampled_from((0, 3, 10))))
    pool = GAUSSIAN_EIGENVALUES[: draw(st.integers(1, 3))]
    count = draw(st.integers(1, 4))
    classes = block_triangular_form(rho).class_order
    values = []
    for _ in range(count):
        if kind == "scalar" and draw(st.booleans()):
            row = [None] * n
            for c in classes:
                v = rng.choice(pool)
                for i in c:
                    row[i - 1] = v
        else:
            row = [rng.choice(pool) for _ in range(n)]
        values.append(row)
    extra, target = {}, draw(st.integers(0, count - 1))
    mutual = [(i, j) for (i, j) in rho.strict_pairs() if (j, i) in rho]
    if kind in ("defective", "irrational") and mutual:
        p, q = rng.choice(mutual)
        if kind == "defective":
            extra = {(p, q): rng.choice(("1", "-1/3", "1i"))}
        else:
            extra = {(p, q): 1, (q, p): rng.choice((2, 3, "1i"))}
        # every member is scalar on {p, q}, so each commutes with the coupling
        for row in values:
            row[q - 1] = row[p - 1]
    family = []
    for k, row in enumerate(values):
        core = {(i, i): v for i, v in enumerate(row, start=1)}
        if k == target:
            core.update(extra)
        family.append(s0 * DenseMatrix.from_entries(n, n, core) * inverse(s0))
    if kind == "non-commuting":
        s1 = random_invertible_in_sma(rho, rng)
        family.append(s1 * DenseMatrix.diag([rng.choice(pool) for _ in range(n)]) * inverse(s1))
    return rho, family, kind


@settings(max_examples=150, deadline=None)
@given(refinement_families())
@example((*_mixed_failure_family(random.Random(5), True), "mixed"))
@example((*_mixed_failure_family(random.Random(5), False), "mixed"))
def test_refinement_matches_intersection_route_and_dense_projectors(case):
    # The same S, S^-1 and diagonals, or the same error type, message and
    # cause, by three routes: refining the first member's pieces by the
    # later members' restrictions, meeting every member's own eigenspaces
    # by intersection kernels, and the n x n joint projectors.
    rho, family, kind = case
    got = _outcome_with_cause(simultaneous_diagonalize_in_sma, rho, family)
    assert got == _outcome_with_cause(oracles.eigenspace_simultaneous_diagonalize, rho, family)
    assert got == _outcome_with_cause(dense_simultaneous_diagonalize, rho, family)
    if kind == "mixed":
        # not diagonalizable on one piece wins over irrational on another
        assert got == (
            NotDiagonalizable,
            "member 2 is not diagonalizable",
            (NotDiagonalizable, "minimal polynomial has a repeated root"),
        )


@pytest.mark.parametrize("a, b, degree", [(2, 3, 4), (2, 2, 2)])
def test_irrational_pieces_name_the_whole_blocks_factor(monkeypatch, a, b, degree):
    # The second member has x^2 - a on one piece of the first and x^2 - b on
    # the other: each piece is searched on its own, and the cause names the
    # squarefree part of the product, as the search of the whole block did.
    searches = []
    search = smalg.diag.roots_in_gaussian_rationals

    def counting(cs):
        searches.append(len(cs) - 1)
        return search(cs)

    monkeypatch.setattr(smalg.diag, "roots_in_gaussian_rationals", counting)
    rng = random.Random(13)
    s4 = random_invertible_in_sma(full(4), rng, steps=8)
    first = s4 * DenseMatrix.diag([0, 0, 1, 1]) * inverse(s4)
    assert not first.is_upper_triangular()
    block = DenseMatrix.from_rows([[0, 1, 0, 0], [a, 0, 0, 0], [0, 0, 0, 1], [0, 0, b, 0]])
    member = s4 * block * inverse(s4)
    with pytest.raises(IrrationalSpectrum) as exc:
        simultaneous_diagonalize_in_sma(full(4), [first, member])
    assert str(exc.value) == "member 2 has irrational eigenvalues"
    assert str(exc.value.__cause__) == (
        f"characteristic factor of degree {degree} has no Gaussian-rational root"
    )
    assert searches == [4, 2, 2]


def _diagonals_or_error(rho, family):
    """The diagonals of S^-1 F S, each as a sorted multiset, or the error
    class."""
    try:
        _, _, diagonals = simultaneous_diagonalize_in_sma(rho, family)
    except SmalgError as exc:
        return type(exc)
    return [sorted(d, key=lambda lam: lam.sort_key()) for d in diagonals]


METAMORPHIC_OUTCOMES = {"ok", NotDiagonalizable, IrrationalSpectrum, PreconditionViolated}


def test_relabeling_keeps_the_outcome_and_the_diagonals():
    # P X P^-1 relabels vertex i as pi(i) and takes the algebra of rho onto
    # that of the relabeled relation: a similarity in one is conjugated
    # into the other, so the outcome and every spectrum stay; only the
    # class order, and with it the order of the work, may change
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        rho, family = _random_family(rng)
        pi = list(range(1, rho.n + 1))
        rng.shuffle(pi)
        p = permutation_matrix(pi)
        pairs = [(pi[i - 1], pi[j - 1]) for i, j in rho.pairs()]
        relabeled = from_edges(rho.n, pairs, close=False)
        got = _diagonals_or_error(rho, family)
        assert _diagonals_or_error(relabeled, [p * f * p.transpose() for f in family]) == got
        seen.add("ok" if isinstance(got, list) else got)
    assert seen == METAMORPHIC_OUTCOMES


def test_transposing_on_the_reversed_relation_keeps_the_outcome_and_the_diagonals():
    # X -> X^t is an anti-isomorphism onto the algebra of the reversed
    # relation: it keeps commuting pairs, diagonalizability and spectra
    seen = set()
    for seed in range(300):
        rho, family = _random_family(random.Random(seed))
        got = _diagonals_or_error(rho, family)
        assert _diagonals_or_error(reverse(rho), [f.transpose() for f in family]) == got
        seen.add("ok" if isinstance(got, list) else got)
    assert seen == METAMORPHIC_OUTCOMES
