"""Tests for polynomial arithmetic, characteristic polynomials and exact
root finding over the Gaussian rationals."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smalg.polyroots
from smalg.errors import InternalInconsistency
from smalg.exactnum import DenseMatrix, GaussianRational, scalar
from smalg.polyroots import (
    charpoly,
    poly_degree,
    poly_divmod,
    poly_eval,
    poly_eval_matrix,
    poly_gcd,
    poly_monic,
    poly_scale,
    poly_trim,
    roots_in_gaussian_rationals,
    squarefree_part,
)

from oracles import (
    divisor_roots_in_gaussian_rationals,
    fraction_pair,
    gaussian_integer_divisors,
    grid_of,
    oracle_charpoly,
    oracle_det,
    poly_mul,
    sqrt_minus_one_mod,
)


def lin(r):
    """The monic linear polynomial with root r."""
    return [-scalar(r), scalar(1)]


def _rand_scalar(rng):
    pool = ["0", "1", "-1", "2", "1/2", "-3", "1i", "-1i", "1+1i", "2/3"]
    return scalar(pool[rng.randrange(len(pool))])


def _rand_poly(rng, deg):
    cs = [_rand_scalar(rng) for _ in range(deg)]
    lead = scalar(0)
    while not lead:
        lead = _rand_scalar(rng)
    return cs + [lead]


def test_poly_trim_degree_eval():
    assert poly_trim([1, 2, 0, 0]) == [scalar(1), scalar(2)]
    assert poly_degree([0]) == -1
    assert poly_degree([5]) == 0
    assert poly_degree([0, 0, 3]) == 2
    # [DERIVED] p(x) = 1 + 2x + x^2 at x = 1+1i: 1 + 2+2i + 2i = 3 + 4i
    assert poly_eval([1, 2, 1], "1+1i") == scalar("3+4i")


def test_poly_divmod_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        q = _rand_poly(rng, rng.randrange(4))
        d = _rand_poly(rng, rng.randrange(1, 4))
        r = _rand_poly(rng, rng.randrange(len(d) - 1)) if len(d) > 1 else []
        num = [a + b for a, b in zip(poly_mul(q, d), r)] + list(
            poly_mul(q, d)[len(r):]
        )
        got_q, got_r = poly_divmod(num, d)
        assert got_q == poly_trim(q)
        assert got_r == poly_trim(r)


def test_poly_gcd_known_and_monic():
    # [DERIVED] common factor of (x-1)^2 (x+1) and (x-1)(x+2) is x-1
    a = poly_mul(poly_mul(lin(1), lin(1)), lin(-1))
    b = poly_mul(lin(1), lin(-2))
    assert poly_gcd(a, b) == lin(1)
    assert poly_gcd(poly_scale(a, 3), poly_scale(b, "1/2")) == lin(1)
    assert poly_gcd(a, []) == poly_monic(a)


def test_squarefree_part():
    # [DERIVED] (x-1)^2 (x+2) squarefrees to (x-1)(x+2) = x^2 + x - 2
    p = poly_mul(poly_mul(lin(1), lin(1)), lin(-2))
    assert squarefree_part(p) == [scalar(-2), scalar(1), scalar(1)]
    q = poly_mul(lin(2), lin(3))
    assert squarefree_part(poly_scale(q, 7)) == q


def test_charpoly_diagonal_and_shift():
    # [DERIVED] diag(1,2,3): (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    a = DenseMatrix.diag([1, 2, 3])
    assert charpoly(a) == [scalar(-6), scalar(11), scalar(-6), scalar(1)]
    # [DERIVED] the rank-one projection pattern [[0,1],[0,1]] has trace 1,
    # determinant 0: x^2 - x
    b = DenseMatrix.from_rows([[0, 1], [0, 1]])
    assert charpoly(b) == [scalar(0), scalar(-1), scalar(1)]


def test_charpoly_vs_leibniz_oracle():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randrange(1, 6)
        a = DenseMatrix.from_rows(
            [[_rand_scalar(rng) for _ in range(n)] for _ in range(n)]
        )
        got = charpoly(a)
        want = oracle_charpoly(grid_of(a))
        assert len(got) == n + 1
        assert [fraction_pair(c) for c in got] == want
        # Cayley-Hamilton and the determinant down in the constant term
        assert poly_eval_matrix(got, a).is_zero()
        det = oracle_det(grid_of(a))
        sign = 1 if n % 2 == 0 else -1
        assert tuple(sign * x for x in fraction_pair(got[0])) == det


def test_roots_known_cases():
    # [DERIVED] (x-1)^2 (x+2)
    roots, rem = roots_in_gaussian_rationals([2, -3, 0, 1])
    assert roots == {scalar(1): 2, scalar(-2): 1}
    assert rem == [scalar(1)]
    # [DERIVED] x^2 + 1 splits over the Gaussian rationals
    roots, rem = roots_in_gaussian_rationals([1, 0, 1])
    assert roots == {scalar("1i"): 1, scalar("-1i"): 1}
    assert rem == [scalar(1)]
    # x^2 - 2 does not
    roots, rem = roots_in_gaussian_rationals([-2, 0, 1])
    assert roots == {}
    assert rem == [scalar(-2), scalar(0), scalar(1)]
    # mixed: (x^2 - 2)(x - 1/2)
    p = poly_mul([-2, 0, 1], lin("1/2"))
    roots, rem = roots_in_gaussian_rationals(p)
    assert roots == {scalar("1/2"): 1}
    assert rem == [scalar(-2), scalar(0), scalar(1)]
    # [DERIVED] x^2 - 2x + 5 = (x - (1+2i))(x - (1-2i))
    roots, rem = roots_in_gaussian_rationals([5, -2, 1])
    assert roots == {scalar("1+2i"): 1, scalar("1-2i"): 1}
    # [DERIVED] (x - i)^2 = x^2 - 2i x - 1
    roots, rem = roots_in_gaussian_rationals([-1, "-2i", 1])
    assert roots == {scalar("1i"): 2}
    # pure zero roots
    roots, rem = roots_in_gaussian_rationals([0, 0, 0, 1])
    assert roots == {scalar(0): 3}
    assert rem == [scalar(1)]
    # (x^2 + x + 1)(x - 2): cube-root-of-unity factor stays unresolved
    p = poly_mul([1, 1, 1], lin(2))
    roots, rem = roots_in_gaussian_rationals(p)
    assert roots == {scalar(2): 1}
    assert rem == [scalar(1), scalar(1), scalar(1)]


def test_roots_reconstruct_random_products():
    pool = ["0", "1", "-1", "2", "1/2", "1i", "-1i", "1+1i", "3/2", "-2/3", "2i"]
    rng = random.Random(23)
    for _ in range(25):
        chosen = {}
        deg = 0
        while deg < 2:
            for r in rng.sample(pool, rng.randrange(1, 4)):
                m = rng.randrange(1, 3)
                chosen[scalar(r)] = chosen.get(scalar(r), 0) + m
                deg += m
        p = [scalar(rng.choice(["3", "1/2", "1i"]))]
        for r, m in chosen.items():
            for _ in range(m):
                p = poly_mul(p, lin(r))
        roots, rem = roots_in_gaussian_rationals(p)
        assert roots == chosen
        assert rem == [scalar(1)]


def test_gaussian_integer_divisors():
    def norms(z):
        return sorted(
            int(sum(x * x for x in fraction_pair(d))) for d in gaussian_integer_divisors(z)
        )

    assert norms((1, 0)) == [1]
    # [DERIVED] 5 = (2+i)(2-i): divisors up to units are 1, 2+i, 2-i, 5
    assert norms((5, 0)) == [1, 5, 5, 25]
    vals = {fraction_pair(d) for d in gaussian_integer_divisors((5, 0))}
    assert (2, 1) in vals and (2, -1) in vals
    # [DERIVED] 2i = i (1+i)^2: three divisors up to units
    assert norms((0, 2)) == [1, 2, 4]
    # [DERIVED] 3 is inert: divisors 1 and 3
    assert norms((3, 0)) == [1, 9]
    # [DERIVED] 12 = unit * (1+i)^4 * 3, so 5 * 2 = 10 divisor classes
    assert len(gaussian_integer_divisors((12, 0))) == 10


def test_internal_failures_raise_internal_inconsistency(monkeypatch):
    # 21 = 1 mod 4 is not prime and -1 is no square mod 3, so no root exists
    with pytest.raises(InternalInconsistency, match="no sqrt"):
        sqrt_minus_one_mod(21)
    monkeypatch.setattr(smalg.polyroots, "poly_gcd", lambda a, b: lin(5))
    with pytest.raises(InternalInconsistency, match="gcd does not divide"):
        squarefree_part(poly_mul(lin(1), lin(1)))


# --- the p-adic root search against the divisor search --------------------------

# roots 1 and 6 differ by 5, and 1 and 3+1i by 2+1i, a prime over 5: the
# first split prime then divides the discriminant
ROOTS = ["0", "1", "-1", "2", "6", "1/2", "-3/4", "1i", "-1i", "3+1i", "2-3i",
         "5/3+1/2i", "-7/2i", "12"]
# x^2 - 2, x^2 + x + 1 and (x^2 - 2)^2 have no roots; x^2 + 1 splits
COFACTORS = [[1], [-2, 0, 1], [1, 1, 1], [4, 0, -4, 0, 1], [1, 0, 1]]
LEADS = ["1", "-1", "2", "-1/3", "2+1i", "3/5i"]


@st.composite
def root_products(draw):
    """lead * cofactor * prod (x - r) over drawn roots, repeats allowed."""
    p = [scalar(draw(st.sampled_from(LEADS)))]
    p = poly_mul(p, [scalar(c) for c in draw(st.sampled_from(COFACTORS))])
    for r in draw(st.lists(st.sampled_from(ROOTS), max_size=5)):
        p = poly_mul(p, lin(r))
    return p


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    root_products(),
    st.lists(st.sampled_from(["0", "1", "-2", "3", "1/2", "1i", "-2+1i"]), min_size=2,
             max_size=6).filter(lambda cs: cs[-1] != "0"),
))
@example([scalar(c) for c in ["-6", "7", "1"]])  # (x - 1)(x - 6)
@example(poly_mul(poly_mul(lin(1), lin(1)), lin("3+1i")))
def test_roots_match_the_divisor_search(p):
    assert roots_in_gaussian_rationals(p) == divisor_roots_in_gaussian_rationals(p)


def test_roots_of_a_large_prime_spectrum():
    # the divisor search would trial-divide a norm near 1e36 here
    p, q = 999999937, 1000000007
    r = scalar(f"123456789/7+{q}i")
    poly = poly_mul(poly_mul(poly_mul(lin(p), lin(q)), lin(r)), [-2, 0, 1])
    roots, rem = roots_in_gaussian_rationals(poly_scale(poly, "3/4"))
    assert roots == {scalar(p): 1, scalar(q): 1, r: 1}
    assert rem == [scalar(-2), scalar(0), scalar(1)]
