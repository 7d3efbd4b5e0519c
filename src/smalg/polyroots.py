"""Exact polynomial arithmetic over the Gaussian rationals and root finding.

Polynomials are lists of coefficients in ascending degree order. Root
finding clears denominators and runs the rational root theorem over the
Gaussian integers, so every Gaussian-rational root is found exactly; what
remains after deflation is a factor with no roots in the field.
"""

from __future__ import annotations

from math import lcm

from .errors import DimensionMismatch, InternalInconsistency
from .exactnum import DenseMatrix, GaussianRational, ONE, ZERO, scalar


def poly_trim(cs):
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    out = [scalar(c) for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def poly_degree(cs) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly_trim(cs)) - 1


def poly_eval(cs, x) -> GaussianRational:
    x = scalar(x)
    acc = ZERO
    for c in reversed(poly_trim(cs)):
        acc = acc * x + c
    return acc


def poly_scale(cs, k):
    k = scalar(k)
    return poly_trim([k * c for c in cs])


def poly_derivative(cs):
    cs = poly_trim(cs)
    return poly_trim([scalar(k) * c for k, c in enumerate(cs)][1:])


def poly_divmod(cs, ds):
    """Quotient and remainder; ``ds`` must be nonzero."""
    num, den = poly_trim(cs), poly_trim(ds)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [], num
    num = list(num)
    lead = den[-1].reciprocal()
    q = [ZERO] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        coeff = num[k + len(den) - 1] * lead
        q[k] = coeff
        if coeff:
            for a, d in enumerate(den):
                num[k + a] = num[k + a] - coeff * d
    return poly_trim(q), poly_trim(num)


def poly_monic(cs):
    cs = poly_trim(cs)
    if not cs:
        return cs
    return poly_scale(cs, cs[-1].reciprocal())


def poly_gcd(cs, ds):
    """Monic greatest common divisor (Euclid over the field)."""
    a, b = poly_trim(cs), poly_trim(ds)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def squarefree_part(cs):
    """The product of the distinct irreducible factors, made monic.

    For a characteristic polynomial this is the candidate minimal
    polynomial of a diagonalizable matrix: the matrix is diagonalizable
    over a splitting field iff this polynomial annihilates it.
    """
    cs = poly_trim(cs)
    if len(cs) <= 1:
        return poly_monic(cs)
    g = poly_gcd(cs, poly_derivative(cs))
    q, r = poly_divmod(cs, g)
    if r:
        raise InternalInconsistency("gcd does not divide its argument")
    return poly_monic(q)


def poly_eval_matrix(cs, a: DenseMatrix) -> DenseMatrix:
    """Evaluate the polynomial at a square matrix (Horner)."""
    n = a.rows
    acc = DenseMatrix.zeros(n, n)
    ident = DenseMatrix.identity(n)
    for c in reversed(poly_trim(cs)):
        acc = acc * a + ident.scale(c)
    return acc


def charpoly(a: DenseMatrix):
    """Characteristic polynomial det(tI - A), monic, ascending coefficients.

    Faddeev-LeVerrier recurrence; the divisions by k are exact in
    characteristic zero.
    """
    n = a.rows
    if a.cols != n:
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
    coeffs = [ZERO] * n + [ONE]
    m = DenseMatrix.identity(n)
    for k in range(1, n + 1):
        am = a * m
        c = -(am.trace() / scalar(k))
        coeffs[n - k] = c
        if k < n:
            m = am + DenseMatrix.identity(n).scale(c)
    return coeffs


# --- Gaussian integer arithmetic on plain int pairs -------------------------


def _gi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_norm(x) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _gi_divmod(x, y):
    """Rounded division making the remainder norm less than the divisor's."""
    n = _gi_norm(y)
    num = _gi_mul(x, (y[0], -y[1]))
    q = (
        (2 * num[0] + n) // (2 * n) if num[0] >= 0 else -((-2 * num[0] + n) // (2 * n)),
        (2 * num[1] + n) // (2 * n) if num[1] >= 0 else -((-2 * num[1] + n) // (2 * n)),
    )
    r = (x[0] - (q[0] * y[0] - q[1] * y[1]), x[1] - (q[0] * y[1] + q[1] * y[0]))
    return q, r


def _gi_gcd(x, y):
    while y != (0, 0):
        _, r = _gi_divmod(x, y)
        x, y = y, r
    return x


def _gi_exact_div(x, y):
    q, r = _gi_divmod(x, y)
    return q if r == (0, 0) else None


def _factor_int(n: int):
    """Prime factorization of a positive integer by trial division."""
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_minus_one_mod(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 mod 4."""
    for x in range(2, p):
        c = pow(x, (p - 1) // 4, p)
        if (c * c) % p == p - 1:
            return c
    raise InternalInconsistency(f"no sqrt(-1) mod {p}")


def _gaussian_prime_factors(z):
    """Gaussian prime factorization of a nonzero Gaussian integer, as a
    dict prime -> exponent with primes taken up to unit multiples."""
    if z == (0, 0):
        raise ZeroDivisionError("factorization of zero")
    factors = {}
    for p, _ in _factor_int(_gi_norm(z)).items():
        if p == 2:
            primes = [(1, 1)]
        elif p % 4 == 3:
            primes = [(p, 0)]
        else:
            c = _sqrt_minus_one_mod(p)
            pi = _gi_gcd((p, 0), (c, 1))
            primes = [pi, (pi[0], -pi[1])]
        for pi in primes:
            e = 0
            w = z
            while True:
                q = _gi_exact_div(w, pi)
                if q is None:
                    break
                w = q
                e += 1
            if e:
                factors[pi] = e
    return factors


def gaussian_integer_divisors(z):
    """All divisors of a nonzero Gaussian integer up to unit multiples,
    as GaussianRational values."""
    divs = [(1, 0)]
    for pi, e in _gaussian_prime_factors(z).items():
        grown = []
        power = (1, 0)
        for _ in range(e + 1):
            grown.extend(_gi_mul(d, power) for d in divs)
            power = _gi_mul(power, pi)
        divs = grown
    return [GaussianRational(a, b) for (a, b) in divs]


_UNITS = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
)


def _clear_denominators(cs):
    """Scale a polynomial to Gaussian-integer coefficients, as int pairs."""
    m = lcm(*{c.d for c in cs})
    return [(c.p * (m // c.d), c.q * (m // c.d)) for c in cs]


def roots_in_gaussian_rationals(cs):
    """All roots in the Gaussian rationals, with multiplicities.

    Returns ``(roots, remainder)`` where roots maps each root to its
    multiplicity and remainder is the monic cofactor without roots in the
    field (degree 0 exactly when the polynomial splits).
    """
    work = poly_monic(cs)
    if not work:
        raise ZeroDivisionError("the zero polynomial has every root")
    roots = {}
    # roots at zero come off as a power of the variable
    nz = 0
    while nz < len(work) and not work[nz]:
        nz += 1
    if nz:
        roots[ZERO] = nz
        work = work[nz:]
    while len(work) > 1:
        ints = _clear_denominators(work)
        candidates = set()
        for u in gaussian_integer_divisors(ints[0]):
            for v in gaussian_integer_divisors(ints[-1]):
                base = u / v
                for unit in _UNITS:
                    candidates.add(unit * base)
        hit = None
        for r in sorted(candidates, key=GaussianRational.sort_key):
            if not poly_eval(work, r):
                hit = r
                break
        if hit is None:
            break
        mult = 0
        while True:
            q, rem = poly_divmod(work, [-hit, ONE])
            if rem:
                break
            work = q
            mult += 1
            if len(work) == 1 or poly_eval(work, hit):
                break
        roots[hit] = roots.get(hit, 0) + mult
    return roots, poly_monic(work)
