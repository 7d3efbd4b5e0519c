"""Exact polynomial arithmetic over the Gaussian rationals and root finding.

Polynomials are lists of coefficients in ascending degree order. The
characteristic polynomial runs on a matrix's integer numerators. A
polynomial is evaluated at a matrix by Horner's rule from the leading
coefficient, one product per degree: this is how the diagonalizer's one
diagonalizability test applies a squarefree polynomial. Root
finding scales a monic polynomial to one with Gaussian-integer
coefficients, whose roots in the field are Gaussian integers. It finds
them modulo a prime p = 1 (mod 4), where Z[i] maps onto Z/p in two ways,
lifts them p-adically past a root bound, combines the two images and keeps
each candidate that is an exact root (Loos, "Computing rational zeros of
integral polynomials by p-adic expansion", SIAM J. Comput. 12, 1983). No
integer is factored. What remains after deflation is a factor with no
roots in the field.
"""

from __future__ import annotations

from math import isqrt, lcm

from .errors import DimensionMismatch, InternalInconsistency
from .exactnum import (
    DenseMatrix,
    GaussianRational,
    ONE,
    ZERO,
    _rows_times,
    _sparse_rows,
    scalar,
)


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


def poly_mul(cs, ds):
    """Product of two polynomials."""
    out = [ZERO] * (len(cs) + len(ds) - 1)
    for a, c in enumerate(cs):
        for b, d in enumerate(ds):
            out[a + b] = out[a + b] + c * d
    return poly_trim(out)


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
    """Evaluate the polynomial at a square matrix (Horner, from the leading
    coefficient): degree k costs k products."""
    cs = poly_trim(cs) or [ZERO]
    ident = DenseMatrix.identity(a.rows)
    acc = ident.scale(cs[-1])
    for c in reversed(cs[:-1]):
        acc = acc * a + ident.scale(c)
    return acc


def charpoly(a: DenseMatrix):
    """Characteristic polynomial det(tI - A), monic, ascending coefficients.

    Faddeev-LeVerrier on the integer numerators N of A = N / d: with
    M_1 = I, c_{n-k} = -tr(M_k N) / k and M_{k+1} = M_k N + c_{n-k} I. The
    c are the coefficients of det(tI - N), Gaussian integers, so each
    division by k is exact; the coefficient of t^{n-k} for A is
    c_{n-k} / d^k.
    """
    n = a.rows
    if a.cols != n:
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
    coeffs = [ONE] * (n + 1)
    re_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    im_rows = [[0] * n for _ in range(n)]
    factor = _sparse_rows(a)
    d = factor[-1]
    for k in range(1, n + 1):
        re_rows, im_rows = _rows_times(re_rows, im_rows, factor)
        cr = -sum(row[i] for i, row in enumerate(re_rows)) // k
        ci = -sum(row[i] for i, row in enumerate(im_rows)) // k
        coeffs[n - k] = GaussianRational(cr, ci) / d**k
        if k < n:
            for i in range(n):
                re_rows[i][i] += cr
                im_rows[i][i] += ci
    return coeffs


# --- roots modulo split primes ------------------------------------------------
#
# A polynomial with Gaussian-integer coefficients is a list of (re, im) int
# pairs; its image modulo a prime is a list of ints.


def _split_primes():
    """The primes p = 1 (mod 4) in increasing order, each with a square
    root c of -1 modulo p: i -> c and i -> -c are the two maps of Z[i]
    onto Z/p."""
    p = 1
    while True:
        p += 4
        if any(p % t == 0 for t in range(3, isqrt(p) + 1, 2)):
            continue
        # x^((p-1)/4) squares to x^((p-1)/2) = -1 for a non-residue x
        for x in range(2, p):
            c = pow(x, (p - 1) // 4, p)
            if c * c % p == p - 1:
                yield p, c
                break


def _image(g, c: int, q: int) -> list:
    """g under i -> c, modulo q."""
    return [(a + b * c) % q for a, b in g]


def _eval_mod(f, x: int, q: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % q
    return acc


def _rem_mod(a, b, p: int) -> list:
    """The remainder of a by b modulo the prime p; b has a nonzero leading
    coefficient."""
    a = list(a)
    top = len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - 1, top - 1, -1):
        f = a[k] * inv % p
        if f:
            for t in range(top):
                a[k - top + t] = (a[k - top + t] - f * b[t]) % p
    del a[top:]
    while a and not a[-1]:
        a.pop()
    return a


def _squarefree_mod(f, p: int) -> bool:
    """Whether the monic f is squarefree modulo the prime p: gcd(f, f') = 1."""
    a = f
    b = [k * c % p for k, c in enumerate(f)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, _rem_mod(a, b, p)
    return len(a) == 1


def _lift(f, x: int, p: int, q: int) -> int:
    """The root x of f modulo p, a simple one, lifted to the root modulo
    q = p^k (f taken modulo q) by Newton steps that double the precision."""
    df = [k * c for k, c in enumerate(f)][1:]
    m = p
    while m < q:
        m = min(m * m, q)
        x = (x - _eval_mod(f, x, m) * pow(_eval_mod(df, x, m), -1, m)) % m
    return x


def _splits_squarefree(g, p: int, c: int) -> bool:
    """Whether g stays squarefree modulo p under both i -> c and i -> -c."""
    return _squarefree_mod(_image(g, c, p), p) and _squarefree_mod(_image(g, -c, p), p)


def _candidates(g, p: int, c: int) -> list:
    """Gaussian integers u + vi, as (u, v), among which lie all roots of g.

    g is monic with Gaussian-integer coefficients and squarefree modulo p
    under both i -> c and i -> -c. Every root is below the Cauchy bound
    B = 1 + max |g_k| (k below the degree), so |u|, |v| <= B. The roots of
    both images modulo p are simple; each is lifted to a root modulo
    q = p^k > 8 B^2, and each pair (x, y) of lifted roots gives the one
    u + vi with u + vc = x and u - vc = y modulo q, in the symmetric
    residues. q > 2B already makes a root come out as itself; q > 8B^2
    also keeps the images of two different roots from combining into a
    candidate within the bound (their difference would lie in an ideal of
    norm q), so only images of factors without roots give false
    candidates.
    """
    bound = 1 + max(abs(a) + abs(b) for a, b in g[:-1])
    q = p
    while q <= 8 * bound * bound:
        q *= p
    c = _lift([1, 0, 1], c, p, q)
    lifted = []
    for s in (c, -c):
        f = _image(g, s, q)
        base = [x % p for x in f]
        lifted.append([_lift(f, x, p, q) for x in range(p) if not _eval_mod(base, x, p)])
    half, inv_2c = pow(2, -1, q), pow(2 * c, -1, q)
    out = []
    for x in lifted[0]:
        for y in lifted[1]:
            u = (x + y) * half % q
            v = (x - y) * inv_2c % q
            u = u - q if 2 * u > q else u
            v = v - q if 2 * v > q else v
            if abs(u) <= bound and abs(v) <= bound:
                out.append((u, v))
    return out


def _deflate(g, root):
    """(quotient, remainder) of g by y - root, by synthetic division in Z[i]."""
    u, v = root
    acc_re = acc_im = 0
    out = []
    for a, b in reversed(g):
        acc_re, acc_im = a + acc_re * u - acc_im * v, b + acc_re * v + acc_im * u
        out.append((acc_re, acc_im))
    rem = out.pop()
    out.reverse()
    return out, rem


def _integral(cs, scale: int) -> list:
    """scale^m f(y / scale) for the monic f of degree m, as (re, im) pairs:
    Gaussian integers when scale is a multiple of every denominator."""
    m = len(cs) - 1
    return [(c.p * (scale ** (m - k) // c.d), c.q * (scale ** (m - k) // c.d))
            for k, c in enumerate(cs)]


def roots_in_gaussian_rationals(cs):
    """All roots in the Gaussian rationals, with multiplicities.

    Returns ``(roots, remainder)`` where roots maps each root to its
    multiplicity and remainder is the monic cofactor without roots in the
    field (degree 0 exactly when the polynomial splits).

    Roots at zero come off first. The rest of the monic f, of degree m, is
    scaled to g(y) = L^m f(y / L) for the lcm L of its denominators: monic
    with Gaussian-integer coefficients, so its roots in the field are the
    Gaussian integers L r. The search runs on the first prime p = 1 (mod 4)
    at which the squarefree part of g stays squarefree under both maps of
    Z[i] onto Z/p (see ``_candidates``). That part is g itself when g is
    squarefree modulo the first such prime; otherwise it is taken exactly,
    by one gcd over the field. Only a prime dividing the norm of the
    discriminant of the squarefree part can fail, so at most log_5 of that
    norm primes fail before one serves, and p is at most the next prime
    after them; the roots modulo p are found by trying every residue, at a
    cost of O(m p). Each candidate is confirmed as a root of f with
    ``poly_eval``, and g is deflated by it, in Z[i], as often as it divides.
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
    if len(work) == 1:
        return roots, work
    scale = lcm(*{c.d for c in work})
    g = _integral(work, scale)
    primes = _split_primes()
    p, c = next(primes)
    f = g
    if not _splits_squarefree(f, p, c):
        # a repeated factor, or p divides the discriminant
        f = _integral(squarefree_part(work), scale)
        while not _splits_squarefree(f, p, c):
            p, c = next(primes)
    for u, v in _candidates(f, p, c):
        r = GaussianRational(u, v) / scale
        if poly_eval(work, r):
            continue
        mult = 0
        while len(g) > 1:
            quotient, rem = _deflate(g, (u, v))
            if rem != (0, 0):
                break
            g = quotient
            mult += 1
        roots[r] = mult
    m = len(g) - 1
    return roots, [GaussianRational(a, b) / scale ** (m - k) for k, (a, b) in enumerate(g)]
