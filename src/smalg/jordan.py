"""Jordan homomorphisms of structural matrix algebras.

A linear map out of the algebra (``LinearMapOnSMA``) is stored by its
images on the matrix-unit basis, as the nonzero integer numerators of each
image over one denominator for them all. That format is this module's
alone: every check below reads those lists, in the frame of a similarity
(``UnitFrame``) or through the map's own reads, and the normalization
phi(I)^-1 phi of the rank preservers is one product with the images side by
side as one matrix, whose nonzeros are read back image by image.
Classification factors a nonvanishing Jordan homomorphism into
conjugation, a central idempotent
splitting multiplicative from antimultiplicative behavior, and a transitive
weight map. Each unit image of such a map is one scaled outer product
g c_a r_b of a column of the similarity and a row of its inverse, so the
first nonzero entry of an image fixes its orientation (a, b) and g, and
one exact pass compares every image with its term once. The pass stops
at the first check a map fails and names it there, by a pair of units at
which the Jordan identity breaks (see ``classify_jordan``). That pass is
the one verification of a Jordan verdict: the form in a codomain
(``classify_into_codomain``) and the rank preservers' form of
weight one are exact rescalings and relabelings of the form it proved,
and synthesis runs it once on the map it builds, in the frame of the
similarity it was given. Embedding questions between two algebras reduce
to a finite search over class unions and increasing permutations, and a
witness (u, pi) is proved by pi sending every pair of rho_U into the
codomain.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, compress, count
from math import gcd, lcm

from .diag import simultaneous_diagonalize_in_sma
from .errors import (
    DimensionMismatch,
    FormatError,
    InternalInconsistency,
    NotJordan,
    NotTransitive,
    Singular,
    SupportViolation,
    VanishingUnitImage,
)
from .exactnum import (
    DenseMatrix,
    GaussianRational,
    ONE,
    ZERO,
    _new,
    _nonzero_positions,
    _quotient,
    _reduced,
    _reduced_scalar,
    _scalar,
    _scalar_over,
    inverse,
    permutation_matrix,
    scalar,
)
from .quasiorder import (
    MAX_VERTICES,
    QuasiOrder,
    approx_classes,
    automorphisms_fix_two_sided_classes,
    class_union,
    first_unsupported,
    from_edges,
    increasing_permutations,
    rho_U,
)
from .tokens import convert, names, parse_int, strip_comments, token_lines
from .transmap import TransitiveMap, all_transitive_trivial, validate


class LinearMapOnSMA:
    """Linear map out of A_rho, stored by its matrix-unit images.

    ``units`` is ``rho.pairs()``, and image t is the image of unit
    ``units[t]``. ``d`` is one denominator over all the images, and
    ``nonzeros[t]`` lists the nonzero numerators of image t over it, as
    (row-major position, re, im) in position order, in lowest terms over
    the whole map. They are found once, when the map is built, so each read
    below takes time in the nonzeros of the images it reads. ``matrix``,
    the images side by side as one n x (n |rho|) matrix
    [phi(E_p1) | phi(E_p2) | ...], is built on its first read and kept. The
    constructor takes the images as a dict of n x n matrices;
    ``unit_images`` builds that dict again.
    """

    __slots__ = ("rho", "units", "d", "nonzeros", "_index", "_matrix")

    def __init__(self, rho: QuasiOrder, images):
        imgs = dict(images)
        units = rho.pairs()
        expected = set(units)
        given = set(imgs)
        missing = sorted(expected - given)
        if missing:
            raise SupportViolation(
                f"no image given for unit {missing[0]}", pair=missing[0]
            )
        extra = sorted(given - expected)
        if extra:
            raise SupportViolation(
                f"image given for {extra[0]} outside the relation", pair=extra[0]
            )
        n = rho.n
        for pair, m in imgs.items():
            if not isinstance(m, DenseMatrix) or m.shape != (n, n):
                raise DimensionMismatch(
                    f"image of {pair} must be a {n}x{n} matrix"
                )
        entries = []
        for p in units:
            ks = list(_nonzero_positions(imgs[p]))
            entries.append(zip(ks, imgs[p]._scalars(ks)))
        self._fill(rho, units, *_over_one_denominator(entries))

    @classmethod
    def _from_entries(cls, rho: QuasiOrder, units: list, entries) -> "LinearMapOnSMA":
        """The map whose image t has the entries entries[t], (row-major
        position, scalar) pairs in position order; every other entry is
        zero. ``units`` must be ``rho.pairs()``. Trusted, not checked."""
        return cls._of(rho, units, *_over_one_denominator(entries))

    @classmethod
    def _of(cls, rho: QuasiOrder, units: list, d: int, nonzeros: list) -> "LinearMapOnSMA":
        """The map whose images have these nonzero numerators over d, in
        lowest terms; ``units`` must be ``rho.pairs()``. Trusted, not
        checked."""
        phi = object.__new__(cls)
        phi._fill(rho, units, d, nonzeros)
        return phi

    def _fill(self, rho, units, d, nonzeros):
        self.rho = rho
        self.units = units
        self.d = d
        self.nonzeros = nonzeros
        self._index = {p: t for t, p in enumerate(units)}
        self._matrix = None

    @property
    def matrix(self) -> DenseMatrix:
        """The images side by side, one n x (n |rho|) matrix."""
        if self._matrix is None:
            self._matrix = _side_by_side(self.rho.n, self.d, self.nonzeros)
        return self._matrix

    def block(self, t: int) -> DenseMatrix:
        """Image t as a matrix of its own."""
        return self.combination(((ONE, t),))

    def combination(self, terms) -> DenseMatrix:
        """The n x n sum of c * (image t) over the (scalar c, image index t)
        terms, accumulated over one common denominator and reduced once."""
        terms = [(scalar(c), t) for c, t in terms]
        dc = lcm(*{c.d for c, _ in terms})
        n = self.rho.n
        re, im = [0] * (n * n), [0] * (n * n)
        for c, t in terms:
            f = dc // c.d
            p, q = f * c.p, f * c.q
            for pos, a, b in self.nonzeros[t]:
                re[pos] += p * a - q * b
                im[pos] += p * b + q * a
        return _reduced(n, n, dc * self.d, re, im)

    def literals(self, t: int) -> list:
        """The literals of the n*n entries of image t, row-major."""
        n, d = self.rho.n, self.d
        out = ["0"] * (n * n)
        for pos, a, b in self.nonzeros[t]:
            out[pos] = _reduced_scalar(a, b, d).literal()
        return out

    def unit_images(self) -> dict:
        """The image of each unit as a matrix of its own, built on demand."""
        return {p: self.block(t) for t, p in enumerate(self.units)}

    def left_multiplied(self, m: DenseMatrix) -> "LinearMapOnSMA":
        """The map X -> m phi(X): one product of m with the images side by
        side, whose nonzeros are read off image by image."""
        n = self.rho.n
        if m.shape != (n, n):
            raise DimensionMismatch(f"a {m.shape} matrix cannot multiply {n}x{n} images")
        product = m * self.matrix
        width = product.cols
        re, im = product._re, product._im
        nonzeros = [[] for _ in self.units]
        for k in _nonzero_positions(product):
            r, col = divmod(k, width)
            t, c = divmod(col, n)
            nonzeros[t].append((r * n + c, re[k], im[k]))
        return LinearMapOnSMA._of(self.rho, self.units, product._d, nonzeros)

    def __eq__(self, other):
        if not isinstance(other, LinearMapOnSMA):
            return NotImplemented
        return (
            self.rho == other.rho
            and self.d == other.d
            and self.nonzeros == other.nonzeros
        )

    def __repr__(self):
        return f"LinearMapOnSMA(n={self.rho.n}, units={len(self.units)})"


def _over_one_denominator(entries) -> tuple:
    """(d, nonzeros): the (row-major position, scalar) pairs of each image
    as nonzero numerators over the lcm d of the scalars' denominators,
    which leaves them in lowest terms."""
    entries = [list(image) for image in entries]
    d = lcm(*{v.d for image in entries for _, v in image})
    return d, [
        [(pos, v.p * (d // v.d), v.q * (d // v.d)) for pos, v in image if v]
        for image in entries
    ]


def _side_by_side(n: int, d: int, nonzeros: list) -> DenseMatrix:
    """The n x n images with these nonzero numerators over d, in lowest
    terms, side by side as one n x (n k) matrix."""
    width = n * len(nonzeros)
    re, im = [0] * (n * width), [0] * (n * width)
    for t, image in enumerate(nonzeros):
        base = t * n
        for pos, a, b in image:
            r, c = divmod(pos, n)
            k = r * width + base + c
            re[k] = a
            im[k] = b
    return _new(n, width, d, tuple(re), tuple(im))


def apply(phi: LinearMapOnSMA, x: DenseMatrix) -> DenseMatrix:
    """Linear extension of the unit images to a supported matrix."""
    n = phi.rho.n
    if x.shape != (n, n):
        raise DimensionMismatch(f"argument shape {x.shape}, expected {n}x{n}")
    bad = first_unsupported(_nonzero_positions(x), phi.rho)
    if bad is not None:
        raise SupportViolation(
            f"argument has entry at {bad} outside the relation", pair=bad
        )
    index = phi._index
    return phi.combination((x.at(*p), index[p]) for p in x.support())


# --- unit frames ----------------------------------------------------------------


class UnitFrame:
    """The columns c_a of an invertible S and the rows r_b of S^-1, for
    matrices of the form sum g c_a r_b.

    Conjugation by S sends the unit E_ab to the outer product c_a r_b, so
    every unit image of a Jordan homomorphism in canonical form is one
    scaled outer product. The frame keeps the nonzero integer numerators of
    each c_a and each r_b; its operations read image t of a map through its
    nonzeros and take time in the nonzeros of the images and terms they are
    given, and form no matrix product. A term is a triple (g, a, b), the
    matrix g c_a r_b, with 1-based a and b. ``s_inv`` must be the inverse of
    ``s``; the frame trusts it.
    """

    __slots__ = ("n", "_cols", "_rows", "_col_parts", "_row_parts", "_d")

    def __init__(self, s: DenseMatrix, s_inv: DenseMatrix):
        n = s.rows
        if s.shape != (n, n) or s_inv.shape != (n, n):
            raise DimensionMismatch("a unit frame needs two square matrices of one size")
        self.n = n
        sre, sim, tre, tim = s._re, s._im, s_inv._re, s_inv._im
        # dense numerators: column a of S over s._d, row b of S^-1 over s_inv._d
        self._col_parts = [(sre[a::n], sim[a::n]) for a in range(n)]
        self._row_parts = [
            (tre[b * n : (b + 1) * n], tim[b * n : (b + 1) * n]) for b in range(n)
        ]
        self._cols = [
            [(k, x, y) for k, (x, y) in enumerate(zip(*part)) if x or y]
            for part in self._col_parts
        ]
        self._rows = [
            [(k, x, y) for k, (x, y) in enumerate(zip(*part)) if x or y]
            for part in self._row_parts
        ]
        # the denominator of every outer product c_a r_b
        self._d = s._d * s_inv._d

    def _check(self, phi: LinearMapOnSMA):
        if phi.rho.n != self.n:
            raise DimensionMismatch(f"images of size {phi.rho.n}, frame size {self.n}")

    def coordinate(self, phi: LinearMapOnSMA, t: int, a: int, b: int) -> GaussianRational:
        """r_a X c_b, the entry (a, b) of S^-1 X S for image X = phi's image
        t, summed over the nonzero entries of X."""
        self._check(phi)
        n = self.n
        xr, xi = self._row_parts[a - 1]
        yr, yi = self._col_parts[b - 1]
        tr = ti = 0
        for pos, p, q in phi.nonzeros[t]:
            k, l = divmod(pos, n)
            u, v = xr[k], xi[k]
            w, z = yr[l], yi[l]
            if (u or v) and (w or z):
                # (u + v i)(p + q i)(w + z i)
                f, h = u * p - v * q, u * q + v * p
                tr += f * w - h * z
                ti += f * z + h * w
        return _scalar_over(tr, ti, self._d * phi.d)

    def propose(self, phi: LinearMapOnSMA, t: int, i: int, j: int):
        """The term (g, a, b), with (a, b) = (i, j) or (j, i) for i != j,
        that image t of phi equals if it is one scaled outer product
        g c_a r_b of either orientation; None when neither fits. Image t must
        be nonzero.

        The first nonzero entry of g c_a r_b, in row-major order, lies in
        the row of the first nonzero of c_a and the column of the first
        nonzero of r_b. When that position tells the two orientations apart,
        the one that leads where image t leads is proposed, and one division
        of the leading entries gives g. When both lead there, g is the
        coordinate of the one orientation with a nonzero coordinate: image
        t = g c_i r_j has coordinate g at (i, j) and r_j (g c_i r_j) c_i = 0
        at (j, i), as r_j c_i = 0. A proposal proves nothing; ``matches``
        decides it.
        """
        self._check(phi)
        pos, p, q = phi.nonzeros[t][0]
        fits = []
        for a, b in ((i, j), (j, i)):
            at, lead = self._lead(a, b)
            if at == pos:
                fits.append((a, b, lead))
        if len(fits) == 2:
            alpha = self.coordinate(phi, t, i, j)
            beta = self.coordinate(phi, t, j, i)
            if alpha and not beta:
                return alpha, i, j
            if beta and not alpha:
                return beta, j, i
            return None
        if not fits:
            return None
        [(a, b, (x, y))] = fits
        # the image's (p + q i) / e over the outer product's (x + y i) / d
        d = self._d
        return _quotient(_scalar(p * d, q * d, phi.d), _scalar(x, y, 1)), a, b

    def _lead(self, a: int, b: int):
        """The row-major position of the first nonzero entry of c_a r_b, and
        its numerator (re, im)."""
        k, x, y = self._cols[a - 1][0]
        l, u, v = self._rows[b - 1][0]
        return k * self.n + l, (x * u - y * v, x * v + y * u)

    def _sum(self, terms):
        """The nonzero numerators of sum g c_a r_b over nonzero scalars g as
        (0-based row-major position, re, im) in position order, and their
        common denominator. One term needs no merging: its outer product
        comes out in position order, and every entry is a product of nonzero
        Gaussian integers."""
        dg = lcm(*{g.d for g, _, _ in terms})
        n = self.n
        out = []
        for g, a, b in terms:
            f = dg // g.d
            gp, gq = f * g.p, f * g.q
            row = self._rows[b - 1]
            for k, u, v in self._cols[a - 1]:
                xr, xi = gp * u - gq * v, gp * v + gq * u
                base = k * n
                out += [(base + l, xr * p - xi * q, xr * q + xi * p) for l, p, q in row]
        if len(terms) > 1:
            acc = {}
            for pos, x, y in out:
                old = acc.get(pos)
                acc[pos] = (x, y) if old is None else (old[0] + x, old[1] + y)
            out = sorted((pos, x, y) for pos, (x, y) in acc.items() if x or y)
        return out, dg * self._d

    def matches(self, phi: LinearMapOnSMA, t: int, terms) -> bool:
        """Whether image t of phi equals the sum of the terms, decided by
        cross-multiplying numerators: the sum's nonzero entries must be the
        image's, at the same positions.

        One term g c_a r_b is streamed: its |c_a| |r_b| entries, all
        nonzero and in position order, must be as many as the image's
        nonzeros, and are compared with them one by one up to the first
        that differs."""
        self._check(phi)
        terms = _nonzero_terms(terms)
        mine = phi.nonzeros[t]
        e = phi.d
        if len(terms) != 1:
            got, d = self._sum(terms)
            if len(got) != len(mine):
                return False
            # the image (a + i b) / e against the sum (x + i y) / d
            return [(pos, x * e, y * e) for pos, x, y in got] == [
                (pos, a * d, b * d) for pos, a, b in mine
            ]
        [(g, a, b)] = terms
        col, row = self._cols[a - 1], self._rows[b - 1]
        if len(col) * len(row) != len(mine):
            return False
        d = g.d * self._d
        gp, gq = e * g.p, e * g.q
        n = self.n
        entries = iter(mine)
        for k, u, v in col:
            xr, xi = gp * u - gq * v, gp * v + gq * u
            base = k * n
            for l, p, q in row:
                pos, re, im = next(entries)
                if (
                    pos != base + l
                    or re * d != xr * p - xi * q
                    or im * d != xr * q + xi * p
                ):
                    return False
        return True

    def block_row(self, term_lists) -> tuple:
        """(d, nonzeros) as a map holds them, for the images whose image t
        is the sum g c_a r_b over term_lists[t]: one common denominator,
        reduced once."""
        sums = [self._sum(_nonzero_terms(terms)) for terms in term_lists]
        d = lcm(*{e for _, e in sums})
        nonzeros = []
        for entries, e in sums:
            f = d // e
            nonzeros.append([(pos, f * x, f * y) for pos, x, y in entries])
        if d != 1:
            g = gcd(d, *(x for entries in nonzeros for _, a, b in entries for x in (a, b)))
            if g != 1:
                d //= g
                nonzeros = [
                    [(pos, a // g, b // g) for pos, a, b in entries] for entries in nonzeros
                ]
        return d, nonzeros


def _nonzero_terms(terms) -> list:
    """The terms (g, a, b) with g made a scalar, less those with g = 0."""
    terms = [(scalar(g), a, b) for g, a, b in terms]
    return [term for term in terms if term[0]]


class CanonicalJordanForm:
    """Factorization of a Jordan homomorphism.

    ``s`` conjugates, ``u`` is the class union carrying the multiplicative
    part (the central idempotent has 1 exactly on u), ``g`` scales, and
    ``pi`` (when present) relabels into a codomain algebra before
    conjugation. ``s_inv`` is the inverse of ``s``, given by the code that
    made the form whenever it has it, so that no form is inverted twice;
    left out, it is computed when the form is rebuilt. It is trusted, not
    checked, and takes no part in comparisons.
    """

    __slots__ = ("s", "u", "g", "pi", "s_inv")

    def __init__(self, s: DenseMatrix, u: frozenset, g: TransitiveMap, pi=None, s_inv=None):
        self.s = s
        self.u = u
        self.g = g
        self.pi = pi
        self.s_inv = s_inv

    def _key(self) -> tuple:
        return self.s, self.u, self.g, self.pi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "CanonicalJordanForm(s={!r}, u={!r}, g={!r}, pi={!r})".format(*self._key())

    @property
    def rho(self) -> QuasiOrder:
        return self.g.rho

    def _frame(self) -> UnitFrame:
        """The columns of S and the rows of S^-1; inverts S (Singular
        propagates) unless ``s_inv`` is set."""
        return UnitFrame(self.s, inverse(self.s) if self.s_inv is None else self.s_inv)

    def _term(self, i: int, j: int):
        """The image of E_ij as a frame term (g(i, j), a, b), the matrix
        S (g(i, j) E_ab) S^-1: E_ab is E_ij, transposed outside u and
        relabeled by pi."""
        a, b = (i, j) if i == j or i in self.u else (j, i)
        if self.pi is not None:
            a, b = self.pi[a - 1], self.pi[b - 1]
        return self.g.value(i, j), a, b

    def unit_image(self, i: int, j: int) -> DenseMatrix:
        if (i, j) not in self.rho:
            raise SupportViolation(f"({i},{j}) is not in the relation", pair=(i, j))
        return _side_by_side(self.rho.n, *self._frame().block_row([(self._term(i, j),)]))

    def reconstruct(self) -> LinearMapOnSMA:
        units = self.rho.pairs()
        d, nonzeros = self._frame().block_row((self._term(*p),) for p in units)
        return LinearMapOnSMA._of(self.rho, units, d, nonzeros)


def classify_jordan(phi: LinearMapOnSMA) -> CanonicalJordanForm:
    """Factor a nonvanishing Jordan homomorphism into canonical parameters.

    Every step runs in one frame (``UnitFrame``) of an S0 and its inverse,
    inverted once: column k of S0 is c_k, the first nonzero column of
    q_k = phi(E_kk) scaled to lead with 1, and r_k is row k of S0^-1. A
    Jordan map in canonical form sends E_kk to c_k r_k and the strict unit
    E_ij to one scaled outer product g c_a r_b, with (a, b) = (i, j) on the
    multiplicative part and (j, i) on the antimultiplicative part. So each
    image is compared once with its term in the frame: the diagonal images
    first, as their terms c_k r_k hold for every form, then the strict
    ones in one walk, in unit order, each with the term its first nonzero
    entry proposes (``UnitFrame.propose``, which fixes (a, b) and g). The
    first image that fails is named on the spot. Then no connectivity
    class may hold pairs of both orientations, and the weights must be
    transitive (``validate``). The form is S0, the union u of the classes
    with a multiplicative pair, and those weights; its terms are the ones
    the walk compared, as each class holds one orientation and ``validate``
    keeps the weights it is given.

    Per image, the walk agrees with the verification ladder it replaced.
    The ladder accepted a strict image when S0^-1 phi(E_ij) S0 lay in
    span(E_ij, E_ji), its coordinates alpha = r_i phi(E_ij) c_j and
    beta = r_j phi(E_ij) c_i not both nonzero; as S0 is invertible and the
    image is not zero, that is phi(E_ij) = g c_a r_b for one orientation
    (a, b), with g the nonzero coordinate. That holds exactly when
    ``propose`` returns that term and ``matches`` accepts it: the term
    leads where c_a r_b leads, and when both orientations lead there its
    coordinate at (b, a) is 0, as r_b c_a = 0, so ``propose`` returns it,
    and ``matches`` decides equality. So the first failing image, the class
    verdict and the transitivity witness are the ladder's, and every map
    the ladder accepted gets the same form.

    Per named pair, every NotJordan names a unit pair (X, Y) with
    phi(X) phi(Y) + phi(Y) phi(X) != phi(XY + YX). The diagonal pairs:
    ((k,k),(k,k)) fails when q_k^2 != q_k, and ((k,k),(l,l)) when
    q_k q_l + q_l q_k != 0. With the diagonal images equal to c_k r_k,
    conjugation by S0 sends them to the E_kk; write
    X = S0^-1 phi(E_ij) S0 for a strict unit.

    - The pair ((i,i),(i,j)), with E_ii E_ij + E_ij E_ii = E_ij, holds
      exactly when E_ii X + X E_ii = X: X vanishes outside row i and
      column i, and at (i, i). The same holds for j. Both hold exactly
      when X lies in span(E_ij, E_ji), so for an image that leaves the
      span one of the two pairs fails: ((i,i),(i,j)) when
      q_i phi(E_ij) + phi(E_ij) q_i != phi(E_ij), else ((j,j),(i,j)).
    - An image in the span with both coordinates nonzero has
      X^2 = alpha beta (E_ii + E_jj) != 0, and 2 E_ij^2 = 0: the pair
      ((i,j),(i,j)) fails.
    - A multiplicative unit E_ij, X = g E_ij, and an antimultiplicative
      unit E_kl, Y = h E_lk, that share a vertex always violate the
      identity. With j != l and i != k there are four cases: k = i gives
      E_ij E_il + E_il E_ij = 0 against XY + YX = gh E_lj; l = j gives 0
      against gh E_ik; k = j gives E_il, whose image is nonzero, against 0;
      l = i gives E_kj against 0. The mutual pair (i, j), (j, i) gives
      E_ii + E_jj, whose image c_i r_i + c_j r_j is nonzero, against
      2 gh E_ij^2 = 0. A class that holds both kinds has such a pair: its
      strict pairs, as edges, form a connected graph, and the line graph
      of a connected graph is connected, so edges of the two kinds meet at
      a vertex. The least such (multiplicative, antimultiplicative) pair,
      in lexicographic order, is named.
    - The transitivity witness ((i,j),(j,k)) lies in a class of one
      orientation. Conjugated, E_ij E_jk + E_jk E_ij is E_ik for i != k,
      whose image is g(i,k) E_ik or g(i,k) E_ki, against
      g(i,j) g(j,k) times the same unit; for k = i it is E_ii + E_jj
      against g(i,j) g(j,i) (E_ii + E_jj).

    The diagonal pass alone needs no dense product: q_k == c_k r_k for
    every k holds exactly when the q_k are orthogonal idempotents
    (q_k q_l + q_l q_k = 0 for k != l), with S0 invertible:

    - If q_k = c_k r_k for all k, then r_k c_l = delta_kl, as S0^-1 S0 = I,
      gives q_k q_l = c_k (r_k c_l) r_l = delta_kl q_k.
    - Conversely, anticommuting idempotents multiply to zero: multiplying
      q_k q_l + q_l q_k = 0 by q_k on the left, and on the right, gives
      q_k q_l = -q_k q_l q_k = q_l q_k, so 2 q_k q_l = 0. In characteristic
      0 an idempotent's rank is its trace, so the ranks of the n nonzero
      q_k add up to the rank of their idempotent sum, at most n: each has
      rank one and their sum is I. As c_l lies in the range of q_l,
      q_k c_l = delta_kl c_l, so q_k S0 = c_k e_k^T. Applying q_k to a
      relation sum_l a_l c_l = 0 leaves a_k c_k = 0, so the c_k are
      independent, S0 is invertible and q_k = c_k e_k^T S0^-1 = c_k r_k.

    So the dense checks (each q_k squared, then each pair) run only when S0
    is singular or the frame check fails, to name the first failure; they
    cannot all pass then. No step forms an n x n by n x n product unless a
    check fails.
    """
    s0 = _leading_columns(phi)
    try:
        s0inv = inverse(s0)
    except Singular:
        s0inv = None
    return _verified_form(phi, s0, s0inv)


def _leading_columns(phi: LinearMapOnSMA) -> DenseMatrix:
    """S0, whose column k is the first nonzero column of phi(E_kk) scaled
    to lead with 1; VanishingUnitImage for the first unit, in unit order,
    whose image is zero."""
    n = phi.rho.n
    for pair, nonzeros in zip(phi.units, phi.nonzeros):
        if not nonzeros:
            raise VanishingUnitImage(f"unit {pair} maps to zero", pair=pair)
    return DenseMatrix.from_rows(
        [_range_vector(phi.nonzeros[phi._index[(k, k)]], n) for k in range(1, n + 1)]
    ).transpose()


def _verified_form(phi: LinearMapOnSMA, s0: DenseMatrix, s0inv) -> CanonicalJordanForm:
    """The pass of ``classify_jordan`` in the frame of S0 and s0inv, its
    inverse (trusted, not checked; None when S0 is singular): phi's form,
    proved by one comparison per unit image, or NotJordan for the first
    check that phi fails, named by a unit pair that breaks the Jordan
    identity."""
    rho = phi.rho
    n = rho.n
    diag = [phi._index[(k, k)] for k in range(1, n + 1)]
    frame = None if s0inv is None else UnitFrame(s0, s0inv)
    # the term of E_kk is c_k r_k whatever the form
    if frame is None or not all(
        frame.matches(phi, t, ((ONE, k, k),)) for k, t in enumerate(diag, start=1)
    ):
        _raise_diagonal_failure([phi.block(t) for t in diag])
        raise InternalInconsistency(
            "diagonal unit images pass the dense checks but not the frame"
        )
    mult = {}
    anti = {}
    for t, (i, j) in enumerate(phi.units):
        if i == j:
            continue
        term = frame.propose(phi, t, i, j)
        if term is None or not frame.matches(phi, t, (term,)):
            _raise_image_failure(phi, frame, t, i, j)
        g, a, _ = term
        (mult if a == i else anti)[(i, j)] = g
    u = set()
    for blk in approx_classes(rho).blocks:
        m_pairs = [p for p in mult if p[0] in blk]
        a_pairs = [p for p in anti if p[0] in blk]
        if m_pairs and a_pairs:
            # a connected class has two units of the two kinds that meet
            # at a vertex (see classify_jordan)
            raise NotJordan(
                "multiplicative and antimultiplicative pairs share a class",
                pair=next((m, a) for m in m_pairs for a in a_pairs if set(m) & set(a)),
            )
        if m_pairs:
            u |= blk
    try:
        g = validate(rho, {**mult, **anti})
    except NotTransitive as exc:
        raise NotJordan(
            f"unit weights are not multiplicatively transitive: {exc}",
            pair=exc.witness,
        ) from exc
    return CanonicalJordanForm(s=s0, u=frozenset(u), g=g, s_inv=s0inv)


def _raise_image_failure(
    phi: LinearMapOnSMA, frame: UnitFrame, t: int, i: int, j: int
) -> None:
    """Raise NotJordan for image t, the image of the strict unit E_ij, which
    is no scaled outer product g c_a r_b of either orientation in the frame
    of S0, whose diagonal images passed: it leaves span(c_i r_j, c_j r_i),
    or it lies there with both coordinates nonzero. An image there with
    one nonzero coordinate is a term the walk must have accepted:
    InternalInconsistency."""
    alpha = frame.coordinate(phi, t, i, j)
    beta = frame.coordinate(phi, t, j, i)
    if not frame.matches(phi, t, ((alpha, i, j), (beta, j, i))):
        x = phi.block(t)
        q = phi.block(phi._index[(i, i)])
        k = i if q * x + x * q != x else j
        raise NotJordan(
            f"conjugated image of E_{i}{j} leaves span(E_{i}{j}, E_{j}{i})",
            pair=((k, k), (i, j)),
        )
    if not (alpha and beta):
        raise InternalInconsistency(
            f"image of E_{i}{j} is one term of the frame but not the one proposed"
        )
    raise NotJordan(
        f"image of E_{i}{j} mixes multiplicative and antimultiplicative parts",
        pair=((i, j), (i, j)),
    )


def _range_vector(nonzeros, n: int) -> list:
    """The first nonzero column of an n x n image given by its nonzero
    numerators (``LinearMapOnSMA.nonzeros``), scaled to lead with 1: the common
    denominator cancels."""
    c, _, a, b = min((pos % n, pos // n, a, b) for pos, a, b in nonzeros)
    lead = GaussianRational(a, b)
    column = [ZERO] * n
    for pos, x, y in nonzeros:
        if pos % n == c:
            column[pos // n] = GaussianRational(x, y) / lead
    return column


def _raise_diagonal_failure(diag_imgs) -> None:
    """Raise NotJordan for the first dense check the q_k = phi(E_kk) fail:
    idempotence of each q_k in order, then q_k q_l + q_l q_k = 0 for each
    pair k < l in lexicographic order. Returns when every check passes."""
    for k, q in enumerate(diag_imgs, start=1):
        if q * q != q:
            raise NotJordan(
                f"image of E_{k}{k} is not idempotent", pair=((k, k), (k, k))
            )
    for k, l in combinations(range(1, len(diag_imgs) + 1), 2):
        qk, ql = diag_imgs[k - 1], diag_imgs[l - 1]
        if not (qk * ql + ql * qk).is_zero():
            raise NotJordan(
                f"images of E_{k}{k} and E_{l}{l} are not orthogonal",
                pair=((k, k), (l, l)),
            )


def synthesize_jordan(rho: QuasiOrder, s: DenseMatrix, u, g) -> LinearMapOnSMA:
    """Build the Jordan homomorphism with the given parameters.

    ``u`` must be a union of connectivity classes; ``g`` either a validated
    TransitiveMap on rho or a weight dict to validate. S is inverted once
    (Singular propagates) and the built map is re-verified by the pass of
    ``classify_jordan`` before it is returned. That pass runs in the frame
    of S0, read off the diagonal images: phi(E_kk) = c_k r_k has first
    nonzero column c_k times an entry of r_k, so S0 = S D, with D the
    diagonal of the reciprocals of the first nonzero entries of S's
    columns. S0 is checked to equal S D, so D^-1 S^-1, S^-1 with its rows
    scaled, is S0's inverse and the pass trusts it.
    """
    if not isinstance(g, TransitiveMap):
        g = validate(rho, g)
    elif g.rho != rho:
        raise DimensionMismatch("weight map lives on a different relation")
    useg = class_union(rho, u)
    if s.shape != (rho.n, rho.n):
        raise DimensionMismatch("similarity has the wrong size")
    s_inv = inverse(s)
    phi = CanonicalJordanForm(s=s, u=useg, g=g, s_inv=s_inv).reconstruct()
    columns = s.transpose()
    leads = [next(filter(None, columns.row_list(k))) for k in range(1, rho.n + 1)]
    try:
        s0 = _leading_columns(phi)
        if s0 != s.scale_columns([x.reciprocal() for x in leads]):
            raise InternalInconsistency(
                "the diagonal images of the synthesized map do not lead with S"
            )
        _verified_form(phi, s0, s_inv.scale_rows(leads))
    except (NotJordan, VanishingUnitImage) as exc:
        raise InternalInconsistency(
            f"synthesized map failed re-verification: {exc}"
        ) from exc
    return phi


def multiplicativity_dichotomy(rho: QuasiOrder) -> bool:
    """True iff at most one connectivity class has two or more vertices."""
    big = [b for b in approx_classes(rho).blocks if len(b) >= 2]
    return len(big) <= 1


def jordan_embeds_into(rho: QuasiOrder, rho2: QuasiOrder):
    """Class union and permutation witnessing a Jordan embedding, or None.

    Unions are tried largest first, so a plain algebra embedding (all
    classes direct) is found before any partially transposed one. The
    witness map X -> R_pi (P X + (I - P) X^t) R_pi^-1 sends E_ij to
    E_pi(a)pi(b), with (a, b) = (i, j) inside u and (j, i) outside it,
    that is for (a, b) in rho_U. So its images lie in rho2 exactly when pi
    sends every pair of rho_U into rho2, which is checked.
    """
    if rho.n != rho2.n:
        raise DimensionMismatch("relations live on different vertex counts")
    blocks = sorted(approx_classes(rho).blocks, key=min)
    unions = []
    for mask in range(1 << len(blocks)):
        u = frozenset().union(*(blocks[b] for b in range(len(blocks)) if mask >> b & 1)) if mask else frozenset()
        unions.append(u)
    unions.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    for u in unions:
        mixed = rho_U(rho, u)
        hits = increasing_permutations(mixed, rho2, limit=1)
        if hits:
            pi = hits[0]
            _check_sends_into(mixed, pi, rho2, "embedding witness fails support")
            return u, pi
    return None


def algebra_embeds_into(rho: QuasiOrder, rho2: QuasiOrder):
    """Increasing permutation embedding the algebra directly, or None;
    the permutation is checked to send every pair of rho into rho2."""
    if rho.n != rho2.n:
        raise DimensionMismatch("relations live on different vertex counts")
    hits = increasing_permutations(rho, rho2, limit=1)
    if not hits:
        return None
    pi = hits[0]
    _check_sends_into(rho, pi, rho2, "embedding witness fails support")
    return pi


def _check_sends_into(q: QuasiOrder, pi, rho2: QuasiOrder, failure: str) -> None:
    """Raise InternalInconsistency(failure) unless the permutation pi sends
    every pair of q into rho2."""
    for (i, j) in q.pairs():
        if (pi[i - 1], pi[j - 1]) not in rho2:
            raise InternalInconsistency(failure)


def classify_into_codomain(
    phi: LinearMapOnSMA, rho2: QuasiOrder
) -> CanonicalJordanForm:
    """Classification refined against a codomain algebra.

    The conjugating matrix is refactored as S1 R_pi with S1 invertible
    inside the codomain algebra and pi read off the intrinsic
    diagonalization of the image of diag(1..n).

    The form is derived from the one ``classify_jordan`` verified, not
    compared again. D0 = R_pi^T S1^-1 S0 is checked diagonal with a nonzero
    diagonal d, and S0 = S1 R_pi D0 holds exactly, as R_pi^T and S1^-1 are
    exact inverses. So column a of S0 is d_a times column pi(a) of S1, row
    b of S0^-1 is row pi(b) of S1^-1 over d_b, and each verified term
    g(i, j) c_a r_b is S1 (g(i, j) d_a / d_b E_pi(a)pi(b)) S1^-1: the term
    of this form, whose weight is g(i, j) d_i / d_j inside u, where
    (a, b) = (i, j), and g(i, j) d_j / d_i outside it, where (a, b) = (j, i).
    pi is checked to send each such (a, b), a pair of rho_U, into rho2.

    These weights need no validation. They are g(i, j) t(i) / t(j), with
    t(i) = d_i inside u and 1 / d_i outside it: g times the trivial map
    t(i) / t(j), every t(i) nonzero. A product of transitive maps is
    transitive, g(i, j) t(i)/t(j) g(j, k) t(j)/t(k) = g(i, k) t(i)/t(k) for
    i != k and 1 for k = i, and it is nonzero, as both factors are; it
    weighs every strict pair, as g does.
    """
    rho = phi.rho
    n = rho.n
    if rho2.n != n:
        raise DimensionMismatch("codomain lives on a different vertex count")
    for t, pair in enumerate(phi.units):
        bad = first_unsupported([p for p, _, _ in phi.nonzeros[t]], rho2)
        if bad is not None:
            raise SupportViolation(
                f"image of {pair} has entry at {bad} outside the codomain",
                pair=bad,
            )
    base = classify_jordan(phi)
    lam_image = apply(phi, DenseMatrix.diag(range(1, n + 1)))
    s1, s1inv, (eigenvalues,) = simultaneous_diagonalize_in_sma(rho2, [lam_image])
    positions = {}
    for j, val in enumerate(eigenvalues, start=1):
        if val.q or val.d != 1:
            raise InternalInconsistency("diagonalized eigenvalue not an index")
        positions[val.p] = j
    if sorted(positions) != list(range(1, n + 1)):
        raise InternalInconsistency("image of diag(1..n) lost an eigenvalue")
    pi = tuple(positions[i] for i in range(1, n + 1))
    # a permutation matrix is inverted by its transpose
    d0 = permutation_matrix(pi).transpose() * s1inv * base.s
    if not d0.is_diagonal():
        raise InternalInconsistency("residual similarity is not diagonal")
    scale = {}
    for i in range(1, n + 1):
        di = d0.at(i, i)
        if not di:
            raise InternalInconsistency("residual similarity is singular")
        scale[i] = di if i in base.u else di.reciprocal()
    g2 = TransitiveMap(
        rho,
        {(i, j): base.g.value(i, j) * scale[i] / scale[j] for (i, j) in rho.strict_pairs()},
    )
    _check_sends_into(
        rho_U(rho, base.u), pi, rho2, "permutation is not increasing into codomain"
    )
    return CanonicalJordanForm(s=s1, u=base.u, g=g2, pi=pi, s_inv=s1inv)


def extends_to_full_jordan_automorphism(rho: QuasiOrder) -> bool:
    """True iff every Jordan automorphism of the algebra is the restriction
    of a Jordan automorphism of the full matrix algebra."""
    return all_transitive_trivial(rho) and multiplicativity_dichotomy(rho)


def all_algebra_automorphisms_inner(rho: QuasiOrder) -> bool:
    """True iff every algebra automorphism is conjugation by a unit of the
    algebra."""
    return all_transitive_trivial(rho) and automorphisms_fix_two_sided_classes(rho)


# --- linear map text format -------------------------------------------------
#
# Line 1: n. Then, per related pair, a line "unit i j" followed by the n*n
# entries of its image, whitespace separated across any number of lines.

def parse_linear_map(text: str) -> LinearMapOnSMA:
    lines = token_lines(strip_comments(text))
    lineno, header = next(lines, (None, None))
    if header is None:
        raise FormatError("empty linear map input")
    if len(header) != 1:
        raise FormatError("first line must be the size n", line=lineno)
    (n,) = convert(parse_int, header, lineno, "first line must be the size n")
    if n < 1:
        raise FormatError("size must be positive", line=lineno)
    if n > MAX_VERTICES:
        raise FormatError(f"size {n} exceeds the limit of {MAX_VERTICES}", line=lineno)
    size = n * n
    name = names(n)
    # the n*n entries of a unit image are mostly 0: only the others are
    # read, each literal once per file
    literal = cache(GaussianRational.from_literal)
    units = {}
    line = next(lines, None)
    while line:
        lineno, parts = line
        if parts[0] != "unit" or len(parts) != 3:
            raise FormatError("expected 'unit i j'", line=lineno)
        i, j = pair = name(parts[1]), name(parts[2])
        if i is None or j is None:
            i, j = pair = tuple(
                convert(parse_int, parts[1:], lineno, "unit indices must be integers")
            )
            if not (1 <= i <= n and 1 <= j <= n):
                raise FormatError(f"unit ({i},{j}) outside 1..{n}", line=lineno)
        if pair in units:
            raise FormatError(f"duplicate unit ({i},{j})", line=lineno)
        # the unit's lines of entries: up to n*n entries or the next "unit"
        rows, entries = [], []
        line = None
        for row in lines:
            if row[1][0] == "unit":
                line = row
                break
            rows.append(row)
            entries += row[1]
            if len(entries) >= size:
                line = next(lines, None)
                break
        nonzero = [*compress(count(), map("0".__ne__, entries))]
        try:
            units[pair] = [*zip(nonzero, map(literal, map(entries.__getitem__, nonzero)))]
        except FormatError:
            # name the line of the first bad literal
            for row in rows:
                convert(literal, row[1], row[0])
            raise
        if len(entries) != size:
            raise FormatError(
                f"unit ({i},{j}) needs {size} entries, got {len(entries)}",
                line=lineno,
            )
    return _unit_map(n, units)


def _unit_map(n: int, units: dict) -> LinearMapOnSMA:
    """The map whose image of each unit (i, j) has the entries units[(i, j)],
    (row-major position, scalar) pairs in position order; every other
    entry is zero.

    Raises NotClosed when the units are not transitively closed and
    FormatError when a related pair has no unit.
    """
    rho = from_edges(n, [p for p in units if p[0] != p[1]], close=False)
    # rho's strict pairs are the units', so only a diagonal unit can be missing
    missing = next((k for k in range(1, n + 1) if (k, k) not in units), None)
    if missing:
        raise FormatError(f"missing unit block for {(missing, missing)}")
    pairs = rho.pairs()
    return LinearMapOnSMA._from_entries(rho, pairs, [units[p] for p in pairs])


def format_linear_map(phi: LinearMapOnSMA) -> str:
    n = phi.rho.n
    out = [str(n)]
    for t, (i, j) in enumerate(phi.units):
        out.append(f"unit {i} {j}")
        literals = phi.literals(t)
        out.extend(" ".join(literals[r : r + n]) for r in range(0, n * n, n))
    return "\n".join(out) + "\n"
