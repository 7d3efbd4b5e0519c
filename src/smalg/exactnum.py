"""Exact scalars and dense matrices over the Gaussian rationals.

A scalar is one canonical integer triple (p, q, d), the number (p + q i) / d,
with d > 0 and gcd(p, q, d) = 1, so equal scalars have equal storage and
compare and hash as ints. A matrix keeps the same form with one denominator
for all its entries: a positive integer denominator and integer numerators
for the real and imaginary parts, in lowest terms, so its arithmetic runs on
Python ints and equal matrices have equal storage; entries are handed out as
scalars. Rank, kernel bases and inverse all run on one fraction-free
Gauss-Jordan kernel over the Gaussian integers, which updates only the rows
with a nonzero entry in the pivot column, so sparse and triangular matrices
eliminate in time near their nonzeros. Products run on one kernel that
multiplies a stack of integer rows by a matrix read once into its nonzero
entries per row. This module holds only scalars, dense matrices and their
kernels; the unit images of a linear map and the frames they are compared
in live with the Jordan code (``jordan``), which reads the storage below. No
floating point enters anywhere in this package.

Matrix indices in the public API are 1-based, matching the pair convention of
the relation and weight file formats; storage is row-major and 0-based
internally.
"""

from __future__ import annotations

import re as _re
from functools import cache, cmp_to_key
from itertools import chain, compress
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, FormatError, Singular
from .tokens import convert, parse_int, strip_comments, token_lines

# ASCII digits only: ``\d`` also matches other scripts' digits, and ``int()``
# takes those and ``_`` separators. Each rational is (numerator, denominator).
_RATIONAL = r"(-?[0-9]+)(?:/([0-9]+))?"
_RE_REAL = _re.compile(rf"\A{_RATIONAL}\Z")
_RE_IMAG = _re.compile(rf"\A{_RATIONAL}i\Z")
_RE_BOTH = _re.compile(rf"\A{_RATIONAL}([+-]){_RATIONAL}i\Z")


class GaussianRational:
    """A number (p + q i) / d with integers p, q and d > 0, kept in lowest
    terms (gcd(p, q, d) = 1).

    The constructor takes the real and imaginary parts, each an int or any
    rational with integer ``numerator`` and ``denominator``, such as the
    rationals of the standard library's ``fractions`` module.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.p, self.q, self.d = re, im, 1
            return
        a, b = _ratio(re)
        c, e = _ratio(im)
        d = b * e
        p, q = a * e, c * b
        if d < 0:
            p, q, d = -p, -q, -d
        g = gcd(p, q, d)
        self.p, self.q, self.d = p // g, q // g, d // g

    @classmethod
    def from_literal(cls, text: str) -> "GaussianRational":
        """Parse a scalar literal (grammar at :meth:`literal_parts`)."""
        return _reduced_scalar(*cls.literal_parts(text))

    @staticmethod
    def literal_parts(text: str):
        """(p, q, d) with integers p, q and d > 0 such that the literal is
        (p + q i) / d, not necessarily in lowest terms.

        The literal is ``R``, ``Qi``, ``R+Qi`` or ``R-Qi``, where R and Q are
        integers or fractions ``p/q`` with q > 0 in ASCII digits; a pure
        imaginary unit is written with an explicit coefficient (``-1i``).
        """
        t = text.strip()
        m = _RE_REAL.match(t)
        if m:
            p, d = _rational(m.group(1), m.group(2), t)
            return p, 0, d
        m = _RE_IMAG.match(t)
        if m:
            q, d = _rational(m.group(1), m.group(2), t)
            return 0, q, d
        m = _RE_BOTH.match(t)
        if m:
            p, e = _rational(m.group(1), m.group(2), t)
            q, f = _rational(m.group(4), m.group(5), t)
            if m.group(3) == "-":
                q = -q
            return p * f, q * e, e * f
        raise FormatError(f"bad scalar literal {text!r}")

    def literal(self) -> str:
        """Canonical literal form; inverse of :meth:`from_literal`. Each part
        is spelled in lowest terms, ``-1/2`` or ``3``."""
        p, q, d = self.p, self.q, self.d
        if not q:
            return _ratio_text(p, d)
        if not p:
            return f"{_ratio_text(q, d)}i"
        sign = "+" if q > 0 else "-"
        return f"{_ratio_text(p, d)}{sign}{_ratio_text(abs(q), d)}i"

    def conjugate(self) -> "GaussianRational":
        return _scalar(self.p, -self.q, self.d)

    def reciprocal(self) -> "GaussianRational":
        p, q, d = self.p, self.q, self.d
        n = p * p + q * q
        if not n:
            raise ZeroDivisionError("reciprocal of zero")
        # d / (p + q i) = d (p - q i) / (p^2 + q^2)
        return _reduced_scalar(d * p, -d * q, n)

    def __bool__(self):
        return bool(self.p or self.q)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced_scalar(self.p + other.p, self.q + other.q, d)
        return _reduced_scalar(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced_scalar(self.p - other.p, self.q - other.q, d)
        return _reduced_scalar(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _scalar(-self.p, -self.q, self.d)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self.p, self.q, other.p, other.q
        return _reduced_scalar(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _quotient(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _quotient(other, self)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __repr__(self):
        return f"GaussianRational({self.literal()!r})"

    def __str__(self):
        return self.literal()

    def sort_key(self):
        """Total order used wherever eigenvalues need a reproducible order:
        by real part, then by imaginary part."""
        return _SORT_KEY(self)


def _compare(x: GaussianRational, y: GaussianRational) -> int:
    """-1, 0 or 1 as x is below, equal to or above y in the (real part,
    imaginary part) order. Each side is scaled by the other's positive
    denominator, so the comparison stays in ints."""
    left = (x.p * y.d, x.q * y.d)
    right = (y.p * x.d, y.q * x.d)
    return (left > right) - (left < right)


_SORT_KEY = cmp_to_key(_compare)


def _scalar(p: int, q: int, d: int) -> GaussianRational:
    """The scalar (p + q i) / d from a triple already in canonical form."""
    x = object.__new__(GaussianRational)
    x.p = p
    x.q = q
    x.d = d
    return x


def _reduced_scalar(p: int, q: int, d: int) -> GaussianRational:
    """The scalar (p + q i) / d for d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    return _scalar(p, q, d)


def _quotient(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    """x / y, where (a + b i) / d over (c + e i) / f is
    f (a + b i)(c - e i) / (d (c^2 + e^2))."""
    a, b, c, e, f = x.p, x.q, y.p, y.q, y.d
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError("division by zero")
    return _reduced_scalar(f * (a * c + b * e), f * (b * c - a * e), x.d * n)


def _ratio(x):
    """(numerator, denominator) of an int or of a rational with integer
    ``numerator`` and ``denominator``."""
    if isinstance(x, int):
        return int(x), 1
    num = getattr(x, "numerator", None)
    den = getattr(x, "denominator", None)
    if not (isinstance(num, int) and isinstance(den, int)):
        raise TypeError(f"cannot build a Gaussian rational from {type(x).__name__}")
    if not den:
        raise ZeroDivisionError("zero denominator")
    return int(num), int(den)


def _ratio_text(n: int, d: int) -> str:
    """n / d in lowest terms, written ``n`` or ``n/d``."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _rational(num: str, den, context: str):
    """(numerator, denominator) of ``num/den`` (``den`` None for an
    integer) from digit strings already matched by ``_RATIONAL``."""
    try:
        n, d = int(num), 1 if den is None else int(den)
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(
            f"scalar literal {context[:20]!r}... has too many digits"
        ) from exc
    if not d:
        token = f"{num}/{den}"
        raise FormatError(f"bad rational {token!r} in {context!r}")
    return n, d


def _coerce(x):
    """x as a scalar, or None when it is not an int, a rational or a scalar."""
    if isinstance(x, GaussianRational):
        return x
    if type(x) is int:
        return _scalar(x, 0, 1)
    try:
        return GaussianRational(x)
    except TypeError:
        return None


def scalar(x) -> GaussianRational:
    """Coerce an int, a rational (integer ``numerator`` and ``denominator``),
    a literal string or a scalar to a scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, str):
        return GaussianRational.from_literal(x)
    return GaussianRational(x)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class DenseMatrix:
    """Immutable dense matrix of Gaussian rationals.

    Stored as one positive integer denominator ``_d`` and two row-major
    tuples of integer numerators, ``_re`` and ``_im``, in lowest terms
    (``gcd(_d, *_re, *_im) == 1``), so equal matrices have equal storage.
    """

    __slots__ = ("rows", "cols", "_d", "_re", "_im")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ents = [scalar(x) for x in entries]
        if len(ents) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ents)}"
            )
        d, re, im = _numerators(ents)
        self.rows = rows
        self.cols = cols
        self._d = d
        self._re = tuple(re)
        self._im = tuple(im)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "DenseMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged row lengths")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Mapping) -> "DenseMatrix":
        """Matrix with the given entries, a mapping from 1-based (i, j) to
        scalars; every other entry is zero."""
        placed = {}
        for (i, j), v in entries.items():
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise DimensionMismatch(f"index ({i},{j}) outside {rows}x{cols}")
            placed[(i - 1) * cols + (j - 1)] = scalar(v)
        d, placed_re, placed_im = _numerators(list(placed.values()))
        re = [0] * (rows * cols)
        im = [0] * (rows * cols)
        for k, a, b in zip(placed, placed_re, placed_im):
            re[k] = a
            im[k] = b
        return _new(rows, cols, d, tuple(re), tuple(im))

    @classmethod
    def from_parts(cls, rows: int, cols: int, parts: Sequence) -> "DenseMatrix":
        """Matrix from row-major (p, q, d) triples, each the entry
        (p + q i) / d with d > 0, as :meth:`GaussianRational.literal_parts`
        gives them."""
        if len(parts) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(parts)}"
            )
        d = lcm(*{e for _, _, e in parts})
        if d == 1:
            return _new(
                rows, cols, 1, tuple(p for p, _, _ in parts), tuple(q for _, q, _ in parts)
            )
        return _reduced(
            rows,
            cols,
            d,
            [p * (d // e) for p, _, e in parts],
            [q * (d // e) for _, q, e in parts],
        )

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls.diag([ONE] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls.from_entries(rows, cols, {})

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "DenseMatrix":
        """The matrix unit E_ij (1-based indices)."""
        return cls.from_entries(n, n, {(i, j): ONE})

    @classmethod
    def diag(cls, values: Sequence) -> "DenseMatrix":
        n = len(values)
        return cls.from_entries(n, n, {(k, k): v for k, v in enumerate(values, start=1)})

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self):
        return self.rows == self.cols

    def _scalars(self, ks) -> list:
        """The entries at the given 0-based row-major positions."""
        re, im, d = self._re, self._im, self._d
        return [_scalar_over(re[k], im[k], d) for k in ks]

    def at(self, i: int, j: int) -> GaussianRational:
        """Entry at row i, column j, 1-based."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise DimensionMismatch(f"index ({i},{j}) outside {self.rows}x{self.cols}")
        k = (i - 1) * self.cols + (j - 1)
        return _scalar_over(self._re[k], self._im[k], self._d)

    def row_list(self, i: int):
        return self._scalars(range((i - 1) * self.cols, i * self.cols))

    def diagonal(self):
        k = min(self.rows, self.cols)
        return self._scalars(t * self.cols + t for t in range(k))

    def support(self):
        """Positions of nonzero entries as a frozenset of 1-based pairs."""
        c = self.cols
        return frozenset(
            (k // c + 1, k % c + 1)
            for k, (a, b) in enumerate(zip(self._re, self._im))
            if a or b
        )

    def is_zero(self) -> bool:
        return not any(self._re) and not any(self._im)

    def is_diagonal(self) -> bool:
        c = self.cols
        return all(
            not (a or b)
            for k, (a, b) in enumerate(zip(self._re, self._im))
            if k // c != k % c
        )

    def is_upper_triangular(self) -> bool:
        c = self.cols
        return all(
            not (a or b)
            for k, (a, b) in enumerate(zip(self._re, self._im))
            if k // c > k % c
        )

    def _pick(self, order: list):
        """Numerator tuples of the entries at the given 0-based positions."""
        re, im = self._re, self._im
        return tuple(re[k] for k in order), tuple(im[k] for k in order)

    def transpose(self) -> "DenseMatrix":
        r, c = self.rows, self.cols
        order = [i * c + j for j in range(c) for i in range(r)]
        return _new(c, r, self._d, *self._pick(order))

    def scale(self, s) -> "DenseMatrix":
        s = scalar(s)
        p, q, e = s.p, s.q, s.d
        if q:
            re = [p * a - q * b for a, b in zip(self._re, self._im)]
            im = [p * b + q * a for a, b in zip(self._re, self._im)]
        else:
            re = [p * a for a in self._re]
            im = [p * b for b in self._im]
        return _reduced(self.rows, self.cols, self._d * e, re, im)

    def scale_columns(self, values: Sequence) -> "DenseMatrix":
        """self times the diagonal matrix of the values: column j scaled by
        values[j - 1]."""
        c, d = self.cols, self._d
        if len(values) != c:
            raise DimensionMismatch(f"{c} columns, {len(values)} scales")
        return _scaled_columns(
            self.rows,
            [self._re[j::c] for j in range(c)],
            [self._im[j::c] for j in range(c)],
            [_reduced_scalar(v.p, v.q, v.d * d) for v in map(scalar, values)],
        )

    def scale_rows(self, values: Sequence) -> "DenseMatrix":
        """The diagonal matrix of the values times self: row i scaled by
        values[i - 1]."""
        r, c, d = self.rows, self.cols, self._d
        if len(values) != r:
            raise DimensionMismatch(f"{r} rows, {len(values)} scales")
        e, re, im = _scaled_lines(
            [self._re[k * c:k * c + c] for k in range(r)],
            [self._im[k * c:k * c + c] for k in range(r)],
            [_reduced_scalar(v.p, v.q, v.d * d) for v in map(scalar, values)],
        )
        return _reduced(r, c, e, [*chain.from_iterable(re)], [*chain.from_iterable(im)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "DenseMatrix":
        """Submatrix on the given 1-based row and column index sequences."""
        c = self.cols
        order = [(i - 1) * c + (j - 1) for i in row_idx for j in col_idx]
        return _reduced(len(row_idx), len(col_idx), self._d, *self._pick(order))

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return _combine(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {self.shape} and {other.shape}")
        return _combine(self, other, -1)

    def __neg__(self):
        return _new(
            self.rows,
            self.cols,
            self._d,
            tuple(-a for a in self._re),
            tuple(-b for b in self._im),
        )

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            return multiply(self, other)
        s = _coerce(other)
        if s is None:
            return NotImplemented
        return self.scale(s)

    def __rmul__(self, other):
        s = _coerce(other)
        if s is None:
            return NotImplemented
        return self.scale(s)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
            and self._re == other._re
            and self._im == other._im
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._d, self._re, self._im))

    def __repr__(self):
        body = "; ".join(
            " ".join(x.literal() for x in self.row_list(i))
            for i in range(1, self.rows + 1)
        )
        return f"DenseMatrix({self.rows}x{self.cols}: {body})"


# --- integer storage ----------------------------------------------------------


def _new(rows: int, cols: int, d: int, re: tuple, im: tuple) -> DenseMatrix:
    """Matrix from storage that is already in lowest terms."""
    m = object.__new__(DenseMatrix)
    m.rows = rows
    m.cols = cols
    m._d = d
    m._re = re
    m._im = im
    return m


def _numerators(xs: list):
    """(d, re, im): the scalars xs as integer numerators over their least
    common denominator d, which leaves them in lowest terms."""
    d = lcm(*{x.d for x in xs})
    return d, [x.p * (d // x.d) for x in xs], [x.q * (d // x.d) for x in xs]


def _reduced(rows: int, cols: int, d: int, re: list, im: list) -> DenseMatrix:
    """Matrix (re + i im) / d for d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(d, *re, *im)
        if g != 1:
            d //= g
            re = [a // g for a in re]
            im = [b // g for b in im]
    return _new(rows, cols, d, tuple(re), tuple(im))


def _scalar_over(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b i) / d for d > 0."""
    if not (a or b):
        return ZERO
    return _reduced_scalar(a, b, d)


def _combine(a: DenseMatrix, b: DenseMatrix, sign: int) -> DenseMatrix:
    """a + sign * b over the lcm of the two denominators."""
    da, db = a._d, b._d
    if da == db:
        d, fa, fb = da, 1, sign
    else:
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
    return _reduced(
        a.rows,
        a.cols,
        d,
        [fa * x + fb * y for x, y in zip(a._re, b._re)],
        [fa * x + fb * y for x, y in zip(a._im, b._im)],
    )


def _int_rows(m: DenseMatrix, factor: int = 1):
    """Working rows of factor * d * m: real parts and imaginary parts, each
    a list of int lists."""
    c = m.cols
    return tuple(
        [[factor * x for x in part[r * c : (r + 1) * c]] for r in range(m.rows)]
        for part in (m._re, m._im)
    )


def _divided(rows: int, cols: int, re: list, im: list, p, num: int = 1) -> DenseMatrix:
    """Matrix num * (re + i im) / p for a nonzero Gaussian integer p."""
    pr, pi = p
    if pi:
        norm = pr * pr + pi * pi
        return _reduced(
            rows,
            cols,
            norm,
            [num * (a * pr + b * pi) for a, b in zip(re, im)],
            [num * (b * pr - a * pi) for a, b in zip(re, im)],
        )
    if pr < 0:
        pr, num = -pr, -num
    return _reduced(rows, cols, pr, [num * a for a in re], [num * b for b in im])


def _sparse_rows(b: DenseMatrix):
    """b = N / d as the product kernel reads it: for each row of N, its
    nonzero real parts and its nonzero imaginary parts, each as a
    (column, value) list; then the row length and d. A factor taken many
    times is read once."""
    m, p = b.rows, b.cols
    bre, bim = b._re, b._im
    im_rows = [bim[k * p : (k + 1) * p] for k in range(m)] if any(bim) else ()
    return _sparse_int_rows([bre[k * p : (k + 1) * p] for k in range(m)], im_rows, p, b._d)


def _sparse_int_rows(re_rows, im_rows, p: int, d: int = 1):
    """The integer rows re_rows + i im_rows, of length p, over d, as
    ``_sparse_rows`` gives a matrix; im_rows may be empty when every
    imaginary part is zero."""
    cols = range(p)
    b_re = [[*zip(compress(cols, row), compress(row, row))] for row in re_rows]
    if any(map(any, im_rows)):
        b_im = [[*zip(compress(cols, row), compress(row, row))] for row in im_rows]
    else:
        b_im = [()] * len(re_rows)
    return b_re, b_im, p, d


def _rows_times(re_rows, im_rows, b_rows):
    """A stack of integer rows times an integer matrix, the product kernel.

    Row r is re_rows[r] + i im_rows[r]; the two stacks are read once, in
    step, so they may be iterators. ``b_rows`` is the matrix as
    ``_sparse_rows`` gives it, N / d. Returns the rows of the products with
    N, real parts and imaginary parts: row r times the matrix is
    (re[r] + i im[r]) / d. Nothing is reduced, so the rows can be pushed
    through further factors.
    """
    b_re, b_im, p, _ = b_rows
    out_re, out_im = [], []
    for xs, ys in zip(re_rows, im_rows):
        row_re = [0] * p
        row_im = [0] * p
        for x, y, u_row, v_row in zip(xs, ys, b_re, b_im):
            if x:
                for j, u in u_row:
                    row_re[j] += x * u
                for j, v in v_row:
                    row_im[j] += x * v
            if y:
                for j, u in u_row:
                    row_im[j] += y * u
                for j, v in v_row:
                    row_re[j] -= y * v
        out_re.append(row_re)
        out_im.append(row_im)
    return out_re, out_im


def multiply(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    n, m = a.rows, a.cols
    re, im = _rows_times(
        (a._re[i * m : (i + 1) * m] for i in range(n)),
        (a._im[i * m : (i + 1) * m] for i in range(n)),
        _sparse_rows(b),
    )
    return _reduced(
        n, b.cols, a._d * b._d, [*chain.from_iterable(re)], [*chain.from_iterable(im)]
    )


def _scaled_lines(re_lines, im_lines, scales):
    """(d, re, im) with line k of (re + i im) / d equal to scales[k]
    (re_lines[k] + i im_lines[k]), for integer lines: each line takes one
    Gaussian-integer factor onto the common denominator d of the scales."""
    d = lcm(*{s.d for s in scales})
    re_out, im_out = [], []
    for xs, ys, s in zip(re_lines, im_lines, scales):
        f = d // s.d
        p, q = f * s.p, f * s.q
        if q:
            re_out.append([p * x - q * y for x, y in zip(xs, ys)])
            im_out.append([p * y + q * x for x, y in zip(xs, ys)])
        else:
            re_out.append([p * x for x in xs])
            im_out.append([p * y for y in ys])
    return d, re_out, im_out


def _scaled_columns(rows: int, re_cols, im_cols, scales) -> DenseMatrix:
    """The matrix whose column j is scales[j] (re_cols[j] + i im_cols[j]),
    for integer columns of length ``rows``, reduced once."""
    d, re_out, im_out = _scaled_lines(re_cols, im_cols, scales)
    return _reduced(
        rows,
        len(re_cols),
        d,
        [x for row in zip(*re_out) for x in row],
        [y for row in zip(*im_out) for y in row],
    )


def _nonzero_positions(m: DenseMatrix):
    """The 0-based row-major positions of the nonzero entries of m."""
    re, im = m._re, m._im
    if any(im):
        return compress(range(len(re)), map(or_, re, im))
    return compress(range(len(re)), re)


# --- elimination ----------------------------------------------------------------


def _gauss_jordan(re_rows, im_rows, reduce=False):
    """Bareiss elimination over the Gaussian integers, fraction-free and in
    place, touching only the rows with a nonzero entry in the pivot column.

    Rows are lists of ints, real parts in ``re_rows`` and imaginary parts in
    ``im_rows``. Bareiss's step m replaces every other row x by
    (p_m x - f y) / p_{m-1}, with y the pivot row, p_m its pivot, f the entry
    of x in the pivot column and p_{m-1} the previous pivot, p_0 = 1
    (Bareiss 1968, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination"). Every entry stays a minor of the input, so the
    division is exact in Z[i]; it is done as multiplication by the conjugate
    and integer division by the norm. With ``reduce`` the rows above the
    pivot are updated too (Gauss-Jordan), and every pivot row then ends with
    the last pivot at its pivot column and zeros in the other pivot columns:
    the reduced echelon form times that pivot.

    Rows with f = 0 are skipped. Bareiss's step takes such a row to
    p_m x / p_{m-1}, and leaves the pivot row as it is. So each row records
    the step l after which its stored value x_l is Bareiss's row (0 at the
    start; the pivot row's step is the one it pivots). If steps l+1, ..., m
    all skip it, Bareiss's row after step m is
    x_l (p_{l+1} / p_l) ... (p_m / p_{m-1}) = x_l p_m / p_l, as the product
    telescopes. That row is Bareiss's, whose entries are minors, so the
    division is exact. A row is brought up to date by this lift whenever it
    is read: as the pivot row, before an update, and at the end under
    ``reduce``. The stored and the true row differ by a nonzero factor, so
    they have their zeros in the same places, and the pivot search and the
    test f = 0 may read the stored row. Every row that is read is thus
    Bareiss's row at that step, and the pivots, the last pivot and the rows
    come out as Bareiss's, entry for entry. Without ``reduce`` a pivot row is
    not read after its step, and the rows below the last pivot are zero.
    Rows below the pivot are zero left of its column, and a row above is
    zero left of its own pivot column, so only the columns from there on are
    read or written. The identity, triangular and other sparse matrices thus
    cost time in the rows that take an update, not in all of them.

    Pivot choice: scan columns left to right, take the first row with a
    nonzero entry (deterministic, no magnitude heuristics). Returns the
    pivot (row, col) list and the last pivot as an (re, im) pair.
    """
    rows = len(re_rows)
    cols = len(re_rows[0]) if rows else 0
    pivots = []
    # scales[m] = p_m; row rr holds Bareiss's row after step steps[rr] times
    # p_{steps[rr]} / p_m, for the last step m
    scales = [(1, 0)]
    steps = [0] * rows
    qr, qi = 1, 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        src = None
        for rr in range(r, rows):
            if re_rows[rr][c] or im_rows[rr][c]:
                src = rr
                break
        if src is None:
            continue
        if src != r:
            re_rows[r], re_rows[src] = re_rows[src], re_rows[r]
            im_rows[r], im_rows[src] = im_rows[src], im_rows[r]
            steps[r], steps[src] = steps[src], steps[r]
        m = len(pivots)
        if steps[r] != m:
            _lift(re_rows[r], im_rows[r], c, scales[m], scales[steps[r]])
        yr, yi = re_rows[r], im_rows[r]
        pr, pi = yr[c], yi[c]
        norm = qr * qr + qi * qi
        for rr in range(0 if reduce else r + 1, rows):
            if rr == r or not (re_rows[rr][c] or im_rows[rr][c]):
                continue
            s = c if rr > r else pivots[rr][1]
            if steps[rr] != m:
                _lift(re_rows[rr], im_rows[rr], s, scales[m], scales[steps[rr]])
            xr, xi = re_rows[rr][s:], im_rows[rr][s:]
            ur, ui = yr[s:], yi[s:]
            fr, fi = xr[c - s], xi[c - s]
            if pi or fi:
                parts = list(zip(xr, xi, ur, ui))
                nr = [pr * a - pi * b - fr * u + fi * v for a, b, u, v in parts]
                ni = [pr * b + pi * a - fr * v - fi * u for a, b, u, v in parts]
            else:
                nr = [pr * a - fr * u for a, u in zip(xr, ur)]
                ni = [pr * b - fr * v for b, v in zip(xi, ui)] if any(xi) or any(ui) else xi
            if qi:
                nr, ni = (
                    [(a * qr + b * qi) // norm for a, b in zip(nr, ni)],
                    [(b * qr - a * qi) // norm for a, b in zip(nr, ni)],
                )
            elif qr != 1:
                nr = [a // qr for a in nr]
                ni = [b // qr for b in ni]
            re_rows[rr][s:] = nr
            im_rows[rr][s:] = ni
            steps[rr] = m + 1
        steps[r] = m + 1
        pivots.append((r, c))
        qr, qi = pr, pi
        scales.append((qr, qi))
        r += 1
    if reduce:
        m = len(pivots)
        for rr, c in pivots:
            if steps[rr] != m:
                _lift(re_rows[rr], im_rows[rr], c, scales[m], scales[steps[rr]])
    return pivots, (qr, qi)


def _lift(re_row: list, im_row: list, s: int, now, then) -> None:
    """Multiply the row re_row + i im_row by now / then in place, from
    column s on, for Gaussian integers now and then (as (re, im) pairs)
    whose quotient leaves every entry a Gaussian integer."""
    (ar, ai), (br, bi) = now, then
    if (ar, ai) == (br, bi):
        return
    # now / then = now conj(then) / |then|^2, brought to lowest terms
    mr, mi, norm = ar * br + ai * bi, ai * br - ar * bi, br * br + bi * bi
    g = gcd(mr, mi, norm)
    mr, mi, norm = mr // g, mi // g, norm // g
    xr, xi = re_row[s:], im_row[s:]
    if mi:
        re_row[s:] = [(a * mr - b * mi) // norm for a, b in zip(xr, xi)]
        im_row[s:] = [(a * mi + b * mr) // norm for a, b in zip(xr, xi)]
    elif norm == 1:
        re_row[s:] = [a * mr for a in xr]
        im_row[s:] = [b * mr for b in xi]
    else:
        re_row[s:] = [a * mr // norm for a in xr]
        im_row[s:] = [b * mr // norm for b in xi]


def rank(m: DenseMatrix) -> int:
    return len(_gauss_jordan(*_int_rows(m))[0])


def _primitive(re: list, im: list):
    """The nonzero Gaussian-integer vector re + i im divided by the gcd of
    its parts."""
    g = gcd(*re, *im)
    if g == 1:
        return re, im
    return [x // g for x in re], [y // g for y in im]


def _kernel_basis(re_rows, im_rows, cols: int) -> list:
    """A Gaussian-integer basis of the kernel of the integer matrix with
    rows re_rows + i im_rows and ``cols`` columns, as (re, im) int lists,
    one vector per free column, each divided by the gcd of its parts. The
    rows are eliminated in place.

    After Gauss-Jordan, pivot row r holds the last pivot p at its pivot
    column c_r and zeros at the other pivot columns. For a free column f,
    the vector with p at f, -R[r][f] at each c_r and zeros at the other
    free columns is then in the kernel. Among the free columns each vector
    is nonzero only at its own, so they are independent, and there are as
    many as the nullity.
    """
    pivots, (pr, pi) = _gauss_jordan(re_rows, im_rows, reduce=True)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        re, im = [0] * cols, [0] * cols
        re[f], im[f] = pr, pi
        for r, c in pivots:
            re[c], im[c] = -re_rows[r][f], -im_rows[r][f]
        basis.append(_primitive(re, im))
    return basis


def _shifted_kernel(m: DenseMatrix, lam: GaussianRational) -> list:
    """An integer basis of the kernel of m - lam*I for a square m, as
    ``_kernel_basis`` gives it: the kernel of e*N - d*(x + y i)*I, a
    multiple of m - lam*I, for m = N / d and lam = (x + y i) / e."""
    re_rows, im_rows = _int_rows(m, lam.d)
    shift_re, shift_im = m._d * lam.p, m._d * lam.q
    for i in range(m.rows):
        re_rows[i][i] -= shift_re
        im_rows[i][i] -= shift_im
    return _kernel_basis(re_rows, im_rows, m.cols)


def inverse(m: DenseMatrix) -> DenseMatrix:
    if not m.is_square:
        raise DimensionMismatch("inverse needs a square matrix")
    n = m.rows
    re_rows, im_rows = _int_rows(m)
    for r in range(n):
        re_rows[r].extend(1 if t == r else 0 for t in range(n))
        im_rows[r].extend([0] * n)
    pivots, p = _gauss_jordan(re_rows, im_rows, reduce=True)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        raise Singular("matrix is not invertible")
    # m = N / d, and the right half holds p N^-1, so m^-1 = d * right / p.
    return _divided(
        n,
        n,
        [x for r in range(n) for x in re_rows[r][n:]],
        [x for r in range(n) for x in im_rows[r][n:]],
        p,
        m._d,
    )


def permutation_matrix(pi: Sequence[int]) -> DenseMatrix:
    """Matrix P with P e_k = e_{pi(k)}: entry (pi(k), k) = 1, 1-based.

    Conjugation P X P^-1 relabels index i to pi(i); in particular it sends
    the unit E_ij to E_{pi(i) pi(j)}.
    """
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise DimensionMismatch(f"not a permutation of 1..{n}: {pi}")
    return DenseMatrix.from_entries(
        n, n, {(img, k): ONE for k, img in enumerate(pi, start=1)}
    )


# --- matrix text format -----------------------------------------------------
#
# Line 1: "rows cols"; then rows*cols scalar literals, whitespace separated,
# row-major. '#' starts a comment for the rest of its line.


def parse_matrix(text: str) -> DenseMatrix:
    lines = token_lines(strip_comments(text))
    lineno, header = next(lines, (None, None))
    if header is None:
        raise FormatError("empty matrix input")
    if len(header) != 2:
        raise FormatError("matrix header must be 'rows cols'", line=lineno)
    r, c = convert(parse_int, header, lineno, "matrix header must be 'rows cols'")
    if r < 0 or c < 0:
        raise FormatError("matrix dimensions must be nonnegative", line=lineno)
    # a matrix repeats few values: each literal is read once per file
    literal = cache(GaussianRational.literal_parts)
    parts = []
    for lineno, tokens in lines:
        parts += convert(literal, tokens, lineno)
    if len(parts) != r * c:
        raise FormatError(
            f"expected {r * c} entries for a {r}x{c} matrix, got {len(parts)}"
        )
    return DenseMatrix.from_parts(r, c, parts)


def format_matrix(m: DenseMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(1, m.rows + 1):
        lines.append(" ".join(x.literal() for x in m.row_list(i)))
    return "\n".join(lines) + "\n"
