"""Exact scalars and dense matrices over the Gaussian rationals.

Scalars are pairs of ``fractions.Fraction`` (real and imaginary part), so
every invariant the representation needs (lowest terms, positive denominator,
arbitrary precision) is inherited from the stdlib. No floating point enters
anywhere in this package.

Matrix indices in the public API are 1-based, matching the pair convention of
the relation and weight file formats; storage is row-major and 0-based
internally.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, FormatError, RankNotOne, Singular

_RATIONAL = r"-?\d+(?:/\d+)?"
_RE_REAL = _re.compile(rf"\A({_RATIONAL})\Z")
_RE_IMAG = _re.compile(rf"\A({_RATIONAL})i\Z")
_RE_BOTH = _re.compile(rf"\A({_RATIONAL})([+-]{_RATIONAL})i\Z")


class GaussianRational:
    """A number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # The spec's four-integer record, derived from the Fractions.
    @property
    def re_num(self):
        return self.re.numerator

    @property
    def re_den(self):
        return self.re.denominator

    @property
    def im_num(self):
        return self.im.numerator

    @property
    def im_den(self):
        return self.im.denominator

    @classmethod
    def from_literal(cls, text: str) -> "GaussianRational":
        """Parse a scalar literal: ``R``, ``Qi``, ``R+Qi`` or ``R-Qi``.

        R and Q are integers or fractions ``p/q`` with q > 0; a pure
        imaginary unit is written with an explicit coefficient (``-1i``).
        """
        t = text.strip()
        m = _RE_REAL.match(t)
        if m:
            return cls(_frac(m.group(1), t))
        m = _RE_IMAG.match(t)
        if m:
            return cls(0, _frac(m.group(1), t))
        m = _RE_BOTH.match(t)
        if m:
            re_part = _frac(m.group(1), t)
            imtok = m.group(2)
            if imtok[0] == "+":
                im_part = _frac(imtok[1:], t)
            else:
                im_part = -_frac(imtok[1:], t)
            return cls(re_part, im_part)
        raise FormatError(f"bad scalar literal {text!r}")

    def literal(self) -> str:
        """Canonical literal form; inverse of :meth:`from_literal`."""
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def reciprocal(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("reciprocal of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.literal()!r})"

    def __str__(self):
        return self.literal()

    def sort_key(self):
        """Total order used wherever eigenvalues need a reproducible order."""
        return (self.re, self.im)


def _frac(token: str, context: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {token!r} in {context!r}") from exc


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def scalar(x) -> GaussianRational:
    """Coerce an int, Fraction, literal string or scalar to a scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, str):
        return GaussianRational.from_literal(x)
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot build a Gaussian rational from {type(x).__name__}")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


class DenseMatrix:
    """Immutable dense matrix of Gaussian rationals."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ents = tuple(scalar(x) for x in entries)
        if len(ents) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ents)}"
            )
        self.rows = rows
        self.cols = cols
        self._e = ents

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
        ents = [ZERO] * (rows * cols)
        for (i, j), v in entries.items():
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise DimensionMismatch(f"index ({i},{j}) outside {rows}x{cols}")
            ents[(i - 1) * cols + (j - 1)] = v
        return cls(rows, cols, ents)

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

    def at(self, i: int, j: int) -> GaussianRational:
        """Entry at row i, column j, 1-based."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise DimensionMismatch(f"index ({i},{j}) outside {self.rows}x{self.cols}")
        return self._e[(i - 1) * self.cols + (j - 1)]

    def entries(self):
        return self._e

    def to_grid(self):
        """Row-major copy as nested lists (mutable working form)."""
        c = self.cols
        return [list(self._e[r * c : (r + 1) * c]) for r in range(self.rows)]

    def row_list(self, i: int):
        return list(self._e[(i - 1) * self.cols : i * self.cols])

    def col_list(self, j: int):
        return [self._e[r * self.cols + (j - 1)] for r in range(self.rows)]

    def diagonal(self):
        k = min(self.rows, self.cols)
        return [self._e[t * self.cols + t] for t in range(k)]

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise DimensionMismatch("trace needs a square matrix")
        total = ZERO
        for t in range(self.rows):
            total = total + self._e[t * self.cols + t]
        return total

    def support(self):
        """Positions of nonzero entries as a frozenset of 1-based pairs."""
        c = self.cols
        return frozenset(
            (k // c + 1, k % c + 1) for k, x in enumerate(self._e) if x
        )

    def is_zero(self) -> bool:
        return not any(self._e)

    def is_diagonal(self) -> bool:
        c = self.cols
        return all(
            not x for k, x in enumerate(self._e) if k // c != k % c
        )

    def is_upper_triangular(self) -> bool:
        c = self.cols
        return all(not x for k, x in enumerate(self._e) if k // c > k % c)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            self.cols,
            self.rows,
            [self._e[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)],
        )

    def conj(self) -> "DenseMatrix":
        return DenseMatrix(self.rows, self.cols, [x.conjugate() for x in self._e])

    def scale(self, s) -> "DenseMatrix":
        s = scalar(s)
        return DenseMatrix(self.rows, self.cols, [s * x for x in self._e])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "DenseMatrix":
        """Submatrix on the given 1-based row and column index sequences."""
        ents = []
        for i in row_idx:
            base = (i - 1) * self.cols
            for j in col_idx:
                ents.append(self._e[base + (j - 1)])
        return DenseMatrix(len(row_idx), len(col_idx), ents)

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return DenseMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)]
        )

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {self.shape} and {other.shape}")
        return DenseMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)]
        )

    def __neg__(self):
        return DenseMatrix(self.rows, self.cols, [-x for x in self._e])

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
        return self.shape == other.shape and self._e == other._e

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        body = "; ".join(
            " ".join(x.literal() for x in self.row_list(i))
            for i in range(1, self.rows + 1)
        )
        return f"DenseMatrix({self.rows}x{self.cols}: {body})"


def multiply(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    n, m, p = a.rows, a.cols, b.cols
    ae, be = a._e, b._e
    out = [ZERO] * (n * p)
    for i in range(n):
        arow = ae[i * m : (i + 1) * m]
        for k, aik in enumerate(arow):
            if not aik:
                continue
            brow = be[k * p : (k + 1) * p]
            base = i * p
            for j, bkj in enumerate(brow):
                if bkj:
                    out[base + j] = out[base + j] + aik * bkj
    return DenseMatrix(n, p, out)


def conjugate_transpose(m: DenseMatrix) -> DenseMatrix:
    return m.transpose().conj()


def jordan_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """The symmetrized product a*b + b*a."""
    return multiply(a, b) + multiply(b, a)


def _echelon(grid, reduce=False):
    """In-place elimination; returns pivot (row, col) list.

    Pivot choice: scan columns left to right, take the first row with a
    nonzero entry (deterministic, no magnitude heuristics; exact arithmetic
    makes pivot growth a non-issue at this scale).
    """
    if not grid:
        return []
    rows, cols = len(grid), len(grid[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        src = None
        for rr in range(r, rows):
            if grid[rr][c]:
                src = rr
                break
        if src is None:
            continue
        if src != r:
            grid[r], grid[src] = grid[src], grid[r]
        inv = grid[r][c].reciprocal()
        grid[r] = [inv * x for x in grid[r]]
        for rr in range(rows):
            if rr == r or (not reduce and rr < r):
                continue
            f = grid[rr][c]
            if f:
                grid[rr] = [x - f * y for x, y in zip(grid[rr], grid[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def rank(m: DenseMatrix) -> int:
    return len(_echelon(m.to_grid()))


def inverse(m: DenseMatrix) -> DenseMatrix:
    if not m.is_square:
        raise DimensionMismatch("inverse needs a square matrix")
    n = m.rows
    grid = m.to_grid()
    for r in range(n):
        grid[r].extend(ONE if t == r else ZERO for t in range(n))
    pivots = _echelon(grid, reduce=True)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        raise Singular("matrix is not invertible")
    return DenseMatrix(n, n, [x for r in range(n) for x in grid[r][n:]])


def solve_exact(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Solve a X = b exactly; requires full column rank and consistency."""
    if a.rows != b.rows:
        raise DimensionMismatch("row counts differ")
    n, d, k = a.rows, a.cols, b.cols
    grid = [a.row_list(i) + b.row_list(i) for i in range(1, n + 1)]
    pivots = _echelon(grid, reduce=True)
    cols = {c for _, c in pivots}
    if any(c >= d for c in cols):
        raise Singular("system is inconsistent")
    if len(cols) < d:
        raise Singular("coefficient matrix does not have full column rank")
    out = [[ZERO] * k for _ in range(d)]
    for r, c in pivots:
        out[c] = grid[r][d:]
    return DenseMatrix.from_rows(out)


def nullspace(m: DenseMatrix):
    """Basis of the right kernel, as a list of column DenseMatrix (n x 1)."""
    grid = m.to_grid()
    pivots = _echelon(grid, reduce=True)
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for c, r in pivot_cols.items():
            v[c] = -grid[r][fc]
        basis.append(DenseMatrix(m.cols, 1, v))
    return basis


def is_rank_one_by_minors(m: DenseMatrix) -> bool:
    """True iff m is nonzero and all 2x2 minors vanish."""
    if m.is_zero():
        return False
    g = m.to_grid()
    for i in range(m.rows):
        for k in range(i + 1, m.rows):
            for j in range(m.cols):
                for l in range(j + 1, m.cols):
                    if g[i][j] * g[k][l] != g[i][l] * g[k][j]:
                        return False
    return True


def rank_one_factor(m: DenseMatrix):
    """Write m = u v* (v conjugated); u is the first nonzero column scaled so
    its first nonzero entry is 1. Raises RankNotOne otherwise."""
    if rank(m) != 1:
        raise RankNotOne(f"matrix has rank {rank(m)}, not 1")
    jcol = None
    for j in range(1, m.cols + 1):
        col = m.col_list(j)
        if any(col):
            jcol = j
            break
    u = m.col_list(jcol)
    lead = next(x for x in u if x)
    u = [x / lead for x in u]
    irow = next(i for i, x in enumerate(u) if x) + 1
    v = [x.conjugate() for x in m.row_list(irow)]
    rebuilt = outer(u, v)
    if rebuilt != m:
        raise RankNotOne("factor reconstruction failed")
    return u, v


def outer(u: Sequence, v: Sequence) -> DenseMatrix:
    """The rank-at-most-one matrix u v* (conjugating v)."""
    uu = [scalar(x) for x in u]
    vv = [scalar(x).conjugate() for x in v]
    return DenseMatrix(len(uu), len(vv), [a * b for a in uu for b in vv])


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


def invert_permutation(pi: Sequence[int]):
    inv = [0] * len(pi)
    for k, img in enumerate(pi, start=1):
        inv[img - 1] = k
    return tuple(inv)


def relabel_matrix(m: DenseMatrix, pi: Sequence[int]) -> DenseMatrix:
    """Relabeled matrix m' with m'[pi(i), pi(j)] = m[i, j].

    Equals P m P^-1 for P = permutation_matrix(pi).
    """
    if not m.is_square or m.rows != len(pi):
        raise DimensionMismatch("permutation length must match matrix size")
    n = m.rows
    out = [ZERO] * (n * n)
    ents = m._e
    for i in range(n):
        for j in range(n):
            out[(pi[i] - 1) * n + (pi[j] - 1)] = ents[i * n + j]
    return DenseMatrix(n, n, out)


# --- matrix text format -----------------------------------------------------
#
# Line 1: "rows cols"; then rows*cols scalar literals, whitespace separated,
# row-major. '#' starts a comment for the rest of its line.


def _strip_comments(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, line


def parse_matrix(text: str) -> DenseMatrix:
    lines = list(_strip_comments(text))
    if not lines:
        raise FormatError("empty matrix input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("matrix header must be 'rows cols'", line=lineno)
    try:
        r, c = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError("matrix header must be 'rows cols'", line=lineno) from exc
    if r < 0 or c < 0:
        raise FormatError("matrix dimensions must be nonnegative", line=lineno)
    tokens = []
    for lineno, line in lines[1:]:
        for tok in line.split():
            try:
                tokens.append(GaussianRational.from_literal(tok))
            except FormatError as exc:
                raise FormatError(str(exc), line=lineno) from exc
    if len(tokens) != r * c:
        raise FormatError(
            f"expected {r * c} entries for a {r}x{c} matrix, got {len(tokens)}"
        )
    return DenseMatrix(r, c, tokens)


def format_matrix(m: DenseMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(1, m.rows + 1):
        lines.append(" ".join(x.literal() for x in m.row_list(i)))
    return "\n".join(lines) + "\n"
