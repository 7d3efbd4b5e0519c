"""Exact Gaussian-rational arithmetic for the benchmark's own use.

The benchmark builds its inputs and checks smalg's certificates with this
module alone, so neither the corpus nor the checks depend on the code under
test. A scalar is a pair ``(re, im)`` of ``fractions.Fraction``; a matrix is
a list of rows of such pairs. Indices are 0-based here; file formats are
1-based.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def recip(x):
    n = x[0] * x[0] + x[1] * x[1]
    if not n:
        raise ZeroDivisionError("reciprocal of zero")
    return (x[0] / n, -x[1] / n)


def is_zero(x) -> bool:
    return not x[0] and not x[1]


def literal(x) -> str:
    """The canonical scalar literal smalg reads and writes."""
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def parse_literal(text: str):
    """Inverse of :func:`literal` for the forms smalg prints."""
    t = text.strip()
    if not t.endswith("i"):
        return (Fraction(t), Fraction(0))
    body = t[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return (Fraction(0), Fraction(body))
    return (Fraction(body[:cut]), Fraction(body[cut:].lstrip("+")))


def matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        row = out[i]
        for k in range(m):
            aik = a[i][k]
            if is_zero(aik):
                continue
            bk = b[k]
            for j in range(p):
                if not is_zero(bk[j]):
                    row[j] = add(row[j], mul(aik, bk[j]))
    return out


def rank(a) -> int:
    """Rank by plain Gaussian elimination on a copy."""
    grid = [list(row) for row in a]
    if not grid:
        return 0
    rows, cols = len(grid), len(grid[0])
    r = 0
    for c in range(cols):
        src = next((k for k in range(r, rows) if not is_zero(grid[k][c])), None)
        if src is None:
            continue
        grid[r], grid[src] = grid[src], grid[r]
        inv = recip(grid[r][c])
        pivot = [mul(inv, x) for x in grid[r]]
        for k in range(r + 1, rows):
            f = grid[k][c]
            if not is_zero(f):
                grid[k] = [sub(x, mul(f, y)) for x, y in zip(grid[k], pivot)]
        r += 1
        if r == rows:
            break
    return r


def inverse(a):
    """Inverse by Gauss-Jordan elimination; ZeroDivisionError if singular."""
    n = len(a)
    grid = [list(row) + [ONE if t == i else ZERO for t in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        src = next((k for k in range(c, n) if not is_zero(grid[k][c])), None)
        if src is None:
            raise ZeroDivisionError("singular matrix")
        grid[c], grid[src] = grid[src], grid[c]
        inv = recip(grid[c][c])
        grid[c] = [mul(inv, x) for x in grid[c]]
        for k in range(n):
            f = grid[k][c]
            if k != c and not is_zero(f):
                grid[k] = [sub(x, mul(f, y)) for x, y in zip(grid[k], grid[c])]
    return [row[n:] for row in grid]


def format_matrix(a) -> str:
    """A ``.gm`` file in smalg's canonical layout (header, one row a line)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    lines = [f"{rows} {cols}"]
    lines.extend(" ".join(literal(x) for x in row) for row in a)
    return "\n".join(lines) + "\n"


def parse_matrix(lines):
    """Read a matrix from the lines of a ``.gm`` block (header first)."""
    rows, cols = (int(t) for t in lines[0].split())
    tokens = [tok for line in lines[1:] for tok in line.split()]
    if len(tokens) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(tokens)}")
    vals = [parse_literal(t) for t in tokens]
    return [vals[r * cols:(r + 1) * cols] for r in range(rows)]
