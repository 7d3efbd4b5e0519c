"""Integer matrix utilities: Smith invariant factors, kernel lattice bases,
GF(2) kernels.

The Smith form is fed the transitivity relations of a quasi-order's
beat-point core (``quasiorder.beat_core``), one row per composable triple.
A chain's core is one point, with no rows; a relation that is its own core
keeps them all, 9,120 x 760 for the 40-point ordinal sum of 2-point
antichains. Those rows have at most three entries, all units, so
``smith_invariant_factors`` takes each row as a sparse dict {column: value}
and eliminates unit pivots on them before any dense work. The kernel
routines take plain nested lists of Python ints and run the classic dense
reductions; their inputs stay small.
"""

from __future__ import annotations


def smith_invariant_factors(rows):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix given
    by its sparse rows, dicts from column to nonzero entry.

    Unit pivots go first. An entry +-1 at (i, j) clears column j from every
    other row; row i and column j then drop out, contributing the invariant
    factor 1, and what is left is the Schur complement, again an integer
    matrix. The pivot is taken in a shortest row, in the column held by the
    fewest rows, to keep fill-in low (Dumas, Saunders & Villard, "On
    efficient sparse integer matrix Smith normal form computations", 2001).
    The smallest-pivot dense reduction finishes whatever has no unit entry
    left.
    """
    rows = [dict(row) for row in rows]
    live = {k for k, row in enumerate(rows) if row}
    holders = {}
    for k in live:
        for j in rows[k]:
            holders.setdefault(j, set()).add(k)
    units = 0
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
            units += 1
            progress = True
    rest = [rows[k] for k in sorted(live)]
    rest_cols = sorted({c for row in rest for c in row})
    dense = [[row.get(c, 0) for c in rest_cols] for row in rest]
    return [1] * units + (_dense_smith_factors(dense) if dense else [])


def _dense_smith_factors(a):
    """Invariant factors of the dense matrix a (rows modified in place), by
    smallest-magnitude pivoting."""
    rows, cols = len(a), len(a[0])
    t = 0
    factors = []
    while t < rows and t < cols:
        # smallest-magnitude nonzero pivot in the trailing block
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


def integer_kernel_basis(mat, cols=None):
    """Basis of {x in Z^cols : mat @ x = 0} as a list of int vectors.

    Unimodular column reduction; the returned vectors generate the full
    (saturated) kernel lattice. ``cols`` is needed when mat has no rows.
    """
    if not mat:
        if cols is None:
            raise ValueError("need column count for an empty matrix")
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    ncols = len(mat[0]) if cols is None else cols
    a = [list(row) for row in mat]
    rows = len(a)
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_sub(dst, src, q):
        for r in range(rows):
            a[r][dst] -= q * a[r][src]
        for r in range(ncols):
            v[r][dst] -= q * v[r][src]

    def col_swap(c1, c2):
        for r in range(rows):
            a[r][c1], a[r][c2] = a[r][c2], a[r][c1]
        for r in range(ncols):
            v[r][c1], v[r][c2] = v[r][c2], v[r][c1]

    frozen = 0
    for row in range(rows):
        while True:
            cands = [c for c in range(frozen, ncols) if a[row][c]]
            if len(cands) <= 1:
                break
            c0 = min(cands, key=lambda c: abs(a[row][c]))
            for c in cands:
                if c != c0:
                    col_sub(c, c0, a[row][c] // a[row][c0])
        cands = [c for c in range(frozen, ncols) if a[row][c]]
        if cands:
            col_swap(frozen, cands[0])
            frozen += 1
    return [[v[r][c] for r in range(ncols)] for c in range(frozen, ncols)]


def gf2_kernel_basis(mat, cols=None):
    """Basis of the kernel over GF(2), vectors with entries in {0, 1}.

    Each row is kept as an int bitmask, bit c for column c, so that one
    elimination step is one XOR. The rows are inserted one by one, each
    reduced by the pivot rows at its lowest set bit, and the pivot rows are
    then cleared above each other: that is the reduced row echelon form,
    which the row space alone determines. The basis has one vector per free
    column, in column order: 1 at that column and, at each pivot column,
    the pivot row's bit at the free column.
    """
    if not mat:
        if cols is None:
            raise ValueError("need column count for an empty matrix")
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    ncols = len(mat[0]) if cols is None else cols
    pivots = {}  # lowest set bit -> pivot row
    for row in mat:
        mask = 0
        for c in range(ncols):
            if row[c] & 1:
                mask |= 1 << c
        while mask:
            c = (mask & -mask).bit_length() - 1
            if c not in pivots:
                pivots[c] = mask
                break
            mask ^= pivots[c]
    order = sorted(pivots)
    for t, c in enumerate(reversed(order)):
        bit, prow = 1 << c, pivots[c]
        for lower in order[: len(order) - 1 - t]:
            if pivots[lower] & bit:
                pivots[lower] ^= prow
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for c in order:
            vec[c] = (pivots[c] >> fc) & 1
        basis.append(vec)
    return basis
