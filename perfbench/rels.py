"""Relations on {1..n} for the benchmark's own use: closure, classes and the
text format, written independently of smalg.

A relation is a list of row bitmasks: bit j-1 of ``rows[i-1]`` says that
(i, j) is related. Closed relations are reflexive and transitive.
"""

from __future__ import annotations


def closure(n: int, edges) -> list:
    rows = [1 << i for i in range(n)]
    for (i, j) in edges:
        rows[i - 1] |= 1 << (j - 1)
    for k in range(n):
        bit, krow = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= krow
    return rows


def has(rows, i: int, j: int) -> bool:
    return bool(rows[i - 1] >> (j - 1) & 1)


def pairs(rows, strict: bool = False):
    """Related pairs in lexicographic order."""
    out = []
    for i, row in enumerate(rows, start=1):
        while row:
            low = row & -row
            j = low.bit_length()
            row ^= low
            if not (strict and i == j):
                out.append((i, j))
    return out


def format_relation(rows, edges=None) -> str:
    """A ``.qo`` file: n, then the strict pairs (or the given edges)."""
    body = pairs(rows, strict=True) if edges is None else edges
    return "\n".join([str(len(rows))] + [f"{i} {j}" for (i, j) in body]) + "\n"


def parse_relation(text: str):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0])
    return n, [tuple(int(t) for t in ln.split()) for ln in lines[1:]]


def components(rows):
    """Connected components of the symmetrized strict relation, each a
    sorted tuple, ordered by smallest element."""
    n = len(rows)
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (i, j) in pairs(rows, strict=True):
        parent[find(i)] = find(j)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(b) for b in groups.values()), key=min)


def mutual_classes(rows):
    n = len(rows)
    seen, out = set(), []
    for i in range(1, n + 1):
        if i not in seen:
            blk = tuple(j for j in range(1, n + 1) if has(rows, i, j) and has(rows, j, i))
            seen.update(blk)
            out.append(blk)
    return out


def relabel(rows, pi):
    """Relation with (pi(i), pi(j)) for every related (i, j); pi is 1-based."""
    n = len(rows)
    out = [0] * n
    for (i, j) in pairs(rows):
        out[pi[i - 1] - 1] |= 1 << (pi[j - 1] - 1)
    return out


def partial_reversal(rows, u):
    """Keep pairs inside the class union u, reverse the others."""
    n = len(rows)
    out = [1 << i for i in range(n)]
    for (i, j) in pairs(rows, strict=True):
        a, b = (i, j) if i in u else (j, i)
        out[a - 1] |= 1 << (b - 1)
    return out


def cover_pair(rows, rng):
    """A strict pair with nothing strictly between its ends, so removing it
    keeps the relation transitive; None if there is none."""
    n = len(rows)
    covers = [
        (i, j)
        for (i, j) in pairs(rows, strict=True)
        if not has(rows, j, i)
        and not any(
            k not in (i, j) and has(rows, i, k) and has(rows, k, j) for k in range(1, n + 1)
        )
    ]
    return rng.choice(covers) if covers else None


def without(rows, pair):
    out = list(rows)
    out[pair[0] - 1] &= ~(1 << (pair[1] - 1))
    return out


def key(rows) -> str:
    """Identity of a relation, for counting relations that come back."""
    return f"{len(rows)}:" + ",".join(format(r, "x") for r in rows)
