"""Quasi-orders (reflexive transitive relations) on {1..n} and the
combinatorics the algebra layer needs from them.

A relation is stored as one bitmask per row, so closure is Warshall over
machine words. All pairs in the public API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    FormatError,
    InternalInconsistency,
    NotClassUnion,
    NotClosed,
)
from .exactnum import DenseMatrix, parse_int


class QuasiOrder:
    """Immutable reflexive transitive relation on {1..n}."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self._rows = tuple(rows)

    def has(self, i: int, j: int) -> bool:
        return bool(self._rows[i - 1] >> (j - 1) & 1)

    def __contains__(self, pair):
        i, j = pair
        return 1 <= i <= self.n and 1 <= j <= self.n and self.has(i, j)

    def pairs(self):
        """All related pairs, sorted."""
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.has(i, j)
        ]

    def strict_pairs(self):
        return [(i, j) for (i, j) in self.pairs() if i != j]

    def out_set(self, i: int):
        """All j with (i, j) related; contains i itself."""
        return [j for j in range(1, self.n + 1) if self.has(i, j)]

    def __eq__(self, other):
        if not isinstance(other, QuasiOrder):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self):
        return hash((self.n, self._rows))

    def __repr__(self):
        return f"QuasiOrder(n={self.n}, strict={self.strict_pairs()})"


def from_edges(n: int, edges: Iterable, close: bool = True) -> QuasiOrder:
    """Build a quasi-order from generating pairs.

    The diagonal is always included. With ``close=True`` the transitive
    closure is taken (Warshall); with ``close=False`` the edge set must
    already be transitive, otherwise NotClosed reports a violating
    composable pair.
    """
    if n < 1:
        raise DimensionMismatch("need at least one vertex")
    rows = [1 << i for i in range(n)]
    for (i, j) in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(f"pair ({i},{j}) outside 1..{n}")
        rows[i - 1] |= 1 << (j - 1)
    if close:
        for k in range(n):
            bit = 1 << k
            krow = rows[k]
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= krow
    else:
        for i in range(n):
            ri = rows[i]
            rest = ri
            while rest:
                k = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                missing = rows[k] & ~ri
                if missing:
                    j = (missing & -missing).bit_length() - 1
                    raise NotClosed(
                        f"({i + 1},{k + 1}) and ({k + 1},{j + 1}) are present "
                        f"but ({i + 1},{j + 1}) is not",
                        witness=((i + 1, k + 1), (k + 1, j + 1)),
                    )
    return QuasiOrder(n, rows)


def reverse(q: QuasiOrder) -> QuasiOrder:
    n = q.n
    rows = [0] * n
    for i in range(n):
        r = q._rows[i]
        for j in range(n):
            if r >> j & 1:
                rows[j] |= 1 << i
    return QuasiOrder(n, rows)


@dataclass(frozen=True)
class ClassPartition:
    """A partition of {1..n} into blocks, ordered by smallest element."""

    n: int
    blocks: tuple

    def block_of(self, i: int):
        for b in self.blocks:
            if i in b:
                return b
        raise DimensionMismatch(f"vertex {i} outside 1..{self.n}")

    def is_union_of_blocks(self, subset) -> bool:
        s = set(subset)
        if not s <= set(range(1, self.n + 1)):
            return False
        for b in self.blocks:
            if s & b and not b <= s:
                return False
        return True


def _partition(n, block_iter):
    blocks = sorted((frozenset(b) for b in block_iter), key=min)
    return ClassPartition(n, tuple(blocks))


def two_sided_classes(q: QuasiOrder) -> ClassPartition:
    """Classes of the mutual relation: i ~ j iff both (i,j) and (j,i)."""
    seen = set()
    blocks = []
    for i in range(1, q.n + 1):
        if i in seen:
            continue
        blk = {j for j in range(1, q.n + 1) if q.has(i, j) and q.has(j, i)}
        seen |= blk
        blocks.append(blk)
    return _partition(q.n, blocks)


def approx_classes(q: QuasiOrder) -> ClassPartition:
    """Connected components of the symmetrized strict relation."""
    n = q.n
    adj = [0] * n
    for (i, j) in q.strict_pairs():
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    seen = 0
    blocks = []
    for i in range(n):
        if seen >> i & 1:
            continue
        comp = 1 << i
        frontier = 1 << i
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                nxt |= adj[v] & ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        blocks.append({k + 1 for k in range(n) if comp >> k & 1})
    return _partition(n, blocks)


def central_idempotents(q: QuasiOrder):
    """Diagonal 0/1 matrices P_C, one per connectivity class, in block order.

    These span the center of the algebra attached to q.
    """
    return [
        DenseMatrix.diag([1 if i in blk else 0 for i in range(1, q.n + 1)])
        for blk in approx_classes(q).blocks
    ]


@dataclass(frozen=True)
class BlockTriangularForm:
    """Renumbering onto a block upper-triangular pattern.

    ``pi`` relabels old index i to pi(i); ``sizes`` are the diagonal block
    sizes in order; ``presence[a][b]`` says whether the full block (a, b) is
    inside the relabeled relation; ``class_order`` lists the mutual-relation
    classes in the order they were laid out.
    """

    pi: tuple
    sizes: tuple
    presence: tuple
    class_order: tuple


def block_triangular_form(q: QuasiOrder) -> BlockTriangularForm:
    """Topologically order the mutual-relation classes and renumber.

    Among classes whose strict predecessors are all placed, the one with the
    smallest minimum element goes first, so the output is reproducible.
    """
    part = two_sided_classes(q)
    blocks = list(part.blocks)
    p = len(blocks)
    reps = [min(b) for b in blocks]
    leq = [
        [q.has(reps[a], reps[b]) for b in range(p)]
        for a in range(p)
    ]
    placed = []
    remaining = set(range(p))
    while remaining:
        ready = [
            a
            for a in remaining
            if all(not leq[b][a] for b in remaining if b != a)
        ]
        if not ready:
            raise InternalInconsistency("class order has a cycle")
        nxt = min(ready, key=lambda a: reps[a])
        placed.append(nxt)
        remaining.remove(nxt)
    pi = [0] * q.n
    offset = 0
    for a in placed:
        for t, v in enumerate(sorted(blocks[a]), start=1):
            pi[v - 1] = offset + t
        offset += len(blocks[a])
    presence = tuple(
        tuple(leq[placed[a]][placed[b]] for b in range(p)) for a in range(p)
    )
    for a in range(p):
        for b in range(a):
            if presence[a][b]:
                raise InternalInconsistency("order not triangular")
    return BlockTriangularForm(
        pi=tuple(pi),
        sizes=tuple(len(blocks[a]) for a in placed),
        presence=presence,
        class_order=tuple(frozenset(blocks[a]) for a in placed),
    )


def rectangles(q: QuasiOrder):
    """All position rectangles: row pair i<k and column pair j<l with all of
    (i,j), (i,l), (k,j), (k,l) related."""
    out = []
    n = q.n
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            common = q._rows[i - 1] & q._rows[k - 1]
            cols = [c + 1 for c in range(n) if common >> c & 1]
            for a in range(len(cols)):
                for b in range(a + 1, len(cols)):
                    out.append(((i, k), (cols[a], cols[b])))
    return out


def first_unsupported(support, q: QuasiOrder):
    """Lexicographically first pair in ``support`` not related in q, or None."""
    bad = [p for p in support if p not in q]
    return min(bad) if bad else None


def increasing_permutations(
    src: QuasiOrder, dst: QuasiOrder, limit: Optional[int] = 1
):
    """Bijections pi with (i,j) in src implying (pi(i), pi(j)) in dst.

    Backtracking search, assigning vertices in decreasing out-degree order
    and pruning on degree compatibility. A ``limit`` of None enumerates all
    solutions; the returned list is sorted. The search is exhaustive, so an
    empty result proves nonexistence.
    """
    if src.n != dst.n:
        raise DimensionMismatch("relations live on different vertex counts")
    return _increasing_search(src, dst, limit)


def _increasing_search(src, dst, limit, pin=None):
    """``increasing_permutations`` on relations of one size; ``pin = (v, t)``
    keeps only the bijections with pi(v) = t."""
    n = src.n
    rev_src = reverse(src)
    rev_dst = reverse(dst)
    out_s = [src._rows[i].bit_count() for i in range(n)]
    in_s = [rev_src._rows[i].bit_count() for i in range(n)]
    out_d = [dst._rows[i].bit_count() for i in range(n)]
    in_d = [rev_dst._rows[i].bit_count() for i in range(n)]
    order = sorted(range(1, n + 1), key=lambda v: (-out_s[v - 1], v))
    if pin is not None:
        order.remove(pin[0])
        order.insert(0, pin[0])
    results = []
    assign = {}
    used = set()

    def bt(pos: int) -> bool:
        if pos == n:
            results.append(tuple(assign[i] for i in range(1, n + 1)))
            return limit is not None and len(results) >= limit
        v = order[pos]
        for t in (pin[1],) if pin is not None and pos == 0 else range(1, n + 1):
            if t in used:
                continue
            if out_d[t - 1] < out_s[v - 1] or in_d[t - 1] < in_s[v - 1]:
                continue
            ok = True
            for w, u in assign.items():
                if src.has(v, w) and not dst.has(t, u):
                    ok = False
                    break
                if src.has(w, v) and not dst.has(u, t):
                    ok = False
                    break
            if not ok:
                continue
            assign[v] = t
            used.add(t)
            if bt(pos + 1):
                return True
            del assign[v]
            used.remove(t)
        return False

    bt(0)
    return sorted(results)


def rho_U(q: QuasiOrder, u) -> QuasiOrder:
    """Keep the relation inside U, reverse it outside U, drop cross pairs.

    U must be a union of connectivity classes (NotClassUnion otherwise);
    since classes never straddle U, no cross pairs exist to drop and the
    result is again reflexive and transitive (verified).
    """
    part = approx_classes(q)
    uset = frozenset(u)
    if not part.is_union_of_blocks(uset):
        raise NotClassUnion(f"{sorted(uset)} is not a union of classes")
    comp = set(range(1, q.n + 1)) - uset
    new_edges = []
    for (i, j) in q.strict_pairs():
        if i in uset and j in uset:
            new_edges.append((i, j))
        elif i in comp and j in comp:
            new_edges.append((j, i))
        else:
            raise InternalInconsistency("strict pair straddles a class union")
    try:
        return from_edges(q.n, new_edges, close=False)
    except NotClosed as exc:
        raise InternalInconsistency(f"recombined relation not closed: {exc}")


def automorphisms_fix_two_sided_classes(q: QuasiOrder) -> bool:
    """True iff every automorphism maps each mutual-relation class onto
    itself.

    An automorphism (an increasing bijection q -> q) maps mutual classes
    onto mutual classes of the same size. Two vertices of one class have
    the same in-sets and out-sets, so swapping them is an automorphism, and
    an automorphism taking class B onto B' can be composed with such a swap
    inside B' into one sending min(B) to min(B'). Its inverse takes B' back
    onto B. So it suffices to look, for each pair of distinct classes B
    before B' of one size whose minima have the same in- and out-degree,
    for a single automorphism with min(B) pinned to min(B'). Each search
    stops at the first automorphism; when there is none it exhausts the
    backtracking, which can take exponential time (the README gives an
    example).
    """
    classes = two_sided_classes(q).blocks
    rev = reverse(q)

    def degrees(v):
        return q._rows[v - 1].bit_count(), rev._rows[v - 1].bit_count()

    for a, blk in enumerate(classes):
        v = min(blk)
        for other in classes[a + 1:]:
            t = min(other)
            if len(other) != len(blk) or degrees(t) != degrees(v):
                continue
            if _increasing_search(q, q, 1, pin=(v, t)):
                return False
    return True


# --- relation text format ---------------------------------------------------
#
# Line 1: n. Then one pair "i j" per line; '#' comments; diagonal implied.


def parse_relation(text: str):
    """Parse relation text into (n, edge list); closure is the caller's call."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise FormatError("first line must be the vertex count", line=lineno)
            try:
                n = parse_int(parts[0])
            except ValueError as exc:
                raise FormatError("vertex count must be an integer", line=lineno) from exc
            if n < 1:
                raise FormatError("vertex count must be positive", line=lineno)
            continue
        if len(parts) != 2:
            raise FormatError("expected a pair 'i j'", line=lineno)
        try:
            i, j = parse_int(parts[0]), parse_int(parts[1])
        except ValueError as exc:
            raise FormatError("pair entries must be integers", line=lineno) from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise FormatError(f"pair ({i},{j}) outside 1..{n}", line=lineno)
        edges.append((i, j))
    if n is None:
        raise FormatError("empty relation input")
    return n, edges


def format_relation(q: QuasiOrder) -> str:
    lines = [str(q.n)]
    lines.extend(f"{i} {j}" for (i, j) in q.strict_pairs())
    return "\n".join(lines) + "\n"
