"""Quasi-orders (reflexive transitive relations) on {1..n} and the
combinatorics the algebra layer needs from them.

A relation is stored as one bitmask per row, so closure is Warshall over
machine words. All pairs in the public API are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DimensionMismatch,
    FormatError,
    InternalInconsistency,
    NotClassUnion,
    NotClosed,
)
from .tokens import convert, parse_int, plain_tokens, strip_comments, token_lines

# Largest vertex count a relation may have. Each of the n rows is an n-bit
# mask with its own bit set, so even an empty relation holds n^2 bits: about
# 120 MB of process memory at this bound.
MAX_VERTICES = 40_000


def _bits(mask: int):
    """The 1-based positions of the set bits of ``mask``, ascending; one
    step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


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
        return [(i, j) for i, r in enumerate(self._rows, 1) for j in _bits(r)]

    def strict_pairs(self):
        return [
            (i, j)
            for i, r in enumerate(self._rows, 1)
            for j in _bits(r & ~(1 << (i - 1)))
        ]

    def out_set(self, i: int):
        """All j with (i, j) related; contains i itself."""
        return _bits(self._rows[i - 1])

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
    composable pair: the first (i, k), (k, j) with i, then k, then j least.

    Without closure the relation is transitive exactly when row k lies
    inside row i for each given pair (i, k), so the check walks the given
    pairs once; the rows are walked bit by bit only to name the witness.
    """
    if n < 1:
        raise DimensionMismatch("need at least one vertex")
    if not close:
        edges = list(edges)  # walked twice; a generator would be spent
    rows = [1 << i for i in range(n)]
    for (i, j) in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(f"pair ({i},{j}) outside 1..{n}")
        rows[i - 1] |= 1 << (j - 1)
    if close:
        for k in range(n):
            bit = 1 << k
            krow = rows[k]
            if krow == bit:  # nothing to pass on through k
                continue
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= krow
    else:
        for (i, k) in edges:
            if rows[k - 1] & ~rows[i - 1]:
                _raise_first_violation(rows)
    return QuasiOrder(n, rows)


def _raise_first_violation(rows):
    """Raise NotClosed for the first composable (i, k), (k, j) of the rows
    with (i, j) missing, in the order of ``from_edges``'s docstring."""
    for i, ri in enumerate(rows, 1):
        for k in _bits(ri):
            missing = rows[k - 1] & ~ri
            if missing:
                j = _bits(missing)[0]
                raise NotClosed(
                    f"({i},{k}) and ({k},{j}) are present but ({i},{j}) is not",
                    witness=((i, k), (k, j)),
                )


def reverse(q: QuasiOrder) -> QuasiOrder:
    rows = [0] * q.n
    for i, r in enumerate(q._rows):
        bit = 1 << i
        for j in _bits(r):
            rows[j - 1] |= bit
    return QuasiOrder(q.n, rows)


@dataclass(frozen=True)
class ClassPartition:
    """A partition of {1..n} into blocks, ordered by smallest element."""

    n: int
    blocks: tuple

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
    rev = reverse(q)._rows
    seen = 0
    blocks = []
    for i, r in enumerate(q._rows):
        if seen >> i & 1:
            continue
        cls = r & rev[i]
        seen |= cls
        blocks.append(_bits(cls))
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
            for v in _bits(frontier):
                nxt |= adj[v - 1] & ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        blocks.append(_bits(comp))
    return _partition(n, blocks)


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
    This is Kahn's sort: placing a class lowers the in-degree of the classes
    above it, and the least ready class goes next. On p classes the order
    costs O(p^2) steps at most (one ``min`` over the ready list per
    placement); the p x p ``presence`` matrix is of the same size.
    """
    blocks = two_sided_classes(q).blocks
    p = len(blocks)
    cls = [0] * q.n
    for a, blk in enumerate(blocks):
        for v in blk:
            cls[v - 1] = a
    # the classes strictly above each class, read off one row of it
    above = [
        {cls[j - 1] for j in _bits(q._rows[min(blk) - 1])} - {a}
        for a, blk in enumerate(blocks)
    ]
    indeg = [0] * p
    for succ in above:
        for b in succ:
            indeg[b] += 1
    ready = [a for a in range(p) if not indeg[a]]
    placed = []
    while ready:
        nxt = min(ready)  # blocks are ordered by minimum
        ready.remove(nxt)
        placed.append(nxt)
        for b in above[nxt]:
            indeg[b] -= 1
            if not indeg[b]:
                ready.append(b)
    if len(placed) < p:
        raise InternalInconsistency("class order has a cycle")
    pos = [0] * p
    for t, a in enumerate(placed):
        pos[a] = t
    presence = []
    for t, a in enumerate(placed):
        row = [False] * p
        row[t] = True
        for b in above[a]:
            if pos[b] < t:
                raise InternalInconsistency("order not triangular")
            row[pos[b]] = True
        presence.append(tuple(row))
    pi = [0] * q.n
    offset = 0
    for a in placed:
        for t, v in enumerate(sorted(blocks[a]), start=1):
            pi[v - 1] = offset + t
        offset += len(blocks[a])
    return BlockTriangularForm(
        pi=tuple(pi),
        sizes=tuple(len(blocks[a]) for a in placed),
        presence=tuple(presence),
        class_order=tuple(blocks[a] for a in placed),
    )


def rectangle_count(q: QuasiOrder) -> int:
    """The number of position rectangles: row pairs i<k and column pairs
    j<l with all of (i,j), (i,l), (k,j), (k,l) related. Rows i and k share
    the columns of ``row_i & row_k``, so they contribute C(c, 2) for c
    common columns; O(n^2) mask operations, with no rectangle listed. A
    row with fewer than two columns shares no column pair with any row and
    is skipped."""
    rows = [r for r in q._rows if r & (r - 1)]
    total = 0
    for i, ri in enumerate(rows):
        for rk in rows[i + 1:]:
            c = (ri & rk).bit_count()
            total += c * (c - 1) // 2
    return total


class BeatCore(NamedTuple):
    """A core of a quasi-order and the retraction onto it.

    ``retraction[i - 1]`` is the kept vertex r(i); the kept vertices are
    the ones with r(v) = v. ``core`` is the relation they induce, on the
    same labels 1..n, with every other vertex left isolated; it is the
    input itself when every vertex is kept.
    """

    core: QuasiOrder
    retraction: tuple


def _least(s: int, up, down):
    """The least element of the nonempty set ``s`` (a mask of vertices of
    one partial order, 0-based bits, ``up``/``down`` its reflexive up- and
    down-set masks), or None. A walk down from one member reaches a minimal
    element m of s in at most height steps; s has a least element iff it is
    m, i.e. s lies inside the up-set of m."""
    m = (s & -s).bit_length() - 1
    while True:
        below = down[m] & s & ~(1 << m)
        if not below:
            return m if not s & ~up[m] else None
        m = (below & -below).bit_length() - 1


def beat_core(q: QuasiOrder) -> BeatCore:
    """Strip q down to a core by deleting beat points (Stong, "Finite
    topological spaces", 1966).

    First every vertex but the smallest of its mutual class goes, retracting
    to that smallest vertex. The rest is a partial order. Then, lowest
    vertex first, a vertex x goes when its strict up-set among the kept
    vertices has a least element c, or its strict down-set a greatest
    element c; x retracts to c, and the kept vertices comparable to x are
    looked at again. The retraction r composes these steps until it lands
    on a kept vertex. Each step is order-preserving (an element above x is
    at least c, an element below x is below c), so r is order-preserving
    and fixes the kept vertices. What is kept has no beat point and no two
    mutually related vertices.
    """
    n = q.n
    up = q._rows
    # the vertices related to some other vertex; the rest are kept as they are
    active = 0
    for x, row in enumerate(up):
        if row != 1 << x:
            active |= row
    if not active:
        return BeatCore(q, tuple(range(1, n + 1)))
    down = reverse(q)._rows
    target = list(range(n))
    dropped = []
    kept = (1 << n) - 1
    for v in _bits(active):
        x = v - 1
        mates = up[x] & down[x]
        if mates & ((1 << x) - 1):
            target[x] = (mates & -mates).bit_length() - 1
            kept ^= 1 << x
            dropped.append(x)
    dirty = kept & active
    while dirty:
        bit = dirty & -dirty
        dirty ^= bit
        x = bit.bit_length() - 1
        rest = kept ^ bit
        above, below = up[x] & rest, down[x] & rest
        c = _least(above, up, down) if above else None
        if c is None:
            if not below:
                continue
            c = _least(below, down, up)
            if c is None:
                continue
        target[x] = c
        kept = rest
        dropped.append(x)
        dirty |= above | below
    if not dropped:
        return BeatCore(q, tuple(range(1, n + 1)))
    for x in reversed(dropped):
        target[x] = target[target[x]]
    core = QuasiOrder(
        n, [up[x] & kept if kept >> x & 1 else 1 << x for x in range(n)]
    )
    return BeatCore(core, tuple(t + 1 for t in target))


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

    def candidates(pos: int):
        """The images t of order[pos] that fit the vertices placed so far,
        ascending; it reads ``assign`` and ``used`` as it goes."""
        v = order[pos]
        for t in (pin[1],) if pin is not None and pos == 0 else range(1, n + 1):
            if t in used:
                continue
            if out_d[t - 1] < out_s[v - 1] or in_d[t - 1] < in_s[v - 1]:
                continue
            for w, u in assign.items():
                if src.has(v, w) and not dst.has(t, u):
                    break
                if src.has(w, v) and not dst.has(u, t):
                    break
            else:
                yield t

    # depth-first, one candidate iterator per placed vertex: an explicit
    # stack, so the depth is not bound by the interpreter's recursion limit
    stack = [candidates(0)]
    while stack:
        pos = len(stack) - 1
        v = order[pos]
        if v in assign:  # back at this level: undo its last choice
            used.remove(assign.pop(v))
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        assign[v] = t
        used.add(t)
        if pos + 1 < n:
            stack.append(candidates(pos + 1))
            continue
        results.append(tuple(assign[i] for i in range(1, n + 1)))
        if limit is not None and len(results) >= limit:
            break
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

# The format in ASCII digits, spaces and tabs, for plain_tokens. A number
# of more than five digits is out of range (or has leading zeros), so it
# goes to the line walk, and so does one too long for int().
_PLAIN_RELATION = re.compile(
    r"[ \t\n]*[0-9]{1,5}[ \t]*(?:\n[ \t]*(?:[0-9]{1,5}[ \t]+[0-9]{1,5}[ \t]*)?)*"
)


def parse_relation(text: str):
    """Parse relation text into (n, edge list); closure is the caller's call."""
    text = strip_comments(text)
    tokens = plain_tokens(text, _PLAIN_RELATION)
    if tokens:
        values = list(map(int, tokens))
        # every value in 1..n and n within the bound, or the line walk errs
        if min(values) >= 1 and max(values) == values[0] <= MAX_VERTICES:
            pairs = iter(values[1:])
            return values[0], list(zip(pairs, pairs))
    lines = token_lines(text)
    if not lines:
        raise FormatError("empty relation input")
    lineno, parts = lines[0]
    if len(parts) != 1:
        raise FormatError("first line must be the vertex count", line=lineno)
    (n,) = convert(parse_int, parts, lineno, "vertex count must be an integer")
    if n < 1:
        raise FormatError("vertex count must be positive", line=lineno)
    if n > MAX_VERTICES:
        raise FormatError(
            f"vertex count {n} exceeds the limit of {MAX_VERTICES}", line=lineno
        )
    edges = []
    for lineno, parts in lines[1:]:
        if len(parts) != 2:
            raise FormatError("expected a pair 'i j'", line=lineno)
        i, j = convert(parse_int, parts, lineno, "pair entries must be integers")
        if not (1 <= i <= n and 1 <= j <= n):
            raise FormatError(f"pair ({i},{j}) outside 1..{n}", line=lineno)
        edges.append((i, j))
    return n, edges


def format_relation(q: QuasiOrder) -> str:
    lines = [str(q.n)]
    lines.extend(f"{i} {j}" for (i, j) in q.strict_pairs())
    return "\n".join(lines) + "\n"
