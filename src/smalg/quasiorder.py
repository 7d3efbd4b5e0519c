"""Quasi-orders (reflexive transitive relations) on {1..n} and the
combinatorics the algebra layer needs from them.

A relation is stored as one bitmask per row. Closure is one pass of
Tarjan's strongly connected components over the successor lists, a
mutual class is a set of equal rows found by one mask AND per vertex, and
the class order is Kahn's sort on a heap, so each costs O(n + |rho|)
steps, each step one operation on a row of n bits. All pairs in the
public API are 1-based.

What a relation derives is computed at most once per relation object and
kept in it (``_memo``): its connectivity classes, its reverse, its mutual
classes, its block form and its beat-point core here, and the gauge and
the triviality verdict of ``transmap``. So no function takes one of them
as an argument beside the relation.
"""

from __future__ import annotations

from functools import wraps
from heapq import heappop, heappush
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DimensionMismatch,
    FormatError,
    InternalInconsistency,
    NotClassUnion,
    NotClosed,
)
from .tokens import convert, names, parse_int, strip_comments, token_lines

# Largest vertex count a relation may have. Each of the n rows is an n-bit
# mask with its own bit set, so even an empty relation holds n^2 bits: about
# 120 MB of process memory at this bound.
MAX_VERTICES = 40_000


# _BYTE_FLAGS[b] holds the 8 bits of the byte b, lowest first, one byte each
_BYTE_FLAGS = tuple(bytes(b >> k & 1 for k in range(8)) for b in range(256))


def _bits(mask: int):
    """The 1-based positions of the set bits of ``mask``, ascending.

    A sparse mask is walked one set bit at a time; each step rewrites the
    mask, so k bits of an n-bit mask cost k steps of n/64 words. A dense
    mask is spread into one flag byte per bit through ``_BYTE_FLAGS`` and
    the positions are picked out in one linear pass. The walk per bit is
    the faster one up to about 8 + n/8 set bits, and never past about 300
    (timed on n from 8 to 40,000 bits).
    """
    count = mask.bit_count()
    if count <= 300 and 8 * count <= mask.bit_length() + 64:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return out
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    flags = b"".join([_BYTE_FLAGS[b] for b in data])
    return list(compress(range(1, len(flags) + 1), flags))


class QuasiOrder:
    """Immutable reflexive transitive relation on {1..n}.

    ``_derived`` holds the values that ``_memo`` functions have computed
    from the relation, keyed by function.
    """

    __slots__ = ("n", "_rows", "_derived")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self._rows = tuple(rows)
        self._derived = {}

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
    closure is taken (``_closure_rows``, one pass over the pairs); with
    ``close=False`` the edge set must already be transitive, otherwise
    NotClosed reports a violating composable pair: the first (i, k),
    (k, j) with i, then k, then j least.

    Without closure the relation is transitive exactly when row k lies
    inside row i for each given pair (i, k), so the check walks the given
    pairs once; the rows are walked bit by bit only to name the witness.
    """
    if n < 1:
        raise DimensionMismatch("need at least one vertex")
    if close:
        succ = [[] for _ in range(n)]
        for (i, j) in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise DimensionMismatch(f"pair ({i},{j}) outside 1..{n}")
            succ[i - 1].append(j - 1)
        return QuasiOrder(n, _closure_rows(succ))
    edges = list(edges)  # walked twice; a generator would be spent
    rows = [1 << i for i in range(n)]
    for (i, j) in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(f"pair ({i},{j}) outside 1..{n}")
        rows[i - 1] |= 1 << (j - 1)
    for (i, k) in edges:
        if rows[k - 1] & ~rows[i - 1]:
            _raise_first_violation(rows)
    return QuasiOrder(n, rows)


def _closure_rows(succ):
    """The reflexive-transitive closure of the digraph with 0-based
    successor lists ``succ``, as one row mask per vertex.

    Tarjan's strongly connected components (1972), on an explicit stack so
    that a long path does not reach the interpreter's recursion limit. A
    vertex v roots a component when its search is done with low(v) equal
    to its visit number; the component is then the top of the path stack
    down to v. Every successor of a member lies in the component or in one
    completed before it (components come out in reverse topological order),
    so the component's row is the OR of its members' bits and its members'
    successors' rows: those in the component are still 0, the others are
    final. A row is nonzero exactly when its vertex is completed. Each pair
    is read once and each vertex pushed and popped once: O(n + |pairs|)
    steps, each one OR of rows.
    """
    n = len(succ)
    # a vertex with no successor is a component by itself, complete at once
    rows = [0 if out else 1 << x for x, out in enumerate(succ)]
    visit = [0] * n  # visit number from 1; 0 while unvisited
    low = [0] * n
    path = []  # visited vertices whose component is not complete
    count = 0
    for root in range(n):
        if rows[root] or visit[root]:
            continue
        count += 1
        visit[root] = low[root] = count
        path.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, rest = frames[-1]
            for w in rest:
                if rows[w]:  # complete: its row is read when v's is
                    continue
                if not visit[w]:
                    count += 1
                    visit[w] = low[w] = count
                    path.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if visit[w] < low[v]:  # w is on the path
                    low[v] = visit[w]
            else:
                frames.pop()
                if low[v] < visit[v]:  # v is not a root: pass low(v) up
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    continue
                members = []
                row = 0
                while True:
                    x = path.pop()
                    members.append(x)
                    row |= 1 << x
                    for w in succ[x]:
                        row |= rows[w]
                    if x == v:
                        break
                for x in members:
                    rows[x] = row
    return rows


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


def _memo(fn):
    """``fn(q)`` computed on the first call for each relation q and kept in
    ``q._derived``. The value must be immutable, and must not hold q: q
    would then hold itself and outlive its last use until the cyclic
    garbage collector ran."""

    @wraps(fn)
    def kept(q):
        try:
            return q._derived[fn]
        except KeyError:
            value = q._derived[fn] = fn(q)
            return value

    return kept


@_memo
def reverse(q: QuasiOrder) -> QuasiOrder:
    """The relation with every pair turned round."""
    rows = [1 << i for i in range(q.n)]
    for i, r in enumerate(q._rows):
        bit = 1 << i
        if r != bit:  # a row of the diagonal pair alone adds nothing
            for j in _bits(r ^ bit):
                rows[j - 1] |= bit
    return QuasiOrder(q.n, rows)


class ClassPartition(NamedTuple):
    """A partition of {1..n} into blocks, ordered by smallest element."""

    n: int
    blocks: tuple


@_memo
def _mutual_groups(q: QuasiOrder):
    """The mutual classes of q as ascending tuples of vertices, ordered by
    their minimum; see ``two_sided_classes``."""
    rows = q._rows
    counts = [r.bit_count() for r in rows]
    alike = {}  # bit count -> mask of the vertices whose rows have it
    for x, c in enumerate(counts):
        alike[c] = alike.get(c, 0) | 1 << x
    groups = {}  # least member -> the class, filled in ascending order
    for x, r in enumerate(rows):
        mates = r & alike[counts[x]]
        groups.setdefault((mates & -mates).bit_length(), []).append(x + 1)
    return tuple(map(tuple, groups.values()))


def two_sided_classes(q: QuasiOrder) -> ClassPartition:
    """Classes of the mutual relation: i ~ j iff both (i,j) and (j,i).

    In a reflexive transitive relation i ~ j exactly when rows i and j are
    equal. If i ~ j and (j, k) is related then so is (i, k), through j, so
    row j lies inside row i, and the other way round. If the rows are
    equal, j is in row i because it is in its own row, and i in row j.
    For j in row i, row j lies inside row i, so the two are equal exactly
    when they have as many bits. So the class of i is row i cut down to
    the vertices whose rows have as many bits as row i: one mask AND per
    vertex, whose lowest bit names the class. Walked in ascending i, the
    classes come out ordered by their minimum. (A dict keyed by the rows
    themselves would hash each mask, and Python hashes an int modulo
    2^61 - 1, so rows that differ in one power of two fall into 61 hash
    values: grouping the rows 1 + 2^k + 2^(n-1) that way took 16 s at
    n = 40,000.)
    """
    return ClassPartition(q.n, tuple(map(frozenset, _mutual_groups(q))))


@_memo
def approx_classes(q: QuasiOrder) -> ClassPartition:
    """Connected components of the symmetrized strict relation: a search
    that adds the row and the column of each vertex it reaches. Each
    search starts at the least vertex not yet reached, so the components
    come out ordered by their minimum."""
    n = q.n
    rows, cols = q._rows, reverse(q)._rows
    seen = 0
    blocks = []
    for i in range(n):
        if seen >> i & 1:
            continue
        comp = frontier = 1 << i
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= rows[v - 1] | cols[v - 1]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        blocks.append(frozenset(_bits(comp)))
    return ClassPartition(n, tuple(blocks))


def class_union(q: QuasiOrder, u) -> frozenset:
    """u as a frozenset, checked to be a union of connectivity classes of q
    (NotClassUnion otherwise): the union of the classes it meets. The
    classes partition 1..n, so a vertex outside 1..n is in none of them."""
    uset = frozenset(u)
    if uset != frozenset().union(*(b for b in approx_classes(q).blocks if b & uset)):
        raise NotClassUnion(f"{sorted(uset)} is not a union of classes")
    return uset


class BlockTriangularForm(NamedTuple):
    """Renumbering onto a block upper-triangular pattern.

    ``pi`` relabels old index i to pi(i); ``sizes`` are the diagonal block
    sizes in order; ``presence[a]`` is a ``bytes`` row whose byte b is 1
    when the full block (a, b) is inside the relabeled relation and 0
    otherwise; ``class_order`` lists the mutual-relation classes in the
    order they were laid out.
    """

    pi: tuple
    sizes: tuple
    presence: tuple
    class_order: tuple


@_memo
def block_triangular_form(q: QuasiOrder) -> BlockTriangularForm:
    """Topologically order the mutual-relation classes and renumber.

    Among classes whose strict predecessors are all placed, the one with the
    smallest minimum element goes first, so the output is reproducible.
    This is Kahn's sort: placing a class lowers the in-degree of the classes
    above it, and the least ready class goes next. The classes are indexed
    by their minimum, so a heap of ready indices gives that class. The
    classes above a class are read off the row of its minimum, so the sort
    costs O(n + |rho|) steps and the heap O(p log p) on p classes; the p x p
    ``presence`` matrix, one byte a block, is the one part of size p^2.
    """
    blocks = _mutual_groups(q)
    p = len(blocks)
    cls = [0] * q.n
    mins = 0  # the minimum of each class, as a mask
    for a, blk in enumerate(blocks):
        mins |= 1 << (blk[0] - 1)
        for v in blk:
            cls[v - 1] = a
    rows = q._rows
    # the classes strictly above each class: the other classes' minima in
    # the row of its minimum, each class once
    above = []
    for blk in blocks:
        m = blk[0] - 1
        above.append([cls[j - 1] for j in _bits((rows[m] & mins) ^ (1 << m))])
    indeg = [0] * p
    for succ in above:
        for b in succ:
            indeg[b] += 1
    ready = [a for a in range(p) if not indeg[a]]  # ascending, so a heap
    placed = []
    while ready:
        nxt = heappop(ready)
        placed.append(nxt)
        for b in above[nxt]:
            indeg[b] -= 1
            if not indeg[b]:
                heappush(ready, b)
    if len(placed) < p:
        raise InternalInconsistency("class order has a cycle")
    pos = [0] * p
    for t, a in enumerate(placed):
        pos[a] = t
    presence = []
    for t, a in enumerate(placed):
        row = bytearray(p)
        row[t] = 1
        for b in above[a]:
            c = pos[b]
            if c < t:
                raise InternalInconsistency("order not triangular")
            row[c] = 1
        presence.append(bytes(row))
    pi = [0] * q.n
    offset = 0
    for a in placed:
        for t, v in enumerate(blocks[a], start=offset + 1):
            pi[v - 1] = t
        offset += len(blocks[a])
    return BlockTriangularForm(
        pi=tuple(pi),
        sizes=tuple(len(blocks[a]) for a in placed),
        presence=tuple(presence),
        class_order=tuple(frozenset(blocks[a]) for a in placed),
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
    topological spaces", 1966); see ``_beat_core``."""
    core, retraction = _beat_core(q)
    return BeatCore(q if core is None else core, retraction)


@_memo
def _beat_core(q: QuasiOrder):
    """The core and the retraction of ``beat_core``, with None for a core
    that is q itself, which the value kept in q must not hold.

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
        return None, tuple(range(1, n + 1))
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
        return None, tuple(range(1, n + 1))
    for x in reversed(dropped):
        target[x] = target[target[x]]
    core = QuasiOrder(
        n, [up[x] & kept if kept >> x & 1 else 1 << x for x in range(n)]
    )
    return core, tuple(t + 1 for t in target)


def first_unsupported(positions, q: QuasiOrder):
    """The least pair (i, j) that q does not relate among the nonzero
    entries of an n x n matrix (n = q.n), or None. ``positions`` are the
    0-based row-major positions of those entries, ascending, as
    ``exactnum._nonzero_positions`` gives them: that is the lexicographic
    order of their pairs, so the first that fails is the least, and the
    rest are not read."""
    n, rows = q.n, q._rows
    for k in positions:
        i, j = divmod(k, n)
        if not rows[i] >> j & 1:
            return i + 1, j + 1
    return None


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
    keeps only the bijections with pi(v) = t.

    An image t fits v when the images of v's placed successors lie in
    t's row of dst and those of its placed predecessors in t's column.
    Both image masks are built once per level, over the placed vertices
    of v's row and column, and the candidates are the unused images,
    walked lowest first from one mask.

    When src and dst have the same number of pairs, every increasing
    bijection pi is an isomorphism: it sends the pairs of src to pairs of
    dst, distinct pairs to distinct ones since pi is injective, so onto the
    equally many pairs of dst. Then (x, w) is a pair of src exactly when
    (pi(x), pi(w)) is one of dst, and pi(x) has the out- and in-degree of
    x. So an image t of another degree than v lies in no solution; leaving
    it out keeps every solution and the order in which they are found.
    Otherwise only images of smaller degree are left out.
    """
    n = src.n
    out_src, out_dst = src._rows, dst._rows
    in_src = reverse(src)._rows
    in_dst = in_src if dst is src else reverse(dst)._rows
    out_s = [r.bit_count() for r in out_src]
    in_s = [r.bit_count() for r in in_src]
    out_d = [r.bit_count() for r in out_dst]
    in_d = [r.bit_count() for r in in_dst]
    same = sum(out_s) == sum(out_d)
    order = sorted(range(n), key=lambda x: (-out_s[x], x))
    if pin is not None:
        order.remove(pin[0] - 1)
        order.insert(0, pin[0] - 1)
    results = []
    everything = (1 << n) - 1
    image = [0] * n  # pi(x + 1) - 1 for each placed x, 0-based
    placed = 0  # the placed vertices of src, as a mask
    used = 0  # their images in dst

    def candidates(pos: int):
        """The images t of order[pos] that fit the vertices placed so far,
        ascending, 1-based."""
        x = order[pos]
        succ_img = pred_img = 0
        for w in _bits(out_src[x] & placed):
            succ_img |= 1 << image[w - 1]
        for w in _bits(in_src[x] & placed):
            pred_img |= 1 << image[w - 1]
        if pin is not None and pos == 0:
            free = 1 << (pin[1] - 1)
        else:
            free = everything ^ used  # the unused images
        while free:
            low = free & -free
            free ^= low
            y = low.bit_length() - 1
            if same:
                if out_d[y] != out_s[x] or in_d[y] != in_s[x]:
                    continue
            elif out_d[y] < out_s[x] or in_d[y] < in_s[x]:
                continue
            if succ_img & ~out_dst[y] or pred_img & ~in_dst[y]:
                continue
            yield y + 1

    # depth-first, one candidate iterator per placed vertex: an explicit
    # stack, so the depth is not bound by the interpreter's recursion limit
    stack = [candidates(0)]
    while stack:
        pos = len(stack) - 1
        x = order[pos]
        if placed >> x & 1:  # back at this level: undo its last choice
            placed ^= 1 << x
            used ^= 1 << image[x]
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        image[x] = t - 1
        placed |= 1 << x
        used |= 1 << (t - 1)
        if pos + 1 < n:
            stack.append(candidates(pos + 1))
            continue
        results.append(tuple(y + 1 for y in image))
        if limit is not None and len(results) >= limit:
            break
    return sorted(results)


def rho_U(q: QuasiOrder, u) -> QuasiOrder:
    """Keep the relation inside U, reverse it outside U.

    U must be a union of connectivity classes (NotClassUnion otherwise).
    Every pair of q lies inside one class, so inside U or outside it, and
    no pair straddles U: the row of i is q's row for i in U and the row of
    reverse(q) otherwise. That is the disjoint union of q on U and the
    reverse of q on the rest; the reverse of a quasi-order is one, and a
    disjoint union of quasi-orders is one, so the result is reflexive and
    transitive.
    """
    uset = class_union(q, u)
    rows = zip(q._rows, reverse(q)._rows)
    return QuasiOrder(q.n, [r if i in uset else b for i, (r, b) in enumerate(rows, 1)])


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
    rows, cols = q._rows, reverse(q)._rows
    # the minima of the classes of each (size, out-degree, in-degree), in
    # class order; each class is tried against the later ones of its group
    groups = {}
    tries = []
    for blk in _mutual_groups(q):
        v = blk[0]
        key = (len(blk), rows[v - 1].bit_count(), cols[v - 1].bit_count())
        group = groups.setdefault(key, [])
        tries.append((v, group, len(group)))
        group.append(v)
    for v, group, k in tries:
        for t in group[k + 1:]:
            if _increasing_search(q, q, 1, pin=(v, t)):
                return False
    return True


# --- relation text format ---------------------------------------------------
#
# Line 1: n. Then one pair "i j" per line; '#' comments; diagonal implied.

def parse_relation(text: str):
    """Parse relation text into (n, edge list); closure is the caller's call.

    A pair of names is looked up (``names``): a dense relation repeats each
    name at many places, and its lines are not kept.
    """
    lines = token_lines(strip_comments(text))
    lineno, parts = next(lines, (None, None))
    if parts is None:
        raise FormatError("empty relation input")
    if len(parts) != 1:
        raise FormatError("first line must be the vertex count", line=lineno)
    (n,) = convert(parse_int, parts, lineno, "vertex count must be an integer")
    if n < 1:
        raise FormatError("vertex count must be positive", line=lineno)
    if n > MAX_VERTICES:
        raise FormatError(
            f"vertex count {n} exceeds the limit of {MAX_VERTICES}", line=lineno
        )
    name = names(n)
    edges = []
    for lineno, parts in lines:
        if len(parts) != 2:
            raise FormatError("expected a pair 'i j'", line=lineno)
        i, j = pair = name(parts[0]), name(parts[1])
        if i is None or j is None:
            i, j = pair = tuple(
                convert(parse_int, parts, lineno, "pair entries must be integers")
            )
            if not (1 <= i <= n and 1 <= j <= n):
                raise FormatError(f"pair ({i},{j}) outside 1..{n}", line=lineno)
        edges.append(pair)
    return n, edges


def format_relation(q: QuasiOrder) -> str:
    """n, then one line "i j" per strict pair, sorted: the lines of row i
    are one join of its names, each vertex named once."""
    names = list(map(str, range(q.n + 1)))
    lines = [names[q.n]]
    for i, r in enumerate(q._rows, 1):
        strict = r & ~(1 << (i - 1))
        if strict:
            head = names[i] + " "
            lines.append(head + ("\n" + head).join([names[j] for j in _bits(strict)]))
    return "\n".join(lines) + "\n"
