"""Transitive weight maps on a quasi-order and their triviality theory.

A transitive map assigns a nonzero scalar to every related pair, equal to 1
on the diagonal, multiplicatively compatible along compositions. It is
trivial when it factors as g(i, j) = s(i) / s(j); the induced entrywise
scaling of the algebra is then an inner conjugation by diag(s).

Whether every transitive map on a given quasi-order is trivial is decided
exactly, on the relation's beat-point core, which has the same answer (see
``all_transitive_trivial``). The core's maps are put in the gauge of a
spanning forest: modulo the trivial maps, each is exactly one map that is
1 on the forest (``_gauge``). Its values off the forest are then bound
only by the multiplicative relations, with the forest's columns dropped,
and one sparse integer system R_N of them serves every question. One
Smith reduction of it (``intlattice.lattice``) gives both answers: its
factors decide, and a column of its transform, a vector of the kernel
over Z or over GF(2), is the nontrivial map that backs a negative answer,
with no random numbers. The gauge and the verdict are each computed at
most once per relation (``quasiorder._memo``), so a negative
``all-trivial`` runs one reduction for the verdict and its map. As
processes on a 2-core x86-64 host with Python 3.11, ``all-trivial`` takes
0.29 s and 23 MB on the ordinal sum of twenty 2-point antichains beside a
bowtie, and 0.21 s and 24 MB with the bowtie glued at its top (4.8 s and
138 MB, and 6.4 s and 163 MB, with a dense column reduction over every
strict pair). The seeded sampler over the kernel of all the relations,
``random_transitive_map``, lives in ``smalg.sampling``.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import NamedTuple, Optional

from .errors import (
    DimensionMismatch,
    FormatError,
    InternalInconsistency,
    NotTransitive,
    SupportViolation,
    ZeroWeight,
)
from .exactnum import (
    DenseMatrix,
    GaussianRational,
    ONE,
    _nonzero_positions,
    _scalar,
    scalar,
)
from .intlattice import lattice
from .quasiorder import BeatCore, QuasiOrder, _memo, beat_core, first_unsupported
from .tokens import convert, names, parse_int, strip_comments, token_lines


class TransitiveMap:
    """Validated weight assignment on the strict pairs of a quasi-order.

    ``_w`` holds the strict pairs in sorted order (``validate`` builds it
    so), and the triviality walk reads them in that order. ``_forest`` is
    the map's spanning forest (``_Forest``): ``validate`` keeps the one it
    checked the map against, and a map constructed directly, which must
    weigh every strict pair, builds it on first use.
    """

    __slots__ = ("rho", "_w", "_forest")

    def __init__(self, rho: QuasiOrder, weights):
        self.rho = rho
        self._w = dict(weights)
        self._forest = None

    def value(self, i: int, j: int) -> GaussianRational:
        if i == j and 1 <= i <= self.rho.n:
            return ONE
        try:
            return self._w[(i, j)]
        except KeyError:
            raise SupportViolation(f"({i},{j}) is not in the relation", pair=(i, j))

    def items(self):
        return list(self._w.items())

    def __eq__(self, other):
        if not isinstance(other, TransitiveMap):
            return NotImplemented
        return self.rho == other.rho and self._w == other._w

    def __repr__(self):
        return f"TransitiveMap({self._w})"


class _Forest(NamedTuple):
    """A spanning forest of the symmetrized strict relation and its
    potentials, as ``_spanning_forest`` builds them.

    ``potentials[v]`` is s(v) as an integer triple (p, q, d), the number
    (p + q i) / d in lowest terms with d > 0; ``parent[v]`` is (u, pair)
    for the tree pair that reached v from u, None at a root (index 0 is
    unused in both); ``first`` is the first pair of the map, in its order,
    where g(i, j) differs from s(i)/s(j), or None when there is none.
    """

    potentials: list
    parent: list
    first: Optional[tuple]


def _forest(g: TransitiveMap) -> _Forest:
    f = g._forest
    if f is None:
        f = g._forest = _spanning_forest(g.rho, g._w)
    return f


def _spanning_forest(rho: QuasiOrder, w: dict) -> _Forest:
    """Spanning-forest potentials of the symmetrized strict relation, and
    the first pair of ``w`` that fails them.

    Per connected component the lowest vertex is the root with potential 1.
    The search is breadth first and reaches the unreached neighbours of a
    vertex in ascending order, off one mask of its row and its column (the
    column read off the pairs of ``w``, one step a pair). A tree pair
    (v, u) gives s(u) = s(v) / g(v, u), and a tree pair (u, v) gives
    s(u) = g(u, v) s(v), on integer triples brought to lowest terms. Each
    pair (i, j) of ``w`` is then checked as g(i, j) s(j) = s(i), cross-
    multiplied (``_failing_pairs``).

    A vertex u related both ways to v is reached along (v, u), the lesser
    of the two pairs, as v is then the root: else v was reached from some
    w related to v, w != u, and by transitivity w is related to u too, so
    u was reached by w's turn, before v's.
    """
    n = rho.n
    rows = rho._rows
    cols = [0] * n
    for (i, j) in w:
        cols[j - 1] |= 1 << (i - 1)
    pot = [None] * (n + 1)
    parent = [None] * (n + 1)
    unseen = (1 << n) - 1  # bit v - 1 for each vertex v not yet reached
    while unseen:
        low = unseen & -unseen
        unseen ^= low
        root = low.bit_length()
        pot[root] = (1, 0, 1)
        queue = [root]
        for v in queue:  # grows while it is walked: breadth first
            out, inn = rows[v - 1], cols[v - 1]
            new = (out | inn) & unseen
            if not new:
                continue
            unseen ^= new
            p, q, d = pot[v]
            while new:
                bit = new & -new
                new ^= bit
                u = bit.bit_length()
                forward = out & bit
                edge = (v, u) if forward else (u, v)
                x = w[edge]
                a, b, c = x.p, x.q, x.d
                if b or q:
                    if forward:
                        # s(v) / x = c (p + q i)(a - b i) / (d (a^2 + b^2))
                        t = c * (p * a + q * b)
                        e = c * (q * a - p * b)
                        f = d * (a * a + b * b)
                    else:
                        t, e, f = a * p - b * q, a * q + b * p, c * d
                elif forward:  # (p / d) / (a / c), the sign on the numerator
                    t, e, f = (p * c, 0, d * a) if a > 0 else (-p * c, 0, -d * a)
                else:
                    t, e, f = a * p, 0, c * d
                g = gcd(t, e, f)
                pot[u] = (t, e, f) if g == 1 else (t // g, e // g, f // g)
                parent[u] = (v, edge)
                queue.append(u)
    return _Forest(pot, parent, next(_failing_pairs(w, pot), None))


def _failing_pairs(w: dict, pot: list):
    """The pairs (i, j) of ``w``, in its order, with g(i, j) s(j) != s(i)
    for the potentials ``pot``: (a + b i)/c (p_j + q_j i)/d_j against
    (p_i + q_i i)/d_i, both parts multiplied out by c d_i d_j."""
    for (i, j), x in w.items():
        a, b, c = x.p, x.q, x.d
        pi, qi, di = pot[i]
        pj, qj, dj = pot[j]
        if b or qi or qj:
            if (a * pj - b * qj) * di != pi * c * dj or (
                (a * qj + b * pj) * di != qi * c * dj
            ):
                yield (i, j)
        elif a * pj * di != pi * c * dj:
            yield (i, j)


def _out_lists(strict):
    """The k of each (j, k) in ``strict``, grouped by j. Sorted pairs give
    ascending lists, so composable pairs come in (i, j, k) order."""
    out = {}
    for (j, k) in strict:
        out.setdefault(j, []).append(k)
    return out


def _check_composable(strict, w) -> None:
    """Raise NotTransitive for the first composable pair (i, j), (j, k) of
    the sorted ``strict`` pairs, in (i, j, k) order, whose product breaks
    transitivity: g(i, j) g(j, k) != g(i, k), or != 1 when k = i."""
    out = _out_lists(strict)
    for (i, j) in strict:
        for k in out.get(j, ()):
            prod = w[(i, j)] * w[(j, k)]
            if i == k:
                if prod != ONE:
                    raise NotTransitive(
                        f"g({i},{j}) g({j},{k}) != 1 on a two-sided pair",
                        witness=((i, j), (j, k)),
                    )
            elif prod != w[(i, k)]:
                raise NotTransitive(
                    f"g({i},{j}) g({j},{k}) != g({i},{k})",
                    witness=((i, j), (j, k)),
                )


def validate(rho: QuasiOrder, weights) -> TransitiveMap:
    """Check coverage, nonvanishing and multiplicative transitivity.

    ``weights`` maps each strict pair to a scalar (anything ``scalar``
    accepts). Composable pairs must multiply consistently; a two-sided pair
    must multiply to 1 with its reverse. The first key, in the order of
    ``weights``, that is diagonal, outside the relation or weighs zero is
    reported; then the first strict pair with no weight; then the first
    composable pair (i, j), (j, k), in (i, j, k) order, that fails.

    The map is checked against its spanning-forest potentials first
    (``_spanning_forest``), in O(n + |rho|) steps. If every strict pair
    passes, g(i, j) = s(i)/s(j) on all of them, with every s(v) nonzero
    (a potential is a product of nonzero weights and their inverses), and
    such a map is transitive: for composable (i, j), (j, k) with i != k,
    (i, k) is a strict pair by transitivity and g(i, j) g(j, k) =
    s(i)/s(j) s(j)/s(k) = s(i)/s(k) = g(i, k); for k = i the product is
    s(i)/s(j) s(j)/s(i) = 1. So the composable pairs, whose number grows
    faster than n + |rho|, are walked only when some pair fails: the walk
    then tells a map that is not transitive from a transitive map that is
    not trivial. The forest stays with the map for ``triviality_witness``.
    """
    n, rows = rho.n, rho._rows
    w = {}
    for key, val in dict(weights).items():
        i, j = key
        if i == j or not (0 < i <= n and 0 < j <= n and rows[i - 1] >> (j - 1) & 1):
            if i == j:
                raise SupportViolation(
                    f"diagonal weight ({i},{j}) must not be given", pair=(i, j)
                )
            raise SupportViolation(f"({i},{j}) is not in the relation", pair=(i, j))
        v = val if type(val) is GaussianRational else scalar(val)
        if not (v.p or v.q):
            raise ZeroWeight(f"weight at ({i},{j}) is zero")
        w[(i, j)] = v
    # every key is a strict pair, so the weights cover them iff they count them
    if len(w) < sum(r.bit_count() for r in rows) - n:
        missing = next(p for p in rho.strict_pairs() if p not in w)
        raise SupportViolation(f"missing weight for {missing}", pair=missing)
    keys = list(w)
    strict = sorted(keys)
    if keys != strict:
        w = {p: w[p] for p in strict}
    forest = _spanning_forest(rho, w)
    if forest.first is not None:
        _check_composable(strict, w)
    g = TransitiveMap(rho, w)
    g._forest = forest
    return g


def apply_induced(g: TransitiveMap, x: DenseMatrix) -> DenseMatrix:
    """Entrywise scaling: position (i, j) is multiplied by g(i, j).

    The input must be supported inside the relation.
    """
    n = g.rho.n
    if x.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {x.shape} does not match n={n}")
    bad = first_unsupported(_nonzero_positions(x), g.rho)
    if bad is not None:
        raise SupportViolation(
            "nonzero entry at ({},{}) outside the relation".format(*bad), pair=bad
        )
    return DenseMatrix.from_entries(
        n, n, {(i, j): g.value(i, j) * x.at(i, j) for (i, j) in x.support()}
    )


class TrivialityCertificate(NamedTuple):
    """Outcome of the triviality decision.

    Separator case: ``separator`` maps every vertex to a nonzero scalar with
    g(i, j) = s(i)/s(j) on all strict pairs. Violation case: ``walk`` is a
    closed walk of strict pairs, each with direction +1 or -1, whose
    alternating product ``product`` differs from 1.
    """

    separator: Optional[dict] = None
    walk: Optional[tuple] = None
    product: Optional[GaussianRational] = None

    @property
    def is_trivial(self) -> bool:
        return self.separator is not None


def walk_product(g: TransitiveMap, walk) -> GaussianRational:
    total = ONE
    for (pair, direction) in walk:
        v = g.value(*pair)
        if not _is_one(v):
            total = total * (v if direction == 1 else v.reciprocal())
    return total


def _is_one(x: GaussianRational) -> bool:
    # most weights of the constructed and pulled-back maps are 1, and the
    # test is cheaper than a product
    return x.p == 1 and x.d == 1 and not x.q


def triviality_witness(g: TransitiveMap) -> TrivialityCertificate:
    """Decide triviality by spanning-tree potentials.

    Every strict pair is checked against the potentials of
    ``_spanning_forest``, which ``validate`` has already built. With no
    failing pair the potentials are the separator; otherwise the first
    failing pair closes a walk through the tree whose product is the
    certificate.
    """
    forest = _forest(g)
    bad = forest.first
    if bad is None:
        pot = forest.potentials
        return TrivialityCertificate(
            separator={v: _scalar(*pot[v]) for v in range(1, g.rho.n + 1)}
        )
    parent = forest.parent

    def steps_to_root(v):
        out = []
        while parent[v] is not None:
            u, edge = parent[v]
            out.append((edge, 1 if edge[0] == v else -1))
            v = u
        return out

    i, j = bad
    walk = [((i, j), 1)]
    walk.extend(steps_to_root(j))
    walk.extend((e, -d) for (e, d) in reversed(steps_to_root(i)))
    walk = tuple(walk)
    prod = walk_product(g, walk)
    if prod == ONE:
        raise InternalInconsistency("violation walk with unit product")
    return TrivialityCertificate(walk=walk, product=prod)


def shortest_unbalanced_cycle(g: TransitiveMap):
    """A shortest cycle of the graph B whose label product is not 1.

    B has a row vertex and a column vertex for each index and one edge
    row i - column j, labelled g(i, j), for each pair (i, j) of the
    relation, diagonal pairs included. A cycle through rows i_1..i_m and
    columns j_1..j_m is returned as its 2m pairs in cycle order; the last
    pair closes it. None means every cycle is balanced, i.e. g is trivial.

    Every unbalanced cycle uses a strict pair that fails the spanning-forest
    potentials (the others have label 1 after the gauge s(i)/s(j)), so BFS
    with potentials starts only from the row ends of those pairs. A BFS from
    a vertex of a shortest unbalanced cycle of length L meets an unbalanced
    non-tree edge whose closed walk has length at most L; cutting the walk
    at the lowest common ancestor leaves a cycle with the same product (Itai
    and Rodeh's girth search, with potentials).
    """
    rho = g.rho
    forest = _forest(g)
    if forest.first is None:
        return None
    failing = _failing_pairs(g._w, forest.potentials)
    # row i is vertex i, column j is vertex -j
    adj = {}
    label = {}
    for (i, j) in rho.pairs():
        adj.setdefault(i, []).append(-j)
        adj.setdefault(-j, []).append(i)
        label[(i, j)] = g.value(i, j)
    best = None
    for start in sorted({i for (i, _) in failing}):
        pot = {start: ONE}
        parent = {start: None}
        depth = {start: 0}
        layer, d = [start], 0
        found = None
        # a non-tree edge met from layer d closes a walk of length 2d + 2
        while layer and found is None and (best is None or 2 * d + 2 < len(best)):
            nxt = []
            for x in layer:
                for y in adj[x]:
                    row, col = (x, y) if x > 0 else (y, x)
                    w = label[(row, -col)]
                    if y not in pot:
                        pot[y] = pot[x] * w if x > 0 else pot[x] / w
                        parent[y] = x
                        depth[y] = d + 1
                        nxt.append(y)
                    elif depth[y] > d and parent[y] != x and pot[col] != pot[row] * w:
                        found = (x, y)
                        break
                if found is not None:
                    break
            layer, d = nxt, d + 1
        if found is not None:
            cycle = _cycle_through(parent, *found)
            if best is None or len(cycle) < len(best):
                best = cycle
    return best


def _cycle_through(parent, x, y):
    """The pairs of the cycle closed by the non-tree edge x - y (y one layer
    below x), cut at the lowest common ancestor of x and y."""
    left, right = [x], [y, parent[y]]
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    vertices = left[::-1] + right[:-1]
    pairs = []
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        pairs.append((a, -b) if a > 0 else (b, -a))
    return tuple(pairs)


def _relation_vectors(rho: QuasiOrder, column: Optional[dict] = None):
    """The strict pairs in sorted order, and one sparse integer row
    {column: coefficient} per multiplicative relation: g(i, j) g(j, k) =
    g(i, k) for composable pairs, g(i, j) g(j, i) = 1 once per two-sided
    pair. ``column`` maps a pair to its column, by default its index among
    the sorted pairs, and a pair it leaves out is dropped from the rows.
    Over all the pairs the rows span the relation lattice."""
    edges = sorted(rho.strict_pairs())
    idx = {e: t for t, e in enumerate(edges)} if column is None else column
    out = _out_lists(edges)
    rows = []
    for (i, j) in edges:
        a = idx.get((i, j))
        for k in out.get(j, ()):
            if i != k:
                terms = ((a, 1), (idx.get((j, k)), 1), (idx.get((i, k)), -1))
            elif i < j:
                terms = ((a, 1), (idx.get((j, i)), 1))
            else:
                continue
            rows.append({t: v for t, v in terms if t is not None})
    return edges, rows


@_memo
def _gauge(q: QuasiOrder):
    """The strict pairs of q, those off its spanning forest, and the
    reduction (``intlattice.lattice``) of the relation rows over the latter
    (``_relation_vectors``), None if q has no strict pair: its Smith
    factors and its kernel bases over Z and GF(2). The verdict and the
    nontrivial map both read it, so it runs once per relation.

    Every transitive map equals, modulo a trivial map, exactly one map that
    is 1 on the pairs of the forest that ``_spanning_forest`` walks. It
    exists: divide g by the trivial map s(i)/s(j) of its forest potentials.
    It is unique: a trivial map that is 1 on a spanning forest has
    potentials constant on each component, so it is 1 everywhere. So the
    transitive maps modulo the trivial ones, with values in an abelian group
    A, are Hom(Z^N / R_N, A): N is the pairs off the forest, R_N the
    relation rows without the forest's columns. A forest holds no triangle
    (i, j), (j, k), (i, k) and no two-sided pair both ways, so no row is
    left empty.
    """
    edges = tuple(q.strict_pairs())
    if not edges:
        return (), (), None
    parent = _spanning_forest(q, dict.fromkeys(edges, ONE)).parent
    tree = {p[1] for p in parent if p is not None}
    off = tuple(e for e in edges if e not in tree)
    rows = _relation_vectors(q, {e: t for t, e in enumerate(off)})[1]
    return edges, off, lattice(rows, len(off))


@_memo
def all_transitive_trivial(rho: QuasiOrder) -> bool:
    """True iff every transitive map on rho is trivial.

    In the gauge of ``_gauge`` that is Hom(Z^N / R_N, A) = 0 for every
    abelian group A of values (for the nonzero complex numbers already),
    i.e. Z^N / R_N = 0: the Smith invariant factors of R_N are |N| ones.
    Rational rank alone would miss root-of-unity-valued maps. Z^N / R_N is
    the first homology of the complex on vertices, strict pairs and
    composable triples.

    The test runs on the beat-point core of rho (``beat_core``), and a core
    with no strict pair answers True with no Smith form. That gives the
    same answer. Let x be deleted with least element c above it, and
    restrict from P to P - x. Every map g on P - x extends to P, as g after
    the retraction x -> c. If the restriction of a map G is trivial,
    s(i)/s(j), then so is G, with s(x) = G(x, c) s(c): for y > x, G(x, y) =
    G(x, c) G(c, y) = s(x)/s(y) (c <= y), and for y < x, G(y, x) G(x, c) =
    G(y, c) = s(y)/s(c) gives G(y, x) = s(y)/s(x). A greatest element below
    x is the mirror case, and a vertex x with a mutually related c is the
    case where c is both. So restriction is a bijection on maps modulo
    trivial ones, for every A, and the inclusion of the core induces an
    isomorphism on homology.
    """
    _, off, reduced = _gauge(beat_core(rho).core)
    return not off or reduced[0] == [1] * len(off)


def _signed_powers(edges, expo, signs) -> dict:
    """The weights (-1)^signs[t] 2^expo[t] on edge t."""
    weights = {}
    for e, x, sign in zip(edges, expo, signs):
        mag = scalar(2**x) if x >= 0 else scalar(2**-x).reciprocal()
        weights[e] = -mag if sign else mag
    return weights


def _pull_back(rho: QuasiOrder, core: BeatCore, weights) -> dict:
    """The weights of g after the retraction r on the strict pairs of rho:
    g(r(i), r(j)), and 1 where r(i) = r(j)."""
    r = core.retraction
    # the core's weights sit on its strict pairs only, so (a, a) gets 1
    return {
        (i, j): weights.get((r[i - 1], r[j - 1]), ONE) for (i, j) in rho.strict_pairs()
    }


def nontrivial_transitive_map(rho: QuasiOrder) -> Optional[TransitiveMap]:
    """A nontrivial map of the core with values +-2^k, pulled back to rho,
    validated and checked nontrivial; None if the core has none.

    The search runs on the beat-point core of rho (``beat_core``), in the
    gauge of ``_gauge``: a map that is 1 on the core's forest is transitive
    iff its values off the forest are a point of Hom(Z^N / R_N, A), and it
    is trivial only when it is 1 everywhere. So every nonzero vector of the
    kernel of R_N gives a nontrivial map: 2^b for an integer vector b,
    (-1)^c for a GF(2) vector c. The map is built from the first vector of
    the gauge's kernel bases, over Z if there is one and else over GF(2),
    and is 1 on the rest of the core's pairs. The obstruction group
    Z^N / R_N is a free part, which the kernel over Z detects, plus
    torsion; the kernel over GF(2) detects even torsion, and odd torsion
    has no nontrivial Gaussian-rational values (the roots of unity there
    are +-1, +-i). So None after a negative answer of
    ``all_transitive_trivial`` means the only obstruction is odd torsion.
    The map g of the core comes back as g after the retraction, which is
    transitive because the retraction is order-preserving, and nontrivial
    because it restricts to g on the core. By the bijection of
    ``all_transitive_trivial``, rho has a nontrivial +-2^k map iff its
    core has one.
    """
    core = beat_core(rho)
    q = core.core
    edges, off, reduced = _gauge(q)
    if not off:
        return None
    _, kernel = reduced
    zeros = [0] * len(off)
    found = next(((vec, zeros) for vec in kernel()), None)
    if found is None:
        found = next(((zeros, vec) for vec in kernel(True)), None)
    if found is None:
        return None
    weights = dict.fromkeys(edges, ONE)
    weights.update(_signed_powers(off, *found))
    g = validate(rho, weights if q is rho else _pull_back(rho, core, weights))
    if _forest(g).first is None:
        raise InternalInconsistency("the weight map found nontrivial is trivial")
    return g


# --- weight text format -----------------------------------------------------
#
# One line per strict pair: "i j literal"; '#' comments.

def parse_weights(text: str, rho: QuasiOrder) -> TransitiveMap:
    # a map repeats few values: each literal is read once per file
    value = cache(GaussianRational.from_literal)
    name = names(rho.n)
    weights = {}
    try:
        for lineno, parts in token_lines(strip_comments(text)):
            if len(parts) != 3:
                raise FormatError("expected 'i j value'", line=lineno)
            i, j = pair = name(parts[0]), name(parts[1])
            if i is None or j is None:
                i, j = pair = tuple(
                    convert(parse_int, parts[:2], lineno, "pair entries must be integers")
                )
            if pair in weights:
                raise FormatError(f"duplicate pair ({i},{j})", line=lineno)
            weights[pair] = value(parts[2])
    except FormatError as exc:
        if exc.line is not None:
            raise
        # a bad literal, on the line the walk stopped at
        raise FormatError(str(exc), line=lineno) from exc
    return validate(rho, weights)


def format_weights(g: TransitiveMap) -> str:
    lines = [f"{i} {j} {v.literal()}" for ((i, j), v) in g.items()]
    return "\n".join(lines) + ("\n" if lines else "")
