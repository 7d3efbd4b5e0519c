"""Transitive weight maps on a quasi-order and their triviality theory.

A transitive map assigns a nonzero scalar to every related pair, equal to 1
on the diagonal, multiplicatively compatible along compositions. It is
trivial when it factors as g(i, j) = s(i) / s(j); the induced entrywise
scaling of the algebra is then an inner conjugation by diag(s).

Whether every transitive map on a given quasi-order is trivial is decided
exactly: the multiplicative relations span an integer lattice inside the
kernel of the edge boundary map, and triviality of the quotient is read off
a Smith normal form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    FormatError,
    InternalInconsistency,
    NotTransitive,
    SupportViolation,
    ZeroWeight,
)
from .exactnum import DenseMatrix, GaussianRational, ONE, parse_int, scalar
from .intlattice import (
    gf2_kernel_basis,
    integer_kernel_basis,
    smith_invariant_factors,
)
from .quasiorder import QuasiOrder, approx_classes, first_unsupported, rectangles


class TransitiveMap:
    """Validated weight assignment on the strict pairs of a quasi-order."""

    __slots__ = ("rho", "_w")

    def __init__(self, rho: QuasiOrder, weights):
        self.rho = rho
        self._w = dict(weights)

    def value(self, i: int, j: int) -> GaussianRational:
        if i == j and 1 <= i <= self.rho.n:
            return ONE
        try:
            return self._w[(i, j)]
        except KeyError:
            raise SupportViolation(f"({i},{j}) is not in the relation", pair=(i, j))

    def items(self):
        return sorted(self._w.items())

    def restrict(self, rho_sub: QuasiOrder) -> "TransitiveMap":
        """Restriction to a sub-relation on the same or fewer vertices."""
        w = {p: self._w[p] for p in rho_sub.strict_pairs()}
        return TransitiveMap(rho_sub, w)

    def __eq__(self, other):
        if not isinstance(other, TransitiveMap):
            return NotImplemented
        return self.rho == other.rho and self._w == other._w

    def __repr__(self):
        return f"TransitiveMap({self._w})"


def validate(rho: QuasiOrder, weights) -> TransitiveMap:
    """Check coverage, nonvanishing and multiplicative transitivity.

    ``weights`` maps each strict pair to a scalar (anything ``scalar``
    accepts). Composable pairs must multiply consistently; a two-sided pair
    must multiply to 1 with its reverse.
    """
    strict = rho.strict_pairs()
    w = {}
    for key, val in dict(weights).items():
        i, j = key
        if i == j:
            raise SupportViolation(
                f"diagonal weight ({i},{j}) must not be given", pair=(i, j)
            )
        if (i, j) not in rho:
            raise SupportViolation(f"({i},{j}) is not in the relation", pair=(i, j))
        v = scalar(val)
        if not v:
            raise ZeroWeight(f"weight at ({i},{j}) is zero")
        w[(i, j)] = v
    missing = [p for p in strict if p not in w]
    if missing:
        raise SupportViolation(
            f"missing weight for {missing[0]}", pair=missing[0]
        )
    for (i, j) in strict:
        for (j2, k) in strict:
            if j2 != j:
                continue
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
    return TransitiveMap(rho, w)


def apply_induced(g: TransitiveMap, x: DenseMatrix) -> DenseMatrix:
    """Entrywise scaling: position (i, j) is multiplied by g(i, j).

    The input must be supported inside the relation.
    """
    n = g.rho.n
    if x.shape != (n, n):
        raise SupportViolation(f"matrix shape {x.shape} does not match n={n}")
    support = x.support()
    bad = first_unsupported(support, g.rho)
    if bad is not None:
        raise SupportViolation(
            "nonzero entry at ({},{}) outside the relation".format(*bad), pair=bad
        )
    return DenseMatrix.from_entries(
        n, n, {(i, j): g.value(i, j) * x.at(i, j) for (i, j) in support}
    )


@dataclass(frozen=True)
class TrivialityCertificate:
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
        total = total * (v if direction == 1 else v.reciprocal())
    return total


def triviality_witness(g: TransitiveMap) -> TrivialityCertificate:
    """Decide triviality by spanning-tree potentials.

    Per connected component of the symmetrized strict relation, the lowest
    vertex is the root with potential 1; potentials propagate along tree
    edges, then every non-tree pair is checked. A failing pair closes a walk
    whose product is the certificate.
    """
    rho = g.rho
    n = rho.n
    strict = sorted(rho.strict_pairs())
    adj = {v: [] for v in range(1, n + 1)}
    for (i, j) in strict:
        adj[i].append((j, (i, j)))
        adj[j].append((i, (i, j)))
    s = {}
    parent = {}
    for root in range(1, n + 1):
        if root in s:
            continue
        s[root] = ONE
        queue = [root]
        while queue:
            v = queue.pop(0)
            for (u, edge) in sorted(adj[v]):
                if u in s:
                    continue
                if edge == (v, u):
                    s[u] = s[v] / g.value(v, u)
                else:
                    s[u] = g.value(u, v) * s[v]
                parent[u] = (v, edge)
                queue.append(u)

    def steps_to_root(v):
        out = []
        while v in parent:
            u, edge = parent[v]
            out.append((edge, 1 if edge[0] == v else -1))
            v = u
        return out

    for (i, j) in strict:
        if g.value(i, j) != s[i] / s[j]:
            walk = [((i, j), 1)]
            walk.extend(steps_to_root(j))
            walk.extend((e, -d) for (e, d) in reversed(steps_to_root(i)))
            walk = tuple(walk)
            prod = walk_product(g, walk)
            if prod == ONE:
                raise InternalInconsistency("violation walk with unit product")
            return TrivialityCertificate(walk=walk, product=prod)
    return TrivialityCertificate(separator=s)


@dataclass(frozen=True)
class RectangleCheck:
    """Result of the rectangle minor test; ``minor`` is set on violation."""

    ok: bool
    rectangle: Optional[tuple] = None
    minor: Optional[GaussianRational] = None


def rectangle_minor_condition(g: TransitiveMap) -> RectangleCheck:
    """The induced scaling preserves rank one iff every rectangle of the
    relation has a vanishing 2x2 weight minor."""
    for ((i, k), (j, l)) in rectangles(g.rho):
        minor = g.value(i, j) * g.value(k, l) - g.value(i, l) * g.value(k, j)
        if minor:
            return RectangleCheck(ok=False, rectangle=((i, k), (j, l)), minor=minor)
    return RectangleCheck(ok=True)


def _edge_index(rho: QuasiOrder):
    edges = sorted(rho.strict_pairs())
    return edges, {e: t for t, e in enumerate(edges)}


def _relation_vectors(rho: QuasiOrder):
    """Integer vectors spanning the multiplicative relation lattice."""
    edges, idx = _edge_index(rho)
    # sorted edges give sorted out-lists: vectors come in (i, j, k) order
    out = {}
    for (j, k) in edges:
        out.setdefault(j, []).append(k)
    vecs = []
    for (i, j) in edges:
        for k in out.get(j, ()):
            vec = [0] * len(edges)
            vec[idx[(i, j)]] += 1
            vec[idx[(j, k)]] += 1
            if i == k:
                if i < j:  # one copy per two-sided pair
                    vecs.append(vec)
            else:
                vec[idx[(i, k)]] -= 1
                vecs.append(vec)
    return edges, vecs


def all_transitive_trivial(rho: QuasiOrder) -> bool:
    """True iff every transitive map on rho is trivial.

    The relation lattice R always sits inside the kernel K of the boundary
    map sending an edge (i, j) to e_i - e_j; K is saturated, so K = R iff
    rank(R) = dim K and Z^E/R is torsion-free (all Smith invariant factors
    equal 1). Rational rank alone would miss root-of-unity-valued maps.
    """
    edges, vecs = _relation_vectors(rho)
    ecount = len(edges)
    if ecount == 0:
        return True
    # the boundary is a graph incidence matrix: rank n - #components (approx classes)
    kernel_dim = ecount - (rho.n - len(approx_classes(rho).blocks))
    if not vecs:
        return kernel_dim == 0
    inv = smith_invariant_factors(vecs)
    return len(inv) == kernel_dim and all(d == 1 for d in inv)


def random_transitive_map(rho: QuasiOrder, seed: int = 0) -> TransitiveMap:
    """Seeded sampler over transitive maps with Gaussian-rational values.

    Exponent vectors are drawn from the integer solution lattice of the
    multiplicative relations and exponentiate base 2; sign factors come from
    the mod-2 solution space. Every map with values in powers of 2 times
    signs arises this way, which covers a nontrivial map whenever one with
    Gaussian-rational values exists at all (odd-order characters have no
    Gaussian-rational values to take).
    """
    edges, vecs = _relation_vectors(rho)
    ecount = len(edges)
    rng = random.Random(seed)
    if ecount == 0:
        return TransitiveMap(rho, {})
    lattice = integer_kernel_basis(vecs, cols=ecount)
    signs_basis = gf2_kernel_basis(vecs, cols=ecount)
    expo = [0] * ecount
    for vec in lattice:
        c = rng.randint(-2, 2)
        if c:
            expo = [x + c * y for x, y in zip(expo, vec)]
    signs = [0] * ecount
    for vec in signs_basis:
        if rng.random() < 0.5:
            signs = [x ^ y for x, y in zip(signs, vec)]
    weights = {}
    for t, e in enumerate(edges):
        mag = Fraction(2) ** expo[t]
        weights[e] = GaussianRational(-mag if signs[t] else mag)
    return validate(rho, weights)


# --- weight text format -----------------------------------------------------
#
# One line per strict pair: "i j literal"; '#' comments.


def parse_weights(text: str, rho: QuasiOrder) -> TransitiveMap:
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError("expected 'i j value'", line=lineno)
        try:
            i, j = parse_int(parts[0]), parse_int(parts[1])
        except ValueError as exc:
            raise FormatError("pair entries must be integers", line=lineno) from exc
        if (i, j) in weights:
            raise FormatError(f"duplicate pair ({i},{j})", line=lineno)
        try:
            weights[(i, j)] = GaussianRational.from_literal(parts[2])
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from exc
    return validate(rho, weights)


def format_weights(g: TransitiveMap) -> str:
    lines = [f"{i} {j} {v.literal()}" for ((i, j), v) in g.items()]
    return "\n".join(lines) + ("\n" if lines else "")
