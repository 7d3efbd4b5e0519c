"""Shared fixtures, named by their structure.

Lazy imports keep this module usable while the package grows; expected values
frozen here were computed with tests/oracles.py. The random generators come
from ``smalg.sampling``, which the ``selftest`` command draws from too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from smalg.exactnum import DenseMatrix, GaussianRational
from smalg.quasiorder import QuasiOrder, from_edges
from smalg.sampling import (
    random_class_union,
    random_invertible_in_sma,
    random_quasiorder,
    random_supported_matrix,
    random_transitive_map,
)


def delta(n: int) -> QuasiOrder:
    """The diagonal relation (diagonal matrix algebra)."""
    return from_edges(n, [])


def full(n: int) -> QuasiOrder:
    return from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)])


def upper_chain(n: int) -> QuasiOrder:
    """i related to j iff i <= j (upper triangular pattern)."""
    return from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], close=False)


def vee() -> QuasiOrder:
    """One bottom vertex under two incomparable tops, plus a spare point."""
    return from_edges(4, [(1, 2), (1, 3)], close=False)


def wedge() -> QuasiOrder:
    """Mirror image of vee()."""
    return from_edges(4, [(2, 1), (3, 1)], close=False)


def vee3() -> QuasiOrder:
    return from_edges(3, [(1, 2), (1, 3)], close=False)


def wedge3() -> QuasiOrder:
    return from_edges(3, [(2, 1), (3, 1)], close=False)


def cycle_over_point() -> QuasiOrder:
    """A two-sided pair {2,3} sitting above vertex 1."""
    return from_edges(3, [(1, 2), (1, 3), (2, 3), (3, 2)], close=False)


def bowtie() -> QuasiOrder:
    """Two sources {1,2} each related to two sinks {3,4}; the smallest
    pattern with a rectangle but no composable strict pairs."""
    return from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)], close=False)


def bowtie_weights():
    """Weight map on bowtie() whose single rectangle has minor -1."""
    one = GaussianRational(1)
    return {(1, 3): one, (1, 4): GaussianRational(2), (2, 3): one, (2, 4): one}


def chain10() -> QuasiOrder:
    """Odd rows 1,3,5,7,9 pointing at even columns, closed into a loop
    through column 10; alternating-pair chain of length 8 from 1 to 9."""
    edges = [(1, 2), (1, 10), (3, 2), (3, 4), (5, 4), (5, 6),
             (7, 6), (7, 8), (9, 8), (9, 10)]
    return from_edges(10, edges, close=False)


def chain10_matrix() -> DenseMatrix:
    """Rank-4 matrix on the 10-cycle of chain10() (rows 1,3,5,7,9, columns
    2,4,6,8,10): 1 on each pair and (-1)^5 on the closing pair (7,6). Its
    scaling by chain10_weights() has rank 5."""
    entries = {
        (1, 2): 1, (1, 10): 1, (3, 2): 1, (3, 4): 1, (5, 4): 1,
        (5, 6): 1, (7, 6): -1, (7, 8): 1, (9, 8): 1, (9, 10): 1,
    }
    grid = [[entries.get((i, j), 0) for j in range(1, 11)] for i in range(1, 11)]
    return DenseMatrix.from_rows(grid)


def chain10_weights():
    """Weights on chain10(): 2 on (9,10), 1 elsewhere. No composable strict
    pairs exist, so any assignment is transitive; this one is nontrivial."""
    w = {p: GaussianRational(1) for p in chain10().strict_pairs()}
    w[(9, 10)] = GaussianRational(2)
    return w


def seven_point() -> QuasiOrder:
    """Sources 1,2,3 over sinks 4,5,7, vertex 6 isolated. It holds the
    rectangles {1,2} x {5,7} and {2,3} x {4,7} and the 6-cycle through
    rows 1,2,3 and columns 4,5,7."""
    edges = [(1, 5), (1, 7), (2, 4), (2, 5), (2, 7), (3, 4), (3, 7)]
    return from_edges(7, edges, close=False)


def seven_point_weights():
    """Weights on seven_point(): 2 on (3,4), 1 elsewhere. The rectangle
    {2,3} x {4,7} has minor 1*1 - 1*2, so rank one is not kept; the 6-cycle
    is unbalanced too, so a rank-2 witness exists besides the rank-1 one."""
    w = {p: GaussianRational(1) for p in seven_point().strict_pairs()}
    w[(3, 4)] = GaussianRational(2)
    return w


def corner() -> QuasiOrder:
    """Two incomparable vertices under a common top."""
    return from_edges(3, [(1, 3), (2, 3)], close=False)


def corner_map_images():
    """A non-multiplicative rank-one preserving map on corner(): the (1,1)
    slot is rerouted into (3,3). Its unit image of the identity is singular."""
    e = DenseMatrix.unit
    return {
        (1, 1): e(3, 3, 3),
        (2, 2): e(3, 2, 2),
        (3, 3): e(3, 3, 3),
        (1, 3): e(3, 1, 3),
        (2, 3): e(3, 2, 3),
    }


def bordered_map_images(n: int):
    """On the diagonal algebra of size n: the last diagonal slot is spread
    over the whole leading (n-1) block. Preserves every singular rank but
    sends the identity to a singular matrix."""
    images = {(i, i): DenseMatrix.unit(n, i, i) for i in range(1, n)}
    images[(n, n)] = DenseMatrix.from_entries(
        n, n, {(i, j): 1 for i in range(1, n) for j in range(1, n)}
    )
    return images


def census12():
    """Twelve quasi-orders on 4 vertices spanning the shapes the embedding
    search has to cope with."""
    return [
        ("diagonal", delta(4)),
        ("full", full(4)),
        ("chain", upper_chain(4)),
        ("reverse-chain", from_edges(4, [(j, i) for i in range(1, 5) for j in range(i + 1, 5)], close=False)),
        ("vee", vee()),
        ("wedge", wedge()),
        ("cycle-over-point", from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 2)], close=False)),
        ("bowtie", bowtie()),
        ("two-chains", from_edges(4, [(1, 2), (3, 4)], close=False)),
        ("diamond", from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)], close=False)),
        ("two-sided-pair", from_edges(4, [(1, 2), (2, 1)], close=False)),
        ("fan", from_edges(4, [(1, 3), (2, 3), (2, 4)], close=False)),
    ]


def face_poset(simplices) -> QuasiOrder:
    """The nonempty faces of the simplicial complex with these maximal
    simplices, ordered by inclusion, labelled by (dimension, vertices).
    Its transitive maps are the 1-cocycles of the order complex, a
    subdivision of the complex, so the obstruction group Z^N / R_N of
    ``transmap._gauge`` is the complex's first homology."""
    faces = {
        frozenset(c) for s in simplices for k in range(1, len(s) + 1)
        for c in combinations(s, k)
    }
    faces = sorted(faces, key=lambda f: (len(f), sorted(f)))
    label = {f: k for k, f in enumerate(faces, start=1)}
    pairs = [(label[a], label[b]) for a in faces for b in faces if a < b]
    return from_edges(len(faces), pairs)


# the six-vertex triangulation of the projective plane
_RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]


def rp2_face_poset() -> QuasiOrder:
    """Faces of the six-vertex RP^2. H_1 = Z/2, and with Gaussian-rational
    values the only nontrivial maps are sign maps."""
    return face_poset(_RP2)


def rp2_wedge_circle_face_poset() -> QuasiOrder:
    """RP^2 with a triangle boundary glued at vertex 1: H_1 = Z + Z/2."""
    return face_poset(_RP2 + [(1, 7), (7, 8), (8, 1)])


def rp2_wedge_rp2_face_poset() -> QuasiOrder:
    """Two copies of RP^2 glued at vertex 1: H_1 = Z/2 + Z/2."""
    second = {1: 1, **{v: v + 5 for v in range(2, 7)}}
    return face_poset(_RP2 + [tuple(second[v] for v in t) for t in _RP2])


def moore_face_poset(d: int) -> QuasiOrder:
    """Faces of a triangulated Moore space with H_1 = Z/d: a disk whose
    3d-gon boundary b_0 .. b_{3d-1} is labelled 0, 1, 2, 0, 1, 2, ..., so
    that it wraps d times round one triangle, filled by a ring of 3d inner
    vertices r_i and a centre c, with the triangles (b_i, b_{i+1}, r_i),
    (b_{i+1}, r_i, r_{i+1}) and (r_i, r_{i+1}, c)."""
    m = 3 * d
    b = [i % 3 for i in range(m)]
    r = [3 + i for i in range(m)]
    c = 3 + m
    triangles = []
    for i in range(m):
        k = (i + 1) % m
        triangles += [(b[i], b[k], r[i]), (b[k], r[i], r[k]), (r[i], r[k], c)]
    return face_poset(triangles)


def twisted_grid_face_poset() -> QuasiOrder:
    """A 3 x 3 grid of squares, each cut by a diagonal, with the top edge
    glued to the bottom and the right edge glued to the left upside down:
    a Klein bottle, H_1 = Z + Z/2."""
    def vertex(i, j):
        j %= 3
        if i == 3:
            i, j = 0, -j % 3
        return 3 * i + j

    triangles = []
    for i in range(3):
        for j in range(3):
            a, b = vertex(i, j), vertex(i + 1, j + 1)
            triangles += [(a, vertex(i + 1, j), b), (a, vertex(i, j + 1), b)]
    return face_poset(triangles)


def random_class_order(rng, n, density, sizes=(1, 1, 2, 3)) -> QuasiOrder:
    """A quasi-order on n shuffled labels whose mutual classes have sizes
    drawn from ``sizes`` (the first has two members when n >= 2), each
    joined to each later class with probability ``density``."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    classes, t = [], 0
    while t < n:
        size = min(n - t, 2 if t == 0 else rng.choice(sizes))
        classes.append(labels[t:t + size])
        t += size
    edges = []
    for c in classes:
        if len(c) > 1:
            edges.extend(zip(c, c[1:] + c[:1]))
    for a, lower in enumerate(classes):
        for upper in classes[a + 1:]:
            if rng.random() < density:
                edges.append((rng.choice(lower), rng.choice(upper)))
    return from_edges(n, edges)


def separator_map(rho, s):
    """The trivial map g(i, j) = s(i)/s(j) built from a vertex scaling."""
    from smalg.exactnum import scalar
    from smalg.transmap import validate

    sv = {i: scalar(v) for i, v in s.items()}
    return validate(rho, {(i, j): sv[i] / sv[j] for (i, j) in rho.strict_pairs()})


def transitive_map(rho, weights):
    from smalg.transmap import validate

    return validate(rho, weights)


def linear_map(rho, images):
    from smalg.jordan import LinearMapOnSMA

    return LinearMapOnSMA(rho, images)


def half() -> Fraction:
    return Fraction(1, 2)


def double_chain() -> QuasiOrder:
    """Two disjoint covered pairs; two connectivity classes of size two."""
    return from_edges(4, [(1, 2), (3, 4)], close=False)


def random_jordan_map(rho, rng):
    """Random synthesized Jordan homomorphism with its parameters."""
    from smalg.jordan import synthesize_jordan

    s = random_invertible_in_sma(rho, rng)
    u = random_class_union(rho, rng)
    g = random_transitive_map(rho, seed=rng.randrange(10**9))
    return synthesize_jordan(rho, s, u, g), s, u, g


# Literals in spellings the format allows beyond the canonical one.
ODD_LITERALS = {
    "-0": (0, 0),
    "0/7": (0, 0),
    "4/6": (Fraction(2, 3), 0),
    "-1i": (0, -1),
    "0+0i": (0, 0),
    "0i": (0, 0),
    "00": (0, 0),
    "-00/3": (0, 0),
    "1/2+1/3i": (Fraction(1, 2), Fraction(1, 3)),
    "-2/4-3/9i": (Fraction(-1, 2), Fraction(-1, 3)),
    "1+-2i": (1, -2),
    "1--3/6i": (1, Fraction(1, 2)),
}


def _random_rational_text(rng):
    num, den = rng.randint(-6, 6), rng.randint(1, 6)
    if num == 0 and rng.random() < 0.3:
        text = "-0"
    else:
        text = str(num)
    if den > 1 or rng.random() < 0.3:
        text += f"/{den}"
    return text, Fraction(num, den)


def random_literal(rng):
    """(text, (re, im)) for a random scalar literal: a bare real, a bare
    imaginary or both parts, with unreduced fractions, signed zeros and
    mixed denominators; about half of them are plain ``0``."""
    if rng.random() < 0.5:
        return "0", (0, 0)
    if rng.random() < 0.2:
        text = rng.choice(sorted(ODD_LITERALS))
        return text, ODD_LITERALS[text]
    a, x = _random_rational_text(rng)
    b, y = _random_rational_text(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return a, (x, 0)
    if kind == 1:
        return f"{b}i", (0, y)
    sign = rng.choice("+-")
    return f"{a}{sign}{b}i", (x, y if sign == "+" else -y)


# Malformed literals and the FormatError message each one raises.
BAD_LITERALS = [
    ("1/0", "bad rational '1/0' in '1/0'"),
    ("1_0", "bad scalar literal '1_0'"),
    ("\u0663", "bad scalar literal '\u0663'"),  # ARABIC-INDIC DIGIT THREE
    ("i", "bad scalar literal 'i'"),
]


def corpus_style_jordan_map(n: int, seed: int):
    """A Jordan map on the n-chain built as the benchmark corpus builds its
    maps: S = D E_1 ... E_n with D diagonal over 1, -1, 2, 1+i and each E_k
    an elementary matrix I + c E_ab (c in 1, -1, 2), a separator weight map
    g(i, j) = s(i)/s(j), and the chain's one class in u or not."""
    import random

    from smalg.jordan import CanonicalJordanForm

    rng = random.Random(seed)
    rho = upper_chain(n)
    s = DenseMatrix.diag([rng.choice(["1", "-1", "2", "1+1i"]) for _ in range(n)])
    eye = DenseMatrix.identity(n)
    for _ in range(n):
        a, b = rng.sample(range(1, n + 1), 2)
        s = s * (eye + DenseMatrix.unit(n, a, b).scale(rng.choice([1, -1, 2])))
    g = separator_map(rho, {i: rng.choice([1, -1, 2, "1/2", "1i"]) for i in range(1, n + 1)})
    u = frozenset(range(1, n + 1)) if rng.random() < 0.5 else frozenset()
    return CanonicalJordanForm(s=s, u=u, g=g).reconstruct()
