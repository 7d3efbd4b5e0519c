"""Seeded random generators: the one module of the package that draws
random numbers.

Every sampler takes an explicit ``seed`` or ``rng``, so a fixed seed
gives the same draws. The randomized self-tests draw their inputs here
(``selftest_draws``) and the test suite imports the same generators. Two
verdict paths still sample, both in ``rankpres``: the rank-one
counterexample of a unital map that is not Jordan
(``sample_rank_one_in_sma``) and the bounded rank check of a map whose
image of the identity is singular (``bounded_rank_samples``).
"""

from __future__ import annotations

import random

from .exactnum import DenseMatrix, inverse, rank
from .intlattice import lattice
from .quasiorder import QuasiOrder, approx_classes, from_edges
from .transmap import TransitiveMap, _relation_vectors, _signed_powers, validate


def random_quasiorder(rng, n_min=2, n_max=6, density=0.3) -> QuasiOrder:
    """Reflexive-transitive closure of randomly sprinkled edges."""
    n = rng.randint(n_min, n_max)
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < density
    ]
    return from_edges(n, edges)


def random_invertible_in_sma(rho, rng, steps=6) -> DenseMatrix:
    """Invertible matrix supported in the relation: a random diagonal of
    units times a product of random elementary matrices on strict pairs."""
    n = rho.n
    m = DenseMatrix.diag([rng.choice([1, 1, 1, -1, 2, "1/2"]) for _ in range(n)])
    strict = rho.strict_pairs()
    if not strict:
        return m
    ident = DenseMatrix.identity(n)
    for _ in range(steps):
        i, j = strict[rng.randrange(len(strict))]
        c = rng.choice(["1", "-1", "2", "1i"])
        m = m * (ident + DenseMatrix.unit(n, i, j).scale(c))
    return m


def random_class_union(rho, rng):
    """Random union of connectivity classes."""
    picked = [b for b in approx_classes(rho).blocks if rng.random() < 0.5]
    return frozenset().union(*picked) if picked else frozenset()


def random_supported_matrix(rho, rng) -> DenseMatrix:
    """Random integer matrix in -3..3 with entries only on related pairs."""
    entries = {}
    for (i, j) in rho.pairs():
        c = rng.randint(-3, 3)
        if c:
            entries[(i, j)] = c
    return DenseMatrix.from_entries(rho.n, rho.n, entries)


def random_transitive_map(rho: QuasiOrder, seed: int = 0) -> TransitiveMap:
    """Seeded sampler over the +-2^k transitive maps, trivial ones
    included: the kernel of all the relation rows, over every strict pair
    (``transmap._relation_vectors``), holds their exponents over Z and
    their signs over GF(2). A random combination of the basis over Z that
    the Smith reduction of the rows gives (``intlattice.lattice``,
    coefficients -2..2) gives the exponents, one of the basis over GF(2)
    the signs."""
    edges, rows = _relation_vectors(rho)
    ecount = len(edges)
    _, kernel = lattice(rows, ecount)
    rng = random.Random(seed)
    expo = [0] * ecount
    for vec in kernel():
        c = rng.randint(-2, 2)
        if c:
            expo = [x + c * y for x, y in zip(expo, vec)]
    signs = [0] * ecount
    for vec in kernel(True):
        if rng.random() < 0.5:
            signs = [x ^ y for x, y in zip(signs, vec)]
    return validate(rho, _signed_powers(edges, expo, signs))


def sample_rank_one_in_sma(rho: QuasiOrder, count: int, seed: int = 0):
    """Random rank-one matrices supported in the relation.

    Each sample is an outer product: a random row set, a random column set
    drawn from the common out-neighborhood, and nonzero entries in -2..2.
    """
    rng = random.Random(seed)
    n = rho.n
    vertices = list(range(1, n + 1))
    out = []
    for _ in range(count):
        rows = None
        for _attempt in range(50):
            k = rng.randint(1, n)
            cand = sorted(rng.sample(vertices, k))
            common = set(rho.out_set(cand[0]))
            for i in cand[1:]:
                common &= set(rho.out_set(i))
            if common:
                rows = cand
                break
        if rows is None:
            rows = [rng.choice(vertices)]
            common = set(rho.out_set(rows[0]))
        cols = sorted(rng.sample(sorted(common), rng.randint(1, len(common))))
        uvals = {i: rng.choice([-2, -1, 1, 2]) for i in rows}
        vvals = {j: rng.choice([-2, -1, 1, 2]) for j in cols}
        out.append(DenseMatrix.from_entries(
            n, n, {(i, j): uvals[i] * vvals[j] for i in rows for j in cols}
        ))
    return out


def _random_rank_k_sample(rho: QuasiOrder, k: int, rng):
    """A supported matrix of exact rank k: a sum of k sampled rank-ones,
    or a 0/1 diagonal when the sum degenerates."""
    n = rho.n
    for _ in range(20):
        parts = sample_rank_one_in_sma(rho, k, seed=rng.randrange(10**9))
        m = DenseMatrix.zeros(n, n)
        for p in parts:
            m = m + p
        if rank(m) == k:
            return m
    positions = rng.sample(range(1, n + 1), k)
    return DenseMatrix.diag([1 if i in positions else 0 for i in range(1, n + 1)])


def bounded_rank_samples(rho: QuasiOrder, max_rank: int, count: int, seed: int):
    """(k, X) for ``count`` supported matrices X of each rank k in
    1..max_rank, drawn lazily, so a caller that stops early draws no more."""
    rng = random.Random(seed)
    for k in range(1, max_rank + 1):
        for _ in range(count):
            yield k, _random_rank_k_sample(rho, k, rng)


def selftest_draws(seed: int, n_max: int):
    """(suite, inputs) for each randomized self-test suite in order, all
    drawn from one ``random.Random(seed)`` on relations with 2..n_max
    vertices (4..n_max for ``triviality-rank``, which gets no inputs when
    n_max < 4). A suite's inputs are drawn when the caller reaches it:

    - ``rank-identity``: 60 triples (rho, class union, supported matrix);
    - ``round-trip``: 15 tuples (rho, S, class union, weight map);
    - ``triviality-rank``: 10 pairs (bowtie-shaped rho, weight map);
    - ``diagonalize``: 10 pairs (rho, two matrices S D S^-1 with a common
      invertible S in the algebra and diagonals D in 0..2).
    """
    rng = random.Random(seed)

    def relations(count):
        return (random_quasiorder(rng, n_max=n_max) for _ in range(count))

    yield "rank-identity", [
        (rho, random_class_union(rho, rng), random_supported_matrix(rho, rng))
        for rho in relations(60)
    ]
    yield "round-trip", [
        (rho, random_invertible_in_sma(rho, rng), random_class_union(rho, rng),
         random_transitive_map(rho, seed=rng.randrange(10**6)))
        for rho in relations(15)
    ]
    triviality_rank = []
    for _ in range(10 if n_max >= 4 else 0):
        n = rng.randint(4, n_max)
        a, b, c, d = rng.sample(range(1, n + 1), 4)
        rho = from_edges(n, [(a, c), (a, d), (b, c), (b, d)])
        triviality_rank.append((rho, random_transitive_map(rho, seed=rng.randrange(10**6))))
    yield "triviality-rank", triviality_rank
    diagonalize = []
    for rho in relations(10):
        s = random_invertible_in_sma(rho, rng)
        s_inv = inverse(s)
        diagonals = ([rng.randint(0, 2) for _ in range(rho.n)] for _ in range(2))
        diagonalize.append((rho, [s * DenseMatrix.diag(d) * s_inv for d in diagonals]))
    yield "diagonalize", diagonalize
