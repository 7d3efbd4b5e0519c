"""Workload corpora, generated from the seed with the standard library only.

No smalg code builds an input: relations, weight maps, Jordan maps
S (P g*(x) + (I-P) g*(x)^t) S^-1 and commuting families are all constructed
here, so a change to smalg's own samplers or formatters cannot change a
workload. Every request's expected exit code follows from how its input was
built.

A workload is a fixed list of slots (one *round*), repeated ``rounds``
times with fresh random inputs; the slot list is the same for every seed,
so seeds differ only in the numbers, not in the mix.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import gauss as G
from . import rels as R


@dataclass
class Request:
    """One smalg call. File arguments in ``argv`` are ``{w}/name`` templates
    resolved against the work directory when the corpus is written."""

    kind: str
    argv: list
    expect: int
    check: str
    relation: str
    facts: dict = field(default_factory=dict)


@dataclass
class Corpus:
    workload: str
    seed: int
    rounds: int
    trace_rounds: int
    files: dict
    requests: list

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for r in self.requests:
            h.update(repr((r.kind, r.argv, r.expect, r.check, sorted(r.facts.items()))).encode())
        return h.hexdigest()


# --- building blocks ---------------------------------------------------------

SEPARATOR_VALUES = [G.g(1), G.g(-1), G.g(2), G.g(Fraction(1, 2)), G.g(3), G.g(1, 1), G.g(2, -1)]


def dealt(rng, values, k):
    """k values dealt evenly from ``values`` in random order, so every input
    of one size gets the same mix of magnitudes and its cost varies less
    from seed to seed than with independent draws."""
    out = [values[t % len(values)] for t in range(k)]
    rng.shuffle(out)
    return out


def _perm(rng, n):
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    return pi


def _grow(rng, n, candidates, strict):
    """Add random candidate edges until the closure has at least ``strict``
    strict pairs, so the size of a random relation stays near a target."""
    edges = []
    rows = R.closure(n, edges)
    order = list(candidates)
    rng.shuffle(order)
    for e in order:
        if len(R.pairs(rows, strict=True)) >= strict:
            break
        if not R.has(rows, *e):
            edges.append(e)
            rows = R.closure(n, edges)
    return rows


def random_quasiorder(rng, n, strict):
    """Random quasi-order (two-sided pairs allowed) with about ``strict``
    strict pairs."""
    return _grow(rng, n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j],
                 strict)


def chain(n):
    return R.closure(n, [(i, i + 1) for i in range(1, n)])


def dense_poset(rng, n, strict, bottom=False):
    """Random partial order with about ``strict`` strict pairs, relabelled
    at random. With ``bottom`` one vertex lies below all others (a cone:
    every transitive map on it is trivial)."""
    rows = _grow(rng, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], strict)
    if bottom:
        rows = R.closure(n, R.pairs(rows, strict=True) + [(1, j) for j in range(2, n + 1)])
    return R.relabel(rows, _perm(rng, n))


def bipartite(rng, n, edges, cycle=True):
    """Sources over sinks with ``edges`` pairs and no composable strict
    pairs, so every weight assignment is transitive. With ``cycle`` a
    4-cycle is present; the returned quad names it as (r1, r2, c1, c2)."""
    labels = _perm(rng, n)
    half = n // 2
    src, dst = labels[:half], labels[half:]
    chosen = set()
    quad = None
    if cycle:
        r1, r2 = rng.sample(src, 2)
        c1, c2 = rng.sample(dst, 2)
        chosen |= {(r1, c1), (r1, c2), (r2, c1), (r2, c2)}
        quad = (r1, r2, c1, c2)
    rest = [(r, c) for r in src for c in dst if (r, c) not in chosen]
    chosen |= set(rng.sample(rest, max(0, edges - len(chosen))))
    return R.closure(n, sorted(chosen)), quad


def bipartite_forest(rng, n):
    """Bipartite relation whose undirected graph is a forest (no cycles)."""
    labels = _perm(rng, n)
    half = n // 2
    src, dst = labels[:half], labels[half:]
    edges = []
    for c in dst:  # each sink hangs under one source, some sources fork
        edges.append((rng.choice(src), c))
    return R.closure(n, edges)


def random_forest_edges(rng, n, roots):
    labels = _perm(rng, n)
    edges = []
    for t in range(roots, n):
        parent = labels[rng.randrange(t)]
        edges.append((parent, labels[t]))
    return edges


def separator_weights(rng, rows):
    """A trivial transitive map g(i, j) = s(i) / s(j)."""
    n = len(rows)
    s = [None] + dealt(rng, SEPARATOR_VALUES, n)
    return {(i, j): G.mul(s[i], G.recip(s[j])) for (i, j) in R.pairs(rows, strict=True)}


def format_weights(w) -> str:
    return "".join(f"{i} {j} {G.literal(v)}\n" for (i, j), v in sorted(w.items()))


def random_class_union(rng, rows):
    picked = [b for b in R.components(rows) if rng.random() < 0.5]
    return frozenset(v for b in picked for v in b)


def elementary_similarity(rng, n, steps, allowed=None, diag_values=None):
    """S = D E_1 ... E_k with E = I + c E_ab, and its inverse in closed form
    (E_k^-1 ... E_1^-1 D^-1, with (I + c E_ab)^-1 = I - c E_ab). ``allowed``
    restricts the positions (a, b) used; the default is any a != b."""
    diag_values = diag_values or [G.g(1), G.g(-1), G.g(2), G.g(1, 1)]
    d = dealt(rng, diag_values, n)
    s = [[d[i] if i == j else G.ZERO for j in range(n)] for i in range(n)]
    sinv = [[G.recip(d[i]) if i == j else G.ZERO for j in range(n)] for i in range(n)]
    positions = allowed if allowed is not None else [
        (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b
    ]
    for c in dealt(rng, [G.g(1), G.g(-1), G.g(2)], steps if positions else 0):
        a, b = rng.choice(positions)
        # S <- S (I + c E_ab): column b += c * column a
        for row in s:
            row[b - 1] = G.add(row[b - 1], G.mul(c, row[a - 1]))
        # S^-1 <- (I - c E_ab) S^-1: row a -= c * row b
        sinv[a - 1] = [G.sub(x, G.mul(c, y)) for x, y in zip(sinv[a - 1], sinv[b - 1])]
    return s, sinv


def jordan_images(rows, s, sinv, u, w):
    """Unit images S core S^-1 with core = g(i,j) E_ij on u and on the
    diagonal, g(i,j) E_ji elsewhere; each image is an outer product."""
    images = {}
    n = len(rows)
    for (i, j) in R.pairs(rows):
        a, b = (i, j) if (i == j or i in u) else (j, i)
        c = G.ONE if i == j else w[(i, j)]
        col = [G.mul(c, s[r][a - 1]) for r in range(n)]
        images[(i, j)] = [[G.mul(x, y) for y in sinv[b - 1]] for x in col]
    return images


def format_map(n, images) -> str:
    out = [str(n)]
    for (i, j) in sorted(images):
        out.append(f"unit {i} {j}")
        out.extend(" ".join(G.literal(x) for x in row) for row in images[(i, j)])
    return "\n".join(out) + "\n"


def induced_images(rows, w):
    n = len(rows)
    images = {}
    for (i, j) in R.pairs(rows):
        m = [[G.ZERO] * n for _ in range(n)]
        m[i - 1][j - 1] = G.ONE if i == j else w[(i, j)]
        images[(i, j)] = m
    return images


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Builder:
    """Collects files and requests; file names are unique per request."""

    def __init__(self, workload, seed, rounds, trace_rounds):
        self.corpus = Corpus(workload, seed, rounds, trace_rounds, {}, [])

    def file(self, stem, text):
        name = f"{len(self.corpus.requests):05d}-{stem}"
        self.corpus.files[name] = text
        return "{w}/" + name

    def add(self, kind, argv, expect, check, rows, **facts):
        self.corpus.requests.append(
            Request(kind, argv, expect, check, R.key(rows), facts)
        )


# --- algebra ------------------------------------------------------------------


def _jordan_parts(rng, rows):
    """Random parameters (u, g, S, S^-1) of a Jordan map with trivial g."""
    u = random_class_union(rng, rows)
    w = separator_weights(rng, rows)
    s, sinv = elementary_similarity(rng, len(rows), steps=len(rows))
    return u, w, s, sinv


def _jordan_map(rng, rows):
    u, w, s, sinv = _jordan_parts(rng, rows)
    return u, w, s, format_map(len(rows), jordan_images(rows, s, sinv, u, w))


def _relation_for(rng, shape, n):
    if shape == "chain":
        return chain(n)
    return random_quasiorder(rng, n, strict=3 * n // 2)


def algebra_classify(b, rng, shape, n, roundtrip=False):
    rows = _relation_for(rng, shape, n)
    _, _, _, text = _jordan_map(rng, rows)
    qo = b.file("r.qo", R.format_relation(rows))
    lm = b.file("phi.lm", text)
    b.add(f"classify.{shape}{n}", ["classify", qo, lm], 0, "form", rows,
          map=lm, map_sha=sha(text), relation_file=qo, roundtrip=roundtrip)


def algebra_synthesize(b, rng, shape, n):
    rows = _relation_for(rng, shape, n)
    u, w, s, text = _jordan_map(rng, rows)
    qo = b.file("r.qo", R.format_relation(rows))
    sm = b.file("s.gm", G.format_matrix(s))
    gw = b.file("g.gw", format_weights(w))
    classes = ",".join(str(v) for v in sorted(u)) or "-"
    b.add(f"synthesize.{shape}{n}",
          ["synthesize", qo, "--s", sm, "--classes", classes, "--g", gw],
          0, "exact", rows, sha=sha(text))


def algebra_check_rank(b, rng, shape, n, max_rank=None):
    rows = _relation_for(rng, shape, n)
    _, _, _, text = _jordan_map(rng, rows)
    qo = b.file("r.qo", R.format_relation(rows))
    lm = b.file("phi.lm", text)
    if max_rank is None:
        b.add(f"check-rank.{shape}{n}", ["check-rank", qo, lm], 0, "form", rows,
              map=lm, map_sha=sha(text), relation_file=qo)
    else:
        b.add(f"check-rank-bounded.{shape}{n}",
              ["check-rank", "--max-rank", str(max_rank), qo, lm], 0, "bounded_ok", rows)


def algebra_check_rank_one(b, rng, shape, n):
    rows = _relation_for(rng, shape, n)
    _, _, _, text = _jordan_map(rng, rows)
    qo = b.file("r.qo", R.format_relation(rows))
    lm = b.file("phi.lm", text)
    b.add(f"check-rank-one.{shape}{n}", ["check-rank-one", qo, lm], 0, "form", rows,
          map=lm, map_sha=sha(text), relation_file=qo)


def nontrivial_bipartite(rng, n, edges):
    """Bipartite relation with a separator map scaled by 2 on one edge of a
    4-cycle: the cycle's alternating product is 2, so the map is nontrivial."""
    rows, (r1, r2, c1, c2) = bipartite(rng, n, edges)
    w = separator_weights(rng, rows)
    w[(r1, c1)] = G.mul(w[(r1, c1)], G.g(2))
    return rows, w


def algebra_induced(b, rng, command, n):
    """Negative rank inputs: the induced scaling map of a nontrivial g."""
    rows, w = nontrivial_bipartite(rng, n, edges=n + 2)
    qo = b.file("r.qo", R.format_relation(rows))
    gw = b.file("g.gw", format_weights(w))
    lm = b.file("phi.lm", format_map(n, induced_images(rows, w)))
    argv = {
        "check-rank": ["check-rank", qo, lm],
        "check-rank-bounded": ["check-rank", "--max-rank", str(n), qo, lm],
        "check-rank-one": ["check-rank-one", qo, lm],
    }[command]
    b.add(f"{command}.induced{n}", argv, 1, "ranks", rows, relation_file=qo, weights=gw)


def algebra_witness(b, rng, n):
    rows, w = nontrivial_bipartite(rng, n, edges=n + n // 4)
    qo = b.file("r.qo", R.format_relation(rows))
    gw = b.file("g.gw", format_weights(w))
    b.add(f"witness.bipartite{n}", ["witness", qo, gw], 1, "ranks", rows,
          relation_file=qo, weights=gw)


def jordan_embed_pair(rng, rows, negative):
    """Codomain = a relabelled partial reversal of rows (an embedding
    exists); a negative drops a cover pair, leaving fewer pairs than rows
    has, so no embedding can exist."""
    n = len(rows)
    u = random_class_union(rng, rows)
    target = R.relabel(R.partial_reversal(rows, u), _perm(rng, n))
    if negative:
        target = R.without(target, R.cover_pair(target, rng))
    return target


def algebra_embed_jordan(b, rng, n, negative=False):
    while True:
        rows = random_quasiorder(rng, n, strict=n + 2)
        if not negative or R.cover_pair(rows, rng) is not None:
            break
    target = jordan_embed_pair(rng, rows, negative)
    qo = b.file("r.qo", R.format_relation(rows))
    qo2 = b.file("r2.qo", R.format_relation(target))
    b.add(f"embed-jordan.qo{n}{'-neg' if negative else ''}",
          ["embed", "--jordan", qo, qo2], 1 if negative else 0,
          "no_embedding" if negative else "embedding", rows,
          relation_file=qo, codomain_file=qo2, jordan=True)


def algebra_not_jordan(b, rng, n):
    """A Jordan map on the n-chain with the image of E_11 doubled, so it is
    no longer idempotent."""
    rows = chain(n)
    u, w, s, sinv = _jordan_parts(rng, rows)
    images = jordan_images(rows, s, sinv, u, w)
    images[(1, 1)] = [[G.mul(G.g(2), x) for x in row] for row in images[(1, 1)]]
    qo = b.file("r.qo", R.format_relation(rows))
    lm = b.file("phi.lm", format_map(n, images))
    b.add(f"classify.notjordan{n}", ["classify", qo, lm], 1, "not_jordan", rows, map=lm)


# --- relations ------------------------------------------------------------------


def antichain(n):
    return R.closure(n, [])


def near_antichain(rng, n, links):
    """An antichain plus ``links`` disjoint 2-chains; at least two vertices
    stay isolated, so a nontrivial automorphism moves a class."""
    labels = _perm(rng, n)
    edges = [(labels[2 * k], labels[2 * k + 1]) for k in range(links)]
    return R.closure(n, edges)


def relations_info(b, rng, shape, n, links=0):
    """Antichains and near-antichains have a nontrivial automorphism moving
    a class (inner is false); the chain has none (inner is true). All of
    them carry only trivial transitive maps."""
    if shape == "chain":
        rows = chain(n)
    elif shape == "antichain":
        rows = antichain(n)
    else:
        rows = near_antichain(rng, n, links)
    qo = b.file("r.qo", R.format_relation(rows))
    b.add(f"info.{shape}{n}", ["info", qo], 0, "info", rows, relation_file=qo,
          all_trivial=True, inner=shape == "chain")


def relations_embed(b, rng, n, strict, negative=False):
    while True:
        rows = dense_poset(rng, n, strict)
        target = R.relabel(rows, _perm(rng, n))
        pair = R.cover_pair(target, rng)
        if pair is not None:
            break
    if negative:
        target = R.without(target, pair)
    qo = b.file("r.qo", R.format_relation(rows))
    qo2 = b.file("r2.qo", R.format_relation(target))
    b.add(f"embed.poset{n}{'-neg' if negative else ''}", ["embed", qo, qo2],
          1 if negative else 0, "no_embedding" if negative else "embedding", rows,
          relation_file=qo, codomain_file=qo2, jordan=False)


def relations_all_trivial(b, rng, shape, n):
    """Cones and chains carry only trivial maps; a bipartite relation with
    a 4-cycle carries a nontrivial one (the sampler must find it); a
    bipartite forest carries none."""
    if shape == "cone":
        rows, expect = dense_poset(rng, n, n * (n - 1) // 4, bottom=True), 0
    elif shape == "chain":
        rows, expect = chain(n), 0
    elif shape == "bipartite":
        rows, expect = bipartite(rng, n, edges=n)[0], 1
    else:
        rows, expect = bipartite_forest(rng, n), 0
    qo = b.file("r.qo", R.format_relation(rows))
    b.add(f"all-trivial.{shape}{n}", ["all-trivial", qo], expect, "all_trivial", rows,
          relation_file=qo)


def relations_blocks(b, rng, shape, n):
    rows = block_quasiorder(rng, n) if shape == "blocks" else dense_poset(rng, n, n * (n - 1) // 4)
    qo = b.file("r.qo", R.format_relation(rows))
    b.add(f"blocks.{shape}{n}", ["blocks", qo], 0, "blocks", rows, relation_file=qo)


# --- spectral ---------------------------------------------------------------


def block_quasiorder(rng, n, p=0.5, sizes=(2, 3, 4)):
    """Full blocks of the given sizes stacked upper-triangularly, with some
    pairs between blocks, relabelled at random."""
    blocks, start = [], 1
    while start <= n:
        size = min(rng.choice(sizes), n - start + 1)
        blocks.append(list(range(start, start + size)))
        start += size
    edges = [(i, j) for blk in blocks for i in blk for j in blk if i != j]
    for x in range(len(blocks)):
        for y in range(x + 1, len(blocks)):
            if rng.random() < p:
                edges.append((blocks[x][0], blocks[y][0]))
    return R.relabel(R.closure(n, edges), _perm(rng, n))


def commuting_family(rng, rows, count, eigen_values):
    """count matrices S D_k S^-1 with S invertible inside the algebra of rows
    (built from units E_ab of related pairs), so the family commutes, is
    diagonalizable, and lies in the algebra."""
    n = len(rows)
    allowed = R.pairs(rows, strict=True)
    s, sinv = elementary_similarity(rng, n, steps=2 * n, allowed=allowed,
                                    diag_values=[G.g(1), G.g(-1), G.g(2)])
    family = []
    for _ in range(count):
        d = dealt(rng, [G.g(v) for v in eigen_values], n)
        sd = [[G.mul(s[i][j], d[j]) for j in range(n)] for i in range(n)]
        family.append(G.matmul(sd, sinv))
    return family


def spectral_family(b, rng, shape, n, count=2):
    if shape == "chain":
        rows = chain(n)
    else:
        rows = block_quasiorder(rng, n, 0.5)
    family = commuting_family(rng, rows, count, [0, 1, 2, -1, 3])
    qo = b.file("r.qo", R.format_relation(rows))
    mats = [b.file(f"m{k}.gm", G.format_matrix(m)) for k, m in enumerate(family)]
    b.add(f"diagonalize.{shape}{n}", ["diagonalize", qo] + mats, 0, "diagonal", rows,
          relation_file=qo, matrices=mats)


def _prime_near(rng, magnitude):
    while True:
        p = rng.randrange(magnitude, magnitude + magnitude // 20) | 1
        if _is_prime(p):
            return p


def _is_prime(p):
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def spectral_primes(b, rng, magnitude):
    """The 2-chain with a triangular matrix whose eigenvalues are two primes
    near ``magnitude``; smalg's root finder factors their product."""
    rows = chain(2)
    p, q = _prime_near(rng, magnitude), _prime_near(rng, magnitude)
    while q == p:
        q = _prime_near(rng, magnitude)
    m = [[G.g(p), G.g(rng.choice([1, -1, 2]))], [G.ZERO, G.g(q)]]
    qo = b.file("r.qo", R.format_relation(rows))
    gm = b.file("m.gm", G.format_matrix(m))
    b.add(f"diagonalize.primes{magnitude}", ["diagonalize", qo, gm], 0, "diagonal", rows,
          relation_file=qo, matrices=[gm])


def spectral_negative(b, rng, shape, n):
    """Nilpotent (a nonzero strictly upper matrix on a chain) or irrational
    (x^2 - d with d not a square up to sign on a full 2-block, conjugated)."""
    if shape == "nilpotent":
        rows = chain(n)
        m = [[G.g(rng.choice([0, 1, -1, 2])) if j > i else G.ZERO for j in range(n)]
             for i in range(n)]
        m[0][n - 1] = G.g(1)
    else:
        rows = R.closure(2, [(1, 2), (2, 1)])
        d = rng.choice([2, 3, 5, 6, 7, -2, -3])
        s, sinv = elementary_similarity(rng, 2, steps=2)
        m = G.matmul(G.matmul(s, [[G.ZERO, G.g(d)], [G.ONE, G.ZERO]]), sinv)
    qo = b.file("r.qo", R.format_relation(rows))
    gm = b.file("m.gm", G.format_matrix(m))
    b.add(f"diagonalize.{shape}", ["diagonalize", qo, gm], 1, "not_diagonalizable", rows)


# --- bulk ---------------------------------------------------------------------


def bulk_close(b, rng, shape, n):
    if shape == "forest":
        edges = random_forest_edges(rng, n, roots=max(1, n // 20))
    else:
        edges = sorted({(i, j) for i in range(1, n + 1) for j in (rng.randint(1, n),)
                        if i < j and rng.random() < 0.8})
        pi = _perm(rng, n)
        edges = [(pi[i - 1], pi[j - 1]) for (i, j) in edges]
    rows = R.closure(n, edges)
    qo = b.file("e.qo", R.format_relation(rows, edges=edges))
    b.add(f"close.{shape}{n}", ["close", qo], 0, "exact", rows,
          sha=sha(R.format_relation(rows)))


def bulk_blocks(b, rng, shape, n):
    if shape == "forest":
        rows = R.closure(n, random_forest_edges(rng, n, roots=max(1, n // 20)))
    else:
        rows = bipartite(rng, n, edges=2 * n, cycle=False)[0]
    qo = b.file("r.qo", R.format_relation(rows))
    b.add(f"blocks.{shape}{n}", ["blocks", qo], 0, "blocks", rows, relation_file=qo)


def bulk_trivial(b, rng, shape, n):
    if shape == "forest":
        rows = R.closure(n, random_forest_edges(rng, n, roots=max(1, n // 10)))
        w, expect = separator_weights(rng, rows), 0
    elif shape == "bipartite-trivial":
        rows = bipartite(rng, n, edges=3 * n // 2)[0]
        w, expect = separator_weights(rng, rows), 0
    else:
        rows, w = nontrivial_bipartite(rng, n, edges=3 * n // 2)
        expect = 1
    qo = b.file("r.qo", R.format_relation(rows))
    gw = b.file("g.gw", format_weights(w))
    b.add(f"trivial.{shape}{n}", ["trivial", qo, gw], expect, "triviality", rows,
          relation_file=qo, weights=gw)


# --- workloads --------------------------------------------------------------------

# Each slot is (generator, arguments after the builder and the rng). Sizes
# keep one round near a few seconds, so a run holds several whole rounds;
# HAZARDS below records why some sizes stop where they do. ``round_s`` is the
# median request time of one round measured when the benchmark was defined
# (Python 3.11, 2-core x86-64 host); it turns ``--seconds`` into a fixed
# round count (``rounds_for``), so a run sends the same requests however
# fast the code under test is.
WORKLOADS = {
    "algebra": dict(trace_rounds=1, round_s=3.13, round=[
        (algebra_classify, ("chain", 4, True)),
        (algebra_induced, ("check-rank", 10)),
        (algebra_classify, ("chain", 6)),
        (algebra_check_rank_one, ("chain", 5)),
        (algebra_witness, (16,)),
        (algebra_synthesize, ("chain", 5)),
        (algebra_classify, ("qo", 6)),
        (algebra_induced, ("check-rank-one", 10)),
        (algebra_embed_jordan, (6,)),
        (algebra_check_rank, ("chain", 4, 2)),
        (algebra_induced, ("check-rank-bounded", 10)),
        (algebra_classify, ("chain", 10)),
        (algebra_witness, (24,)),
        (algebra_check_rank, ("chain", 6)),
        (algebra_synthesize, ("qo", 5)),
        (algebra_embed_jordan, (7, True)),
        (algebra_not_jordan, (6,)),
        (algebra_check_rank_one, ("chain", 6)),
        (algebra_synthesize, ("chain", 6)),
    ]),
    "relations": dict(trace_rounds=2, round_s=0.88, round=[
        (relations_info, ("antichain", 6)),
        (relations_embed, (12, 30)),
        (relations_all_trivial, ("bipartite", 10)),
        (relations_blocks, ("poset", 14)),
        (relations_info, ("near", 8, 1)),
        (relations_all_trivial, ("cone", 14)),
        (relations_embed, (14, 40, True)),
        (relations_info, ("antichain", 8)),
        (relations_all_trivial, ("chain", 14)),
        (relations_all_trivial, ("forest", 12)),
        (relations_blocks, ("blocks", 12)),
        (relations_info, ("near", 9, 2)),
        (relations_embed, (16, 50)),
        (relations_all_trivial, ("bipartite", 14)),
        (relations_info, ("chain", 12)),
        (relations_info, ("antichain", 7)),
        (relations_embed, (12, 30, True)),
        (relations_blocks, ("poset", 16)),
        (relations_all_trivial, ("forest", 16)),
    ]),
    "spectral": dict(trace_rounds=2, round_s=1.52, round=[
        (spectral_family, ("chain", 4)),
        (spectral_primes, (1_000_000,)),
        (spectral_family, ("blocks", 6)),
        (spectral_negative, ("nilpotent", 5)),
        (spectral_family, ("chain", 7)),
        (spectral_family, ("blocks", 8)),
        (spectral_primes, (3_000_000,)),
        (spectral_negative, ("irrational", 2)),
        (spectral_family, ("chain", 10, 1)),
        (spectral_family, ("blocks", 5, 1)),
    ]),
    "bulk": dict(trace_rounds=6, round_s=0.19, round=[
        (bulk_close, ("forest", 120)),
        (bulk_blocks, ("forest", 80)),
        (bulk_trivial, ("forest", 60)),
        (bulk_close, ("sparse", 150)),
        (bulk_blocks, ("bipartite", 150)),
        (bulk_trivial, ("bipartite", 160)),
        (bulk_close, ("forest", 200)),
        (bulk_trivial, ("bipartite-trivial", 120)),
        (bulk_blocks, ("forest", 50)),
    ]),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` of request time at the
    reference speed; depends on nothing measured in the run."""
    return max(1, round(seconds / WORKLOADS[workload]["round_s"]))


def build(workload: str, seed: int, rounds: int) -> Corpus:
    """The first ``rounds`` rounds of the workload's stream for ``seed``;
    a shorter corpus is a prefix of a longer one."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder(workload, seed, rounds, min(rounds, spec["trace_rounds"]))
    for _ in range(rounds):
        for fn, args in spec["round"]:
            fn(b, rng, *args)
    return b.corpus


# Paths with no bound at this commit, the largest size each workload
# includes, and the inputs left out because they run for tens of seconds.
HAZARDS = {
    "algebra": {
        "included": {"classify chain n": 10, "synthesize chain n": 6,
                     "witness bipartite n": 24, "check-rank induced bipartite n": 10},
        "left_out": {"synthesize on the 10-chain": "2.8 s a call",
                     "witness on bipartite n=40": "1.4-3.8 s a call, depending on the graph"},
    },
    "relations": {
        "included": {"antichain info n": 8, "near-antichain info n": 9,
                     "chain all-trivial n": 14, "chain info n": 12},
        "left_out": {"antichain info n>=10": "37.8 s at n=10 (all n! automorphisms)",
                     "chain all-trivial / info n>=25": "14 s at n=25"},
    },
    "spectral": {
        "included": {"2x2 diagonalize prime magnitude": 3_150_000},
        "left_out": {"[[1000000007,1],[0,999999937]]": "no result after 20 s (trial division)"},
    },
    "bulk": {
        "included": {"close / trivial n": 200, "blocks on bipartite n": 150},
        "left_out": {},
    },
}
