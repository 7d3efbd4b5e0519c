"""Independent oracles used to freeze expected values.

Everything here does its own arithmetic on (Fraction, Fraction) pairs or raw
pair sets and never calls into the package's computational paths, so a bug in
the package cannot hide behind these checks. The one exception is
``oracle_spectral_pairs``, which keeps the package's polynomial root search
as the reference route that diag's triangular shortcut must agree with;
``relabel_matrix`` only moves a matrix's entries and builds the result with
``DenseMatrix.from_entries``. The relation oracles read a quasi-order only
through its single-bit test ``has``; ``oracle_block_triangular_form``
returns the package's ``BlockTriangularForm`` record so that its fields
compare directly. The helpers that only tests use (``outer``,
``col_list``, ``conjugate_transpose``, ``is_rank_one_by_minors``, ``rank_one_factor``,
``to_grid``, ``strict_part``, ``card``, ``poly_mul``) and the rectangle
minor test ``rectangle_minor_condition`` live here too; they use the
package's scalar and matrix types but none of its elimination or product
kernels. ``dense_classify_jordan`` keeps the classification ladder as the
package ran it on dense products, with ``dense_reconstruct``, as the
reference for its frame ladder; ``dense_simultaneous_diagonalize`` keeps
the diagonalizer as it read S off the n x n joint projectors, as the
reference for its column construction, on its own copies of the route the
package no longer runs (``lagrange_spectrum``, the squarefree part tested
by annihilation, ``lagrange_annihilate`` and ``lagrange_projectors``) and
on ``pivot_columns``, which reads the pivots of the package's elimination
kernel; ``eigenspace_simultaneous_diagonalize`` keeps the class-block stage
as it split every member's block by its own spectrum and met the joint
eigenspaces by intersection kernels (``eigenspace_class_picks``,
``eigenspace_intersection``), on the package's ``_spectrum``, push and
certificate, as the reference for the refinement by restrictions;
``dense_gf2_kernel_basis`` keeps
the GF(2) elimination on dense 0/1 rows, as the reference for the span of
the GF(2) basis that the package reads off its Smith transform, and
``bareiss_gauss_jordan`` keeps the Bareiss elimination that
updates every row at every step, as the reference for the kernel that
skips rows with a zero in the pivot column. The next-to-last section holds reference checks
that the package once exported and no longer calls (the central
idempotents, the all-pairs Jordan identity check, the
identity, transpose and conjugation maps, the annihilation test for
diagonalizability, the spectral resolution of one matrix and the Smith
invariant factors of sparse integer rows); unlike the
oracles they run on the package's matrix products, for the Smith factors
on its integer eliminations and, for the spectral
resolution, on those copies of the spectrum and Lagrange projectors. The last
section keeps the references of the fast routes: the rectangle count over every
row pair, the first missing composition of a pair set, ``validate`` as it
walked every composable pair of strict pairs (``composable_validate``)
and the triviality walk on the spanning-forest potentials it built on
scalars (``scalar_spanning_potentials``, ``scalar_triviality_witness``),
the search for a nontrivial weight map before the spanning-forest gauge,
over a saturated integer kernel basis of dense rows over every strict pair
with a coboundary test for each vector (``basis_nontrivial_transitive_map``
with ``integer_kernel_basis``, ``dense_relation_rows`` and
``is_coboundary``), the four input
parsers as they read their text line by line before the shared tokenizer
(they build their values with the package's constructors and ``validate``),
and the root search by the rational root theorem over the Gaussian
integers, which factors norms by trial division
(``divisor_roots_in_gaussian_rationals`` with ``gaussian_integer_divisors``
and ``sqrt_minus_one_mod``; it runs on the package's polynomial arithmetic),
and rho_U as it was built from its strict pairs by ``from_edges``
(``edge_rho_u``), the reference for its row masks. ``integer_bareiss_rank``
ranks integer rows by fraction-free elimination on ints alone, where the
pair-arithmetic rank is too slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm
from typing import Optional

from smalg.diag import Diagonalization, _check_commute, _push, _spectrum
from smalg.errors import (
    DimensionMismatch,
    FormatError,
    InternalInconsistency,
    IrrationalSpectrum,
    NotDiagonalizable,
    NotJordan,
    NotTransitive,
    PreconditionViolated,
    SmalgError,
    SupportViolation,
    VanishingUnitImage,
    ZeroWeight,
)
from smalg.exactnum import (
    ONE,
    ZERO,
    DenseMatrix,
    GaussianRational,
    _gauss_jordan,
    _int_rows,
    _kernel_basis,
    _primitive,
    inverse,
    scalar,
)
from smalg.jordan import CanonicalJordanForm, LinearMapOnSMA
from smalg.polyroots import (
    charpoly,
    poly_degree,
    poly_divmod,
    poly_eval,
    poly_eval_matrix,
    poly_monic,
    poly_trim,
    roots_in_gaussian_rationals,
    squarefree_part,
)
from smalg.intlattice import lattice
from smalg.quasiorder import (
    MAX_VERTICES,
    BeatCore,
    BlockTriangularForm,
    QuasiOrder,
    _bits,
    approx_classes,
    beat_core,
    block_triangular_form,
    from_edges,
)
from smalg.tokens import parse_int
from smalg.transmap import (
    TransitiveMap,
    TrivialityCertificate,
    _pull_back,
    _relation_vectors,
    _signed_powers,
    triviality_witness,
    validate,
    walk_product,
)


class RankNotOne(Exception):
    """A matrix required to have rank one does not."""


# --- complex rational arithmetic on plain pairs ------------------------------

CZERO = (Fraction(0), Fraction(0))


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    if n == 0:
        raise ZeroDivisionError
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def is_czero(x):
    return x[0] == 0 and x[1] == 0


def fraction_pair(x):
    """A package scalar as its (real, imaginary) pair of Fractions, read off
    its (p, q, d) triple."""
    return (Fraction(x.p, x.d), Fraction(x.q, x.d))


def oracle_rank(rows):
    """Rank of a matrix given as nested lists of (Fraction, Fraction) pairs.

    Column-sweep Gaussian elimination, deliberately written in the dullest
    possible style.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rk = 0
    for col in range(ncols):
        piv = None
        for r in range(rk, nrows):
            if not is_czero(m[r][col]):
                piv = r
                break
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        pval = m[rk][col]
        for r in range(nrows):
            if r == rk or is_czero(m[r][col]):
                continue
            f = cdiv(m[r][col], pval)
            m[r] = [csub(a, cmul(f, b)) for a, b in zip(m[r], m[rk])]
        rk += 1
        if rk == nrows:
            break
    return rk


def grid_of(matrix):
    """Extract a DenseMatrix into oracle pair form without reusing its math."""
    return [
        [fraction_pair(matrix.at(i, j)) for j in range(1, matrix.cols + 1)]
        for i in range(1, matrix.rows + 1)
    ]


def oracle_rank_of(matrix):
    return oracle_rank(grid_of(matrix))


# --- matrix helpers that only tests use ---------------------------------------


def outer(u, v):
    """The rank-at-most-one matrix u v* (conjugating v)."""
    uu = [scalar(x) for x in u]
    vv = [scalar(x).conjugate() for x in v]
    return DenseMatrix(len(uu), len(vv), [a * b for a in uu for b in vv])


def conjugate_transpose(m):
    t = m.transpose()
    return DenseMatrix(t.rows, t.cols, [x.conjugate() for row in to_grid(t) for x in row])


def to_grid(m):
    """Row-major copy of a DenseMatrix as nested lists of scalars."""
    return [m.row_list(i) for i in range(1, m.rows + 1)]


def poly_mul(cs, ds):
    """Product of two coefficient lists (constant term first)."""
    cs, ds = poly_trim(cs), poly_trim(ds)
    if not cs or not ds:
        return []
    out = [ZERO] * (len(cs) + len(ds) - 1)
    for a, c in enumerate(cs):
        for b, d in enumerate(ds):
            out[a + b] = out[a + b] + c * d
    return poly_trim(out)


def is_rank_one_by_minors(m):
    """True iff m is nonzero and all 2x2 minors vanish."""
    if m.is_zero():
        return False
    g = to_grid(m)
    for i in range(m.rows):
        for k in range(i + 1, m.rows):
            for j in range(m.cols):
                for l in range(j + 1, m.cols):
                    if g[i][j] * g[k][l] != g[i][l] * g[k][j]:
                        return False
    return True


def col_list(m, j):
    """Column j of m (1-based) as a list of scalars."""
    return [m.at(i, j) for i in range(1, m.rows + 1)]


def rank_one_factor(m):
    """Write m = u v* (v conjugated); u is the first nonzero column scaled so
    its first nonzero entry is 1. Raises RankNotOne otherwise."""
    r = oracle_rank_of(m)
    if r != 1:
        raise RankNotOne(f"matrix has rank {r}, not 1")
    jcol = next(j for j in range(1, m.cols + 1) if any(col_list(m, j)))
    u = col_list(m, jcol)
    lead = next(x for x in u if x)
    u = [x / lead for x in u]
    irow = next(i for i, x in enumerate(u) if x) + 1
    v = [x.conjugate() for x in m.row_list(irow)]
    if outer(u, v) != m:
        raise RankNotOne("factor reconstruction failed")
    return u, v


def card(q):
    """Number of related pairs, diagonal included."""
    return len(q.pairs())


def strict_part(q):
    """The off-diagonal pairs of a quasi-order as a frozenset."""
    return frozenset(q.strict_pairs())


# --- relabeling by a permutation ---------------------------------------------


def invert_permutation(pi):
    inv = [0] * len(pi)
    for k, img in enumerate(pi, start=1):
        inv[img - 1] = k
    return tuple(inv)


def relabel_matrix(matrix, pi):
    """The matrix m' with m'[pi(i), pi(j)] = m[i, j], entry by entry; equals
    P m P^-1 for P = smalg.exactnum.permutation_matrix(pi)."""
    n = matrix.rows
    return DenseMatrix.from_entries(
        n,
        n,
        {
            (pi[i - 1], pi[j - 1]): matrix.at(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        },
    )


# --- relation combinatorics on raw pair sets --------------------------------


def oracle_closure(n, edges):
    """Reflexive-transitive closure by fixpoint iteration on a pair set."""
    rel = {(i, i) for i in range(1, n + 1)} | set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def oracle_is_increasing(pairs, target_pairs, pi):
    """pi given as a dict {i: image}; checks (pi(i), pi(j)) in target."""
    return all((pi[i], pi[j]) in target_pairs for (i, j) in pairs)


def oracle_increasing_perms(n, pairs, target_pairs):
    """All increasing bijections as tuples, by exhaustive search."""
    found = []
    for images in permutations(range(1, n + 1)):
        pi = {i: images[i - 1] for i in range(1, n + 1)}
        if oracle_is_increasing(pairs, target_pairs, pi):
            found.append(images)
    return found


def oracle_mutual_classes(n, pairs):
    """Partition by the mutual relation i~j iff (i,j) and (j,i) both hold."""
    seen = set()
    blocks = []
    for i in range(1, n + 1):
        if i in seen:
            continue
        blk = {
            j
            for j in range(1, n + 1)
            if (i, j) in pairs and (j, i) in pairs
        }
        blk.add(i)
        seen |= blk
        blocks.append(frozenset(blk))
    return blocks


def oracle_connected_classes(n, pairs):
    """Connected components of the symmetrized strict relation."""
    adj = {i: set() for i in range(1, n + 1)}
    for (i, j) in pairs:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    seen = set()
    blocks = []
    for i in range(1, n + 1):
        if i in seen:
            continue
        comp = {i}
        stack = [i]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        blocks.append(frozenset(comp))
    return blocks


def oracle_pairs(q):
    """Every related pair of q, by testing all n^2 positions with ``has``."""
    return [
        (i, j)
        for i in range(1, q.n + 1)
        for j in range(1, q.n + 1)
        if q.has(i, j)
    ]


def oracle_strict_pairs(q):
    return [(i, j) for (i, j) in oracle_pairs(q) if i != j]


def oracle_out_set(q, i):
    return [j for j in range(1, q.n + 1) if q.has(i, j)]


def oracle_reverse_pairs(q):
    """The pairs of the reversed relation, sorted."""
    return sorted((j, i) for (i, j) in oracle_pairs(q))


def oracle_first_unsupported(support, q):
    """The least pair of the set ``support`` that q does not relate, or
    None: every pair tested with ``QuasiOrder.__contains__``."""
    return min((p for p in support if p not in q), default=None)


def oracle_block_triangular_form(q):
    """The class order by rescanning the remaining classes before each
    placement (O(p^3) on p classes), with the least minimum breaking ties;
    classes come from ``oracle_mutual_classes`` and every cell from ``has``."""
    blocks = oracle_mutual_classes(q.n, set(oracle_pairs(q)))
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
            raise ValueError("class order has a cycle")
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
        bytes(leq[placed[a]][placed[b]] for b in range(p)) for a in range(p)
    )
    return BlockTriangularForm(
        pi=tuple(pi),
        sizes=tuple(len(blocks[a]) for a in placed),
        presence=presence,
        class_order=tuple(frozenset(blocks[a]) for a in placed),
    )


def oracle_first_transitivity_violation(strict, weights):
    """The first composable pair that breaks multiplicative transitivity,
    by scanning all pairs of strict pairs in sorted order: ``(witness,
    message)``, or None when the map is transitive. ``weights`` maps each
    strict pair to a (re, im) pair of Fractions."""
    one = (Fraction(1), Fraction(0))
    for (i, j) in strict:
        for (j2, k) in strict:
            if j2 != j:
                continue
            prod = cmul(weights[(i, j)], weights[(j, k)])
            if i == k:
                if prod != one:
                    return (
                        ((i, j), (j, k)),
                        f"g({i},{j}) g({j},{k}) != 1 on a two-sided pair",
                    )
            elif prod != weights[(i, k)]:
                return ((i, j), (j, k)), f"g({i},{j}) g({j},{k}) != g({i},{k})"
    return None


def oracle_rho_u(n, pairs, u):
    """Directed-inside, reversed-outside recombination of a relation."""
    uset = set(u)
    comp = set(range(1, n + 1)) - uset
    out = set()
    for (i, j) in pairs:
        if i in uset and j in uset:
            out.add((i, j))
        elif i in comp and j in comp:
            out.add((j, i))
    return out


def edge_rho_u(q, u):
    """rho_U as the package once built it, from a class union u of q: the
    strict pairs kept inside u and turned round outside it, a pair that
    straddles u refused, and the result closed-checked by ``from_edges``."""
    uset = set(u)
    edges = []
    for (i, j) in q.pairs():
        if i == j:
            continue
        if i in uset and j in uset:
            edges.append((i, j))
        elif i in uset or j in uset:
            raise AssertionError("strict pair straddles a class union")
        else:
            edges.append((j, i))
    return from_edges(q.n, edges, close=False)


def oracle_jordan_embeddings_by_union(n, pairs, target_pairs):
    """Brute force over (class-union U, permutation pi).

    Mirrors the definition: some block union U and bijection pi such that the
    relabeled mix of rho inside U and reversed rho outside U lands in rho'.
    Returns every hit.
    """
    blocks = oracle_connected_classes(n, pairs)
    results = []
    for mask in range(1 << len(blocks)):
        u = set()
        for b in range(len(blocks)):
            if mask >> b & 1:
                u |= blocks[b]
        mixed = oracle_rho_u(n, pairs, u)
        for images in permutations(range(1, n + 1)):
            pi = {i: images[i - 1] for i in range(1, n + 1)}
            if oracle_is_increasing(mixed, target_pairs, pi):
                results.append((frozenset(u), images))
    return results


def oracle_relation_automorphisms(n, pairs):
    """All permutations preserving the relation in both directions."""
    autos = []
    vertices = range(1, n + 1)
    for images in permutations(vertices):
        pi = {i: images[i - 1] for i in vertices}
        if all(
            ((pi[i], pi[j]) in pairs) == ((i, j) in pairs)
            for i in vertices
            for j in vertices
        ):
            autos.append(images)
    return autos


def oracle_rational_matrix_rank(rows):
    """Rank of an integer matrix, through the pair-arithmetic eliminator."""
    return oracle_rank(
        [[(Fraction(v), Fraction(0)) for v in row] for row in rows]
    )


def integer_bareiss_rank(rows):
    """Rank over Q of an integer matrix, given as int rows, by fraction-free
    (Bareiss) elimination on Python ints alone: after each pivot, every
    entry below it is a minor of the input, so each division by the
    previous pivot is exact."""
    m = [list(row) for row in rows]
    rank, last = 0, 1
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[c]
        for r in range(rank + 1, len(m)):
            row, a = m[r], m[r][c]
            m[r] = row[:c] + [(p * x - a * y) // last for x, y in zip(row[c:], top[c:])]
        last = p
        rank += 1
    return rank


def oracle_all_transitive_trivial_small(n, pairs):
    """Decide whether every transitive map on the relation is trivial.

    Works on the additive exponent systems. Free differences show up as a
    gap between the rational cocycle and coboundary dimensions; torsion
    differences (which for these composition systems are two-power) show
    up in an exhaustive scan of all exponent vectors modulo 2 and modulo 4
    against all separator vectors. Deliberately brute force, so it refuses
    relations with more than six strict pairs.
    """
    strict = sorted((i, j) for (i, j) in pairs if i != j)
    if not strict:
        return True
    if len(strict) > 6:
        raise ValueError("oracle limited to six strict pairs")
    idx = {e: k for k, e in enumerate(strict)}
    m = len(strict)
    rows = []
    for (i, j) in strict:
        for (j2, k) in strict:
            if j2 != j:
                continue
            row = [0] * m
            row[idx[(i, j)]] += 1
            row[idx[(j, k)]] += 1
            if k != i:
                row[idx[(i, k)]] -= 1
            rows.append(row)
    dim_solutions = m - oracle_rational_matrix_rank(rows)
    ratio_rows = []
    for (i, j) in strict:
        row = [0] * n
        row[i - 1] += 1
        row[j - 1] -= 1
        ratio_rows.append(row)
    if dim_solutions != oracle_rational_matrix_rank(ratio_rows):
        return False
    for k in (2, 4):
        separators = set()
        for y in product(range(k), repeat=n):
            separators.add(
                tuple((y[i - 1] - y[j - 1]) % k for (i, j) in strict)
            )
        for x in product(range(k), repeat=m):
            if any(
                sum(c * x[e] for e, c in enumerate(row)) % k for row in rows
            ):
                continue
            if x not in separators:
                return False
    return True


def oracle_det(rows):
    """Determinant by plain elimination with partial pivoting on pairs."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    det = (Fraction(1), Fraction(0))
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not is_czero(m[r][col]):
                piv = r
                break
        if piv is None:
            return CZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pval = m[col][col]
        det = cmul(det, pval)
        for r in range(col + 1, n):
            if is_czero(m[r][col]):
                continue
            f = cdiv(m[r][col], pval)
            m[r] = [csub(a, cmul(f, b)) for a, b in zip(m[r], m[col])]
    return det if sign > 0 else csub(CZERO, det)


def _pair_poly_mul(p, q):
    out = [CZERO] * (len(p) + len(q) - 1)
    for a, c in enumerate(p):
        for b, d in enumerate(q):
            out[a + b] = cadd(out[a + b], cmul(c, d))
    return out


def _perm_sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def oracle_charpoly(rows):
    """Coefficients of det(tI - A), ascending, via the Leibniz sum over
    permutations with degree-one polynomial entries."""
    n = len(rows)
    cone = (Fraction(1), Fraction(0))
    total = [CZERO] * (n + 1)
    for perm in permutations(range(n)):
        prod = [cone]
        for i in range(n):
            ent = [csub(CZERO, rows[i][perm[i]])]
            if perm[i] == i:
                ent.append(cone)
            prod = _pair_poly_mul(prod, ent)
        if _perm_sign(perm) > 0:
            for k, c in enumerate(prod):
                total[k] = cadd(total[k], c)
        else:
            for k, c in enumerate(prod):
                total[k] = csub(total[k], c)
    return total


# --- Jordan embedding by brute force ----------------------------------------


def _unit_anticommutator(p, q):
    """E_p E_q + E_q E_p for unit pairs, as a coefficient dict over pairs."""
    out = {}
    if p[1] == q[0]:
        key = (p[0], q[1])
        out[key] = out.get(key, 0) + 1
    if q[1] == p[0]:
        key = (q[0], p[1])
        out[key] = out.get(key, 0) + 1
    return out


def oracle_jordan_embedding_exists(rho, rho2):
    """Search every vertex subset and permutation for unit-level embedding
    data.

    A candidate sends E_ij to the codomain unit at (pi(i), pi(j)) when i is
    in the chosen subset or i == j, and to the flipped position otherwise.
    It succeeds when the targets stay inside the codomain relation, are
    pairwise distinct, and satisfy the Jordan identity symbolically. This
    deliberately ranges over arbitrary subsets, not just class unions.
    """
    n = rho.n
    if rho2.n != n:
        return False
    pairs = rho.pairs()
    allowed = set(rho2.pairs())
    for perm in permutations(range(1, n + 1)):
        for mask in range(1 << n):
            chosen = {v for v in range(1, n + 1) if mask >> (v - 1) & 1}
            target = {}
            ok = True
            for (i, j) in pairs:
                if i == j or i in chosen:
                    t = (perm[i - 1], perm[j - 1])
                else:
                    t = (perm[j - 1], perm[i - 1])
                if t not in allowed:
                    ok = False
                    break
                target[(i, j)] = t
            if not ok or len(set(target.values())) != len(target):
                continue
            for p in pairs:
                for q in pairs:
                    lhs = {}
                    for r, c in _unit_anticommutator(p, q).items():
                        key = target[r]
                        lhs[key] = lhs.get(key, 0) + c
                    rhs = _unit_anticommutator(target[p], target[q])
                    if {k: v for k, v in lhs.items() if v} != {
                        k: v for k, v in rhs.items() if v
                    }:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


# --- Jordan identity on unit pairs ------------------------------------------


def _pair_matmul(x, y):
    n, m, p = len(x), len(y), len(y[0]) if y else 0
    # the nonzero entries of each row of y; zero products add nothing
    y_rows = [[(j, v) for j, v in enumerate(row) if not is_czero(v)] for row in y]
    out = [[CZERO] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if is_czero(x[i][k]):
                continue
            for j, v in y_rows[k]:
                out[i][j] = cadd(out[i][j], cmul(x[i][k], v))
    return out


def _pair_matadd(x, y):
    return [[cadd(a, b) for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _breaks_jordan_identity(grids, first, second) -> bool:
    """Whether phi(X) phi(Y) + phi(Y) phi(X) differs from phi(X Y + Y X)
    for the units X = E_first and Y = E_second; ``grids`` maps each unit
    to its image in oracle pair form."""
    (a, b), (c, d) = first, second
    n = len(grids[first])
    left = [[CZERO] * n for _ in range(n)]
    if b == c:
        left = _pair_matadd(left, grids[(a, d)])
    if d == a:
        left = _pair_matadd(left, grids[(c, b)])
    x, y = grids[first], grids[second]
    return left != _pair_matadd(_pair_matmul(x, y), _pair_matmul(y, x))


def oracle_first_jordan_violation(pairs, grids):
    """First ordered unit pair (in the given order, every ordered pair) at
    which phi(X) phi(Y) + phi(Y) phi(X) differs from phi(X Y + Y X); None if
    there is none. ``grids`` maps each pair to its image in oracle pair
    form."""
    return next(
        ((x, y) for x in pairs for y in pairs if _breaks_jordan_identity(grids, x, y)),
        None,
    )


def jordan_pair_violated(phi: LinearMapOnSMA, pair) -> bool:
    """Whether the Jordan identity fails at the named unit pair, checked on
    the two images by dense products of their entries: the check a
    NOT-JORDAN certificate must pass."""
    grids = {p: grid_of(m) for p, m in phi.unit_images().items()}
    return _breaks_jordan_identity(grids, *pair)


# --- spectral projectors by the characteristic-polynomial route --------------


def _pair_scale(x, c):
    return [[cmul(c, a) for a in row] for row in x]


def oracle_spectral_pairs(rows):
    """Eigenvalues and spectral projectors of a square pair-grid matrix by
    the characteristic-polynomial route.

    The squarefree part of ``oracle_charpoly`` must annihilate the matrix;
    its roots come from the package's rational root search (which has tests
    of its own in test_polyroots.py), and each projector is the Lagrange
    polynomial in the matrix, built here on pairs. Returns a list of
    (eigenvalue pair, projector grid) in ascending (re, im) order, or raises
    NotDiagonalizable / IrrationalSpectrum with the messages of
    ``spectral_idempotents`` below.
    """
    n = len(rows)
    one = (Fraction(1), Fraction(0))
    ident = [[one if i == j else CZERO for j in range(n)] for i in range(n)]
    mu = squarefree_part([GaussianRational(*c) for c in oracle_charpoly(rows)])
    acc = [[CZERO] * n for _ in range(n)]
    for c in reversed(mu):
        acc = _pair_matadd(_pair_matmul(acc, rows), _pair_scale(ident, fraction_pair(c)))
    if any(not is_czero(x) for row in acc for x in row):
        raise NotDiagonalizable("minimal polynomial has a repeated root")
    roots, rem = roots_in_gaussian_rationals(mu)
    if poly_degree(rem) > 0:
        raise IrrationalSpectrum(
            f"characteristic factor of degree {poly_degree(rem)} has no "
            "Gaussian-rational root"
        )
    eigs = sorted(fraction_pair(r) for r in roots)
    out = []
    for lam in eigs:
        p = ident
        for other in eigs:
            if other != lam:
                shifted = _pair_matadd(rows, _pair_scale(ident, csub(CZERO, other)))
                p = _pair_scale(_pair_matmul(shifted, p), cdiv(one, csub(lam, other)))
        out.append((lam, p))
    return out


# --- Jordan ladder references --------------------------------------------------


def oracle_unit_image(form, i, j, sinv):
    """Image of E_ij under a canonical Jordan form, as a pair grid, by two
    dense products S (g(i, j) E_ab) S^-1. (a, b) is (i, j) on the diagonal
    and inside the class union u, (j, i) outside it, then relabeled by pi.
    ``sinv`` is the inverse of ``form.s``."""
    return _unit_image_grid(form, i, j, grid_of(form.s), grid_of(sinv))


def oracle_unit_images(form, sinv):
    """``oracle_unit_image`` for every unit of the form's relation, as a
    dict of pair grids; S and S^-1 are read into pair form once."""
    s_grid, sinv_grid = grid_of(form.s), grid_of(sinv)
    return {
        (i, j): _unit_image_grid(form, i, j, s_grid, sinv_grid)
        for (i, j) in form.rho.pairs()
    }


def _unit_image_grid(form, i, j, s_grid, sinv_grid):
    n = form.rho.n
    a, b = (i, j) if i == j or i in form.u else (j, i)
    if form.pi is not None:
        a, b = form.pi[a - 1], form.pi[b - 1]
    g = form.g.value(i, j)
    core = [[CZERO] * n for _ in range(n)]
    core[a - 1][b - 1] = fraction_pair(g)
    return _pair_matmul(_pair_matmul(s_grid, core), sinv_grid)


def oracle_first_nonorthogonal_pair(grids):
    """First (i, j) with i < j, in lexicographic order, whose idempotents
    q_i, q_j (pair grids, 1-based list position) have q_i q_j + q_j q_i != 0;
    None if every pair anticommutes. This is the pairwise scan that
    ``classify_jordan`` runs only when the q_i fail its frame check."""
    n = len(grids)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = grids[i], grids[j]
            anti = _pair_matadd(_pair_matmul(x, y), _pair_matmul(y, x))
            if any(not is_czero(v) for row in anti for v in row):
                return (i + 1, j + 1)
    return None


def dense_reconstruct(form) -> LinearMapOnSMA:
    """The map of a canonical Jordan form rebuilt by dense products: S
    inverted, then for each unit column a of S, scaled by g(i, j), times
    row b of S^-1, with (a, b) as in ``oracle_unit_image``. This is how the
    package rebuilt forms before its unit frames."""
    rho = form.rho
    sinv = inverse(form.s)
    idx = range(1, rho.n + 1)
    images = {}
    for (i, j) in rho.pairs():
        a, b = (i, j) if i == j or i in form.u else (j, i)
        if form.pi is not None:
            a, b = form.pi[a - 1], form.pi[b - 1]
        col = form.s.submatrix(idx, (a,)).scale(form.g.value(i, j))
        images[(i, j)] = col * sinv.submatrix((b,), idx)
    return LinearMapOnSMA(rho, images)


def dense_classify_jordan(phi: LinearMapOnSMA) -> CanonicalJordanForm:
    """The classification ladder as the package ran it on dense products:
    idempotence of each q_i = phi(E_ii) by squaring, orthogonality through
    one product of their sum, two n x n products S0^-1 phi(E_ij) S0 per
    strict unit, and the final comparison with ``dense_reconstruct``. An
    image that leaves its span is named with E_ii when q_i phi(E_ij) +
    phi(E_ij) q_i != phi(E_ij), else with E_jj, and a class of both kinds
    by its least pair of the two kinds that share a vertex: pairs that
    break the Jordan identity. The package's frame ladder must give the
    same form, or raise the same exception with the same message and
    pair."""
    rho = phi.rho
    n = rho.n
    images = phi.unit_images()
    for pair in rho.pairs():
        if images[pair].is_zero():
            raise VanishingUnitImage(f"unit {pair} maps to zero", pair=pair)
    diag_imgs = [images[(i, i)] for i in range(1, n + 1)]
    for i, q in enumerate(diag_imgs, start=1):
        if q * q != q:
            raise NotJordan(
                f"image of E_{i}{i} is not idempotent", pair=((i, i), (i, i))
            )
    total = sum(diag_imgs[1:], diag_imgs[0])
    if total * total != total:
        for i, j in combinations(range(1, n + 1), 2):
            qi, qj = diag_imgs[i - 1], diag_imgs[j - 1]
            if not (qi * qj + qj * qi).is_zero():
                raise NotJordan(
                    f"images of E_{i}{i} and E_{j}{j} are not orthogonal",
                    pair=((i, i), (j, j)),
                )
    cols = []
    for q in diag_imgs:
        j, i = min((j, i) for (i, j) in q.support())
        cols.append(col_list(q.scale(q.at(i, j).reciprocal()), j))
    s0 = DenseMatrix.from_rows(cols).transpose()
    s0inv = inverse(s0)
    mult = {}
    anti = {}
    for (i, j) in rho.strict_pairs():
        b = s0inv * images[(i, j)] * s0
        alpha = b.at(i, j)
        beta = b.at(j, i)
        expected = DenseMatrix.from_entries(n, n, {(i, j): alpha, (j, i): beta})
        if b != expected:
            x, qi = images[(i, j)], images[(i, i)]
            k = i if jordan_product(qi, x) != x else j
            raise NotJordan(
                f"conjugated image of E_{i}{j} leaves span(E_{i}{j}, E_{j}{i})",
                pair=((k, k), (i, j)),
            )
        if alpha and beta:
            raise NotJordan(
                f"image of E_{i}{j} mixes multiplicative and antimultiplicative "
                "parts",
                pair=((i, j), (i, j)),
            )
        if alpha:
            mult[(i, j)] = alpha
        else:
            anti[(i, j)] = beta
    classes = approx_classes(rho).blocks
    u = set()
    for blk in classes:
        m_pairs = sorted(p for p in mult if p[0] in blk)
        a_pairs = sorted(p for p in anti if p[0] in blk)
        if m_pairs and a_pairs:
            raise NotJordan(
                "multiplicative and antimultiplicative pairs share a class",
                pair=min(
                    (m, a) for m in m_pairs for a in a_pairs if set(m) & set(a)
                ),
            )
        if m_pairs:
            u |= blk
    try:
        g = validate(rho, {**mult, **anti})
    except NotTransitive as exc:
        raise NotJordan(
            f"unit weights are not multiplicatively transitive: {exc}",
            pair=exc.witness,
        ) from exc
    form = CanonicalJordanForm(s=s0, u=frozenset(u), g=g)
    if dense_reconstruct(form) != phi:
        raise InternalInconsistency(
            "reconstruction differs; the input was not a Jordan homomorphism"
        )
    return form


# --- rank preservation of the induced scaling -----------------------------------


def lagrange_annihilate(a: DenseMatrix, eigs) -> None:
    """Raise unless the product of the a - lam*I over the distinct
    eigenvalues is zero, which holds exactly when a is diagonalizable."""
    ident = DenseMatrix.identity(a.rows)
    annihilator = ident
    for lam in eigs:
        annihilator = annihilator * (a - ident.scale(lam))
    if not annihilator.is_zero():
        raise NotDiagonalizable("minimal polynomial has a repeated root")


def lagrange_spectrum(a: DenseMatrix) -> list:
    """Sorted distinct eigenvalues of a square matrix that is diagonalizable
    over the Gaussian rationals, by the minimal polynomial: an
    upper-triangular matrix reads them off its diagonal and takes the
    annihilation test; any other takes the squarefree part of its
    characteristic polynomial, tests that it annihilates the matrix, and
    searches it for roots. The route the package ran before it read
    diagonalizability off its left eigenspaces."""
    if a.is_upper_triangular():
        eigs = sorted(set(a.diagonal()), key=GaussianRational.sort_key)
        lagrange_annihilate(a, eigs)
        return eigs
    mu = squarefree_part(charpoly(a))
    if not poly_eval_matrix(mu, a).is_zero():
        raise NotDiagonalizable("minimal polynomial has a repeated root")
    roots, rem = roots_in_gaussian_rationals(mu)
    if poly_degree(rem) > 0:
        raise IrrationalSpectrum(
            f"characteristic factor of degree {poly_degree(rem)} has no "
            "Gaussian-rational root"
        )
    return sorted(roots, key=GaussianRational.sort_key)


def lagrange_projectors(a: DenseMatrix, eigs) -> list:
    """The Lagrange projectors of a diagonalizable matrix, one per
    eigenvalue in ``eigs`` and in that order: the polynomial in a that is 1
    at its own eigenvalue and 0 at the others."""
    ident = DenseMatrix.identity(a.rows)
    shifted = [a - ident.scale(lam) for lam in eigs]
    out = []
    for lam in eigs:
        p = ident
        for other, m in zip(eigs, shifted):
            if other != lam:
                p = (m * p).scale((lam - other).reciprocal())
        out.append(p)
    return out


def pivot_columns(m: DenseMatrix) -> list:
    """The 1-based pivot columns of the package's elimination kernel: each
    column that is not in the span of the columns left of it."""
    return [c + 1 for _, c in _gauss_jordan(*_int_rows(m))[0]]


def dense_simultaneous_diagonalize(rho: QuasiOrder, family) -> Diagonalization:
    """The simultaneous diagonalization as the package built it before it
    pushed unit columns through the Lagrange factors: every member's n x n
    Lagrange projectors, refined into the nonzero n x n joint projectors,
    and the columns of S read off their pivot columns on each class. The
    reference for ``simultaneous_diagonalize_in_sma``, which must return
    the same S, S^-1 and diagonals, or raise the same error."""
    family = list(family)
    n = rho.n
    for f in family:
        if f.shape != (n, n):
            raise DimensionMismatch(f"family member shape {f.shape}, expected n={n}")
        bad = oracle_first_unsupported(f.support(), rho)
        if bad is not None:
            raise SupportViolation(
                f"family member has entry at {bad} outside the relation", pair=bad
            )
    for x in range(len(family)):
        for y in range(x + 1, len(family)):
            if family[x] * family[y] != family[y] * family[x]:
                raise PreconditionViolated(
                    f"members {x + 1} and {y + 1} do not commute"
                )
    if not family:
        ident = DenseMatrix.identity(n)
        return Diagonalization(ident, ident, ())
    classes = [sorted(c) for c in block_triangular_form(rho).class_order]
    # a member's spectrum is the union of the spectra of its class blocks
    spectra = [set() for _ in family]
    for idx in classes:
        for k, f in enumerate(family):
            if len(idx) == 1:
                spectra[k].add(f.at(idx[0], idx[0]))
                continue
            try:
                spectra[k].update(lagrange_spectrum(f.submatrix(idx, idx)))
            except NotDiagonalizable as exc:
                raise NotDiagonalizable(f"member {k + 1} is not diagonalizable") from exc
            except IrrationalSpectrum as exc:
                raise IrrationalSpectrum(
                    f"member {k + 1} has irrational eigenvalues"
                ) from exc
    joint = [DenseMatrix.identity(n)]
    for k, (f, eigs) in enumerate(zip(family, spectra)):
        eigs = sorted(eigs, key=GaussianRational.sort_key)
        try:
            lagrange_annihilate(f, eigs)
        except NotDiagonalizable as exc:
            raise NotDiagonalizable(f"member {k + 1} is not diagonalizable") from exc
        projectors = lagrange_projectors(f, eigs)
        refined = []
        for q in joint:
            for p in projectors:
                qp = q * p
                if not qp.is_zero():
                    refined.append(qp)
        joint = refined
    columns = {}
    for idx in classes:
        picks = sorted(
            (c, t) for t, q in enumerate(joint) for c in pivot_columns(q.submatrix(idx, idx))
        )
        if len(picks) != len(idx):
            raise InternalInconsistency("joint projectors do not split a class")
        for j, (c, t) in zip(idx, picks):
            columns[j] = col_list(joint[t], idx[c - 1])
    s = DenseMatrix.from_rows([columns[j] for j in range(1, n + 1)]).transpose()
    sinv = inverse(s)
    bad = oracle_first_unsupported(s.support(), rho)
    if bad is None:
        bad = oracle_first_unsupported(sinv.support(), rho)
    if bad is not None:
        raise InternalInconsistency(f"similarity escaped the algebra at {bad}")
    diagonals = []
    for f in family:
        d = sinv * f * s
        if not d.is_diagonal():
            raise InternalInconsistency("conjugate failed to come out diagonal")
        diagonals.append(d.diagonal())
    return Diagonalization(s, sinv, tuple(diagonals))


def eigenspace_spectrum(a: DenseMatrix) -> tuple:
    """(eigenvalues, eigenspaces) of a whole class block, raising as the
    package's class-block stage did when it split every member's block by
    its own spectrum: IrrationalSpectrum carries the degree of the
    squarefree part of the factor that the root search left of the block's
    characteristic polynomial."""
    eigs, spaces, rem = _spectrum(a)
    if poly_degree(rem) > 0:
        raise IrrationalSpectrum(
            f"characteristic factor of degree {poly_degree(squarefree_part(rem))} "
            "has no Gaussian-rational root"
        )
    return eigs, spaces


def eigenspace_intersection(us: list, vs: list) -> list:
    """An integer basis of the intersection of the spans of two bases of
    (re, im) int rows: x U for each kernel vector (x, y) of the columns of
    U and -V. x is never zero, since V is independent, and the x of a
    kernel basis are independent, so the x U are a basis."""
    stacked = us + [([-x for x in re], [-y for y in im]) for re, im in vs]
    re_rows = [list(row) for row in zip(*(re for re, _ in stacked))]
    im_rows = [list(row) for row in zip(*(im for _, im in stacked))]
    m = len(re_rows)
    out = []
    for xr, xi in _kernel_basis(re_rows, im_rows, len(stacked)):
        wr, wi = [0] * m, [0] * m
        for p, q, (ur, ui) in zip(xr, xi, us):
            if q:
                wr = [w + p * a - q * b for w, a, b in zip(wr, ur, ui)]
                wi = [w + p * b + q * a for w, a, b in zip(wi, ur, ui)]
            elif p:
                wr = [w + p * a for w, a in zip(wr, ur)]
                wi = [w + p * b for w, b in zip(wi, ui)]
        out.append(_primitive(wr, wi))
    return out


def eigenspace_class_picks(blocks, position, size: int) -> list:
    """The pairs (pivot column j, tuple t) of one class of ``size`` 2 or
    more: t holds one eigenvalue index per member, and j runs over the
    pivot columns of a basis of L_t, the joint left eigenspace of the
    members' class blocks for t; tuples with L_t = 0 are dropped.
    ``blocks`` holds each member's (sorted block eigenvalues, their left
    eigenspaces) from ``eigenspace_spectrum``. L_t is refined member by
    member, L_{t+(u)} = L_t meet K_u for the member's eigenspace K_u, by
    one intersection kernel per pair; once the pieces of L_t fill it, the
    rest are zero and are not solved."""
    joint = [((), None)]  # None: the whole space
    for (eigs, spaces), pos in zip(blocks, position):
        refined = []
        for t, basis in joint:
            left = size if basis is None else len(basis)
            for lam, space in zip(eigs, spaces):
                if not left:
                    break
                if basis is None:
                    part = space
                elif len(space) == size:
                    part = basis
                else:
                    part = eigenspace_intersection(basis, space)
                if part:
                    refined.append((t + (pos[lam],), part))
                    left -= len(part)
        joint = refined
    return [
        (c + 1, t)
        for t, basis in joint
        for _, c in _gauss_jordan([list(re) for re, _ in basis], [list(im) for _, im in basis])[0]
    ]


def eigenspace_simultaneous_diagonalize(rho: QuasiOrder, family) -> Diagonalization:
    """The simultaneous diagonalization as the package built it before it
    refined the first member's eigenspaces by the later members'
    restrictions: every member's class block split by its own spectrum
    (``eigenspace_spectrum``), the joint eigenspaces met member by member
    by intersection kernels (``eigenspace_class_picks``), then the
    package's push of unit columns and its certificate F S = S D. The
    reference for ``simultaneous_diagonalize_in_sma``, which must return
    the same S, S^-1 and diagonals, or raise the same error with the same
    cause."""
    family = list(family)
    n = rho.n
    for f in family:
        if f.shape != (n, n):
            raise DimensionMismatch(f"family member shape {f.shape}, expected n={n}")
        bad = oracle_first_unsupported(f.support(), rho)
        if bad is not None:
            raise SupportViolation(
                f"family member has entry at {bad} outside the relation", pair=bad
            )
    if not family:
        ident = DenseMatrix.identity(n)
        return Diagonalization(ident, ident, ())
    try:
        return _eigenspace_diagonalize(rho, family)
    except SmalgError:
        _check_commute(family)
        raise


def _eigenspace_diagonalize(rho: QuasiOrder, family) -> Diagonalization:
    n = rho.n
    form = block_triangular_form(rho)
    classes = [sorted(c) for c in form.class_order]
    spectra = [set() for _ in family]
    class_blocks = []
    for idx in classes:
        blocks = []
        for k, f in enumerate(family):
            if len(idx) == 1:
                eigs, spaces = [f.at(idx[0], idx[0])], None
            else:
                try:
                    eigs, spaces = eigenspace_spectrum(f.submatrix(idx, idx))
                except NotDiagonalizable as exc:
                    raise NotDiagonalizable(
                        f"member {k + 1} is not diagonalizable"
                    ) from exc
                except IrrationalSpectrum as exc:
                    raise IrrationalSpectrum(
                        f"member {k + 1} has irrational eigenvalues"
                    ) from exc
            spectra[k].update(eigs)
            blocks.append((eigs, spaces))
        class_blocks.append(blocks)
    spectra = [sorted(eigs, key=GaussianRational.sort_key) for eigs in spectra]
    position = [{lam: u for u, lam in enumerate(eigs)} for eigs in spectra]
    indices = [
        [{pos[lam] for lam in eigs} for (eigs, _), pos in zip(blocks, position)]
        for blocks in class_blocks
    ]
    sources, targets, factors = [0] * n, [()] * n, [()] * n
    for b, (idx, blocks) in enumerate(zip(classes, class_blocks)):
        if len(idx) == 1:
            t = tuple(pos[eigs[0]] for (eigs, _), pos in zip(blocks, position))
            picks = [(1, t)]
        else:
            picks = sorted(eigenspace_class_picks(blocks, position, len(idx)))
            if len(picks) != len(idx):
                raise InternalInconsistency("joint eigenspaces do not split a class")
        above = [own for own, row in zip(indices, form.presence) if row[b]]
        reach = [set().union(*sets) for sets in zip(*above)]
        for j, (c, t) in zip(idx, picks):
            sources[j - 1], targets[j - 1] = idx[c - 1], t
            factors[j - 1] = tuple(r - {u} for r, u in zip(reach, t))
    s = _push(family, spectra, sources, targets, factors)
    sinv = inverse(s)
    bad = oracle_first_unsupported(s.support(), rho)
    if bad is None:
        bad = oracle_first_unsupported(sinv.support(), rho)
    if bad is not None:
        raise InternalInconsistency(f"similarity escaped the algebra at {bad}")
    diagonals = tuple([eigs[t[k]] for t in targets] for k, eigs in enumerate(spectra))
    for f, values in zip(family, diagonals):
        if f * s != s.scale_columns(values):
            for k, (g, eigs) in enumerate(zip(family, spectra)):
                try:
                    lagrange_annihilate(g, eigs)
                except NotDiagonalizable as exc:
                    raise NotDiagonalizable(f"member {k + 1} is not diagonalizable") from exc
            raise InternalInconsistency("conjugate failed to come out diagonal")
    return Diagonalization(s, sinv, diagonals)


def dense_gf2_kernel_basis(mat, cols=None):
    """Basis of the kernel over GF(2), vectors with entries in {0, 1}, by
    Gauss-Jordan elimination on dense 0/1 rows, one vector per free column
    in column order: the reference for the span of the GF(2) basis that
    ``intlattice.lattice`` reads off its Smith transform."""
    if not mat:
        if cols is None:
            raise ValueError("need column count for an empty matrix")
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    ncols = len(mat[0]) if cols is None else cols
    a = [[x & 1 for x in row] for row in mat]
    rows = len(a)
    pivot_of_col = {}
    r = 0
    for c in range(ncols):
        src = None
        for rr in range(r, rows):
            if a[rr][c]:
                src = rr
                break
        if src is None:
            continue
        a[r], a[src] = a[src], a[r]
        for rr in range(rows):
            if rr != r and a[rr][c]:
                a[rr] = [x ^ y for x, y in zip(a[rr], a[r])]
        pivot_of_col[c] = r
        r += 1
        if r == rows:
            break
    basis = []
    for fc in range(ncols):
        if fc in pivot_of_col:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for c, pr in pivot_of_col.items():
            vec[c] = a[pr][fc]
        basis.append(vec)
    return basis


def bareiss_gauss_jordan(re_rows, im_rows, reduce=False):
    """Bareiss elimination over the Gaussian integers as the package ran it
    before it skipped rows with a zero in the pivot column: every other row
    x becomes (p x - f y) / prev at every step, in place. The reference for
    ``exactnum._gauss_jordan``, which must return the same pivots and last
    pivot and leave the same rows, entry for entry."""
    rows = len(re_rows)
    cols = len(re_rows[0]) if rows else 0
    pivots = []
    qr, qi = 1, 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        src = None
        for rr in range(r, rows):
            if re_rows[rr][c] or im_rows[rr][c]:
                src = rr
                break
        if src is None:
            continue
        if src != r:
            re_rows[r], re_rows[src] = re_rows[src], re_rows[r]
            im_rows[r], im_rows[src] = im_rows[src], im_rows[r]
        yr, yi = re_rows[r], im_rows[r]
        pr, pi = yr[c], yi[c]
        norm = qr * qr + qi * qi
        for rr in range(0 if reduce else r + 1, rows):
            if rr == r:
                continue
            # Rows below the pivot are zero left of column c.
            s = c if rr > r else 0
            xr, xi = re_rows[rr][s:], im_rows[rr][s:]
            ur, ui = yr[s:], yi[s:]
            fr, fi = xr[c - s], xi[c - s]
            if pi or fi:
                parts = list(zip(xr, xi, ur, ui))
                nr = [pr * a - pi * b - fr * u + fi * v for a, b, u, v in parts]
                ni = [pr * b + pi * a - fr * v - fi * u for a, b, u, v in parts]
            else:
                nr = [pr * a - fr * u for a, u in zip(xr, ur)]
                ni = [pr * b - fr * v for b, v in zip(xi, ui)] if any(xi) or any(ui) else xi
            if qi:
                nr, ni = (
                    [(a * qr + b * qi) // norm for a, b in zip(nr, ni)],
                    [(b * qr - a * qi) // norm for a, b in zip(nr, ni)],
                )
            elif qr != 1:
                nr = [a // qr for a in nr]
                ni = [b // qr for b in ni]
            re_rows[rr][s:] = nr
            im_rows[rr][s:] = ni
        pivots.append((r, c))
        qr, qi = pr, pi
        r += 1
    return pivots, (qr, qi)


def rectangles(q: QuasiOrder):
    """All position rectangles: row pair i<k and column pair j<l with all of
    (i,j), (i,l), (k,j), (k,l) related."""
    out = []
    n = q.n
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            common = q._rows[i - 1] & q._rows[k - 1]
            cols = _bits(common)
            for a in range(len(cols)):
                for b in range(a + 1, len(cols)):
                    out.append(((i, k), (cols[a], cols[b])))
    return out


def full_relation_all_transitive_trivial(rho: QuasiOrder) -> bool:
    """The triviality decision on the whole relation, one Smith form over
    all its transitivity rows: the route before the beat-point core."""
    edges, rows = _relation_vectors(rho)
    ecount = len(edges)
    if ecount == 0:
        return True
    # the boundary is a graph incidence matrix: rank n - #components (approx classes)
    kernel_dim = ecount - (rho.n - len(approx_classes(rho).blocks))
    inv = smith_invariant_factors(rows)
    return len(inv) == kernel_dim and all(d == 1 for d in inv)


def full_relation_nontrivial_transitive_map(rho: QuasiOrder):
    """The basis search for a nontrivial +-2^k map on the whole relation:
    the route before the beat-point core."""
    edges, dense = dense_relation_rows(rho)
    ecount = len(edges)
    zeros = [0] * ecount

    def candidates():
        # the GF(2) basis, the costlier one, only if every exponent map fails
        for vec in integer_kernel_basis(dense, ecount):
            yield vec, zeros
        for vec in dense_gf2_kernel_basis(dense, ecount):
            yield zeros, vec

    for expo, signs in candidates():
        weights = _signed_powers(edges, expo, signs)
        if not triviality_witness(TransitiveMap(rho, weights)).is_trivial:
            return validate(rho, weights)
    return None


def is_beat_point(up, v) -> bool:
    """True iff vertex v has a least element strictly above it, or a
    greatest element strictly below it, among the vertices of ``up``, a dict
    from each vertex to its set of vertices above (itself included); or
    another vertex mutually related to it. Brute force over the sets."""
    above = {w for w in up[v] if w != v}
    below = {w for w in up if v in up[w] and w != v}
    if any(v in up[w] for w in above):
        return True
    least = [c for c in above if above <= up[c]]
    greatest = [c for c in below if all(c in up[w] for w in below)]
    return bool(least or greatest)


@dataclass(frozen=True)
class RectangleCheck:
    """Result of the rectangle minor test; ``minor`` is set on violation."""

    ok: bool
    rectangle: Optional[tuple] = None
    minor: Optional[GaussianRational] = None


def rectangle_minor_condition(g):
    """The induced scaling preserves rank one iff every rectangle of the
    relation has a vanishing 2x2 weight minor; the first rectangle (rows
    i < k, columns j < l) with a nonzero minor is reported."""
    n = g.rho.n
    pairs = set(g.rho.pairs())
    for i, k in combinations(range(1, n + 1), 2):
        for j, l in combinations(range(1, n + 1), 2):
            if {(i, j), (i, l), (k, j), (k, l)} <= pairs:
                minor = g.value(i, j) * g.value(k, l) - g.value(i, l) * g.value(k, j)
                if minor:
                    return RectangleCheck(ok=False, rectangle=((i, k), (j, l)), minor=minor)
    return RectangleCheck(ok=True)


def _label(g, i, j):
    return fraction_pair(g.value(i, j))


def oracle_product_form(g, rows, cols):
    """True iff some a_i, b_j make g(i, j) = a_i b_j on every pair of the
    relation inside rows x cols. Potentials are spread edge by edge from a
    seed per component, then every edge is checked."""
    edges = [(i, j) for (i, j) in g.rho.pairs() if i in rows and j in cols]
    a, b = {}, {}
    while True:
        grew = True
        while grew:
            grew = False
            for (i, j) in edges:
                if i in a and j not in b:
                    b[j] = cdiv(_label(g, i, j), a[i])
                    grew = True
                elif j in b and i not in a:
                    a[i] = cdiv(_label(g, i, j), b[j])
                    grew = True
        loose = [i for (i, j) in edges if i not in a]
        if not loose:
            break
        a[loose[0]] = (Fraction(1), Fraction(0))
    return all(_label(g, i, j) == cmul(a[i], b[j]) for (i, j) in edges)


def oracle_balanced_below(g, size):
    """True iff g is a product a_i b_j on every R x C with |R| = |C| <= size.
    Exhaustive over subsets; meant for n <= 6."""
    n = g.rho.n
    for k in range(1, size + 1):
        for rows in combinations(range(1, n + 1), k):
            for cols in combinations(range(1, n + 1), k):
                if not oracle_product_form(g, set(rows), set(cols)):
                    return False
    return True


def oracle_unbalanced_cycle(g, cycle):
    """True iff ``cycle`` lists the 2m pairs of a simple cycle of the
    row/column graph in order (rows i_1..i_m and columns j_1..j_m, each
    used twice, consecutive pairs sharing a row or a column in turn) whose
    alternating label product is not 1."""
    pairs = set(g.rho.pairs())
    if len(cycle) % 2 or len(cycle) < 4 or not set(cycle) <= pairs:
        return False
    rows = [i for (i, _) in cycle]
    cols = [j for (_, j) in cycle]
    if any(rows.count(i) != 2 for i in rows) or any(cols.count(j) != 2 for j in cols):
        return False
    m = len(cycle)
    shared = [
        (cycle[t][0] == cycle[(t + 1) % m][0], cycle[t][1] == cycle[(t + 1) % m][1])
        for t in range(m)
    ]
    if any(r == c for (r, c) in shared):
        return False
    if any(shared[t] == shared[(t + 1) % m] for t in range(m)):
        return False
    num = den = (Fraction(1), Fraction(0))
    for t, (i, j) in enumerate(cycle):
        if t % 2:
            den = cmul(den, _label(g, i, j))
        else:
            num = cmul(num, _label(g, i, j))
    return num != den


# --- reference checks the package no longer calls ------------------------------


def smith_invariant_factors(rows):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix given
    by its sparse rows, dicts from column to nonzero entry: the package's
    one reduction (``intlattice.lattice``), as ``transmap`` runs it."""
    return lattice(rows, 1 + max((c for row in rows for c in row), default=-1))[0]


def central_idempotents(q: QuasiOrder):
    """Diagonal 0/1 matrices P_C, one per connectivity class, in block order.

    These span the center of the algebra attached to q; ``info`` prints
    only their number, the number of classes.
    """
    return [
        DenseMatrix.diag([1 if i in blk else 0 for i in range(1, q.n + 1)])
        for blk in approx_classes(q).blocks
    ]


def jordan_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """The symmetrized product a*b + b*a."""
    return a * b + b * a


def identity_map(rho: QuasiOrder) -> LinearMapOnSMA:
    n = rho.n
    return LinearMapOnSMA(
        rho, {(i, j): DenseMatrix.unit(n, i, j) for (i, j) in rho.pairs()}
    )


def transpose_map(rho: QuasiOrder) -> LinearMapOnSMA:
    n = rho.n
    return LinearMapOnSMA(
        rho, {(i, j): DenseMatrix.unit(n, j, i) for (i, j) in rho.pairs()}
    )


def conjugation_map(rho: QuasiOrder, t: DenseMatrix) -> LinearMapOnSMA:
    """X maps to T X T^-1; lands outside A_rho in general."""
    n = rho.n
    tinv = inverse(t)
    return LinearMapOnSMA(
        rho,
        {(i, j): t * DenseMatrix.unit(n, i, j) * tinv for (i, j) in rho.pairs()},
    )


def is_jordan_homomorphism(phi: LinearMapOnSMA):
    """Check the Jordan identity on all unit pairs.

    Returns (True, None) or (False, ((i,j),(k,l))) with the first violating
    pair in lexicographic order. Bilinearity makes the unit check
    sufficient. Both sides of the identity are symmetric in the two units,
    so each unordered pair is checked once, in the order (i,j) <= (k,l); the
    mirror of a violating pair violates too and comes first, so the pair
    returned is the same as with every ordered pair checked.

    The package verifies Jordan maps with the cheaper classification ladder
    (``classify_jordan``); this direct check is the reference for it.
    """
    rho = phi.rho
    pairs = rho.pairs()
    images = phi.unit_images()
    for t, (a, b) in enumerate(pairs):
        for (c, d) in pairs[t:]:
            left = DenseMatrix.zeros(rho.n, rho.n)
            if b == c:
                left = left + images[(a, d)]
            if d == a:
                left = left + images[(c, b)]
            right = jordan_product(images[(a, b)], images[(c, d)])
            if left != right:
                return False, ((a, b), (c, d))
    return True, None


def is_diagonalizable(a: DenseMatrix) -> bool:
    """Annihilation test: the squarefree part of the characteristic
    polynomial must vanish at the matrix."""
    if not a.is_square:
        raise DimensionMismatch("diagonalizability needs a square matrix")
    return poly_eval_matrix(squarefree_part(charpoly(a)), a).is_zero()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with their spectral idempotents, in eigenvalue order."""

    pairs: tuple

    @property
    def eigenvalues(self):
        return [lam for (lam, _) in self.pairs]

    @property
    def idempotents(self):
        return [p for (_, p) in self.pairs]


def spectral_idempotents(a: DenseMatrix) -> SpectralDecomposition:
    """Resolve a matrix into eigenvalues and orthogonal idempotents.

    Each idempotent is the Lagrange interpolation polynomial of the matrix
    that is 1 at its own eigenvalue and 0 at the others, so everything in
    sight is a polynomial in the input.
    """
    if not a.is_square:
        raise DimensionMismatch("spectral idempotents need a square matrix")
    eigs = lagrange_spectrum(a)
    pairs = tuple(zip(eigs, lagrange_projectors(a, eigs)))
    n = a.rows
    total = DenseMatrix.zeros(n, n)
    recon = DenseMatrix.zeros(n, n)
    for lam, p in pairs:
        if p * p != p:
            raise InternalInconsistency("spectral projector not idempotent")
        total = total + p
        recon = recon + p.scale(lam)
    for x, (_, p) in enumerate(pairs):
        for _, q in pairs[x + 1 :]:
            if not (p * q).is_zero() or not (q * p).is_zero():
                raise InternalInconsistency("spectral projectors not orthogonal")
    if total != DenseMatrix.identity(n) or recon != a:
        raise InternalInconsistency("spectral resolution does not reassemble")
    return SpectralDecomposition(pairs=pairs)


# --- counts and parsers kept as the reference for the fast routes ------------


def row_pair_rectangle_count(q: QuasiOrder) -> int:
    """``rectangle_count`` over every pair of rows, none skipped: C(c, 2)
    for the c columns that rows i < k share."""
    rows = q._rows
    total = 0
    for i, ri in enumerate(rows):
        for rk in rows[i + 1:]:
            c = (ri & rk).bit_count()
            total += c * (c - 1) // 2
    return total


def oracle_first_closure_violation(n, edges):
    """The first composable (i, k), (k, j) of the reflexive pair set with
    (i, j) missing, least in i, then k, then j; None when it is transitive."""
    rel = {(i, i) for i in range(1, n + 1)} | set(edges)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if (i, k) not in rel:
                continue
            for j in range(1, n + 1):
                if (k, j) in rel and (i, j) not in rel:
                    return (i, k), (k, j)
    return None


def composable_validate(rho: QuasiOrder, weights) -> TransitiveMap:
    """``validate`` as it checked every map before the spanning-forest
    potentials: the keys against a set of the strict pairs, then every
    composable pair of strict pairs, multiplied out."""
    strict = rho.strict_pairs()
    allowed = set(strict)
    w = {}
    for key, val in dict(weights).items():
        i, j = key
        if (i, j) not in allowed:
            if i == j:
                raise SupportViolation(
                    f"diagonal weight ({i},{j}) must not be given", pair=(i, j)
                )
            raise SupportViolation(f"({i},{j}) is not in the relation", pair=(i, j))
        v = scalar(val)
        if not v:
            raise ZeroWeight(f"weight at ({i},{j}) is zero")
        w[(i, j)] = v
    if len(w) < len(strict):
        missing = next(p for p in strict if p not in w)
        raise SupportViolation(f"missing weight for {missing}", pair=missing)
    out = {}
    for (j, k) in strict:
        out.setdefault(j, []).append(k)
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
    return TransitiveMap(rho, {p: w[p] for p in strict})


def scalar_spanning_potentials(g: TransitiveMap):
    """Spanning-forest potentials of the symmetrized strict relation, as
    the package built them on scalars: adjacency lists of the map's pairs,
    each sorted per vertex; per component the lowest vertex is the root
    with potential 1. Returns the potentials, the tree parents, and a lazy
    iterator over the pairs of g, in its order, where g differs from
    s(i)/s(j)."""
    w = g._w
    adj = [[] for _ in range(g.rho.n + 1)]
    for edge in w:
        i, j = edge
        adj[i].append((j, edge))
        adj[j].append((i, edge))
    s = {}
    parent = {}
    for root in range(1, g.rho.n + 1):
        if root in s:
            continue
        s[root] = ONE
        queue = [root]
        for v in queue:
            for (u, edge) in sorted(adj[v]):
                if u in s:
                    continue
                x = w[edge]
                s[u] = s[v] / x if edge[0] == v else x * s[v]
                parent[u] = (v, edge)
                queue.append(u)
    failing = (e for e, x in w.items() if x * s[e[1]] != s[e[0]])
    return s, parent, failing


def scalar_triviality_witness(g: TransitiveMap) -> TrivialityCertificate:
    """``triviality_witness`` on ``scalar_spanning_potentials``: the
    separator, or the walk closed by the first failing pair and its
    product."""
    s, parent, failing = scalar_spanning_potentials(g)
    bad = next(failing, None)
    if bad is None:
        return TrivialityCertificate(separator=s)

    def steps_to_root(v):
        out = []
        while v in parent:
            u, edge = parent[v]
            out.append((edge, 1 if edge[0] == v else -1))
            v = u
        return out

    i, j = bad
    walk = [((i, j), 1)]
    walk.extend(steps_to_root(j))
    walk.extend((e, -d) for (e, d) in reversed(steps_to_root(i)))
    walk = tuple(walk)
    return TrivialityCertificate(walk=walk, product=walk_product(g, walk))


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


def dense_relation_rows(rho: QuasiOrder):
    """The strict pairs and the relation rows as dense lists, the input of
    the kernel bases: the integer kernel holds the exponent vectors and the
    GF(2) kernel the sign vectors of the transitive maps with values +-2^k."""
    edges, rows = _relation_vectors(rho)
    return edges, [[row.get(t, 0) for t in range(len(edges))] for row in rows]


def is_coboundary(n: int, edges, vec, parity: bool) -> bool:
    """True iff some integer potential p on 1..n has vec[t] = p(i) - p(j)
    on every edge t = (i, j), modulo 2 when ``parity``: that is, iff the
    map 2^vec, or (-1)^vec with ``parity``, is trivial. The potentials are
    spread along a spanning forest and then checked on every edge."""
    adj = [[] for _ in range(n + 1)]
    for (i, j), x in zip(edges, vec):
        adj[i].append((j, -x))
        adj[j].append((i, x))
    p = [None] * (n + 1)
    for root in range(1, n + 1):
        if p[root] is not None:
            continue
        p[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u, x in adj[v]:
                if p[u] is None:
                    p[u] = p[v] + x
                    stack.append(u)
    gaps = (p[i] - p[j] - x for (i, j), x in zip(edges, vec))
    return not any(d % 2 for d in gaps) if parity else not any(gaps)


def basis_nontrivial_transitive_map(rho: QuasiOrder, core: Optional[BeatCore] = None):
    """The search for a nontrivial +-2^k map on the beat-point core as the
    package ran it before the spanning-forest gauge: 2^b for each vector b
    of the saturated integer kernel basis of all the core's relation rows,
    then (-1)^c for each vector c of the GF(2) kernel basis, the first whose
    vector is not a coboundary, pulled back to rho; None if every one is."""
    if core is None:
        core = beat_core(rho)
    q = core.core
    edges, dense = dense_relation_rows(q)
    ecount = len(edges)
    zeros = [0] * ecount

    def candidates():
        for vec in integer_kernel_basis(dense, ecount):
            if not is_coboundary(q.n, edges, vec, False):
                yield vec, zeros
        for vec in dense_gf2_kernel_basis(dense, ecount):
            if not is_coboundary(q.n, edges, vec, True):
                yield zeros, vec

    found = next(candidates(), None)
    if found is None:
        return None
    weights = _signed_powers(edges, *found)
    return validate(rho, weights if q is rho else _pull_back(rho, core, weights))


# The four parsers as they read their input line by line, token by token,
# before the shared tokenizer: the reference that its fast paths must match
# in value, error message and line number.


def line_parse_relation(text: str):
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
            if n > MAX_VERTICES:
                raise FormatError(
                    f"vertex count {n} exceeds the limit of {MAX_VERTICES}", line=lineno
                )
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


def line_parse_weights(text: str, rho: QuasiOrder) -> TransitiveMap:
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


def _comment_free_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, line


def line_parse_matrix(text: str) -> DenseMatrix:
    lines = list(_comment_free_lines(text))
    if not lines:
        raise FormatError("empty matrix input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("matrix header must be 'rows cols'", line=lineno)
    try:
        r, c = parse_int(parts[0]), parse_int(parts[1])
    except ValueError as exc:
        raise FormatError("matrix header must be 'rows cols'", line=lineno) from exc
    if r < 0 or c < 0:
        raise FormatError("matrix dimensions must be nonnegative", line=lineno)
    parts = []
    for lineno, line in lines[1:]:
        try:
            parts.extend(map(GaussianRational.literal_parts, line.split()))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from exc
    if len(parts) != r * c:
        raise FormatError(
            f"expected {r * c} entries for a {r}x{c} matrix, got {len(parts)}"
        )
    return DenseMatrix.from_parts(r, c, parts)


def line_parse_linear_map(text: str) -> LinearMapOnSMA:
    lines = [
        (lineno, line.strip()) for lineno, line in _comment_free_lines(text)
    ]
    if not lines:
        raise FormatError("empty linear map input")
    lineno, header = lines[0]
    try:
        n = parse_int(header)
    except ValueError as exc:
        raise FormatError("first line must be the size n", line=lineno) from exc
    if n < 1:
        raise FormatError("size must be positive", line=lineno)
    if n > MAX_VERTICES:
        raise FormatError(f"size {n} exceeds the limit of {MAX_VERTICES}", line=lineno)
    images = {}
    pos = 1
    while pos < len(lines):
        lineno, line = lines[pos]
        parts = line.split()
        if parts[0] != "unit" or len(parts) != 3:
            raise FormatError("expected 'unit i j'", line=lineno)
        try:
            i, j = parse_int(parts[1]), parse_int(parts[2])
        except ValueError as exc:
            raise FormatError("unit indices must be integers", line=lineno) from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise FormatError(f"unit ({i},{j}) outside 1..{n}", line=lineno)
        if (i, j) in images:
            raise FormatError(f"duplicate unit ({i},{j})", line=lineno)
        pos += 1
        entries = []
        while pos < len(lines) and len(entries) < n * n:
            tl, tline = lines[pos]
            tokens = tline.split()
            if tokens[0] == "unit":
                break
            try:
                entries.extend(map(GaussianRational.literal_parts, tokens))
            except FormatError as exc:
                raise FormatError(str(exc), line=tl) from exc
            pos += 1
        if len(entries) != n * n:
            raise FormatError(
                f"unit ({i},{j}) needs {n * n} entries, got {len(entries)}",
                line=lineno,
            )
        images[(i, j)] = DenseMatrix.from_parts(n, n, entries)
    strict = [p for p in images if p[0] != p[1]]
    rho = from_edges(n, strict, close=False)
    missing = sorted(set(rho.pairs()) - set(images))
    if missing:
        raise FormatError(f"missing unit block for {missing[0]}")
    return LinearMapOnSMA(rho, images)


# The root search as the package ran it before the p-adic one: the rational
# root theorem over the Gaussian integers, with every divisor of the leading
# and constant coefficients found by factoring their norms.


def _gi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_norm(x) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _gi_divmod(x, y):
    """Rounded division making the remainder norm less than the divisor's."""
    n = _gi_norm(y)
    num = _gi_mul(x, (y[0], -y[1]))
    q = (
        (2 * num[0] + n) // (2 * n) if num[0] >= 0 else -((-2 * num[0] + n) // (2 * n)),
        (2 * num[1] + n) // (2 * n) if num[1] >= 0 else -((-2 * num[1] + n) // (2 * n)),
    )
    r = (x[0] - (q[0] * y[0] - q[1] * y[1]), x[1] - (q[0] * y[1] + q[1] * y[0]))
    return q, r


def _gi_gcd(x, y):
    while y != (0, 0):
        _, r = _gi_divmod(x, y)
        x, y = y, r
    return x


def _gi_exact_div(x, y):
    q, r = _gi_divmod(x, y)
    return q if r == (0, 0) else None


def _factor_int(n: int):
    """Prime factorization of a positive integer by trial division."""
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sqrt_minus_one_mod(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 mod 4."""
    for x in range(2, p):
        c = pow(x, (p - 1) // 4, p)
        if (c * c) % p == p - 1:
            return c
    raise InternalInconsistency(f"no sqrt(-1) mod {p}")


def _gaussian_prime_factors(z):
    """Gaussian prime factorization of a nonzero Gaussian integer, as a
    dict prime -> exponent with primes taken up to unit multiples."""
    if z == (0, 0):
        raise ZeroDivisionError("factorization of zero")
    factors = {}
    for p, _ in _factor_int(_gi_norm(z)).items():
        if p == 2:
            primes = [(1, 1)]
        elif p % 4 == 3:
            primes = [(p, 0)]
        else:
            c = sqrt_minus_one_mod(p)
            pi = _gi_gcd((p, 0), (c, 1))
            primes = [pi, (pi[0], -pi[1])]
        for pi in primes:
            e = 0
            w = z
            while True:
                q = _gi_exact_div(w, pi)
                if q is None:
                    break
                w = q
                e += 1
            if e:
                factors[pi] = e
    return factors


def gaussian_integer_divisors(z):
    """All divisors of a nonzero Gaussian integer up to unit multiples,
    as GaussianRational values."""
    divs = [(1, 0)]
    for pi, e in _gaussian_prime_factors(z).items():
        grown = []
        power = (1, 0)
        for _ in range(e + 1):
            grown.extend(_gi_mul(d, power) for d in divs)
            power = _gi_mul(power, pi)
        divs = grown
    return [GaussianRational(a, b) for (a, b) in divs]


_UNITS = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
)


def divisor_roots_in_gaussian_rationals(cs):
    """``roots_in_gaussian_rationals`` by divisor candidates: each root of
    the monic polynomial, scaled to Gaussian-integer coefficients, is a
    quotient of divisors of the constant and leading coefficients times a
    unit; the least candidate in sort order that is a root is deflated as
    often as it divides, and the search repeats on the quotient."""
    work = poly_monic(cs)
    if not work:
        raise ZeroDivisionError("the zero polynomial has every root")
    roots = {}
    nz = 0
    while nz < len(work) and not work[nz]:
        nz += 1
    if nz:
        roots[ZERO] = nz
        work = work[nz:]
    while len(work) > 1:
        m = lcm(*{c.d for c in work})
        ints = [(c.p * (m // c.d), c.q * (m // c.d)) for c in work]
        candidates = set()
        for u in gaussian_integer_divisors(ints[0]):
            for v in gaussian_integer_divisors(ints[-1]):
                base = u / v
                for unit in _UNITS:
                    candidates.add(unit * base)
        hit = None
        for r in sorted(candidates, key=GaussianRational.sort_key):
            if not poly_eval(work, r):
                hit = r
                break
        if hit is None:
            break
        mult = 0
        while True:
            q, rem = poly_divmod(work, [-hit, ONE])
            if rem:
                break
            work = q
            mult += 1
            if len(work) == 1 or poly_eval(work, hit):
                break
        roots[hit] = roots.get(hit, 0) + mult
    return roots, poly_monic(work)
