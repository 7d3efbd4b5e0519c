"""Rank and rank-one preserver decision procedures with certificates.

Positive verdicts come with a canonical form that reconstructs the map
exactly; negative verdicts come with a concrete matrix whose rank jumps
under the map. Sampling appears only as an oracle layer: every verdict that
matters is certified algebraically before it is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import (
    GIsTrivial,
    InternalInconsistency,
    NotEquivalent,
    NotJordan,
    NotUnital,
    PreconditionViolated,
    SupportViolation,
    VanishingUnitImage,
)
from .exactnum import DenseMatrix, ONE, format_matrix, inverse, rank
from .jordan import CanonicalJordanForm, LinearMapOnSMA, apply, classify_jordan
from .quasiorder import (
    NotClassUnion,
    QuasiOrder,
    approx_classes,
    first_unsupported,
    from_edges,
    reverse,
)
from .transmap import (
    TransitiveMap,
    apply_induced,
    format_weights,
    rectangle_minor_condition,
    triviality_witness,
    validate,
)


@dataclass(frozen=True)
class PreserverVerdict:
    """Outcome of a preserver decision.

    Exactly one of ``form`` (positive case) or ``counterexample`` with its
    ``ranks`` pair (negative case) is set; ``note`` carries a short reason.
    """

    kind: str
    form: Optional[CanonicalJordanForm] = None
    counterexample: Optional[DenseMatrix] = None
    ranks: Optional[tuple] = None
    note: str = ""


def format_verdict(v: PreserverVerdict) -> str:
    lines = [f"VERDICT {v.kind}"]
    if v.form is not None:
        lines.append("FORM")
        lines.append("S")
        lines.append(format_matrix(v.form.s).rstrip("\n"))
        lines.append("P")
        lines.append(format_matrix(v.form.central_idempotent()).rstrip("\n"))
        lines.append("g")
        lines.append(format_weights(v.form.g).rstrip("\n"))
        if v.form.pi is not None:
            lines.append("pi " + " ".join(str(k) for k in v.form.pi))
    if v.counterexample is not None:
        lines.append("WITNESS")
        lines.append(format_matrix(v.counterexample).rstrip("\n"))
        lines.append(f"RANKS {v.ranks[0]} {v.ranks[1]}")
    if v.note:
        lines.append(f"NOTE {v.note}")
    return "\n".join(lines) + "\n"


def induced_linear_map(g: TransitiveMap) -> LinearMapOnSMA:
    """The unit-scaling automorphism of A_rho as a stored linear map."""
    rho = g.rho
    n = rho.n
    return LinearMapOnSMA(
        rho,
        {
            (i, j): DenseMatrix.from_entries(n, n, {(i, j): g.value(i, j)})
            for (i, j) in rho.pairs()
        },
    )


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


def is_rank_one_preserver_sampled(phi: LinearMapOnSMA, samples):
    """Check the samples only; (False, witness) on the first rank jump."""
    for x in samples:
        if rank(apply(phi, x)) != 1:
            return False, x
    return True, None


def _sampled_rank_one_counterexample(
    phi: LinearMapOnSMA, note: str, failure: str
) -> PreserverVerdict:
    """The first of 2000 seeded rank-one samples whose image is not rank
    one, for a map that theory says is no rank-one preserver."""
    ok, witness = is_rank_one_preserver_sampled(
        phi, sample_rank_one_in_sma(phi.rho, 2000, seed=0)
    )
    if ok:
        raise InternalInconsistency(failure)
    return PreserverVerdict(
        kind="Neither",
        counterexample=witness,
        ranks=(1, rank(apply(phi, witness))),
        note=note,
    )


def certify_rank_one_preserver(phi: LinearMapOnSMA) -> PreserverVerdict:
    """Decide rank-one preservation with an algebraic certificate.

    Jordan inputs route through classification and the rectangle minors;
    non-Jordan inputs must be unital, where rank-one preservation would
    contradict their non-Jordan-ness, so a sampled counterexample exists.
    """
    rho = phi.rho
    n = rho.n
    try:
        form = classify_jordan(phi)
    except NotJordan:
        if apply(phi, DenseMatrix.identity(n)) != DenseMatrix.identity(n):
            raise NotUnital("map is neither Jordan nor unital")
        return _sampled_rank_one_counterexample(
            phi,
            "not a Jordan homomorphism",
            "unital non-Jordan map passed rank-one sampling",
        )
    check = rectangle_minor_condition(form.g)
    if check.ok:
        return PreserverVerdict(kind="RankOnePreserver", form=form)
    (i, k), (j, l) = check.rectangle
    x = DenseMatrix.from_entries(n, n, {(i, j): 1, (i, l): 1, (k, j): 1, (k, l): 1})
    r_image = rank(apply(phi, x))
    if r_image == 1:
        raise InternalInconsistency("violating rectangle kept rank one")
    return PreserverVerdict(
        kind="Neither",
        counterexample=x,
        ranks=(1, r_image),
        note="rectangle minor does not vanish",
    )


def chain_of_alternating_pairs(rho: QuasiOrder, a: int, b: int):
    """Shortest connecting sequence with alternating relation directions.

    Returns (case, (i_0, ..., i_m)) where the case tag 1-4 records the
    start direction and parity: forward starts give 1 (odd length) or 2
    (even), backward starts give 4 (odd) or 3 (even). Minimality of the
    path forces every listed pair into the relation.
    """
    if a == b:
        raise PreconditionViolated("endpoints must be distinct")
    n = rho.n
    adj = {v: set() for v in range(1, n + 1)}
    for (i, j) in rho.strict_pairs():
        adj[i].add(j)
        adj[j].add(i)
    parent = {a: None}
    queue = [a]
    while queue and b not in parent:
        v = queue.pop(0)
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    if b not in parent:
        raise NotEquivalent(f"{a} and {b} lie in different classes")
    seq = [b]
    while parent[seq[-1]] is not None:
        seq.append(parent[seq[-1]])
    seq.reverse()
    m = len(seq) - 1
    if (a, seq[1]) in rho:
        case = 1 if m % 2 else 2
        pairs = [
            (seq[j - 1], seq[j]) if j % 2 else (seq[j], seq[j - 1])
            for j in range(1, m + 1)
        ]
    else:
        case = 4 if m % 2 else 3
        pairs = [
            (seq[j], seq[j - 1]) if j % 2 else (seq[j - 1], seq[j])
            for j in range(1, m + 1)
        ]
    for p in pairs:
        if p not in rho:
            raise InternalInconsistency(f"alternating pair {p} left the relation")
    return case, tuple(seq)


def _restrict_drop_last(rho: QuasiOrder) -> QuasiOrder:
    m = rho.n - 1
    inner = [(i, j) for (i, j) in rho.strict_pairs() if i <= m and j <= m]
    return from_edges(m, inner, close=False)


def _pad(m: DenseMatrix, n: int) -> DenseMatrix:
    return DenseMatrix.from_entries(n, n, {p: m.at(*p) for p in m.support()})


def _even_chain_matrix(seq, last: int, n: int) -> DenseMatrix:
    """The alternating +/- chain matrix with its two extra entries in the
    last column; has rank len(seq)//2 while the scaled image gains one."""
    if len(seq) < 3 or len(seq) % 2 == 0:
        raise InternalInconsistency("chain did not reduce to even form")
    entries = {}
    for j in range(0, len(seq) - 2, 2):
        sign = 1 if (j // 2) % 2 == 0 else -1
        entries[(seq[j], seq[j + 1])] = sign
        entries[(seq[j + 2], seq[j + 1])] = sign
    k = (len(seq) - 1) // 2
    entries[(seq[0], last)] = 1
    entries[(seq[-1], last)] = 1 if (k - 1) % 2 == 0 else -1
    return DenseMatrix.from_entries(n, n, entries)


def _first_implication_witness(
    rho: QuasiOrder, rho_sub: QuasiOrder, a: int, b: int
) -> DenseMatrix:
    """Witness matrix for two in-neighbors of the last vertex whose
    normalized weights differ; the odd and backward chain cases peel down
    to the even forward case by transitivity."""
    n = rho.n
    case, seq = chain_of_alternating_pairs(rho_sub, a, b)
    if len(seq) == 2:
        p, q = seq if case == 1 else (seq[1], seq[0])
        return DenseMatrix.from_entries(n, n, {(p, q): 1, (p, n): 1, (q, q): 1, (q, n): 1})
    if case == 1:
        seq = seq[:-1]
    elif case == 3:
        seq = seq[1:-1]
    elif case == 4:
        seq = seq[1:]
    for end in (seq[0], seq[-1]):
        if (end, n) not in rho:
            raise InternalInconsistency("chain endpoint lost the last column")
    return _even_chain_matrix(seq, n, n)


def nontrivial_g_rank_witness(g: TransitiveMap) -> DenseMatrix:
    """A matrix whose rank changes under the induced scaling.

    Follows the peeling recursion: restrict away the last vertex; if the
    restriction is already nontrivial, recurse and pad. Otherwise rescale
    by its separator, find two equivalent neighbors of the last vertex
    with different normalized weights, and build the alternating chain
    matrix (transposed when the neighbors are out-neighbors).
    """
    cert = triviality_witness(g)
    if cert.is_trivial:
        raise GIsTrivial("weight map is a separator quotient")
    witness = _witness_recursive(g)
    before = rank(witness)
    after = rank(apply_induced(g, witness))
    if before == after:
        raise InternalInconsistency("constructed witness does not change rank")
    return witness


def _witness_recursive(g: TransitiveMap) -> DenseMatrix:
    rho = g.rho
    n = rho.n
    rho_sub = _restrict_drop_last(rho)
    g_sub = g.restrict(rho_sub)
    cert = triviality_witness(g_sub)
    if not cert.is_trivial:
        return _pad(_witness_recursive(g_sub), n)
    s = dict(cert.separator)
    s[n] = ONE
    h = validate(
        rho,
        {(i, j): (s[j] / s[i]) * g.value(i, j) for (i, j) in rho.strict_pairs()},
    )
    classes = approx_classes(rho_sub)
    preds = sorted(i for i in range(1, n) if (i, n) in rho)
    for a in preds:
        for b in preds:
            if a < b and classes.block_of(a) == classes.block_of(b):
                if h.value(a, n) != h.value(b, n):
                    return _first_implication_witness(rho, rho_sub, a, b)
    succs = sorted(i for i in range(1, n) if (n, i) in rho)
    rho_t = reverse(rho)
    classes_t = approx_classes(_restrict_drop_last(rho_t))
    for a in succs:
        for b in succs:
            if a < b and classes_t.block_of(a) == classes_t.block_of(b):
                if h.value(n, a) != h.value(n, b):
                    wt = _first_implication_witness(
                        rho_t, _restrict_drop_last(rho_t), a, b
                    )
                    return wt.transpose()
    raise InternalInconsistency("nontrivial map satisfies both neighbor rules")


def rank_identity_check(rho: QuasiOrder, u, x: DenseMatrix) -> bool:
    """Compare rank(X) with rank(PX + (I-P)X^t) for the class union's
    central idempotent; the theory says they always agree."""
    useg = frozenset(u)
    if not approx_classes(rho).is_union_of_blocks(useg):
        raise NotClassUnion(f"{sorted(useg)} is not a union of classes")
    bad = first_unsupported(x.support(), rho)
    if bad is not None:
        raise SupportViolation(
            f"matrix has entry at {bad} outside the relation", pair=bad
        )
    n = rho.n
    p = DenseMatrix.diag([1 if i in useg else 0 for i in range(1, n + 1)])
    q = DenseMatrix.identity(n) - p
    return rank(x) == rank(p * x + q * x.transpose())


def classify_rank_preserver(phi: LinearMapOnSMA) -> PreserverVerdict:
    """Full rank-preserver classification.

    A rank preserver must send the identity to an invertible matrix; after
    normalizing by it the map must be Jordan with a trivial weight map.
    The positive certificate absorbs the separator into the similarity, so
    the returned form has constant weight one.
    """
    rho = phi.rho
    n = rho.n
    f_id = apply(phi, DenseMatrix.identity(n))
    r_id = rank(f_id)
    if r_id < n:
        return PreserverVerdict(
            kind="Neither",
            counterexample=DenseMatrix.identity(n),
            ranks=(n, r_id),
            note="fails unitality: the identity maps to a singular matrix",
        )
    norm = inverse(f_id)
    psi = LinearMapOnSMA(rho, {p: norm * m for p, m in phi.images.items()})
    try:
        form = classify_jordan(psi)
    except VanishingUnitImage as exc:
        unit = DenseMatrix.unit(n, *exc.pair)
        return PreserverVerdict(
            kind="Neither",
            counterexample=unit,
            ranks=(1, rank(apply(phi, unit))),
            note=f"fails rank: the unit image at {exc.pair} vanishes",
        )
    except NotJordan as exc:
        return _sampled_rank_one_counterexample(
            phi,
            f"fails rank: not Jordan at unit pair {exc.pair}",
            "non-Jordan unitalization passed rank-one sampling",
        )
    cert = triviality_witness(form.g)
    if not cert.is_trivial:
        witness = nontrivial_g_rank_witness(form.g)
        return PreserverVerdict(
            kind="Neither",
            counterexample=witness,
            ranks=(rank(witness), rank(apply(phi, witness))),
            note="fails rank: the weight map is not trivial",
        )
    s = dict(cert.separator)
    gamma = DenseMatrix.diag(
        [s[i] if i in form.u else s[i].reciprocal() for i in range(1, n + 1)]
    )
    t = form.s * gamma
    ones = validate(rho, {p: ONE for p in rho.strict_pairs()})
    final = CanonicalJordanForm(s=t, u=form.u, g=ones)
    if final.reconstruct() != psi:
        raise InternalInconsistency("absorbed similarity fails to reconstruct")
    return PreserverVerdict(kind="RankPreserver", form=final)


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


def bounded_rank_preserver_check(
    phi: LinearMapOnSMA, max_rank: int, count: int = 40, seed: int = 0
):
    """Sampled rank preservation for ranks 1..max_rank.

    Random sampling alone provably misses sparse obstructions, so when the
    map classifies with a nontrivial weight map its constructed witness is
    also tried, provided its rank fits the bound.
    """
    rng = random.Random(seed)
    rho = phi.rho
    n = rho.n
    f_id = apply(phi, DenseMatrix.identity(n))
    if rank(f_id) == n:
        norm = inverse(f_id)
        try:
            form = classify_jordan(
                LinearMapOnSMA(rho, {p: norm * m for p, m in phi.images.items()})
            )
            if not triviality_witness(form.g).is_trivial:
                witness = nontrivial_g_rank_witness(form.g)
                r = rank(witness)
                if r <= max_rank and rank(apply(phi, witness)) != r:
                    return False, witness
        except (NotJordan, VanishingUnitImage):
            pass
    for k in range(1, max_rank + 1):
        for _ in range(count):
            x = _random_rank_k_sample(rho, k, rng)
            if rank(apply(phi, x)) != k:
                return False, x
    return True, None
