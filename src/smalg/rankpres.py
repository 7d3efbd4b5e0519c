"""Rank and rank-one preserver decision procedures with certificates.

Positive verdicts come with a canonical form that reconstructs the map
exactly; negative verdicts come with a concrete matrix whose rank jumps
under the map. For a map whose normalization phi(I)^-1 phi is Jordan, the
witness is constructed from the shortest unbalanced cycle of its weight map
and has least rank. Each witness carries two ranks, taken once under the
map whose verdict prints it: ``witness`` checks the cycle matrix against
the induced scaling g*, ``check-rank`` and ``check-rank-one`` against phi
itself, and a sample or the identity is ranked under the map it convicts.
A unit whose image vanishes takes no rank: its ranks (1, 0) restate what
the classification found. So a caller only renders the ranks. Sampling
is left in two places: the rank-one counterexample of a unital map that
is not Jordan (one exists by theory and is re-verified), and the bounded
check of a map with a singular phi(I), whose positive verdict rests on
samples. The samples come from ``smalg.sampling``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (
    DimensionMismatch,
    GIsTrivial,
    InternalInconsistency,
    NotJordan,
    NotUnital,
    Singular,
    SupportViolation,
    VanishingUnitImage,
)
from .exactnum import DenseMatrix, ONE, _nonzero_positions, inverse, rank
from .jordan import CanonicalJordanForm, LinearMapOnSMA, apply, classify_jordan
from .quasiorder import QuasiOrder, class_union, first_unsupported
from .sampling import bounded_rank_samples, sample_rank_one_in_sma
from .transmap import (
    TransitiveMap,
    apply_induced,
    shortest_unbalanced_cycle,
    triviality_witness,
)


class RankWitness(NamedTuple):
    """A matrix supported in the relation, with its rank and the rank of
    its image under the map it convicts."""

    matrix: DenseMatrix
    ranks: tuple


class PreserverVerdict(NamedTuple):
    """Outcome of a preserver decision.

    Exactly one of ``form`` (positive case) or ``witness`` (negative case)
    is set; ``note`` carries a short reason.
    """

    kind: str
    form: Optional[CanonicalJordanForm] = None
    witness: Optional[RankWitness] = None
    note: str = ""


def induced_linear_map(g: TransitiveMap) -> LinearMapOnSMA:
    """The unit-scaling automorphism of A_rho as a stored linear map: the
    image of E_ij is g(i, j) at (i, j) of its block."""
    rho = g.rho
    n = rho.n
    units = rho.pairs()
    return LinearMapOnSMA._from_entries(
        rho, units, [[((i - 1) * n + j - 1, g.value(i, j))] for (i, j) in units]
    )


def is_rank_one_preserver_sampled(phi: LinearMapOnSMA, samples):
    """Check the samples only: (True, None), or (False, RankWitness) for the
    first sample whose image is not rank one."""
    for x in samples:
        r = rank(apply(phi, x))
        if r != 1:
            return False, RankWitness(x, (1, r))
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
    return PreserverVerdict(kind="Neither", witness=witness, note=note)


def certify_rank_one_preserver(phi: LinearMapOnSMA) -> PreserverVerdict:
    """Decide rank-one preservation with an algebraic certificate.

    A Jordan map keeps rank one iff its weight map has no unbalanced
    4-cycle, i.e. every rectangle minor vanishes; otherwise the least-rank
    witness is that rectangle's all-ones indicator, checked against phi
    itself: phi is Jordan with phi(I) = I, so it sends the indicator to
    rank two (see ``_cycle_matrix``). Non-Jordan inputs must be unital,
    where rank-one preservation would contradict their non-Jordan-ness, so
    a sampled counterexample exists. A unit whose image vanishes is itself
    a witness: rank one, sent to rank zero.
    """
    n = phi.rho.n
    try:
        form = classify_jordan(phi)
    except VanishingUnitImage as exc:
        return _vanishing_unit(n, exc.pair, f"the unit image at {exc.pair} vanishes")
    except NotJordan:
        if apply(phi, DenseMatrix.identity(n)) != DenseMatrix.identity(n):
            raise NotUnital("map is neither Jordan nor unital")
        return _sampled_rank_one_counterexample(
            phi,
            "not a Jordan homomorphism",
            "unital non-Jordan map passed rank-one sampling",
        )
    cycle = shortest_unbalanced_cycle(form.g)
    if cycle is None or len(cycle) > 4:
        return PreserverVerdict(kind="RankOnePreserver", form=form)
    return PreserverVerdict(
        kind="Neither",
        witness=_cycle_matrix(cycle, n, lambda x: apply(phi, x)),
        note="rectangle minor does not vanish",
    )


def _vanishing_unit(n: int, pair, note: str) -> PreserverVerdict:
    """Neither, witnessed by the unit at ``pair``: rank one, and its image
    is zero, as the classification found from the unit images alone."""
    unit = DenseMatrix.unit(n, *pair)
    return PreserverVerdict(kind="Neither", witness=RankWitness(unit, (1, 0)), note=note)


def _cycle_matrix(cycle, n: int, image) -> RankWitness:
    """1 on each pair of an unbalanced cycle of length 2m of a weight map g,
    (-1)^m on the closing pair: rank m - 1, while ``image`` sends it to
    rank m. Both ranks are checked here, once, and are the ranks returned.

    The support is an m x m block whose only two transversals are the odd
    and the even pairs of the cycle, so its determinant is
    +-(P_odd + (-1)^(m-1) P_even) for the entry products P on each. The
    closing sign makes it 0, while the block of g*(x), the induced scaling,
    has determinant +-(g on odd pairs - g on even pairs), nonzero as the
    cycle is unbalanced. The path left by dropping the closing pair has a
    unit-triangular minor of size m - 1. So rank g*(x) = m.

    A map phi with phi(I) invertible whose normalization psi =
    phi(I)^-1 phi has the Jordan form (S, u, g) sends x to rank m too. Every
    pair of the relation lies inside one connectivity class, and u is a
    union of classes, so y = g*(x) has no entry with one index in u and
    the other outside it. Then psi(x) = S (P y + (I - P) y^t) S^-1, with P
    the idempotent with 1 exactly on u, and P y + (I - P) y^t is y on
    u x u and y^t on the square of the complement of u: its rank is
    rank y = m, as transposing a diagonal block keeps its rank. Left-multiplying by the
    invertible phi(I) keeps it as well: rank phi(x) = m.
    """
    m = len(cycle) // 2
    entries = dict.fromkeys(cycle, 1)
    entries[cycle[-1]] = (-1) ** m
    x = DenseMatrix.from_entries(n, n, entries)
    if rank(x) != m - 1 or rank(image(x)) != m:
        raise InternalInconsistency("cycle matrix does not change rank by one")
    return RankWitness(x, (m - 1, m))


def nontrivial_g_rank_witness(g: TransitiveMap) -> RankWitness:
    """A least-rank matrix whose rank changes under the induced scaling,
    with its ranks before and after.

    Let 2m be the length of the shortest unbalanced cycle of g (see
    ``shortest_unbalanced_cycle``). Its cycle matrix has rank m - 1 and
    image rank m. No matrix of smaller rank changes rank: on every R x C
    with |R| = |C| <= m - 1 all cycles are balanced, so g is a_i b_j there
    and scales every minor of size up to m - 1 by a nonzero constant; a
    rank r <= m - 2 is decided by minors of sizes r and r + 1.
    """
    cycle = shortest_unbalanced_cycle(g)
    if cycle is None:
        raise GIsTrivial("weight map is a separator quotient")
    return _cycle_matrix(cycle, g.rho.n, lambda x: apply_induced(g, x))


def rank_identity_check(rho: QuasiOrder, u, x: DenseMatrix) -> bool:
    """Compare rank(X) with rank(PX + (I-P)X^t) for the class union's
    central idempotent; the theory says they always agree."""
    useg = class_union(rho, u)
    n = rho.n
    if x.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {x.shape}, expected {n}x{n}")
    bad = first_unsupported(_nonzero_positions(x), rho)
    if bad is not None:
        raise SupportViolation(
            f"matrix has entry at {bad} outside the relation", pair=bad
        )
    p = DenseMatrix.diag([1 if i in useg else 0 for i in range(1, n + 1)])
    q = DenseMatrix.identity(n) - p
    return rank(x) == rank(p * x + q * x.transpose())


def classify_rank_preserver(phi: LinearMapOnSMA) -> PreserverVerdict:
    """Full rank-preserver classification.

    A rank preserver must send the identity to an invertible matrix; after
    normalizing by it the map must be Jordan with a trivial weight map.
    The positive certificate absorbs the separator into the similarity, so
    the returned form has constant weight one. A nontrivial weight map
    convicts phi by the cycle matrix of its shortest unbalanced cycle,
    checked against phi itself (see ``_cycle_matrix``); a unit whose image
    under phi(I)^-1 phi vanishes has phi(E) = phi(I) 0 = 0.

    That form is derived from the one ``classify_jordan`` verified, not
    compared again. ``triviality_witness`` checks g(i, j) = s(i)/s(j) on
    every strict pair; gamma is s on u and 1/s off it, so gamma_a/gamma_b
    is g(i, j) for the verified term g(i, j) c_a r_b of every unit,
    (a, b) = (i, j) inside u and (j, i) outside it, and 1 on the diagonal.
    The columns gamma_a c_a of S0 Gamma and the rows r_b / gamma_b of its
    inverse Gamma^-1 S0^-1 make that term (gamma_a c_a)(r_b / gamma_b),
    of weight one.
    """
    rho = phi.rho
    n = rho.n
    ident = DenseMatrix.identity(n)
    f_id = apply(phi, ident)
    try:
        norm = inverse(f_id)
    except Singular:
        # the rank is needed only for the witness
        return PreserverVerdict(
            kind="Neither",
            witness=RankWitness(ident, (n, rank(f_id))),
            note="fails unitality: the identity maps to a singular matrix",
        )
    # a unital map is its own normalization
    psi = phi if f_id == ident else phi.left_multiplied(norm)
    try:
        form = classify_jordan(psi)
    except VanishingUnitImage as exc:
        return _vanishing_unit(
            n, exc.pair, f"fails rank: the unit image at {exc.pair} vanishes"
        )
    except NotJordan as exc:
        return _sampled_rank_one_counterexample(
            phi,
            f"fails rank: not Jordan at unit pair {exc.pair}",
            "non-Jordan unitalization passed rank-one sampling",
        )
    cycle = shortest_unbalanced_cycle(form.g)
    if cycle is not None:
        return PreserverVerdict(
            kind="Neither",
            witness=_cycle_matrix(cycle, n, lambda x: apply(phi, x)),
            note="fails rank: the weight map is not trivial",
        )
    s = dict(triviality_witness(form.g).separator)
    gamma = [s[i] if i in form.u else s[i].reciprocal() for i in range(1, n + 1)]
    # S0 Gamma scales the columns of S0, and (S0 Gamma)^-1 = Gamma^-1 S0^-1
    # the rows of S0^-1
    t = form.s.scale_columns(gamma)
    t_inv = form.s_inv.scale_rows([v.reciprocal() for v in gamma])
    # all-ones weights are transitive, so they need no validation
    ones = TransitiveMap(rho, dict.fromkeys(rho.strict_pairs(), ONE))
    return PreserverVerdict(
        kind="RankPreserver", form=CanonicalJordanForm(s=t, u=form.u, g=ones, s_inv=t_inv)
    )


def bounded_rank_preserver_check(
    phi: LinearMapOnSMA, max_rank: int, count: int = 40, seed: int = 0
):
    """Rank preservation for ranks 1..max_rank: (True, None) or
    (False, RankWitness).

    Every witness ``classify_rank_preserver`` returns has least rank, except
    the identity for a singular image of the identity. So the verdict is
    exact unless phi(I) is singular and max_rank < n; only then ranks
    1..max_rank are sampled, ``count`` matrices each.
    """
    n = phi.rho.n
    verdict = classify_rank_preserver(phi)
    if verdict.kind == "RankPreserver":
        return True, None
    least = verdict.witness.ranks[0]
    if least <= max_rank:
        return False, verdict.witness
    if least < n:
        return True, None
    for k, x in bounded_rank_samples(phi.rho, max_rank, count, seed):
        r = rank(apply(phi, x))
        if r != k:
            return False, RankWitness(x, (k, r))
    return True, None
