"""Simultaneous diagonalization inside a structural matrix algebra.

Given commuting diagonalizable matrices supported in a quasi-order, an
invertible S with the same support is produced whose conjugation makes all
of them diagonal; the inverse of S automatically shares the support. The
joint spectral projectors of the small class blocks choose, for each
column of S, a unit column and a joint eigenvalue; the unit column is then
pushed through the Lagrange factors of that eigenvalue, one product per
member and eigenvalue for all columns at once. No n x n projector is
formed. `simultaneous_diagonalize_in_sma` proves this correct. S comes
back with the inverse and the diagonals it was checked with.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    IrrationalSpectrum,
    NotDiagonalizable,
    PreconditionViolated,
    SupportViolation,
)
from .exactnum import ONE, ZERO, DenseMatrix, GaussianRational, inverse, pivot_columns
from .polyroots import (
    charpoly,
    poly_degree,
    poly_eval_matrix,
    roots_in_gaussian_rationals,
    squarefree_part,
)
from .quasiorder import QuasiOrder, block_triangular_form, first_unsupported


class Diagonalization(NamedTuple):
    """S, its inverse, and for each family member F the diagonal entries of
    S^-1 F S, in member order."""

    s: DenseMatrix
    s_inv: DenseMatrix
    diagonals: tuple


def _annihilate(a: DenseMatrix, eigs) -> None:
    """Raise unless the product of the a - lam*I over the distinct
    eigenvalues is zero, which holds exactly when a is diagonalizable."""
    ident = DenseMatrix.identity(a.rows)
    annihilator = ident
    for lam in eigs:
        annihilator = annihilator * (a - ident.scale(lam))
    if not annihilator.is_zero():
        raise NotDiagonalizable("minimal polynomial has a repeated root")


def _spectrum(a: DenseMatrix) -> list:
    """Sorted distinct eigenvalues of a square matrix that is diagonalizable
    over the Gaussian rationals.

    An upper-triangular matrix shows its spectrum on the diagonal, so only
    the annihilation test by the product of the A - lam*I remains. Any other
    matrix takes the squarefree part of its characteristic polynomial, tests
    that it annihilates the matrix, and searches it for rational roots.
    """
    if a.is_upper_triangular():
        eigs = sorted(set(a.diagonal()), key=GaussianRational.sort_key)
        _annihilate(a, eigs)
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




def _projectors(a: DenseMatrix, eigs) -> list:
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


def _class_picks(blocks, position) -> list:
    """The pairs (pivot column j, tuple t) of one class of size 2 or more:
    t holds one eigenvalue index per member, and j runs over the pivot
    columns of the joint projector block Q_CC of t, the product of the
    members' block projectors; tuples whose product is zero are dropped.
    ``blocks`` holds each member's (C x C block, sorted block eigenvalues)."""
    joint = [((), DenseMatrix.identity(blocks[0][0].rows))]
    for (block, eigs), pos in zip(blocks, position):
        projectors = [(pos[lam], p) for lam, p in zip(eigs, _projectors(block, eigs))]
        refined = []
        for t, q in joint:
            for u, p in projectors:
                qp = q * p
                if not qp.is_zero():
                    refined.append((t + (u,), qp))
        joint = refined
    return [(j, t) for t, q in joint for j in pivot_columns(q)]


def _push(family, spectra, sources, targets) -> list:
    """The columns of S as lists: column j is Q_t e_src for src =
    ``sources[j]`` and t = ``targets[j]``.

    Each column starts as the unit column e_src. For each member F_k and
    each eigenvalue mu in ``spectra[k]``, one product replaces every column
    whose target eigenvalue for F_k is not mu by (F_k - mu I) times it;
    the columns are kept as the rows of their transposes, so the product
    is taken with (F_k - mu I)^T on the right. Column j is then divided by
    the product of (lam - mu) over the factors it took.
    """
    n = len(sources)
    cols = [[ZERO] * n for _ in sources]
    for col, src in zip(cols, sources):
        col[src - 1] = ONE
    ident = DenseMatrix.identity(n)
    for k, (f, eigs) in enumerate(zip(family, spectra)):
        ft = f.transpose()
        for u, mu in enumerate(eigs):
            moved = [j for j, t in enumerate(targets) if t[k] != u]
            if not moved:
                continue
            shifted = ft - ident.scale(mu)
            pushed = DenseMatrix.from_rows([cols[j] for j in moved]) * shifted
            for r, j in enumerate(moved, start=1):
                cols[j] = pushed.row_list(r)
    # each member's Lagrange denominators, prod (lam - mu) over mu != lam
    dens = [
        [prod((lam - mu for mu in eigs if mu != lam), start=ONE) for lam in eigs]
        for eigs in spectra
    ]
    for j, t in enumerate(targets):
        den = prod((d[u] for d, u in zip(dens, t)), start=ONE)
        if den != ONE:
            c = den.reciprocal()
            cols[j] = [x * c if x else x for x in cols[j]]
    return cols


def simultaneous_diagonalize_in_sma(rho: QuasiOrder, family) -> Diagonalization:
    """One S, supported in the quasi-order, conjugating every family member
    to a diagonal matrix; the support of S^-1 comes along for free.

    Setting. Lay the mutual classes (vertices related both ways) out in a
    topological order; every matrix of the algebra is then block
    upper-triangular. The spectrum of member F_k is the union of the
    spectra of its class blocks, each checked diagonalizable over the
    Gaussian rationals; lam_0 < lam_1 < ... lists it in sort-key order. For a
    tuple t of eigenvalue indices, one per member, Q_t is the product over
    k of the Lagrange projectors prod_{mu != lam_{t_k}} (F_k - mu I) /
    (lam_{t_k} - mu).

    1. Picks from the class blocks. On each class C of size 2 or more the
       pairs (j, t) are taken for the pivot columns j of the blocks
       (Q_t)_CC that are nonzero, and sorted; the columns of S at the
       members of C, in ascending order, get these pairs in turn (a
       singleton class {j} gets (1, t) for the t of its diagonal entries).
       (Q_t)_CC is the product of the members' C x C block projectors: the
       C x C block of a product of block upper-triangular matrices is the
       product of their C x C blocks, so a polynomial in the family has the
       same polynomial in the blocks as its C x C block; and the Lagrange
       polynomial of lam over the member's whole spectrum, evaluated at a
       diagonalizable block, is the block's own projector for lam, or zero
       when lam is not a block eigenvalue. Sorting by t is sorting by the
       index of Q_t among the nonzero Q_t in lexicographic order: for a
       diagonalizable family each Q_t is idempotent, and a block
       upper-triangular idempotent whose diagonal blocks are all zero is
       nilpotent, hence zero.
    2. Columns by pushing. The column of S for the pair (j, t) is Q_t e_j,
       with j read as a vertex of C. The factors F_k - mu I commute, being
       polynomials in a commuting family, so Q_t e_j is e_j multiplied by
       F_k - mu I for every member k and every mu other than lam_{t_k}, in
       any order, then scaled by the product of the (lam_{t_k} - mu)^-1.
       `_push` takes one product per member and eigenvalue, moving every
       column that takes that factor at once. The values are exact, so S is
       the same matrix, entry for entry, as the one read off the n x n
       joint projectors.
    3. S is invertible and lies in the algebra, for every commuting family
       whose class blocks passed the spectrum step, diagonalizable or not:
       - Q_t is a polynomial in the family, so it lies in the algebra, and
         its column j is supported on the i with i -> j. For j' in the
         class of j, i -> j and j <-> j' give i -> j', so Q_t e_j may sit in
         column j' of S.
       - S is block upper-triangular, and its C x C block is made of
         columns of the blocks (Q_t)_CC. These are the joint projectors of
         commuting diagonalizable blocks: idempotents that sum to I and
         multiply to 0 in pairs, so their images form a direct sum of the
         whole space. The pivot columns of each span its image, so the |C|
         picked columns are a basis: each diagonal block, and so S, is
         invertible.
       - S^-1 is a polynomial in S (Cayley-Hamilton), so it lies in the
         algebra too.
    4. Certify first, diagnose on failure. When every member is
       diagonalizable the Q_t are the joint spectral projectors, each
       column of S is a joint eigenvector, and every S^-1 F S is diagonal.
       A positive verdict rests on the checked certificate alone: S is
       invertible, S and S^-1 are supported in the relation, and every
       S^-1 F S is diagonal. Since S is invertible in any case, a conjugate
       that is not diagonal means that some member is not diagonalizable;
       the annihilation test prod (F_k - lam I) = 0, run member by member,
       then names the first such member.

    Where every member is upper-triangular on every class, each Q_CC is an
    upper-triangular idempotent, its pivots are the j with (Q)_jj = 1, and
    column j of S is column j of the one Q with (Q)_jj = 1.
    """
    family = list(family)
    n = rho.n
    for f in family:
        if f.shape != (n, n):
            raise DimensionMismatch(f"family member shape {f.shape}, expected n={n}")
        bad = first_unsupported(f.support(), rho)
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
    class_blocks = []
    for idx in classes:
        blocks = []
        for k, f in enumerate(family):
            if len(idx) == 1:
                block, eigs = None, [f.at(idx[0], idx[0])]
            else:
                block = f.submatrix(idx, idx)
                try:
                    eigs = _spectrum(block)
                except NotDiagonalizable as exc:
                    raise NotDiagonalizable(
                        f"member {k + 1} is not diagonalizable"
                    ) from exc
                except IrrationalSpectrum as exc:
                    raise IrrationalSpectrum(
                        f"member {k + 1} has irrational eigenvalues"
                    ) from exc
            spectra[k].update(eigs)
            blocks.append((block, eigs))
        class_blocks.append(blocks)
    spectra = [sorted(eigs, key=GaussianRational.sort_key) for eigs in spectra]
    position = [{lam: u for u, lam in enumerate(eigs)} for eigs in spectra]
    sources, targets = [0] * n, [()] * n
    for idx, blocks in zip(classes, class_blocks):
        if len(idx) == 1:
            t = tuple(pos[eigs[0]] for (_, eigs), pos in zip(blocks, position))
            picks = [(1, t)]
        else:
            picks = sorted(_class_picks(blocks, position))
            if len(picks) != len(idx):
                raise InternalInconsistency("joint projectors do not split a class")
        for j, (c, t) in zip(idx, picks):
            sources[j - 1], targets[j - 1] = idx[c - 1], t
    s = DenseMatrix.from_rows(_push(family, spectra, sources, targets)).transpose()
    sinv = inverse(s)
    bad = first_unsupported(s.support(), rho)
    if bad is None:
        bad = first_unsupported(sinv.support(), rho)
    if bad is not None:
        raise InternalInconsistency(f"similarity escaped the algebra at {bad}")
    diagonals = []
    for f in family:
        d = sinv * f * s
        if not d.is_diagonal():
            # S is invertible, so some member is not diagonalizable: name it
            for g, eigs in zip(family, spectra):
                _annihilate(g, eigs)
            raise InternalInconsistency("conjugate failed to come out diagonal")
        diagonals.append(d.diagonal())
    return Diagonalization(s, sinv, tuple(diagonals))
