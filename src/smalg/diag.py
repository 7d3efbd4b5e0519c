"""Simultaneous diagonalization inside a structural matrix algebra.

Given commuting diagonalizable matrices supported in a quasi-order, an
invertible S with the same support is produced whose conjugation makes all
of them diagonal; the inverse of S automatically shares the support. S is
read off the family's joint spectral projectors in one step; see
`simultaneous_diagonalize_in_sma` for why that works. S comes back with the
inverse and the diagonals it was checked with.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    IrrationalSpectrum,
    NotDiagonalizable,
    PreconditionViolated,
    SupportViolation,
)
from .exactnum import DenseMatrix, GaussianRational, inverse, pivot_columns
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


def simultaneous_diagonalize_in_sma(rho: QuasiOrder, family) -> Diagonalization:
    """One S, supported in the quasi-order, conjugating every family member
    to a diagonal matrix; the support of S^-1 comes along for free.

    Construction. The joint spectral projectors Q are the nonzero products
    of one Lagrange projector per member. On each mutual class C (vertices
    related both ways), the columns of S at the members of C, in ascending
    order, are the columns Q e_j for the pivot columns j of the blocks Q_CC,
    sorted by (j, index of Q). Why this is correct:

    - Each Q is a polynomial in the family, so Q lies in the algebra, and
      each column of Q is a joint eigenvector; hence every S^-1 F S is
      diagonal once S is invertible.
    - Columns j and j' of one class have the same allowed support, because
      i -> j' and j' <-> j give i -> j. So Q e_j may sit in column j' of S.
    - In a topological order of the classes S is block upper-triangular.
      Its C x C block is made of columns of the Q_CC, which are the joint
      projectors of the C x C blocks of the family and sum to I; their
      pivot columns number |C| and span, so each diagonal block, and hence
      S, is invertible.

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
    for idx in classes:
        for k, f in enumerate(family):
            if len(idx) == 1:
                spectra[k].add(f.at(idx[0], idx[0]))
                continue
            try:
                spectra[k].update(_spectrum(f.submatrix(idx, idx)))
            except NotDiagonalizable as exc:
                raise NotDiagonalizable(f"member {k + 1} is not diagonalizable") from exc
            except IrrationalSpectrum as exc:
                raise IrrationalSpectrum(
                    f"member {k + 1} has irrational eigenvalues"
                ) from exc
    joint = [DenseMatrix.identity(n)]
    for f, eigs in zip(family, spectra):
        eigs = sorted(eigs, key=GaussianRational.sort_key)
        _annihilate(f, eigs)
        projectors = _projectors(f, eigs)
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
            columns[j] = joint[t].col_list(idx[c - 1])
    s = DenseMatrix.from_rows([columns[j] for j in range(1, n + 1)]).transpose()
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
            raise InternalInconsistency("conjugate failed to come out diagonal")
        diagonals.append(d.diagonal())
    return Diagonalization(s, sinv, tuple(diagonals))
