"""Simultaneous diagonalization inside a structural matrix algebra.

Given commuting diagonalizable matrices supported in a quasi-order, an
invertible S with the same support is produced whose conjugation makes all
of them diagonal; the inverse of S automatically shares the support. The
pipeline permutes the algebra onto a block-triangular pattern, triangularizes
the diagonal blocks by common-eigenvector deflation, and finishes with an
explicit similarity built from refined spectral idempotents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    IrrationalSpectrum,
    NotDiagonalizable,
    PreconditionViolated,
    SupportViolation,
)
from .exactnum import (
    DenseMatrix,
    GaussianRational,
    ONE,
    ZERO,
    inverse,
    invert_permutation,
    nullspace,
    rank,
    relabel_matrix,
    solve_exact,
)
from .polyroots import (
    charpoly,
    poly_degree,
    poly_eval_matrix,
    roots_in_gaussian_rationals,
    squarefree_part,
)
from .quasiorder import QuasiOrder, block_triangular_form, first_unsupported


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


def is_diagonalizable(a: DenseMatrix) -> bool:
    """Annihilation test: the squarefree part of the characteristic
    polynomial must vanish at the matrix."""
    if not a.is_square:
        raise DimensionMismatch("diagonalizability needs a square matrix")
    return poly_eval_matrix(squarefree_part(charpoly(a)), a).is_zero()


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
        ident = DenseMatrix.identity(a.rows)
        annihilator = ident
        for lam in eigs:
            annihilator = annihilator * (a - ident.scale(lam))
        if not annihilator.is_zero():
            raise NotDiagonalizable("minimal polynomial has a repeated root")
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


def spectral_idempotents(a: DenseMatrix) -> SpectralDecomposition:
    """Resolve a matrix into eigenvalues and orthogonal idempotents.

    Each idempotent is the Lagrange interpolation polynomial of the matrix
    that is 1 at its own eigenvalue and 0 at the others, so everything in
    sight is a polynomial in the input.
    """
    if not a.is_square:
        raise DimensionMismatch("spectral idempotents need a square matrix")
    eigs = _spectrum(a)
    n = a.rows
    ident = DenseMatrix.identity(n)
    pairs = []
    for lam in eigs:
        p = ident
        for other in eigs:
            if other != lam:
                p = (a - ident.scale(other)) * p
                p = p.scale((lam - other).reciprocal())
        pairs.append((lam, p))
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
    if total != ident or recon != a:
        raise InternalInconsistency("spectral resolution does not reassemble")
    return SpectralDecomposition(pairs=tuple(pairs))


def idempotent_family_triangular_similarity(family) -> DenseMatrix:
    """Similarity diagonalizing a family of orthogonal triangular idempotents.

    Column j of the result is column j of the unique member whose (j, j)
    entry is 1. The result is upper-triangular with unit diagonal and its
    support is contained in the union of the members' supports.
    """
    family = list(family)
    if not family:
        raise PreconditionViolated("empty idempotent family")
    n = family[0].rows
    total = DenseMatrix.zeros(n, n)
    for k, p in enumerate(family):
        if p.shape != (n, n):
            raise PreconditionViolated(f"member {k + 1} has shape {p.shape}")
        if not p.is_upper_triangular():
            raise PreconditionViolated(f"member {k + 1} is not upper-triangular")
        if p.is_zero():
            raise PreconditionViolated(f"member {k + 1} is zero")
        if p * p != p:
            raise PreconditionViolated(f"member {k + 1} is not idempotent")
        total = total + p
    for x in range(len(family)):
        for y in range(x + 1, len(family)):
            if not (family[x] * family[y]).is_zero() or not (
                family[y] * family[x]
            ).is_zero():
                raise PreconditionViolated(
                    f"members {x + 1} and {y + 1} are not orthogonal"
                )
    if total != DenseMatrix.identity(n):
        raise PreconditionViolated("members do not sum to the identity")
    cols = []
    for j in range(1, n + 1):
        owners = [p for p in family if p.at(j, j) == ONE]
        if len(owners) != 1:
            raise PreconditionViolated(f"diagonal position {j} not covered once")
        cols.append(owners[0].col_list(j))
    return DenseMatrix.from_rows(cols).transpose()


def _restriction(basis: DenseMatrix, x: DenseMatrix) -> DenseMatrix:
    """Matrix of x on the invariant subspace spanned by the basis columns."""
    return solve_exact(basis, x * basis)


def _common_eigenvector(mats, spectra, n: int) -> DenseMatrix:
    """A joint eigenvector of pairwise commuting matrices, as an n x 1
    column. Intersects one eigenspace per matrix; commutativity keeps every
    intermediate subspace invariant under the rest of the family.

    ``spectra`` holds each matrix's sorted eigenvalues. A restriction to an
    invariant subspace has a subset of them, so its least eigenvalue is the
    first one whose eigenspace in the restriction is nonzero."""
    basis = DenseMatrix.identity(n)
    for x, eigs in zip(mats, spectra):
        if basis.cols == 1:
            break
        m = _restriction(basis, x)
        ident = DenseMatrix.identity(m.rows)
        for lam in eigs:
            kern = nullspace(m - ident.scale(lam))
            if kern:
                break
        else:
            raise InternalInconsistency("restricted block has no eigenvector")
        stacked = DenseMatrix.from_rows([v.col_list(1) for v in kern]).transpose()
        basis = basis * stacked
    return basis.submatrix(range(1, n + 1), [1])


def _extend_to_basis(v: DenseMatrix) -> DenseMatrix:
    """Invertible matrix whose first column is v, padded with unit columns."""
    n = v.rows
    cols = [[v.at(i, 1) for i in range(1, n + 1)]]
    for j in range(1, n + 1):
        if len(cols) == n:
            break
        candidate = cols + [[ONE if i == j else ZERO for i in range(1, n + 1)]]
        if rank(DenseMatrix.from_rows(candidate)) == len(candidate):
            cols = candidate
    if len(cols) != n:
        raise InternalInconsistency("could not complete to a basis")
    return DenseMatrix.from_rows(cols).transpose()


def common_triangularizer(family) -> DenseMatrix:
    """Invertible U making U F U^-1 upper-triangular for every member.

    Members must commute pairwise and be diagonalizable with
    Gaussian-rational spectrum. Already-triangular families get U = I.
    """
    family = list(family)
    if not family:
        raise PreconditionViolated("empty family")
    n = family[0].rows
    for k, f in enumerate(family):
        if f.shape != (n, n):
            raise PreconditionViolated(f"member {k + 1} has shape {f.shape}")
    for x in range(len(family)):
        for y in range(x + 1, len(family)):
            if family[x] * family[y] != family[y] * family[x]:
                raise PreconditionViolated(
                    f"members {x + 1} and {y + 1} do not commute"
                )
    spectra = []
    for k, f in enumerate(family):
        try:
            spectra.append(_spectrum(f))
        except NotDiagonalizable as exc:
            raise NotDiagonalizable(f"member {k + 1} is not diagonalizable") from exc
        except IrrationalSpectrum as exc:
            raise IrrationalSpectrum(
                f"member {k + 1} has irrational eigenvalues"
            ) from exc
    return _deflate(family, spectra, n)


def _deflate(mats, spectra, n: int) -> DenseMatrix:
    if n <= 1 or all(m.is_upper_triangular() for m in mats):
        return DenseMatrix.identity(n)
    v = _common_eigenvector(mats, spectra, n)
    t = _extend_to_basis(v)
    tinv = inverse(t)
    tail = list(range(2, n + 1))
    quotients = []
    for x in mats:
        m = tinv * x * t
        for i in tail:
            if m.at(i, 1):
                raise InternalInconsistency("joint eigenvector failed to deflate")
        quotients.append(m.submatrix(tail, tail))
    uq = _deflate(quotients, spectra, n - 1)
    g = [[ZERO] * n for _ in range(n)]
    g[0][0] = ONE
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            g[i - 1][j - 1] = uq.at(i - 1, j - 1)
    return DenseMatrix.from_rows(g) * tinv


def simultaneous_diagonalize_in_sma(rho: QuasiOrder, family) -> DenseMatrix:
    """One S, supported in the quasi-order, conjugating every family member
    to a diagonal matrix; the support of S^-1 comes along for free."""
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
        return DenseMatrix.identity(n)
    btf = block_triangular_form(rho)
    pi = btf.pi
    relabeled = [relabel_matrix(f, pi) for f in family]
    # triangularize each diagonal block; the assembled block-diagonal U
    # lives in the relabeled algebra because full blocks sit on its diagonal
    grid = [[ZERO] * n for _ in range(n)]
    offset = 0
    for size in btf.sizes:
        idx = list(range(offset + 1, offset + size + 1))
        if size == 1:
            block_u = DenseMatrix.identity(1)
        else:
            blocks = [f.submatrix(idx, idx) for f in relabeled]
            block_u = common_triangularizer(blocks)
        for a in range(1, size + 1):
            for b in range(1, size + 1):
                grid[idx[a - 1] - 1][idx[b - 1] - 1] = block_u.at(a, b)
        offset += size
    u = DenseMatrix.from_rows(grid)
    uinv = inverse(u)
    upper = [u * f * uinv for f in relabeled]
    for f in upper:
        if not f.is_upper_triangular():
            raise InternalInconsistency("block triangularization failed")
    # refine the spectral idempotents across the family
    prods = [DenseMatrix.identity(n)]
    for f in upper:
        decomp = spectral_idempotents(f)
        prods = [
            q * p for q in prods for p in decomp.idempotents if not (q * p).is_zero()
        ]
    t = idempotent_family_triangular_similarity(prods)
    v = uinv * t
    s = relabel_matrix(v, invert_permutation(pi))
    sinv = inverse(s)
    bad = first_unsupported(s.support(), rho)
    if bad is None:
        bad = first_unsupported(sinv.support(), rho)
    if bad is not None:
        raise InternalInconsistency(f"similarity escaped the algebra at {bad}")
    for f in family:
        if not (sinv * f * s).is_diagonal():
            raise InternalInconsistency("conjugate failed to come out diagonal")
    return s
