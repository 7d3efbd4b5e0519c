"""Simultaneous diagonalization inside a structural matrix algebra.

Given commuting diagonalizable matrices supported in a quasi-order, an
invertible S with the same support is produced whose conjugation makes all
of them diagonal; the inverse of S automatically shares the support. On
each class of mutually related vertices, the first member's block gets one
integer basis of its left eigenspace per eigenvalue, from one
fraction-free kernel: their dimensions add up to the block size exactly
when the block is diagonalizable. Each later member's block keeps these
joint pieces and is split by its restriction to each, read off one
product of the piece's echelon basis with the block and checked by one
more: a 1 x 1 restriction is an eigenvalue, and only a larger one is split
by its own eigenspaces. Every product goes through the one product kernel
of ``exactnum``.
The final pieces, the joint left eigenspaces of the class blocks, give by
their pivot columns, for each column of S, a unit column and a joint
eigenvalue. The unit column is then pushed through the Lagrange factors
of that eigenvalue, one product per member and eigenvalue
for all columns at once, on integer rows; a column takes only the factors
of the eigenvalues of the class blocks above its class. No projector is
formed, of a class block or of the whole matrix. Each member F is checked
as F S = S D, with D read off the chosen eigenvalues, and the family is
checked to commute only when something fails. Diagonalizability is decided
once, by the eigenspaces: a matrix whose eigenvalues all lie in the field
is diagonalizable exactly when its eigenspaces fill the space. Only a block
with a characteristic factor of no root in the field is tested otherwise,
by evaluating the squarefree part of its characteristic polynomial at it.
`simultaneous_diagonalize_in_sma` proves this correct. S comes back with
the inverse and the diagonals it was checked with.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import lcm
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    IrrationalSpectrum,
    NotDiagonalizable,
    PreconditionViolated,
    SmalgError,
    SupportViolation,
)
from .exactnum import (
    ONE,
    DenseMatrix,
    GaussianRational,
    _divided,
    _gauss_jordan,
    _nonzero_positions,
    _primitive,
    _reduced_scalar,
    _rows_times,
    _scaled_columns,
    _shifted_kernel,
    _sparse_int_rows,
    _sparse_rows,
    inverse,
)
from .polyroots import (
    charpoly,
    poly_degree,
    poly_eval_matrix,
    poly_mul,
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


def _spectrum(a: DenseMatrix) -> tuple:
    """(eigenvalues, eigenspaces, leftover) of a square matrix that is
    diagonalizable over the complex numbers: its distinct Gaussian-rational
    eigenvalues in sort-key order, for each an integer basis of its left
    eigenspace, as (re, im) int rows, and the monic factor of its
    characteristic polynomial that has no root in the field. When that
    factor has positive degree, no eigenspace is solved and the first two
    come back empty.

    An upper-triangular matrix shows its eigenvalues on the diagonal and
    leaves the factor 1; any other one takes them from the roots of its
    characteristic polynomial. With every eigenvalue in the field, as for
    an upper-triangular matrix or a characteristic polynomial that splits,
    the matrix is diagonalizable exactly when the eigenspaces fill the
    space, and NotDiagonalizable is raised when they do not. A matrix with
    a leftover factor is diagonalizable over the complex numbers exactly
    when the squarefree part s of its characteristic polynomial annihilates
    it: s has every eigenvalue as a simple root, so the minimal polynomial
    divides s exactly when it has no repeated root. The leftover factor is
    the product of the x - lam over the roots outside the field, with
    multiplicity, so its squarefree part has the degree of the factor that
    the search of the squarefree part of the characteristic polynomial
    would leave.
    """
    if a.is_upper_triangular():
        eigs, rem = set(a.diagonal()), [ONE]
    else:
        cp = charpoly(a)
        eigs, rem = roots_in_gaussian_rationals(cp)
        if poly_degree(rem) > 0:
            if not poly_eval_matrix(squarefree_part(cp), a).is_zero():
                raise NotDiagonalizable("minimal polynomial has a repeated root")
            return [], [], rem
    eigs = sorted(eigs, key=GaussianRational.sort_key)
    # w a = lam w exactly when a^T w = lam w
    at = a.transpose()
    spaces = [_shifted_kernel(at, lam) for lam in eigs]
    if sum(map(len, spaces)) != a.rows:
        raise NotDiagonalizable("minimal polynomial has a repeated root")
    return eigs, spaces, rem


def _echelon(rows) -> tuple:
    """(pivot columns, last pivot p, W, W as ``_sparse_int_rows`` gives it)
    for the basis W, as (re rows, im rows), of the span of independent
    (re, im) int rows, reduced in place by ``_gauss_jordan``: row s of W is
    p times row s of the reduced echelon form of the span, so it holds p at
    its own pivot column and 0 at the others. The pivot columns depend on
    the span alone."""
    re_rows = [re for re, _ in rows]
    im_rows = [im for _, im in rows]
    pivots, p = _gauss_jordan(re_rows, im_rows, reduce=True)
    w_rows = _sparse_int_rows(re_rows, im_rows, len(re_rows[0]))
    return [c for _, c in pivots], p, (re_rows, im_rows), w_rows


def _restriction(basis, b_rows) -> DenseMatrix:
    """The d x d matrix M with W B = M W, for a class block B = N / e as
    ``_sparse_rows`` gives it and the echelon basis W of a piece that B
    keeps (``_echelon``, d rows). One product P = W N gives W B = P / e.
    Column c_s of M W, for the pivot column c_s of row s of W, is p times
    column s of M, so M = P[:, c] / (p e). M W = P / e is then checked on
    every column, as P[:, c] W = p P, one more product; it fails only for a
    family that does not commute, and raises."""
    cols, (pr, pi), w, w_rows = basis
    pre, pim = _rows_times(*w, b_rows)
    cre = [[xr[c] for c in cols] for xr in pre]
    cim = [[xi[c] for c in cols] for xi in pim]
    scaled = (
        [[pr * x - pi * y for x, y in zip(xr, xi)] for xr, xi in zip(pre, pim)],
        [[pr * y + pi * x for x, y in zip(xr, xi)] for xr, xi in zip(pre, pim)],
    )
    if _rows_times(cre, cim, w_rows) != scaled:
        raise InternalInconsistency("a class block does not keep a joint eigenspace")
    d, e = len(cols), b_rows[3]
    return _divided(d, d, [*chain(*cre)], [*chain(*cim)], (pr * e, pi * e))


def _combined(ys, basis) -> list:
    """The rows y W, each divided by the gcd of its parts, for the (re, im)
    int rows y and the echelon basis W."""
    return [*map(_primitive, *_rows_times(*zip(*ys), basis[3]))]


def _refine(pieces, block: DenseMatrix) -> tuple:
    """The joint pieces split by one more member's class block B, and the
    eigenvalues of B.

    A piece is (t, basis): t holds the eigenvalue of each member before on
    it, and basis is its space L_t as ``_echelon`` gives it, or None for the
    whole space, before the first member that is not scalar on the class.
    B keeps each L_t (the members commute), so each is split by the
    restriction M of B to it (``_restriction``): a 1 x 1 M is B's
    eigenvalue there, and a larger one goes to ``_spectrum``, the refined
    pieces being the y W for the bases y of M's left eigenspaces; a piece on
    which M has one eigenvalue stays as it is. A piece that is not
    diagonalizable raises at once. IrrationalSpectrum is raised only once
    every piece has passed, with the degree of the squarefree part of the
    product of the pieces' leftover factors, which is B's leftover factor.
    """
    b_rows = None if pieces[0][1] is None else _sparse_rows(block)
    refined, eigs, leftovers = [], set(), []
    for t, basis in pieces:
        m = block if basis is None else _restriction(basis, b_rows)
        if m.rows == 1:
            lam = m.at(1, 1)
            eigs.add(lam)
            refined.append((t + (lam,), basis))
            continue
        values, spaces, rem = _spectrum(m)
        eigs.update(values)
        if poly_degree(rem) > 0:
            leftovers.append(rem)
        elif len(values) == 1:
            refined.append((t + (values[0],), basis))
        else:
            for lam, ys in zip(values, spaces):
                rows = ys if basis is None else _combined(ys, basis)
                refined.append((t + (lam,), _echelon(rows)))
    if leftovers:
        degree = poly_degree(squarefree_part(reduce(poly_mul, leftovers)))
        raise IrrationalSpectrum(
            f"characteristic factor of degree {degree} has no Gaussian-rational root"
        )
    return refined, eigs


def _push(family, spectra, sources, targets, factors) -> DenseMatrix:
    """S, whose column j is e_src for src = ``sources[j]`` times
    (F_k - mu I) / (lam - mu) for each member k and each mu with index in
    ``factors[j][k]``, where lam has index ``targets[j][k]``; the indices
    point into ``spectra[k]``.

    The columns are kept as integer rows, the rows of S^T, each with an
    integer denominator, and start as the unit columns e_src. Each member's
    F_k^T = N / d is read into the product kernel once. For each
    eigenvalue mu = (x + y i) / e of F_k, one product moves every row that
    takes its factor: the row w becomes w (F_k - mu I)^T, that is
    (a w N - b (x + y i) w) / L for L = lcm(d, e), a = L / d and b = L / e,
    and L joins the row's denominator. Column j is then divided by its
    denominator and by the product of its (lam - mu): one scaling per
    column, onto a common denominator, and S is reduced once.
    """
    n = len(sources)
    re_cols = [[0] * n for _ in sources]
    im_cols = [[0] * n for _ in sources]
    for col, src in zip(re_cols, sources):
        col[src - 1] = 1
    dens = [1] * n
    for k, (f, eigs) in enumerate(zip(family, spectra)):
        ft = _sparse_rows(f.transpose())
        d = ft[-1]
        for u, mu in enumerate(eigs):
            moved = [j for j, fs in enumerate(factors) if u in fs[k]]
            if not moved:
                continue
            old_re = [re_cols[j] for j in moved]
            old_im = [im_cols[j] for j in moved]
            pushed_re, pushed_im = _rows_times(old_re, old_im, ft)
            big = lcm(d, mu.d)
            a, b = big // d, big // mu.d
            x, y = b * mu.p, b * mu.q
            for j, xs, ys, us, vs in zip(moved, pushed_re, pushed_im, old_re, old_im):
                if x or y:
                    xs = [a * p - x * u + y * v for p, u, v in zip(xs, us, vs)]
                    ys = [a * q - x * v - y * u for q, u, v in zip(ys, us, vs)]
                re_cols[j] = xs
                im_cols[j] = ys
                dens[j] *= big
    parts = [[(lam.p, lam.q, lam.d) for lam in eigs] for eigs in spectra]
    scales = []
    for den, t, fs in zip(dens, targets, factors):
        # 1 / (den prod (lam - mu)) as top / (gr + gi i), reduced once
        top, gr, gi = 1, den, 0
        for ps, u, us in zip(parts, t, fs):
            lr, li, ld = ps[u]
            for mr, mi, md in map(ps.__getitem__, us):
                # lam - mu = ((lr + li i) md - (mr + mi i) ld) / (ld md)
                xr, xi = lr * md - mr * ld, li * md - mi * ld
                gr, gi = gr * xr - gi * xi, gr * xi + gi * xr
                top *= ld * md
        scales.append(_reduced_scalar(top * gr, -top * gi, gr * gr + gi * gi))
    return _scaled_columns(n, re_cols, im_cols, scales)


def _check_commute(family) -> None:
    """Raise unless the members commute in pairs."""
    for x in range(len(family)):
        for y in range(x + 1, len(family)):
            if family[x] * family[y] != family[y] * family[x]:
                raise PreconditionViolated(
                    f"members {x + 1} and {y + 1} do not commute"
                )


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
       No projector is formed to find these pairs. Let B_k be the C x C
       block of F_k, K_k(lam) = {w : w B_k = lam w} its left eigenspace,
       and L_t the meet over k of the K_k(lam_{t_k}). The nonzero L_t are
       found member by member (`_refine`), as the pieces of a direct sum
       that fills the row space of C:
       - B_1 is split by `_spectrum`, one integer basis of each K_1(lam)
         from the kernel of (B_1 - lam I)^T; B_1 is diagonalizable exactly
         when their dimensions add up to |C|, and the K_1(lam) are then
         the pieces.
       - The pieces L_t of the members before k are invariant under B_k.
         The class blocks commute, since the C x C block of a product is
         the product of the blocks; so for w in L_t and j < k,
         (w B_k) B_j = (w B_j) B_k = lam_{t_j} w B_k, and w B_k lies in L_t.
       - So B_k, acting on rows, is the direct sum of its restrictions M_t
         to the pieces. With W the echelon basis of L_t (`_echelon`),
         W B_k = M_t W, and M_t is read off the pivot columns of W, where W
         is a multiple of the identity (`_restriction`). B_k is
         diagonalizable, over the Gaussian rationals or over the complex
         numbers, exactly when every M_t is; its spectrum is the union of
         theirs, and its characteristic polynomial their product. So the
         factor that the root search leaves of B_k's is the product of the
         factors it leaves of the M_t's, and the error carries the degree
         of that product's squarefree part, as when B_k was searched whole.
         A piece that is not diagonalizable over the complex numbers is
         named before a piece of irrational spectrum, as the test by the
         minimal polynomial of B_k named the whole block. A 1 x 1 M_t
         needs no root search.
       - The pieces come out as L_t meet K_k(lam) for each eigenvalue lam
         of M_t. The rows y W, for y in a basis of M_t's left eigenspace of
         lam, span it: w = y W in L_t has w B_k = y M_t W, which is lam w
         exactly when y M_t = lam y, W having independent rows. And every
         K_k(lam) is the direct sum of its meets with the L_t, since B_k is
         the direct sum of the M_t. These are thus the L_{t+(u)}, and the
         nonzero ones: where M_t has one eigenvalue, the piece stays as it
         is.
       The pairs are (j, t) for the pivot columns j of the echelon basis of
       each nonzero L_t. These are the same pairs. The row space of
       (Q_t)_CC is L_t. Its factors, the block projectors P_k, commute, and
       P_k B_k = lam_{t_k} P_k, so every row w of (Q_t)_CC has
       w B_k = lam_{t_k} w for each k: the rows lie in L_t. A w in L_t is fixed by
       each Lagrange polynomial of its eigenvalue, so w (Q_t)_CC = w: L_t
       lies in the row space. Two matrices with the same row space have the
       same null space, so the same linear relations among their columns; a
       column is a pivot exactly when it is not a combination of the
       columns left of it, so they have the same pivot columns. So the
       pivot columns of a piece do not depend on the basis it was found in,
       and the sorted pairs, and with them S, S^-1 and the diagonals, come
       out entry for entry as the ones read off (Q_t)_CC. For a family that
       does not commute, a piece may not be invariant: W B_k = M_t W then
       fails on some column, `_restriction` raises, and step 4's failure
       path names the pair of members that do not commute.
    2. Columns by pushing. The column of S for the pair (j, t) is Q_t e_j,
       with j read as a vertex of C. The factors F_k - mu I commute, being
       polynomials in a commuting family, so Q_t e_j is e_j multiplied by
       F_k - mu I for every member k and every mu other than lam_{t_k}, in
       any order, then scaled by the product of the (lam_{t_k} - mu)^-1.
       Only the mu of the class blocks above C are needed. Let
       V = span{e_i : i -> j}. Every matrix A of the algebra maps V into itself: A e_i lies
       on the l with l -> i, and l -> i -> j gives l -> j. On V, in class
       order, A is block upper-triangular, and its diagonal blocks are the
       class blocks A_DD of the classes D above C, those with D -> C, C
       itself included; the `presence` column of C in the block-triangular
       form lists them. Take a diagonalizable F_k. Its restriction R to V is
       diagonalizable too (the minimal polynomial of R divides that of F_k,
       which has simple roots), and its spectrum is the union sigma_k of the
       spectra of those class blocks, which holds lam = lam_{t_k}, an
       eigenvalue of the block of C. The Lagrange polynomial L of lam over
       the whole spectrum of F_k and the one L' over sigma_k agree on
       sigma_k, 1 at lam and 0 at the rest, so their difference is divisible
       by the minimal polynomial of R, the product of the x - mu over
       sigma_k, and L(R) = L'(R): L(F_k) e = L'(F_k) e for every e in V. Each
       factor maps V into V, so, member by member, Q_t e_j is e_j times the
       product over k of the L'(F_k): the factors F_k - mu I for mu in
       sigma_k other than lam, over (lam - mu). `_push` keeps the columns as
       integer rows and takes one product per member and eigenvalue, moving
       every column that takes that factor at once; it reads each F_k^T into
       the product kernel once and applies the shift by -mu to the rows. Each
       column is divided once at the end. The values are exact, so S is the
       same matrix, entry for entry, as the one read off the n x n joint
       projectors.
       For a commuting family whose class blocks are diagonalizable but some
       member is not, these columns may differ from Q_t e_j; the outcome does
       not. They still lie in V, and the C x C block of L'(F_k) is
       L'(B_k) = L(B_k), for the diagonalizable class block B_k whose spectrum lies in
       sigma_k; so step 3 holds for them as it stands. An invertible S with
       F_k S = S D_k would make F_k diagonalizable, so step 4's check fails
       with either S, and its failure path, which never reads S, names the
       same member.
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
    4. Certify, and diagnose only on failure. When every member is
       diagonalizable the Q_t are the joint spectral projectors, so column
       j of S, for the pair (j', t), is a joint eigenvector: F_k takes it
       to lam_{t_k} times itself. With D_k the diagonal matrix of these
       eigenvalues, read off the tuples t, each member is checked as
       F_k S = S D_k: one product and a column scaling, where S^-1 F_k S takes
       two. A positive verdict rests on the checked certificate alone: S is
       invertible (its inverse was computed), S and S^-1 are supported in
       the relation, and F_k S = S D_k, so S^-1 F_k S = D_k is diagonal.
       Such a family commutes, F_k = S D_k S^-1 being conjugates of
       diagonal matrices by one S, so the pairwise commute check is left to
       the failure path: any error after the support check (a spectrum
       error, a class block that does not keep a joint eigenspace, a
       singular S, S outside the algebra, a member with F S != S D) first
       runs it, and "members x and y do not commute" is raised before
       anything else, as when the check ran first. For a commuting family S
       is invertible (step 3), so F S != S D means that some member is not
       diagonalizable. The spectrum of F_k, the union of its class blocks'
       spectra, lies in the field, so F_k is diagonalizable exactly when its
       eigenspaces at those eigenvalues fill the space; the first member
       whose eigenspaces do not is named, as "member k is not
       diagonalizable", the wording of the class-block stage.

    Where every member is upper-triangular on every class, each Q_CC is an
    upper-triangular idempotent, its pivots are the j with (Q)_jj = 1, and
    column j of S is column j of the one Q with (Q)_jj = 1.
    """
    family = list(family)
    n = rho.n
    for f in family:
        if f.shape != (n, n):
            raise DimensionMismatch(f"family member shape {f.shape}, expected n={n}")
        bad = first_unsupported(_nonzero_positions(f), rho)
        if bad is not None:
            raise SupportViolation(
                f"family member has entry at {bad} outside the relation", pair=bad
            )
    if not family:
        ident = DenseMatrix.identity(n)
        return Diagonalization(ident, ident, ())
    try:
        return _diagonalize(rho, family)
    except SmalgError:
        # a family that does not commute is named as such first
        _check_commute(family)
        raise


def _diagonalize(rho: QuasiOrder, family) -> Diagonalization:
    """Steps 1-4 of ``simultaneous_diagonalize_in_sma`` on a nonempty family
    supported in the relation."""
    n = rho.n
    form = block_triangular_form(rho)
    classes = [sorted(c) for c in form.class_order]
    # a member's spectrum is the union of the spectra of its class blocks
    spectra = [set() for _ in family]
    class_eigs, class_pieces = [], []
    for idx in classes:
        if len(idx) == 1:
            t = tuple(f.at(idx[0], idx[0]) for f in family)
            own, pieces = [{lam} for lam in t], [(t, [0])]
        else:
            own, pieces = [], [((), None)]
            for k, f in enumerate(family):
                try:
                    pieces, eigs = _refine(pieces, f.submatrix(idx, idx))
                except NotDiagonalizable as exc:
                    raise NotDiagonalizable(
                        f"member {k + 1} is not diagonalizable"
                    ) from exc
                except IrrationalSpectrum as exc:
                    raise IrrationalSpectrum(
                        f"member {k + 1} has irrational eigenvalues"
                    ) from exc
                own.append(eigs)
            pieces = [
                (t, range(len(idx)) if basis is None else basis[0]) for t, basis in pieces
            ]
        for acc, eigs in zip(spectra, own):
            acc.update(eigs)
        class_eigs.append(own)
        class_pieces.append(pieces)
    spectra = [sorted(eigs, key=GaussianRational.sort_key) for eigs in spectra]
    position = [{lam: u for u, lam in enumerate(eigs)} for eigs in spectra]
    # the indices of each class block's eigenvalues, member by member
    indices = [
        [{pos[lam] for lam in eigs} for eigs, pos in zip(own, position)]
        for own in class_eigs
    ]
    sources, targets, factors = [0] * n, [()] * n, [()] * n
    for b, (idx, pieces) in enumerate(zip(classes, class_pieces)):
        # (pivot column, eigenvalue indices) for each piece and pivot column
        picks = sorted(
            (c, tuple(pos[lam] for lam, pos in zip(t, position)))
            for t, cols in pieces
            for c in cols
        )
        # each member's eigenvalues on the class blocks above and at this one
        above = [own for own, row in zip(indices, form.presence) if row[b]]
        reach = [set().union(*sets) for sets in zip(*above)]
        for j, (c, t) in zip(idx, picks):
            sources[j - 1], targets[j - 1] = idx[c], t
            factors[j - 1] = tuple(r - {u} for r, u in zip(reach, t))
    s = _push(family, spectra, sources, targets, factors)
    sinv = inverse(s)
    bad = first_unsupported(_nonzero_positions(s), rho)
    if bad is None:
        bad = first_unsupported(_nonzero_positions(sinv), rho)
    if bad is not None:
        raise InternalInconsistency(f"similarity escaped the algebra at {bad}")
    # column j of S is a joint eigenvector: eigenvalue spectra[k][t[k]] of F_k
    diagonals = tuple([eigs[t[k]] for t in targets] for k, eigs in enumerate(spectra))
    for f, values in zip(family, diagonals):
        if f * s != s.scale_columns(values):
            # S is invertible, so some member is not diagonalizable: name it
            for k, (g, eigs) in enumerate(zip(family, spectra)):
                if sum(len(_shifted_kernel(g, lam)) for lam in eigs) != n:
                    cause = NotDiagonalizable("minimal polynomial has a repeated root")
                    raise NotDiagonalizable(f"member {k + 1} is not diagonalizable") from cause
            raise InternalInconsistency("conjugate failed to come out diagonal")
    return Diagonalization(s, sinv, diagonals)
