"""Tests for Jordan homomorphism recognition, classification, synthesis,
and embeddings between algebras."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smalg.errors import (
    DimensionMismatch,
    FormatError,
    InternalInconsistency,
    NotClassUnion,
    NotJordan,
    Singular,
    SmalgError,
    SupportViolation,
    VanishingUnitImage,
    ZeroWeight,
)
import smalg.exactnum as exactnum
import smalg.jordan
import smalg.quasiorder
from smalg.exactnum import (
    DenseMatrix,
    GaussianRational,
    inverse,
    rank,
    scalar,
)
from smalg.jordan import (
    CanonicalJordanForm,
    LinearMapOnSMA,
    UnitFrame,
    algebra_embeds_into,
    all_algebra_automorphisms_inner,
    apply,
    classify_into_codomain,
    classify_jordan,
    extends_to_full_jordan_automorphism,
    format_linear_map,
    jordan_embeds_into,
    multiplicativity_dichotomy,
    parse_linear_map,
    synthesize_jordan,
)
from smalg.quasiorder import approx_classes, format_relation, from_edges, parse_relation
from smalg.rankpres import classify_rank_preserver
from smalg.sampling import random_transitive_map
from smalg.transmap import apply_induced, validate

from fixtures import (
    BAD_LITERALS,
    bowtie,
    census12,
    corner,
    corner_map_images,
    corpus_style_jordan_map,
    cycle_over_point,
    delta,
    double_chain,
    full,
    linear_map,
    random_class_union,
    random_invertible_in_sma,
    random_jordan_map,
    random_literal,
    random_quasiorder,
    random_supported_matrix,
    transitive_map,
    upper_chain,
    vee3,
    wedge3,
)
from oracles import (
    conjugation_map,
    dense_classify_jordan,
    dense_reconstruct,
    grid_of,
    identity_map,
    is_jordan_homomorphism,
    jordan_pair_violated,
    jordan_product,
    oracle_first_jordan_violation,
    oracle_first_nonorthogonal_pair,
    oracle_jordan_embedding_exists,
    oracle_unit_image,
    to_grid,
    transpose_map,
)


def unit(n, i, j):
    return DenseMatrix.unit(n, i, j)


def test_linear_map_validation():
    rho = upper_chain(2)
    imgs = {(1, 1): unit(2, 1, 1), (2, 2): unit(2, 2, 2), (1, 2): unit(2, 1, 2)}
    LinearMapOnSMA(rho, imgs)
    with pytest.raises(SupportViolation) as exc:
        LinearMapOnSMA(rho, {k: v for k, v in imgs.items() if k != (1, 2)})
    assert exc.value.pair == (1, 2)
    with pytest.raises(SupportViolation) as exc:
        LinearMapOnSMA(rho, {**imgs, (2, 1): unit(2, 2, 1)})
    assert exc.value.pair == (2, 1)
    with pytest.raises(DimensionMismatch):
        LinearMapOnSMA(rho, {**imgs, (1, 2): DenseMatrix.identity(3)})


def test_apply_identity_transpose_and_support():
    rho = upper_chain(3)
    x = DenseMatrix(3, 3, [1, 2, 3, 0, 4, 5, 0, 0, 6])
    assert apply(identity_map(rho), x) == x
    assert apply(transpose_map(rho), x) == x.transpose()
    with pytest.raises(SupportViolation) as exc:
        apply(identity_map(rho), DenseMatrix(3, 3, [0] * 3 + [7] + [0] * 5))
    assert exc.value.pair == (2, 1)
    with pytest.raises(DimensionMismatch):
        apply(identity_map(rho), DenseMatrix.identity(2))


@pytest.mark.parametrize("size", [2, 4])
def test_a_wrong_sized_argument_is_a_dimension_mismatch(size):
    # both ways of applying a map to a matrix name the same fault, even
    # where the matrix has an entry outside the relation
    rho = upper_chain(3)
    x = DenseMatrix.identity(size)
    with pytest.raises(DimensionMismatch):
        apply(identity_map(rho), x)
    with pytest.raises(DimensionMismatch):
        apply_induced(validate(rho, {(1, 2): 2, (1, 3): 6, (2, 3): 3}), x)


def test_corner_map_is_not_jordan():
    phi = linear_map(corner(), corner_map_images())
    # image of the identity collapses onto two diagonal positions
    image_of_identity = apply(phi, DenseMatrix.identity(3))
    assert image_of_identity == DenseMatrix.diag([0, 1, 2])
    assert rank(image_of_identity) == 2
    ok, pair = is_jordan_homomorphism(phi)
    assert not ok
    # [DERIVED] first violation in lexicographic order: E_33 o E_23 = E_23
    # maps to E_23, but the images anticommute to zero
    assert pair == ((1, 1), (2, 3))
    with pytest.raises(NotJordan) as exc:
        classify_jordan(phi)
    assert exc.value.pair == ((1, 1), (3, 3))


def test_is_jordan_first_violation_matches_ordered_pairs():
    rng = random.Random(23)
    for _ in range(20):
        rho = random_quasiorder(rng, 2, 4, density=0.4)
        phi = random_jordan_map(rho, rng)[0]
        images = phi.unit_images()
        pairs = rho.pairs()
        p, q = rng.choice(pairs), rng.choice(pairs)
        images[p] = images[p] + DenseMatrix.unit(rho.n, *q).scale(rng.choice([1, -2, "1i"]))
        for m in (phi, linear_map(rho, images)):
            expected = oracle_first_jordan_violation(
                pairs, {k: grid_of(v) for k, v in m.unit_images().items()}
            )
            assert is_jordan_homomorphism(m) == (expected is None, expected)


def test_is_jordan_identity_and_transpose():
    for rho in (upper_chain(3), cycle_over_point(), bowtie()):
        assert is_jordan_homomorphism(identity_map(rho)) == (True, None)
        assert is_jordan_homomorphism(transpose_map(rho)) == (True, None)


def test_classify_identity_and_transpose():
    rho = upper_chain(3)
    f = classify_jordan(identity_map(rho))
    assert f.s == DenseMatrix.identity(3)
    assert f.u == frozenset({1, 2, 3})
    assert all(v == scalar(1) for _, v in f.g.items())
    assert f.pi is None
    ft = classify_jordan(transpose_map(rho))
    assert ft.s == DenseMatrix.identity(3)
    assert ft.u == frozenset()
    assert all(v == scalar(1) for _, v in ft.g.items())
    # no strict pairs: multiplicative and antimultiplicative coincide
    fd = classify_jordan(identity_map(delta(3)))
    assert fd.u == frozenset()
    assert fd.reconstruct() == identity_map(delta(3))


def test_classify_conjugation_recovers_similarity():
    rho = upper_chain(2)
    t = DenseMatrix(2, 2, [1, 1, 0, 1])
    phi = conjugation_map(rho, t)
    f = classify_jordan(phi)
    # [DERIVED] range columns of T E_ii T^-1 normalize back to T itself
    assert f.s == t
    assert f.u == frozenset({1, 2})
    assert f.reconstruct() == phi


def test_classify_absorbs_diagonal_scaling_into_weights():
    rho = upper_chain(2)
    phi = conjugation_map(rho, DenseMatrix.diag([2, 3]))
    f = classify_jordan(phi)
    # [DERIVED] normalized idempotent columns give S = I and push the
    # scaling into the weight 2/3 on (1,2)
    assert f.s == DenseMatrix.identity(2)
    assert f.g.value(1, 2) == scalar("2/3")
    assert f.reconstruct() == phi


def _not_jordan_pair(phi):
    """The pair classify_jordan names for phi, checked to break the Jordan
    identity by the dense oracle."""
    with pytest.raises(NotJordan) as exc:
        classify_jordan(phi)
    assert jordan_pair_violated(phi, exc.value.pair)
    return exc.value.pair


def test_classify_error_cases():
    rho = upper_chain(2)
    base = {(1, 1): unit(2, 1, 1), (2, 2): unit(2, 2, 2), (1, 2): unit(2, 1, 2)}
    with pytest.raises(VanishingUnitImage) as exc:
        classify_jordan(LinearMapOnSMA(rho, {**base, (1, 2): DenseMatrix.zeros(2, 2)}))
    assert exc.value.pair == (1, 2)
    for images, pair in [
        ({**base, (1, 1): unit(2, 1, 2)}, ((1, 1), (1, 1))),
        ({**base, (2, 2): unit(2, 1, 1)}, ((1, 1), (2, 2))),
        ({**base, (1, 2): unit(2, 1, 1)}, ((1, 1), (1, 2))),
        ({**base, (1, 2): unit(2, 1, 2) + unit(2, 2, 1)}, ((1, 2), (1, 2))),
    ]:
        assert _not_jordan_pair(LinearMapOnSMA(rho, images)) == pair
    # phi(E_12) = E_13 on the 3-chain leaves the span: E_11 E_13 + E_13 E_11
    # = E_13 is phi(E_11 E_12 + E_12 E_11), so the pair of E_11 holds and
    # that of E_22 fails
    t3 = upper_chain(3)
    imgs = {(i, j): unit(3, i, j) for (i, j) in t3.pairs()}
    imgs[(1, 2)] = unit(3, 1, 3)
    assert _not_jordan_pair(LinearMapOnSMA(t3, imgs)) == ((2, 2), (1, 2))


def test_classify_rejects_mixed_class_and_nontransitive_weights():
    rho = vee3()
    imgs = {(i, i): unit(3, i, i) for i in range(1, 4)}
    imgs[(1, 2)] = unit(3, 1, 2)
    imgs[(1, 3)] = unit(3, 3, 1)
    assert _not_jordan_pair(LinearMapOnSMA(rho, imgs)) == ((1, 2), (1, 3))

    # E_12 and E_34 share no vertex, so the pair named is E_14 with E_34
    rho = from_edges(4, [(1, 2), (3, 4), (1, 4)])
    imgs = {(i, j): unit(4, i, j) for (i, j) in rho.pairs()}
    imgs[(3, 4)] = unit(4, 4, 3)
    assert _not_jordan_pair(LinearMapOnSMA(rho, imgs)) == ((1, 4), (3, 4))

    t3 = upper_chain(3)
    imgs = {(i, j): unit(3, i, j) for (i, j) in t3.pairs()}
    imgs[(1, 3)] = unit(3, 1, 3).scale(2)
    assert _not_jordan_pair(LinearMapOnSMA(t3, imgs)) == ((1, 2), (2, 3))


def test_synthesize_identity_and_transpose():
    rho = upper_chain(3)
    ones = {(i, j): "1" for (i, j) in rho.strict_pairs()}
    assert synthesize_jordan(rho, DenseMatrix.identity(3), {1, 2, 3}, ones) == identity_map(rho)
    assert synthesize_jordan(rho, DenseMatrix.identity(3), set(), ones) == transpose_map(rho)


def test_synthesize_validation():
    rho = upper_chain(3)
    ident = DenseMatrix.identity(3)
    ones = {(i, j): "1" for (i, j) in rho.strict_pairs()}
    with pytest.raises(NotClassUnion):
        synthesize_jordan(rho, ident, {1}, ones)
    with pytest.raises(Singular):
        synthesize_jordan(rho, DenseMatrix.zeros(3, 3), {1, 2, 3}, ones)
    with pytest.raises(DimensionMismatch):
        synthesize_jordan(rho, DenseMatrix.identity(2), {1, 2, 3}, ones)
    with pytest.raises(ZeroWeight):
        synthesize_jordan(rho, ident, {1, 2, 3}, {**ones, (1, 3): "0"})


def test_synthesized_maps_satisfy_jordan_identity():
    rng = random.Random(20260823)
    for _ in range(25):
        rho = random_quasiorder(rng)
        phi, _, _, _ = random_jordan_map(rho, rng)
        assert is_jordan_homomorphism(phi) == (True, None)
        x = random_supported_matrix(rho, rng)
        y = random_supported_matrix(rho, rng)
        left = apply(phi, jordan_product(x, y))
        right = jordan_product(apply(phi, x), apply(phi, y))
        assert left == right


def test_classify_synthesize_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        rho = random_quasiorder(rng)
        phi, s, u, g = random_jordan_map(rho, rng)
        f = classify_jordan(phi)
        assert f.reconstruct() == phi
        assert synthesize_jordan(rho, f.s, f.u, f.g) == phi
        # the multiplicative part is pinned on classes with strict pairs
        strict_vertices = {i for (i, j) in rho.strict_pairs()} | {
            j for (i, j) in rho.strict_pairs()
        }
        assert f.u & strict_vertices == u & strict_vertices


def test_jordan_maps_are_injective():
    rng = random.Random(11)
    for _ in range(15):
        rho = random_quasiorder(rng)
        phi, _, _, _ = random_jordan_map(rho, rng)
        pairs = rho.pairs()
        n = rho.n
        images = phi.unit_images()
        entries = []
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                entries.extend(images[p].at(r, c) for p in pairs)
        stacked = DenseMatrix(n * n, len(pairs), entries)
        assert rank(stacked) == len(pairs)


def test_identity_admits_two_factorizations():
    # [DERIVED] worked example: on the order with a symmetric pair over a
    # point, the identity factors both trivially and through the swap of
    # vertices 2 and 3 with compensating similarity and weights
    rho = cycle_over_point()
    ident = identity_map(rho)
    g1 = transitive_map(rho, {(1, 2): "1", (1, 3): "1", (2, 3): "1", (3, 2): "1"})
    f1 = CanonicalJordanForm(s=DenseMatrix.identity(3), u=frozenset({1, 2, 3}), g=g1)
    assert f1.reconstruct() == ident
    t2 = DenseMatrix(3, 3, ["1/2", 0, 0, 0, 0, 1, 0, 1, 0])
    g2 = transitive_map(rho, {(1, 2): "2", (1, 3): "2", (2, 3): "1", (3, 2): "1"})
    f2 = CanonicalJordanForm(
        s=t2, u=frozenset({1, 2, 3}), g=g2, pi=(1, 3, 2)
    )
    assert f2.reconstruct() == ident
    assert f1.u == f2.u == frozenset({1, 2, 3})


def test_jordan_embeds_examples():
    assert jordan_embeds_into(delta(3), upper_chain(3)) == (
        frozenset({1, 2, 3}),
        (1, 2, 3),
    )
    # only the fully transposed copy fits
    assert jordan_embeds_into(vee3(), wedge3()) == (frozenset(), (1, 2, 3))
    t2pad = from_edges(3, [(1, 2)], close=False)
    assert jordan_embeds_into(t2pad, delta(3)) is None
    assert jordan_embeds_into(bowtie(), bowtie()) == (
        frozenset({1, 2, 3, 4}),
        (1, 2, 3, 4),
    )
    with pytest.raises(DimensionMismatch):
        jordan_embeds_into(delta(2), delta(3))


def test_algebra_embeds_examples():
    t3 = upper_chain(3)
    reverse = from_edges(3, [(2, 1), (3, 1), (3, 2)], close=False)
    assert algebra_embeds_into(t3, reverse) == (3, 2, 1)
    assert algebra_embeds_into(t3, t3) == (1, 2, 3)
    assert algebra_embeds_into(vee3(), wedge3()) is None
    with pytest.raises(DimensionMismatch):
        algebra_embeds_into(delta(2), delta(3))


def test_jordan_embeds_whenever_algebra_embeds():
    rng = random.Random(5)
    for _ in range(20):
        rho = random_quasiorder(rng)
        n = rho.n
        extra = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.2
        ]
        rho2 = from_edges(n, rho.strict_pairs() + extra)
        assert algebra_embeds_into(rho, rho2) is not None
        hit = jordan_embeds_into(rho, rho2)
        assert hit is not None
        # a direct embedding exists, so the search keeps every class direct
        assert hit[0] == frozenset(range(1, n + 1))


def test_embedding_census_matches_brute_force():
    rels = census12()
    for _, r1 in rels:
        for _, r2 in rels:
            got = jordan_embeds_into(r1, r2) is not None
            assert got == oracle_jordan_embedding_exists(r1, r2)


def test_multiplicativity_dichotomy():
    assert multiplicativity_dichotomy(delta(4))
    assert multiplicativity_dichotomy(upper_chain(4))
    assert multiplicativity_dichotomy(bowtie())
    assert multiplicativity_dichotomy(cycle_over_point())
    assert not multiplicativity_dichotomy(double_chain())


def test_mixed_map_on_split_classes_is_neither_mult_nor_anti():
    # two classes split by the central idempotent defeat the dichotomy
    rho = double_chain()
    ones = {(1, 2): "1", (3, 4): "1"}
    phi = synthesize_jordan(rho, DenseMatrix.identity(4), {1, 2}, ones)
    assert is_jordan_homomorphism(phi) == (True, None)
    pairs = rho.pairs()
    images = phi.unit_images()
    mult_ok = all(
        apply(phi, unit(4, a, b) * unit(4, c, d))
        == images[(a, b)] * images[(c, d)]
        for (a, b) in pairs
        for (c, d) in pairs
    )
    anti_ok = all(
        apply(phi, unit(4, a, b) * unit(4, c, d))
        == images[(c, d)] * images[(a, b)]
        for (a, b) in pairs
        for (c, d) in pairs
    )
    assert not mult_ok and not anti_ok


def test_jordan_extension_and_inner_predicates():
    assert extends_to_full_jordan_automorphism(upper_chain(3))
    assert all_algebra_automorphisms_inner(upper_chain(3))
    assert extends_to_full_jordan_automorphism(delta(3))
    assert not all_algebra_automorphisms_inner(delta(3))
    assert all_algebra_automorphisms_inner(full(2))
    assert all_algebra_automorphisms_inner(delta(1))
    # nontrivial transitive maps exist on the bowtie
    assert not extends_to_full_jordan_automorphism(bowtie())
    assert not all_algebra_automorphisms_inner(bowtie())
    # trivial weights but two big classes
    assert not extends_to_full_jordan_automorphism(double_chain())
    assert not all_algebra_automorphisms_inner(double_chain())


def test_classify_into_codomain_identity():
    rho = cycle_over_point()
    phi = identity_map(rho)
    f = classify_into_codomain(phi, rho)
    assert f.pi is not None
    assert f.reconstruct() == phi
    assert all(p in rho for p in f.s.support())
    assert all(p in rho for p in inverse(f.s).support())


def test_classify_into_codomain_recovers_relabeling():
    t3 = upper_chain(3)
    reverse = from_edges(3, [(2, 1), (3, 1), (3, 2)], close=False)
    phi = LinearMapOnSMA(t3, {(i, j): unit(3, 4 - i, 4 - j) for (i, j) in t3.pairs()})
    f = classify_into_codomain(phi, reverse)
    assert f.pi == (3, 2, 1)
    assert f.u == frozenset({1, 2, 3})
    assert f.reconstruct() == phi
    assert f.s_inv == inverse(f.s)


def test_classify_into_codomain_random_conjugations():
    # keep every class direct so the images stay inside the algebra
    rng = random.Random(41)
    for _ in range(15):
        rho = random_quasiorder(rng)
        s = random_invertible_in_sma(rho, rng)
        g = random_transitive_map(rho, seed=rng.randrange(10**9))
        phi = synthesize_jordan(rho, s, frozenset(range(1, rho.n + 1)), g)
        f = classify_into_codomain(phi, rho)
        assert f.reconstruct() == phi
        assert f.s_inv == inverse(f.s)
        assert all(p in rho for p in f.s.support())
        assert all(p in rho for p in f.s_inv.support())
        mixed = [
            (i, j) if (i == j or i in f.u) else (j, i) for (i, j) in rho.pairs()
        ]
        assert all((f.pi[a - 1], f.pi[b - 1]) in rho for (a, b) in mixed)
    # a symmetric relation also accepts its transpose map
    f = classify_into_codomain(transpose_map(full(3)), full(3))
    assert f.u == frozenset()
    assert f.reconstruct() == transpose_map(full(3))
    assert f.s_inv == inverse(f.s)


def test_classify_into_codomain_support_violation():
    with pytest.raises(SupportViolation) as exc:
        classify_into_codomain(identity_map(upper_chain(3)), delta(3))
    assert exc.value.pair == (1, 2)


def rand_invertible(rng, n):
    """Dense invertible matrix: random elementary row operations on I."""
    m = to_grid(DenseMatrix.identity(n))
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            f = GaussianRational(rng.choice([1, -1, 2, Fraction(1, 2)]), rng.choice([0, 0, 1]))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return DenseMatrix.from_rows(m)


def rank_one_idempotent(rng, n):
    """u v^T / (v^T u) for random integer vectors with v^T u != 0."""
    while True:
        u = [rng.randint(-2, 2) for _ in range(n)]
        v = [rng.randint(-2, 2) for _ in range(n)]
        t = sum(a * b for a, b in zip(u, v))
        if t:
            return DenseMatrix.from_rows([[Fraction(a * b, t) for b in v] for a in u])


def test_reconstruction_matches_dense_products():
    rng = random.Random(59)
    forms = []
    for _ in range(12):
        rho = random_quasiorder(rng)
        pi = list(range(1, rho.n + 1))
        rng.shuffle(pi)
        forms.append(
            CanonicalJordanForm(
                s=rand_invertible(rng, rho.n),
                u=random_class_union(rho, rng),
                g=random_transitive_map(rho, seed=rng.randrange(10**9)),
                pi=tuple(pi) if rng.random() < 0.5 else None,
            )
        )
    # classified into a codomain: a relabeling pi, and a proper class union
    t3 = upper_chain(3)
    reverse = from_edges(3, [(2, 1), (3, 1), (3, 2)], close=False)
    phi = LinearMapOnSMA(t3, {(i, j): unit(3, 4 - i, 4 - j) for (i, j) in t3.pairs()})
    forms.append(classify_into_codomain(phi, reverse))
    rho = double_chain()
    ones = {p: 1 for p in rho.strict_pairs()}
    phi = synthesize_jordan(rho, DenseMatrix.identity(4), {1, 2}, ones)
    forms.append(classify_into_codomain(phi, from_edges(4, [(1, 2), (4, 3)], close=False)))
    assert forms[-1].u == frozenset({1, 2}) and forms[-1].pi is not None
    assert any(f.pi is not None and f.u and len(f.u) < f.rho.n for f in forms)
    for form in forms:
        sinv = inverse(form.s)
        images = form.reconstruct().unit_images()
        for (i, j) in form.rho.pairs():
            assert grid_of(images[(i, j)]) == oracle_unit_image(form, i, j, sinv)
            assert form.unit_image(i, j) == images[(i, j)]


def test_nonorthogonal_idempotents_name_the_first_pair():
    rng = random.Random(67)
    raised = 0
    for _ in range(40):
        rho = random_quasiorder(rng, n_min=3)
        n = rho.n
        phi, _, _, _ = random_jordan_map(rho, rng)
        original = phi.unit_images()
        images = dict(original)
        for k in rng.sample(range(1, n + 1), rng.randint(1, 2)):
            images[(k, k)] = rank_one_idempotent(rng, n)
        for family in (original, images):
            qs = [family[(i, i)] for i in range(1, n + 1)]
            total = sum(qs[1:], qs[0])
            first = oracle_first_nonorthogonal_pair([grid_of(q) for q in qs])
            # the sum test of the dense ladder (oracles.dense_classify_jordan)
            assert (total * total == total) == (first is None)
        if first is None:  # the perturbed family happens to be orthogonal
            continue
        raised += 1
        i, j = first
        with pytest.raises(NotJordan) as exc:
            classify_jordan(LinearMapOnSMA(rho, images))
        assert exc.value.pair == ((i, i), (j, j))
        assert str(exc.value) == f"images of E_{i}{i} and E_{j}{j} are not orthogonal"
    assert raised >= 30
    # idempotents of rank two: I and E_22 on the 2-chain
    rho = upper_chain(2)
    imgs = {(1, 1): DenseMatrix.identity(2), (2, 2): unit(2, 2, 2), (1, 2): unit(2, 1, 2)}
    with pytest.raises(NotJordan) as exc:
        classify_jordan(LinearMapOnSMA(rho, imgs))
    assert exc.value.pair == ((1, 1), (2, 2))


def test_classify_chain10_dense_product_count(monkeypatch):
    """On a Jordan input every check runs in the unit frame of S0, and the
    reconstruction too: no n x n by n x n product at all."""
    rng = random.Random(73)
    rho = upper_chain(10)
    n = rho.n
    form = CanonicalJordanForm(
        s=rand_invertible(rng, n),
        u=random_class_union(rho, rng),
        g=random_transitive_map(rho, seed=7),
    )
    phi = form.reconstruct()
    dense = []
    product = exactnum.multiply

    def counting(a, b):
        if a.shape == b.shape == (n, n):
            dense.append((a, b))
        return product(a, b)

    monkeypatch.setattr(exactnum, "multiply", counting)
    assert classify_jordan(phi).reconstruct() == phi
    assert dense == []


def _ladder_outcome(classify, phi):
    """The form a ladder returns, or the class, message and pair of what it
    raises. The pair of a NotJordan is checked to break the Jordan identity
    by the dense oracle."""
    try:
        return classify(phi)
    except NotJordan as exc:
        assert jordan_pair_violated(phi, exc.pair)
        return NotJordan, str(exc), exc.pair
    except SmalgError as exc:
        return type(exc), str(exc), getattr(exc, "pair", None)


def _perturbed(rng, phi, kind):
    """phi with one image changed: 0 none, 1 a unit added to a strict image,
    2 a unit added to a diagonal image, 3 an image scaled, 4 an image
    transposed."""
    rho = phi.rho
    n = rho.n
    images = phi.unit_images()
    strict = rho.strict_pairs()
    if kind == 1 and strict:
        p = rng.choice(strict)
        images[p] = images[p] + unit(n, rng.randint(1, n), rng.randint(1, n))
    elif kind == 2:
        k = rng.randint(1, n)
        images[(k, k)] = images[(k, k)] + unit(n, rng.randint(1, n), rng.randint(1, n))
    elif kind == 3:
        p = rng.choice(rho.pairs())
        images[p] = images[p].scale(rng.choice([2, -1, "1/2", "1i", "1+1i"]))
    elif kind == 4:
        p = rng.choice(rho.pairs())
        images[p] = images[p].transpose()
    return LinearMapOnSMA(rho, images)


def test_frame_ladder_agrees_with_the_dense_ladder():
    """The frame ladder and the dense one it replaced, on 1,000 maps with
    n <= 6: Jordan maps rebuilt by dense products from random forms, and
    the same maps with one image perturbed. Both give the same form, or
    raise the same exception with the same message and pair."""
    rng = random.Random(20261018)
    kinds = {}
    for trial in range(1000):
        rho = random_quasiorder(rng, 1, 6)
        n = rho.n
        base = random_transitive_map(rho, seed=rng.randrange(10**9))
        shift = {i: scalar(rng.choice(["1", "2", "-1/2", "1i", "1-1i"])) for i in range(1, n + 1)}
        g = validate(
            rho, {(i, j): base.value(i, j) * shift[i] / shift[j] for (i, j) in rho.strict_pairs()}
        )
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        form = CanonicalJordanForm(
            s=random_invertible_in_sma(rho, rng) if trial % 2 else rand_invertible(rng, n),
            u=random_class_union(rho, rng),
            g=g,
            pi=tuple(pi) if rng.random() < 0.3 else None,
        )
        phi = _perturbed(rng, dense_reconstruct(form), trial % 5)
        got = _ladder_outcome(classify_jordan, phi)
        assert got == _ladder_outcome(dense_classify_jordan, phi)
        if isinstance(got, tuple):
            for key in ("idempotent", "orthogonal", "leaves span", "transitive"):
                if key in got[1]:
                    kinds[key] = kinds.get(key, 0) + 1
        else:
            kinds["form"] = kinds.get("form", 0) + 1
    assert kinds["form"] >= 250
    assert min(kinds["idempotent"], kinds["leaves span"]) >= 150
    assert min(kinds["orthogonal"], kinds["transitive"]) >= 25


def _sharing_similarity(n):
    """1 everywhere, 2 on the diagonal below the first row: the first row
    of S and the first column of S^-1 have no zero, so every c_a r_b leads
    at (1, 1) and no strict image is told apart by its leading entry."""
    return DenseMatrix.from_rows(
        [[2 if i == j > 1 else 1 for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def _corrupted(phi, form, draw):
    """phi with one change drawn: none, an image scaled, c_b r_a added to a
    strict image g c_a r_b or put in its place, one entry changed, zeroed
    or added, a diagonal image doubled, or two diagonal images made equal,
    which makes S0 singular."""
    rho = phi.rho
    n = rho.n
    images = phi.unit_images()
    strict = rho.strict_pairs()
    kind = draw(st.sampled_from(
        ["none", "scale", "mix", "swap", "entry", "double", "singular"]
    ))
    c = scalar(draw(st.sampled_from(["2", "-1", "1/2", "1i", "1+1i"])))

    def outer(a, b):
        return form.s * unit(n, a, b) * inverse(form.s)

    if kind == "scale":
        p = draw(st.sampled_from(rho.pairs()))
        images[p] = images[p].scale(c)
    elif kind in ("mix", "swap") and strict:
        p = draw(st.sampled_from(strict))
        g, a, b = form._term(*p)
        images[p] = images[p] + outer(b, a).scale(c) if kind == "mix" else outer(b, a).scale(g)
    elif kind == "entry":
        p = draw(st.sampled_from(rho.pairs()))
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        if draw(st.booleans()):
            images[p] = images[p] + unit(n, i, j).scale(c)
        else:
            images[p] = images[p] - unit(n, i, j).scale(images[p].at(i, j))
    elif kind == "double":
        k = draw(st.integers(1, n))
        images[(k, k)] = images[(k, k)].scale(2)
    elif kind == "singular" and n > 1:
        k, l = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        images[(k, k)] = images[(l, l)]
    return LinearMapOnSMA(rho, images)


@st.composite
def _jordan_or_corrupted(draw):
    """A Jordan map built by ``synthesize_jordan`` on a quasi-order of at
    most 5 points, from S = D B E_1 ... E_k (D diagonal, B the identity or
    ``_sharing_similarity``, E elementary), a class union and a transitive
    g; then maybe corrupted (``_corrupted``)."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(1, n)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=8))
    rho = from_edges(n, edges)
    d = draw(st.lists(st.sampled_from(["1", "-1", "2", "1+1i"]), min_size=n, max_size=n))
    s = DenseMatrix.diag(d)
    if draw(st.booleans()):
        s = s * _sharing_similarity(n)
    if n > 1:
        pair = st.lists(vertex, min_size=2, max_size=2, unique=True)
        for a, b in draw(st.lists(pair, max_size=2 * n)):
            c = draw(st.sampled_from([1, -1, 2, "1i"]))
            s = s * (DenseMatrix.identity(n) + unit(n, a, b).scale(c))
    blocks = approx_classes(rho).blocks
    picks = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    u = frozenset().union(*(b for b, pick in zip(blocks, picks) if pick))
    g = random_transitive_map(rho, seed=draw(st.integers(0, 2**31)))
    form = CanonicalJordanForm(s=s, u=u, g=g)
    return _corrupted(synthesize_jordan(rho, s, u, g), form, draw)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_jordan_or_corrupted())
def test_proposed_form_agrees_with_the_ladder(phi):
    """classify_jordan, which proposes a form from leading entries and
    verifies it once, against the dense ladder: the same form field for
    field, or the same exception with the same message and pair."""
    got = _ladder_outcome(classify_jordan, phi)
    want = _ladder_outcome(dense_classify_jordan, phi)
    assert got == want
    if isinstance(got, CanonicalJordanForm):
        assert (got.s, got.u, got.g, got.pi) == (want.s, want.u, want.g, want.pi)
        assert got.s_inv == inverse(got.s)


def test_shared_leading_positions_fall_back_to_coordinates(monkeypatch):
    """With every c_a r_b leading at (1, 1), each strict image is oriented
    by its two coordinates, and the outcome is still the dense ladder's."""
    rng = random.Random(31)
    calls = []
    real = UnitFrame.coordinate

    def coordinate(self, phi, t, a, b):
        calls.append((t, a, b))
        return real(self, phi, t, a, b)

    monkeypatch.setattr(UnitFrame, "coordinate", coordinate)
    for trial in range(40):
        rho = random_quasiorder(rng, 2, 5)
        s = _sharing_similarity(rho.n)
        u = random_class_union(rho, rng)
        g = random_transitive_map(rho, seed=trial)
        phi = CanonicalJordanForm(s=s, u=u, g=g).reconstruct()
        if trial % 2:
            phi = _perturbed(rng, phi, trial % 5)
        calls.clear()
        got = _ladder_outcome(classify_jordan, phi)
        assert got == _ladder_outcome(dense_classify_jordan, phi)
        if isinstance(got, CanonicalJordanForm):
            strict = [t for t, (i, j) in enumerate(phi.units) if i != j]
            assert [t for t, _, _ in calls] == [t for t in strict for _ in range(2)]


@pytest.mark.parametrize(
    "classify",
    [
        classify_jordan,
        lambda phi: classify_rank_preserver(phi).form,
        lambda phi: classify_into_codomain(phi, full(6)),
    ],
    ids=["classify", "check-rank", "codomain"],
)
def test_a_jordan_map_is_compared_once_per_unit(monkeypatch, classify):
    """On a Jordan map over the 6-chain each unit image is compared with
    its term once and coordinates are summed only where c_i r_j and c_j r_i
    lead at one position: the rank preservers' form and the codomain form
    are derived from the one the comparison proved, not compared again."""
    phi = corpus_style_jordan_map(6, 1)
    n = phi.rho.n
    s = classify_jordan(phi).s
    s_inv = inverse(s)
    first_row = {a: min(k for k in range(1, n + 1) if s.at(k, a)) for a in range(1, n + 1)}
    first_col = {b: min(l for l in range(1, n + 1) if s_inv.at(b, l)) for b in range(1, n + 1)}
    shared = [
        (i, j)
        for (i, j) in phi.units
        if i != j and (first_row[i], first_col[j]) == (first_row[j], first_col[i])
    ]
    assert shared
    compared, coordinates = [], []
    frame = UnitFrame
    matches, coordinate = frame.matches, frame.coordinate

    def counting_matches(self, psi, t, terms):
        compared.append(t)
        return matches(self, psi, t, terms)

    def counting_coordinate(self, psi, t, a, b):
        coordinates.append((phi.units[t], (a, b)))
        return coordinate(self, psi, t, a, b)

    monkeypatch.setattr(frame, "matches", counting_matches)
    monkeypatch.setattr(frame, "coordinate", counting_coordinate)
    form = classify(phi)
    assert len(phi.units) == 21
    assert sorted(compared) == list(range(len(phi.units)))
    assert coordinates == [(p, q) for p in shared for q in (p, p[::-1])]
    monkeypatch.undo()
    assert form.reconstruct() == phi
    assert form.s_inv == inverse(form.s)


def test_maps_compare_by_their_entries():
    # the same numerators over another denominator are another map
    phi = corpus_style_jordan_map(4, 2)
    assert phi == LinearMapOnSMA(phi.rho, phi.unit_images())
    halved = phi.left_multiplied(DenseMatrix.identity(4).scale("1/2"))
    assert halved.nonzeros == phi.nonzeros
    assert halved != phi
    assert halved == LinearMapOnSMA(
        phi.rho, {p: m.scale("1/2") for p, m in phi.unit_images().items()}
    )


def test_a_map_that_fails_is_inverted_once(monkeypatch):
    # the corpus's non-Jordan map, E_11's image doubled: the ladder names
    # the failure in the frame the proposal used
    phi = corpus_style_jordan_map(6, 1)
    images = phi.unit_images()
    images[(1, 1)] = images[(1, 1)].scale(2)
    calls = []
    monkeypatch.setattr(smalg.jordan, "inverse", lambda m: calls.append(m) or inverse(m))
    with pytest.raises(NotJordan, match="image of E_11 is not idempotent"):
        classify_jordan(LinearMapOnSMA(phi.rho, images))
    assert len(calls) == 1


def test_a_strict_image_of_one_term_that_fails_the_walk_is_internal(monkeypatch):
    # an image that is one scaled outer product of the frame is always
    # proposed and matched; a walk that says otherwise is a fault
    phi = identity_map(upper_chain(2))
    monkeypatch.setattr(UnitFrame, "propose", lambda self, phi, t, i, j: None)
    with pytest.raises(InternalInconsistency, match="not the one proposed"):
        classify_jordan(phi)


def test_frame_failure_on_dense_jordan_images_is_internal(monkeypatch):
    # idempotent, orthogonal diagonal images always pass the frame check;
    # a frame that says otherwise is a fault, not a verdict
    phi = identity_map(upper_chain(3))
    monkeypatch.setattr(UnitFrame, "matches", lambda self, phi, t, terms: False)
    with pytest.raises(InternalInconsistency, match="pass the dense checks"):
        classify_jordan(phi)


def test_linear_map_literals_match_the_scalar_path():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        blocks, expected = [str(n)], {}
        for i in range(1, n + 1):
            cells = [random_literal(rng) for _ in range(n * n)]
            blocks.append(f"unit {i} {i}")
            blocks.extend(
                " ".join(t for t, _ in cells[r * n : (r + 1) * n]) for r in range(n)
            )
            expected[(i, i)] = DenseMatrix(n, n, [GaussianRational(*v) for _, v in cells])
            assert expected[(i, i)] == DenseMatrix(
                n, n, [GaussianRational.from_literal(t) for t, _ in cells]
            )
        assert parse_linear_map("\n".join(blocks) + "\n").unit_images() == expected


@pytest.mark.parametrize("bad, message", BAD_LITERALS)
def test_linear_map_bad_literal_names_its_line(bad, message):
    text = f"2\nunit 1 1\n1 0\n0 {bad}\nunit 2 2\n0 0\n0 1\n"
    with pytest.raises(FormatError) as exc:
        parse_linear_map(text)
    assert exc.value.line == 4
    assert str(exc.value) == message


def test_linear_map_format_round_trip():
    rng = random.Random(13)
    phi = linear_map(corner(), corner_map_images())
    assert parse_linear_map(format_linear_map(phi)) == phi
    for _ in range(5):
        rho = random_quasiorder(rng)
        psi, _, _, _ = random_jordan_map(rho, rng)
        assert parse_linear_map(format_linear_map(psi)) == psi


def test_linear_map_parse_errors():
    with pytest.raises(FormatError):
        parse_linear_map("  \n# nothing\n")
    with pytest.raises(FormatError) as exc:
        parse_linear_map("x\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        parse_linear_map("1\nunit 1\n1\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_linear_map("1\nunit 1 2\n1\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_linear_map("1\nunit 1 1\n1\nunit 1 1\n2\n")
    assert exc.value.line == 4
    with pytest.raises(FormatError) as exc:
        parse_linear_map("2\nunit 1 1\n1 0 0\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_linear_map("1\nunit 1 1\nbogus\n")
    assert exc.value.line == 3
    for text, line in (
        ("\u0661\nunit 1 1\n1\n", 1),
        ("1\nunit 1 \u0661\n1\n", 2),
        ("1\nunit 1_0 1\n1\n", 2),
        ("1\nunit 1 1\n\u0661\n", 3),
    ):
        with pytest.raises(FormatError) as exc:
            parse_linear_map(text)
        assert exc.value.line == line
    # strict pair present but one diagonal block missing
    text = "2\nunit 1 1\n1 0\n0 0\nunit 1 2\n0 1\n0 0\n"
    with pytest.raises(FormatError):
        parse_linear_map(text)


def _layouts(phi):
    """The map's text as ``format_linear_map`` writes it, and two other
    layouts: comments, blank lines and indentation with each image on
    one line, and each entry on a line of its own."""
    n = phi.rho.n
    images = phi.unit_images()
    cells = {p: [x.literal() for x in _cells(m)] for p, m in images.items()}
    units = phi.rho.pairs()
    commented = f"# size\n{n}\n\n" + "".join(
        f"  unit {i} {j}\t# unit\n\t{' '.join(cells[(i, j)])}  \n" for i, j in units
    )
    tall = f"{n}\n" + "".join(
        f"unit {i} {j}\n" + "".join(c + "\n" for c in cells[(i, j)]) for i, j in units
    )
    return format_linear_map(phi), commented, tall


def test_a_map_reads_each_literal_once_and_a_relation_each_name_by_lookup(monkeypatch):
    """Every layout of a map gives the map, and its reader reads each
    distinct literal other than "0" once; a bad literal names its line. A
    relation written in names reads only its header with ``parse_int``."""
    real_literal = GaussianRational.from_literal
    read = []

    def counting_literal(text):
        read.append(text)
        return real_literal(text)

    monkeypatch.setattr(GaussianRational, "from_literal", counting_literal)
    rng = random.Random(37)
    for _ in range(20):
        phi = random_jordan_map(random_quasiorder(rng), rng)[0]
        literals = {x for t in range(len(phi.units)) for x in phi.literals(t)} - {"0"}
        for text in _layouts(phi):
            read.clear()
            assert parse_linear_map(text) == phi
            assert sorted(read) == sorted(literals)
    with pytest.raises(FormatError) as exc:
        parse_linear_map("1\nunit 1 1\n1/0\n")
    assert exc.value.line == 3

    real_int = smalg.quasiorder.parse_int
    ints = []

    def counting_int(token):
        ints.append(token)
        return real_int(token)

    monkeypatch.setattr(smalg.quasiorder, "parse_int", counting_int)
    rho = random_quasiorder(rng)
    assert parse_relation(format_relation(rho)) == (rho.n, rho.strict_pairs())
    assert ints == [str(rho.n)]


def test_unit_images_are_read_from_one_row():
    """The images sit side by side in one n x (n |rho|) matrix in
    ``rho.pairs()`` order; each unit's nonzero entries are listed once."""
    rng = random.Random(43)
    for _ in range(20):
        phi = random_jordan_map(random_quasiorder(rng), rng)[0]
        n, units = phi.rho.n, phi.rho.pairs()
        images = phi.unit_images()
        assert phi.units == units
        assert phi.matrix.shape == (n, n * len(units))
        for r in range(1, n + 1):
            assert phi.matrix.row_list(r) == [
                x for p in units for x in images[p].row_list(r)
            ]
        for t, p in enumerate(units):
            positions = {(pos // n + 1, pos % n + 1) for pos, _, _ in phi.nonzeros[t]}
            assert positions == images[p].support()
            assert len(phi.nonzeros[t]) == len(images[p].support())
        assert LinearMapOnSMA(phi.rho, images) == phi


def test_a_map_from_entries_places_entries_and_zeros():
    rho = upper_chain(2)
    phi = LinearMapOnSMA._from_entries(
        rho, rho.pairs(), [[(1, scalar("1/2"))], [], [(0, scalar("0")), (3, scalar("2i"))]]
    )
    assert phi.matrix == DenseMatrix.from_rows(
        [[0, "1/2", 0, 0, 0, 0], [0, 0, 0, 0, 0, "2i"]]
    )
    assert (phi.d, phi.nonzeros) == (2, [[(1, 1, 0)], [], [(3, 0, 4)]])


POOL = [0, 0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3)]
IM_POOL = [0, 0, 0, 0, 0, 1, -1, Fraction(1, 2)]


def _rand_scalar(rng):
    return GaussianRational(rng.choice(POOL), rng.choice(IM_POOL))


def _rand_matrix(rng, n):
    return DenseMatrix(n, n, [_rand_scalar(rng) for _ in range(n * n)])


def _cells(m):
    """The entries of m, row-major."""
    return [x for r in range(1, m.rows + 1) for x in m.row_list(r)]


def _map_of(images):
    """The map on the full relation whose first images, in unit order, are
    the given n x n matrices, and which is zero on every later unit."""
    n = images[0].rows
    rho = full(n)
    zero = DenseMatrix.zeros(n, n)
    return LinearMapOnSMA(
        rho, {p: images[t] if t < len(images) else zero for t, p in enumerate(rho.pairs())}
    )


class TestUnitFrame:
    """Coordinates, matches and images of a unit frame against dense
    products with S and S^-1, on images read from a map of several."""

    def _frames(self, rng, count):
        while count:
            n = rng.randint(1, 5)
            s = _rand_matrix(rng, n)
            try:
                s_inv = inverse(s)
            except Singular:
                continue
            count -= 1
            yield n, s, s_inv, UnitFrame(s, s_inv)

    def test_coordinates_are_entries_of_the_conjugate(self):
        rng = random.Random(83)
        for n, s, s_inv, frame in self._frames(rng, 60):
            m = _rand_matrix(rng, n)
            conj = s_inv * m * s
            # m is image 1 of three, or the one image of the 1 x 1 map
            t = 1 if n > 1 else 0
            phi = _map_of([_rand_matrix(rng, n)] * t + [m, _rand_matrix(rng, n)])
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert frame.coordinate(phi, t, a, b) == conj.at(a, b)

    def test_images_and_matches_against_dense_products(self):
        rng = random.Random(89)
        for n, s, s_inv, frame in self._frames(rng, 120):

            def summed(terms):
                total = DenseMatrix.zeros(n, n)
                for g, a, b in terms:
                    total = total + (s * DenseMatrix.unit(n, a, b) * s_inv).scale(g)
                return total

            terms = [
                (_rand_scalar(rng), rng.randint(1, n), rng.randint(1, n))
                for _ in range(rng.randint(0, 3))
            ]
            dense = summed(terms)
            # block_row gives the images as a map built from them holds them
            phi = _map_of([dense])
            assert frame.block_row([terms]) == (phi.d, phi.nonzeros[:1])
            if n > 1:
                one = [(_rand_scalar(rng), rng.randint(1, n), rng.randint(1, n))]
                pair = _map_of([summed(one), dense])
                assert frame.block_row([one, terms]) == (pair.d, pair.nonzeros[:2])
                other = _rand_matrix(rng, n)
                phi = _map_of([other, dense])
                assert frame.matches(phi, 1, terms)
                assert frame.matches(phi, 0, terms) == (other == dense)
            else:
                assert frame.matches(phi, 0, terms)
            if not dense.is_zero():
                # one entry off, inside or outside the terms' support
                i, j = rng.randint(1, n), rng.randint(1, n)
                off = _map_of([dense + DenseMatrix.unit(n, i, j)])
                assert not frame.matches(off, 0, terms)
            # cancelling terms sum to zero
            g, a, b = _rand_scalar(rng), rng.randint(1, n), rng.randint(1, n)
            zero = _map_of([DenseMatrix.zeros(n, n)])
            assert frame.matches(zero, 0, [(g, a, b), (-g, a, b)])

    def test_shapes(self):
        frame = UnitFrame(DenseMatrix.identity(2), DenseMatrix.identity(2))
        with pytest.raises(DimensionMismatch):
            UnitFrame(DenseMatrix.identity(2), DenseMatrix.identity(3))
        with pytest.raises(DimensionMismatch):
            frame.matches(_map_of([DenseMatrix.identity(3)]), 0, [(1, 1, 1)])
        with pytest.raises(DimensionMismatch):
            frame.coordinate(_map_of([DenseMatrix.zeros(3, 3)]), 0, 1, 1)
