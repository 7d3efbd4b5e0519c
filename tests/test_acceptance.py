"""End-to-end acceptance checks for the package.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints one
pass or fail line for each. Expected values come from the independent
oracles in oracles.py or from hand-checkable fixtures, never from the code
under test.
"""

import random
import time

from smalg.diag import simultaneous_diagonalize_in_sma
from smalg.exactnum import ONE, DenseMatrix, GaussianRational, inverse, rank
from smalg.jordan import (
    CanonicalJordanForm,
    LinearMapOnSMA,
    algebra_embeds_into,
    all_algebra_automorphisms_inner,
    apply,
    classify_jordan,
    extends_to_full_jordan_automorphism,
    jordan_embeds_into,
)
from smalg.quasiorder import from_edges
from smalg.rankpres import (
    bounded_rank_preserver_check,
    certify_rank_one_preserver,
    classify_rank_preserver,
    induced_linear_map,
    is_rank_one_preserver_sampled,
    nontrivial_g_rank_witness,
    rank_identity_check,
)
from smalg.sampling import random_transitive_map, sample_rank_one_in_sma
from smalg.transmap import (
    all_transitive_trivial,
    apply_induced,
    triviality_witness,
    validate,
    walk_product,
)

from fixtures import (
    bordered_map_images,
    bowtie,
    bowtie_weights,
    census12,
    chain10,
    chain10_matrix,
    chain10_weights,
    corner,
    corner_map_images,
    delta,
    linear_map,
    random_class_union,
    random_invertible_in_sma,
    random_quasiorder,
    random_supported_matrix,
    upper_chain,
)
from oracles import (
    is_jordan_homomorphism,
    oracle_all_transitive_trivial_small,
    oracle_connected_classes,
    oracle_increasing_perms,
    oracle_jordan_embeddings_by_union,
    oracle_mutual_classes,
    oracle_rank_of,
    oracle_relation_automorphisms,
    oracle_unit_images,
    rectangle_minor_condition,
)


def test_criterion_01_chain_fixture_rank_four_to_five_with_witness():
    rho = chain10()
    g = validate(rho, chain10_weights())
    assert g.value(9, 10) == GaussianRational(2)
    a = chain10_matrix()
    assert rank(a) == 4
    assert oracle_rank_of(a) == 4  # [DERIVED]
    ga = apply_induced(g, a)
    assert rank(ga) == 5
    assert oracle_rank_of(ga) == 5  # [DERIVED]
    w, ranks = nontrivial_g_rank_witness(g)
    assert all(p in rho for p in w.support())
    r_before, r_after = rank(w), rank(apply_induced(g, w))
    assert (r_before, r_after) == ranks == (4, 5)
    assert oracle_rank_of(w) == 4
    assert oracle_rank_of(apply_induced(g, w)) == 5


def test_criterion_02_bowtie_minor_rank_jump_and_neither_verdict():
    rho = bowtie()
    g = validate(rho, bowtie_weights())
    check = rectangle_minor_condition(g)
    assert not check.ok
    assert check.minor == GaussianRational(-1)
    indicator = (
        DenseMatrix.unit(4, 1, 3)
        + DenseMatrix.unit(4, 1, 4)
        + DenseMatrix.unit(4, 2, 3)
        + DenseMatrix.unit(4, 2, 4)
    )
    assert rank(indicator) == 1
    image = apply_induced(g, indicator)
    assert rank(image) == 2
    assert oracle_rank_of(image) == 2  # [DERIVED]
    assert not all_transitive_trivial(rho)
    verdict = certify_rank_one_preserver(induced_linear_map(g))
    assert verdict.kind == "Neither"
    assert rank(verdict.witness.matrix) == 1
    assert verdict.witness.ranks == (1, 2)


def test_criterion_03_corner_map_singular_unit_yet_rank_one_preserving():
    rho = corner()
    phi = linear_map(rho, corner_map_images())
    unit_image = apply(phi, DenseMatrix.identity(3))
    assert unit_image == DenseMatrix.diag([0, 1, 2])
    assert rank(unit_image) == 2
    assert oracle_rank_of(unit_image) == 2  # [DERIVED]
    samples = sample_rank_one_in_sma(rho, 200, seed=3)
    assert len(samples) == 200
    assert all(rank(x) == 1 for x in samples)
    ok, witness = is_rank_one_preserver_sampled(phi, samples)
    assert ok and witness is None
    jordan_ok, pair = is_jordan_homomorphism(phi)
    assert not jordan_ok and pair is not None


def test_criterion_04_bordered_diagonal_bounded_true_classify_neither():
    rho = delta(5)
    phi = linear_map(rho, bordered_map_images(5))
    for bound in range(1, 5):
        ok, witness = bounded_rank_preserver_check(phi, bound, count=30, seed=4)
        assert ok and witness is None
    verdict = classify_rank_preserver(phi)
    assert verdict.kind == "Neither"
    assert "unitality" in verdict.note
    assert verdict.witness.matrix == DenseMatrix.identity(5)
    assert rank(apply(phi, DenseMatrix.identity(5))) == 4


def _oracle_map(form) -> LinearMapOnSMA:
    """The map of a canonical form, each image built by the oracle's two
    dense products."""
    grids = oracle_unit_images(form, inverse(form.s))
    return LinearMapOnSMA(
        form.rho,
        {
            p: DenseMatrix.from_rows([[GaussianRational(*v) for v in row] for row in grid])
            for p, grid in grids.items()
        },
    )


def test_criterion_05_two_hundred_classify_synthesize_round_trips():
    # the maps are built by the oracle, not synthesized, so that the
    # classification here is the only run of the ladder; the classified
    # form is rebuilt by the oracle too
    rng = random.Random(20260823)
    for _ in range(200):
        rho = random_quasiorder(rng, 2, 6)
        s = random_invertible_in_sma(rho, rng)
        u = random_class_union(rho, rng)
        g = random_transitive_map(rho, seed=rng.randrange(10**9))
        phi = _oracle_map(CanonicalJordanForm(s=s, u=u, g=g))
        form = classify_jordan(phi)
        assert _oracle_map(form) == phi
        assert form.reconstruct() == phi


def test_criterion_06_thousand_rank_identity_trials():
    rng = random.Random(66)
    for trial in range(1000):
        rho = random_quasiorder(rng, 1, 8)
        u = random_class_union(rho, rng)
        x = random_supported_matrix(rho, rng)
        assert rank_identity_check(rho, u, x)
        if trial % 100 == 0:  # [DERIVED] independent rank agreement
            n = rho.n
            p = DenseMatrix.diag([1 if i in u else 0 for i in range(1, n + 1)])
            q = DenseMatrix.identity(n) - p
            mixed = p * x + q * x.transpose()
            assert oracle_rank_of(x) == oracle_rank_of(mixed) == rank(x)


def test_criterion_07_hundred_diagonalization_pipelines_under_ten_seconds():
    rng = random.Random(7)
    started = time.monotonic()
    for _ in range(100):
        rho = random_quasiorder(rng, 2, 6)
        n = rho.n
        t = random_invertible_in_sma(rho, rng)
        t_inv = inverse(t)
        family = [
            t * DenseMatrix.diag([rng.randint(-2, 2) for _ in range(n)]) * t_inv
            for _ in range(rng.randint(1, 3))
        ]
        s, s_inv, diagonals = simultaneous_diagonalize_in_sma(rho, family)
        assert s_inv == inverse(s)
        assert all(p in rho for p in s.support())
        for member, diagonal in zip(family, diagonals):
            d = s_inv * member * s
            assert d.is_diagonal() and d.diagonal() == diagonal
    assert time.monotonic() - started < 10.0


def test_criterion_08_hundred_transitive_maps_triviality_matches_rank():
    rng = random.Random(88)
    seen = {True: 0, False: 0}
    for _ in range(100):
        n = rng.randint(4, 7)
        a, b, c, d = rng.sample(range(1, n + 1), 4)
        extra = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.08
        ]
        rho = from_edges(n, [(a, c), (a, d), (b, c), (b, d)] + extra)
        g = random_transitive_map(rho, seed=rng.randrange(10**6))
        cert = triviality_witness(g)
        samples = [random_supported_matrix(rho, rng) for _ in range(12)]
        if not cert.is_trivial:
            witness, ranks = nontrivial_g_rank_witness(g)
            assert all(p in rho for p in witness.support())
            r_before = rank(witness)
            r_after = rank(apply_induced(g, witness))
            assert r_before != r_after
            assert ranks == (r_before, r_after)
            assert oracle_rank_of(witness) == r_before  # [DERIVED]
            assert oracle_rank_of(apply_induced(g, witness)) == r_after
            assert walk_product(g, cert.walk) == cert.product
            assert cert.product != ONE
            samples.append(witness)
        else:
            s = cert.separator
            for (i, j) in rho.strict_pairs():
                assert g.value(i, j) == s[i] / s[j]
        preserved = all(
            rank(apply_induced(g, x)) == rank(x) for x in samples
        )
        assert preserved == cert.is_trivial
        seen[cert.is_trivial] += 1
    assert seen[True] >= 15 and seen[False] >= 15


def test_criterion_09_embedding_census_against_brute_force():
    rels = census12()
    assert len(rels) == 12
    for _, r1 in rels:
        ones = validate(r1, {p: ONE for p in r1.strict_pairs()})
        for _, r2 in rels:
            got = jordan_embeds_into(r1, r2)
            brute = oracle_jordan_embeddings_by_union(
                4, set(r1.pairs()), set(r2.pairs())
            )
            assert (got is not None) == bool(brute)
            direct = algebra_embeds_into(r1, r2)
            perms = oracle_increasing_perms(4, set(r1.pairs()), set(r2.pairs()))
            assert (direct is not None) == bool(perms)
            if direct is not None:
                assert all(
                    (direct[i - 1], direct[j - 1]) in r2 for (i, j) in r1.pairs()
                )
            if got is not None:
                u, pi = got
                form = CanonicalJordanForm(
                    s=DenseMatrix.identity(4), u=u, g=ones, pi=pi
                )
                phi = form.reconstruct()
                jordan_ok, _ = is_jordan_homomorphism(phi)
                assert jordan_ok
                supports = [frozenset(m.support()) for m in phi.unit_images().values()]
                assert len(set(supports)) == len(supports)
                for image in phi.unit_images().values():
                    assert all(p in r2 for p in image.support())


def test_criterion_10_inner_and_extension_predicates_vs_enumeration():
    def oracle_inner(rel):
        pairs = set(rel.pairs())
        classes = oracle_mutual_classes(rel.n, pairs)
        fixing = all(
            frozenset(images[i - 1] for i in blk) == blk
            for images in oracle_relation_automorphisms(rel.n, pairs)
            for blk in classes
        )
        return fixing and oracle_all_transitive_trivial_small(rel.n, pairs)

    def oracle_extends(rel):
        pairs = set(rel.pairs())
        big = [b for b in oracle_connected_classes(rel.n, pairs) if len(b) >= 2]
        return len(big) <= 1 and oracle_all_transitive_trivial_small(
            rel.n, pairs
        )

    for n in (2, 3, 4):
        chain = upper_chain(n)
        assert all_algebra_automorphisms_inner(chain)
        assert extends_to_full_jordan_automorphism(chain)
        assert oracle_inner(chain) and oracle_extends(chain)
        diagonal = delta(n)
        assert not all_algebra_automorphisms_inner(diagonal)
        assert not oracle_inner(diagonal)
    assert not extends_to_full_jordan_automorphism(bowtie())
    assert not oracle_extends(bowtie())


def test_criterion_11_half_dimension_rank_bound_still_detects():
    g = validate(chain10(), chain10_weights())
    phi = induced_linear_map(g)
    bound = chain10().n // 2 - 1
    assert bound == 4
    ok, (witness, ranks) = bounded_rank_preserver_check(phi, bound)
    assert not ok
    r = rank(witness)
    assert ranks == (r, rank(apply(phi, witness)))
    assert r <= bound
    assert rank(apply(phi, witness)) != r
    assert oracle_rank_of(witness) == r  # [DERIVED]
