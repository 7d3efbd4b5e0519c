"""Tests for rank and rank-one preserver decisions and their certificates."""

import random

import pytest

import smalg.exactnum
import smalg.rankpres
from smalg.errors import (
    GIsTrivial,
    InternalInconsistency,
    NotUnital,
    SupportViolation,
)
from smalg.exactnum import DenseMatrix, inverse, rank, scalar
from smalg.jordan import LinearMapOnSMA, apply, classify_jordan, synthesize_jordan
from smalg.quasiorder import NotClassUnion, approx_classes, from_edges
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
    apply_induced,
    shortest_unbalanced_cycle,
    triviality_witness,
    validate,
)

from fixtures import (
    bordered_map_images,
    bowtie,
    bowtie_weights,
    chain10,
    chain10_matrix,
    chain10_weights,
    corner,
    corner_map_images,
    delta,
    full,
    linear_map,
    random_class_union,
    random_invertible_in_sma,
    random_quasiorder,
    random_supported_matrix,
    separator_map,
    upper_chain,
)
from oracles import (
    identity_map,
    oracle_balanced_below,
    oracle_rank_of,
    oracle_unbalanced_cycle,
    rectangle_minor_condition,
    rectangles,
    transpose_map,
)


def bowtie_g():
    return validate(bowtie(), bowtie_weights())


def chain10_g():
    return validate(chain10(), chain10_weights())


# ---------------------------------------------------------------------------
# rank-one sampling


def test_sampler_delta_only_diagonal_units():
    for s in sample_rank_one_in_sma(delta(4), 100, seed=2):
        support = sorted(s.support())
        assert len(support) == 1
        i, j = support[0]
        assert i == j


def test_sampler_bowtie_hits_full_rectangle():
    want = {(1, 3), (1, 4), (2, 3), (2, 4)}
    samples = sample_rank_one_in_sma(bowtie(), 400, seed=1)
    assert any(set(s.support()) == want for s in samples)


def test_sampler_t2_row_pattern():
    target = DenseMatrix.unit(2, 1, 1) + DenseMatrix.unit(2, 1, 2)
    samples = sample_rank_one_in_sma(upper_chain(2), 400, seed=1)
    assert any(s == target for s in samples)


def test_sampler_rank_and_support_property():
    rng = random.Random(41)
    for _ in range(10):
        rho = random_quasiorder(rng, 2, 6)
        for s in sample_rank_one_in_sma(rho, 30, seed=rng.randrange(10**6)):
            assert rank(s) == 1
            for pair in s.support():
                assert pair in rho


def test_sampled_preserver_identity():
    rho = full(3)
    samples = sample_rank_one_in_sma(rho, 100, seed=4)
    ok, witness = is_rank_one_preserver_sampled(identity_map(rho), samples)
    assert ok and witness is None


def test_sampled_preserver_bowtie_counterexample():
    g = bowtie_g()
    phi = induced_linear_map(g)
    samples = sample_rank_one_in_sma(g.rho, 300, seed=5)
    ok, (witness, ranks) = is_rank_one_preserver_sampled(phi, samples)
    assert not ok
    # [DERIVED] the scaled image of any witness stays in a 2x4 strip
    assert rank(apply(phi, witness)) == 2
    assert ranks == (1, 2)


def test_sampled_preserver_corner_map():
    # The corner map is not unital, yet it does preserve rank one.
    rho = corner()
    phi = linear_map(rho, corner_map_images())
    samples = sample_rank_one_in_sma(rho, 200, seed=3)
    ok, _ = is_rank_one_preserver_sampled(phi, samples)
    assert ok


# ---------------------------------------------------------------------------
# certified rank-one decision


def test_certify_identity_rank_one():
    rho = full(3)
    v = certify_rank_one_preserver(identity_map(rho))
    assert v.kind == "RankOnePreserver"
    assert v.form.s == DenseMatrix.identity(3)
    assert v.form.reconstruct() == identity_map(rho)


def test_certify_transpose_rank_one():
    v = certify_rank_one_preserver(transpose_map(bowtie()))
    assert v.kind == "RankOnePreserver"
    assert v.form.u == frozenset()


def test_certify_bowtie_neither():
    v = certify_rank_one_preserver(induced_linear_map(bowtie_g()))
    assert v.kind == "Neither"
    # [DERIVED] the violating rectangle indicator is the 2x2 all-ones block
    assert set(v.witness.matrix.support()) == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert v.witness.ranks == (1, 2)


def test_certify_chain10_rank_one_but_not_rank():
    """A relation with no rectangles admits no rank-one obstruction, yet
    the same weight map still fails full rank preservation."""
    assert list(rectangles(chain10())) == []
    phi = induced_linear_map(chain10_g())
    assert certify_rank_one_preserver(phi).kind == "RankOnePreserver"
    assert classify_rank_preserver(phi).kind == "Neither"


def test_certify_not_unital():
    phi = linear_map(corner(), corner_map_images())
    with pytest.raises(NotUnital):
        certify_rank_one_preserver(phi)


def unital_non_jordan_on_full2():
    """Unital, nonvanishing images, but collapses both off-diagonal units
    onto E_12; fails the Jordan identity at ((1,2),(2,1))."""
    return LinearMapOnSMA(
        full(2),
        {
            (1, 1): DenseMatrix.unit(2, 1, 1),
            (2, 2): DenseMatrix.unit(2, 2, 2),
            (1, 2): DenseMatrix.unit(2, 1, 2),
            (2, 1): DenseMatrix.unit(2, 1, 2),
        },
    )


def test_certify_unital_non_jordan_sampled():
    v = certify_rank_one_preserver(unital_non_jordan_on_full2())
    assert v.kind == "Neither"
    assert rank(v.witness.matrix) == 1
    assert v.witness.ranks[1] != 1


def test_certify_vanishing_unit_image_propagates():
    # the unit is the witness: rank one, its image rank zero
    rho = upper_chain(2)
    phi = LinearMapOnSMA(
        rho,
        {
            (1, 1): DenseMatrix.unit(2, 1, 1),
            (2, 2): DenseMatrix.unit(2, 2, 2),
            (1, 2): DenseMatrix.zeros(2, 2),
        },
    )
    v = certify_rank_one_preserver(phi)
    assert v.kind == "Neither" and v.form is None
    assert v.witness == (DenseMatrix.unit(2, 1, 2), (1, 0))
    assert v.note == "the unit image at (1, 2) vanishes"


# ---------------------------------------------------------------------------
# rank witness construction


def test_witness_chain10_exact():
    a, ranks = nontrivial_g_rank_witness(chain10_g())
    assert a == chain10_matrix()
    assert ranks == (4, 5)
    assert rank(a) == 4
    assert rank(apply_induced(chain10_g(), a)) == 5


def test_witness_bowtie():
    g = bowtie_g()
    a, ranks = nontrivial_g_rank_witness(g)
    assert set(a.support()) == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert ranks == (1, 2)
    assert rank(a) == 1
    assert rank(apply_induced(g, a)) == 2


def test_witness_total_order_trivial():
    rho = upper_chain(5)
    g = random_transitive_map(rho, seed=9)
    with pytest.raises(GIsTrivial):
        nontrivial_g_rank_witness(g)


def test_witness_nested_recursion():
    """An unbalanced rectangle on vertices 1-4, next to a separate pair
    (5,6), gives the rectangle's indicator as the witness."""
    rho = from_edges(6, [(1, 3), (2, 3), (1, 4), (2, 4), (5, 6)])
    weights = {p: 1 for p in rho.strict_pairs()}
    weights[(2, 4)] = 3
    g = validate(rho, weights)
    a = nontrivial_g_rank_witness(g).matrix
    assert set(a.support()) == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert rank(apply_induced(g, a)) == 2


def test_witness_out_neighbor_route():
    """Sources 3,4 over sinks 1,2: the witness is the rectangle with rows
    3,4 and columns 1,2."""
    rho = from_edges(4, [(3, 1), (3, 2), (4, 1), (4, 2)])
    weights = {p: 1 for p in rho.strict_pairs()}
    weights[(4, 2)] = 2
    g = validate(rho, weights)
    a = nontrivial_g_rank_witness(g).matrix
    assert set(a.support()) == {(3, 1), (3, 2), (4, 1), (4, 2)}
    assert rank(a) == 1
    assert rank(apply_induced(g, a)) == 2


def test_witness_random_property():
    """Random relations seeded with an alternating four-cycle so that
    nontrivial weight maps actually occur."""
    rng = random.Random(23)
    seen_nontrivial = 0
    for _ in range(40):
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
        if triviality_witness(g).is_trivial:
            with pytest.raises(GIsTrivial):
                nontrivial_g_rank_witness(g)
            continue
        seen_nontrivial += 1
        w, ranks = nontrivial_g_rank_witness(g)
        for pair in w.support():
            assert pair in rho
        assert rank(apply_induced(g, w)) != rank(w)
        assert ranks == (rank(w), rank(apply_induced(g, w)))
    assert seen_nontrivial >= 10


def random_weight_map(rng):
    """A weight map on at most 6 points. Half the time a sampled transitive
    map on a random quasi-order; else three sources over three sinks around
    a hexagon, each remaining source-sink pair added with probability 0.3
    (no composable pairs, so any weights are transitive), with separator
    weights s(i)/s(j) times a factor on one random pair."""
    if rng.random() < 0.5:
        return random_transitive_map(
            random_quasiorder(rng, 3, 6, density=0.4), seed=rng.randrange(10**6)
        )
    a, b, c, x, y, z = rng.sample(range(1, 7), 6)
    pairs = [(a, x), (b, x), (b, y), (c, y), (c, z), (a, z)]
    pairs += [p for p in [(a, y), (b, z), (c, x)] if rng.random() < 0.3]
    s = {i: scalar(rng.choice([1, -1, 2, "1/2", "1i"])) for i in range(1, 7)}
    weights = {(i, j): s[i] / s[j] for (i, j) in pairs}
    p = rng.choice(pairs)
    weights[p] = weights[p] * scalar(rng.choice([1, 2, -1, "1i"]))
    return validate(from_edges(6, pairs, close=False), weights)


def test_cycle_witness_has_least_rank():
    """The returned cycle is an unbalanced cycle of length 2m, g is a_i b_j
    on every R x C with |R| = |C| <= m - 1 (so no shorter unbalanced cycle
    exists), and the cycle matrix has ranks m - 1 -> m."""
    rng = random.Random(71)
    lengths = {}
    for _ in range(60):
        g = random_weight_map(rng)
        cycle = shortest_unbalanced_cycle(g)
        if cycle is None:
            assert triviality_witness(g).is_trivial
            assert oracle_balanced_below(g, g.rho.n)
            continue
        assert oracle_unbalanced_cycle(g, cycle)
        m = len(cycle) // 2
        assert oracle_balanced_below(g, m - 1)
        assert not oracle_balanced_below(g, m)
        w, ranks = nontrivial_g_rank_witness(g)
        assert ranks == (m - 1, m)
        assert set(w.support()) == set(cycle)
        assert oracle_rank_of(w) == m - 1
        assert oracle_rank_of(apply_induced(g, w)) == m
        lengths[m] = lengths.get(m, 0) + 1
    assert lengths.get(2, 0) >= 5 and lengths.get(3, 0) >= 3


def test_bounded_check_is_exact_on_jordan_maps(monkeypatch):
    """For a Jordan map with a nontrivial weight map, the bounded check
    fails exactly from the witness rank on, agrees with the rank-one
    certificate at rank one, and draws no sample."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("a verdict on a Jordan map sampled")

    monkeypatch.setattr(smalg.rankpres, "sample_rank_one_in_sma", no_sampling)
    monkeypatch.setattr(smalg.rankpres, "bounded_rank_samples", no_sampling)
    rng = random.Random(73)
    checked = 0
    while checked < 12:
        g = random_weight_map(rng)
        if triviality_witness(g).is_trivial:
            continue
        checked += 1
        rho = g.rho
        r = rank(nontrivial_g_rank_witness(g).matrix)
        s = random_invertible_in_sma(rho, rng)
        u = random_class_union(rho, rng)
        for phi in (induced_linear_map(g), synthesize_jordan(rho, s, u, g)):
            for k in range(1, rho.n + 1):
                ok, witness = bounded_rank_preserver_check(phi, k)
                assert ok == (k < r)
                if not ok:
                    x, ranks = witness
                    assert rank(x) == r
                    assert rank(apply(phi, x)) != r
                    assert ranks == (r, rank(apply(phi, x)))
            rank_one = certify_rank_one_preserver(phi).kind == "RankOnePreserver"
            assert bounded_rank_preserver_check(phi, 1)[0] == rank_one


# ---------------------------------------------------------------------------
# full rank-preserver classification


def test_classify_identity():
    v = classify_rank_preserver(identity_map(full(3)))
    assert v.kind == "RankPreserver"
    assert v.form.s == DenseMatrix.identity(3)
    assert v.form.u == frozenset({1, 2, 3})


def test_classify_transpose():
    v = classify_rank_preserver(transpose_map(full(3)))
    assert v.kind == "RankPreserver"
    assert v.form.s == DenseMatrix.identity(3)
    assert v.form.u == frozenset()


def test_classify_bowtie_neither():
    phi = induced_linear_map(bowtie_g())
    v = classify_rank_preserver(phi)
    assert v.kind == "Neither"
    assert v.witness.ranks == (1, 2)
    assert rank(apply(phi, v.witness.matrix)) == 2


def test_classify_chain10_neither():
    phi = induced_linear_map(chain10_g())
    v = classify_rank_preserver(phi)
    assert v.kind == "Neither"
    assert v.witness.matrix == chain10_matrix()
    assert v.witness.ranks == (4, 5)


def test_classify_corner_fails_unitality():
    phi = linear_map(corner(), corner_map_images())
    v = classify_rank_preserver(phi)
    assert v.kind == "Neither"
    assert v.witness.matrix == DenseMatrix.identity(3)
    assert v.witness.ranks == (3, 2)
    assert "unitality" in v.note


def test_classify_takes_the_rank_of_the_identity_image_only_when_singular(monkeypatch):
    """phi(I) is eliminated once: inverted, and ranked only for the (n, r)
    witness when it is singular."""
    ranked = []
    real_rank = smalg.rankpres.rank

    def counting(m):
        ranked.append(m)
        return real_rank(m)

    monkeypatch.setattr(smalg.rankpres, "rank", counting)
    assert classify_rank_preserver(transpose_map(full(3))).kind == "RankPreserver"
    assert ranked == []
    v = classify_rank_preserver(linear_map(corner(), corner_map_images()))
    assert v.witness.ranks == (3, 2)
    assert len(ranked) == 1


def test_classify_unital_non_jordan():
    v = classify_rank_preserver(unital_non_jordan_on_full2())
    assert v.kind == "Neither"
    assert "not Jordan" in v.note
    assert rank(v.witness.matrix) == 1
    assert v.witness.ranks[1] != 1


def test_classify_vanishing_unit():
    rho = upper_chain(2)
    phi = LinearMapOnSMA(
        rho,
        {
            (1, 1): DenseMatrix.unit(2, 1, 1),
            (2, 2): DenseMatrix.unit(2, 2, 2),
            (1, 2): DenseMatrix.zeros(2, 2),
        },
    )
    v = classify_rank_preserver(phi)
    assert v.kind == "Neither"
    assert v.witness.ranks == (1, 0)


def test_classify_synthesized_trivial_maps():
    """Maps built as T(PX + (I-P)X^t)T^-1 with a separator weight always
    classify as rank preservers, and the certificate reconstructs the map
    with constant weight one."""
    rng = random.Random(31)
    for _ in range(15):
        rho = random_quasiorder(rng, 2, 5, density=0.4)
        t = random_invertible_in_sma(rho, rng)
        u = random_class_union(rho, rng)
        s_vals = {i: rng.choice([1, 2, 3, "1/2"]) for i in range(1, rho.n + 1)}
        g = separator_map(rho, s_vals)
        phi = synthesize_jordan(rho, t, u, g)
        v = classify_rank_preserver(phi)
        assert v.kind == "RankPreserver"
        # built directly, in the order validate keeps
        ones = validate(rho, dict.fromkeys(rho.strict_pairs(), 1))
        assert v.form.g.items() == ones.items()
        assert v.form.reconstruct() == phi
        assert v.form.s_inv == inverse(v.form.s)
        ok, _ = bounded_rank_preserver_check(phi, rho.n, count=6, seed=rng.randrange(10**6))
        assert ok


def test_trivial_iff_rank_preserver():
    """Triviality of the weight map decides rank preservation of the
    induced scaling, in both directions."""
    rng = random.Random(37)
    seen = {"RankPreserver": 0, "Neither": 0}
    for _ in range(40):
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
        phi = induced_linear_map(g)
        verdict = classify_rank_preserver(phi)
        seen[verdict.kind] += 1
        if triviality_witness(g).is_trivial:
            assert verdict.kind == "RankPreserver"
        else:
            assert verdict.kind == "Neither"
            r_before, r_after = verdict.witness.ranks
            assert r_before != r_after
            assert rank(verdict.witness.matrix) == r_before
            assert rank(apply(phi, verdict.witness.matrix)) == r_after
    assert seen["RankPreserver"] >= 5 and seen["Neither"] >= 5


def test_synthesized_jordan_rank_one_matches_minors():
    """For Jordan maps the certified rank-one verdict coincides with the
    rectangle minor criterion on the recovered weights."""
    rng = random.Random(43)
    trials = []
    for _ in range(12):
        rho = random_quasiorder(rng, 3, 6, density=0.5)
        t = random_invertible_in_sma(rho, rng)
        u = random_class_union(rho, rng)
        g = random_transitive_map(rho, seed=rng.randrange(10**6))
        trials.append(synthesize_jordan(rho, t, u, g))
    trials.append(induced_linear_map(bowtie_g()))
    for phi in trials:
        v = certify_rank_one_preserver(phi)
        if v.kind == "RankOnePreserver":
            assert rectangle_minor_condition(v.form.g).ok
        else:
            assert v.witness.ranks[0] == 1
            assert rank(apply(phi, v.witness.matrix)) == v.witness.ranks[1] != 1


def test_small_blocks_never_obstruct():
    """Connectivity blocks of size at most three force both trivial
    weights and vanishing rectangle minors."""
    from smalg.transmap import all_transitive_trivial

    rng = random.Random(47)
    checked = 0
    for _ in range(40):
        rho = random_quasiorder(rng, 2, 6, density=0.25)
        if max(len(b) for b in approx_classes(rho).blocks) > 3:
            continue
        checked += 1
        assert all_transitive_trivial(rho)
        g = random_transitive_map(rho, seed=rng.randrange(10**6))
        assert rectangle_minor_condition(g).ok
    assert checked >= 10
    assert not rectangle_minor_condition(bowtie_g()).ok


# ---------------------------------------------------------------------------
# rank identity


def test_rank_identity_u_all():
    rng = random.Random(53)
    rho = bowtie()
    x = random_supported_matrix(rho, rng)
    assert rank_identity_check(rho, frozenset(range(1, 5)), x)


def test_rank_identity_u_empty():
    rng = random.Random(59)
    rho = bowtie()
    x = random_supported_matrix(rho, rng)
    assert rank_identity_check(rho, frozenset(), x)


def test_rank_identity_disjoint_rows():
    rho = from_edges(5, [(1, 2), (4, 5)])
    x = DenseMatrix.unit(5, 1, 2) + DenseMatrix.unit(5, 4, 5)
    assert rank_identity_check(rho, frozenset({1, 2}), x)


def test_rank_identity_not_class_union():
    rho = from_edges(5, [(1, 2), (4, 5)])
    with pytest.raises(NotClassUnion):
        rank_identity_check(rho, frozenset({1}), DenseMatrix.zeros(5, 5))


def test_rank_identity_support_violation():
    rho = upper_chain(3)
    with pytest.raises(SupportViolation) as err:
        rank_identity_check(rho, frozenset(), DenseMatrix.unit(3, 2, 1))
    assert err.value.pair == (2, 1)


def test_rank_identity_random_property():
    rng = random.Random(61)
    for _ in range(200):
        rho = random_quasiorder(rng, 2, 6, density=0.4)
        u = random_class_union(rho, rng)
        x = random_supported_matrix(rho, rng)
        assert rank_identity_check(rho, u, x)


# ---------------------------------------------------------------------------
# bounded rank preservation


def test_bounded_identity():
    ok, witness = bounded_rank_preserver_check(identity_map(full(4)), 4)
    assert ok and witness is None


def test_bounded_chain10_catches_at_four():
    """The half-dimension bound suffices: the scaled chain map fails at
    rank four without any rank-five test."""
    phi = induced_linear_map(chain10_g())
    ok, (witness, ranks) = bounded_rank_preserver_check(phi, 4)
    assert not ok
    assert witness == chain10_matrix()
    assert rank(witness) == 4
    assert ranks == (4, 5)


def test_bounded_chain10_passes_below_witness_rank():
    phi = induced_linear_map(chain10_g())
    ok, _ = bounded_rank_preserver_check(phi, 3, count=30, seed=11)
    assert ok


def test_bounded_bowtie_rank_one():
    ok, (witness, ranks) = bounded_rank_preserver_check(induced_linear_map(bowtie_g()), 1)
    assert not ok
    assert rank(witness) == 1
    assert ranks == (1, 2)


def test_bounded_bordered_map():
    """The bordered construction preserves every singular rank while its
    image of the identity is singular; only unitality convicts it."""
    rho = delta(5)
    phi = linear_map(rho, bordered_map_images(5))
    ok, _ = bounded_rank_preserver_check(phi, 4, count=30, seed=13)
    assert ok
    v = classify_rank_preserver(phi)
    assert v.kind == "Neither"
    assert v.witness.ranks == (5, 4)
    assert "unitality" in v.note


def test_bounded_internal_fault_is_not_a_verdict(monkeypatch):
    """A broken witness construction must surface, not fall through to
    sampling (which would still find a rank jump on the bowtie)."""

    def broken(cycle, n, image):
        raise InternalInconsistency("injected fault")

    monkeypatch.setattr(smalg.rankpres, "_cycle_matrix", broken)
    with pytest.raises(InternalInconsistency, match="injected fault"):
        bounded_rank_preserver_check(induced_linear_map(bowtie_g()), 1)


def test_bounded_inverts_the_identity_image_once(monkeypatch):
    rho = upper_chain(6)
    rng = random.Random(5)
    phi = synthesize_jordan(
        rho,
        random_invertible_in_sma(rho, rng),
        random_class_union(rho, rng),
        random_transitive_map(rho, seed=5),
    )
    calls = []
    real_inverse = smalg.rankpres.inverse

    def counting(m):
        calls.append(m)
        return real_inverse(m)

    monkeypatch.setattr(smalg.rankpres, "inverse", counting)
    assert bounded_rank_preserver_check(phi, 1, count=2) == (True, None)
    assert len(calls) == 1


def test_normalization_is_one_product_with_the_row_of_images(monkeypatch):
    """phi(I)^-1 phi is one call of the product kernel over all the unit
    images side by side, not one product per unit, and gives each image
    left-multiplied by phi(I)^-1."""
    rng = random.Random(41)
    rho = upper_chain(5)
    s_vals = {i: rng.choice([1, 2, 3, "1/2"]) for i in range(1, 6)}
    phi = synthesize_jordan(
        rho, random_invertible_in_sma(rho, rng), frozenset(), separator_map(rho, s_vals)
    )
    a = random_invertible_in_sma(full(5), rng)
    scaled = LinearMapOnSMA(rho, {p: a * m for p, m in phi.unit_images().items()})
    calls, seen = [], []
    real_rows_times = smalg.exactnum._rows_times
    real_classify = smalg.rankpres.classify_jordan

    def counting(*args):
        calls.append(args)
        return real_rows_times(*args)

    def spy(psi):
        seen.append((len(calls), psi))
        return real_classify(psi)

    monkeypatch.setattr(smalg.exactnum, "_rows_times", counting)
    monkeypatch.setattr(smalg.rankpres, "classify_jordan", spy)
    assert classify_rank_preserver(scaled).kind == "RankPreserver"
    [(count, psi)] = seen
    assert count == 1
    assert psi == phi


def test_unital_map_is_its_own_normalization(monkeypatch):
    """A map with phi(I) = I is classified as it stands: no product with
    phi(I)^-1 runs before classify_jordan."""
    rng = random.Random(43)
    rho = upper_chain(5)
    s_vals = {i: rng.choice([1, 2, 3, "1/2"]) for i in range(1, 6)}
    phi = synthesize_jordan(
        rho, random_invertible_in_sma(rho, rng), frozenset(), separator_map(rho, s_vals)
    )
    assert apply(phi, DenseMatrix.identity(5)) == DenseMatrix.identity(5)
    calls, seen = [], []
    real_rows_times = smalg.exactnum._rows_times
    real_classify = smalg.rankpres.classify_jordan

    def counting(*args):
        calls.append(args)
        return real_rows_times(*args)

    def spy(psi):
        seen.append((len(calls), psi))
        return real_classify(psi)

    monkeypatch.setattr(smalg.exactnum, "_rows_times", counting)
    monkeypatch.setattr(smalg.rankpres, "classify_jordan", spy)
    assert classify_rank_preserver(phi).kind == "RankPreserver"
    [(count, psi)] = seen
    assert count == 0
    assert psi is phi


def test_separator_is_absorbed_by_scalings_not_products(monkeypatch):
    """S0 Gamma scales the columns of S0 and Gamma^-1 S0^-1 the rows of
    S0^-1, so a unital map's positive verdict runs no product, and the
    form equals the two diagonal products."""
    rng = random.Random(47)
    rho = upper_chain(5)
    s_vals = {i: rng.choice([1, 2, 3, "1/2", "1i"]) for i in range(1, 6)}
    phi = synthesize_jordan(
        rho, random_invertible_in_sma(rho, rng), frozenset({1, 2, 3, 4, 5}),
        separator_map(rho, s_vals),
    )
    form = classify_jordan(phi)
    s = triviality_witness(form.g).separator
    gamma = [s[i] if i in form.u else s[i].reciprocal() for i in range(1, 6)]
    assert len(set(gamma)) > 1
    calls = []
    real_rows_times = smalg.exactnum._rows_times

    def counting(*args):
        calls.append(args)
        return real_rows_times(*args)

    monkeypatch.setattr(smalg.exactnum, "_rows_times", counting)
    verdict = classify_rank_preserver(phi)
    assert verdict.kind == "RankPreserver"
    assert calls == []
    monkeypatch.undo()
    assert verdict.form.s == form.s * DenseMatrix.diag(gamma)
    assert verdict.form.s_inv == DenseMatrix.diag([v.reciprocal() for v in gamma]) * form.s_inv


# ---------------------------------------------------------------------------
# one check per rank witness


def scaled_bipartite_g():
    """Five sources over five sinks, every source related to every sink,
    all weights 1 but one: the shortest unbalanced cycle is a 4-cycle."""
    rho = from_edges(10, [(i, j) for i in range(1, 6) for j in range(6, 11)])
    weights = dict.fromkeys(rho.strict_pairs(), 1)
    weights[(5, 10)] = 2
    return validate(rho, weights)


def _counted(monkeypatch, names):
    """Counts of the calls of each named function of smalg.rankpres,
    reset by each call of ``calls``."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(smalg.rankpres, name, None)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        # a name the module does not import is set all the same: nothing calls it
        monkeypatch.setattr(smalg.rankpres, name, counting, raising=False)

    def calls(fn, *args):
        for name in names:
            counts[name] = 0
        return fn(*args), dict(counts)

    return calls


def test_each_rank_witness_is_checked_once_against_its_map(monkeypatch):
    """check-rank and check-rank-one check the cycle matrix against phi
    with two ranks; witness checks it against g*; the positive form's
    all-ones weights are not validated; a vanishing unit takes no rank."""
    g = scaled_bipartite_g()
    phi = induced_linear_map(g)
    trivial = induced_linear_map(
        validate(g.rho, dict.fromkeys(g.rho.strict_pairs(), 1))
    )
    vanishing = LinearMapOnSMA(
        upper_chain(2),
        {
            (1, 1): DenseMatrix.unit(2, 1, 1),
            (2, 2): DenseMatrix.unit(2, 2, 2),
            (1, 2): DenseMatrix.zeros(2, 2),
        },
    )
    calls = _counted(monkeypatch, ("rank", "apply", "apply_induced", "validate"))
    none = {"rank": 0, "apply": 0, "apply_induced": 0, "validate": 0}

    v, counts = calls(classify_rank_preserver, phi)
    assert v.witness.ranks == (1, 2)
    # one apply for phi(I), one for the witness
    assert counts == {**none, "rank": 2, "apply": 2}
    v, counts = calls(certify_rank_one_preserver, phi)
    assert v.witness.ranks == (1, 2)
    assert counts == {**none, "rank": 2, "apply": 1}
    w, counts = calls(nontrivial_g_rank_witness, g)
    assert w.ranks == (1, 2)
    assert counts == {**none, "rank": 2, "apply_induced": 1}
    v, counts = calls(classify_rank_preserver, trivial)
    assert v.kind == "RankPreserver"
    assert counts == {**none, "apply": 1}
    v, counts = calls(certify_rank_one_preserver, vanishing)
    assert v.witness.ranks == (1, 0)
    assert counts == none
    v, counts = calls(classify_rank_preserver, vanishing)
    assert v.witness.ranks == (1, 0)
    assert counts == {**none, "apply": 1}
