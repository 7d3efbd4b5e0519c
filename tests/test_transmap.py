"""Tests for transitive weight maps and the triviality decision."""

import random
from fractions import Fraction

import pytest

from smalg.errors import (
    DimensionMismatch,
    FormatError,
    NotClosed,
    NotTransitive,
    SupportViolation,
    ZeroWeight,
)
from smalg.exactnum import DenseMatrix, GaussianRational, ONE, scalar
from smalg.quasiorder import beat_core, from_edges
from smalg.sampling import random_transitive_map
from smalg.transmap import (
    TransitiveMap,
    _gauge,
    all_transitive_trivial,
    apply_induced,
    format_weights,
    nontrivial_transitive_map,
    parse_weights,
    triviality_witness,
    validate,
    walk_product,
)

from fixtures import (
    bowtie,
    bowtie_weights,
    census12,
    chain10,
    chain10_weights,
    corner,
    cycle_over_point,
    delta,
    full,
    random_class_order,
    random_quasiorder,
    rp2_face_poset,
    separator_map,
    seven_point,
    upper_chain,
    vee3,
)
from oracles import (
    basis_nontrivial_transitive_map,
    cdiv,
    cmul,
    composable_validate,
    full_relation_all_transitive_trivial,
    full_relation_nontrivial_transitive_map,
    is_beat_point,
    oracle_first_transitivity_violation,
    oracle_strict_pairs,
    rectangle_minor_condition,
    scalar_triviality_witness,
)


def walk_endpoints(walk):
    """Traverse a walk of (pair, direction) steps; assert consistency and
    return (start, end)."""
    assert walk
    first, d = walk[0]
    at = first[1] if d == 1 else first[0]
    start = first[0] if d == 1 else first[1]
    for (pair, direction) in walk[1:]:
        src, dst = pair if direction == 1 else (pair[1], pair[0])
        assert src == at
        at = dst
    return start, at


def test_chain_weights_validate_and_separator():
    # [DERIVED] on a 3-chain, 2 * 3 = 6 forces triviality with potentials
    # 1, 1/2, 1/6 from the lowest vertex.
    rho = upper_chain(3)
    g = validate(rho, {(1, 2): 2, (2, 3): 3, (1, 3): 6})
    cert = triviality_witness(g)
    assert cert.is_trivial
    s = cert.separator
    assert s[1] == ONE
    for (i, j) in rho.strict_pairs():
        assert g.value(i, j) == s[i] / s[j]


def test_transitivity_violation_raises_with_witness():
    # [DERIVED] 2 * 3 != 5
    rho = upper_chain(3)
    with pytest.raises(NotTransitive) as exc:
        validate(rho, {(1, 2): 2, (2, 3): 3, (1, 3): 5})
    assert exc.value.witness == ((1, 2), (2, 3))


def test_two_sided_pair_must_wrap_to_one():
    rho = full(2)
    g = validate(rho, {(1, 2): 2, (2, 1): "1/2"})
    assert g.value(2, 1) == scalar("1/2")
    with pytest.raises(NotTransitive) as exc:
        validate(rho, {(1, 2): 2, (2, 1): 3})
    assert exc.value.witness in (((1, 2), (2, 1)), ((2, 1), (1, 2)))


def test_first_violation_matches_the_pair_scan():
    # separator maps s(i)/s(j) with one to three pairs scaled by a unit
    # other than 1; validate must name the composable pair, and give the
    # message, that a scan over all pairs of strict pairs meets first
    rng = random.Random(53)
    units = [(Fraction(u), Fraction(v)) for (u, v) in ((2, 0), (-1, 0), (0, 1))]
    values = units + [(Fraction(1, 3), Fraction(0)), (Fraction(1), Fraction(1))]
    two_sided = []
    for _ in range(300):
        q = random_class_order(rng, rng.randrange(2, 12), rng.random())
        strict = oracle_strict_pairs(q)
        s = {v: rng.choice(values) for v in range(1, q.n + 1)}
        w = {(i, j): cdiv(s[i], s[j]) for (i, j) in strict}
        for _ in range(rng.randint(1, 3)):
            pair = rng.choice(strict)
            w[pair] = cmul(w[pair], rng.choice(units))
        want = oracle_first_transitivity_violation(strict, w)
        try:
            validate(q, {pair: GaussianRational(*v) for pair, v in w.items()})
            got = None
        except NotTransitive as exc:
            got = (exc.witness, str(exc))
        assert got == want
        if want is not None:
            two_sided.append(want[0][0][0] == want[0][1][1])
    # both branches: a two-sided product that is not 1, a composite mismatch
    assert True in two_sided and False in two_sided


def test_validate_rejects_bad_supports_and_zero():
    rho = upper_chain(2)
    with pytest.raises(SupportViolation, match=r"^missing weight for \(1, 2\)$") as exc:
        validate(rho, {})
    assert exc.value.pair == (1, 2)
    with pytest.raises(SupportViolation, match=r"^diagonal weight \(1,1\)"):
        validate(rho, {(1, 2): 2, (1, 1): 1})
    with pytest.raises(SupportViolation, match=r"^\(2,1\) is not in the relation$"):
        validate(rho, {(1, 2): 2, (2, 1): 2})
    with pytest.raises(SupportViolation, match=r"^\(1,3\) is not in the relation$"):
        validate(rho, {(1, 3): 2, (1, 2): 0})
    with pytest.raises(ZeroWeight):
        validate(rho, {(1, 2): 0})


def test_value_diagonal_is_one_and_outside_raises():
    rho = upper_chain(2)
    g = validate(rho, {(1, 2): 7})
    assert g.value(1, 1) == ONE
    assert g.value(2, 2) == ONE
    with pytest.raises(SupportViolation):
        g.value(2, 1)


def test_apply_induced_scales_entrywise():
    # [DERIVED] only the (1,2) slot is scaled, by 2.
    rho = upper_chain(2)
    g = validate(rho, {(1, 2): 2})
    x = DenseMatrix.from_rows([[1, 3], [0, 4]])
    assert apply_induced(g, x) == DenseMatrix.from_rows([[1, 6], [0, 4]])
    bad = DenseMatrix.from_rows([[1, 0], [5, 4]])
    with pytest.raises(SupportViolation) as exc:
        apply_induced(g, bad)
    assert exc.value.pair == (2, 1)
    with pytest.raises(DimensionMismatch):
        apply_induced(g, DenseMatrix.identity(3))


def test_bowtie_weights_nontrivial_with_closed_walk():
    # [DERIVED] the bowtie weight map is nontrivial; its certificate is a
    # closed 4-step walk with alternating product (1*1)/(2*1) = 1/2.
    g = validate(bowtie(), bowtie_weights())
    cert = triviality_witness(g)
    assert not cert.is_trivial
    start, end = walk_endpoints(cert.walk)
    assert start == end
    assert cert.product == walk_product(g, cert.walk)
    assert cert.product != ONE
    assert cert.product == scalar("1/2")


def test_trivial_maps_recover_their_separator():
    # any map built as s(i)/s(j) must come back trivial, with matching ratios
    pool = ["1", "2", "1/2", "3", "-1", "1i", "-1i", "1+1i", "2/3"]
    rng = random.Random(7)
    for _ in range(20):
        rho = random_quasiorder(rng)
        s = {i: pool[rng.randrange(len(pool))] for i in range(1, rho.n + 1)}
        g = separator_map(rho, s)
        cert = triviality_witness(g)
        assert cert.is_trivial
        for (i, j) in rho.strict_pairs():
            assert g.value(i, j) == cert.separator[i] / cert.separator[j]


def test_all_transitive_trivial_on_fixtures():
    # [DERIVED] lattice computation agrees with hand analysis
    assert all_transitive_trivial(delta(4))
    assert all_transitive_trivial(full(4))
    assert all_transitive_trivial(upper_chain(5))
    assert all_transitive_trivial(cycle_over_point())
    assert all_transitive_trivial(vee3())
    assert all_transitive_trivial(corner())
    assert not all_transitive_trivial(bowtie())
    assert not all_transitive_trivial(chain10())


def test_all_trivial_agrees_with_sampling():
    # when the decision says "not all trivial", a nontrivial sample exists
    # within a few seeds; when it says "all trivial", every sample is trivial
    rng = random.Random(11)
    relations = [q for (_, q) in census12()]
    relations += [random_quasiorder(rng) for _ in range(10)]
    for rho in relations:
        verdict = all_transitive_trivial(rho)
        if verdict:
            for seed in range(10):
                g = random_transitive_map(rho, seed=seed)
                assert triviality_witness(g).is_trivial
        else:
            found = any(
                not triviality_witness(random_transitive_map(rho, seed=seed)).is_trivial
                for seed in range(50)
            )
            assert found, f"no nontrivial sample found on {rho!r}"


def test_nontrivial_transitive_map_exists_iff_not_all_trivial():
    rng = random.Random(11)
    relations = [q for (_, q) in census12()]
    relations += [random_quasiorder(rng) for _ in range(10)]
    relations += [bowtie(), chain10(), rp2_face_poset()]
    negatives = 0
    for rho in relations:
        g = nontrivial_transitive_map(rho)
        if all_transitive_trivial(rho):
            assert g is None
            continue
        negatives += 1
        assert not triviality_witness(g).is_trivial
        assert validate(rho, dict(g.items())) == g
    assert negatives >= 3


def test_nontrivial_transitive_map_tries_exponents_first():
    # [DERIVED] the bowtie's spanning forest is (1,3), (1,4), (2,3), so the
    # gauge leaves one column, (2,4), and no relation row: the kernel over Q
    # is its unit vector, and the map is 2 at (2,4)
    g = nontrivial_transitive_map(bowtie())
    assert g == validate(bowtie(), {(1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 2})


def test_nontrivial_transitive_map_falls_back_to_signs():
    rho = rp2_face_poset()
    assert not all_transitive_trivial(rho)
    g = nontrivial_transitive_map(rho)
    assert {v for (_, v) in g.items()} == {ONE, -ONE}
    assert triviality_witness(g).product == -ONE


def _core_route_matches_full_relation(rho):
    """Check the beat-point core of rho and compare the decision and witness
    on it with the whole-relation route; True iff rho is a negative."""
    core = beat_core(rho)
    r = core.retraction
    kept = {v for v in range(1, rho.n + 1) if r[v - 1] == v}
    assert all(r[i - 1] in kept for i in range(1, rho.n + 1))
    assert (core.core is rho) == (len(kept) == rho.n)
    for (i, j) in rho.pairs():
        assert (r[i - 1], r[j - 1]) in rho
    assert core.core.pairs() == sorted(
        [(i, j) for (i, j) in rho.pairs() if i in kept and j in kept]
        + [(i, i) for i in range(1, rho.n + 1) if i not in kept]
    )
    up = {v: set(core.core.out_set(v)) for v in range(1, core.core.n + 1)}
    assert not any(is_beat_point(up, v) for v in up)
    verdict = all_transitive_trivial(rho)
    assert verdict == full_relation_all_transitive_trivial(rho)
    g = nontrivial_transitive_map(rho)
    if verdict:
        assert g is None
        return False
    assert (g is None) == (full_relation_nontrivial_transitive_map(rho) is None)
    assert (g is None) == (basis_nontrivial_transitive_map(rho, core) is None)
    if g is not None:
        assert validate(rho, dict(g.items())) == g
        assert not triviality_witness(g).is_trivial
        edges, off, _ = _gauge(core.core)
        assert all(g.value(*e) == ONE for e in set(edges) - set(off))
    return True


def test_core_route_matches_the_full_relation_on_every_small_quasi_order():
    seen = set()
    for n in range(1, 5):
        off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for mask in range(1 << len(off)):
            rho = from_edges(n, [e for t, e in enumerate(off) if mask >> t & 1])
            if rho not in seen:
                seen.add(rho)
                _core_route_matches_full_relation(rho)
    # quasi-orders on 1..4 labeled points: 1 + 4 + 29 + 355
    assert len(seen) == 389


def test_core_route_matches_the_full_relation_on_random_relations():
    rng = random.Random(23)
    relations = [rp2_face_poset(), bowtie(), chain10(), seven_point()]
    for t in range(2000):
        sizes = (1,) if t % 2 else (1, 1, 2, 3)
        n = rng.randint(2, 10)
        relations.append(random_class_order(rng, n, rng.choice((0.2, 0.35, 0.5)), sizes))
    negatives = sum(_core_route_matches_full_relation(rho) for rho in relations)
    assert negatives >= 90


def test_core_of_a_chain_beside_a_bowtie_keeps_the_bowtie():
    # [DERIVED] the chain retracts onto its top; the bowtie has no beat point
    rho = from_edges(8, [(1, 2), (2, 3), (3, 4), (5, 7), (5, 8), (6, 7), (6, 8)])
    core = beat_core(rho)
    assert core.retraction == (4, 4, 4, 4, 5, 6, 7, 8)
    g = nontrivial_transitive_map(rho)
    assert [v for ((i, j), v) in g.items() if i < 5] == [ONE] * 6
    assert not triviality_witness(g).is_trivial


def test_rectangle_minor_detects_bowtie():
    # [DERIVED] the single bowtie rectangle has minor 1*1 - 2*1 = -1
    g = validate(bowtie(), bowtie_weights())
    check = rectangle_minor_condition(g)
    assert not check.ok
    assert check.rectangle == ((1, 2), (3, 4))
    assert check.minor == scalar(-1)


def test_rectangle_minors_vanish_for_trivial_maps():
    rng = random.Random(3)
    for rho in (full(3), upper_chain(4), cycle_over_point()):
        s = {i: rng.choice([1, 2, 3, "1/2"]) for i in range(1, rho.n + 1)}
        g = separator_map(rho, s)
        assert rectangle_minor_condition(g).ok


def test_chain10_weights_nontrivial_but_rectangle_free():
    # [DERIVED] no rectangles, so the minor condition is vacuous, yet the
    # map is nontrivial.
    g = validate(chain10(), chain10_weights())
    assert rectangle_minor_condition(g).ok
    cert = triviality_witness(g)
    assert not cert.is_trivial
    assert walk_product(g, cert.walk) == cert.product


def test_random_transitive_map_is_deterministic_and_valid():
    rng = random.Random(19)
    for _ in range(10):
        rho = random_quasiorder(rng)
        seed = rng.randrange(10**6)
        a = random_transitive_map(rho, seed=seed)
        b = random_transitive_map(rho, seed=seed)
        assert a == b
        for (_, v) in a.items():
            assert v  # validate() already enforced this; belt and braces
    # different seeds eventually differ on a shape with free edges
    maps = {tuple(random_transitive_map(bowtie(), seed=s).items()) for s in range(20)}
    assert len(maps) > 1


def test_weights_format_roundtrip():
    rho = bowtie()
    g = validate(rho, bowtie_weights())
    text = format_weights(g)
    assert parse_weights(text, rho) == g
    commented = "# weights\n" + text + "\n   \n"
    assert parse_weights(commented, rho) == g


def test_weights_format_errors_carry_line_numbers():
    rho = upper_chain(2)
    with pytest.raises(FormatError) as exc:
        parse_weights("1 2\n", rho)
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        parse_weights("# ok\n1 x 2\n", rho)
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_weights("1 2 2\n1 2 3\n", rho)
    assert exc.value.line == 2
    # a repeated pair is named before its value is read
    with pytest.raises(FormatError, match=r"duplicate pair \(1,2\)") as exc:
        parse_weights("1 2 0\n1 2 +1\n", rho)
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_weights("1 2 1+\n", rho)
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text, line",
    [("1 \u0662 3\n", 1), ("# ok\n1_0 2 3\n", 2), ("1 2 \u0663\n", 1)],
)
def test_weights_only_ascii_digits(text, line):
    with pytest.raises(FormatError) as exc:
        parse_weights(text, upper_chain(2))
    assert exc.value.line == line


def _every_quasi_order(n):
    """Every quasi-order on n labelled points: each set of strict pairs
    that is already transitive."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for mask in range(1 << len(pairs)):
        edges = [p for t, p in enumerate(pairs) if mask >> t & 1]
        try:
            yield from_edges(n, edges, close=False)
        except NotClosed:
            pass


_SEPARATOR_VALUES = ["1", "1", "2", "-1", "1/3", "1i", "-1i", "1+1i", "2/3-1/2i"]
_UNITS = [scalar(v) for v in ("2", "-1", "1i", "1/5")]


def _weight_inputs(rho, rng):
    """Weight dicts for rho, each labelled: a trivial map, a +-2^k sampled
    map on up to 24 strict pairs (transitive, often nontrivial), a trivial
    map with one to three pairs scaled by a unit (not transitive, composite
    or two-sided, or transitive but nontrivial), and each defect that
    validate names, once or twice: a zero, a missing pair, a diagonal key
    and a key outside the relation or outside 1..n. Keys come sorted or
    shuffled, so a defect sits anywhere in the order."""
    strict = rho.strict_pairs()
    s = {v: scalar(rng.choice(_SEPARATOR_VALUES)) for v in range(1, rho.n + 1)}
    trivial = {(i, j): s[i] / s[j] for (i, j) in strict}
    yield "trivial", trivial
    if len(strict) <= 24:  # the kernel bases grow fast with the pairs
        sampled = random_transitive_map(rho, seed=rng.randrange(10**6))
        yield "sampled", dict(sampled.items())
    scaled = dict(trivial)
    for _ in range(rng.randint(1, 3) if strict else 0):
        pair = rng.choice(strict)
        scaled[pair] = scaled[pair] * rng.choice(_UNITS)
    yield "scaled", scaled
    outside = [
        (i, j)
        for i in range(0, rho.n + 2)
        for j in range(0, rho.n + 2)
        if i != j and (i, j) not in rho
    ]
    defects = [
        ("diagonal", lambda w, v=v: w.__setitem__((v, v), 1)) for v in (1, rho.n + 1)
    ]
    if strict:
        defects.append(("zero", lambda w: w.__setitem__(rng.choice(strict), 0)))
        defects.append(("missing", lambda w: w.pop(rng.choice(strict), None)))
    if outside:
        defects.append(("outside", lambda w: w.__setitem__(rng.choice(outside), 2)))
    for name, defect in defects:
        w = dict(rng.choice([trivial, scaled]))
        defect(w)
        if rng.random() < 0.5:
            defect = rng.choice(defects)[1]
            defect(w)
        yield name, _shuffled(w, rng) if rng.random() < 0.5 else w
    yield "trivial-shuffled", _shuffled(trivial, rng)
    yield "scaled-shuffled", _shuffled(scaled, rng)


def _shuffled(w, rng):
    items = list(w.items())
    rng.shuffle(items)
    return dict(items)


def _validation_outcome(check, rho, weights):
    try:
        return check(rho, weights)
    except (SupportViolation, ZeroWeight, NotTransitive) as exc:
        return type(exc), str(exc), getattr(exc, "pair", None), getattr(exc, "witness", None)


def _assert_validates_like_the_composable_walk(rho, rng, seen):
    for name, weights in _weight_inputs(rho, rng):
        got = _validation_outcome(validate, rho, weights)
        want = _validation_outcome(composable_validate, rho, weights)
        if not isinstance(want, TransitiveMap):
            assert got == want, (rho, name, weights)
            if want[0] is NotTransitive:
                seen.add("two-sided" if "two-sided" in want[1] else "composite")
            else:
                seen.add(want[0].__name__)
            continue
        assert isinstance(got, TransitiveMap), (rho, name, got)
        assert got == want and got.items() == want.items()
        reference = scalar_triviality_witness(want)
        # the forest validate kept, and the one a direct construction builds
        for g in (got, TransitiveMap(rho, want.items())):
            cert = triviality_witness(g)
            assert cert.separator == reference.separator
            assert (cert.walk, cert.product) == (reference.walk, reference.product)
        seen.add("trivial" if reference.is_trivial else "nontrivial")


# a trivial and a nontrivial map, both kinds of failing composable pair,
# and both errors of the keys
_EVERY_OUTCOME = {
    "trivial", "nontrivial", "two-sided", "composite", "SupportViolation", "ZeroWeight"
}


def test_validate_matches_the_composable_walk_on_every_small_quasi_order():
    # every quasi-order on up to 4 points: the potentials route returns
    # the same map, or the same error with the same pair or witness, and
    # the same separator, or the same walk and product
    rng = random.Random(61)
    seen = set()
    for n in range(1, 5):
        for rho in _every_quasi_order(n):
            _assert_validates_like_the_composable_walk(rho, rng, seen)
    assert seen == _EVERY_OUTCOME


def test_validate_matches_the_composable_walk_on_random_quasi_orders():
    rng = random.Random(67)
    seen = set()
    for k in range(300):
        n = rng.randint(2, 12)
        if k % 2:
            rho = random_class_order(rng, n, rng.random())
        else:
            rho = random_quasiorder(rng, n, n, rng.random() / 2)
        _assert_validates_like_the_composable_walk(rho, rng, seen)
    assert seen == _EVERY_OUTCOME
