"""Quasi-order combinatorics, cross-checked against the raw-set oracles."""

import random

import pytest

from smalg.errors import DimensionMismatch, FormatError, NotClassUnion, NotClosed
from smalg.exactnum import DenseMatrix, GaussianRational, _nonzero_positions, multiply
from smalg.quasiorder import (
    _bits,
    _increasing_search,
    approx_classes,
    automorphisms_fix_two_sided_classes,
    beat_core,
    block_triangular_form,
    first_unsupported,
    format_relation,
    from_edges,
    increasing_permutations,
    parse_relation,
    rectangle_count,
    reverse,
    rho_U,
    two_sided_classes,
)

import fixtures as fx
from oracles import (
    card,
    central_idempotents,
    edge_rho_u,
    oracle_block_triangular_form,
    oracle_closure,
    oracle_connected_classes,
    oracle_increasing_perms,
    oracle_mutual_classes,
    oracle_out_set,
    oracle_pairs,
    oracle_relation_automorphisms,
    oracle_reverse_pairs,
    oracle_rho_u,
    oracle_strict_pairs,
    oracle_first_closure_violation,
    oracle_first_unsupported,
    rectangles,
    relabel_matrix,
    row_pair_rectangle_count,
    strict_part,
)


def random_edges(rng, n, density=0.3):
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < density
    ]


def random_quasi_order(rng, n, density=0.3):
    return from_edges(n, random_edges(rng, n, density))


class TestClosure:
    def test_example_count(self):
        q = from_edges(3, [(1, 2), (1, 3), (2, 3), (3, 2)])
        assert card(q) == 7

    def test_against_oracle(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randrange(1, 7)
            edges = random_edges(rng, n, rng.random())
            q = from_edges(n, edges)
            assert set(q.pairs()) == oracle_closure(n, edges)

    def test_closure_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            again = from_edges(q.n, q.pairs(), close=True)
            assert again == q
            validated = from_edges(q.n, q.pairs(), close=False)
            assert validated == q

    def test_validation_witness(self):
        with pytest.raises(NotClosed) as exc:
            from_edges(3, [(1, 2), (2, 3)], close=False)
        assert exc.value.witness == ((1, 2), (2, 3))

    def test_validation_names_the_least_witness(self):
        # the violation the pair walk meets first, (4,3) then (3,1), is
        # not the one reported
        with pytest.raises(NotClosed) as exc:
            from_edges(4, [(3, 1), (1, 2), (2, 4), (4, 3)], close=False)
        assert str(exc.value) == "(1,2) and (2,4) are present but (1,4) is not"
        assert exc.value.witness == ((1, 2), (2, 4))

    def test_validation_against_oracle(self):
        rng = random.Random(59)
        for _ in range(400):
            n = rng.randrange(1, 8)
            edges = random_edges(rng, n, rng.random())
            rng.shuffle(edges)
            expected = oracle_first_closure_violation(n, edges)
            if expected is None:
                assert set(from_edges(n, edges, close=False).pairs()) == (
                    oracle_closure(n, edges)
                )
                continue
            with pytest.raises(NotClosed) as exc:
                from_edges(n, edges, close=False)
            (i, k), (_, j) = expected
            assert exc.value.witness == expected
            assert str(exc.value) == (
                f"({i},{k}) and ({k},{j}) are present but ({i},{j}) is not"
            )

    def test_edges_from_a_generator(self):
        # the pairs are read twice without closure: once for the rows, once
        # for the check, so a spent generator would pass anything
        pairs = [(1, 2), (2, 3), (1, 3)]
        q = from_edges(3, (p for p in pairs), close=False)
        assert q == from_edges(3, pairs)
        assert from_edges(3, (p for p in pairs[:2])) == q
        with pytest.raises(NotClosed) as exc:
            from_edges(3, (p for p in pairs[:2]), close=False)
        assert exc.value.witness == ((1, 2), (2, 3))

    def test_cycles_and_self_loops_against_oracle(self):
        # a few random cycles with self-loops and chords on up to 40
        # vertices, so that components of many sizes feed one another
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randrange(1, 41)
            edges = []
            for _ in range(rng.randrange(0, 4)):
                cycle = rng.sample(range(1, n + 1), rng.randrange(1, min(n, 8) + 1))
                edges.extend(zip(cycle, cycle[1:] + cycle[:1]))
            edges += [(v, v) for v in rng.sample(range(1, n + 1), rng.randrange(0, 3) if n > 2 else 0)]
            edges += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randrange(0, n + 1))]
            rng.shuffle(edges)
            assert set(from_edges(n, edges).pairs()) == oracle_closure(n, edges)

    def test_long_path_and_cycle_close_without_recursion(self):
        # one search walks the whole path, and the whole cycle is one
        # component; both would pass the interpreter's recursion limit
        n = 20_000
        full_row = (1 << n) - 1
        up = from_edges(n, [(i, i + 1) for i in range(1, n)])._rows
        assert all(r == full_row >> k << k for k, r in enumerate(up))
        del up
        down = from_edges(n, [(i + 1, i) for i in range(1, n)])._rows
        assert all(r == (2 << k) - 1 for k, r in enumerate(down))
        del down
        n = 5_000
        cycle = from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
        assert cycle._rows == ((1 << n) - 1,) * n

    def test_bounds(self):
        with pytest.raises(DimensionMismatch):
            from_edges(2, [(1, 3)])
        with pytest.raises(DimensionMismatch):
            from_edges(0, [])


class TestBasicOps:
    def test_reverse(self):
        rng = random.Random(17)
        for _ in range(50):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            r = reverse(q)
            assert set(r.pairs()) == {(j, i) for (i, j) in q.pairs()}
            assert reverse(r) == q

    def test_reverse_is_built_once_per_relation(self):
        # the classes, the core and the automorphism check all read the
        # reversed relation that the first call built
        rng = random.Random(19)
        for _ in range(20):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            r = reverse(q)
            assert reverse(q) is r
            assert r.pairs() == oracle_reverse_pairs(q)
            approx_classes(q)
            beat_core(q)
            automorphisms_fix_two_sided_classes(q)
            assert reverse(q) is r

    def test_first_unsupported_reads_the_nonzero_positions(self):
        # real, imaginary and zero entries, on relations of 1-6 points
        rng = random.Random(29)
        values = [0] * 6 + [1, -2, GaussianRational(0, 1), GaussianRational(3, -1)]
        for _ in range(300):
            n = rng.randrange(1, 7)
            q = random_quasi_order(rng, n, rng.choice((0.1, 0.4)))
            m = DenseMatrix(n, n, [rng.choice(values) for _ in range(n * n)])
            got = first_unsupported(_nonzero_positions(m), q)
            assert got == oracle_first_unsupported(m.support(), q)

    def test_strict_part(self):
        q = fx.cycle_over_point()
        assert strict_part(q) == {(1, 2), (1, 3), (2, 3), (3, 2)}
        assert all(i != j for (i, j) in strict_part(q))


class TestRelationWalks:
    """The set-bit walks and the class order against ``has`` enumerations,
    on sizes whose masks end just below, at and just past word boundaries."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_against_has(self, n):
        rng = random.Random(7000 + n)
        for density in (0.0, 0.03, 0.15, 0.6):
            q = fx.random_class_order(rng, n, density)
            assert q.pairs() == oracle_pairs(q)
            assert q.strict_pairs() == oracle_strict_pairs(q)
            for i in range(1, n + 1):
                assert q.out_set(i) == oracle_out_set(q, i)
            assert reverse(q).pairs() == oracle_reverse_pairs(q)
            classes = two_sided_classes(q).blocks
            assert classes == tuple(oracle_mutual_classes(n, set(oracle_pairs(q))))
            assert n < 2 or max(len(c) for c in classes) >= 2
            got, want = block_triangular_form(q), oracle_block_triangular_form(q)
            assert got.pi == want.pi
            assert got.sizes == want.sizes
            assert got.presence == want.presence
            assert got.class_order == want.class_order


class TestLargeClasses:
    """Mutual classes and the class order on relations whose mutual
    classes have up to 12 members, and many rows of one bit count."""

    @pytest.mark.parametrize("sizes", [(4, 5), (1, 6, 12), (2, 9)])
    def test_against_oracles(self, sizes):
        rng = random.Random(sum(sizes))
        for _ in range(12):
            n = rng.randrange(1, 40)
            q = fx.random_class_order(rng, n, rng.choice((0.0, 0.2, 0.6)), sizes)
            classes = two_sided_classes(q).blocks
            assert classes == tuple(oracle_mutual_classes(n, set(q.pairs())))
            assert block_triangular_form(q) == oracle_block_triangular_form(q)


class TestBits:
    @pytest.mark.parametrize("length", [1, 8, 63, 64, 65, 200, 2400, 5000])
    def test_sparse_and_dense_masks(self, length):
        # bit counts on both sides of the switch from the per-bit walk to
        # the byte table
        rng = random.Random(length)
        for count in sorted({1, 2, 8, 9, length // 8 + 8, length // 8 + 9, 300, 301, length}):
            if count > length:
                continue
            picked = rng.sample(range(length - 1), count - 1) + [length - 1]
            mask = sum(1 << k for k in picked)
            assert _bits(mask) == sorted(k + 1 for k in picked)
        assert _bits(0) == []


class TestClasses:
    def test_cycle_over_point(self):
        q = fx.cycle_over_point()
        assert [set(b) for b in two_sided_classes(q).blocks] == [{1}, {2, 3}]
        assert [set(b) for b in approx_classes(q).blocks] == [{1, 2, 3}]

    def test_bowtie_connected(self):
        assert [set(b) for b in approx_classes(fx.bowtie()).blocks] == [{1, 2, 3, 4}]

    def test_against_oracles(self):
        rng = random.Random(23)
        for _ in range(100):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            pairs = set(q.pairs())
            assert set(two_sided_classes(q).blocks) == set(
                oracle_mutual_classes(q.n, pairs)
            )
            assert set(approx_classes(q).blocks) == set(
                oracle_connected_classes(q.n, q.strict_pairs())
            )

    def test_mutual_refines_connected(self):
        rng = random.Random(29)
        for _ in range(100):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            conn = approx_classes(q)
            for blk in two_sided_classes(q).blocks:
                (target,) = [b for b in conn.blocks if min(blk) in b]
                assert blk <= target


class TestCentralIdempotents:
    def test_example(self):
        q = from_edges(5, [(1, 2), (4, 5)], close=False)
        ps = central_idempotents(q)
        e = DenseMatrix.unit
        assert ps == [
            e(5, 1, 1) + e(5, 2, 2),
            e(5, 3, 3),
            e(5, 4, 4) + e(5, 5, 5),
        ]

    def test_invariants(self):
        rng = random.Random(31)
        for _ in range(50):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            ps = central_idempotents(q)
            assert len(ps) == len(approx_classes(q).blocks)
            total = DenseMatrix.zeros(q.n, q.n)
            for a in range(len(ps)):
                assert multiply(ps[a], ps[a]) == ps[a]
                for b in range(a + 1, len(ps)):
                    assert multiply(ps[a], ps[b]).is_zero()
                total = total + ps[a]
            assert total == DenseMatrix.identity(q.n)


class TestBlockTriangularForm:
    def test_wedge_order(self):
        q = fx.wedge3()
        btf = block_triangular_form(q)
        assert btf.sizes == (1, 1, 1)
        assert btf.pi == (3, 1, 2)  # vertex 1 goes last

    def test_cycle_over_point(self):
        btf = block_triangular_form(fx.cycle_over_point())
        assert btf.sizes == (1, 2)
        assert btf.pi == (1, 2, 3)
        assert btf.presence[0][1] == 1

    def test_sandwich_property(self):
        rng = random.Random(37)
        for _ in range(100):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            btf = block_triangular_form(q)
            relabeled = {(btf.pi[i - 1], btf.pi[j - 1]) for (i, j) in q.pairs()}
            offsets = []
            t = 1
            for s in btf.sizes:
                offsets.append(range(t, t + s))
                t += s
            # full diagonal blocks present
            for blk in offsets:
                for i in blk:
                    for j in blk:
                        assert (i, j) in relabeled
            # everything inside the block upper pattern, presence exact
            for a, ra in enumerate(offsets):
                for b, rb in enumerate(offsets):
                    cells = {(i, j) for i in ra for j in rb}
                    got = cells & relabeled
                    if a == b:
                        assert got == cells
                    elif btf.presence[a][b]:
                        assert got == cells and a < b
                    else:
                        assert not got

    def test_least_minimum_goes_first(self):
        # 2 and 3 start ready; placing 2 readies 4 and placing 3 then
        # readies 1, which still goes before 4
        q = from_edges(4, [(3, 1), (2, 4)])
        btf = block_triangular_form(q)
        assert [min(c) for c in btf.class_order] == [2, 3, 1, 4]
        assert btf.pi == (3, 1, 2, 4)

    def test_relabel_consistency(self):
        # relabeled units live where the block form says they do
        q = fx.cycle_over_point()
        btf = block_triangular_form(q)
        for (i, j) in q.pairs():
            m = relabel_matrix(DenseMatrix.unit(q.n, i, j), btf.pi)
            assert m.support() == {(btf.pi[i - 1], btf.pi[j - 1])}


class TestRectangles:
    def test_chain_pattern(self):
        assert rectangles(fx.upper_chain(3)) == [((1, 2), (2, 3))]

    def test_bowtie(self):
        assert rectangles(fx.bowtie()) == [((1, 2), (3, 4))]

    def test_chain10_has_none(self):
        assert rectangles(fx.chain10()) == []

    def test_full_count(self):
        n = 4
        assert len(rectangles(fx.full(n))) == (n * (n - 1) // 2) ** 2

    def test_membership(self):
        rng = random.Random(41)
        for _ in range(50):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            for ((i, k), (j, l)) in rectangles(q):
                assert i < k and j < l
                assert (i, j) in q and (i, l) in q and (k, j) in q and (k, l) in q

    def test_count_matches_the_row_pair_count(self):
        # sparse relations have many rows with fewer than two columns
        rng = random.Random(47)
        qs = [fx.delta(30), fx.upper_chain(12), fx.full(6), fx.bowtie()]
        for _ in range(300):
            n = rng.randrange(1, 40)
            qs.append(random_quasi_order(rng, n, rng.choice((0.01, 0.05, 0.2))))
        for q in qs:
            assert rectangle_count(q) == row_pair_rectangle_count(q)

    def test_count_matches_the_lister(self):
        rng = random.Random(43)
        qs = [fx.upper_chain(3), fx.bowtie(), fx.chain10(), fx.full(5), fx.delta(4)]
        qs += [random_quasi_order(rng, rng.randrange(1, 9)) for _ in range(200)]
        qs += [fx.random_class_order(rng, 8, 0.5) for _ in range(50)]
        for q in qs:
            assert rectangle_count(q) == len(rectangles(q))


class TestIncreasingPermutations:
    def test_examples(self):
        assert increasing_permutations(fx.delta(3), fx.upper_chain(3), limit=1) == [
            (1, 2, 3)
        ]
        assert increasing_permutations(fx.vee3(), fx.wedge3(), limit=None) == []

    def test_against_oracle(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randrange(1, 5)
            a = random_quasi_order(rng, n, 0.4)
            b = random_quasi_order(rng, n, 0.5)
            mine = increasing_permutations(a, b, limit=None)
            theirs = oracle_increasing_perms(n, set(a.pairs()), set(b.pairs()))
            assert sorted(mine) == sorted(theirs)
        # relabeled copies have as many pairs: the search prunes on equal
        # degrees there
        for _ in range(40):
            n = rng.randrange(1, 7)
            a = random_quasi_order(rng, n, rng.choice((0.2, 0.4, 0.6)))
            pi = rng.sample(range(1, n + 1), n)
            b = from_edges(n, [(pi[i - 1], pi[j - 1]) for i, j in a.pairs()])
            for src, dst in ((a, b), (b, a), (a, a)):
                mine = increasing_permutations(src, dst, limit=None)
                theirs = oracle_increasing_perms(n, set(src.pairs()), set(dst.pairs()))
                assert sorted(mine) == sorted(theirs)
            assert tuple(pi) in increasing_permutations(a, b, limit=None)

    def test_limit(self):
        all_of_them = increasing_permutations(fx.delta(3), fx.delta(3), limit=None)
        assert len(all_of_them) == 6
        assert len(increasing_permutations(fx.delta(3), fx.delta(3), limit=2)) == 2

    def test_fix_classes_against_automorphism_enumeration(self):
        rng = random.Random(59)
        cases = [
            # equal-size classes {1,2}, {3,4} with equal degrees that no
            # automorphism swaps: 5 has one more predecessor than 6
            from_edges(7, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 5), (3, 6), (7, 5)]),
            # the same with singletons 1 and 3, while 3 and 5 do swap
            from_edges(5, [(1, 2), (3, 4), (5, 4)]),
            from_edges(6, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 5), (3, 6)]),
        ]
        for _ in range(40):
            cases.append(random_quasi_order(rng, rng.randrange(1, 8), rng.choice((0.15, 0.3, 0.5))))
        for _ in range(20):
            # blow the vertices of a small random relation up into mutual
            # classes of size 1 or 2
            base = random_quasi_order(rng, rng.randrange(2, 5), 0.3)
            members, n = [], 0
            for _ in range(base.n):
                size = rng.choice((1, 2)) if n < 6 else 1
                members.append(list(range(n + 1, n + size + 1)))
                n += size
            cases.append(from_edges(n, [
                (i, j) for (a, b) in base.pairs() for i in members[a - 1] for j in members[b - 1]
            ]))
        verdicts = set()
        for q in cases:
            pairs = set(q.pairs())
            classes = oracle_mutual_classes(q.n, pairs)
            expected = all(
                frozenset(images[i - 1] for i in blk) == blk
                for images in oracle_relation_automorphisms(q.n, pairs)
                for blk in classes
            )
            assert automorphisms_fix_two_sided_classes(q) == expected, q
            verdicts.add(expected)
        assert verdicts == {True, False}
        assert automorphisms_fix_two_sided_classes(cases[0])
        assert not automorphisms_fix_two_sided_classes(cases[1])
        assert not automorphisms_fix_two_sided_classes(cases[2])

    def test_pinned_search_against_automorphism_enumeration(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randrange(1, 7)
            q = random_quasi_order(rng, n, rng.choice((0.0, 0.2, 0.4)))
            autos = oracle_relation_automorphisms(n, set(q.pairs()))
            assert _increasing_search(q, q, None) == sorted(autos)
            for v in range(1, n + 1):
                for t in range(1, n + 1):
                    want = sorted(a for a in autos if a[v - 1] == t)
                    assert _increasing_search(q, q, None, pin=(v, t)) == want
                    first = _increasing_search(q, q, 1, pin=(v, t))
                    assert len(first) == min(len(want), 1)
                    assert set(first) <= set(want)

    def test_fix_classes_predicate(self):
        assert automorphisms_fix_two_sided_classes(fx.upper_chain(3))
        assert not automorphisms_fix_two_sided_classes(fx.delta(2))
        assert automorphisms_fix_two_sided_classes(fx.cycle_over_point())


class TestRhoU:
    def test_example(self):
        q = from_edges(5, [(1, 2), (4, 5)], close=False)
        out = rho_U(q, {1, 2})
        assert set(out.strict_pairs()) == {(1, 2), (5, 4)}

    def test_oracle_and_involution(self):
        rng = random.Random(47)
        for _ in range(60):
            q = random_quasi_order(rng, rng.randrange(1, 6))
            blocks = approx_classes(q).blocks
            picked = [b for b in blocks if rng.random() < 0.5]
            u = set().union(*picked) if picked else set()
            out = rho_U(q, u)
            assert set(out.pairs()) == oracle_rho_u(q.n, set(q.pairs()), u) | {
                (i, i) for i in range(1, q.n + 1)
            }
            assert rho_U(out, u) == q

    def test_rows_match_the_edge_construction(self):
        # every quasi-order on 1..4 points with every class union, then
        # random relations on up to 9 points with random unions
        relations = []
        for n in range(1, 5):
            off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            relations += {
                from_edges(n, [e for t, e in enumerate(off) if mask >> t & 1])
                for mask in range(1 << len(off))
            }
        assert len(relations) == 389
        rng = random.Random(53)
        relations += [random_quasi_order(rng, rng.randrange(1, 10), rng.random()) for _ in range(200)]
        for q in relations:
            blocks = approx_classes(q).blocks
            masks = range(1 << len(blocks)) if q.n <= 4 else rng.sample(range(1 << len(blocks)), 1)
            for mask in masks:
                u = set().union(*(b for k, b in enumerate(blocks) if mask >> k & 1))
                assert rho_U(q, u) == edge_rho_u(q, u)

    def test_not_class_union(self):
        q = from_edges(3, [(1, 2)], close=False)
        with pytest.raises(NotClassUnion):
            rho_U(q, {1})

    def test_extremes(self):
        q = fx.cycle_over_point()
        assert rho_U(q, set(range(1, q.n + 1))) == q
        assert rho_U(q, set()) == reverse(q)


class TestRelationFormat:
    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(30):
            q = random_quasi_order(rng, rng.randrange(1, 7))
            n, edges = parse_relation(format_relation(q))
            assert from_edges(n, edges, close=False) == q

    def test_comments(self):
        n, edges = parse_relation("# header\n3\n1 2 # note\n\n2 3\n")
        assert n == 3 and edges == [(1, 2), (2, 3)]

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_relation("")
        with pytest.raises(FormatError) as exc:
            parse_relation("3\n1\n")
        assert exc.value.line == 2
        with pytest.raises(FormatError):
            parse_relation("2\n1 3\n")
        with pytest.raises(FormatError):
            parse_relation("x\n")

    def test_vertex_count_limit(self):
        # the parser builds no rows, so the bound itself costs nothing here
        assert parse_relation("# header\n40000\n1 40000\n") == (40000, [(1, 40000)])
        with pytest.raises(FormatError) as exc:
            parse_relation("# header\n40001\n")
        assert exc.value.line == 2
        assert "exceeds the limit of 40000" in str(exc.value)

    @pytest.mark.parametrize(
        "text, line",
        [("1_0\n", 1), ("\u0663\n", 1), ("3\n1 \u0662\n", 2), ("12\n1_0 2\n", 2)],
    )
    def test_only_ascii_digits(self, text, line):
        with pytest.raises(FormatError) as exc:
            parse_relation(text)
        assert exc.value.line == line
