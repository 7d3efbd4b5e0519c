"""Tests for the command-line front end: dispatch, exit codes, reports."""

import ast
import collections
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import smalg.cli
import smalg.diag
import smalg.exactnum
import smalg.intlattice
import smalg.jordan
import smalg.quasiorder
import smalg.rankpres
import smalg.sampling
import smalg.transmap
from smalg.cli import run
from smalg.errors import InternalInconsistency, NotJordan
from smalg.exactnum import ONE, DenseMatrix, format_matrix, inverse, parse_matrix, rank
from smalg.jordan import (
    CanonicalJordanForm,
    format_linear_map,
    parse_linear_map,
    synthesize_jordan,
)
from smalg.quasiorder import format_relation, from_edges, parse_relation, reverse
from smalg.sampling import random_invertible_in_sma
from smalg.transmap import (
    apply_induced,
    format_weights,
    parse_weights,
    triviality_witness,
    validate,
)

from fixtures import (
    bowtie,
    bowtie_weights,
    chain10,
    chain10_weights,
    corner,
    corner_map_images,
    corpus_style_jordan_map,
    delta,
    full,
    linear_map,
    moore_face_poset,
    separator_map,
    seven_point,
    seven_point_weights,
    upper_chain,
    vee3,
    wedge3,
)
import oracles
from oracles import identity_map, transpose_map


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory of serialized fixture inputs shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")

    def write(name, text):
        path = root / name
        path.write_text(text)
        return str(path)

    paths = {}
    paths["t3"] = write("t3.qo", format_relation(upper_chain(3)))
    paths["t3rev"] = write("t3rev.qo", format_relation(reverse(upper_chain(3))))
    paths["delta3"] = write("delta3.qo", format_relation(delta(3)))
    paths["vee3"] = write("vee3.qo", format_relation(vee3()))
    paths["wedge3"] = write("wedge3.qo", format_relation(wedge3()))
    paths["bowtie"] = write("bowtie.qo", format_relation(bowtie()))
    paths["chain10"] = write("chain10.qo", format_relation(chain10()))
    paths["bowtie_gw"] = write(
        "bowtie.gw", format_weights(validate(bowtie(), bowtie_weights()))
    )
    paths["chain10_gw"] = write(
        "chain10.gw", format_weights(validate(chain10(), chain10_weights()))
    )
    paths["sep_gw"] = write(
        "sep.gw",
        format_weights(separator_map(upper_chain(3), {1: 2, 2: 1, 3: "1/3"})),
    )
    paths["id_t3"] = write("id_t3.lm", format_linear_map(identity_map(upper_chain(3))))
    paths["tr_t3"] = write("tr_t3.lm", format_linear_map(transpose_map(upper_chain(3))))
    paths["corner"] = write("corner.qo", format_relation(corner()))
    paths["corner_lm"] = write(
        "corner.lm", format_linear_map(linear_map(corner(), corner_map_images()))
    )

    def scaled_lm(name, rho, weights):
        g = validate(rho, weights)
        n = rho.n
        images = {
            (i, j): DenseMatrix.unit(n, i, j).scale(g.value(i, j))
            for (i, j) in rho.pairs()
        }
        return write(name, format_linear_map(linear_map(rho, images)))

    paths["bowtie_lm"] = scaled_lm("bowtie_g.lm", bowtie(), bowtie_weights())
    paths["chain10_lm"] = scaled_lm("chain10_g.lm", chain10(), chain10_weights())
    paths["seven"] = write("seven.qo", format_relation(seven_point()))
    paths["seven_gw"] = write(
        "seven.gw", format_weights(validate(seven_point(), seven_point_weights()))
    )
    paths["seven_lm"] = scaled_lm("seven_g.lm", seven_point(), seven_point_weights())
    paths["unclosed"] = write("unclosed.qo", "3\n1 2\n2 3\n")
    paths["bad"] = write("bad.qo", "3\n1 x\n")
    paths["eye3"] = write("eye3.gm", format_matrix(DenseMatrix.identity(3)))
    paths["nilp"] = write("nilp.gm", "2 2\n0 1\n0 0\n")
    paths["low"] = write("low.gm", "3 3\n0 0 0\n1 0 0\n0 0 0\n")
    paths["dir"] = str(root)
    return paths


def test_close_completes_relation(files):
    out = run(["close", files["unclosed"]])
    assert out.exit_code == 0
    assert out.report == "3\n1 2\n1 3\n2 3\n"


def test_parse_error_names_file_and_line(files):
    out = run(["info", files["bad"]])
    assert out.exit_code == 2
    assert files["bad"] in out.report
    assert "line 2" in out.report


def test_unclosed_input_rejected_outside_close(files):
    out = run(["info", files["unclosed"]])
    assert out.exit_code == 2


def test_missing_file():
    out = run(["info", "/nonexistent/x.qo"])
    assert out.exit_code == 2
    assert "error" in out.report


def test_info_delta(files):
    out = run(["info", files["delta3"]])
    assert out.exit_code == 0
    assert "center-dimension 3" in out.report
    assert "rectangles 0" in out.report
    assert "inner false" in out.report


def test_info_bowtie(files):
    out = run(["info", files["bowtie"]])
    lines = out.report.splitlines()
    assert "classes {1,2,3,4}" in lines
    assert "rectangles 1" in lines
    assert "dichotomy true" in lines
    assert "extends false" in lines


def test_info_json_lines(files):
    out = run(["--format", "json-lines", "info", files["delta3"]])
    records = [json.loads(line) for line in out.report.splitlines()]
    merged = {}
    for r in records:
        merged.update(r)
    assert merged["center_dimension"] == 3
    assert merged["rectangles"] == 0
    assert merged["classes"] == [[1], [2], [3]]


def test_blocks_chain(files):
    out = run(["blocks", files["t3"]])
    assert out.exit_code == 0
    assert out.report == (
        "pi 1 2 3\nsizes 1 1 1\npresence 111 011 001\nclass-order {1} {2} {3}\n"
    )


def test_blocks_lists_the_class_order_in_layout_order(tmp_path):
    # the layout puts vertex 2 first; text and json-lines agree on it
    q = tmp_path / "down.qo"
    q.write_text("2\n2 1\n")
    out = run(["blocks", str(q)])
    assert (out.exit_code, out.report) == (
        0,
        "pi 2 1\nsizes 1 1\npresence 11 01\nclass-order {2} {1}\n",
    )
    out = run(["--format", "json-lines", "blocks", str(q)])
    records = [json.loads(line) for line in out.report.splitlines()]
    assert records[-1] == {"class_order": [[2], [1]]}


def test_embed_jordan_vee_wedge(files):
    out = run(["embed", "--jordan", files["vee3"], files["wedge3"]])
    assert out.exit_code == 0
    assert "classes -" in out.report
    assert "pi 1 2 3" in out.report


def test_embed_algebra_vee_wedge_fails(files):
    out = run(["embed", files["vee3"], files["wedge3"]])
    assert out.exit_code == 1
    assert "NO-EMBEDDING" in out.report


def test_embed_algebra_reversal(files):
    out = run(["embed", files["t3"], files["t3rev"]])
    assert out.exit_code == 0
    assert "pi 3 2 1" in out.report


def test_embed_dimension_mismatch(files):
    out = run(["embed", files["t3"], files["bowtie"]])
    assert out.exit_code == 2


def test_trivial_separator(files):
    out = run(["trivial", files["t3"], files["sep_gw"]])
    assert out.exit_code == 0
    assert out.report.splitlines()[0] == "TRIVIAL"
    assert out.report.splitlines()[1].startswith("separator ")


def test_trivial_violation(files):
    out = run(["trivial", files["bowtie"], files["bowtie_gw"]])
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[0] == "NONTRIVIAL"
    assert lines[1].startswith("walk ")
    assert lines[2].startswith("product ")


def test_all_trivial_chain(files):
    assert run(["all-trivial", files["t3"]]).exit_code == 0


def test_all_trivial_bowtie_with_example(files):
    out = run(["all-trivial", files["bowtie"]])
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[0] == "NOT-ALL-TRIVIAL"
    assert lines[1] == "g"
    g = parse_weights("\n".join(lines[2:]) + "\n", bowtie())
    assert not triviality_witness(g).is_trivial


def test_all_trivial_without_a_sampled_example_exits_three(files, monkeypatch):
    # a negative verdict is never printed without its certificate
    monkeypatch.setattr(
        smalg.cli, "nontrivial_transitive_map", lambda rho: None
    )
    out = run(["all-trivial", files["bowtie"]])
    assert out.exit_code == 3
    assert out.report == "error: no transitive map with values +-2^k is nontrivial\n"


def test_all_trivial_on_the_mod_three_moore_space_exits_three(tmp_path):
    # H_1 = Z/3: the verdict is negative, but no map with values +-2^k
    # shows odd torsion, so no certificate can be printed
    path = tmp_path / "moore3.qo"
    path.write_text(format_relation(moore_face_poset(3)))
    out = run(["all-trivial", str(path)])
    assert out.exit_code == 3
    assert out.report == "error: no transitive map with values +-2^k is nontrivial\n"


@pytest.mark.parametrize("relation", ["bowtie", "seven"])
def test_all_trivial_example_is_constructed_without_random_numbers(
    files, monkeypatch, relation
):
    def no_randomness(*args, **kwargs):
        raise AssertionError("random numbers drawn")

    monkeypatch.setattr(smalg.sampling.random, "Random", no_randomness)
    out = run(["all-trivial", files[relation]])
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[:2] == ["NOT-ALL-TRIVIAL", "g"]
    rho = {"bowtie": bowtie(), "seven": seven_point()}[relation]
    g = parse_weights("\n".join(lines[2:]) + "\n", rho)
    assert not smalg.transmap.triviality_witness(g).is_trivial


def _counted_smith(monkeypatch):
    """The row counts of the reductions (``intlattice.lattice``) that
    ``transmap`` runs from here on: one Smith form each, with the kernel
    bases read off its column transform."""
    calls = []
    reduce = smalg.transmap.lattice

    def counted(rows, cols):
        calls.append(len(rows))
        return reduce(rows, cols)

    monkeypatch.setattr(smalg.transmap, "lattice", counted)
    return calls


def test_info_runs_one_smith_form(files, monkeypatch):
    # the bowtie is its own core: one reduction of its transitivity rows,
    # of which it has none
    calls = _counted_smith(monkeypatch)
    out = run(["info", files["bowtie"]])
    assert out.exit_code == 0
    assert out.report.splitlines()[-3:] == ["dichotomy true", "inner false", "extends false"]
    assert calls == [0]


def _memoized():
    """The functions whose values a relation keeps, by name: those wrapped
    by ``quasiorder._memo``, whose wrappers all share one code object."""
    kept = smalg.quasiorder._memo(lambda q: q).__code__
    return {
        f.__name__: f
        for module in (smalg.quasiorder, smalg.transmap)
        for f in vars(module).values()
        if getattr(f, "__code__", None) is kept
    }


@contextlib.contextmanager
def _body_runs():
    """Counts the runs of each memoized function's own body, by (name,
    relation id), while the block runs. The relations are held, so that no
    id is reused within the block."""
    codes = {f.__wrapped__.__code__: name for name, f in _memoized().items()}
    runs = collections.Counter()
    held = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            q = frame.f_locals[frame.f_code.co_varnames[0]]
            held.append(q)
            runs[codes[frame.f_code], id(q)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def test_info_builds_its_connectivity_classes_once(files):
    # the classes line, the dichotomy and the extends line share one search
    for name, last in (("bowtie", "extends false"), ("t3", "extends true")):
        with _body_runs() as runs:
            out = run(["info", files[name]])
        assert out.exit_code == 0
        assert out.report.splitlines()[-1] == last
        calls = [key for key in runs.elements() if key[0] == "approx_classes"]
        assert len(calls) == 1


# requests that read what their relations derive, each through several
# public functions; the names are keys of the ``files`` fixture
_DERIVING_REQUESTS = [
    ["info", "bowtie"],
    ["info", "seven"],
    ["info", "t3"],
    ["all-trivial", "bowtie"],
    ["all-trivial", "seven"],
    ["all-trivial", "chain10"],
    ["blocks", "bowtie"],
    ["embed", "--jordan", "vee3", "wedge3"],
    ["embed", "--jordan", "t3", "t3"],
    ["classify", "bowtie", "bowtie_lm"],
    ["classify", "--codomain", "t3", "t3", "id_t3"],
    ["diagonalize", "t3", "eye3"],
]


def _argv(files, request):
    return [files.get(a, a) for a in request]


def test_the_memoized_functions():
    assert sorted(_memoized()) == [
        "_beat_core",
        "_gauge",
        "_mutual_groups",
        "all_transitive_trivial",
        "approx_classes",
        "block_triangular_form",
        "reverse",
    ]


@pytest.mark.parametrize("request_", _DERIVING_REQUESTS, ids=" ".join)
def test_each_derived_value_is_computed_once_per_relation(files, request_):
    with _body_runs() as runs:
        out = run(_argv(files, request_))
    assert out.exit_code in (0, 1), out.report
    assert runs, "no memoized function ran"
    assert max(runs.values()) == 1, runs


def test_no_relation_outlives_its_request(files):
    # a value kept in a relation that held the relation would form a cycle,
    # freed only by the cyclic collector: with it off, the count would grow
    def relations():
        return sum(isinstance(o, smalg.quasiorder.QuasiOrder) for o in gc.get_objects())

    enabled = gc.isenabled()
    gc.disable()
    try:
        for request in _DERIVING_REQUESTS:
            before = relations()
            out = run(_argv(files, request))
            assert out.exit_code in (0, 1), out.report
            assert relations() == before, request
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def _unit_pivot_runs():
    """The runs of the body of ``intlattice._unit_pivots`` while the block
    runs, counted by its code object: a count of calls through the module
    name would miss a caller that holds the function."""
    code = smalg.intlattice._unit_pivots.__code__
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            runs.append(len(frame.f_locals["rows"]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


@contextlib.contextmanager
def _package_calls():
    """The names of the functions of src/smalg that run while the block
    runs, one entry per call."""
    root = os.path.dirname(smalg.__file__)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("relation", ["bowtie", "seven"])
def test_a_negative_all_trivial_runs_one_complement_reduction(files, relation):
    # the verdict and the printed map read one Smith reduction of the
    # complement and its column transform: no kernel over Q or GF(2) of
    # their own
    with _package_calls() as calls:
        out = run(["all-trivial", files[relation]])
    assert out.exit_code == 1
    assert calls.count("_dense_smith_factors") == 1
    assert "_kernel_basis" not in calls
    assert not [name for name in calls if "gf2" in name]


@pytest.mark.parametrize("command, vectors", [("all-trivial", 1), ("info", 0)])
def test_the_kernel_basis_is_extended_only_as_far_as_it_is_read(tmp_path, command, vectors):
    # the complete bipartite 12 x 12 relation has no composable pair, so
    # its 121 pairs off the forest are free columns: the verdict reads
    # only the factors and the printed map one vector, where a basis built
    # in full would hold 121 vectors of 144 entries
    path = tmp_path / "k12.qo"
    path.write_text(format_relation(
        from_edges(24, [(i, 12 + j) for i in range(1, 13) for j in range(1, 13)])
    ))
    with _package_calls() as calls:
        out = run([command, str(path)])
    assert out.exit_code == (1 if command == "all-trivial" else 0)
    assert calls.count("extend") == vectors


@pytest.mark.parametrize(
    "request_",
    [["all-trivial", "bowtie"], ["all-trivial", "seven"], ["info", "bowtie"], ["info", "seven"]],
    ids=" ".join,
)
def test_one_unit_pivot_elimination_per_request(files, request_):
    # the verdict and, after a negative all-trivial, its map read one
    # reduction, which runs the elimination once
    with _unit_pivot_runs() as runs:
        out = run(_argv(files, request_))
    assert out.exit_code == (1 if request_[0] == "all-trivial" else 0)
    assert len(runs) == 1, runs


def test_info_on_the_three_chain_runs_no_smith_form(files, monkeypatch):
    # the 3-chain strips down to one point
    calls = _counted_smith(monkeypatch)
    out = run(["info", files["t3"]])
    assert out.exit_code == 0
    assert out.report.splitlines()[-2:] == ["inner true", "extends true"]
    assert calls == []


def _timed_run(argv):
    started = time.monotonic()
    out = run(argv)
    return out, time.monotonic() - started


def test_info_on_the_twelve_antichain_under_five_seconds(tmp_path):
    # listing all 12! automorphisms would take hours; one pinned search
    # finds the swap of 1 and 2
    q = tmp_path / "a12.qo"
    q.write_text(format_relation(delta(12)))
    out, elapsed = _timed_run(["info", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[-3:] == ["dichotomy true", "inner false", "extends true"]


def test_info_on_the_thousand_antichain_under_five_seconds(tmp_path):
    # the pinned automorphism search places all 1,000 vertices; one nested
    # call per vertex passed the interpreter's recursion limit and exited 3
    q = tmp_path / "a1000.qo"
    q.write_text("1000\n")
    out, elapsed = _timed_run(["info", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[-4:] == [
        "rectangles 0", "dichotomy true", "inner false", "extends true"
    ]


def test_info_on_two_chains_beside_isolated_points_under_five_seconds(tmp_path):
    # the pinned search sending 3 to 31 gave the 27 isolated points the
    # image 3 in turn and met the dead end only when it placed 31 last
    q = tmp_path / "p31.qo"
    q.write_text("31\n2 31\n1 3\n")
    out, elapsed = _timed_run(["info", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[-3:] == ["dichotomy false", "inner false", "extends false"]


def test_info_on_the_1200_chain_under_five_seconds(tmp_path):
    # 719,400 pairs in a 5.9 MB file
    q = tmp_path / "c1200.qo"
    q.write_text(format_relation(upper_chain(1200)))
    out, elapsed = _timed_run(["info", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[0] == "n 1200"


def test_chain25_all_trivial_and_info_under_five_seconds(tmp_path):
    # 2,300 transitivity rows over 300 pairs; a dense Smith form of them
    # took about 15 s
    q = tmp_path / "c25.qo"
    q.write_text(format_relation(upper_chain(25)))
    out, elapsed = _timed_run(["all-trivial", str(q)])
    assert elapsed < 5.0
    assert (out.exit_code, out.report) == (0, "ALL-TRIVIAL\n")
    out, elapsed = _timed_run(["info", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[-3:] == ["dichotomy true", "inner true", "extends true"]


def test_all_trivial_on_the_two_hundred_chain_under_five_seconds(tmp_path):
    # the chain strips down to one point, so none of its 1,313,400
    # transitivity rows is built
    q = tmp_path / "c200.qo"
    q.write_text(format_relation(upper_chain(200)))
    out, elapsed = _timed_run(["all-trivial", str(q)])
    assert elapsed < 5.0
    assert (out.exit_code, out.report) == (0, "ALL-TRIVIAL\n")


def test_trivial_on_the_two_hundred_chain_under_one_second(tmp_path):
    # a separator map passes its spanning-forest potentials, so none of the
    # 1,313,400 composable pairs of its 19,900 strict pairs is walked
    rho = upper_chain(200)
    s = {i: i for i in range(1, 201)}
    q, gw = tmp_path / "c200.qo", tmp_path / "c200.gw"
    q.write_text(format_relation(rho))
    gw.write_text(format_weights(separator_map(rho, s)))
    out, elapsed = _timed_run(["trivial", str(q), str(gw)])
    assert elapsed < 1.0
    assert out.exit_code == 0
    # the potentials start from 1 at vertex 1: s itself
    assert out.report == "TRIVIAL\nseparator " + " ".join(map(str, range(1, 201))) + "\n"


def test_all_trivial_on_a_sixty_chain_beside_a_bowtie_under_five_seconds(tmp_path):
    # the core is the bowtie beside one point; the map found there is pulled
    # back along the chain's retraction
    rho = from_edges(
        64, [(i, i + 1) for i in range(1, 60)] + [(61, 63), (61, 64), (62, 63), (62, 64)]
    )
    q = tmp_path / "c60b.qo"
    q.write_text(format_relation(rho))
    out, elapsed = _timed_run(["all-trivial", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[:2] == ["NOT-ALL-TRIVIAL", "g"]
    g = parse_weights("\n".join(lines[2:]) + "\n", rho)
    assert not triviality_witness(g).is_trivial
    assert out.report == "NOT-ALL-TRIVIAL\ng\n" + format_weights(g)


def _ordinal_sum_with_a_bowtie(glued):
    """The ordinal sum of twenty 2-point antichains {1,2} < {3,4} < ... <
    {39,40} with a bowtie: beside it on 41..44, or glued at the top vertex 40
    as {40,41} < {42,43}."""
    levels = [(2 * k + 1, 2 * k + 2) for k in range(20)]
    pairs = [
        (a, b) for s in range(20) for t in range(s + 1, 20)
        for a in levels[s] for b in levels[t]
    ]
    if glued:
        return from_edges(43, pairs + [(40, 42), (40, 43), (41, 42), (41, 43)])
    return from_edges(44, pairs + [(41, 43), (41, 44), (42, 43), (42, 44)])


@pytest.mark.parametrize("glued", [False, True], ids=["beside", "wedge"])
def test_all_trivial_on_an_ordinal_sum_with_a_bowtie_under_five_seconds(tmp_path, glued):
    # every vertex is in the core: 764 or 840 strict pairs, 9,120 or
    # 10,564 composable triples. A dense column reduction over every strict
    # pair took 4.8 s on the first and 6.4 s on the second. In the
    # spanning-forest gauge every column but one takes a unit pivot, and
    # the map is 2 on that one pair
    rho = _ordinal_sum_with_a_bowtie(glued)
    q = tmp_path / "sum.qo"
    q.write_text(format_relation(rho))
    out, elapsed = _timed_run(["all-trivial", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[:2] == ["NOT-ALL-TRIVIAL", "g"]
    g = parse_weights("\n".join(lines[2:]) + "\n", rho)
    assert not triviality_witness(g).is_trivial
    assert sum(v != 1 for (_, v) in g.items()) == 1


def test_info_on_the_full_eighty_point_relation_under_five_seconds(tmp_path):
    # the 9,985,600 rectangles are counted, not listed
    q = tmp_path / "full80.qo"
    q.write_text(format_relation(full(80)))
    out, elapsed = _timed_run(["info", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    block = "{" + ",".join(str(k) for k in range(1, 81)) + "}"
    assert out.report == "\n".join([
        "n 80",
        f"classes {block}",
        f"mutual-classes {block}",
        "center-dimension 1",
        f"rectangles {3160 ** 2}",
        "dichotomy true",
        "inner true",
        "extends true",
    ]) + "\n"


def test_close_on_twenty_thousand_isolated_vertices_under_five_seconds(tmp_path):
    # a closure pass through a vertex with no strict successor adds nothing;
    # running all 20,000 of them over all 20,000 rows took more than 60 s
    q = tmp_path / "e20000.qo"
    q.write_text("20000\n")
    out, elapsed = _timed_run(["close", str(q)])
    assert elapsed < 5.0
    assert (out.exit_code, out.report) == (0, "20000\n")


def test_close_on_a_forty_thousand_point_forest_under_five_seconds(tmp_path):
    # 2,000 roots; every other vertex hangs under a random smaller one. The
    # closure took one pass over all rows per vertex with a child; one
    # strongly connected component pass reads each pair once
    n, roots = 40_000, 2_000
    rng = random.Random(40)
    parent = [0] * (n + 1)
    for v in range(roots + 1, n + 1):
        parent[v] = rng.randrange(1, v)
    q = tmp_path / "forest40000.qo"
    q.write_text(f"{n}\n" + "".join(f"{parent[v]} {v}\n" for v in range(roots + 1, n + 1)))
    out, elapsed = _timed_run(["close", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    # one strict pair per vertex and strict ancestor
    depth = [0] * (n + 1)
    for v in range(roots + 1, n + 1):
        depth[v] = depth[parent[v]] + 1
    lines = out.report.splitlines()
    assert lines[0] == str(n)
    assert len(lines) == 1 + sum(depth)


def test_info_on_the_five_thousand_antichain_under_five_seconds(tmp_path):
    # the pinned automorphism search checked each candidate against every
    # placed vertex; the row masks of the placed images check it at once
    q = tmp_path / "a5000.qo"
    q.write_text("5000\n")
    out, elapsed = _timed_run(["info", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[-4:] == [
        "rectangles 0", "dichotomy true", "inner false", "extends true"
    ]


@pytest.mark.parametrize("text", ["40001\n1 2\n", "2000000\n"])
def test_vertex_count_above_the_limit_exits_two_at_once(tmp_path, text):
    # an empty relation on n vertices holds n^2 bits of row masks; the
    # 8-byte file "2000000" ran out of memory before the limit
    q = tmp_path / "big.qo"
    q.write_text(text)
    count = text.split()[0]
    for command in ("close", "info", "blocks"):
        out, elapsed = _timed_run([command, str(q)])
        assert elapsed < 1.0
        assert (out.exit_code, out.report) == (
            2,
            f"error: {q}: line 1: vertex count {count} exceeds the limit of 40000\n",
        )


def test_selftest_n_above_the_vertex_limit_exits_two():
    for n in ("21", "40001"):
        out = run(["selftest", "--n", n])
        assert (out.exit_code, out.report) == (2, "error: --n must be at most 20\n")


@pytest.mark.parametrize("n", ["1", "0", "-5"])
def test_selftest_n_below_two_exits_two(n):
    out = run(["selftest", "--n", n])
    assert (out.exit_code, out.report) == (2, "error: --n must be at least 2\n")


def test_blocks_on_the_thousand_antichain_under_five_seconds(tmp_path):
    # rescanning the remaining classes before each placement took 34 s
    n = 1000
    q = tmp_path / "a1000.qo"
    q.write_text(format_relation(delta(n)))
    out, elapsed = _timed_run(["blocks", str(q)])
    assert elapsed < 5.0
    assert out.exit_code == 0
    ones = " ".join(["1"] * n)
    identity = " ".join("0" * k + "1" + "0" * (n - 1 - k) for k in range(n))
    order = " ".join(f"{{{v}}}" for v in range(1, n + 1))
    assert out.report == (
        f"pi {' '.join(str(v) for v in range(1, n + 1))}\nsizes {ones}\n"
        f"presence {identity}\nclass-order {order}\n"
    )


def test_witness_bowtie(files):
    out = run(["witness", files["bowtie"], files["bowtie_gw"]])
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[0] == "WITNESS"
    assert lines[-1] == "RANKS 1 2"
    witness = parse_matrix("\n".join(lines[1:-1]) + "\n")
    g = validate(bowtie(), bowtie_weights())
    assert rank(witness) == 1
    assert rank(apply_induced(g, witness)) == 2


def test_witness_trivial_map(files):
    out = run(["witness", files["t3"], files["sep_gw"]])
    assert out.exit_code == 0
    assert out.report.splitlines()[0] == "TRIVIAL"


def test_diagonalize_family(files, tmp_path):
    rho = upper_chain(3)
    s = DenseMatrix.identity(3) + DenseMatrix.unit(3, 1, 2)
    s_inv = inverse(s)
    mats = []
    for k, diag in enumerate(([1, 2, 2], [0, 1, 1])):
        m = s * DenseMatrix.diag(diag) * s_inv
        p = tmp_path / f"m{k}.gm"
        p.write_text(format_matrix(m))
        mats.append(str(p))
    out = run(["diagonalize", files["t3"]] + mats)
    assert out.exit_code == 0
    lines = out.report.splitlines()
    assert lines[0] == "S"
    assert lines[-2] == "diag 1 2 2"
    assert lines[-1] == "diag 0 1 1"


def test_diagonalize_nilpotent(files, tmp_path):
    t2 = tmp_path / "t2.qo"
    t2.write_text(format_relation(upper_chain(2)))
    out = run(["diagonalize", str(t2), files["nilp"]])
    assert out.exit_code == 1
    assert "NOT-DIAGONALIZABLE" in out.report


def test_diagonalize_large_prime_spectrum_under_five_seconds(tmp_path):
    # The characteristic-polynomial route trial-divides the norm of
    # 1000000007 * 999999937 and gives no result in 30 s.
    t2 = tmp_path / "t2.qo"
    t2.write_text("2\n1 2\n")
    m = tmp_path / "m.gm"
    m.write_text("2 2\n1000000007 1\n0 999999937\n")
    started = time.monotonic()
    out = run(["diagonalize", str(t2), str(m)])
    assert time.monotonic() - started < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[-1] == "diag 1000000007 999999937"


P, Q, R = 999999937, 1000000007, 1000000009


def _diagonalize_on_a_full_block(tmp_path, m):
    q = tmp_path / "full.qo"
    q.write_text(format_relation(full(m.rows)))
    gm = tmp_path / "m.gm"
    gm.write_text(format_matrix(m))
    return _timed_run(["diagonalize", str(q), str(gm)])


def test_diagonalize_lower_triangular_prime_spectrum_under_five_seconds(tmp_path):
    # not upper-triangular, so the spectrum comes from the root search; the
    # divisor search trial-divided the norm of 1000000007 * 999999937
    out, elapsed = _diagonalize_on_a_full_block(
        tmp_path, DenseMatrix.from_rows([[Q, 0], [70, P]])
    )
    assert elapsed < 5.0
    assert (out.exit_code, out.report) == (0, f"S\n2 2\n0 1\n-1 1\ndiag {P} {Q}\n")


def test_diagonalize_three_prime_spectrum_on_a_full_block_under_five_seconds(tmp_path):
    s = DenseMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 2]])
    m = s * DenseMatrix.diag([R, P, Q]) * inverse(s)
    assert not m.is_upper_triangular()
    out, elapsed = _diagonalize_on_a_full_block(tmp_path, m)
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[-1] == f"diag {P} {Q} {R}"


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 2], [1, 0]],
        [[Q, 1], [1, P]],
        [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]],
    ],
)
def test_diagonalize_irrational_block_stays_negative(tmp_path, rows):
    # x^2 - 2, x^2 - (P + Q) x + PQ - 1 with discriminant (Q - P)^2 + 4,
    # and (x^2 - 2)(x^2 - 3), diagonalizable over the reals
    out, elapsed = _diagonalize_on_a_full_block(tmp_path, DenseMatrix.from_rows(rows))
    assert elapsed < 5.0
    assert (out.exit_code, out.report) == (
        1, "NOT-DIAGONALIZABLE member 1 has irrational eigenvalues\n"
    )


def test_diagonalize_names_a_defective_irrational_block_not_diagonalizable(tmp_path):
    # minimal polynomial (x^2 - 2)^2: irrational and not diagonalizable,
    # and the second is named, as the test by the minimal polynomial does
    rows = [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]]
    out, _ = _diagonalize_on_a_full_block(tmp_path, DenseMatrix.from_rows(rows))
    assert (out.exit_code, out.report) == (
        1, "NOT-DIAGONALIZABLE member 1 is not diagonalizable\n"
    )


def test_diagonalize_unsupported_entry(files):
    out = run(["diagonalize", files["t3"], files["low"]])
    assert out.exit_code == 2
    assert "(2, 1)" in out.report


def test_classify_identity(files):
    out = run(["classify", files["t3"], files["id_t3"]])
    assert out.exit_code == 0
    lines = out.report.splitlines()
    assert lines[0] == "FORM"
    assert "classes 1,2,3" in lines


def test_classify_not_jordan(files):
    out = run(["classify", files["corner"], files["corner_lm"]])
    assert out.exit_code == 1
    assert out.report.splitlines()[0] == "NOT-JORDAN"
    assert "pair" in out.report


@pytest.mark.parametrize(
    "rho, unit_pair, image, named",
    [
        # phi(E_12) = E_13 on the 3-chain: the identity holds at E_11 and
        # E_12, and fails at E_22 and E_12
        (upper_chain(3), (1, 2), (1, 3), ((2, 2), (1, 2))),
        # phi(E_34) = E_43 beside E_12 and E_14: E_12 and E_34 share no
        # vertex, so both sides at that pair are 0
        (from_edges(4, [(1, 2), (3, 4), (1, 4)]), (3, 4), (4, 3), ((1, 4), (3, 4))),
    ],
    ids=["leaves-span", "shared-class"],
)
def test_not_jordan_names_a_pair_that_breaks_the_identity(
    tmp_path, rho, unit_pair, image, named
):
    n = rho.n
    images = {p: DenseMatrix.unit(n, *p) for p in rho.pairs()}
    images[unit_pair] = DenseMatrix.unit(n, *image)
    phi = linear_map(rho, images)
    assert oracles.jordan_pair_violated(phi, named)
    rel, lm = tmp_path / "r.qo", tmp_path / "m.lm"
    rel.write_text(format_relation(rho))
    lm.write_text(format_linear_map(phi))
    (a, b), (c, d) = named
    out = run(["classify", str(rel), str(lm)])
    assert (out.exit_code, out.report) == (1, f"NOT-JORDAN\npair ({a},{b}) ({c},{d})\n")
    out = run(["--format", "json-lines", "classify", str(rel), str(lm)])
    pair = json.dumps({"pair": [list(p) for p in named]})
    assert (out.exit_code, out.report) == (1, f'{{"verdict": "not-jordan"}}\n{pair}\n')
    out = run(["check-rank", str(rel), str(lm)])
    assert out.exit_code == 1
    assert f"NOTE fails rank: not Jordan at unit pair {named}" in out.report.splitlines()


def test_classify_codomain_support(files):
    out = run(["classify", "--codomain", files["delta3"], files["t3"], files["id_t3"]])
    assert out.exit_code == 1
    assert out.report.splitlines()[0] == "UNSUPPORTED"


@pytest.mark.parametrize(
    "command, inversions",
    [
        (["classify", "{qo}", "{lm}"], 1),
        (["classify", "--codomain", "{qo}", "{qo}", "{lm}"], 2),
        (["check-rank-one", "{qo}", "{lm}"], 1),
        (["check-rank", "{qo}", "{lm}"], 2),
        (["synthesize", "{qo}", "--s", "{s}", "--classes", "1,2,3,4", "--g", "{g}"], 1),
        (["embed", "--jordan", "{qo}", "{qo}"], 0),
    ],
)
def test_each_form_is_inverted_once(tmp_path, monkeypatch, command, inversions):
    """classify inverts S0 only; --codomain adds the diagonalizer's S;
    check-rank inverts phi(I) and S0, and takes the inverse of the absorbed
    similarity S0 Gamma from S0^-1. synthesize inverts S and verifies the
    map it builds with S^-1, its rows scaled; embed --jordan checks the
    support of its permutation, so it inverts nothing and classifies
    nothing."""
    rho = upper_chain(4)
    s = DenseMatrix.from_rows(
        [[1, 2, 0, 1], [0, 1, -1, 0], [0, 0, 2, "1i"], [0, 0, 0, -1]]
    )
    g = separator_map(rho, {1: 2, 2: 1, 3: "1/3", 4: "1i"})
    phi = synthesize_jordan(rho, s, {1, 2, 3, 4}, g)
    paths = {name: tmp_path / name for name in ("qo", "lm", "s", "g")}
    paths["qo"].write_text(format_relation(rho))
    paths["lm"].write_text(format_linear_map(phi))
    paths["s"].write_text(format_matrix(s))
    paths["g"].write_text(format_weights(g))
    calls, classified = [], []
    real_inverse = smalg.exactnum.inverse
    real_classify = smalg.jordan.classify_jordan

    def counting(m):
        calls.append(m)
        return real_inverse(m)

    def counting_classify(phi):
        classified.append(phi)
        return real_classify(phi)

    for module in (smalg.cli, smalg.diag, smalg.jordan, smalg.rankpres):
        monkeypatch.setattr(module, "inverse", counting)
    for module in (smalg.cli, smalg.jordan, smalg.rankpres):
        monkeypatch.setattr(module, "classify_jordan", counting_classify)
    out = run([a.format(**paths) for a in command])
    assert out.exit_code == 0
    assert len(calls) == inversions
    if command[0] == "embed":
        assert "pi 1 2 3 4" in out.report.splitlines()
        assert classified == []


def test_classify_synthesize_round_trip(files):
    """Feeding the classify report back through synthesize regenerates the
    identical map file."""
    out = run(["classify", files["t3"], files["tr_t3"]])
    assert out.exit_code == 0
    lines = out.report.splitlines()
    i_s = lines.index("S")
    i_classes = next(k for k, ln in enumerate(lines) if ln.startswith("classes "))
    i_g = lines.index("g")
    stem = files["dir"]
    with open(stem + "/rt_s.gm", "w") as fh:
        fh.write("\n".join(lines[i_s + 1 : i_classes]) + "\n")
    with open(stem + "/rt_g.gw", "w") as fh:
        fh.write("\n".join(lines[i_g + 1 :]) + "\n")
    out2 = run(
        [
            "synthesize",
            files["t3"],
            "--s",
            stem + "/rt_s.gm",
            "--classes",
            lines[i_classes].split(" ", 1)[1],
            "--g",
            stem + "/rt_g.gw",
        ]
    )
    assert out2.exit_code == 0
    assert parse_linear_map(out2.report) == transpose_map(upper_chain(3))
    with open(files["tr_t3"]) as fh:
        assert out2.report == fh.read()


def test_synthesize_rejects_non_class_union(files):
    out = run(
        [
            "synthesize",
            files["vee3"],
            "--s",
            files["eye3"],
            "--classes",
            "1",
            "--g",
            files["sep_gw"],
        ]
    )
    assert out.exit_code == 2


def test_check_rank_transpose(files):
    out = run(["check-rank", files["t3"], files["tr_t3"]])
    assert out.exit_code == 0
    assert out.report.splitlines()[0] == "VERDICT RankPreserver"


def test_check_rank_bowtie(files):
    out = run(["check-rank", files["bowtie"], files["bowtie_lm"]])
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[0] == "VERDICT Neither"
    assert "WITNESS" in lines
    assert "RANKS 1 2" in lines


def test_check_rank_bounded_chain10(files):
    out = run(["check-rank", "--max-rank", "4", files["chain10"], files["chain10_lm"]])
    assert out.exit_code == 1
    assert "RANKS 4 5" in out.report


def test_check_rank_bounded_ok(files):
    out = run(["check-rank", "--max-rank", "2", files["t3"], files["id_t3"]])
    assert out.exit_code == 0
    assert "BOUNDED-OK" in out.report


def test_seven_point_rank_verdicts_agree(files):
    """Every rank command finds the rank-one witness on the unbalanced
    rectangle, whatever the seed; none of them samples here."""
    rel, lm = files["seven"], files["seven_lm"]
    for seed in range(6):
        out = run(["--seed", str(seed), "check-rank", "--max-rank", "1", rel, lm])
        assert out.exit_code == 1
        assert out.report.splitlines()[-1] == "RANKS 1 2"
    for argv in (
        ["witness", rel, files["seven_gw"]],
        ["check-rank", rel, lm],
        ["check-rank-one", rel, lm],
    ):
        out = run(argv)
        assert out.exit_code == 1
        assert "RANKS 1 2" in out.report.splitlines()


def test_check_rank_one_bowtie(files):
    out = run(["check-rank-one", files["bowtie"], files["bowtie_lm"]])
    assert out.exit_code == 1
    assert "VERDICT Neither" in out.report


def test_check_rank_one_chain10(files):
    out = run(["check-rank-one", files["chain10"], files["chain10_lm"]])
    assert out.exit_code == 0
    assert "VERDICT RankOnePreserver" in out.report


def test_check_rank_one_not_unital(files):
    out = run(["check-rank-one", files["corner"], files["corner_lm"]])
    assert out.exit_code == 2


def test_check_rank_one_vanishing_unit_is_a_verdict(tmp_path):
    # E_12 has rank one and its image rank zero: a negative verdict with
    # the unit as its witness, as check-rank gives, not unusable input
    rel = tmp_path / "t2.qo"
    rel.write_text("2\n1 2\n")
    lm = tmp_path / "vanish.lm"
    lm.write_text("2\nunit 1 1\n1 0\n0 0\nunit 1 2\n0 0\n0 0\nunit 2 2\n0 0\n0 1\n")
    out = run(["check-rank-one", str(rel), str(lm)])
    assert (out.exit_code, out.report) == (
        1,
        "VERDICT Neither\nWITNESS\n2 2\n0 1\n0 0\nRANKS 1 0\n"
        "NOTE the unit image at (1, 2) vanishes\n",
    )
    out = run(["--format", "json-lines", "check-rank-one", str(rel), str(lm)])
    assert out.exit_code == 1
    assert [json.loads(line) for line in out.report.splitlines()] == [
        {"verdict": "Neither"},
        {"ranks": [1, 0], "witness": "2 2\n0 1\n0 0\n"},
        {"note": "the unit image at (1, 2) vanishes"},
    ]
    out = run(["check-rank", str(rel), str(lm)])
    assert out.exit_code == 1
    assert "RANKS 1 0" in out.report.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["check-rank"],
        ["check-rank", "--max-rank", "1"],
        ["check-rank-one"],
    ],
)
def test_a_witness_that_keeps_its_rank_under_the_map_is_an_internal_error(
    files, monkeypatch, argv
):
    # with apply returning its argument, phi(I) = I and the image of the
    # cycle matrix keeps its rank: the check against phi must fail, never
    # print the unchecked ranks as a verdict
    monkeypatch.setattr(smalg.rankpres, "apply", lambda phi, x: x)
    out = run(argv + [files["bowtie"], files["bowtie_lm"]])
    assert (out.exit_code, out.report) == (
        3, "error: cycle matrix does not change rank by one\n"
    )


@pytest.mark.parametrize(
    "name, rho, weights",
    [("bowtie", bowtie(), bowtie_weights()), ("chain10", chain10(), chain10_weights())],
)
def test_a_non_unital_map_is_convicted_by_its_own_ranks(files, tmp_path, name, rho, weights):
    # phi = M g*(.) with M invertible and outside the algebra: check-rank
    # prints the cycle matrix of g, with its ranks under phi
    g = validate(rho, weights)
    n = rho.n
    m = DenseMatrix.from_entries(
        n, n, {**{(i, i): 1 for i in range(1, n + 1)}, (n, 1): 2, (1, n): "1i"}
    )
    assert (n, 1) not in rho and rank(m) == n
    images = {
        p: m * DenseMatrix.unit(n, *p).scale(g.value(*p)) for p in rho.pairs()
    }
    lm = tmp_path / "scaled.lm"
    lm.write_text(format_linear_map(linear_map(rho, images)))
    witness = run(["witness", files[name], files[f"{name}_gw"]])
    out = run(["check-rank", files[name], str(lm)])
    assert out.exit_code == 1
    lines = out.report.splitlines()
    assert lines[0] == "VERDICT Neither"
    assert lines[1:-2] == witness.report.splitlines()[:-1]
    x = parse_matrix("\n".join(lines[2:-2]))
    image = DenseMatrix.zeros(n, n)
    for p in x.support():
        image = image + images[p].scale(x.at(*p))
    ranks = (oracles.oracle_rank_of(x), oracles.oracle_rank_of(image))
    assert lines[-2] == "RANKS {} {}".format(*ranks)
    assert lines[-1] == "NOTE fails rank: the weight map is not trivial"


@pytest.mark.parametrize("command", ["classify", "check-rank", "check-rank-one"])
def test_a_jordan_map_is_read_without_its_dense_matrix(tmp_path, command):
    # a map over the 30-chain, 465 units in about 850 KB of text: the
    # images stay as their nonzeros, and no n x (n |rho|) matrix is built
    phi = corpus_style_jordan_map(30, 0)
    rel = tmp_path / "chain30.qo"
    rel.write_text(format_relation(phi.rho))
    lm = tmp_path / "chain30.lm"
    lm.write_text(format_linear_map(phi))
    argv = [command, str(rel), str(lm)]
    gc.collect()
    tracemalloc.start()
    try:
        out = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.exit_code == 0
    assert peak < 9_000_000


def test_verdict_form_blocks(files):
    # check-rank and check-rank-one print the FORM block classify prints
    form = run(["classify", files["t3"], files["id_t3"]])
    assert form.exit_code == 0
    for command, kind in (("check-rank", "RankPreserver"),
                          ("check-rank-one", "RankOnePreserver")):
        out = run([command, files["t3"], files["id_t3"]])
        assert out.exit_code == 0
        lines = out.report.splitlines()
        assert lines[0] == f"VERDICT {kind}"
        assert lines[1:] == form.report.splitlines()
        assert "classes 1,2,3" in lines and "P" not in lines


def test_verdict_witness_blocks(files):
    # one WITNESS writer: the verdict's block is the witness command's block
    witness = run(["witness", files["bowtie"], files["bowtie_gw"]])
    out = run(["check-rank-one", files["bowtie"], files["bowtie_lm"]])
    lines = out.report.splitlines()
    assert lines[0] == "VERDICT Neither"
    assert lines[1:-1] == witness.report.splitlines()
    assert lines[-1] == "NOTE rectangle minor does not vanish"
    records = [
        json.loads(line)
        for argv in (
            ["witness", files["bowtie"], files["bowtie_gw"]],
            ["check-rank-one", files["bowtie"], files["bowtie_lm"]],
            ["check-rank", "--max-rank", "1", files["bowtie"], files["bowtie_lm"]],
        )
        for line in run(["--format", "json-lines"] + argv).report.splitlines()
    ]
    shaped = [r for r in records if "witness" in r or "ranks" in r]
    assert len(shaped) == 3
    assert all(set(r) == {"witness", "ranks"} and r["ranks"] == [1, 2] for r in shaped)


def test_verdict_deterministic(files):
    argv = ["check-rank", files["chain10"], files["chain10_lm"]]
    first = run(argv)
    assert first.exit_code == 1
    assert run(argv) == first


def test_map_relation_mismatch(files):
    out = run(["check-rank", files["bowtie"], files["id_t3"]])
    assert out.exit_code == 2


def test_selftest(files):
    out = run(["--seed", "5", "selftest", "--n", "5"])
    assert out.exit_code == 0
    assert out.report.count("ok ") == 4


def test_reports_deterministic(files):
    for argv in (
        ["info", files["bowtie"]],
        ["witness", files["chain10"], files["chain10_gw"]],
        ["check-rank", files["bowtie"], files["bowtie_lm"]],
    ):
        assert run(argv).report == run(argv).report


def test_module_entry_point(files):
    # pytest's pythonpath setting does not reach a subprocess.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smalg.cli", "info", files["delta3"]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "center-dimension 3" in proc.stdout


def test_no_command_is_input_error():
    assert run([]).exit_code == 2


# --- internal failures exit 3 ------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_failed_reverification_exits_three(files, tmp_path, monkeypatch, fmt):
    # the column step leaves every column of S at its unit column
    def bare_units(family, spectra, sources, targets, factors):
        return DenseMatrix.from_entries(
            len(sources), len(sources), {(src, j): 1 for j, src in enumerate(sources, 1)}
        )

    monkeypatch.setattr(smalg.diag, "_push", bare_units)
    t2 = tmp_path / "t2.qo"
    t2.write_text(format_relation(upper_chain(2)))
    m = tmp_path / "m.gm"
    m.write_text("2 2\n0 1\n0 1\n")
    out = run(["--format", fmt, "diagonalize", str(t2), str(m)])
    assert out.exit_code == 3
    message = "error: conjugate failed to come out diagonal"
    if fmt == "json-lines":
        assert json.loads(out.report) == {"error": message}
    else:
        assert out.report == message + "\n"


def test_internal_inconsistency_in_classify_exits_three(files, monkeypatch):
    def broken(phi):
        raise InternalInconsistency("canonical form lost a class")

    monkeypatch.setattr(smalg.cli, "classify_jordan", broken)
    out = run(["classify", files["t3"], files["id_t3"]])
    assert out.exit_code == 3
    assert out.report == "error: canonical form lost a class\n"


def _synthesize_argv(files, classes="1,2,3"):
    return [
        "synthesize", files["t3"], "--s", files["eye3"],
        "--classes", classes, "--g", files["sep_gw"],
    ]


@pytest.mark.parametrize("jordan", [False, True])
def test_embedding_witness_off_support_exits_three(files, monkeypatch, jordan):
    def reversal(rho, rho2, limit=None):
        return [tuple(range(rho.n, 0, -1))]

    monkeypatch.setattr(smalg.jordan, "increasing_permutations", reversal)
    argv = ["embed"] + (["--jordan"] if jordan else []) + [files["t3"], files["t3"]]
    out = run(argv)
    assert out.exit_code == 3
    assert out.report == "error: embedding witness fails support\n"


def test_synthesized_map_failing_the_ladder_exits_three(files, monkeypatch):
    # synthesize runs classify_jordan's pass, in the frame of the given S
    def broken(phi, s0, s0inv):
        raise NotJordan("images of E_11 and E_22 are not orthogonal",
                        pair=((1, 1), (2, 2)))

    monkeypatch.setattr(smalg.jordan, "_verified_form", broken)
    out = run(_synthesize_argv(files))
    assert out.exit_code == 3
    assert out.report == (
        "error: synthesized map failed re-verification: "
        "images of E_11 and E_22 are not orthogonal\n"
    )


def test_synthesized_map_leading_off_its_similarity_exits_three(files, monkeypatch):
    # the pass trusts S^-1 with its rows scaled only when S0 = S D
    monkeypatch.setattr(
        smalg.jordan, "_leading_columns", lambda phi: DenseMatrix.identity(3).scale(2)
    )
    out = run(_synthesize_argv(files))
    assert out.exit_code == 3
    assert out.report == (
        "error: the diagonal images of the synthesized map do not lead with S\n"
    )


@pytest.mark.parametrize(
    "name, replacement, message",
    [
        (
            "permutation_matrix",
            lambda pi: smalg.exactnum.permutation_matrix(pi[::-1]),
            "residual similarity is not diagonal",
        ),
        ("rho_U", lambda rho, u: full(rho.n), "permutation is not increasing into codomain"),
    ],
)
def test_malformed_codomain_form_exits_three(files, monkeypatch, name, replacement, message):
    """The codomain form is derived from the classified one, not compared
    again: a residual similarity that is not diagonal, or a pi that leaves
    the codomain, is an internal failure."""
    monkeypatch.setattr(smalg.jordan, name, replacement)
    out = run(["classify", "--codomain", files["t3"], files["t3"], files["id_t3"]])
    assert out.exit_code == 3
    assert out.report == f"error: {message}\n"


def test_jordan_certificates_do_not_use_the_all_pairs_check(files, monkeypatch):
    # the all-pairs check lives in the tests' oracles, out of the package's reach
    def forbidden(phi):
        raise AssertionError("all-pairs Jordan check called")

    monkeypatch.setattr(oracles, "is_jordan_homomorphism", forbidden)
    assert not hasattr(smalg.jordan, "is_jordan_homomorphism")
    out = run(_synthesize_argv(files))
    assert out.exit_code == 0
    assert parse_linear_map(out.report).rho == upper_chain(3)
    out = run(["embed", "--jordan", files["vee3"], files["wedge3"]])
    assert out.exit_code == 0
    assert "pi 1 2 3" in out.report


def test_violation_walk_with_unit_product_exits_three(files, monkeypatch):
    monkeypatch.setattr(smalg.transmap, "walk_product", lambda g, walk: ONE)
    out = run(["trivial", files["bowtie"], files["bowtie_gw"]])
    assert out.exit_code == 3
    assert out.report == "error: violation walk with unit product\n"


@pytest.mark.parametrize("classes", ["\u0661,2", "1_0"])
def test_classes_take_ascii_digits_only(files, classes):
    out = run(_synthesize_argv(files, classes))
    assert out.exit_code == 2
    assert out.report == f"error: --classes: {classes!r} is not a comma list\n"


# --- one parser, and input that used to end in a traceback ---------------------


def test_parser_is_built_once_and_reused(files):
    first = run(["info", files["bowtie"]])
    assert smalg.cli._build_parser() is smalg.cli._build_parser()
    for argv in (
        ["close", files["t3"]],
        ["no-such-command"],
        ["blocks", files["vee3"]],
        ["info", files["bowtie"]],
    ):
        out = run(argv)
        if argv == ["no-such-command"]:
            assert out.exit_code == 2
        else:
            assert out.exit_code == 0
    assert run(["info", files["bowtie"]]) == first
    assert run(["--format", "json-lines", "close", files["t3"]]).report.startswith("{")
    assert not run(["close", files["t3"]]).report.startswith("{")


@pytest.mark.parametrize("bound", ["0", "4", "-1"])
def test_max_rank_outside_one_to_n_is_input_error(files, bound):
    out = run(["check-rank", "--max-rank", bound, files["t3"], files["id_t3"]])
    assert out.exit_code == 2
    assert out.report == "error: --max-rank must lie in 1..3\n"


def test_classify_codomain_of_another_size_is_input_error(files):
    out = run(["classify", "--codomain", files["bowtie"], files["t3"], files["id_t3"]])
    assert out.exit_code == 2
    assert out.report == "error: codomain lives on a different vertex count\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "1_0", "selftest"],
        ["--seed", "١", "selftest"],
        ["selftest", "--n", "٣"],
        ["check-rank", "--max-rank", "١", "REL", "MAP"],
    ],
)
def test_integer_flags_take_ascii_digits_only(files, argv):
    argv = [files["t3"] if a == "REL" else files["id_t3"] if a == "MAP" else a
            for a in argv]
    out = run(argv)
    assert out.exit_code == 2
    assert out.report == ""


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_unexpected_exception_exits_three(files, monkeypatch, fmt):
    def broken(q):
        raise ValueError("lost a class")

    monkeypatch.setattr(smalg.cli, "block_triangular_form", broken)
    out = run(["--format", fmt, "blocks", files["t3"]])
    assert out.exit_code == 3
    message = "error: ValueError: lost a class"
    if fmt == "json-lines":
        assert json.loads(out.report) == {"error": message}
    else:
        assert out.report == message + "\n"


def test_selftest_round_trip_reports_a_failed_ladder(monkeypatch):
    def broken(rho, s, u, g):
        raise InternalInconsistency("synthesized map failed re-verification")

    monkeypatch.setattr(smalg.cli, "synthesize_jordan", broken)
    out = run(["selftest", "--n", "3"])
    assert out.exit_code == 1
    assert "FAIL round-trip: classification round trip failed" in out.report.splitlines()


# --- a literal too long for int() is bad input ------------------------------------

HUGE = "1" + "0" * 5000
TOO_LONG = "scalar literal '10000000000000000000'... has too many digits"


@pytest.mark.parametrize(
    "command, name, text, line",
    [
        ("diagonalize", "m.gm", f"2 2\n1 0\n0 {HUGE}\n", 3),
        ("trivial", "g.gw", f"# weights\n1 2 {HUGE}\n", 2),
        ("classify", "phi.lm",
         f"2\nunit 1 1\n1 0\n0 0\nunit 1 2\n0 {HUGE}\n0 0\nunit 2 2\n0 0\n0 1\n", 6),
    ],
)
def test_literal_too_long_for_int_exits_two_on_its_line(tmp_path, command, name, text, line):
    t2 = tmp_path / "t2.qo"
    t2.write_text("2\n1 2\n")
    path = tmp_path / name
    path.write_text(text)
    out = run([command, str(t2), str(path)])
    assert (out.exit_code, out.report) == (2, f"error: {path}: line {line}: {TOO_LONG}\n")


# --- linear maps ------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain30_map(tmp_path_factory):
    """A Jordan map on the 30-chain, 465 units in an 850 KB file: S from 30
    elementary steps, every unit transposed, g(i, j) = i / j."""
    root = tmp_path_factory.mktemp("chain30")
    rho = upper_chain(30)
    s = random_invertible_in_sma(rho, random.Random(30), steps=30)
    g = separator_map(rho, {i: i for i in range(1, 31)})
    phi = CanonicalJordanForm(s=s, u=frozenset(), g=g).reconstruct()
    qo, lm = root / "c30.qo", root / "c30.lm"
    qo.write_text(format_relation(rho))
    lm.write_text(format_linear_map(phi))
    return str(qo), str(lm)


@pytest.mark.parametrize(
    "command, first",
    [
        ("classify", "FORM"),
        ("check-rank", "VERDICT RankPreserver"),
        ("check-rank-one", "VERDICT RankOnePreserver"),
    ],
)
def test_jordan_map_on_the_thirty_chain_under_five_seconds(chain30_map, command, first):
    out, elapsed = _timed_run([command, *chain30_map])
    assert elapsed < 5.0
    assert out.exit_code == 0
    assert out.report.splitlines()[0] == first


def _unit_lines(n, units):
    """A map text with the matrix unit E_ij as the image of each unit."""
    out = [str(n)]
    for i, j in units:
        out.append(f"unit {i} {j}")
        out += [" ".join("1" if (r, c) == (i, j) else "0" for c in range(1, n + 1))
                for r in range(1, n + 1)]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("command", ["classify", "check-rank", "check-rank-one"])
def test_map_whose_units_are_not_closed_exits_two(tmp_path, command):
    # from_edges(close=False) raised NotClosed inside the parser, which
    # exited 3 as an internal failure
    t3 = tmp_path / "t3.qo"
    t3.write_text(format_relation(upper_chain(3)))
    lm = tmp_path / "phi.lm"
    lm.write_text(_unit_lines(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)]))
    out = run([command, str(t3), str(lm)])
    assert (out.exit_code, out.report) == (
        2, f"error: {lm}: (1,2) and (2,3) are present but (1,3) is not\n"
    )


@pytest.mark.parametrize("text", ["100000000\n", "40001\nunit 1 1\n1\n"])
def test_map_size_above_the_limit_exits_two_at_once(tmp_path, text):
    # the 10-byte file "100000000" built a relation on 10^8 vertices and
    # ran out of memory
    t2 = tmp_path / "t2.qo"
    t2.write_text("2\n1 2\n")
    lm = tmp_path / "phi.lm"
    lm.write_text(text)
    count = text.split()[0]
    for command in ("classify", "check-rank", "check-rank-one"):
        out, elapsed = _timed_run([command, str(t2), str(lm)])
        assert elapsed < 1.0
        assert (out.exit_code, out.report) == (
            2, f"error: {lm}: line 1: size {count} exceeds the limit of 40000\n"
        )


# --- records are the one source of every report -----------------------------------

# one request per record kind and branch; names are keys of the ``files``
# fixture or of the extra files that ``record_files`` writes
_RECORD_REQUESTS = [
    ["close", "unclosed"],
    ["info", "bowtie"],
    ["info", "t3"],
    ["blocks", "bowtie"],
    ["embed", "vee3", "wedge3"],
    ["embed", "t3", "t3rev"],
    ["embed", "--jordan", "vee3", "wedge3"],
    ["trivial", "t3", "sep_gw"],
    ["trivial", "bowtie", "bowtie_gw"],
    ["all-trivial", "t3"],
    ["all-trivial", "bowtie"],
    ["diagonalize", "t3", "eye3"],
    ["diagonalize", "t2", "nilp"],
    ["classify", "t3", "id_t3"],
    ["classify", "--codomain", "t3", "t3", "id_t3"],
    ["classify", "corner", "corner_lm"],
    ["classify", "t2", "vanishing_lm"],
    ["classify", "--codomain", "delta3", "t3", "id_t3"],
    ["synthesize", "t3", "--s", "eye3", "--classes", "1,2", "--g", "sep_gw"],
    ["check-rank", "t3", "id_t3"],
    ["check-rank", "bowtie", "bowtie_lm"],
    ["check-rank", "--max-rank", "2", "t3", "id_t3"],
    ["check-rank", "--max-rank", "4", "chain10", "chain10_lm"],
    ["check-rank-one", "chain10", "chain10_lm"],
    ["check-rank-one", "bowtie", "bowtie_lm"],
    ["witness", "t3", "sep_gw"],
    ["witness", "bowtie", "bowtie_gw"],
    ["selftest", "--n", "3"],
    ["info", "bad"],
]


@pytest.fixture(scope="module")
def record_files(files, tmp_path_factory):
    root = tmp_path_factory.mktemp("records")
    t2 = upper_chain(2)
    images = {(i, j): DenseMatrix.unit(2, i, j) for (i, j) in t2.pairs()}
    images[(1, 2)] = DenseMatrix.unit(2, 1, 2).scale(0)
    extra = {
        "t2": format_relation(t2),
        "vanishing_lm": format_linear_map(linear_map(t2, images)),
    }
    paths = dict(files)
    for name, text in extra.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    return paths


def _rendered(command, records):
    return "".join(
        line + "\n" for r in records for line in smalg.cli._render(command, r)
    )


@pytest.mark.parametrize("request_", _RECORD_REQUESTS, ids=" ".join)
def test_the_text_report_is_the_rendering_of_the_json_records(record_files, request_):
    argv = _argv(record_files, request_)
    text = run(argv)
    out = run(["--format", "json-lines"] + argv)
    assert out.exit_code == text.exit_code
    records = [json.loads(line) for line in out.report.splitlines()]
    assert records
    assert text.report == _rendered(request_[0], records)


def test_the_branches_covered_by_the_record_requests(record_files):
    # every heading the renderer writes is met by some request above
    firsts = set()
    for request in _RECORD_REQUESTS:
        report = run(_argv(record_files, request)).report
        firsts.update(line.split(" ")[0] for line in report.splitlines())
    assert firsts >= {
        "NO-EMBEDDING", "EMBEDDING", "TRIVIAL", "NONTRIVIAL", "ALL-TRIVIAL",
        "NOT-ALL-TRIVIAL", "NOT-DIAGONALIZABLE", "NOT-JORDAN", "VANISHING-UNIT",
        "UNSUPPORTED", "FORM", "VERDICT", "WITNESS", "RANKS", "NOTE", "BOUNDED-OK",
        "max-rank", "ok", "error:", "S", "g", "pi", "classes", "walk", "separator",
    }


def test_a_failed_suite_renders_from_its_record_alone():
    # no seed fails a suite, so the record is built here
    record = {"suite": "round-trip", "ok": False, "detail": "round trip failed"}
    read_back = json.loads(json.dumps(record, sort_keys=True))
    assert list(read_back) == ["detail", "ok", "suite"]
    assert _rendered("selftest", [read_back]) == "FAIL round-trip: round trip failed\n"


def test_a_report_is_built_without_extra_copies(tmp_path):
    # the 2,000-point antichain: a 4 MB presence line, held once as rows,
    # once as the line and once in the report (4.3 times its length when
    # the report was joined and then copied once more with its newline)
    q = tmp_path / "a.qo"
    q.write_text("2000\n")
    run(["blocks", str(q)])
    tracemalloc.start()
    try:
        out = run(["blocks", str(q)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.exit_code == 0
    assert peak < 3.6 * len(out.report)


def _record_keys():
    """The record keys that cli.py writes or reads: the string keys of the
    dicts built and the string subscripts read inside its functions."""
    tree = ast.parse(Path(smalg.cli.__file__).read_text(encoding="utf-8"))
    keys = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                found = node.keys
            elif isinstance(node, ast.Subscript):
                found = [node.slice]
            else:
                continue
            keys.update(
                k.value for k in found
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            )
    return keys


def test_every_record_key_is_in_the_readme_table(record_files):
    readme = (Path(smalg.cli.__file__).resolve().parents[2] / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split("### Report records", 1)[1].split("\n#", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    keys = _record_keys()
    seen = {
        key
        for request in _RECORD_REQUESTS
        for line in run(["--format", "json-lines"] + _argv(record_files, request))
        .report.splitlines()
        for key in json.loads(line)
    }
    assert seen <= keys
    assert sorted(k for k in keys if f"`{k}`" not in table) == []


# --- the plain argv reader against argparse, and the byte read ------------------

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = list(smalg.cli._COMMANDS)
OPTION_NAMES = sorted(
    {name for c in smalg.cli._COMMANDS.values() for name in c.options}
    | set(smalg.cli._GLOBAL_OPTIONS)
)
# words a positional or a text option may be, and integer option values
VALUES = ["a.qo", "b", "1", "1,2", "", "x y", "text", "-"]
INTEGERS = ["1", "0", "+2", "3", "-1", "x"]
# what argparse reads otherwise than as spelled: abbreviations, --x=y, --,
# a lone -, a negative number, help, and every option name in any place
NOISE = (
    [name[: k] for name in OPTION_NAMES for k in range(3, len(name))]
    + [f"{name}={value}" for name in OPTION_NAMES for value in ("1", "text", "-")]
    + ["--", "-", "-1", "-h", "--help", "--nope", "-x", "no-such-command"]
    + OPTION_NAMES
    + SUBCOMMANDS
)


@st.composite
def spelled_argvs(draw):
    """An argv of global options, a command, and the command's options
    and positionals in some order; sometimes with one positional too few or
    one or two too many, a global option after the command, or one noise
    word inserted."""

    def value(option):
        if option.choices:
            return draw(st.sampled_from(option.choices + ("xml",)))
        return draw(st.sampled_from(VALUES if option.read is str else INTEGERS))

    argv = []
    global_options = smalg.cli._GLOBAL_OPTIONS
    for name in draw(st.lists(st.sampled_from(sorted(global_options)), max_size=2)):
        argv += [name, value(global_options[name])]
    name = draw(st.sampled_from(SUBCOMMANDS))
    command = smalg.cli._COMMANDS[name]
    count = len(command.positionals) + draw(st.sampled_from([0] * 6 + [-1, 1, 2]))
    groups = [[draw(st.sampled_from(VALUES))] for _ in range(count)]
    for option, spec in command.options.items():
        if draw(st.booleans()):
            groups.append([option] if spec.read is None else [option, value(spec)])
    if draw(st.integers(0, 5)) == 0:
        misplaced = draw(st.sampled_from(sorted(global_options)))
        groups.append([misplaced, value(global_options[misplaced])])
    argv.append(name)
    argv += [word for group in draw(st.permutations(groups)) for word in group]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(NOISE)))
    return argv


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(smalg.cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


# every argv shape that the tests and the benchmark corpora send
@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        spelled_argvs(),
        st.lists(st.sampled_from(NOISE + VALUES + INTEGERS), max_size=7),
    )
)
@example(["info", "a.qo"])
@example(["close", "a.qo"])
@example(["blocks", "a.qo"])
@example(["all-trivial", "a.qo"])
@example(["embed", "a.qo", "b.qo"])
@example(["embed", "--jordan", "a.qo", "b.qo"])
@example(["trivial", "a.qo", "a.gw"])
@example(["witness", "a.qo", "a.gw"])
@example(["diagonalize", "a.qo", "a.gm"])
@example(["diagonalize", "a.qo", "a.gm", "b.gm"])
@example(["classify", "a.qo", "a.lm"])
@example(["classify", "--codomain", "b.qo", "a.qo", "a.lm"])
@example(["check-rank", "a.qo", "a.lm"])
@example(["check-rank", "--max-rank", "2", "a.qo", "a.lm"])
@example(["check-rank", "--max-rank", "-1", "a.qo", "a.lm"])
@example(["check-rank-one", "a.qo", "a.lm"])
@example(["synthesize", "a.qo", "--s", "s.gm", "--classes", "-", "--g", "a.gw"])
@example(["synthesize", "a.qo", "--s", "s.gm", "--classes", "1,2", "--g", "a.gw"])
@example(["selftest", "--n", "5"])
@example(["selftest", "--n", "-5"])
@example(["--seed", "3", "selftest", "--n", "4"])
@example(["--seed", "1_0", "selftest"])
@example(["--seed", "3", "check-rank", "--max-rank", "2", "a.qo", "a.lm"])
@example(["--format", "json-lines", "info", "a.qo"])
@example(["--format", "xml", "info", "a.qo"])
@example(["info", "--seed", "1", "a.qo"])
@example(["info", "a.qo", "--format", "text"])
@example(["info", "--", "a.qo"])
@example(["embed", "--jor", "a.qo", "b.qo"])
@example(["check-rank", "--max-rank=2", "a.qo", "a.lm"])
@example(["synthesize", "a.qo", "--s", "s.gm", "--classes", "-"])
@example(["no-such-command"])
@example([])
def test_the_plain_reader_agrees_with_argparse(argv):
    plain = smalg.cli._plain_args(argv)
    expected = _argparse_vars(argv)
    if plain is not None:
        assert vars(plain) == expected
    if expected is None:
        assert plain is None


@pytest.mark.parametrize("workload", ["algebra", "bulk", "relations", "spectral"])
def test_the_benchmark_corpora_take_the_plain_path(workload, tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import corpus
    finally:
        sys.path.remove(str(ROOT))

    def no_parser():
        raise AssertionError("argparse read a benchmark argv")

    monkeypatch.setattr(smalg.cli, "_build_parser", no_parser)
    requests = corpus.build(workload, 1, 1)
    for name, text in requests.files.items():
        (tmp_path / name).write_text(text)
    for request in requests.requests:
        argv = [word.replace("{w}", str(tmp_path)) for word in request.argv]
        assert run(argv).exit_code == request.expect, request.kind


def test_import_leaves_argparse_and_json_out():
    # -S: no site hook may load either module first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, smalg.cli; print(sorted({'argparse', 'json'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.stdout == "[]\n"


def test_import_leaves_dataclasses_and_inspect_out():
    # a frozen dataclass loads both at import, about 9 ms of every process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, smalg.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.stdout == "[]\n"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == smalg.cli.CommandOutcome(0, "")
    assert "usage: smalg" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "{bad}"],
        ["diagonalize", "{t3}", "{bad}"],
        ["trivial", "{t3}", "{bad}"],
        ["classify", "{t3}", "{bad}"],
    ],
    ids=[".qo", ".gm", ".gw", ".lm"],
)
def test_a_file_that_is_not_utf8_is_unusable_input(files, tmp_path, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"3\n1 2\xff\n")
    out = run([word.format(bad=bad, t3=files["t3"]) for word in argv])
    assert out == smalg.cli.CommandOutcome(
        2, f"error: {bad}: not UTF-8 at byte 5: invalid start byte\n"
    )


# pieces of files: line breaks text mode translates and ones it keeps, a
# byte order mark, NUL, invalid and truncated UTF-8, and format tokens
BYTE_PIECES = [b"\r", b"\n", b"\r\n", b"\r\r\n", b"\n\r", b"\xef\xbb\xbf",
               "\x85".encode(), "\u2028".encode(), b"\x85", b"\x00", b"\xff",
               b"\xc3", b"\xe2\x80", b"\xed\xa0\x80", b"1", b"2", b"3", b" ",
               b"\t", b"#", b"unit", b"1/2", b"i"]


def _parsed(text):
    """Each format's parser on text: a value, or the error and its line."""
    rho = from_edges(3, [(1, 2), (2, 3), (1, 3)])
    results = []
    for parse, written in (
        (parse_relation, str),
        (parse_matrix, format_matrix),
        (lambda t: parse_weights(t, rho), format_weights),
        (parse_linear_map, format_linear_map),
    ):
        try:
            results.append(written(parse(text)))
        except Exception as exc:  # both readers must fail alike
            results.append((type(exc).__name__, getattr(exc, "line", None)))
    return results


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.lists(st.sampled_from(BYTE_PIECES), max_size=12).map(b"".join),
                 st.binary(max_size=24)))
@example(b"3\r\n1 2\r\n")
@example(b"3\r\r\n1 2\r")
@example(b"\xef\xbb\xbf3\n1 2\n")
@example(b"3\n1 2\xff\n")
def test_the_byte_read_gives_what_text_mode_read(tmp_path, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    try:
        with open(path, encoding="utf-8") as handle:
            expected = handle.read()
    except UnicodeDecodeError:
        with pytest.raises(smalg.cli._InputError) as caught:
            smalg.cli._read(str(path))
        assert caught.value.message.startswith(f"error: {path}: not UTF-8 at byte ")
        return
    text = smalg.cli._read(str(path))
    assert text == expected
    assert _parsed(text) == _parsed(expected)
