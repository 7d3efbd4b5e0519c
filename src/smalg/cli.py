"""Command-line front end: every decision procedure as a batch tool.

Exit codes follow one convention across subcommands: 0 for success or a
positive verdict, 1 for a negative verdict accompanied by a certificate,
2 for input that could not be parsed or validated, 3 for an internal
failure (an `InternalInconsistency` or any other unexpected exception
raised inside the library). Each certificate is verified once, by the
library function that builds it, and comes back with the numbers it was
verified with (witness ranks, the similarity's inverse, the diagonals); the
`_cmd_*` handlers only render it, through one writer per block (`FORM`,
`WITNESS`). A handler passes each library function the relation alone:
what the relation derives (classes, reverse, block form, core, gauge,
triviality verdict) is computed at most once and kept in it, whichever
lines of a report read it. The selftest suites check inputs drawn by
`smalg.sampling`.
Reports go to standard output; `--format json-lines` swaps the text
layout for one JSON object per line with the same content.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .diag import simultaneous_diagonalize_in_sma
from .errors import (
    DimensionMismatch,
    FormatError,
    GIsTrivial,
    InternalInconsistency,
    IrrationalSpectrum,
    NotClassUnion,
    NotClosed,
    NotDiagonalizable,
    NotJordan,
    NotTransitive,
    NotUnital,
    PreconditionViolated,
    Singular,
    SupportViolation,
    VanishingUnitImage,
    ZeroWeight,
)
from .exactnum import (
    DenseMatrix,
    GaussianRational,
    _nonzero_positions,
    format_matrix,
    inverse,
    parse_matrix,
    rank,
)
from .jordan import (
    CanonicalJordanForm,
    LinearMapOnSMA,
    apply,
    algebra_embeds_into,
    classify_into_codomain,
    classify_jordan,
    extends_to_full_jordan_automorphism,
    all_algebra_automorphisms_inner,
    jordan_embeds_into,
    multiplicativity_dichotomy,
    parse_linear_map,
    format_linear_map,
    synthesize_jordan,
)
from .quasiorder import (
    approx_classes,
    block_triangular_form,
    first_unsupported,
    format_relation,
    from_edges,
    parse_relation,
    rectangle_count,
    two_sided_classes,
)
from .rankpres import (
    bounded_rank_preserver_check,
    certify_rank_one_preserver,
    classify_rank_preserver,
    induced_linear_map,
    nontrivial_g_rank_witness,
    rank_identity_check,
)
from .sampling import selftest_draws
from .tokens import parse_int
from .transmap import (
    all_transitive_trivial,
    format_weights,
    nontrivial_transitive_map,
    parse_weights,
    triviality_witness,
)

# The randomized suites build dense n x n matrices: --n 20 takes 2-7 s and
# up to 63 MB (seeds 0-9), --n 30 about 22 s and 260 MB (seed 0).
MAX_SELFTEST_N = 20


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    report: str


class _InputError(Exception):
    """Raised internally for anything that must exit with code 2."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class Report:
    """Parallel text and JSON-lines accumulators."""

    def __init__(self) -> None:
        self.lines = []
        self.records = []

    def add(self, text, **fields):
        if text is not None:
            self.lines.append(text)
        if fields:
            self.records.append(fields)

    def render(self, fmt: str) -> str:
        if fmt == "json-lines":
            body = "\n".join(json.dumps(r, sort_keys=True) for r in self.records)
        else:
            body = "\n".join(self.lines)
        return body + "\n" if body else ""


# ---------------------------------------------------------------------------
# input loading


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"error: {path}: {exc.strerror or exc}")


def _diagnostic(path: str, exc) -> str:
    line = getattr(exc, "line", None)
    if line is not None:
        return f"error: {path}: line {line}: {exc}"
    return f"error: {path}: {exc}"


def _load_qo(path: str, close: bool = False):
    try:
        n, edges = parse_relation(_read(path))
        return from_edges(n, edges, close=close)
    except (FormatError, NotClosed) as exc:
        raise _InputError(_diagnostic(path, exc))


def _load_gm(path: str) -> DenseMatrix:
    try:
        return parse_matrix(_read(path))
    except FormatError as exc:
        raise _InputError(_diagnostic(path, exc))


def _load_gw(path: str, rho):
    try:
        return parse_weights(_read(path), rho)
    except (FormatError, SupportViolation, NotTransitive, ZeroWeight) as exc:
        raise _InputError(_diagnostic(path, exc))


def _load_lm(path: str, rho) -> LinearMapOnSMA:
    try:
        phi = parse_linear_map(_read(path))
    except (FormatError, NotClosed, SupportViolation, DimensionMismatch) as exc:
        raise _InputError(_diagnostic(path, exc))
    if phi.rho != rho:
        raise _InputError(
            f"error: {path}: the map's unit list does not match the relation"
        )
    return phi


def _parse_class_list(text: str) -> frozenset:
    if text in ("-", ""):
        return frozenset()
    try:
        return frozenset(parse_int(tok) for tok in text.split(","))
    except ValueError:
        raise _InputError(f"error: --classes: {text!r} is not a comma list")


# ---------------------------------------------------------------------------
# shared rendering


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _fmt_blocks(blocks) -> str:
    return _fmt_block_list(sorted(blocks, key=min))


def _fmt_block_list(blocks) -> str:
    """The blocks in the order given, each as {v1,v2,...}."""
    return " ".join(["{" + ",".join(map(str, sorted(b))) + "}" for b in blocks])


def _json_blocks(blocks):
    return [sorted(b) for b in sorted(blocks, key=min)]


def _fmt_classes(u) -> str:
    return ",".join(str(v) for v in sorted(u)) if u else "-"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _block(rep: Report, label: str, text: str, key: str):
    rep.add(label)
    rep.add(text.rstrip("\n"), **{key: text})


def _add_form(rep: Report, form: CanonicalJordanForm):
    record = {
        "s": format_matrix(form.s),
        "classes": sorted(form.u),
        "g": format_weights(form.g),
    }
    rep.add("FORM")
    rep.add("S")
    rep.add(record["s"].rstrip("\n"))
    rep.add(f"classes {_fmt_classes(form.u)}")
    rep.add("g")
    rep.add(record["g"].rstrip("\n"))
    if form.pi is not None:
        record["pi"] = list(form.pi)
        rep.add("pi " + " ".join(str(k) for k in form.pi))
    rep.add(None, **record)


def _add_witness(rep: Report, witness):
    text = format_matrix(witness.matrix)
    before, after = witness.ranks
    rep.add("WITNESS")
    rep.add(text.rstrip("\n"))
    rep.add(f"RANKS {before} {after}", witness=text, ranks=[before, after])


def _add_verdict(rep: Report, v):
    rep.add(f"VERDICT {v.kind}", verdict=v.kind)
    if v.form is not None:
        _add_form(rep, v.form)
    if v.witness is not None:
        _add_witness(rep, v.witness)
    if v.note:
        rep.add(f"NOTE {v.note}", note=v.note)


def _fmt_pair(pair) -> str:
    return f"({pair[0]},{pair[1]})"


def _add_trivial(rep: Report, cert):
    # a separator repeats few values: each distinct one is written once
    literal = functools.cache(GaussianRational.literal)
    values = [literal(cert.separator[i]) for i in sorted(cert.separator)]
    rep.add("TRIVIAL", trivial=True)
    rep.add("separator " + " ".join(values), separator=values)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_close(args) -> tuple:
    q = _load_qo(args.relation, close=True)
    rep = Report()
    text = format_relation(q)
    rep.add(text.rstrip("\n"), relation=text)
    return 0, rep


def _cmd_info(args) -> tuple:
    q = _load_qo(args.relation)
    rep = Report()
    rep.add(f"n {q.n}", n=q.n)
    classes = approx_classes(q).blocks
    rep.add("classes " + _fmt_blocks(classes), classes=_json_blocks(classes))
    mutual = two_sided_classes(q).blocks
    rep.add(
        "mutual-classes " + _fmt_blocks(mutual),
        mutual_classes=_json_blocks(mutual),
    )
    # the center is spanned by one 0/1 diagonal idempotent per class
    center = len(classes)
    rep.add(f"center-dimension {center}", center_dimension=center)
    rect = rectangle_count(q)
    rep.add(f"rectangles {rect}", rectangles=rect)
    for name, value in (
        ("dichotomy", multiplicativity_dichotomy(q)),
        ("inner", all_algebra_automorphisms_inner(q)),
        ("extends", extends_to_full_jordan_automorphism(q)),
    ):
        rep.add(f"{name} {_bool(value)}", **{name: value})
    return 0, rep


def _cmd_blocks(args) -> tuple:
    q = _load_qo(args.relation)
    b = block_triangular_form(q)
    rep = Report()
    rep.add("pi " + " ".join(map(str, b.pi)), pi=list(b.pi))
    rep.add("sizes " + " ".join(map(str, b.sizes)), sizes=list(b.sizes))
    # each row of 0/1 bytes is rendered in one pass: 0 -> "0", 1 -> "1"
    rows = [row.translate(_DIGITS).decode() for row in b.presence]
    rep.add("presence " + " ".join(rows), presence=rows)
    rep.add(
        "class-order " + _fmt_block_list(b.class_order),
        class_order=[sorted(c) for c in b.class_order],
    )
    return 0, rep


def _cmd_embed(args) -> tuple:
    rho = _load_qo(args.relation)
    rho2 = _load_qo(args.codomain_relation)
    rep = Report()
    try:
        if args.jordan:
            found = jordan_embeds_into(rho, rho2)
        else:
            found = algebra_embeds_into(rho, rho2)
    except DimensionMismatch as exc:
        raise _InputError(f"error: {exc}")
    if found is None:
        rep.add("NO-EMBEDDING", embedding=None)
        return 1, rep
    if args.jordan:
        u, pi = found
        rep.add("EMBEDDING", embedding="jordan")
        rep.add(f"classes {_fmt_classes(u)}", classes=sorted(u))
    else:
        pi = found
        rep.add("EMBEDDING", embedding="algebra")
    rep.add("pi " + " ".join(str(k) for k in pi), pi=list(pi))
    return 0, rep


def _cmd_trivial(args) -> tuple:
    rho = _load_qo(args.relation)
    g = _load_gw(args.weights, rho)
    cert = triviality_witness(g)
    rep = Report()
    if cert.is_trivial:
        _add_trivial(rep, cert)
        return 0, rep
    steps = " ".join(
        f"({i},{j}){'+' if d > 0 else '-'}" for ((i, j), d) in cert.walk
    )
    rep.add("NONTRIVIAL", trivial=False)
    rep.add("walk " + steps, walk=[[i, j, d] for ((i, j), d) in cert.walk])
    rep.add("product " + cert.product.literal(), product=cert.product.literal())
    return 1, rep


def _cmd_all_trivial(args) -> tuple:
    rho = _load_qo(args.relation)
    rep = Report()
    if all_transitive_trivial(rho):
        rep.add("ALL-TRIVIAL", all_trivial=True)
        return 0, rep
    g = nontrivial_transitive_map(rho)
    if g is None:
        raise InternalInconsistency("no transitive map with values +-2^k is nontrivial")
    rep.add("NOT-ALL-TRIVIAL", all_trivial=False)
    _block(rep, "g", format_weights(g), "g")
    return 1, rep


def _cmd_diagonalize(args) -> tuple:
    rho = _load_qo(args.relation)
    family = [_load_gm(p) for p in args.matrices]
    for path, m in zip(args.matrices, family):
        if m.shape != (rho.n, rho.n):
            raise _InputError(f"error: {path}: matrix is not {rho.n}x{rho.n}")
        bad = first_unsupported(_nonzero_positions(m), rho)
        if bad is not None:
            raise _InputError(f"error: {path}: entry at {bad} outside the relation")
    rep = Report()
    try:
        found = simultaneous_diagonalize_in_sma(rho, family)
    except (NotDiagonalizable, IrrationalSpectrum) as exc:
        rep.add(f"NOT-DIAGONALIZABLE {exc}", diagonalizable=False, reason=str(exc))
        return 1, rep
    except PreconditionViolated as exc:
        raise _InputError(f"error: {exc}")
    _block(rep, "S", format_matrix(found.s), "s")
    for diagonal in found.diagonals:
        entries = [v.literal() for v in diagonal]
        rep.add("diag " + " ".join(entries), diag=entries)
    return 0, rep


def _cmd_classify(args) -> tuple:
    rho = _load_qo(args.relation)
    phi = _load_lm(args.map, rho)
    rep = Report()
    try:
        if args.codomain:
            rho2 = _load_qo(args.codomain)
            form = classify_into_codomain(phi, rho2)
        else:
            form = classify_jordan(phi)
    except DimensionMismatch as exc:
        raise _InputError(f"error: {exc}")
    except NotJordan as exc:
        rep.add("NOT-JORDAN", verdict="not-jordan")
        rep.add(
            f"pair {_fmt_pair(exc.pair[0])} {_fmt_pair(exc.pair[1])}",
            pair=[list(p) for p in exc.pair],
        )
        return 1, rep
    except VanishingUnitImage as exc:
        rep.add("VANISHING-UNIT", verdict="vanishing-unit")
        rep.add(f"pair {_fmt_pair(exc.pair)}", pair=list(exc.pair))
        return 1, rep
    except SupportViolation as exc:
        rep.add("UNSUPPORTED", verdict="unsupported")
        rep.add(f"pair {_fmt_pair(exc.pair)}", pair=list(exc.pair))
        return 1, rep
    _add_form(rep, form)
    return 0, rep


def _cmd_synthesize(args) -> tuple:
    rho = _load_qo(args.relation)
    s = _load_gm(args.s)
    u = _parse_class_list(args.classes)
    g = _load_gw(args.g, rho)
    try:
        phi = synthesize_jordan(rho, s, u, g)
    except (NotClassUnion, Singular, DimensionMismatch, ZeroWeight) as exc:
        raise _InputError(f"error: {exc}")
    rep = Report()
    text = format_linear_map(phi)
    rep.add(text.rstrip("\n"), map=text)
    return 0, rep


def _cmd_check_rank(args) -> tuple:
    rho = _load_qo(args.relation)
    phi = _load_lm(args.map, rho)
    rep = Report()
    if args.max_rank is not None:
        if not 1 <= args.max_rank <= rho.n:
            raise _InputError(f"error: --max-rank must lie in 1..{rho.n}")
        ok, witness = bounded_rank_preserver_check(
            phi, args.max_rank, seed=args.seed
        )
        if ok:
            rep.add("BOUNDED-OK", bounded_ok=True)
            rep.add(f"max-rank {args.max_rank}", max_rank=args.max_rank)
            return 0, rep
        rep.add(None, bounded_ok=False)
        _add_witness(rep, witness)
        return 1, rep
    verdict = classify_rank_preserver(phi)
    _add_verdict(rep, verdict)
    return (0 if verdict.kind == "RankPreserver" else 1), rep


def _cmd_check_rank_one(args) -> tuple:
    rho = _load_qo(args.relation)
    phi = _load_lm(args.map, rho)
    rep = Report()
    try:
        verdict = certify_rank_one_preserver(phi)
    except (NotUnital, VanishingUnitImage) as exc:
        raise _InputError(f"error: {exc}")
    _add_verdict(rep, verdict)
    return (0 if verdict.kind == "RankOnePreserver" else 1), rep


def _cmd_witness(args) -> tuple:
    rho = _load_qo(args.relation)
    g = _load_gw(args.weights, rho)
    rep = Report()
    try:
        witness = nontrivial_g_rank_witness(g)
    except GIsTrivial:
        _add_trivial(rep, triviality_witness(g))
        return 0, rep
    rep.add(None, trivial=False)
    _add_witness(rep, witness)
    return 1, rep


# ---------------------------------------------------------------------------
# selftest suites: each checks the inputs smalg.sampling drew for it


def _selftest_rank_identity(draws):
    for rho, u, x in draws:
        if not rank_identity_check(rho, u, x):
            return "rank identity violated"
    return None


def _selftest_round_trip(draws):
    # synthesize_jordan classifies the map it builds and checks that the
    # form rebuilds it
    for rho, s, u, g in draws:
        try:
            synthesize_jordan(rho, s, u, g)
        except InternalInconsistency:
            return "classification round trip failed"
    return None


def _selftest_triviality_rank(draws):
    for rho, g in draws:
        phi = induced_linear_map(g)
        verdict = classify_rank_preserver(phi)
        trivial = triviality_witness(g).is_trivial
        if trivial != (verdict.kind == "RankPreserver"):
            return "triviality and rank preservation disagree"
        if verdict.witness is not None:
            x = verdict.witness.matrix
            if (rank(x), rank(apply(phi, x))) != verdict.witness.ranks:
                return "witness ranks do not reproduce"
    return None


def _selftest_diagonalize(draws):
    for rho, family in draws:
        t, _, diagonals = simultaneous_diagonalize_in_sma(rho, family)
        t_inv = inverse(t)
        for m, diagonal in zip(family, diagonals):
            d = t_inv * m * t
            if not d.is_diagonal():
                return "conjugate is not diagonal"
            if d.diagonal() != diagonal:
                return "reported diagonal does not reproduce"
    return None


_SELFTEST_CHECKS = {
    "rank-identity": _selftest_rank_identity,
    "round-trip": _selftest_round_trip,
    "triviality-rank": _selftest_triviality_rank,
    "diagonalize": _selftest_diagonalize,
}


def _cmd_selftest(args) -> tuple:
    if args.n < 2:
        raise _InputError("error: --n must be at least 2")
    if args.n > MAX_SELFTEST_N:
        raise _InputError(f"error: --n must be at most {MAX_SELFTEST_N}")
    rep = Report()
    failed = False
    for name, draws in selftest_draws(args.seed, args.n):
        problem = _SELFTEST_CHECKS[name](draws)
        if problem is None:
            rep.add(f"ok {name}", suite=name, ok=True)
        else:
            failed = True
            rep.add(f"FAIL {name}: {problem}", suite=name, ok=False, detail=problem)
    return (1 if failed else 0), rep


# ---------------------------------------------------------------------------
# dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every run."""
    parser = argparse.ArgumentParser(
        prog="smalg",
        description="decision procedures for structural matrix algebras",
    )
    parser.add_argument("--seed", type=parse_int, default=0)
    parser.add_argument(
        "--format", choices=("text", "json-lines"), default="text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("close", help="reflexive-transitive closure of a relation")
    p.add_argument("relation")
    p.set_defaults(handler=_cmd_close)

    p = sub.add_parser("info", help="class structure and predicate summary")
    p.add_argument("relation")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("blocks", help="block triangular renumbering")
    p.add_argument("relation")
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("embed", help="decide embeddability between two relations")
    p.add_argument("--jordan", action="store_true")
    p.add_argument("relation")
    p.add_argument("codomain_relation")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("trivial", help="decide triviality of a weight map")
    p.add_argument("relation")
    p.add_argument("weights")
    p.set_defaults(handler=_cmd_trivial)

    p = sub.add_parser("all-trivial", help="decide whether every weight map is trivial")
    p.add_argument("relation")
    p.set_defaults(handler=_cmd_all_trivial)

    p = sub.add_parser("diagonalize", help="simultaneously diagonalize inside the algebra")
    p.add_argument("relation")
    p.add_argument("matrices", nargs="+")
    p.set_defaults(handler=_cmd_diagonalize)

    p = sub.add_parser("classify", help="canonical form of a Jordan embedding")
    p.add_argument("--codomain")
    p.add_argument("relation")
    p.add_argument("map")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("synthesize", help="build the map for given (S, classes, g)")
    p.add_argument("relation")
    p.add_argument("--s", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("check-rank", help="rank preserver classification")
    p.add_argument("--max-rank", type=parse_int)
    p.add_argument("relation")
    p.add_argument("map")
    p.set_defaults(handler=_cmd_check_rank)

    p = sub.add_parser("check-rank-one", help="certified rank-one preserver check")
    p.add_argument("relation")
    p.add_argument("map")
    p.set_defaults(handler=_cmd_check_rank_one)

    p = sub.add_parser("witness", help="rank witness for a nontrivial weight map")
    p.add_argument("relation")
    p.add_argument("weights")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("selftest", help="run the randomized invariant suites")
    p.add_argument("--n", type=parse_int, default=6)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv) -> CommandOutcome:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandOutcome(exc.code if exc.code else 0, "")
    try:
        code, rep = args.handler(args)
    except _InputError as exc:
        return _error_outcome(2, exc.message, args.format)
    except InternalInconsistency as exc:
        return _error_outcome(3, f"error: {exc}", args.format)
    except Exception as exc:  # a fault, never a verdict or bad input
        return _error_outcome(3, f"error: {type(exc).__name__}: {exc}", args.format)
    return CommandOutcome(code, rep.render(args.format))


def _error_outcome(code: int, message: str, fmt: str) -> CommandOutcome:
    if fmt == "json-lines":
        return CommandOutcome(code, json.dumps({"error": message}) + "\n")
    return CommandOutcome(code, message + "\n")


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.report:
        sys.stdout.write(outcome.report)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
