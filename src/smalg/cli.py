"""Command-line front end: every decision procedure as a batch tool.

Exit codes follow one convention across subcommands: 0 for success or a
positive verdict, 1 for a negative verdict accompanied by a certificate,
2 for input that could not be parsed or validated, 3 for an internal
failure (an `InternalInconsistency` or any other unexpected exception
raised inside the library). Each certificate is verified once, by the
library function that builds it, and comes back with the numbers it was
verified with (witness ranks, the similarity's inverse, the diagonals); the
`_cmd_*` handlers only turn it into records, dicts of JSON values, through
one builder per certificate (`_form`, `_witness`, `_verdict`, `_trivial`).
A handler passes each library function the relation alone: what the
relation derives (classes, reverse, block form, core, gauge, triviality
verdict) is computed at most once and kept in it, whichever records of a
report read it. The selftest suites check inputs drawn by
`smalg.sampling`.
Reports go to standard output. `--format json-lines` prints each record as
one JSON object per line; the text layout is `_render`'s lines for each
record, which depend on the command and the record alone, so the two
formats cannot say different things.

The subcommands, their positionals and options are declared once, in
`_COMMANDS`. Two readers of an argv come from that table: `_plain_args`
reads an argv spelled exactly as declared, without argparse, and hands
every other argv to the argparse parser that `_build_parser` builds from
the same table, which is the one source of usage, help and errors. Both
give the same namespace, so a handler cannot tell which read its argv.
argparse is imported only when that parser is first built.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import NamedTuple

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


class CommandOutcome(NamedTuple):
    exit_code: int
    report: str


class _InputError(Exception):
    """Raised internally for anything that must exit with code 2."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


# ---------------------------------------------------------------------------
# input loading


def _read(path: str) -> str:
    """The file's bytes decoded as UTF-8, with ``\\r\\n`` and then a lone
    ``\\r`` read as ``\\n``: the text that text mode reads, without its
    incremental decoder. A file that is not UTF-8 is unusable input."""
    try:
        # unbuffered: one read of the whole file needs no buffer object
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        raise _InputError(f"error: {path}: {exc.strerror or exc}")
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise _InputError(f"error: {path}: not UTF-8 at byte {exc.start}: {exc.reason}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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
# records and their text
#
# A report is a list of records, dicts of JSON values. Under --format
# json-lines each record is one line; as text, ``_render`` writes each
# record's lines from the command and the record alone.


def _form(form: CanonicalJordanForm) -> dict:
    record = {
        "s": format_matrix(form.s),
        "classes": sorted(form.u),
        "g": format_weights(form.g),
    }
    if form.pi is not None:
        record["pi"] = list(form.pi)
    return record


def _witness(witness) -> dict:
    return {"witness": format_matrix(witness.matrix), "ranks": list(witness.ranks)}


def _verdict(v) -> list:
    records = [{"verdict": v.kind}]
    if v.form is not None:
        records.append(_form(v.form))
    if v.witness is not None:
        records.append(_witness(v.witness))
    if v.note:
        records.append({"note": v.note})
    return records


def _trivial(cert) -> list:
    # a separator repeats few values: each distinct one is written once
    literal = functools.cache(GaussianRational.literal)
    values = [literal(cert.separator[i]) for i in sorted(cert.separator)]
    return [{"trivial": True}, {"separator": values}]


# a record of one text value prints it under its heading line, if any
_HEADINGS = {"relation": None, "map": None, "s": "S", "g": "g", "witness": "WITNESS"}
# a record of one flag prints the first line when set and the second when
# not; None prints no line
_FLAGS = {
    "embedding": ("EMBEDDING", "NO-EMBEDDING"),
    "trivial": ("TRIVIAL", "NONTRIVIAL"),
    "all_trivial": ("ALL-TRIVIAL", "NOT-ALL-TRIVIAL"),
    "bounded_ok": ("BOUNDED-OK", None),
}
# the fields of a FORM and of a WITNESS, in the order their lines print
_FIELDS = {"s": ("s", "classes", "g", "pi"), "witness": ("witness", "ranks")}


def _render(command: str, record: dict) -> list:
    """The text lines of one record: the only code that writes report text.

    A record is named by its field ``suite``, ``diagonalizable``, ``s`` or
    ``witness`` if it has several, and else by its only key."""
    if "suite" in record:
        if record["ok"]:
            return [f"ok {record['suite']}"]
        return [f"FAIL {record['suite']}: {record['detail']}"]
    if "diagonalizable" in record:
        return [f"NOT-DIAGONALIZABLE {record['reason']}"]
    if len(record) > 1:
        name = "s" if "s" in record else "witness"
        lines = ["FORM"] if name == "s" else []
        for key in _FIELDS[name]:
            if key in record:
                lines += _render(command, {key: record[key]})
        return lines
    [(key, value)] = record.items()
    if key in _HEADINGS:
        heading = _HEADINGS[key]
        text = value.rstrip("\n")
        return [text] if heading is None else [heading, text]
    if key in _FLAGS:
        line = _FLAGS[key][not value]
        # witness prints its WITNESS where trivial prints NONTRIVIAL
        if line is None or (command == "witness" and value is False):
            return []
        return [line]
    if key == "verdict":
        return [value.upper() if command == "classify" else f"VERDICT {value}"]
    if key == "error":
        return [value]
    if key == "classes" and command != "info":
        words = ",".join(map(str, value)) or "-"
    elif key == "pair":
        pairs = value if isinstance(value[0], list) else [value]
        words = " ".join(f"({i},{j})" for i, j in pairs)
    elif key == "walk":
        words = " ".join(f"({i},{j}){'+' if d > 0 else '-'}" for i, j, d in value)
    elif isinstance(value, bool):
        words = "true" if value else "false"
    elif isinstance(value, list):
        # a list in the list is a class, {v1,v2,...}
        words = " ".join(
            ["{" + ",".join(map(str, v)) + "}" if isinstance(v, list) else str(v)
             for v in value]
        )
    else:
        words = str(value)
    label = key.upper() if key in ("note", "ranks") else key.replace("_", "-")
    return [f"{label} {words}"]


def _report(fmt: str, command: str, records) -> str:
    """The report of these records, built by one join."""
    if fmt == "json-lines":
        # imported on first use, like argparse: a text run never loads it
        import json

        lines = [json.dumps(r, sort_keys=True) for r in records]
    else:
        lines = [line for r in records for line in _render(command, r)]
    return "\n".join(lines + [""]) if lines else ""


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, records)

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _cmd_close(args) -> tuple:
    return 0, [{"relation": format_relation(_load_qo(args.relation, close=True))}]


def _cmd_info(args) -> tuple:
    q = _load_qo(args.relation)
    classes, mutual = (
        [sorted(b) for b in sorted(blocks, key=min)]
        for blocks in (approx_classes(q).blocks, two_sided_classes(q).blocks)
    )
    return 0, [
        {"n": q.n},
        {"classes": classes},
        {"mutual_classes": mutual},
        # the center is spanned by one 0/1 diagonal idempotent per class
        {"center_dimension": len(classes)},
        {"rectangles": rectangle_count(q)},
        {"dichotomy": multiplicativity_dichotomy(q)},
        {"inner": all_algebra_automorphisms_inner(q)},
        {"extends": extends_to_full_jordan_automorphism(q)},
    ]


def _cmd_blocks(args) -> tuple:
    b = block_triangular_form(_load_qo(args.relation))
    return 0, [
        {"pi": list(b.pi)},
        {"sizes": list(b.sizes)},
        # each row of 0/1 bytes is rendered in one pass: 0 -> "0", 1 -> "1"
        {"presence": [row.translate(_DIGITS).decode() for row in b.presence]},
        {"class_order": [sorted(c) for c in b.class_order]},
    ]


def _cmd_embed(args) -> tuple:
    rho = _load_qo(args.relation)
    rho2 = _load_qo(args.codomain_relation)
    try:
        if args.jordan:
            found = jordan_embeds_into(rho, rho2)
        else:
            found = algebra_embeds_into(rho, rho2)
    except DimensionMismatch as exc:
        raise _InputError(f"error: {exc}")
    if found is None:
        return 1, [{"embedding": None}]
    if args.jordan:
        u, pi = found
        return 0, [{"embedding": "jordan"}, {"classes": sorted(u)}, {"pi": list(pi)}]
    return 0, [{"embedding": "algebra"}, {"pi": list(found)}]


def _cmd_trivial(args) -> tuple:
    rho = _load_qo(args.relation)
    cert = triviality_witness(_load_gw(args.weights, rho))
    if cert.is_trivial:
        return 0, _trivial(cert)
    return 1, [
        {"trivial": False},
        {"walk": [[i, j, d] for ((i, j), d) in cert.walk]},
        {"product": cert.product.literal()},
    ]


def _cmd_all_trivial(args) -> tuple:
    rho = _load_qo(args.relation)
    if all_transitive_trivial(rho):
        return 0, [{"all_trivial": True}]
    g = nontrivial_transitive_map(rho)
    if g is None:
        raise InternalInconsistency("no transitive map with values +-2^k is nontrivial")
    return 1, [{"all_trivial": False}, {"g": format_weights(g)}]


def _cmd_diagonalize(args) -> tuple:
    rho = _load_qo(args.relation)
    family = [_load_gm(p) for p in args.matrices]
    for path, m in zip(args.matrices, family):
        if m.shape != (rho.n, rho.n):
            raise _InputError(f"error: {path}: matrix is not {rho.n}x{rho.n}")
        bad = first_unsupported(_nonzero_positions(m), rho)
        if bad is not None:
            raise _InputError(f"error: {path}: entry at {bad} outside the relation")
    try:
        found = simultaneous_diagonalize_in_sma(rho, family)
    except (NotDiagonalizable, IrrationalSpectrum) as exc:
        return 1, [{"diagonalizable": False, "reason": str(exc)}]
    except PreconditionViolated as exc:
        raise _InputError(f"error: {exc}")
    return 0, [{"s": format_matrix(found.s)}] + [
        {"diag": [v.literal() for v in diagonal]} for diagonal in found.diagonals
    ]


def _cmd_classify(args) -> tuple:
    rho = _load_qo(args.relation)
    phi = _load_lm(args.map, rho)
    try:
        if args.codomain:
            rho2 = _load_qo(args.codomain)
            form = classify_into_codomain(phi, rho2)
        else:
            form = classify_jordan(phi)
    except DimensionMismatch as exc:
        raise _InputError(f"error: {exc}")
    except NotJordan as exc:
        return 1, [{"verdict": "not-jordan"}, {"pair": [list(p) for p in exc.pair]}]
    except VanishingUnitImage as exc:
        return 1, [{"verdict": "vanishing-unit"}, {"pair": list(exc.pair)}]
    except SupportViolation as exc:
        return 1, [{"verdict": "unsupported"}, {"pair": list(exc.pair)}]
    return 0, [_form(form)]


def _cmd_synthesize(args) -> tuple:
    rho = _load_qo(args.relation)
    s = _load_gm(args.s)
    u = _parse_class_list(args.classes)
    g = _load_gw(args.g, rho)
    try:
        phi = synthesize_jordan(rho, s, u, g)
    except (NotClassUnion, Singular, DimensionMismatch, ZeroWeight) as exc:
        raise _InputError(f"error: {exc}")
    return 0, [{"map": format_linear_map(phi)}]


def _cmd_check_rank(args) -> tuple:
    rho = _load_qo(args.relation)
    phi = _load_lm(args.map, rho)
    if args.max_rank is not None:
        if not 1 <= args.max_rank <= rho.n:
            raise _InputError(f"error: --max-rank must lie in 1..{rho.n}")
        ok, witness = bounded_rank_preserver_check(
            phi, args.max_rank, seed=args.seed
        )
        if ok:
            return 0, [{"bounded_ok": True}, {"max_rank": args.max_rank}]
        return 1, [{"bounded_ok": False}, _witness(witness)]
    verdict = classify_rank_preserver(phi)
    return (0 if verdict.kind == "RankPreserver" else 1), _verdict(verdict)


def _cmd_check_rank_one(args) -> tuple:
    rho = _load_qo(args.relation)
    phi = _load_lm(args.map, rho)
    try:
        verdict = certify_rank_one_preserver(phi)
    except NotUnital as exc:
        raise _InputError(f"error: {exc}")
    return (0 if verdict.kind == "RankOnePreserver" else 1), _verdict(verdict)


def _cmd_witness(args) -> tuple:
    rho = _load_qo(args.relation)
    g = _load_gw(args.weights, rho)
    try:
        witness = nontrivial_g_rank_witness(g)
    except GIsTrivial:
        return 0, _trivial(triviality_witness(g))
    return 1, [{"trivial": False}, _witness(witness)]


# ---------------------------------------------------------------------------
# selftest suites: each checks the inputs smalg.sampling drew for it


def _selftest_rank_identity(draws):
    for rho, u, x in draws:
        if not rank_identity_check(rho, u, x):
            return "rank identity violated"
    return None


def _selftest_round_trip(draws):
    # synthesize_jordan runs classify_jordan's comparison pass on the map it
    # builds, in the frame of the given S, and fails unless every unit image
    # matches its term
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
    records = []
    for name, draws in selftest_draws(args.seed, args.n):
        problem = _SELFTEST_CHECKS[name](draws)
        if problem is None:
            records.append({"suite": name, "ok": True})
        else:
            records.append({"suite": name, "ok": False, "detail": problem})
    return (0 if all(r["ok"] for r in records) else 1), records


# ---------------------------------------------------------------------------
# the command table, and the two readers of an argv built from it


# The table's types are named tuples, not dataclasses: a frozen dataclass
# builds its methods with exec() at import, about 1 ms a class in every
# process, against 0.1 ms for a named tuple (2-core x86-64, Python 3.11).


class _Option(NamedTuple):
    """A ``--name`` of the table: a flag when ``read`` is None, else it
    takes one value, which ``read`` converts."""

    read: object = str
    default: object = None
    required: bool = False
    choices: tuple = None


_FLAG = _Option(read=None, default=False)
_REQUIRED = _Option(required=True)


class _Command(NamedTuple):
    """A subcommand: its handler, positional names and options by name
    (the table is never changed, so commands may share the empty dict).
    With ``many`` the last positional takes one or more values; argparse
    splits those differently when an option comes between them, so such a
    command has no options."""

    handler: object
    help: str
    positionals: tuple = ("relation",)
    options: dict = {}
    many: bool = False


_GLOBAL_OPTIONS = {
    "--seed": _Option(parse_int, 0),
    "--format": _Option(default="text", choices=("text", "json-lines")),
}

_COMMANDS = {
    "close": _Command(_cmd_close, "reflexive-transitive closure of a relation"),
    "info": _Command(_cmd_info, "class structure and predicate summary"),
    "blocks": _Command(_cmd_blocks, "block triangular renumbering"),
    "embed": _Command(_cmd_embed, "decide embeddability between two relations",
                      ("relation", "codomain_relation"), {"--jordan": _FLAG}),
    "trivial": _Command(_cmd_trivial, "decide triviality of a weight map",
                        ("relation", "weights")),
    "all-trivial": _Command(_cmd_all_trivial,
                            "decide whether every weight map is trivial"),
    "diagonalize": _Command(_cmd_diagonalize,
                            "simultaneously diagonalize inside the algebra",
                            ("relation", "matrices"), many=True),
    "classify": _Command(_cmd_classify, "canonical form of a Jordan embedding",
                         ("relation", "map"), {"--codomain": _Option()}),
    "synthesize": _Command(_cmd_synthesize, "build the map for given (S, classes, g)",
                           options={"--s": _REQUIRED, "--classes": _REQUIRED,
                                    "--g": _REQUIRED}),
    "check-rank": _Command(_cmd_check_rank, "rank preserver classification",
                           ("relation", "map"), {"--max-rank": _Option(parse_int)}),
    "check-rank-one": _Command(_cmd_check_rank_one, "certified rank-one preserver check",
                               ("relation", "map")),
    "witness": _Command(_cmd_witness, "rank witness for a nontrivial weight map",
                        ("relation", "weights")),
    "selftest": _Command(_cmd_selftest, "run the randomized invariant suites", (),
                         {"--n": _Option(parse_int, 6)}),
}


# the namespace attribute of each option, as argparse names it:
# --max-rank -> max_rank
_DESTS = {
    name: name[2:].replace("-", "_")
    for options in [_GLOBAL_OPTIONS, *(c.options for c in _COMMANDS.values())]
    for name in options
}


@functools.cache
def _build_parser():
    """The argparse parser of the command table, built on first use and
    reused by every run. argparse is imported here only, so that a run the
    plain reader serves never loads it."""
    import argparse

    def add(parser, options):
        for name, o in options.items():
            if o.read is None:
                parser.add_argument(name, action="store_true")
            else:
                parser.add_argument(name, type=o.read, default=o.default,
                                    required=o.required, choices=o.choices)

    parser = argparse.ArgumentParser(
        prog="smalg",
        description="decision procedures for structural matrix algebras",
    )
    add(parser, _GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for k, positional in enumerate(command.positionals, 1):
            many = command.many and k == len(command.positionals)
            p.add_argument(positional, nargs="+" if many else None)
        add(p, command.options)
        p.set_defaults(handler=command.handler)
    return parser


def _plain_args(argv):
    """The namespace argparse builds from ``argv`` when ``argv`` is spelled
    exactly as the table declares it; None for every other argv.

    Exactly as declared: global options, the command, then its options and
    positionals in any order. Each option is named in full and, unless it
    is a flag, followed by its value, which may be ``-`` but not otherwise
    start with ``-``; no positional starts with ``-``. Everything else
    (``--x=y``, an abbreviation, ``--``, ``-h``, an unknown command, a
    missing, extra or ill-typed argument, a global option after the
    command) is left to argparse, the one source of usage, help and errors.
    """
    args = {}
    for option, o in _GLOBAL_OPTIONS.items():
        args[_DESTS[option]] = o.default
    options, name, command, positionals = _GLOBAL_OPTIONS, None, None, []
    words = iter(argv)
    for word in words:
        if word[:1] != "-" and command is not None:
            positionals.append(word)
        elif word[:1] != "-":
            name, command = word, _COMMANDS.get(word)
            if command is None:
                return None
            options = command.options
            for option, o in options.items():
                args[_DESTS[option]] = o.default
        else:
            option = options.get(word)
            if option is None:
                return None
            value = True
            if option.read is not None:
                text = next(words, None)
                if text is None or (text[:1] == "-" and text != "-"):
                    return None
                try:
                    value = option.read(text)
                except ValueError:
                    return None
                if option.choices is not None and value not in option.choices:
                    return None
            args[_DESTS[word]] = value
    if command is None:
        return None
    names = command.positionals
    if command.many and len(positionals) >= len(names):
        positionals[len(names) - 1:] = [positionals[len(names) - 1:]]
    if len(positionals) != len(names):
        return None
    args.update(zip(names, positionals))
    for option, o in options.items():
        if o.required and args[_DESTS[option]] is None:
            return None
    return SimpleNamespace(**args, command=name, handler=command.handler)


def run(argv) -> CommandOutcome:
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return CommandOutcome(exc.code if exc.code else 0, "")
    try:
        code, records = args.handler(args)
        return CommandOutcome(code, _report(args.format, args.command, records))
    except _InputError as exc:
        code, message = 2, exc.message
    except InternalInconsistency as exc:
        code, message = 3, f"error: {exc}"
    except Exception as exc:  # a fault, never a verdict or bad input
        code, message = 3, f"error: {type(exc).__name__}: {exc}"
    return CommandOutcome(code, _report(args.format, args.command, [{"error": message}]))


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.report:
        sys.stdout.write(outcome.report)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
