"""Per-request correctness checks, run outside the timed call.

Each check reads smalg's text report and the request's own input files and
re-derives the verdict's certificate with :mod:`perfbench.gauss` and
:mod:`perfbench.rels`, never with smalg. A check returns ``None`` when the
report is right and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from . import gauss as G
from . import rels as R
from .corpus import format_map, format_weights, jordan_images


class Rejected(Exception):
    """A report that does not certify what it claims."""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _path(workdir: Path, ref: str) -> Path:
    return workdir / ref.replace("{w}/", "")


def _read(workdir: Path, ref: str) -> str:
    return _path(workdir, ref).read_text()


def _relation(workdir, ref):
    n, edges = R.parse_relation(_read(workdir, ref))
    return R.closure(n, edges)


def _weights(workdir, ref):
    out = {}
    for line in _read(workdir, ref).splitlines():
        i, j, lit = line.split()
        out[(int(i), int(j))] = G.parse_literal(lit)
    return out


def _parse_map(text):
    lines = text.splitlines()
    n = int(lines[0])
    images, pos = {}, 1
    while pos < len(lines):
        _, i, j = lines[pos].split()
        rows = [[G.parse_literal(t) for t in ln.split()] for ln in lines[pos + 1:pos + 1 + n]]
        images[(int(i), int(j))] = rows
        pos += 1 + n
    return n, images


def _matrix_after(lines, label):
    """The matrix printed on the lines after the line ``label``, and the
    index of the first line past it."""
    try:
        at = lines.index(label) + 1
    except ValueError:
        raise Rejected(f"no {label} block")
    rows = int(lines[at].split()[0])
    return G.parse_matrix(lines[at:at + 1 + rows]), at + 1 + rows


def _flag(value) -> str:
    return "true" if value else "false"


def _fmt_blocks(blocks):
    return " ".join("{" + ",".join(str(v) for v in sorted(b)) + "}" for b in sorted(blocks, key=min))


# --- verdict checks -----------------------------------------------------------


def check_exact(req, report, workdir, call):
    if _sha(report) != req.facts["sha"]:
        raise Rejected("output differs from the expected bytes")


def check_form(req, report, workdir, call):
    """A FORM (S, classes or P, g) must rebuild the input map exactly."""
    lines = report.splitlines()
    rows = _relation(workdir, req.facts["relation_file"])
    n = len(rows)
    s, at = _matrix_after(lines, "S")
    if lines[at].startswith("classes "):
        tok = lines[at].split()[1]
        u = frozenset() if tok == "-" else frozenset(int(v) for v in tok.split(","))
        at += 1
    elif lines[at] == "P":
        p, at = _matrix_after(lines, "P")
        u = frozenset(i + 1 for i in range(n) if p[i][i] == G.ONE)
    else:
        raise Rejected("FORM has neither classes nor P")
    if lines[at] != "g":
        raise Rejected("FORM has no g block")
    w = {}
    for line in lines[at + 1:]:
        if line.startswith(("pi ", "NOTE")) or not line:
            continue
        i, j, lit = line.split()
        w[(int(i), int(j))] = G.parse_literal(lit)
    if any(line.startswith("pi ") for line in lines):
        raise Rejected("unexpected pi in a FORM without codomain")
    if set(w) != set(R.pairs(rows, strict=True)):
        raise Rejected("g does not cover the strict pairs")
    try:
        sinv = G.inverse(s)
    except ZeroDivisionError:
        raise Rejected("S is singular")
    text = format_map(n, jordan_images(rows, s, sinv, u, w))
    if _sha(text) != req.facts["map_sha"]:
        raise Rejected("FORM does not reconstruct the input map")
    if req.facts.get("roundtrip"):
        classes = ",".join(str(v) for v in sorted(u)) or "-"
        base = workdir / f"roundtrip-{req.facts['map'].split('/')[-1]}"
        (base.with_suffix(".gm")).write_text(G.format_matrix(s))
        (base.with_suffix(".gw")).write_text(format_weights(w))
        code, out = call(["synthesize", str(_path(workdir, req.facts["relation_file"])),
                          "--s", str(base.with_suffix(".gm")), "--classes", classes,
                          "--g", str(base.with_suffix(".gw"))])
        if code != 0 or _sha(out) != req.facts["map_sha"]:
            raise Rejected("classify -> synthesize does not round-trip to the map bytes")


def check_bounded_ok(req, report, workdir, call):
    if not report.startswith("BOUNDED-OK\n"):
        raise Rejected("expected BOUNDED-OK")


def check_ranks(req, report, workdir, call):
    """WITNESS W with RANKS a b: W lies in the relation, rank W = a,
    rank g*(W) = b (entrywise scaling by the input weights), and a != b."""
    lines = report.splitlines()
    wit, at = _matrix_after(lines, "WITNESS")
    parts = lines[at].split()
    if parts[0] != "RANKS" or len(parts) != 3:
        raise Rejected("no RANKS line after the witness")
    before, after = int(parts[1]), int(parts[2])
    rows = _relation(workdir, req.facts["relation_file"])
    w = _weights(workdir, req.facts["weights"])
    n = len(rows)
    image = [[G.ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x = wit[i - 1][j - 1]
            if G.is_zero(x):
                continue
            if not R.has(rows, i, j):
                raise Rejected(f"witness entry ({i},{j}) outside the relation")
            image[i - 1][j - 1] = x if i == j else G.mul(w[(i, j)], x)
    if (G.rank(wit), G.rank(image)) != (before, after):
        raise Rejected("printed RANKS do not match the witness")
    if before == after:
        raise Rejected("witness does not change rank")


def check_embedding(req, report, workdir, call):
    lines = report.splitlines()
    if lines[0] != "EMBEDDING":
        raise Rejected("expected EMBEDDING")
    rows = _relation(workdir, req.facts["relation_file"])
    target = _relation(workdir, req.facts["codomain_file"])
    n = len(rows)
    u = frozenset(range(1, n + 1))  # an algebra embedding keeps every pair direct
    if req.facts["jordan"]:
        tok = lines[1].split()[1]
        u = frozenset() if tok == "-" else frozenset(int(v) for v in tok.split(","))
        comps = R.components(rows)
        if any(set(b) & u and not set(b) <= u for b in comps):
            raise Rejected("classes are not a union of connectivity classes")
    pi = [int(t) for t in lines[-1].split()[1:]]
    if sorted(pi) != list(range(1, n + 1)):
        raise Rejected("pi is not a permutation")
    for (i, j) in R.pairs(rows):
        a, b = (i, j) if (i == j or i in u) else (j, i)
        if not R.has(target, pi[a - 1], pi[b - 1]):
            raise Rejected(f"pi sends ({a},{b}) outside the codomain")


def check_no_embedding(req, report, workdir, call):
    if report != "NO-EMBEDDING\n":
        raise Rejected("expected NO-EMBEDDING")


def check_not_jordan(req, report, workdir, call):
    """The named unit pair must violate the Jordan identity
    phi(a) phi(b) + phi(b) phi(a) = phi(ab + ba)."""
    lines = report.splitlines()
    if lines[0] != "NOT-JORDAN":
        raise Rejected("expected NOT-JORDAN")
    (a, b_), (c, d) = (tuple(int(v) for v in t.strip("()").split(","))
                       for t in lines[1].split()[1:])
    n, images = _parse_map(_read(workdir, req.facts["map"]))
    zero = [[G.ZERO] * n for _ in range(n)]
    left = zero
    if b_ == c:
        left = _madd(left, images[(a, d)])
    if d == a:
        left = _madd(left, images[(c, b_)])
    x, y = images[(a, b_)], images[(c, d)]
    if left == _madd(G.matmul(x, y), G.matmul(y, x)):
        raise Rejected("the named pair satisfies the Jordan identity")


def _madd(x, y):
    return [[G.add(p, q) for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]


def check_info(req, report, workdir, call):
    rows = _relation(workdir, req.facts["relation_file"])
    n = len(rows)
    comps = R.components(rows)
    rect = 0
    for i in range(n):
        for k in range(i + 1, n):
            common = (rows[i] & rows[k]).bit_count()
            rect += common * (common - 1) // 2
    dichotomy = sum(len(b) >= 2 for b in comps) <= 1
    expected = "\n".join([
        f"n {n}",
        "classes " + _fmt_blocks(comps),
        "mutual-classes " + _fmt_blocks(R.mutual_classes(rows)),
        f"center-dimension {len(comps)}",
        f"rectangles {rect}",
        f"dichotomy {_flag(dichotomy)}",
        f"inner {_flag(req.facts['inner'])}",
        f"extends {_flag(req.facts['all_trivial'] and dichotomy)}",
    ]) + "\n"
    if report != expected:
        raise Rejected("info summary differs from the relation's known structure")


def _potential_violation(rows, w):
    """Spanning-forest potentials s with g(i,j) = s(i)/s(j) on tree edges;
    True iff some strict pair breaks the quotient (the map is nontrivial)."""
    n = len(rows)
    adj = {v: [] for v in range(1, n + 1)}
    strict = R.pairs(rows, strict=True)
    for (i, j) in strict:
        adj[i].append(j)
        adj[j].append(i)
    s = {}
    for root in range(1, n + 1):
        if root in s:
            continue
        s[root] = G.ONE
        stack = [root]
        while stack:
            v = stack.pop()
            for x in adj[v]:
                if x not in s:
                    s[x] = G.mul(s[v], G.recip(w[(v, x)])) if (v, x) in w else G.mul(w[(x, v)], s[v])
                    stack.append(x)
    return any(w[(i, j)] != G.mul(s[i], G.recip(s[j])) for (i, j) in strict)


def check_all_trivial(req, report, workdir, call):
    if req.expect == 0:
        if report != "ALL-TRIVIAL\n":
            raise Rejected("expected ALL-TRIVIAL")
        return
    lines = report.splitlines()
    if lines[:2] != ["NOT-ALL-TRIVIAL", "g"]:
        raise Rejected("NOT-ALL-TRIVIAL without an example map")
    rows = _relation(workdir, req.facts["relation_file"])
    w = {}
    for line in lines[2:]:
        i, j, lit = line.split()
        w[(int(i), int(j))] = G.parse_literal(lit)
    strict = R.pairs(rows, strict=True)
    if set(w) != set(strict) or any(G.is_zero(v) for v in w.values()):
        raise Rejected("example map does not cover the relation with nonzero weights")
    for (i, j) in strict:
        for k in range(1, len(rows) + 1):
            if k != j and R.has(rows, j, k):
                want = G.ONE if i == k else w.get((i, k))
                if G.mul(w[(i, j)], w[(j, k)]) != want:
                    raise Rejected("example map is not transitive")
    if not _potential_violation(rows, w):
        raise Rejected("example map is trivial")


def check_blocks(req, report, workdir, call):
    rows = _relation(workdir, req.facts["relation_file"])
    n = len(rows)
    fields = dict(line.split(" ", 1) for line in report.splitlines())
    pi = [int(t) for t in fields["pi"].split()]
    sizes = [int(t) for t in fields["sizes"].split()]
    presence = fields["presence"].split()
    order = [tuple(int(v) for v in blk.strip("{}").split(",")) for blk in fields["class-order"].split()]
    if sorted(pi) != list(range(1, n + 1)) or sum(sizes) != n:
        raise Rejected("pi or sizes malformed")
    if sorted(order) != sorted(R.mutual_classes(rows)):
        raise Rejected("class-order does not list the mutual classes")
    # the text lists classes by smallest member; pi gives the layout order
    layout = sorted(order, key=lambda c: min(pi[v - 1] for v in c))
    if [len(c) for c in layout] != sizes:
        raise Rejected("sizes do not follow the layout of the classes")
    block_of, start = {}, 0
    for a, cls in enumerate(layout):
        if sorted(pi[v - 1] for v in cls) != list(range(start + 1, start + len(cls) + 1)):
            raise Rejected("a class is not laid out contiguously")
        for v in cls:
            block_of[v] = a
        start += len(cls)
    for (i, j) in R.pairs(rows):
        if block_of[i] > block_of[j]:
            raise Rejected("renumbered relation is not block upper-triangular")
    for a, ca in enumerate(layout):
        for b, cb in enumerate(layout):
            if (presence[a][b] == "1") != R.has(rows, ca[0], cb[0]):
                raise Rejected("presence matrix disagrees with the relation")


def check_diagonal(req, report, workdir, call):
    """S lies in the relation, is invertible, and M S = S D for every
    family member M with D the printed diagonal."""
    lines = report.splitlines()
    rows = _relation(workdir, req.facts["relation_file"])
    n = len(rows)
    s, at = _matrix_after(lines, "S")
    for i in range(n):
        for j in range(n):
            if not G.is_zero(s[i][j]) and not R.has(rows, i + 1, j + 1):
                raise Rejected("S leaves the relation")
    if G.rank(s) != n:
        raise Rejected("S is singular")
    diags = [line.split()[1:] for line in lines[at:]]
    if len(diags) != len(req.facts["matrices"]):
        raise Rejected("one diag line per matrix expected")
    for ref, entries in zip(req.facts["matrices"], diags):
        m = G.parse_matrix(_read(workdir, ref).splitlines())
        d = [G.parse_literal(t) for t in entries]
        sd = [[G.mul(s[i][j], d[j]) for j in range(n)] for i in range(n)]
        if G.matmul(m, s) != sd:
            raise Rejected("S^-1 M S is not the printed diagonal")


def check_not_diagonalizable(req, report, workdir, call):
    if not report.startswith("NOT-DIAGONALIZABLE "):
        raise Rejected("expected NOT-DIAGONALIZABLE")


def check_triviality(req, report, workdir, call):
    rows = _relation(workdir, req.facts["relation_file"])
    w = _weights(workdir, req.facts["weights"])
    lines = report.splitlines()
    if req.expect == 0:
        if lines[0] != "TRIVIAL":
            raise Rejected("expected TRIVIAL")
        s = [None] + [G.parse_literal(t) for t in lines[1].split()[1:]]
        for (i, j) in R.pairs(rows, strict=True):
            if w[(i, j)] != G.mul(s[i], G.recip(s[j])):
                raise Rejected(f"separator fails at ({i},{j})")
        return
    if lines[0] != "NONTRIVIAL":
        raise Rejected("expected NONTRIVIAL")
    steps = lines[1].split()[1:]
    product, at = G.ONE, None
    start = None
    for tok in steps:
        i, j = (int(v) for v in tok[1:-2].split(","))
        forward = tok[-1] == "+"
        if (i, j) not in w:
            raise Rejected(f"walk uses ({i},{j}) outside the relation")
        src, dst = (i, j) if forward else (j, i)
        if at is not None and src != at:
            raise Rejected("walk is not connected")
        start = src if start is None else start
        at = dst
        product = G.mul(product, w[(i, j)] if forward else G.recip(w[(i, j)]))
    if at != start:
        raise Rejected("walk is not closed")
    if product == G.ONE:
        raise Rejected("walk product is 1")
    if G.literal(product) != lines[2].split()[1]:
        raise Rejected("printed product differs from the recomputed one")


CHECKS = {
    name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")
}


def verify(req, code, report, workdir, call):
    """None when the exit code and report are right, else the reason."""
    if code != req.expect:
        return f"exit code {code}, expected {req.expect}"
    try:
        CHECKS[req.check](req, report, workdir, call)
    except Rejected as exc:
        return str(exc)
    except Exception as exc:  # a report too malformed to parse is a wrong report
        return f"unreadable report: {exc!r}"
    return None
