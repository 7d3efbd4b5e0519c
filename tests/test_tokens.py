"""The readers of the four formats against the per-line parsers of
tests/oracles.py.

Each input comes from a format's grammar, laid out with random spacing,
blank lines and comments, and then mutated a few times with pieces that
a reader must not take for names or for the zeros it skips: carriage
returns, signs, leading zeros, non-ASCII digits and spaces, stray letters.
Every input must give the same value as the reference parser, or the same
error with the same message and line number.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smalg.exactnum import parse_matrix
from smalg.jordan import parse_linear_map
from smalg.quasiorder import from_edges, parse_relation
from smalg.tokens import strip_comments, token_lines
from smalg.transmap import TransitiveMap, parse_weights

from oracles import (
    line_parse_linear_map,
    line_parse_matrix,
    line_parse_relation,
    line_parse_weights,
)

PARSE = settings(max_examples=250, deadline=None)

# spellings of values the grammars allow, and some they do not
LITERALS = ["0", "1", "-1", "2", "007", "3/2", "-4/6", "1i", "-1i", "2+3i",
            "1/2-1/3i", "0/5", "+1", "1/0", "i", "1+i", "2.5", "\u0661"]
ONES = ["1", "01", "2/2", "1+0i", "1-0/3i"]
NOISE = ["#", "# note", "\r\n", "\r", "\t", " ", "\n", "+", "-", "0", "00",
         "/", "i", "x", "\u0663", "\xa0", "\u2003", "\u2028", "\x0b", "\x1c",
         "\x85", "1_0", "99", "40001"]

# one token too long for int() (4,300 digits at most by default)
HUGE = "1" + "0" * 5000


@st.composite
def laid_out(draw, rows):
    """The token rows as text: random indentation, separators, trailing
    comments, blank and comment lines between rows, a final newline or not."""
    out = []
    for tokens in rows:
        out.append(draw(st.sampled_from(["", "", "", "\n", "# comment\n", " \t\n"])))
        gaps = [draw(st.sampled_from([" ", " ", "  ", "\t"])) for _ in tokens[1:]]
        line = tokens[0] + "".join(g + t for g, t in zip(gaps, tokens[1:]))
        line = draw(st.sampled_from(["", "", " ", "\t"])) + line
        line += draw(st.sampled_from(["", "", "", " ", "\t", " # c", "#x"]))
        out.append(line + "\n")
    text = "".join(out)
    if text.endswith("\n") and draw(st.booleans()):
        text = text[:-1]
    return text


@st.composite
def mutated(draw, texts, noise=NOISE):
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(noise))
        if op == "insert":
            text = text[:pos] + piece + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + piece + text[pos + 1:]
    return text


@st.composite
def relations(draw):
    n = draw(st.one_of(st.integers(1, 6), st.sampled_from([0, 40000, 40001, 10**6])))
    top = min(n, 6) + 1
    pairs = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=8))
    if n > 6 and pairs and draw(st.booleans()):
        pairs[0] = (1, n)
    return n, pairs


@st.composite
def relation_texts(draw):
    n, pairs = draw(relations())
    return draw(laid_out([[str(n)]] + [[str(i), str(j)] for i, j in pairs]))


@st.composite
def small_quasi_orders(draw):
    n = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    return from_edges(n, draw(st.lists(pairs, max_size=6)))


@st.composite
def weight_texts(draw):
    rho = draw(small_quasi_orders())
    pairs = rho.strict_pairs()
    pairs += draw(st.lists(st.sampled_from(pairs + [(1, 1), (1, 5)]), max_size=2))
    pairs = draw(st.permutations(pairs))
    pool = ONES if draw(st.booleans()) else LITERALS
    rows = [[str(i), str(j), draw(st.sampled_from(pool))] for i, j in pairs]
    return rho, draw(laid_out(rows))


@st.composite
def matrix_texts(draw):
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    count = r * c + draw(st.sampled_from([0, 0, 0, 1, -1]))
    entries = [draw(st.sampled_from(LITERALS)) for _ in range(max(count, 0))]
    return draw(laid_out([[str(r), str(c)]] + _broken(draw, entries)))


def _broken(draw, tokens):
    """``tokens`` cut into rows at random places."""
    rows, row = [], []
    for t in tokens:
        row.append(t)
        if draw(st.integers(0, 2)) == 0:
            rows.append(row)
            row = []
    return rows + ([row] if row else [])


# entries of a linear map are mostly 0, as in real files
ENTRIES = ["0"] * 8 + LITERALS[:12]
# pieces that move or break the unit lines of a linear map
MAP_NOISE = NOISE + ["unit", "unit 1 1", "\nunit 2 1\n", "unit1", "n", "t"]


@st.composite
def linear_map_texts(draw):
    """A map on up to 4 points: its units in any order, on a transitively
    closed relation or on pairs that are not closed, now and then one unit
    left out or repeated. Each unit's entries are cut into lines at random.
    Now and then one unit gets a defect: one entry more or one fewer than
    n*n (so a line may run past the entries its unit needs), or some of its
    entries on its own unit line."""
    n = draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=5))
    if draw(st.booleans()):
        pairs = from_edges(n, edges).pairs()
    else:
        if n >= 3:  # a path a -> b -> c, mostly without its shortcut
            a, b, c = draw(st.permutations(range(1, n + 1)))[:3]
            edges += [(a, b), (b, c)]
        pairs = sorted(set(edges) | {(k, k) for k in range(1, n + 1)})
    units = draw(st.permutations(pairs))
    if units and draw(st.integers(0, 3)) == 0:
        units = units[:-1] if draw(st.booleans()) else units + [units[0]]
    defect = draw(st.sampled_from([None, None, None, "more", "fewer", "carried"]))
    at = draw(st.integers(0, max(len(units) - 1, 0)))
    rows = [[str(n)]]
    for k, (i, j) in enumerate(units):
        this = defect if k == at else None
        count = n * n + {"more": 1, "fewer": -1}.get(this, 0)
        entries = [draw(st.sampled_from(ENTRIES)) for _ in range(count)]
        carried = draw(st.integers(1, 2)) if this == "carried" else 0
        rows.append(["unit", str(i), str(j)] + entries[:carried])
        rows += _broken(draw, entries[carried:])
    return draw(laid_out(rows))


def outcome(parse, *args):
    """The value, or the error's type, message and line number."""
    try:
        value = parse(*args)
    except Exception as exc:  # the two parsers must fail alike
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    if isinstance(value, TransitiveMap):
        return "ok", value.rho, value.items()
    return "ok", value


@PARSE
@given(mutated(relation_texts()))
@example("3\n1 2\n2 3\n")
@example("3\r\n1 2\r\n")
@example("# n\n40000\n1 40000\n")
@example("40001\n1 2\n")
@example(HUGE + "\n")
@example("3\n1 " + HUGE + "\n")
@example("3\n1 2 # x\r2 3\n")
@example("3\n1 2\r# x\n2 9\n")
@example("")
def test_relation_matches_the_line_parser(text):
    assert outcome(parse_relation, text) == outcome(line_parse_relation, text)


@PARSE
@given(st.data())
def test_weights_match_the_line_parser(data):
    rho, text = data.draw(weight_texts())
    text = data.draw(mutated(st.just(text)))
    assert outcome(parse_weights, text, rho) == outcome(line_parse_weights, text, rho)


def test_weights_edge_cases_match_the_line_parser():
    rho = from_edges(3, [(1, 2), (2, 3)])
    for text in ["1 2 1\n2 3 1\n1 3 1\n", "1 2 1\n1 2 1\n", "1 2 1/0\n",
                 "1 2 " + HUGE + "\n", "1 2 1\n2 3 2\n1 3 1\n", "", "\n# c\n",
                 "1 2 1\r\n2 3 1\r\n1 3 1\r\n", "1 2 1\r# c\n1 2 1\n", "01 2 1\n2 3 1\n1 3 1\n"]:
        assert outcome(parse_weights, text, rho) == outcome(line_parse_weights, text, rho)


@PARSE
@given(mutated(matrix_texts()))
@example("2 2\n1 0\n# note\n0 1/0\n")
def test_matrix_matches_the_line_parser(text):
    assert outcome(parse_matrix, text) == outcome(line_parse_matrix, text)


@PARSE
@given(mutated(linear_map_texts(), MAP_NOISE))
@example("2 1\nunit 1 1\n1\n")
# units not transitively closed: NotClosed from both
@example("3\n" + "".join(f"unit {i} {j}\n" + "0 0 0\n" * 3
                         for i, j in [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)]))
# a size above the vertex limit is rejected on line 1
@example("100000000\n")
@example("40001\nunit 1 1\n1\n")
@example("# c\n40000\n")
# a unit line carrying entries; a line past the n*n entries of its unit
@example("1\nunit 1 1 1\n")
@example("1\nunit 1 1\n1 0\n")
# 5 + 3 entries: the token count fits two units, the units do not
@example("2\nunit 1 1\n1 0 0 0 0\nunit 2 2\n0 0 1\n")
@example("1\n  unit 1 1  \n 2/4 \n")
# a "unit" line of one token, with whole unit lines after it at the stride
@example("1\nunit\nunit 1 1\nunit 1 1\n0\n")
def test_linear_map_matches_the_line_parser(text):
    assert outcome(parse_linear_map, text) == outcome(line_parse_linear_map, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\u2028\xa0#ab1"))
def test_token_lines_number_every_line(text):
    expected = [
        (k, raw.split("#", 1)[0].split())
        for k, raw in enumerate(text.splitlines(), start=1)
        if raw.split("#", 1)[0].split()
    ]
    assert list(token_lines(strip_comments(text))) == expected


# line shapes the relation reader must read as the per-line parser does: a
# pair line of one or three tokens, a count line of two, a line of 256
# tokens, blank lines and spaces around tokens, leading zeros, values
# outside 1..n, which are no names, and a last line without its newline
@pytest.mark.parametrize(
    "text",
    [
        "3\n1 2 3\n",
        "3\n1\n",
        "3 1\n1 2\n",
        "\n\n 3 \n\n1\t2 \n\n \t\n2 3",
        "3\n" + "1 " * 256 + "\n",
        "3\n" + "1 2 " * 128 + "\n",
        "000003\n1 2\n",
        "00003\n1 2\n",
        "3\n01 000002\n",
        "3\n0 1\n",
        "3\n1 4\n",
        "40000\n40000 1\n",
        "40001\n",
        "3\n\n",
        "\n \n",
        "3",
    ],
)
def test_relation_line_shapes_match_the_line_parser(text):
    assert outcome(parse_relation, text) == outcome(line_parse_relation, text)
