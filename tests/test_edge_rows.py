"""The underlying preorder's row renderer against the writers it replaced.

``qcat underlying`` keeps its edges as positions ``(i, j)`` into the
sorted labels (``category._underlying_pairs``) and writes both the edges
payload (``cli._Pairs``) and the DOT file (``category._dot``) a source row
at a time, with one join per row (``category._edge_runs``).  The public
``preorder_dot`` maps any iterable of edges to such positions and calls
the same renderer.  Every byte is compared here with the verbatim copies
in ``oracles`` (``sorted_underlying``, ``preorder_dot``,
``preorder_dot_oracle``, ``dump``, ``_encode``): on labels that JSON and
DOT escape, labels that are prefixes of others, non-ASCII labels,
categories of 0 and 1 objects, one with no non-identity edge, sources
whose only edge is their loop or that have no edge at all, and payloads
at several indents.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qcat import (
    BOT,
    RBOT,
    VCategory,
    category_to_json,
    finite,
    parse_quantale_name,
    preorder_dot,
    unit_category,
)
from qcat import cli
from qcat.category import _dot, _edge_runs, _underlying_pairs, underlying_preorder

import oracles
import randgen

# a quote, a backslash, NUL, a label that is a prefix of two others,
# non-ASCII text and a line separator that JSON keeps raw
LABELS = ['q"', "b\\", "\x00", "a", "a\x00", "a\x00\x00", "é\u2028", "∞ 😀", "Z"]


def relabel(c: VCategory, labels) -> VCategory:
    return VCategory(c.quantale, tuple(labels), None, c._index)


def rbot(labels, rows) -> VCategory:
    return VCategory(RBOT, tuple(labels), tuple(
        tuple(BOT if v is None else finite(v) for v in row) for row in rows))


def categories() -> list[tuple[str, VCategory]]:
    rng = random.Random(20261020)
    n = len(LABELS)
    cases = [
        ("empty", VCategory(RBOT, (), ())),
        ("one", unit_category(RBOT, '"')),
        ("one-product", unit_category(parse_quantale_name("bool,rbot"), "\\")),
        # every hom bot off the diagonal: no non-identity edge
        ("discrete", rbot(LABELS, [[0 if i == j else None for j in range(n)] for i in range(n)])),
        # a chain in object order whose last object, Z, reaches only itself
        ("chain-last-alone", rbot(LABELS, [[j - i if i <= j < n - 1 or i == j else None
                                             for j in range(n)] for i in range(n)])),
        # the label-order first and last objects reach only themselves
        ("ends-alone", rbot(["\x00", "m", "n", "z"], [[0, None, None, None], [None, 0, 1, None],
                                                        [None, None, 0, None], [None, None, None, 0]])),
        # an endohom bot breaks the unit law: a source with no edge at all
        ("no-loop", rbot(["a", "b\\", 'c"'], [[0, 1, None], [None, None, 2], [None, None, 0]])),
        ("all-bot", rbot(["x", "y"], [[None, None], [None, None]])),
    ]
    for name in ("rbot", "lawvere", "bool", "rbot,bool"):
        q = parse_quantale_name(name)
        for k in (1, 2, 5, n):
            c = relabel(randgen.random_category(rng, q, k), rng.sample(LABELS, k))
            cases.append((f"{name}-{k}", c))
    return cases


CATEGORIES = categories()
IDS = [name for name, _ in CATEGORIES]
INDENTS = ("\n", "\n  ", "\n      ")


@pytest.mark.parametrize("name, c", CATEGORIES, ids=IDS)
def test_pairs_are_the_sorted_underlying_edges(name, c):
    i, j, labels = _underlying_pairs(c)
    edges = oracles.sorted_underlying(c)
    assert list(labels) == sorted(c.objects)
    assert list(zip(labels[i].tolist(), labels[j].tolist())) == edges
    assert underlying_preorder(c) == frozenset(edges)


@pytest.mark.parametrize("name, c", CATEGORIES, ids=IDS)
def test_payload_rows_match_the_old_writer(name, c):
    i, j, labels = _underlying_pairs(c)
    edges = list(map(list, oracles.sorted_underlying(c)))
    for nl in INDENTS:
        got = "".join(cli._encode(cli._Pairs(labels, i, j), nl))
        assert got == oracles._encode(edges, nl)
    payload = {"dot": "g.dot", "edges": cli._Pairs(labels, i, j), "status": "ok"}
    assert cli._dump(payload) == oracles.dump({**payload, "edges": edges})


@pytest.mark.parametrize("name, c", CATEGORIES, ids=IDS)
def test_dot_rows_match_the_old_writer(name, c):
    i, j, labels = _underlying_pairs(c)
    edges = oracles.sorted_underlying(c)
    want = oracles.preorder_dot(c.objects, edges)
    assert want == oracles.preorder_dot_oracle(c.objects, edges)
    assert _dot(c.objects, labels, i, j) == want
    assert preorder_dot(c.objects, edges) == want
    assert preorder_dot(c.objects, underlying_preorder(c)) == want


def test_loop_only_sources_get_no_arrow():
    c = dict(CATEGORIES)["ends-alone"]
    i, j, labels = _underlying_pairs(c)
    assert _dot(c.objects, labels, i, j) == (
        'digraph preorder {\n  "\x00";\n  "m";\n  "n";\n  "z";\n  "m" -> "n";\n}\n')
    assert _dot(("a",), np.array(["a"], object), np.array([0]), np.array([0])) == (
        'digraph preorder {\n  "a";\n}\n')


@pytest.mark.parametrize("name, c", CATEGORIES, ids=IDS)
def test_cli_writes_the_old_bytes(name, c, tmp_path):
    path, dot = tmp_path / "c.json", tmp_path / "g.dot"
    path.write_text(oracles.dump(category_to_json(c)), encoding="utf-8")
    result = cli.run(["underlying", str(path), "--dot", str(dot)])
    assert result.exit_code == 0
    edges = oracles.sorted_underlying(c)
    want = {"dot": str(dot), "edges": list(map(list, edges)), "status": "ok"}
    assert cli._dump(result.payload) == oracles.dump(want)
    assert json.loads(cli._dump(result.payload)) == want
    assert dot.read_text(encoding="utf-8") == oracles.preorder_dot(c.objects, edges)


DOT_LABELS = ['"', "\\", "\x00", "a", "a\x00", "é", "😀", 'x"\\']


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(DOT_LABELS), max_size=6),
       st.lists(st.tuples(st.sampled_from(DOT_LABELS), st.sampled_from(DOT_LABELS)), max_size=15),
       st.sampled_from(["list", "frozenset", "iterator", "reversed", "doubled", "lists"]))
def test_public_dot_takes_any_iterable(objects, edges, form):
    # objects may repeat, edges may repeat, loop, come unsorted and name
    # labels that are not objects
    if form == "frozenset":
        given_edges, edges = frozenset(edges), sorted(set(edges))
    elif form == "iterator":
        given_edges = iter(edges)
    elif form == "reversed":
        edges = sorted(edges)
        given_edges = edges[::-1]
    elif form == "doubled":
        edges = edges + edges[: len(edges) // 2]
        given_edges = edges
    elif form == "lists":
        given_edges = [list(e) for e in edges]
    else:
        given_edges = list(edges)
    want = oracles.preorder_dot(objects, edges)
    assert want == oracles.preorder_dot_oracle(objects, edges)
    assert preorder_dot(objects, given_edges) == want


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=3), min_size=1, max_size=6).flatmap(lambda text: st.tuples(
    st.just(text),
    st.lists(st.tuples(st.integers(0, len(text) - 1), st.integers(0, len(text) - 1)), max_size=20),
    st.sampled_from([np.intp, np.int32]),
)))
def test_edge_runs_is_its_definition(case):
    text, pairs, dtype = case
    pairs = sorted(pairs, key=lambda p: p[0])  # sources in order, targets in any order
    i = np.array([a for a, _ in pairs], dtype)
    j = np.array([b for _, b in pairs], dtype)
    for head, mid, tail, sep in (("  ", " -> ", ";", "\n"), ("[\n    ", ",\n    ", "\n  ]", ",\n  ")):
        want = sep.join(head + text[a] + mid + text[b] + tail for a, b in pairs)
        assert _edge_runs(text, i, j, head, mid, tail, sep) == want
