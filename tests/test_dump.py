"""Differential tests of the CLI's JSON writer, ``cli._dump``, against
the stdlib call it stands for.

``_dump`` promises the bytes of ``json.dumps(x, indent=2,
sort_keys=True, ensure_ascii=False) + "\\n"`` on this interpreter, and
the same exception where that call raises.  The trees mix the shapes
the writer walks itself (dicts keyed by ``str``, lists, lists of
``str``, rows of ``str``), the exact scalars it gives the stdlib's C
encoder (NaN, the infinities, ``-0.0``, ints at the digit limit), and
everything it hands back to the indenting call: empty and ragged rows,
tuples, ``str``, ``int`` and ``float`` subclasses and dicts with
non-``str`` or mixed keys.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qcat import category_from_json, corepresentable, module_to_json
from qcat.cli import _dump, run

import oracles
from test_cli import CHAIN, PRODUCT_DISC, chain_file, rep_module_file  # noqa: F401 (fixtures)


def reference(x: object) -> str:
    return json.dumps(x, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def outcome(write, x: object):
    try:
        return write(x)
    except Exception as exc:  # the stdlib's own errors: unsortable keys, bad types, huge ints
        return type(exc), str(exc)


class Label(str):
    pass


class Count(int):
    pass


class Number(float):
    pass


SPECIAL = ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "∞", "😀"]
SPECIAL += ["\u2028", "\u2029", "\ud800", "\udfff"]  # line separators, lone surrogates
chars = st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_categories=()))
strings = st.text(chars, max_size=6)
labels = st.one_of(strings, strings, st.builds(Label, strings))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**40)]),
    st.integers(4295, 4305).map(lambda digits: 10 ** (digits - 1)),  # the str() digit limit
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.builds(Count, st.integers()),
    st.builds(Number, st.floats(allow_nan=True, allow_infinity=True)),
    labels,
)
other_keys = st.one_of(st.integers(), st.floats(), st.booleans())
rows = st.lists(st.lists(labels, max_size=4), max_size=4)
full_rows = st.lists(st.lists(strings, min_size=1, max_size=4), min_size=1, max_size=4)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(strings, children, max_size=5),
        st.dictionaries(strings, children, max_size=5),
        st.dictionaries(other_keys, children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
        st.dictionaries(st.one_of(strings, other_keys, st.none()), children, max_size=3),
        rows,
        full_rows,
        st.lists(strings, min_size=1, max_size=5),
    )


trees = st.recursive(scalars, containers, max_leaves=40)


@seed(20261018)
@settings(max_examples=600, deadline=None)
@given(trees)
def test_dump_matches_stdlib(x):
    assert outcome(_dump, x) == outcome(reference, x)


@pytest.mark.parametrize(
    "x",
    [
        {},
        [],
        {"a": []},
        {"a": [[]]},
        {"a": [["x"], []]},
        {"hom": [["0", "1"], ["bot", "0"]], "objects": ["a", "b"], "tolerance": 0.0},
        {"edges": [["a\\", '"b'], [" ", "\ud800"]]},
        {"a": ("x", ["y"])},
        {"a": [Label("x")], "b": [[Label("y")]], Label("c"): 1},
        {1: "a", 2.5: [["b"]], True: {"c": []}},
        {None: [1, -0.0, float("nan"), float("inf")]},
        {"a": [Count(7), Number(-0.0), Number("nan")], "b": Count(-3), "c": [2.5, None, True]},
        [[["deep"]], [["er"], "x"]],
    ],
)
def test_dump_examples(x):
    assert _dump(x) == reference(x)


def test_dump_of_thousands_of_rows():
    # each row of strings is one join: many rows of pairs and of single
    # labels, escapes and non-ASCII text among them
    names = [f"v{i}" for i in range(90)] + SPECIAL + ["a\\", '"b', " ", "é\\"]
    pairs = [[a, b] for a in names for b in names if a != b]
    assert len(pairs) > 10_000
    x = {"edges": pairs, "objects": [[a] for a in names], "wide": [names] * 50}
    assert _dump(x) == reference(x)


def test_dump_of_a_chains_underlying_edges(tmp_path):
    n = 120
    dag = tmp_path / "chain.txt"
    dag.write_text("".join(f"e{i} e{i + 1}\n" for i in range(n - 1)), encoding="utf-8")
    cat = tmp_path / "chain.json"
    assert run(["from-dag", str(dag), "-o", str(cat)]).exit_code == 0
    payload = run(["underlying", str(cat)]).payload
    # the edges are written from positions (cli._Pairs); the loops included
    want = sorted([f"e{i}", f"e{j}"] for i in range(n) for j in range(i, n))
    assert len(want) == n * (n + 1) // 2
    assert _dump(payload) == reference({"edges": want, "status": "ok"})


@pytest.mark.parametrize(
    "x, error",
    [
        ({"a": 1, 2: "b"}, TypeError),
        ({"a": {"b": [None, {None: 1, 0: 2}]}}, TypeError),
        ({"a": [["x"], {1, 2}]}, TypeError),
        ({"a": [object()]}, TypeError),
        ({"a": [10**5000]}, ValueError),
    ],
)
def test_dump_raises_where_stdlib_raises(x, error):
    with pytest.raises(error):
        reference(x)
    assert outcome(_dump, x) == outcome(reference, x)


def test_cli_payloads_and_files(tmp_path, chain_file, rep_module_file):
    corep = tmp_path / "corep.json"
    corep.write_text(_dump(module_to_json(corepresentable(CHAIN, "b"))), encoding="utf-8")
    disc = tmp_path / "disc.json"
    disc.write_text(json.dumps(PRODUCT_DISC), encoding="utf-8")
    dag = tmp_path / "dag.txt"
    dag.write_text("a b\nb c\na c\nc é\\\n", encoding="utf-8")
    col = tmp_path / "col.json"
    written = {
        "compose": tmp_path / "compose.json",
        "collage": col,
        "restrict": tmp_path / "restrict.json",
        "adjoin": tmp_path / "adjoin.json",
        "from-dag": tmp_path / "dag.json",
        "minkowski": tmp_path / "mk.json",
    }
    invocations = [
        ["laws", "--quantale", "rbot"],
        ["laws", "--quantale", "bool,rbot"],
        ["validate", chain_file],
        ["validate", str(disc)],
        ["compose", rep_module_file, str(corep), "-o", str(written["compose"])],
        ["compose", rep_module_file, rep_module_file, "-o", str(tmp_path / "x.json")],
        ["adjoint", rep_module_file],
        ["cauchy", rep_module_file],
        ["complete", chain_file],
        ["complete", str(disc)],
        ["collage", rep_module_file, "-o", str(col)],
        ["restrict", str(col), "-o", str(written["restrict"])],
        ["adjoin", rep_module_file, str(corep), "--label", "p \"", "-o", str(written["adjoin"])],
        ["from-dag", str(dag), "-o", str(written["from-dag"])],
        ["minkowski", "--n", "12", "--seed", "5", "-o", str(written["minkowski"])],
        ["underlying", str(written["from-dag"]), "--dot", str(tmp_path / "g.dot")],
        ["counterexample-mixed"],
        ["validate", str(tmp_path / "missing.json")],
        ["no-such-command"],
    ]
    for argv in invocations:
        payload = run(argv).payload
        want = payload
        if argv[0] == "underlying":  # its edges are positions (cli._Pairs)
            cat = category_from_json(json.loads(written["from-dag"].read_text(encoding="utf-8")))
            want = {**payload, "edges": list(map(list, oracles.sorted_underlying(cat)))}
        assert _dump(payload) == reference(want), argv
    for name, path in written.items():
        text = path.read_text(encoding="utf-8")
        assert text == reference(json.loads(text)), name
