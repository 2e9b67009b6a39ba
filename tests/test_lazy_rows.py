"""The index is the one stored matrix: ``hom`` and ``mat`` are gathered
from it on first read only, the CLI's index paths never gather them, a
category or module needs its rows or an index, and the law report reads
values through the positions of any iterable of triples."""

import itertools
import json
import sys
import threading

import numpy as np
import pytest

from qcat import (
    BOT,
    RBOT,
    VCategory,
    VModule,
    category_from_json,
    finite,
    identity_module,
    minkowski_sample,
    module_to_json,
    opposite,
    unit_category,
    validate_category,
)
from qcat import maxplus
from qcat.category import _law_violations
from qcat.cli import run

import oracles


@pytest.fixture
def gathers(monkeypatch):
    """The shape of every block that ``maxplus.rows`` gathers."""
    calls = []
    real = maxplus.rows

    def spy(block):
        calls.append(block[1].shape)
        return real(block)

    monkeypatch.setattr(maxplus, "rows", spy)
    return calls


def write(path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


CHAIN = {"quantale": "rbot", "objects": ["a", "b", "c"],
         "hom": [["0", "1/2", "1"], ["bot", "0", "1/2"], ["bot", "bot", "0"]]}


def test_the_spy_sees_a_read(gathers):
    c = minkowski_sample(6, 1)[0]
    assert gathers == []
    rows = c.hom
    assert gathers == [(6, 6)]
    assert c.hom is rows and gathers == [(6, 6)]  # cached
    values, positions = c._index
    assert all(x is values[k] for row, ks in zip(rows, positions.tolist()) for x, k in zip(row, ks))


def test_concurrent_first_reads_see_whole_rows():
    # the first read is an unlocked check-then-gather: threads that race
    # on it may each gather, but every one must get the whole rows, and
    # the column's values, each built on its first read in whichever
    # thread comes first, must be one object per slot in every thread
    c = minkowski_sample(40, 5)[0]
    want = maxplus.rows(minkowski_sample(40, 5)[0]._index)
    got = []
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(c.hom)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(rows == want for rows in got)
    values, positions = c._index
    for rows in got:
        assert all(x is values[k] for row, ks in zip(rows, positions.tolist()) for x, k in zip(row, ks))


def test_rows_given_are_kept(gathers):
    rows = [[finite(0), finite(1)], [BOT, finite(0)]]
    c = VCategory(RBOT, ("a", "b"), rows)
    assert c.hom == ((finite(0), finite(1)), (BOT, finite(0)))
    assert isinstance(c.hom, tuple) and all(isinstance(r, tuple) for r in c.hom)
    assert c.hom[0][1] is rows[0][1]
    m = VModule(c, c, rows)
    assert m.mat == c.hom and gathers == []


def test_the_cli_never_gathers(tmp_path, gathers):
    dag = tmp_path / "dag.txt"
    dag.write_text("a b\nb c\na d\nd c\n", encoding="utf-8")
    steps = [
        (["from-dag", str(dag), "-o", str(tmp_path / "dag.json")], 0),
        (["underlying", str(tmp_path / "dag.json"), "--dot", str(tmp_path / "dag.dot")], 0),
        (["validate", str(tmp_path / "dag.json")], 0),
        (["minkowski", "--n", "30", "--seed", "2", "-o", str(tmp_path / "s.json")], 0),
        (["validate", str(tmp_path / "s.json")], 0),
        (["underlying", str(tmp_path / "s.json")], 0),
    ]
    # violations of both laws and of the endohom laws, and a product base
    bad = write(tmp_path / "bad.json", {
        "quantale": "rbot", "objects": ["a", "b", "w"],
        "hom": [["1", "3", "2"], ["1", "0", "bot"], ["bot", "bot", "inf"]]})
    metric = write(tmp_path / "metric.json", {
        "quantale": ["rbot", "lawvere"], "objects": ["a", "b", "c"],
        "hom": [["(0,0)", "(1,1)", "(2,3)"], ["(bot,inf)", "(0,0)", "(1,1)"],
                ["(bot,inf)", "(bot,inf)", "(0,0)"]]})
    steps += [(["validate", bad], 1), (["validate", metric], 1)]
    # modules parsed from separate files, their middles equal but written
    # apart, with I and with a category as the source
    half = {**CHAIN, "hom": [["0", "2/4", "1"], ["bot", "0", "1/2"], ["bot", "bot", "0"]]}
    ident = write(tmp_path / "ident.json", {"source": CHAIN, "target": CHAIN, "mat": CHAIN["hom"]})
    other = write(tmp_path / "other.json", {"source": half, "target": half, "mat": half["hom"]})
    column = write(tmp_path / "column.json", {"source": "I", "target": half,
                                              "mat": [["1"], ["1/2"], ["0"]]})
    steps += [
        (["compose", ident, other, "-o", str(tmp_path / "c1.json")], 0),
        (["compose", ident, column, "-o", str(tmp_path / "c2.json")], 0),
        (["compose", column, ident, "-o", str(tmp_path / "c3.json")], 2),
    ]
    for argv, code in steps:
        assert run(argv).exit_code == code, argv
    assert gathers == []


def test_writing_a_module_compares_its_source_on_the_index(gathers):
    c = minkowski_sample(8, 2)[0]
    assert module_to_json(identity_module(c))["source"] != "I"
    i = unit_category(c.quantale)
    assert module_to_json(VModule(i, c, None, ([finite(0)], np.zeros((8, 1), np.intp))))["source"] == "I"
    assert gathers == []


@pytest.mark.parametrize("make", [
    lambda: VCategory(RBOT, ("a", "b"), None),
    lambda: VCategory(RBOT, (), None),
    lambda: VCategory(RBOT, ("a",), None, None),
])
def test_a_category_needs_rows_or_an_index(make):
    with pytest.raises(ValueError, match="hom matrix missing"):
        make()


@pytest.mark.parametrize("make", [
    lambda c: VModule(c, c, None),
    lambda c: VModule(c, unit_category(RBOT), None, None),
])
def test_a_module_needs_rows_or_an_index(make):
    with pytest.raises(ValueError, match="module matrix missing"):
        make(category_from_json(CHAIN))


def test_the_row_count_of_an_index_is_checked():
    with pytest.raises(ValueError, match="hom matrix has 2 rows for 3 objects"):
        VCategory(RBOT, ("a", "b", "c"), None, ([finite(0)], np.zeros((2, 3), np.intp)))
    c = category_from_json(CHAIN)
    with pytest.raises(ValueError, match="module matrix has 1 rows for 3 target objects"):
        VModule(c, c, None, ([finite(0)], np.zeros((1, 3), np.intp)))


BAD = category_from_json({"quantale": "rbot", "objects": ["a", "b", "c"],
                          "hom": [["0", "3", "1"], ["bot", "0", "1/2"], ["2", "bot", "0"]]})


@pytest.mark.parametrize("c", [BAD, opposite(BAD), category_from_json(CHAIN)])
def test_law_violations_take_any_iterable_of_triples(c):
    i = c._index
    labels = (c.objects,) * 3
    every = list(itertools.product(range(len(c)), repeat=3))
    want = oracles.law_violations(c.quantale, c.hom, c.hom, c.hom, labels, every)
    assert _law_violations(c.quantale, i, i, i, labels, iter(every)) == want
    assert _law_violations(c.quantale, i, i, i, labels, itertools.product(range(len(c)), repeat=3)) == want
    assert _law_violations(c.quantale, i, i, i, labels, (t for t in every)) == want
    assert validate_category(c) == oracles.validate_exact(c)


@pytest.mark.parametrize("triples", [[], (), iter(()), (t for t in ())])
def test_law_violations_of_no_triples(triples):
    i = BAD._index
    assert _law_violations(BAD.quantale, i, i, i, (BAD.objects,) * 3, triples) == ()


def test_law_violations_of_a_rectangular_block():
    # the left action of a 3x2 module, read on three indexes of two shapes
    c = category_from_json(CHAIN)
    d = VCategory(RBOT, ("p", "q"), ((finite(0), BOT), (BOT, finite(0))))
    m = VModule(d, c, ((finite(1), BOT), (finite(2), BOT), (BOT, finite(0))))
    labels = (c.objects, c.objects, d.objects)
    every = list(itertools.product(range(3), range(3), range(2)))
    want = oracles.law_violations(c.quantale, c.hom, m.mat, m.mat, labels, every)
    assert want  # 1/2 + 2 > 1 at (a, b, p)
    assert _law_violations(c.quantale, c._index, m._index, m._index, labels, iter(every)) == want
