"""Values as integer columns.

On rbot and lawvere an index's values are a ``maxplus.Column``: a tag
code per value and the reduced numerator and denominator of each finite
one, in int64 arrays where they fit and as Python ints where not.  A
slot's ``QVal`` is built on its first read only.  The file parser, the
law encoder, the exact codes, the CLI's matrix writer and the sprinkle
are compared with verbatim copies of the code that built a ``QVal`` per
value (``tests/oracles.py``), on values at the edges of each tier.
"""

import json
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcat.category
import qcat.modules
from qcat import (
    LAWVERE,
    RBOT,
    VCategory,
    category_from_json,
    category_to_json,
    compose,
    identity_module,
    minkowski_sample,
    module_from_json,
    module_to_json,
    parse_quantale_name,
    rbot,
)
from qcat import cli, maxplus, quantale
from qcat.cli import run

import oracles

BIG_DENS = [2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 1, 2**63, 2**64 + 1]
STRINGS = (
    ["0", "1", "2/4", "-0/5", "007/010", " 1/2 ", "\t3/6\n", "1/0", "0/0", "1/2/3", "x",
     "١/٢", "٣", "０５", "²", "1_000/3", "1.5", "1e3", "1e400", "-1/2",
     "bot", " BOT", "⊥", "inf", "∞", "true", "(0,1)", "1" * 4301]
    + [f"{p}/{q}" for q in BIG_DENS for p in (1, q - 2, 3 * q)]
)
RAWS = STRINGS + [0, 1, 7, 2**64 + 1, 1.0, 0.1, -0.0, 1e300, True, False, -1, None]
CLEAN = [s for s in STRINGS if s not in ("1/0", "0/0", "1/2/3", "x", "²", "-1/2", "true", "(0,1)",
                                         "1" * 4301)]


def outcome(parse, data):
    try:
        got = parse(data)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return "ok", got


def reference(parse, data):
    """``parse(data)`` with the file layer's parser replaced by the copy of
    the one that built a QVal per distinct string."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcat.category, "_parse_rows", oracles.parse_rows)
        mp.setattr(qcat.modules, "_parse_rows", oracles.parse_rows)
        return outcome(parse, data)


def same_outcome(parse, write, data):
    got, want = outcome(parse, data), reference(parse, data)
    if want[0] == "error":
        assert got == want
        return None
    assert got[0] == "ok"
    assert json.dumps(write(got[1])) == json.dumps(write(want[1]))
    assert got[1] == want[1]
    return got[1]


@st.composite
def category_files(draw, quantales=("rbot", "lawvere", "rbot")):
    n = draw(st.integers(0, 4))
    entry = st.sampled_from(draw(st.sampled_from([CLEAN, RAWS, STRINGS])))
    hom = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.integers(0, 9)) == 0:  # a short row
        del hom[draw(st.integers(0, n - 1))][-1]
    return {"quantale": draw(st.sampled_from(quantales)), "objects": [f"o{i}" for i in range(n)],
            "hom": hom, "tolerance": draw(st.sampled_from([0, 0, 1e-9, 0.5]))}


@settings(max_examples=300, deadline=None)
@given(category_files(("rbot", "lawvere", "bool", ["rbot", "bool"])))
def test_parse_matches_the_qval_parser(data):
    c = same_outcome(category_from_json, category_to_json, data)
    if c is not None:
        assert isinstance(c._index[0], maxplus.Column)


@settings(max_examples=200, deadline=None)
@given(category_files(), st.data())
def test_module_parse_matches_the_qval_parser(data, draw):
    n = len(data["objects"])
    mat = [draw.draw(st.lists(st.sampled_from(RAWS), min_size=n, max_size=n)) for _ in range(n)]
    source = draw.draw(st.sampled_from(["I", data]))
    if source == "I":
        mat = [row[:1] for row in mat]
    same_outcome(module_from_json, module_to_json, {"source": source, "target": data, "mat": mat})


@pytest.mark.parametrize("quantale_name", ["rbot", "lawvere"])
def test_every_string_in_one_row(quantale_name):
    # one matrix holding every string that reads as a value of the base,
    # and the first bad entry of each kind raising at its own position
    good = [s for s in CLEAN if not (quantale_name == "lawvere" and s.strip().lower() in ("bot", "⊥"))]
    data = {"quantale": quantale_name, "objects": [f"o{i}" for i in range(len(good))],
            "hom": [good[i:] + good[:i] for i in range(len(good))]}
    c = same_outcome(category_from_json, category_to_json, data)
    assert c is not None and len(c) == len(good)
    num, den = c._index[0].num, c._index[0].den
    assert num.dtype == den.dtype == object  # 3 * (2^64 + 1) and 2^64 + 1 are past int64
    for bad in ["1/0", "0/0", "1/2/3", "x", "²", "-1/2", "1" * 4301, "true", "(0,1)"]:
        for i, j in [(0, 0), (1, 3), (len(good) - 1, 2)]:
            hom = [list(r) for r in data["hom"]]
            hom[i][j] = bad
            same_outcome(category_from_json, category_to_json, {**data, "hom": hom})


def test_each_tier_of_a_parsed_column():
    def parsed(*texts):
        data = {"quantale": "rbot", "objects": [f"o{i}" for i in range(len(texts))],
                "hom": [list(texts[i:] + texts[:i]) for i in range(len(texts))]}
        return category_from_json(data)._index[0]

    col = parsed("2/4", "bot", "007/010", "-0/5", f"1/{2**62}")
    assert col.num.dtype == col.den.dtype == np.int64
    assert col.tags.tolist() == [maxplus._FIN, maxplus._BOT, maxplus._FIN, maxplus._FIN, maxplus._FIN]
    assert col.num.tolist() == [1, 0, 7, 0, 1] and col.den.tolist() == [2, 1, 10, 1, 2**62]
    col = parsed("1/2", f"3/{2**64 + 1}")
    assert col.num.dtype == np.int64 and col.den.dtype == object
    assert col.den.tolist() == [2, 2**64 + 1]
    col = parsed(f"{2**63}/2", "5")  # reduced, 2^62 fits again
    assert col.num.dtype == col.den.dtype == np.int64 and col.num.tolist() == [2**62, 5]


# int64 columns whose entries are not all exact doubles
INT64 = ["0", "bot", f"1/{2**53 + 1}", f"{2**53 + 1}/2", f"3/{2**62}", f"{2**62 + 1}/{2**61 + 1}",
         f"{2**60}", f"5/{2**63 - 1}"]


def encode_cases():
    cases = {}
    for name in ("rbot", "lawvere"):
        for t in (0, 1e-9):
            good = [s for s in CLEAN if not (name == "lawvere" and s.strip().lower() in ("bot", "⊥"))]
            for label, texts in (("mixed", good), ("small", ["0", "2/4", "007/010", "3", "bot"]),
                                 ("big", [s for s in good if "/" in s] + ["0"]), ("int64", INT64)):
                texts = [s for s in texts if name == "rbot" or s.strip().lower() not in ("bot", "⊥")]
                data = {"quantale": name, "tolerance": t, "objects": [f"o{i}" for i in range(len(texts))],
                        "hom": [texts[i:] + texts[:i] for i in range(len(texts))]}
                cases[f"{name}-{t}-{label}"] = category_from_json(data)
    for seed in (2, 16, 5):
        c = minkowski_sample(30, seed)[0]
        cases[f"sprinkle-{seed}"] = c
        cases[f"sprinkle-{seed}-exact"] = VCategory(rbot(), c.objects, None, c._index)
    wide = minkowski_sample(12, 3, (0.0, 1e30, 0.0, 1e30))[0]  # numerators past 2^63
    cases["sprinkle-wide"] = wide
    tiny = minkowski_sample(12, 3, (0.0, 1e-150, 0.0, 1e-150))[0]  # denominators near 2^500
    cases["sprinkle-tiny"] = tiny
    cases["sprinkle-tiny-exact"] = VCategory(rbot(), tiny.objects, None, tiny._index)
    cases["product"] = category_from_json({"quantale": ["rbot", "lawvere"], "objects": ["a", "b"],
                                           "hom": [["(0,0)", "(1/2,1)"], ["(bot,inf)", "(0,0)"]]})
    return cases


ENCODE = encode_cases()
# the Python-int tier of a sprinkle: denominators past 2^63 at these seeds
WIDE = {}
for seed in (2, 16):
    c = minkowski_sample(200, seed)[0]
    WIDE[f"sprinkle-200-{seed}"] = c
    WIDE[f"sprinkle-200-{seed}-exact"] = VCategory(rbot(), c.objects, None, c._index)


@pytest.mark.parametrize("name", list(ENCODE) + list(WIDE))
def test_law_encode_matches_the_qval_encoder(name):
    c = ENCODE.get(name) or WIDE[name]
    got = maxplus.law_encode(c.quantale, c._index)
    want = oracles.one_tolerance_law_encode(c.quantale, c._index)
    for gs, ws in zip(got, want):
        for g, w in zip(gs, ws):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)  # bit for bit: the bounds too


@pytest.mark.parametrize("name", list(ENCODE))
def test_exact_codes_match_the_qval_codes(name):
    c = ENCODE[name]
    (got,), offsets, scale = maxplus.exact_codes(c.quantale, c._index)
    (want,), want_offsets, want_scale = oracles.exact_codes(c.quantale, c._index)
    assert scale == want_scale and offsets.dtype == want_offsets.dtype
    assert offsets.tolist() == want_offsets.tolist()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [(type(x), x) for x in got.flat] == [(type(x), x) for x in want.flat]


@pytest.mark.parametrize("name", list(ENCODE))
def test_decoded_columns_match_the_qval_decoder(name):
    c = ENCODE[name]
    (codes,), _, scale = maxplus.exact_codes(c.quantale, c._index)
    out = maxplus.product(codes, codes)
    (gv, gp), (wv, wp) = maxplus.decode(c.quantale, out, scale), oracles.decode(c.quantale, out, scale)
    assert np.array_equal(gp, wp) and list(gv) == wv
    if c.quantale.kind.value in ("rbot", "lawvere"):
        m = identity_module(c)
        assert compose(m, m) == oracles.compose(m, m)


@pytest.mark.parametrize("name", list(ENCODE) + list(WIDE))
def test_matrix_writer_matches_the_qval_writer(name):
    c = ENCODE.get(name) or WIDE[name]
    for nl in ("\n", "\n    "):
        assert "".join(cli._matrix(c._index, nl)) == "".join(oracles.matrix(c._index, nl))
    assert maxplus.texts(c._index[0]) == [quantale.format_value(v) for v in list(c._index[0])]


def test_a_value_too_long_to_print_raises_as_format_value_does():
    p = 10**4400
    col = maxplus.Column.of([maxplus._FIN], [p], [3])
    with pytest.raises(ValueError) as got:
        maxplus.texts(col)
    with pytest.raises(ValueError) as want:
        quantale.format_value(quantale.finite(Fraction(p, 3)))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n, seed, bounds", [
    (0, 1, (0.0, 1.0, 0.0, 1.0)), (1, 1, (0.0, 1.0, 0.0, 1.0)), (40, 2, (0.0, 1.0, 0.0, 1.0)),
    (40, 16, (0.0, 1.0, 0.0, 1.0)), (40, 7, (0.0, 1.0, 0.0, 1.0)), (20, 3, (0.0, 1e30, 0.0, 1e30)),
    (20, 3, (0.0, 1e-300, 0.0, 1e-300)), (20, 4, (-5.0, 5.0, 2.0, 3.0)),
    (20, 5, (0.0, 1.0, 0.0, 1e-12)),
])
def test_sprinkle_values_match_the_integer_ratios(n, seed, bounds):
    c = minkowski_sample(n, seed, bounds)[0]
    labels, values, positions = oracles.minkowski_sample(n, seed, bounds)
    col, pos = c._index
    assert c.objects == labels and np.array_equal(pos, positions)
    assert isinstance(col, maxplus.Column) and not col._built
    entries = zip(col.tags.tolist(), col.num.tolist(), col.den.tolist())
    assert [(t, int(p), int(q)) for t, p, q in entries] == [maxplus._entry(v) for v in values]
    assert list(col) == values


def test_sprinkles_of_seeds_2_and_16_hold_python_int_denominators():
    for seed in (2, 16):
        col = minkowski_sample(200, seed)[0]._index[0]
        assert col.num.dtype == np.int64 and col.den.dtype == object
        assert max(col.den.tolist()) > 2**63
    col = minkowski_sample(200, 5)[0]._index[0]
    assert col.num.dtype == col.den.dtype == np.int64


def test_a_column_reads_as_a_sequence():
    tags = [maxplus._BOT, maxplus._FIN, maxplus._INF, maxplus._FIN]
    col = maxplus.Column.of(tags, [0, 1, 0, 6], [1, 2, 1, 1])
    assert len(col) == 4 and not col._built
    assert col[1] == quantale.finite("1/2") and col[-1] is col[3] and col[-4] is quantale.BOT
    assert col[np.intp(2)] is quantale.INF and list(col)[1] is col[1]
    for k in (4, -5):
        with pytest.raises(IndexError):
            col[k]
    with pytest.raises(TypeError):
        col[1:2]
    assert sorted(col._built) == [0, 1, 2, 3]


@pytest.mark.parametrize("read_first", [(), (2,), (0, 3), (0, 1, 2, 3)], ids=["unbuilt", "one", "two", "built"])
def test_iteration_yields_the_objects_that_indexing_does(read_first):
    # a finite slot builds its value on first read, through iteration or
    # indexing alike; a product's tuples are the given objects
    tags = [maxplus._FIN, maxplus._BOT, maxplus._FIN, maxplus._INF]
    col = maxplus.Column.of(tags, [1, 0, 7, 0], [3, 1, 2, 1])
    for k in read_first:
        col[k]
    assert len(col._built) == len(read_first)
    got = list(col)
    assert sorted(col._built) == [0, 1, 2, 3]
    assert all(g is col[k] for k, g in enumerate(got))
    assert all(g is h for g, h in zip(got, col))
    assert got == [quantale.finite("1/3"), quantale.BOT, quantale.finite("7/2"), quantale.INF]
    pairs = [quantale.tuple_val([quantale.finite(k), quantale.TRUE]) for k in range(3)]
    tuples = maxplus.column(pairs)
    assert all(g is p for g, p in zip(tuples, pairs)) and len(list(tuples)) == 3


def test_equal_columns_of_two_tiers_are_one_matrix():
    small = maxplus.Column.of([maxplus._FIN, maxplus._BOT], [1, 0], [2, 1])
    big = maxplus.Column(np.array([maxplus._BOT, maxplus._FIN], np.int8), np.array([0, 1], object),
                         np.array([1, 2], object))
    positions = np.array([[0, 1], [1, 0]])
    a = VCategory(RBOT, ("a", "b"), None, (small, positions))
    b = VCategory(RBOT, ("a", "b"), None, (big, 1 - positions))
    assert a == b and a.hom == b.hom
    assert a != VCategory(LAWVERE, ("a", "b"), None, (maxplus.Column.of([maxplus._FIN] * 2, [1, 0], [2, 1]),
                                                     positions))


def test_concurrent_first_reads_of_a_column_see_one_object():
    # a slot's first read races in eight threads, some indexing and some
    # iterating: every thread must get the one object that the slot keeps
    col = minkowski_sample(60, 5)[0]._index[0]
    got = [None] * 8
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def read(t):
            if t % 3 == 0:
                got[t] = dict(enumerate(col))
                return
            order = range(len(col)) if t % 2 else range(len(col) - 1, -1, -1)
            got[t] = {k: col[k] for k in order}

        threads = [threading.Thread(target=read, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert all(len(g) == len(col) for g in got)
    assert all(g[k] is got[0][k] is col[k] for g in got for k in range(len(col)))


@pytest.fixture
def qvals(monkeypatch):
    """A count of every QVal built: through the dataclass, and through
    ``_trusted_finite`` wherever it is called."""
    count = [0]
    post = quantale.QVal.__post_init__
    trusted = quantale._trusted_finite

    def counted_post(self):
        count[0] += 1
        post(self)

    def counted_trusted(x):
        count[0] += 1
        return trusted(x)

    monkeypatch.setattr(quantale.QVal, "__post_init__", counted_post)
    for module in (quantale, maxplus):
        monkeypatch.setattr(module, "_trusted_finite", counted_trusted)
    return count


def test_a_sprinkle_builds_o_of_n_values(tmp_path, qvals):
    n = 200
    path = str(tmp_path / "s.json")
    assert run(["minkowski", "--n", str(n), "--seed", "2", "-o", path]).exit_code == 0
    assert run(["validate", path]).exit_code == 0
    assert qvals[0] <= 2 * n, qvals[0]  # n diagonal zeros, where every value built one: about n^2 / 2
    # a planted violation adds at most a few per listed violation
    data = json.loads(open(path, encoding="utf-8").read())
    data["hom"][0][0] = "1"
    data["hom"][5][7] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    qvals[0] = 0
    result = run(["validate", str(bad)])
    report, endohoms = result.payload["report"], result.payload["endohoms"]
    listed = sum(map(len, (report["composition_violations"], report["unit_violations"],
                           endohoms["violations"])))
    assert result.exit_code == 1 and listed
    assert qvals[0] <= 2 * n + 3 * listed, (qvals[0], listed)


def test_the_qval_spy_counts_a_materialised_column(qvals):
    c = minkowski_sample(30, 2)[0]
    assert qvals[0] == 0
    list(c._index[0])
    assert qvals[0] == len(c._index[0]) - 1  # every slot but bot


@pytest.mark.parametrize("name", ["bool", "bool,bool", "rbot,lawvere", "rbot", "lawvere"])
def test_which_bases_store_a_column(name):
    q = parse_quantale_name(name)
    c = VCategory(q, ("a",), [[quantale.unit(q)]])
    assert isinstance(c._index[0], maxplus.Column)
    assert c._index[0][0] == quantale.unit(q)


def test_a_column_keeps_the_objects_of_its_list():
    # a tuple is held by no tag code of a plain base: its slot reads back
    # as the given value, not as a finite 0
    v, w = quantale.tuple_val([quantale.finite(1), quantale.TRUE]), quantale.finite("1/2")
    col = maxplus.column([v, w])
    assert col.tags.tolist() == [maxplus._OTHER, maxplus._FIN]
    assert col[0] is v and col[1] is w and col[0] != quantale.finite(0)


@pytest.mark.parametrize("name", ["bool", "rbot,lawvere"])
def test_a_hand_built_matrix_keeps_its_objects(name):
    q = parse_quantale_name(name)
    if name == "bool":  # equal to the shared truth values, but not them
        a, b = quantale.QVal(quantale.Tag.BOOL, True), quantale.QVal(quantale.Tag.BOOL, False)
    else:
        a = quantale.tuple_val([quantale.finite(0), quantale.finite(0)])
        b = quantale.tuple_val([quantale.BOT, quantale.finite("1/2")])
    hom = [[a, b], [b, a]]
    c = VCategory(q, ("x", "y"), hom)
    values = c._index[0]
    assert isinstance(values, maxplus.Column) and values[0] is a and values[1] is b
    gathered = VCategory(q, c.objects, None, c._index)  # hom read back from the index
    assert all(gathered.hom[i][j] is hom[i][j] for i in range(2) for j in range(2))
    assert gathered == c and maxplus.texts(values) == [quantale.format_value(v) for v in (a, b)]


@pytest.mark.parametrize("first, then", [
    ("(1,2,3)", "bot"), ("bot", "(1,2,3)"), ("1", "true"), ("(bot,1)", "bot"),
])
def test_a_product_files_first_bad_entry_raises(first, then):
    # on rbot,bool the first bad entry in row-major order is the one named,
    # by its position
    messages = {
        "(1,2,3)": "QVal((1,2,3)) does not match the product shape",
        "bot": "QVal(bot) does not match the product shape",
        "1": "QVal(1) does not match the product shape",
        "(bot,1)": "QVal(1) is not a truth value",
    }
    for a, b in [((0, 1), (1, 0)), ((1, 0), (1, 1)), ((0, 0), (0, 1))]:
        hom = [["(0,true)", "(1,false)"], ["(bot,false)", "(0,true)"]]
        hom[a[0]][a[1]], hom[b[0]][b[1]] = first, then
        with pytest.raises(ValueError) as got:
            category_from_json({"quantale": ["rbot", "bool"], "objects": ["x", "y"], "hom": hom})
        assert str(got.value) == f"category.hom[{a[0]}][{a[1]}]: {messages[first]}"
    hom = [["(0,true)", "(1,true)x"], ["(1,2,3)", "(0,true)"]]  # an unreadable entry raises at parse
    with pytest.raises(ValueError, match=r"^category\.hom\[0\]\[1\]: cannot parse '\(1,true\)x'"):
        category_from_json({"quantale": ["rbot", "bool"], "objects": ["x", "y"], "hom": hom})


@pytest.mark.parametrize("name", list(ENCODE) + list(WIDE))
@pytest.mark.parametrize("tolerance", [0, 1e-9, 0.5, 1, 3])
def test_unit_below_is_the_scalar_leq(name, tolerance):
    c = ENCODE.get(name) or WIDE[name]
    q = quantale.descriptor_from_json(quantale.descriptor_to_json(c.quantale), tolerance)
    values = c._index[0]
    want = [quantale.leq(q, quantale.unit(q), v) for v in list(values)]
    assert maxplus.unit_below(q, values).tolist() == want
    assert True in want or not len(values)
