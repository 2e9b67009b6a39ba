"""Differential tests of the file layer, which parses each distinct string
of a file once, checks each distinct product value once and formats each
distinct value object once, against verbatim copies of the per-entry
loops it replaced.

The matrices mix repeated strings, whitespace and case variants of one
value, the JSON literals ``1``, ``1.0`` and ``true`` (equal as Python
keys, different values) with the strings ``"1"`` and ``"true"``, and
bad entries at varied positions, so the first error must come from the
same entry with the same message.  Strings repeat inside a row, since a
row of strings parses each of its new strings once.

``parse_value`` reads a plain digit string, ``d`` or ``d/d``, as two
ints; it is compared with the parser that sent every string through
``Fraction``'s own reader.

The row loop gives each new key a slot and reads nothing; the keys are
read after it, the digit strings in bulk.  That is compared with the
verbatim per-key row loop it replaced (``oracles.parse_rows_per_key``).
"""

import copy
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qcat import (
    CarrierMismatch,
    Collage,
    VCategory,
    VModule,
    category_from_json,
    category_to_json,
    causal_space_from_dag,
    collage_from_json,
    descriptor_from_json,
    descriptor_to_json,
    format_value,
    module_from_json,
    module_to_json,
    parse_value,
    unit_category,
)
import qcat.category
from qcat.category import _read_digits, _require_utf8
from qcat.quantale import _digits
from qcat.collage import LEFT, RIGHT

import oracles
from randgen import random_dag


# ---- the per-entry loops before the file layer memoised them, verbatim


def ref_category_from_json(data: object, *, where: str = "category") -> VCategory:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object")
    for field in ("quantale", "objects", "hom"):
        if field not in data:
            raise ValueError(f"{where}: missing field {field!r}")
    tolerance = data.get("tolerance", 0.0)
    # NaN fails the comparison; an int too large for a float is rejected too
    if (
        not isinstance(tolerance, (int, float))
        or isinstance(tolerance, bool)
        or not abs(tolerance) <= sys.float_info.max
    ):
        raise ValueError(f"{where}.tolerance: expected a finite number")
    try:
        q = descriptor_from_json(data["quantale"], float(tolerance))
    except ValueError as exc:
        raise ValueError(f"{where}.quantale: {exc}") from None
    objects = data["objects"]
    if not isinstance(objects, list) or any(not isinstance(o, str) for o in objects):
        raise ValueError(f"{where}.objects: expected a list of strings")
    for i, o in enumerate(objects):
        _require_utf8(o, f"{where}.objects[{i}]")
    hom_rows = data["hom"]
    if not isinstance(hom_rows, list):
        raise ValueError(f"{where}.hom: expected a matrix")
    hom: list[tuple] = []
    for i, row in enumerate(hom_rows):
        if not isinstance(row, list):
            raise ValueError(f"{where}.hom[{i}]: expected a row")
        vals = []
        for j, raw in enumerate(row):
            try:
                vals.append(parse_value(raw))
            except ValueError as exc:
                raise ValueError(f"{where}.hom[{i}][{j}]: {exc}") from None
        hom.append(tuple(vals))
    try:
        return VCategory(q, tuple(objects), tuple(hom))
    except (ValueError, CarrierMismatch) as exc:
        raise ref_located(exc, where, "hom", q, hom) from None


def ref_located(exc: ValueError, where: str, name: str, q, rows) -> ValueError:
    """A carrier mismatch names the first entry of the matrix, in
    row-major order, that the per-entry carrier check rejects; any other
    error names the file alone."""
    if isinstance(exc, CarrierMismatch):
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                try:
                    oracles.carrier_check(q, v)
                except CarrierMismatch as bad:
                    return ValueError(f"{where}.{name}[{i}][{j}]: {bad}")
    return ValueError(f"{where}: {exc}")


def ref_module_from_json(data: object, *, where: str = "module") -> VModule:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object")
    for field in ("source", "target", "mat"):
        if field not in data:
            raise ValueError(f"{where}: missing field {field!r}")
    target = ref_category_from_json(data["target"], where=f"{where}.target")
    raw_src = data["source"]
    if raw_src == "I":
        source = unit_category(target.quantale)
    else:
        source = ref_category_from_json(raw_src, where=f"{where}.source")
    raw_mat = data["mat"]
    if not isinstance(raw_mat, list):
        raise ValueError(f"{where}.mat: expected a matrix")
    mat: list[tuple] = []
    for i, row in enumerate(raw_mat):
        if not isinstance(row, list):
            raise ValueError(f"{where}.mat[{i}]: expected a row")
        vals = []
        for j, raw in enumerate(row):
            try:
                vals.append(parse_value(raw))
            except ValueError as exc:
                raise ValueError(f"{where}.mat[{i}][{j}]: {exc}") from None
        mat.append(tuple(vals))
    try:
        return VModule(source, target, tuple(mat))
    except ValueError as exc:
        raise ref_located(exc, where, "mat", target.quantale, mat) from None


def ref_collage_from_json(data: object, *, where: str = "collage") -> Collage:
    cat = ref_category_from_json(data, where=where)
    if "partition" not in data:
        raise ValueError(f"{where}: missing field 'partition'")
    partition = data["partition"]
    if not isinstance(partition, list) or any(p not in (LEFT, RIGHT) for p in partition):
        raise ValueError(f"{where}.partition: expected a list of 'left'/'right'")
    try:
        return Collage(cat, tuple(partition), None)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def ref_category_to_json(c: VCategory) -> dict:
    return {
        "quantale": descriptor_to_json(c.quantale),
        "tolerance": c.quantale.tolerance,
        "objects": list(c.objects),
        "hom": [[format_value(v) for v in row] for row in c.hom],
    }


def ref_module_to_json(m: VModule) -> dict:
    src: object
    if m.source == unit_category(m.quantale):
        src = "I"
    else:
        src = ref_category_to_json(m.source)
    return {
        "source": src,
        "target": ref_category_to_json(m.target),
        "mat": [[format_value(v) for v in row] for row in m.mat],
    }


# ---- inputs

QUANTALES = ("rbot", "lawvere", "bool", ["rbot", "bool"], ["lawvere", ["bool", "rbot"]])
GOOD = {
    "rbot": ("bot", " BOT", "⊥", "inf", "∞", "0", "1", " 1 ", "1.0", "2.5", "1/3", 1, 1.0, 0, -0.0),
    "lawvere": ("inf", "INF", "0", "1", "1.0", "0.5", 1, 1.0, 0),
    "bool": ("true", "TRUE", " true", "false", "False", True, False),
    "rbot,bool": ("(1,true)", "(bot, false)", "( ⊥ ,TRUE)", "(inf,true)", "(0,false)"),
    "lawvere,bool,rbot": ("(1,(true,bot))", "(inf,(false, 2))", "(0,(TRUE,0))"),
}
ANY = (
    "x", "-1", -1, None, [1], {"a": 1}, "1e99999999", "(1,)", "()", "1/0", float("inf"),
    True, 1, 1.0, "1", "true", "bot", "(true,1)", "(1,2,3)", "(1,(true,bot))", "(1,true)",
)
LABELS = ("a", "b", "c", "d")
# values that parse, drawn from every base: outside the carrier of most
FOREIGN = tuple(dict.fromkeys(v for vs in GOOD.values() for v in vs if isinstance(v, str)))


def _key(quantale) -> str:
    return quantale if isinstance(quantale, str) else ",".join(map(_key, quantale))


@st.composite
def matrices(draw, quantale, rows: int, cols: int):
    good = st.sampled_from(GOOD[_key(quantale)])
    # now and then an entry is drawn from every kind of raw value
    entry = st.integers(0, 14).flatmap(lambda r: st.sampled_from(ANY) if r == 0 else good)
    out = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for r in out:  # an entry repeated later in its row
        for _ in range(draw(st.integers(0, 2)) if cols > 1 else 0):
            j = draw(st.integers(0, cols - 2))
            r[draw(st.integers(j + 1, cols - 1))] = r[j]
    shape = draw(st.integers(0, 19))
    row = st.integers(0, max(0, len(out) - 1))
    if shape == 0 and out:
        out[draw(row)] = draw(st.sampled_from(("x", 1, {"a": 1})))
    elif shape == 1 and out:
        out[draw(row)].append(draw(good))
    elif shape == 2:
        return draw(st.sampled_from(("hom", 1, None)))
    elif shape == 3 and out:
        del out[draw(row)][-1:]
    elif shape == 4 and out:
        del out[draw(row)]
    elif shape == 5:
        out.insert(draw(st.integers(0, len(out))), draw(st.lists(good, min_size=cols, max_size=cols)))
    elif shape == 6 and len(out) > 1 and cols:
        # a short row races a value of another base's carrier, planted in
        # an earlier or a later row
        short, other = draw(st.lists(row, min_size=2, max_size=2, unique=True))
        out[other][draw(st.integers(0, cols - 1))] = draw(st.sampled_from(FOREIGN))
        del out[short][-1]
    return out


@st.composite
def category_files(draw, quantale=None):
    if quantale is None:
        quantale = draw(st.sampled_from(QUANTALES))
    n = draw(st.integers(0, 4))
    data = {
        "quantale": quantale,
        "objects": list(LABELS[:n]),
        "hom": draw(matrices(quantale, n, n)),
    }
    tolerance = draw(st.sampled_from((None, 0, 0.0, -0.0, 0.5, 1, True, "0")))
    if tolerance is not None:
        data["tolerance"] = tolerance
    if n > 1 and draw(st.integers(0, 19)) == 0:
        data["objects"][1] = data["objects"][0]
    return data


def _twin(draw, data: dict) -> dict:
    """A copy of a category file, or one whose fields equal it under ==
    but read differently: true for 1, 1.0 for 1, -0.0 for 0."""
    twin = copy.deepcopy(data)
    how = draw(st.integers(0, 3))
    swaps = ((True, 1), (1, True), (1.0, 1), (0, False), (False, 0.0), (0.0, -0.0))
    if how == 1 and isinstance(twin["hom"], list):
        for row in twin["hom"]:
            if isinstance(row, list):
                for j, raw in enumerate(row):
                    for old, new in swaps:
                        if type(raw) is type(old) and raw == old:
                            row[j] = new
                            return twin
    if how == 2:
        twin["tolerance"] = -0.0 if twin.get("tolerance", 0) == 0 else True
    if how == 3:
        twin.pop("tolerance", None)
    return twin


@st.composite
def module_files(draw):
    quantale = draw(st.sampled_from(QUANTALES))
    target = draw(category_files(quantale))
    n = len(target["objects"])
    kind = draw(st.sampled_from(("I", "twin", "other")))
    if kind == "I":
        source, m = "I", 1
    elif kind == "twin":
        source, m = _twin(draw, target), n
    else:
        source = draw(category_files(draw(st.sampled_from((quantale, quantale, "bool")))))
        m = len(source["objects"])
    return {"source": source, "target": target, "mat": draw(matrices(quantale, n, m))}


@st.composite
def collage_files(draw):
    data = draw(category_files())
    n = len(data["objects"])
    data["partition"] = draw(
        st.lists(st.sampled_from((LEFT, RIGHT, "up")), min_size=n, max_size=n)
    )
    return data


def outcome(parse, data):
    try:
        return "ok", parse(data)
    except ValueError as exc:
        return "error", type(exc), str(exc)


def same_text(a: dict, b: dict) -> bool:
    return json.dumps(a) == json.dumps(b)


# ---- tests


@settings(max_examples=400, deadline=None)
@given(category_files())
def test_category_from_json_matches_per_entry_loop(data):
    got = outcome(category_from_json, data)
    assert got == outcome(ref_category_from_json, data)
    if got[0] == "ok":
        c = got[1]
        assert same_text(category_to_json(c), ref_category_to_json(c))
        assert same_text(category_to_json(c), ref_category_to_json(ref_category_from_json(data)))


@settings(max_examples=400, deadline=None)
@given(module_files())
def test_module_from_json_matches_per_entry_loop(data):
    got = outcome(module_from_json, data)
    assert got == outcome(ref_module_from_json, data)
    if got[0] == "ok":
        m = got[1]
        assert same_text(module_to_json(m), ref_module_to_json(m))
        assert same_text(module_to_json(m), ref_module_to_json(ref_module_from_json(data)))


@settings(max_examples=200, deadline=None)
@given(collage_files())
def test_collage_from_json_matches_per_entry_loop(data):
    got = outcome(collage_from_json, data)
    assert got == outcome(ref_collage_from_json, data)


def reads(read: list):
    """Patch the file layer's two string readers to log, in ``read``, each
    string they read: ``_digits`` one at a time, ``_read_digits`` in bulk."""

    def one(raw):
        read.append(raw)
        return _digits(raw)

    def bulk(texts):
        got = _read_digits(texts)
        if got is not None:
            read.extend(itertools.compress(texts, got[2]))
        return got

    return mock.patch.multiple(qcat.category, _digits=one, _read_digits=bulk)


@settings(max_examples=100, deadline=None)
@given(category_files())
def test_module_endpoints_share_one_memo(data):
    # each distinct string of the file is read once: a digit string as two
    # ints, which each matrix's column turns into a value of its own on
    # first read, and any other string by parse_value, one object for all
    module = {"source": copy.deepcopy(data), "target": data, "mat": data.get("hom")}
    read = []
    try:
        with reads(read):
            m = module_from_json(module)
    except ValueError:
        return
    assert len(read) == len(set(read))
    assert m.source == m.target
    for rows in zip(data["hom"], m.source.hom, m.target.hom, m.mat):
        for raw, s, t, v in zip(*rows):
            if isinstance(raw, str):
                assert s == t == v
                if _digits(raw) is None:
                    assert s is t is v


def test_twins_equal_under_eq_are_read_apart():
    target = {"quantale": "rbot", "objects": ["a"], "hom": [[1]], "tolerance": 0}
    for source, expect in (
        ({**target, "hom": [[True]]}, "module.source.hom[0][0]: "),  # true is not in rbot's carrier
        ({**target, "tolerance": False}, "module.source.tolerance"),
    ):
        assert source == target
        module = {"source": source, "target": target, "mat": [["1"]]}
        assert outcome(module_from_json, module) == outcome(ref_module_from_json, module)
        assert outcome(module_from_json, module)[2].startswith(expect)
    # 2^60 as a JSON float prints as 1.152921504606847e+18 and parses as that decimal
    big = {"quantale": "lawvere", "objects": ["a"], "hom": [[float(2**60)]]}
    exact = {**big, "hom": [[2**60]]}
    assert big == exact
    m = module_from_json({"source": exact, "target": big, "mat": [[0]]})
    assert m.source != m.target
    assert m == ref_module_from_json({"source": exact, "target": big, "mat": [[0]]})
    # an int longer than repr may print is still read
    huge = {"quantale": "rbot", "objects": ["a"], "hom": [[10**5000]]}
    module = {"source": huge, "target": copy.deepcopy(huge), "mat": [["0"]]}
    assert module_from_json(module) == ref_module_from_json(module)
    # -0.0 prints as -0.0
    zero = {"quantale": "rbot", "objects": ["a"], "hom": [["0"]], "tolerance": 0}
    negzero = {**zero, "tolerance": -0.0}
    module = {"source": negzero, "target": zero, "mat": [["0"]]}
    assert same_text(
        module_to_json(module_from_json(module)), ref_module_to_json(ref_module_from_json(module))
    )


def test_from_dag_values_match_fresh_ones():
    rng = random.Random(5)
    for _ in range(20):
        dag = random_dag(rng)
        c = causal_space_from_dag(dag)
        assert same_text(category_to_json(c), ref_category_to_json(c))
        # one value object per path length
        by_text = {}
        for row in c.hom:
            for v in row:
                assert by_text.setdefault(format_value(v), v) is v


# ---- the value parser against Fraction's reader

# Arabic-Indic, fullwidth and Bengali decimal digits, which int() and
# Fraction read; the superscript two, a digit that neither reads
DIGITS = "0123456789"
OTHER_DIGITS = "١٢٠０５৩²"
SPACES = ("", " ", "  ", "\t", "\n", "\u3000")
SPECIAL = (
    "007/010", "1_000/3", "1/3_0", "²", "1/0", "0/0", "0/5", "1/2/3", "/3", "3/", "/", "",
    "١/٢", "٣", "-0", "+3/4", "-1/2", "00", "1 /2", "1/ 2", "1e3", "1.5/2", "0x10",
    "1" * 4301, "1" * 4301 + "/3", "3/" + "1" * 4301, "1" * 4300 + "/" + "2" * 4300,
)


@st.composite
def number_strings(draw):
    def digits():
        alphabet = DIGITS if draw(st.booleans()) else DIGITS + OTHER_DIGITS + "_"
        run = draw(st.text(st.sampled_from(alphabet), min_size=0, max_size=8))
        return "0" * draw(st.integers(0, 2)) + run

    text = draw(st.sampled_from(("", "", "+", "-"))) + digits()
    if draw(st.booleans()):
        text += "/" + digits()
    return draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(SPACES))


def check_parse(text):
    got = outcome(parse_value, text)
    assert got == outcome(oracles.parse_value, text)
    if got[0] == "ok":
        frac = got[1].value
        assert type(frac) is Fraction and math.gcd(frac.numerator, frac.denominator) == 1


@settings(max_examples=1000, deadline=None)
@given(st.one_of(number_strings(), st.sampled_from(SPECIAL)))
def test_parse_value_matches_fractions_reader(text):
    check_parse(text)


def test_parse_value_special_strings_match_fractions_reader():
    for text in SPECIAL:
        for pad in SPACES:
            check_parse(pad + text + pad)
    # a digit string past the limit raises as the reader does, not as int()
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert outcome(parse_value, "1" * 4301)[2] == f"cannot parse {'1' * 4301!r} as a value"
    assert outcome(parse_value, "1/0") == ("error", ValueError, "cannot parse '1/0' as a value")
    assert parse_value(" 007/010 ").value == Fraction(7, 10)


# ---- the row parse: each row's new strings once


def hom_error(hom):
    n = len(hom)
    data = {"quantale": "rbot", "objects": [f"o{i}" for i in range(n)], "hom": hom}
    got = outcome(category_from_json, data)
    assert got == outcome(ref_category_from_json, data)
    return got[2]


def test_a_repeated_bad_string_raises_at_its_first_entry():
    # "x" twice after a good string's duplicate, in a row that misses the
    # strings seen so far, and again in a row whose good strings were seen
    hom = [["0"] * 6, ["1", "2", "2", "x", "2", "x"]] + [["0"] * 6] * 4
    assert hom_error(hom) == "category.hom[1][3]: cannot parse 'x' as a value"
    hom = [["0", "2"] * 3, ["0", "2", "2", "0", "y", "y"]] + [["0"] * 6] * 4
    assert hom_error(hom) == "category.hom[1][4]: cannot parse 'y' as a value"


def test_a_row_of_numbers_and_strings_raises_at_its_first_bad_entry():
    rest = [["0"] * 4] * 3
    assert hom_error([["0", 1, "x", 2.5]] + rest) == (
        "category.hom[0][2]: cannot parse 'x' as a value"
    )
    assert hom_error(rest[:1] + [["0", "1", -1, "x"]] + rest[1:]) == (
        "category.hom[1][2]: negative value -1 is not in any carrier"
    )
    assert hom_error(rest[:1] + [[1, "x", "x", None]] + rest[1:]) == (
        "category.hom[1][1]: cannot parse 'x' as a value"
    )


# ---- the one row loop: strings keyed by their text, other entries by position


def same_rows(rows):
    """``_parse_rows(rows)`` against the copy of the parser that built a
    QVal per distinct string: the same error, or the same values in the
    same slots at the same positions."""
    ncols = len(rows[0]) if rows else 0
    got = outcome(lambda r: qcat.category._parse_rows(r, "m", {}, ncols), rows)
    want = outcome(lambda r: oracles.parse_rows(r, "m", {}, ncols), rows)
    if want[0] == "error":
        assert got == want
        return got[2]
    (_, (column, positions)), (_, (values, want_positions)) = got[1], want[1]
    assert isinstance(column, qcat.maxplus.Column)
    assert positions.tolist() == want_positions.tolist()
    assert list(column) == values
    assert [v.tag for v in column] == [v.tag for v in values]
    return column, positions.tolist()


def test_equal_json_keys_of_other_types_are_read_apart():
    # 1, 1.0 and true are one dict key; each is read where it stands, so
    # the numbers take a slot per entry and true its one shared value
    rows = [[1, 1.0, True, "1"], [True, 1.0, 1, "1"], [1.0, True, "1", 1], ["1", "1", "1", "1"]]
    column, positions = same_rows(rows)
    assert len(column) == 8
    assert [[format_value(column[k]) for k in row] for row in positions] == [
        ["1", "1", "true", "1"], ["true", "1", "1", "1"], ["1", "true", "1", "1"], ["1"] * 4,
    ]
    assert positions[3] == [positions[0][3]] * 4  # the string's one slot, by the fast path


def test_a_row_of_seen_strings_with_a_new_number_reads_the_number():
    column, positions = same_rows([["0", "1", "0"], ["1", "0", 1], ["0", 0.5, "1"]])
    assert positions == [[0, 1, 0], [1, 0, 2], [0, 3, 1]]
    assert [format_value(v) for v in column] == ["0", "1", "1", "1/2"]


def test_a_string_first_read_in_a_mixed_row_is_found_by_the_fast_path():
    read = []
    with reads(read):
        _, positions = same_rows([[0, "2/4", "bot"], ["2/4", "bot", "2/4"], ["bot", "bot", "2/4"]])
    assert read == ["2/4", "bot"]
    assert positions == [[0, 1, 2], [1, 2, 1], [2, 2, 1]]


def test_a_bad_entry_of_either_kind_raises_in_row_major_order():
    for rows, where in (
        ([["0", None, "x"]], "[0][1]"),  # a bad non-string, then a bad string
        ([["0", "x", None]], "[0][1]"),  # a bad string, then a bad non-string
        ([["0", "1"], ["1", -1, "0", "x"]], "[1][1]"),  # after seen strings
        ([["0", "1"], ["x", "1", -1, "x"]], "[1][0]"),
        ([["0", "1"], ["1", "0", "x", -1]], "[1][2]"),
    ):
        assert same_rows(rows).startswith(f"m{where}: ")


def test_no_entry_equals_a_position_key():
    # a tuple, which no JSON file holds, is not mistaken for where an
    # earlier row's number stood
    error = "m[1][0]: cannot parse (0, 0) as a value"
    assert same_rows([[1, "0"], [(0, 0), "0"]]) == error


# ---- the two passes against the per-key row loop

INT64_MAX = 2**63 - 1
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
PARTS = ("0", "7", "007", "1" * 18, "9" * 18, "1" * 19, "9" * 19, "1" * 25,
         str(INT64_MAX), str(INT64_MAX + 1), "1" * (LIMIT + 1))
ODD = (
    "0/0", "3/0", "١/٢", "１", "١", " 1/2 ", "1//2", "/2", "2/", "/", "", "+1", "1_0", "1 2",
    "1\n", "\n1/2", "1/2\n", "bot", "⊥", " BOT", "inf", "x", "true", "(1,true)", "1.5", "1e3",
    "-1", 1, 1.0, True, False, -1, None, [1], 2**70,
)


@st.composite
def digit_strings(draw):
    text = draw(st.sampled_from(PARTS))
    if draw(st.booleans()):
        text += "/" + draw(st.sampled_from(PARTS))
    return text


@st.composite
def odd_matrices(draw):
    """Rows of digit strings, ``d`` and ``d/d`` with parts of 1 to past
    the digit limit, among text, numbers and bad entries; now and then a row
    that is no list, a short row or a bad entry planted before one."""
    entry = st.one_of(digit_strings(), digit_strings(), st.sampled_from(ODD))
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    shape = draw(st.integers(0, 9))
    if shape == 0 and rows:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(("x", 1, None))))
    elif shape == 1 and rows and m:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, m - 1))] = draw(st.sampled_from(("3/0", "x", "1" * (LIMIT + 1))))
        rows.insert(draw(st.integers(i + 1, len(rows))), "row")
    elif shape == 2 and rows:
        del rows[draw(st.integers(0, len(rows) - 1))][-1:]
    return rows


def same_parse(rows, memo=None, memo_ref=None):
    """``_parse_rows(rows)`` against the per-key row loop it replaced: the
    same error, or the same slots, tags, ints and positions, and the same
    memo after."""
    ncols = len(rows[0]) if rows and isinstance(rows[0], list) else 0
    memo = {} if memo is None else memo
    memo_ref = {} if memo_ref is None else memo_ref
    got = outcome(lambda r: qcat.category._parse_rows(r, "m", memo, ncols), rows)
    want = outcome(lambda r: oracles.parse_rows_per_key(r, "m", memo_ref, ncols), rows)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "ok"
    (given, index), (want_given, want_index) = got[1], want[1]
    if want_index is None:
        assert index is None and given == want_given
        return
    (column, positions), (values, want_positions) = index, want_index
    assert positions.tolist() == want_positions.tolist()
    for a, b in ((column.tags, values.tags), (column.num, values.num), (column.den, values.den)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert sorted(column._built) == sorted(values._built)
    assert list(column) == list(values)
    assert memo.keys() == memo_ref.keys()
    assert all(memo[k] == memo_ref[k] for k in memo)


@settings(max_examples=600, deadline=None)
@given(odd_matrices())
def test_two_passes_match_the_per_key_loop(rows):
    same_parse(rows)


@settings(max_examples=200, deadline=None)
@given(odd_matrices(), odd_matrices())
def test_a_later_matrix_reads_the_memo_as_the_per_key_loop_did(first, rows):
    memo, memo_ref = {}, {}
    ncols = len(first[0]) if first and isinstance(first[0], list) else 0
    try:
        oracles.parse_rows_per_key(first, "m", memo_ref, ncols)
        qcat.category._parse_rows(first, "m", memo, ncols)
    except ValueError:
        return
    same_parse(rows, memo, memo_ref)


def test_parts_past_int64_and_bad_entries_before_a_row():
    big = str(INT64_MAX + 1)
    for rows in (
        [["1" * 18, "1" * 19, "1" * 25], [str(INT64_MAX), big, "0"], ["bot", "1/" + big, big + "/3"]],
        [["1/" + "9" * 19, "9" * 19 + "/" + "9" * 19, "18446744073709551617/2"]],
        [["0", "3/0"], "row"],  # the bad entry, not the row, raises
        [["0", "0/0"], ["1", "0"]],
        [["0", "1"], ["1", "1" * (LIMIT + 1)]],
        [["١/٢", "１"], [" 1/2 ", "1"]],
        [["1//2", "0"]], [["0", "/2"]], [["2/", "0"]], [["+1", "1_0"]],
        [["1\n", "2"], ["\n1/2", "bot"]],
        [["0", "x", None], "row"],
        [["1", 1, "1", True], [1.0, "1", True, "bot"], ["⊥", "bot", "2", "2/4"], ["2", "0", "1", "1"]],
    ):
        same_parse(rows)
    assert outcome(lambda r: qcat.category._parse_rows(r, "m", {}, 2), [["0", "3/0"], "row"]) == (
        "error", ValueError, "m[0][1]: cannot parse '3/0' as a value"
    )


def test_fromstring_saturates_past_int64():
    # the bulk reader reads every part with np.fromstring, and reads a part
    # that comes back as int64's maximum again with int(): this pins that a
    # part past int64 comes back as that maximum, with no error or warning
    import warnings

    import numpy as np

    text = " ".join(("5", str(INT64_MAX), str(INT64_MAX + 1), "9" * 25, "1" * 5000, "7"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = np.fromstring(text, np.int64, sep=" ").tolist()
    assert parts == [5, INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX, 7]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0, 1, 2, 3, 6, 2**52, 2**62, 2**63, 3 * 2**61, 10**25)),
                          st.sampled_from((1, 2, 3, 4, 2**53, 2**62, 2**63, 2**64, 3 * 2**60, 10**20)))))
def test_reduced_skips_no_pair_it_must_divide(pairs):
    # every gcd 1 returns the arrays as read; the same ints and dtypes as
    # the step that divided every pair
    nums, dens = [p for p, _ in pairs], [q for _, q in pairs]
    got, want = qcat.maxplus._reduced(nums, dens), oracles.reduced(nums, dens)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert [Fraction(p, q) for p, q in zip(*(a.tolist() for a in got))] == [Fraction(p, q) for p, q in pairs]
