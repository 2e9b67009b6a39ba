"""Differential tests of the exact shortcuts in ``classify_endohoms``,
``underlying_preorder`` and the ``VCategory``/``VModule`` carrier check
and index.

Each shortcut is compared with a slow reference kept here: the
all-pairs ``classify_endohoms`` loop over the scalar ``eq`` and
``tensor``, ``{(a, b) | leq(q, unit(q), hom[a][b])}``, and the
per-entry constructor check.  Results, message order and first errors
must be equal, not just equivalent.  ``classify_endohoms`` reads each
value's kind (bot, zero within the tolerance, other finite, inf), so
its values sit on both sides of each kind boundary: 1/2 and
1/2 + 10^-12 at tolerance 1/2, and the float 1e-9, which is the
tolerance 1e-9 itself.  Every two-object category over those values is
compared, at every tolerance, as are sprinkles (whose diagonal holds
distinct but equal zeros) and random causal spaces with irregular
events.  The index must rebuild the matrix it was
made from, object for object, whether the constructor's walk or the
matrix's producer (the parse, from-dag, the sprinkle, the decoder) made
it; the sprinkle is also compared with ``interval_2d`` pair by pair.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcat import (
    BOOL,
    BOT,
    INF,
    LAWVERE,
    RBOT,
    CarrierMismatch,
    CausalDag,
    EndohomReport,
    Kind,
    QVal,
    QuantaleDescriptor,
    VCategory,
    VModule,
    boolean,
    canonical_right_adjoint,
    carrier_check,
    category_from_json,
    category_to_json,
    causal_space_from_dag,
    classify_endohoms,
    compose,
    eq,
    finite,
    format_value,
    identity_module,
    interval_2d,
    leq,
    maxplus,
    minkowski_sample,
    module_from_json,
    module_to_json,
    opposite,
    product,
    rbot,
    representable,
    tensor,
    tuple_val,
    underlying_preorder,
    unit,
    unit_category,
)
from qcat.category import IRREGULAR, REGULAR
from qcat.quantale import Tag

from randgen import random_dag, random_rbot_category

TOLERANCES = (0.0, 1e-9, 0.5)


def reference_classify_endohoms(c: VCategory) -> EndohomReport:
    """``classify_endohoms`` before the shortcuts: every law on every pair."""
    if c.quantale.kind is not Kind.RBOT:
        raise CarrierMismatch("endohom classification requires the causal base")
    q = c.quantale
    u = unit(q)
    n = len(c)
    hom = c.hom
    classes: list[tuple[str, str]] = []
    violations: list[tuple[str, str]] = []
    for i, o in enumerate(c.objects):
        endo = hom[i][i]
        if not eq(q, tensor(q, endo, endo), endo):
            violations.append(
                ("endohom-idempotent", f"E({o},{o}) = {format_value(endo)} is not idempotent")
            )
        if endo.tag is Tag.INF:
            classes.append((o, IRREGULAR))
        elif eq(q, endo, u):
            classes.append((o, REGULAR))
        else:
            classes.append((o, "invalid"))
            violations.append(
                ("endohom-value", f"E({o},{o}) = {format_value(endo)} is neither 0 nor inf")
            )
    kind = dict(classes)
    for i, x in enumerate(c.objects):
        for j, y in enumerate(c.objects):
            if not eq(q, tensor(q, hom[j][i], hom[i][i]), hom[j][i]):
                violations.append(
                    ("endohom-action", f"E({y},{x}) tensor E({x},{x}) != E({y},{x})")
                )
            if not eq(q, tensor(q, hom[i][i], hom[i][j]), hom[i][j]):
                violations.append(
                    ("endohom-action", f"E({x},{x}) tensor E({x},{y}) != E({x},{y})")
                )
    for i, x in enumerate(c.objects):
        if kind[x] == IRREGULAR:
            for j, y in enumerate(c.objects):
                for v in (hom[j][i], hom[i][j]):
                    if v.tag is Tag.FINITE:
                        violations.append(
                            (
                                "irregular-homs",
                                f"irregular {x} has finite hom {format_value(v)} with {y}",
                            )
                        )
    for i, x in enumerate(c.objects):
        for j, y in enumerate(c.objects):
            if i < j and kind[x] == REGULAR and kind[y] == REGULAR:
                fwd, back = hom[i][j], hom[j][i]
                if fwd.tag is not Tag.BOT and back.tag is not Tag.BOT:
                    if not (eq(q, fwd, u) and eq(q, back, u)):
                        violations.append(
                            (
                                "regular-pair",
                                f"regular {x}, {y} have homs {format_value(fwd)}, "
                                f"{format_value(back)}: neither both 0 nor one bot",
                            )
                        )
    return EndohomReport(tuple(classes), tuple(violations))


def reference_underlying(c: VCategory) -> frozenset[tuple[str, str]]:
    q = c.quantale
    return frozenset(
        (a, b)
        for i, a in enumerate(c.objects)
        for j, b in enumerate(c.objects)
        if leq(q, unit(q), c.hom[i][j])
    )


def reference_matrix_error(q, rows, ncols, row_error):
    """The first error of the per-entry constructor loop, as (type, message)."""
    try:
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(row_error(i, len(row)))
            for v in row:
                carrier_check(q, v)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def raised(build):
    try:
        build()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# --- classify_endohoms ----------------------------------------------------

# the kind boundaries: 1/2 is zero at tolerance 1/2 and 1/2 + 10^-12 is
# not; the float 1e-9 is zero at tolerance 1e-9 and Fraction("1e-10") is
# zero there, but neither is at tolerance 0
BOUNDARY = (finite(Fraction("1e-10")), finite(1e-9), finite(Fraction(1, 2)),
            finite(Fraction(1, 2) + Fraction(1, 10**12)))
ENDOHOMS = (finite(0), *BOUNDARY, finite(5), INF, BOT)
OFF_DIAGONAL = (BOT, BOT, finite(0), *BOUNDARY, finite(1), finite("5/2"), INF)


@st.composite
def rbot_categories(draw):
    n = draw(st.integers(0, 8))
    tol = draw(st.sampled_from(TOLERANCES))
    hom = [[draw(st.sampled_from(OFF_DIAGONAL)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        hom[i][i] = draw(st.sampled_from(ENDOHOMS))
    return VCategory(rbot(tol), tuple(f"o{i}" for i in range(n)), hom)


class TestClassifyEndohoms:
    @settings(max_examples=400, deadline=None)
    @given(rbot_categories())
    def test_matches_reference(self, c):
        assert classify_endohoms(c) == reference_classify_endohoms(c)

    @pytest.mark.parametrize("seed", range(40))
    def test_valid_random_categories_match_reference(self, seed):
        c = random_rbot_category(random.Random(seed), 7)
        assert classify_endohoms(c) == reference_classify_endohoms(c)

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_every_two_object_category(self, tol):
        # each kind of each endohom against each kind of each hom, both ways
        q = rbot(tol)
        homs = tuple(dict.fromkeys(OFF_DIAGONAL))
        for ea, eb in itertools.product(ENDOHOMS, repeat=2):
            for ab, ba in itertools.product(homs, repeat=2):
                c = VCategory(q, ("a", "b"), ((ea, ab), (ba, eb)))
                assert classify_endohoms(c) == reference_classify_endohoms(c), c.hom

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_sprinkles_match_reference(self, seed, tol):
        # one zero object per event on the diagonal; the events sit at
        # distinct points, so no regular pair has two homs that are not bot
        c = minkowski_sample(60, seed)[0]
        values, positions = c._index
        diagonal = [values[k] for k in positions.diagonal().tolist()]
        assert len({id(v) for v in diagonal}) == 60 and set(diagonal) == {finite(0)}
        c = VCategory(rbot(tol), c.objects, c.hom)
        report = classify_endohoms(c)
        assert report == reference_classify_endohoms(c)
        assert report.ok and {k for _, k in report.classes} == {REGULAR}

    def test_producer_blocks_match_reference(self):
        # from-dag's int32 positions, and their transposed view in the opposite
        rng = random.Random(5)
        for _ in range(30):
            c = causal_space_from_dag(random_dag(rng, 9))
            for d in (c, opposite(c)):
                assert classify_endohoms(d) == reference_classify_endohoms(d)

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_random_categories_with_irregular_events(self, tol):
        rng, seen = random.Random(11), 0
        while seen < 25:
            c = random_rbot_category(rng, 8, weights=(finite(0), *BOUNDARY, finite(1)))
            if INF not in [c.hom[i][i] for i in range(len(c))]:
                continue
            seen += 1
            c = VCategory(rbot(tol), c.objects, c.hom)
            assert classify_endohoms(c) == reference_classify_endohoms(c)
            # a hom into or out of an irregular event made finite
            i = next(i for i in range(len(c)) if c.hom[i][i] == INF)
            j = rng.randrange(len(c))
            hom = [list(row) for row in c.hom]
            hom[i][j] = hom[j][i] = rng.choice(BOUNDARY) if i != j else INF
            bad = VCategory(c.quantale, c.objects, hom)
            assert classify_endohoms(bad) == reference_classify_endohoms(bad)

    def test_endohom_within_tolerance_still_checks_its_row(self):
        # 1e-10 is regular at tolerance 1e-9, but x + 1e-10 != x exactly;
        # at that tolerance the action law still holds
        c = VCategory(
            rbot(1e-9),
            ("a", "b"),
            ((finite(Fraction("1e-10")), finite(1)), (BOT, finite(0))),
        )
        assert classify_endohoms(c) == reference_classify_endohoms(c)
        assert classify_endohoms(c).ok
        exact = VCategory(RBOT, c.objects, c.hom)
        report = classify_endohoms(exact)
        assert report == reference_classify_endohoms(exact)
        assert [law for law, _ in report.violations] == [
            "endohom-idempotent",
            "endohom-value",
            "endohom-action",
            "endohom-action",
            "endohom-action",
        ]


# --- underlying_preorder --------------------------------------------------


def lawvere_values(tol):
    at = Fraction(tol)
    return (finite(0), finite(at), finite(at + Fraction(1, 10**12)), finite(Fraction("1e-9")),
            finite(Fraction(1, 2)), finite(3), INF)


RBOT_VALUES = (BOT, finite(0), finite(Fraction("1e-10")), finite(2), INF)
BOOL_VALUES = (boolean(False), boolean(True))


def leaf_values(q: QuantaleDescriptor):
    if q.kind is Kind.RBOT:
        return st.sampled_from(RBOT_VALUES)
    if q.kind is Kind.LAWVERE:
        return st.sampled_from(lawvere_values(q.tolerance))
    if q.kind is Kind.BOOL:
        return st.sampled_from(BOOL_VALUES)
    return st.tuples(*(leaf_values(f) for f in q.factors)).map(tuple_val)


def plain_bases():
    return st.builds(
        QuantaleDescriptor,
        st.sampled_from((Kind.RBOT, Kind.LAWVERE, Kind.BOOL)),
        st.sampled_from(TOLERANCES),
    )


# products whose factors, and the product itself, carry tolerances, the
# product's at least its factors'
bases = st.one_of(
    plain_bases(),
    st.builds(
        lambda fs, tol: product(*fs, tolerance=max([tol] + [f.tolerance for f in fs])),
        st.lists(plain_bases(), min_size=1, max_size=3),
        st.sampled_from(TOLERANCES),
    ),
)


@st.composite
def categories(draw):
    q = draw(bases)
    n = draw(st.integers(0, 5))
    vals = leaf_values(q)
    hom = [[draw(vals) for _ in range(n)] for _ in range(n)]
    return VCategory(q, tuple(f"o{i}" for i in range(n)), hom)


class TestUnderlying:
    @settings(max_examples=400, deadline=None)
    @given(categories())
    def test_matches_reference(self, c):
        assert underlying_preorder(c) == reference_underlying(c)

    @staticmethod
    def loop(q, v) -> bool:
        """Whether the one-object category with endohom ``v`` has its loop."""
        edges = underlying_preorder(VCategory(q, ("x",), ((v,),)))
        assert edges <= {("x", "x")}
        return bool(edges)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_object_loop_is_leq_from_unit(self, data):
        q = data.draw(bases)
        v = data.draw(leaf_values(q))
        assert self.loop(q, v) == leq(q, unit(q), v)

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_lawvere_value_exactly_at_tolerance(self, tol):
        q = QuantaleDescriptor(Kind.LAWVERE, tol)
        at = finite(Fraction(tol))
        above = finite(Fraction(tol) + Fraction(1, 10**12))
        assert self.loop(q, at) is True and leq(q, unit(q), at)
        assert self.loop(q, above) is False and not leq(q, unit(q), above)

    def test_product_uses_each_factor_tolerance(self):
        lw = QuantaleDescriptor(Kind.LAWVERE, 0.5)
        with pytest.raises(ValueError, match="exceeds the product's"):
            product(lw, BOOL, tolerance=0.25)
        q = product(lw, BOOL, tolerance=0.5)
        half = tuple_val((finite(Fraction(1, 2)), boolean(True)))
        over = tuple_val((finite(Fraction(3, 4)), boolean(True)))
        assert self.loop(q, half) and leq(q, unit(q), half)
        assert not self.loop(q, over) and not leq(q, unit(q), over)


# --- constructor carrier checks -------------------------------------------

# a value outside each base's carrier, and one inside it
BAD = {"rbot": boolean(True), "lawvere": BOT, "bool": finite(1),
       "product": tuple_val((finite(1),))}
GOOD = {"rbot": finite(1), "lawvere": INF, "bool": boolean(False),
        "product": tuple_val((finite(1), boolean(True)))}
BASE = {"rbot": RBOT, "lawvere": LAWVERE, "bool": BOOL, "product": product(RBOT, BOOL)}


def planted_rows(base, n, bad_row, short_row, bad_col=0):
    rows = [[GOOD[base]] * n for _ in range(n)]
    if bad_row is not None:
        rows[bad_row][bad_col] = BAD[base]
    if short_row is not None:
        rows[short_row] = rows[short_row][:-1]
    return rows


ORDERS = [(0, 2), (2, 0), (1, 1), (None, 1), (1, None), (None, None)]


class TestConstructorErrors:
    @pytest.mark.parametrize("base", sorted(BASE))
    @pytest.mark.parametrize("bad_row,short_row", ORDERS)
    def test_category_first_error(self, base, bad_row, short_row):
        n = 3
        q = BASE[base]
        rows = planted_rows(base, n, bad_row, short_row, bad_col=n - 1)
        got = raised(lambda: VCategory(q, ("a", "b", "c"), rows))
        want = reference_matrix_error(
            q, rows, n, lambda i, k: f"hom row {i} has {k} entries for {n} objects"
        )
        assert got == want
        assert (got is None) == (bad_row is None and short_row is None)

    @pytest.mark.parametrize("base", sorted(BASE))
    @pytest.mark.parametrize("bad_row,short_row", ORDERS)
    def test_module_first_error(self, base, bad_row, short_row):
        q = BASE[base]
        n = 3
        cat = VCategory(q, ("a", "b", "c"), [[unit(q)] * n for _ in range(n)])
        rows = planted_rows(base, n, bad_row, short_row)
        got = raised(lambda: VModule(cat, cat, rows))
        want = reference_matrix_error(
            q, rows, n, lambda i, k: f"module row {i} has {k} entries for {n} source objects"
        )
        assert got == want
        assert (got is None) == (bad_row is None and short_row is None)

    @pytest.mark.parametrize("base", sorted(BASE))
    @pytest.mark.parametrize("table", [GOOD, BAD], ids=["good", "bad"])
    def test_module_without_source_objects(self, base, table):
        # with no columns there is no entry to index, but every row's
        # length is still checked, in order
        q = BASE[base]
        empty = VCategory(q, (), ())
        tgt = VCategory(q, ("a", "b"), [[unit(q)] * 2 for _ in range(2)])
        rows = [[], [table[base]]]
        got = raised(lambda: VModule(empty, tgt, rows))
        assert got == (ValueError, "module row 1 has 1 entries for 0 source objects")
        assert got == reference_matrix_error(
            q, rows, 0, lambda i, k: f"module row {i} has {k} entries for 0 source objects"
        )

    def test_label_errors(self):
        # the type comes first: a list label cannot be hashed
        assert raised(lambda: VCategory(RBOT, ([1],), ((BOT,),))) == (
            ValueError, "object labels must be strings")
        assert raised(lambda: VCategory(RBOT, ("a", 1), [[BOT] * 2] * 2)) == (
            ValueError, "object labels must be strings")
        assert raised(lambda: VCategory(RBOT, ("a", "a"), [[BOT] * 2] * 2)) == (
            ValueError, "object labels must be unique")
        block = ([BOT], np.zeros((1, 1), np.intp))
        assert raised(lambda: VCategory(RBOT, ([1],), None, block)) == (
            ValueError, "object labels must be strings")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_matrices(self, data):
        base = data.draw(st.sampled_from(sorted(BASE)))
        q = BASE[base]
        n = data.draw(st.integers(1, 4))
        pool = st.sampled_from((GOOD[base], BAD[base], unit(q)))
        rows = [
            [data.draw(pool) for _ in range(data.draw(st.integers(n - 1, n + 1)))]
            for _ in range(n)
        ]
        labels = tuple(f"o{i}" for i in range(n))
        got = raised(lambda: VCategory(q, labels, rows))
        want = reference_matrix_error(
            q, rows, n, lambda i, k: f"hom row {i} has {k} entries for {n} objects"
        )
        assert got == want


# --- the constructor's index ----------------------------------------------


def assert_indexes(index, matrix, ncols):
    """``values[positions]`` is ``matrix`` object for object, and
    ``values`` holds each distinct object once, in order of first
    appearance."""
    values, positions = index
    assert positions.shape == (len(matrix), ncols)
    entries = [v for row in matrix for v in row]
    first: dict[int, QVal] = {}
    for v in entries:
        first.setdefault(id(v), v)
    assert [id(v) for v in values] == list(first)
    assert all(values[k] is v for k, v in zip(positions.ravel().tolist(), entries))


def assert_block(index, matrix, ncols):
    """A producer's index: ``values[positions]`` is ``matrix`` object for
    object, and ``values`` are distinct objects, each used, in any order."""
    values, positions = index
    assert positions.shape == (len(matrix), ncols)
    assert len({id(v) for v in values}) == len(values)
    ks = positions.ravel().tolist()
    assert set(ks) == set(range(len(values)))
    assert all(values[k] is v for k, v in zip(ks, (v for row in matrix for v in row)))


class TestIndex:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_values_at_positions_rebuild_the_matrix(self, data):
        q = data.draw(bases)
        pool = data.draw(st.lists(leaf_values(q), min_size=1, max_size=3))
        pool += [QVal(v.tag, v.value) for v in pool]  # equal, but other objects
        entry = st.sampled_from(pool)
        rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))

        def category(n, prefix):
            hom = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
            c = VCategory(q, tuple(f"{prefix}{i}" for i in range(n)), hom)
            assert_indexes(c._index, c.hom, n)
            return c

        src, tgt = category(cols, "s"), category(rows, "t")
        m = VModule(src, tgt, [[data.draw(entry) for _ in range(cols)] for _ in range(rows)])
        assert_indexes(m._index, m.mat, cols)

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, rows, cols):
        src = VCategory(RBOT, tuple(f"s{j}" for j in range(cols)), [[BOT] * cols] * cols)
        tgt = VCategory(RBOT, tuple(f"t{i}" for i in range(rows)), [[BOT] * rows] * rows)
        m = VModule(src, tgt, [[]] * rows)
        assert_indexes(m._index, m.mat, cols)
        assert m._index[1].shape == (rows, cols)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_parsed_blocks_list_values_in_order_of_first_appearance(self, data):
        c = data.draw(categories())
        m = VModule(c, c, [[data.draw(leaf_values(c.quantale)) for _ in c.objects] for _ in c.objects])
        parsed = category_from_json(category_to_json(c))
        assert_indexes(parsed._index, parsed.hom, len(c))
        pm = module_from_json(module_to_json(m))
        assert_indexes(pm._index, pm.mat, len(c))

    def test_parsed_block_holds_each_object_once(self):
        # "bot" and " BOT" parse to one object; each JSON 1 to an object of its own
        data = {"quantale": "rbot", "objects": ["a", "b", "c"],
                "hom": [["bot", " BOT", "1"], [1, 1, "1"], ["bot", "⊥", " BOT"]]}
        c = category_from_json(data)
        assert_indexes(c._index, c.hom, 3)
        assert len(c._index[0]) == 4
        m = module_from_json({"source": data, "target": data, "mat": data["hom"]})
        assert_indexes(m._index, m.mat, 3)
        assert m.mat[0][0] is m.source.hom[0][0] is BOT

    def test_from_dag_blocks(self):
        rng = random.Random(3)
        dags = [CausalDag((), ()), CausalDag(("v",), ()), CausalDag(("a", "b"), (("a", "b"),))]
        for dag in dags + [random_dag(rng, 9) for _ in range(20)]:
            c = causal_space_from_dag(dag)
            assert_block(c._index, c.hom, len(dag.vertices))

    @pytest.mark.parametrize("n", [0, 1, 2, 25])
    def test_minkowski_blocks(self, n):
        c, events = minkowski_sample(n, n)
        assert_block(c._index, c.hom, n)
        # every pair at once computes what interval_2d computes pair by pair
        assert c.hom == tuple(tuple(interval_2d(a, b) for b in events) for a in events)

    @pytest.mark.parametrize("codes", ["float64", "int"])
    def test_decoded_blocks(self, codes):
        # integer codes in float64 on small integer homs; Python-int codes
        # in object arrays on a sprinkle, whose binary fractions push the
        # common scale past 2^52
        rng = random.Random(7)
        for k in range(6):
            if codes == "int":
                c = minkowski_sample(6 + k, k)[0]
            else:
                c = random_rbot_category(rng, 5, min_objects=1)
                if k % 2:  # a product base, whose values decode builds as tuples
                    c = VCategory(product(c.quantale, BOOL), c.objects, [
                        [tuple_val((v, boolean(rng.random() < 0.5))) for v in row] for row in c.hom])
            (arr,), tol, _ = maxplus.exact_codes(c.quantale, c._index)
            assert (arr.dtype == object) == (tol.dtype == object) == (codes == "int")
            if codes == "int":  # ints or float poles, never a Fraction
                assert {type(x) for x in [*arr.flat, *tol]} <= {int, float}
                assert all(math.isinf(x) for x in arr.flat if type(x) is float)
            m = identity_module(c)
            col = VModule(unit_category(c.quantale), c, [(rng.choice(row),) for row in c.hom])
            for out in (compose(m, m), compose(m, col), canonical_right_adjoint(m),
                        canonical_right_adjoint(col)):
                assert_block(out._index, out.mat, len(out.source))

    def test_cli_walks_no_matrix_entry_by_entry(self, tmp_path, monkeypatch):
        import qcat.category
        import qcat.modules
        from qcat.cli import _dump, run

        walked = []

        def spy(q, rows, ncols, row_error, index=None):
            if index is None:  # the walk over rows built by hand
                walked.append(len(rows) * ncols)
            return maxplus.check_matrix(q, rows, ncols, row_error, index)

        c = VCategory(RBOT, ("a", "b", "c"), [[finite(0), finite(2), BOT], [BOT, finite(0), BOT],
                                             [finite(1), finite(3), finite(0)]])
        files = {"cat.json": category_to_json(c),
                 "m.json": module_to_json(identity_module(c)),
                 "col.json": module_to_json(representable(c, "b"))}
        for name, data in files.items():
            (tmp_path / name).write_text(_dump(data))
        (tmp_path / "edges.txt").write_text("a b\nb c\na d\n")
        p = {name: str(tmp_path / name) for name in (*files, "edges.txt", "out.json", "g.dot")}
        monkeypatch.setattr(qcat.category, "check_matrix", spy)
        monkeypatch.setattr(qcat.modules, "check_matrix", spy)
        for argv in (["validate", p["cat.json"]],
                     ["compose", p["m.json"], p["col.json"], "-o", p["out.json"]],
                     ["compose", p["m.json"], p["m.json"], "-o", p["out.json"]],
                     ["from-dag", p["edges.txt"], "-o", p["out.json"]],
                     ["underlying", p["out.json"], "--dot", p["g.dot"]]):
            assert run(argv).exit_code == 0, argv
        assert walked == []
        VModule(unit_category(RBOT), c, [(BOT,)] * 3)  # the spy sees a hand-built matrix
        assert walked == [3]
