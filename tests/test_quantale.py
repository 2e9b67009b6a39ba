from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcat.quantale
from qcat import (
    BOOL,
    BOT,
    FALSE,
    INF,
    LAWVERE,
    RBOT,
    TRUE,
    CarrierMismatch,
    QuantaleDescriptor,
    QVal,
    Tag,
    bottom,
    check_laws,
    descriptor_from_json,
    descriptor_to_json,
    finite,
    format_value,
    join,
    join_witness,
    leq,
    meet,
    parse_quantale_name,
    parse_value,
    product,
    rbot,
    residual,
    tensor,
    top,
    tuple_val,
    unit,
)
from qcat.quantale import _trusted_finite

BOOL2 = product(BOOL, BOOL)
RBOT_GRID = (BOT, finite(0), finite(1), finite(Fraction(5, 2)), finite(7), INF)
LAWVERE_GRID = (finite(0), finite(1), finite(Fraction(5, 2)), finite(7), INF)
BOOL_GRID = (FALSE, TRUE)
BOOL2_GRID = tuple(tuple_val([a, b]) for a in BOOL_GRID for b in BOOL_GRID)


def B(x):
    return TRUE if x else FALSE


class TestRBotTables:
    # representatives bot, a=3, b=5, inf against the two 3x3 tables

    A, Bv = finite(3), finite(5)

    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (BOT, BOT, BOT),
            (BOT, Bv, BOT),
            (BOT, INF, BOT),
            (A, BOT, BOT),
            (A, Bv, finite(8)),
            (A, INF, INF),
            (INF, BOT, BOT),
            (INF, Bv, INF),
            (INF, INF, INF),
        ],
    )
    def test_tensor_table(self, x, y, expected):
        assert tensor(RBOT, x, y) == expected

    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (BOT, BOT, INF),
            (BOT, Bv, INF),
            (BOT, INF, INF),
            (A, BOT, BOT),
            (A, Bv, finite(2)),  # b - a when a <= b
            (Bv, A, BOT),  # bot when a > b
            (A, INF, INF),
            (INF, BOT, BOT),
            (INF, Bv, BOT),
            (INF, INF, INF),
        ],
    )
    def test_residual_table(self, x, y, expected):
        assert residual(RBOT, x, y) == expected

    def test_unit_absorbs_nothing(self):
        for x in (BOT, finite(7), INF):
            assert tensor(RBOT, finite(0), x) == x
            assert tensor(RBOT, x, finite(0)) == x


class TestOrder:
    def test_rbot_examples(self):
        assert leq(RBOT, BOT, finite(0))
        assert leq(RBOT, finite(5), finite(5))
        assert not leq(RBOT, finite(5), finite(3))
        assert leq(RBOT, finite(5), INF)
        assert not leq(RBOT, INF, finite(5))
        assert not leq(RBOT, finite(0), BOT)

    def test_lawvere_arrow_order(self):
        # arrow a -> b iff b <= a numerically
        assert leq(LAWVERE, finite(3), finite(1))
        assert not leq(LAWVERE, finite(1), finite(3))
        assert leq(LAWVERE, INF, finite(7))
        assert not leq(LAWVERE, finite(7), INF)
        assert leq(LAWVERE, INF, INF)

    @pytest.mark.parametrize("q,grid", [(RBOT, RBOT_GRID), (LAWVERE, LAWVERE_GRID)])
    def test_total_order(self, q, grid):
        for a in grid:
            for b in grid:
                assert leq(q, a, b) or leq(q, b, a)

    def test_product_componentwise(self):
        assert leq(BOOL2, tuple_val([FALSE, TRUE]), tuple_val([TRUE, TRUE]))
        assert not leq(BOOL2, tuple_val([TRUE, FALSE]), tuple_val([FALSE, TRUE]))

    def test_tolerance_is_oriented(self):
        qa = rbot(1e-6)
        just_above = finite(Fraction(2000001, 2000000))  # 1 + 0.5e-6
        well_above = finite(Fraction(500001, 500000))  # 1 + 2e-6
        assert leq(qa, just_above, finite(1))
        assert not leq(qa, well_above, finite(1))
        # on the metric base the slack runs the other way
        ql = QuantaleDescriptor(LAWVERE.kind, 1e-6)
        assert leq(ql, finite(1), just_above)
        assert not leq(ql, finite(1), well_above)


class TestLattice:
    def test_joins(self):
        assert join(RBOT, [BOT, finite(2), finite(5)]) == finite(5)
        assert join(RBOT, []) == BOT
        assert meet(RBOT, []) == INF
        assert meet(RBOT, [finite(2), BOT]) == BOT

    def test_lawvere_join_is_numeric_inf(self):
        one, three = finite(1), finite(3)
        j = join(LAWVERE, [one, three])
        # oracle: j is an upper bound of both and the least such in the grid
        assert leq(LAWVERE, one, j) and leq(LAWVERE, three, j)
        for cand in LAWVERE_GRID:
            if leq(LAWVERE, one, cand) and leq(LAWVERE, three, cand):
                assert leq(LAWVERE, j, cand)
        assert j == one
        assert join(LAWVERE, []) == INF
        assert meet(LAWVERE, []) == finite(0)

    def test_product_join(self):
        j = join(BOOL2, [tuple_val([TRUE, FALSE]), tuple_val([FALSE, TRUE])])
        assert j == tuple_val([TRUE, TRUE])
        assert join(BOOL2, []) == bottom(BOOL2)

    @pytest.mark.parametrize(
        "q,grid",
        [(RBOT, RBOT_GRID), (LAWVERE, LAWVERE_GRID), (BOOL, BOOL_GRID), (BOOL2, BOOL2_GRID)],
    )
    def test_join_meet_are_bounds(self, q, grid):
        for a in grid:
            for b in grid:
                j, m = join(q, [a, b]), meet(q, [a, b])
                assert leq(q, a, j) and leq(q, b, j)
                assert leq(q, m, a) and leq(q, m, b)
                assert join(q, [a, a]) == a and meet(q, [a, a]) == a
                assert join(q, [a, b]) == join(q, [b, a])

    @pytest.mark.parametrize(
        "q,grid",
        [(RBOT, RBOT_GRID), (LAWVERE, LAWVERE_GRID), (BOOL2, BOOL2_GRID)],
    )
    def test_join_meet_associative(self, q, grid):
        for a in grid:
            for b in grid:
                for c in grid:
                    assert join(q, [a, join(q, [b, c])]) == join(q, [join(q, [a, b]), c])
                    assert meet(q, [a, meet(q, [b, c])]) == meet(q, [meet(q, [a, b]), c])


class TestPoles:
    def test_rbot(self):
        assert unit(RBOT) == finite(0)
        assert bottom(RBOT) == BOT
        assert top(RBOT) == INF

    def test_lawvere(self):
        assert unit(LAWVERE) == finite(0) == top(LAWVERE)
        assert bottom(LAWVERE) == INF

    def test_bool_and_product(self):
        assert unit(BOOL) == TRUE
        assert unit(BOOL2) == tuple_val([TRUE, TRUE])
        assert bottom(BOOL2) == tuple_val([FALSE, FALSE])


@pytest.mark.parametrize(
    "q,grid",
    [(RBOT, RBOT_GRID), (LAWVERE, LAWVERE_GRID), (BOOL, BOOL_GRID), (BOOL2, BOOL2_GRID)],
)
def test_residuation_adjunction_exhaustive(q, grid):
    for a in grid:
        for b in grid:
            for c in grid:
                assert leq(q, tensor(q, a, b), c) == leq(q, b, residual(q, a, c))


@pytest.mark.parametrize(
    "q,grid",
    [(RBOT, RBOT_GRID), (LAWVERE, LAWVERE_GRID), (BOOL, BOOL_GRID), (BOOL2, BOOL2_GRID)],
)
def test_check_laws_clean(q, grid):
    report = check_laws(q, grid)
    assert report.ok, report.to_json()


def test_check_laws_flags_corrupted_residual(monkeypatch):
    def bad_residual(q, a, c):
        if a == finite(3) and c == finite(5):
            return finite(1)
        return residual(q, a, c)

    monkeypatch.setattr(qcat.quantale, "residual", bad_residual)
    report = check_laws(RBOT, (finite(2), finite(3), finite(5)))
    assert not report.ok
    hits = [v for v in report.violations if v.law == "residuation"]
    assert (finite(3), finite(2), finite(5)) in [v.operands for v in hits]


def test_check_laws_flags_corrupted_tensor(monkeypatch):
    def bad_tensor(q, a, b):
        if a == b == finite(1):
            return finite(3)
        return tensor(q, a, b)

    monkeypatch.setattr(qcat.quantale, "tensor", bad_tensor)
    report = check_laws(RBOT, (finite(0), finite(1), finite(2)))
    assert not report.ok
    assert any(v.law == "residuation" for v in report.violations)


class TestJoinWitness:
    def test_rbot_always(self):
        assert join_witness(RBOT, [BOT, finite(3)])
        for fam in ([], [BOT], [BOT, BOT], [finite(0)], [INF, BOT, finite(1)]):
            assert join_witness(RBOT, fam)

    def test_product_fails(self):
        assert not join_witness(BOOL2, [tuple_val([TRUE, FALSE]), tuple_val([FALSE, TRUE])])

    def test_bool_vacuous(self):
        assert join_witness(BOOL, [FALSE])


def test_rbot_monoidal_idempotents():
    grid = RBOT_GRID + (finite(4), finite(Fraction(1, 3)))
    idem = [v for v in grid if tensor(RBOT, v, v) == v]
    assert set(idem) == {BOT, finite(0), INF}


# hypothesis: the laws are not grid artifacts

frac_st = st.fractions(min_value=0, max_value=1000, max_denominator=64)
rbot_st = st.one_of(st.just(BOT), st.just(INF), frac_st.map(finite))
lawvere_st = st.one_of(st.just(INF), frac_st.map(finite))


@settings(max_examples=300, deadline=None)
@given(rbot_st, rbot_st, rbot_st)
def test_rbot_residuation_property(a, b, c):
    assert leq(RBOT, tensor(RBOT, a, b), c) == leq(RBOT, b, residual(RBOT, a, c))


@settings(max_examples=200, deadline=None)
@given(rbot_st, rbot_st, rbot_st)
def test_rbot_semiring_properties(a, b, c):
    assert tensor(RBOT, a, b) == tensor(RBOT, b, a)
    assert tensor(RBOT, tensor(RBOT, a, b), c) == tensor(RBOT, a, tensor(RBOT, b, c))
    assert tensor(RBOT, a, join(RBOT, [b, c])) == join(
        RBOT, [tensor(RBOT, a, b), tensor(RBOT, a, c)]
    )
    if leq(RBOT, a, b):
        assert leq(RBOT, tensor(RBOT, a, c), tensor(RBOT, b, c))


@settings(max_examples=200, deadline=None)
@given(lawvere_st, lawvere_st, lawvere_st)
def test_lawvere_residuation_property(a, b, c):
    assert leq(LAWVERE, tensor(LAWVERE, a, b), c) == leq(LAWVERE, b, residual(LAWVERE, a, c))


class TestCarrier:
    def test_mismatches(self):
        with pytest.raises(CarrierMismatch):
            leq(RBOT, TRUE, FALSE)
        with pytest.raises(CarrierMismatch):
            tensor(LAWVERE, BOT, finite(1))
        with pytest.raises(CarrierMismatch):
            residual(BOOL, finite(1), TRUE)
        with pytest.raises(CarrierMismatch):
            join(BOOL2, [tuple_val([TRUE, FALSE, TRUE])])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            finite(-1)

    def test_payload_types(self):
        with pytest.raises(TypeError):
            QVal(Tag.FINITE, 3)  # must be a Fraction
        with pytest.raises(TypeError):
            QVal(Tag.BOT, Fraction(1))
        with pytest.raises(ValueError):
            QVal(Tag.FINITE, Fraction(-1))

    @pytest.mark.parametrize(
        "x", [Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(7), Fraction(2**70), Fraction(1, 2**60 + 1)]
    )
    def test_trusted_finite_is_a_checked_value(self, x):
        trusted, checked = _trusted_finite(x), QVal(Tag.FINITE, x)
        assert trusted == checked and checked == trusted
        assert hash(trusted) == hash(checked)
        assert len({trusted, checked}) == 1
        assert repr(trusted) == repr(checked)
        # the callers that build values without the check
        text = format_value(checked)
        for v in (parse_value(text), tensor(RBOT, checked, finite(0)), residual(LAWVERE, finite(0), checked)):
            assert v == checked and hash(v) == hash(checked)
            assert v.tag is Tag.FINITE and type(v.value) is Fraction


class TestTextSyntax:
    @pytest.mark.parametrize(
        "text,val",
        [
            ("bot", BOT),
            ("⊥", BOT),
            ("inf", INF),
            ("∞", INF),
            ("5", finite(5)),
            ("5/2", finite(Fraction(5, 2))),
            ("2.5", finite(Fraction(5, 2))),
            ("true", TRUE),
            ("false", FALSE),
            ("(true,false)", tuple_val([TRUE, FALSE])),
            ("(1,(bot,inf))", tuple_val([finite(1), tuple_val([BOT, INF])])),
        ],
    )
    def test_parse(self, text, val):
        assert parse_value(text) == val

    def test_parse_numbers(self):
        assert parse_value(3) == finite(3)
        assert parse_value(2.5) == finite(Fraction(5, 2))
        assert parse_value(True) == TRUE

    @pytest.mark.parametrize("bad", ["xyz", "-1", "( ,1)", "(1", "1)", "", "1/0"])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_value(bad)

    def test_round_trip(self):
        for v in RBOT_GRID + BOOL2_GRID + (finite(Fraction(7, 3)),):
            assert parse_value(format_value(v)) == v

    @pytest.mark.parametrize(
        "text", ["1e10000000", "1e5000", "1e4300", "1e-4300", "0e99999", "1" * 3000 + "." + "1" * 2000]
    )
    def test_values_too_long_to_print_are_rejected(self, text):
        # without the check, "1e10000000" takes seconds to build and "1e5000"
        # fails only when printed; the limit is the one str(int) obeys
        with pytest.raises(ValueError, match="digits"):
            parse_value(text)

    @pytest.mark.parametrize("text", ["1e4299", "1e-4299", "5e-4300", "2.5e-3", "12.5E+2"])
    def test_long_values_within_the_limit_print(self, text):
        v = parse_value(text)
        assert v == finite(Fraction(text))
        assert parse_value(format_value(v)) == v

    def test_canonical_output(self):
        assert format_value(BOT) == "bot"
        assert format_value(INF) == "inf"
        assert format_value(finite(Fraction(5, 2))) == "5/2"
        assert format_value(tuple_val([TRUE, FALSE])) == "(true,false)"


class TestDescriptors:
    def test_json_round_trip(self):
        for q in (RBOT, LAWVERE, BOOL, BOOL2, product(BOOL, product(BOOL, BOOL))):
            assert descriptor_from_json(descriptor_to_json(q)) == q

    def test_tolerance_attaches(self):
        q = descriptor_from_json("rbot", 1e-9)
        assert q.tolerance == 1e-9

    def test_parse_name(self):
        assert parse_quantale_name("rbot") == RBOT
        assert parse_quantale_name("bool,bool") == BOOL2
        with pytest.raises(ValueError):
            parse_quantale_name("frobenius")

    def test_product_tolerance_reaches_its_factors(self):
        # each leaf compares with the largest tolerance on its path
        q = product(RBOT, RBOT, tolerance=0.5)
        assert leq(q, tuple_val([finite(1), finite(0)]), tuple_val([finite("4/5"), finite(0)]))
        assert leq(rbot(0.5), finite(1), finite("4/5"))
        assert q.factors == (rbot(0.5), rbot(0.5))
        nested = product(rbot(0.2), product(LAWVERE, BOOL, tolerance=0.1), tolerance=0.5)
        assert nested.factors[0].tolerance == 0.5
        assert [f.tolerance for f in nested.factors[1].factors] == [0.5, 0.5]
        # a factor above the product's tolerance could not be written: refused
        with pytest.raises(ValueError, match="factor tolerance 0.7 exceeds the product's 0.5"):
            product(rbot(0.7), product(LAWVERE, BOOL, tolerance=0.1), tolerance=0.5)
        with pytest.raises(ValueError, match="factor tolerance 0.5 exceeds the product's 0.0"):
            product(rbot(0.5))

    def test_tolerant_product_category_json_round_trip(self):
        import json

        from qcat import VCategory, category_from_json, category_to_json, validate_category

        q = product(RBOT, LAWVERE, tolerance=0.5)
        def pair(d):
            return tuple_val([finite(0), d])

        zero, far = pair(finite(0)), pair(INF)
        hom = ((zero, pair(finite(1)), pair(finite(3))),
               (far, zero, pair(finite("7/4"))),
               (far, far, zero))
        c = VCategory(q, ("a", "b", "c"), hom)
        back = category_from_json(json.loads(json.dumps(category_to_json(c))))
        assert back == c and back.quantale.factors == (rbot(0.5), QuantaleDescriptor(LAWVERE.kind, 0.5))
        # d(a, c) = 3 is within 1/2 of d(a, b) + d(b, c) = 11/4, not within 0
        assert validate_category(back).ok and validate_category(c).ok
        assert not validate_category(VCategory(product(RBOT, LAWVERE), c.objects, hom)).ok

    def test_invalid_descriptors(self):
        with pytest.raises(ValueError):
            QuantaleDescriptor(RBOT.kind, -1.0)
        with pytest.raises(ValueError):
            product()


TOLS = st.sampled_from([0.0, 1e-9, 0.25, 0.5])
ROUND_TRIP_VALUES = {
    RBOT.kind: (BOT, finite(0), finite("1/4"), finite("1/2"), finite(1), INF),
    LAWVERE.kind: (finite(0), finite("1/4"), finite("1/2"), finite(1), INF),
    BOOL.kind: (FALSE, TRUE),
}


@st.composite
def drawn_bases(draw, depth=0):
    """A plain base or a product nested up to two levels, each with a
    drawn tolerance.  A product below one of its factors' tolerance is
    refused, and then drawn at the largest of them."""
    t = draw(TOLS)
    if depth == 2 or draw(st.booleans()):
        return QuantaleDescriptor(draw(st.sampled_from([RBOT, LAWVERE, BOOL])).kind, t)
    factors = draw(st.lists(drawn_bases(depth + 1), min_size=1, max_size=3))
    most = max(f.tolerance for f in factors)
    if most > t:
        with pytest.raises(ValueError, match="exceeds the product's"):
            product(*factors, tolerance=t)
        t = most
    return product(*factors, tolerance=t)


def drawn_values(q):
    if q.factors:
        return st.tuples(*map(drawn_values, q.factors)).map(tuple_val)
    return st.sampled_from(ROUND_TRIP_VALUES[q.kind])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_base_survives_a_category_round_trip(data):
    """Every base that can be built can be written: reading the file back
    gives an equal descriptor and the same validation report."""
    import json

    from qcat import VCategory, category_from_json, category_to_json, validate_category

    q = data.draw(drawn_bases())
    n = data.draw(st.integers(0, 3))
    hom = [[data.draw(drawn_values(q)) for _ in range(n)] for _ in range(n)]
    c = VCategory(q, tuple(f"o{i}" for i in range(n)), hom)
    back = category_from_json(json.loads(json.dumps(category_to_json(c))))
    assert back.quantale == q and back == c
    assert validate_category(back) == validate_category(c)

