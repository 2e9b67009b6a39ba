import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcat import (
    BOT,
    INF,
    LAWVERE,
    RBOT,
    CarrierMismatch,
    VCategory,
    category_from_json,
    category_to_json,
    classify_endohoms,
    finite,
    interval_2d,
    minkowski_sample,
    opposite,
    preorder_dot,
    rbot,
    underlying_preorder,
    unit_category,
    validate_category,
)

from qcat.cli import run

from oracles import idempotent_split_check, preorder_dot_oracle, validate_exact
from randgen import random_rbot_category

CHAIN = VCategory(RBOT, ("a", "b"), ((finite(0), finite(3)), (BOT, finite(0))))


class TestValidate:
    def test_terminal_point(self):
        c = VCategory(RBOT, ("p",), ((finite(0),),))
        assert validate_category(c).ok

    def test_chain_valid(self):
        assert validate_category(CHAIN).ok

    def test_two_way_finite_homs_violate_composition(self):
        c = VCategory(RBOT, ("a", "b"), ((finite(0), finite(3)), (finite(2), finite(0))))
        report = validate_category(c)
        assert not report.ok
        spots = {(v[0], v[1], v[2]) for v in report.composition_violations}
        assert spots == {("a", "b", "a"), ("b", "a", "b")}

    def test_unit_violation(self):
        c = VCategory(RBOT, ("a",), ((BOT,),))
        report = validate_category(c)
        assert report.unit_violations == (("a", BOT),)

    def test_empty_category_valid(self):
        assert validate_category(VCategory(RBOT, (), ())).ok

    def test_malformed_matrix_is_input_error(self):
        with pytest.raises(ValueError):
            VCategory(RBOT, ("a", "b"), ((finite(0),),))
        with pytest.raises(ValueError):
            VCategory(RBOT, ("a", "a"), ((finite(0), BOT), (BOT, finite(0))))
        with pytest.raises(CarrierMismatch):
            VCategory(LAWVERE, ("a",), ((BOT,),))

    def test_float_path_matches_exact_path(self):
        cat, _ = minkowski_sample(40, 11)
        assert validate_exact(cat) == validate_category(cat)
        rows = [list(r) for r in cat.hom]
        rows[3][7] = INF
        rows[5][5] = BOT
        broken = VCategory(cat.quantale, cat.objects, tuple(tuple(r) for r in rows))
        assert validate_exact(broken) == validate_category(broken)
        assert not validate_category(broken).ok


class TestOpposite:
    def test_transpose(self):
        assert opposite(CHAIN).hom == ((finite(0), BOT), (finite(3), finite(0)))

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            c = random_rbot_category(rng)
            assert opposite(opposite(c)) == c
            assert validate_category(opposite(c)).ok

    def test_symmetric_fixed_point(self):
        c = VCategory(RBOT, ("a", "b"), ((finite(0), finite(0)), (finite(0), finite(0))))
        assert opposite(c) == c


class TestUnderlyingPreorder:
    def test_chain(self):
        assert underlying_preorder(CHAIN) == {("a", "a"), ("b", "b"), ("a", "b")}

    def test_discrete(self):
        c = VCategory(RBOT, ("x", "y"), ((finite(0), BOT), (BOT, finite(0))))
        assert underlying_preorder(c) == {("x", "x"), ("y", "y")}

    def test_minkowski_agrees_with_lightcone(self):
        cat, events = minkowski_sample(25, 3)
        edges = underlying_preorder(cat)
        for i, ei in enumerate(events):
            for j, ej in enumerate(events):
                in_cone = ej.t - ei.t >= abs(ej.x - ei.x)
                assert ((f"p{i}", f"p{j}") in edges) == in_cone
                assert (interval_2d(ei, ej) != BOT) == in_cone

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reflexive_transitive(self, seed):
        c = random_rbot_category(random.Random(seed))
        edges = underlying_preorder(c)
        assert idempotent_split_check(edges | {(o, o) for o in c.objects})
        for o in c.objects:
            assert (o, o) in edges
        for a, b in edges:
            for b2, c2 in edges:
                if b2 == b:
                    assert (a, c2) in edges


class TestIdempotentSplit:
    def test_preorders_pass(self):
        assert idempotent_split_check([("a", "a")])
        assert idempotent_split_check([])
        assert idempotent_split_check(
            [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")]
        )  # 2-cycle preorder

    def test_non_preorders_rejected(self):
        with pytest.raises(ValueError):
            idempotent_split_check([("a", "b"), ("a", "a")])  # b not reflexive
        with pytest.raises(ValueError):
            idempotent_split_check(
                [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
            )  # not transitive


class TestEndohoms:
    def test_regular_and_irregular(self):
        c = VCategory(
            RBOT,
            ("x", "w"),
            ((finite(0), INF), (BOT, INF)),
        )
        assert validate_category(c).ok
        report = classify_endohoms(c)
        assert report.ok
        assert dict(report.classes) == {"x": "regular", "w": "irregular"}

    def test_simultaneous_pair_allowed(self):
        c = VCategory(RBOT, ("x", "y"), ((finite(0), finite(0)), (finite(0), finite(0))))
        assert validate_category(c).ok
        report = classify_endohoms(c)
        assert report.ok

    def test_finite_endohom_invalid_upstream(self):
        c = VCategory(RBOT, ("x",), ((finite(5),),))
        assert not validate_category(c).ok  # 5 + 5 !<= 5
        report = classify_endohoms(c)
        assert not report.ok
        assert any(law == "endohom-value" for law, _ in report.violations)

    def test_irregular_with_finite_hom_flagged(self):
        c = VCategory(RBOT, ("x", "w"), ((finite(0), finite(2)), (BOT, INF)))
        assert not validate_category(c).ok
        report = classify_endohoms(c)
        assert any(law == "irregular-homs" for law, _ in report.violations)

    def test_wrong_base_rejected(self):
        with pytest.raises(CarrierMismatch):
            classify_endohoms(unit_category(LAWVERE))

    def test_tolerant_valid_category_can_break_the_endohom_laws(self, tmp_path):
        # within 1/2 the endohoms 1/2 are 0 and every law holds, but 3/4
        # is not within 1/2 of 0: validity implies the endohom laws only
        # at tolerance 0
        half = finite(Fraction(1, 2))
        c = VCategory(rbot(0.5), ("a", "b"),
                      ((half, finite(Fraction(3, 4))), (finite(Fraction(1, 4)), half)))
        assert validate_category(c).ok
        report = classify_endohoms(c)
        assert report.classes == (("a", "regular"), ("b", "regular"))
        assert report.violations == (
            ("regular-pair", "regular a, b have homs 3/4, 1/4: neither both 0 nor one bot"),)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(category_to_json(c)))
        result = run(["validate", str(path)])
        assert result.exit_code == 1
        assert result.payload["report"]["ok"] and not result.payload["endohoms"]["ok"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_valid_categories_classify_clean(self, seed):
        c = random_rbot_category(random.Random(seed), 6)
        assert validate_category(c).ok
        report = classify_endohoms(c)
        assert report.ok
        for _, kind in report.classes:
            assert kind in ("regular", "irregular")


class TestJson:
    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(20):
            c = random_rbot_category(rng)
            assert category_from_json(category_to_json(c)) == c

    def test_parses_unicode_and_decimals(self):
        data = {
            "quantale": "rbot",
            "objects": ["a", "b"],
            "hom": [["0", "2.5"], ["⊥", "0"]],
        }
        c = category_from_json(data)
        assert c.hom_between("a", "b") == finite("5/2")
        assert c.hom_between("b", "a") == BOT

    def test_product_quantale_descriptor(self):
        data = {
            "quantale": ["bool", "bool"],
            "objects": ["x"],
            "hom": [["(true,true)"]],
        }
        c = category_from_json(data)
        assert validate_category(c).ok

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.pop("objects"), "objects"),
            (lambda d: d.__setitem__("quantale", "frobenius"), "quantale"),
            (lambda d: d["hom"][0].__setitem__(1, "wat"), "hom[0][1]"),
            (lambda d: d.__setitem__("tolerance", "lots"), "tolerance"),
        ],
    )
    def test_errors_name_the_field(self, mutate, fragment):
        data = json.loads(json.dumps(category_to_json(CHAIN)))
        mutate(data)
        with pytest.raises(ValueError, match=fragment.replace("[", "\\[").replace("]", "\\]")):
            category_from_json(data)


def test_preorder_dot_output():
    edges = underlying_preorder(CHAIN)
    dot = preorder_dot(CHAIN.objects, edges)
    assert dot == 'digraph preorder {\n  "a";\n  "b";\n  "a" -> "b";\n}\n'


dot_labels = st.text(st.sampled_from(['"', "\\", "a", "b", " ", "é"]), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    objects=st.lists(dot_labels, unique=True, max_size=6),
    extra=st.lists(dot_labels, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20),
    form=st.sampled_from(["frozenset", "unsorted", "sorted", "iterator"]),
    rng=st.randoms(use_true_random=False),
)
def test_preorder_dot_matches_oracle(objects, extra, picks, form, rng):
    # edges may name labels missing from objects, and may be self-loops
    pool = objects + extra
    edges = {(pool[i % len(pool)], pool[j % len(pool)]) for i, j in picks} if pool else set()
    if form == "frozenset":
        given_edges = frozenset(edges)
    elif form == "sorted":
        given_edges = sorted(edges)
    else:
        given_edges = list(edges)
        rng.shuffle(given_edges)
        if form == "iterator":
            given_edges = iter(given_edges)
    assert preorder_dot(objects, given_edges) == preorder_dot_oracle(objects, sorted(edges))
