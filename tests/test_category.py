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
    VFunctor,
    category_from_json,
    category_to_json,
    classify_endohoms,
    finite,
    functor_check,
    functor_hom,
    interval_2d,
    leq,
    minkowski_sample,
    nat_trans_exists,
    opposite,
    preorder_dot,
    rbot,
    tensor_categories,
    underlying_preorder,
    unit,
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


class TestTensorCategories:
    def test_unit_object(self):
        i = unit_category(RBOT)
        t = tensor_categories(i, CHAIN)
        assert t.objects == ("(*,a)", "(*,b)")
        assert t.hom == CHAIN.hom

    def test_spot_entries(self):
        d = VCategory(RBOT, ("x", "y"), ((finite(0), finite(1)), (BOT, finite(0))))
        t = tensor_categories(CHAIN, d)
        assert t.hom_between("(a,x)", "(b,y)") == finite(4)  # 3 + 1
        assert t.hom_between("(a,x)", "(a,y)") == finite(1)
        assert t.hom_between("(b,x)", "(a,x)") == BOT
        assert validate_category(t).ok

    def test_bot_rows_propagate(self):
        d = VCategory(RBOT, ("x", "y"), ((finite(0), BOT), (BOT, finite(0))))
        t = tensor_categories(CHAIN, d)
        assert t.hom_between("(a,x)", "(b,y)") == BOT

    def test_quantale_mismatch(self):
        with pytest.raises(ValueError):
            tensor_categories(CHAIN, unit_category(LAWVERE))

    def test_validity_preserved(self):
        rng = random.Random(9)
        for _ in range(10):
            c = random_rbot_category(rng, 3)
            d = random_rbot_category(rng, 3)
            assert validate_category(tensor_categories(c, d)).ok


class TestFunctors:
    def test_identity(self):
        f = VFunctor.from_mapping(CHAIN, CHAIN, {"a": "a", "b": "b"})
        assert functor_check(f)
        assert leq(RBOT, unit(RBOT), functor_hom(f, f))
        assert nat_trans_exists(f, f)

    def test_constant_functors_hom_is_the_hom(self):
        src = VCategory(RBOT, ("u", "v"), ((finite(0), BOT), (BOT, finite(0))))
        for p in ("a", "b"):
            for q in ("a", "b"):
                fp = VFunctor.from_mapping(src, CHAIN, {"u": p, "v": p})
                fq = VFunctor.from_mapping(src, CHAIN, {"u": q, "v": q})
                assert functor_hom(fp, fq) == CHAIN.hom_between(p, q)

    def test_spacelike_can_map_to_timelike(self):
        src = VCategory(RBOT, ("u", "v"), ((finite(0), BOT), (BOT, finite(0))))
        f = VFunctor.from_mapping(src, CHAIN, {"u": "a", "v": "b"})
        assert functor_check(f)  # bot hom maps under a finite one

    def test_distance_decreasing_map_fails(self):
        src = VCategory(RBOT, ("u", "v"), ((finite(0), finite(5)), (BOT, finite(0))))
        f = VFunctor.from_mapping(src, CHAIN, {"u": "a", "v": "b"})
        assert not functor_check(f)  # 5 !<= 3

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError):
            VFunctor(CHAIN, CHAIN, (("a", "a"),))
        with pytest.raises(ValueError):
            VFunctor.from_mapping(CHAIN, CHAIN, {"a": "zzz", "b": "b"})

    def test_nat_trans_direction(self):
        src = unit_category(RBOT, "u")
        fa = VFunctor.from_mapping(src, CHAIN, {"u": "a"})
        fb = VFunctor.from_mapping(src, CHAIN, {"u": "b"})
        assert nat_trans_exists(fa, fb)  # b is in a's future
        assert not nat_trans_exists(fb, fa)

    def test_mismatched_functors(self):
        f = VFunctor.from_mapping(CHAIN, CHAIN, {"a": "a", "b": "b"})
        g = VFunctor.from_mapping(unit_category(RBOT), CHAIN, {"*": "a"})
        with pytest.raises(ValueError):
            functor_hom(f, g)


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
