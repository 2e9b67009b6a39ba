import json
import random
from fractions import Fraction

import pytest

import qcat.cli
import qcat.modules

from qcat import (
    BOOL,
    BOT,
    FALSE,
    INF,
    RBOT,
    TRUE,
    VCategory,
    VModule,
    canonical_right_adjoint,
    category_to_json,
    cauchy_completeness_report,
    cauchy_witness,
    check_adjunction,
    compose,
    corepresentable,
    default_module_grid,
    enumerate_modules_into,
    find_representing,
    finite,
    identity_module,
    is_cauchy,
    join,
    leq,
    module_from_json,
    module_to_json,
    product,
    rbot,
    representable,
    representing_objects,
    tensor,
    tuple_val,
    unit_category,
    validate_module,
)
from qcat.cli import run
from qcat.modules import CauchyFinding, CompletenessReport
from qcat.quantale import format_value

from randgen import (
    random_black_hole_module,
    random_rbot_category,
    random_rbot_module,
    random_module_triple,
)

CHAIN = VCategory(RBOT, ("a", "b"), ((finite(0), finite(3)), (BOT, finite(0))))
BOOL2 = product(BOOL, BOOL)
TT, TF, FT, FF = (
    tuple_val([TRUE, TRUE]),
    tuple_val([TRUE, FALSE]),
    tuple_val([FALSE, TRUE]),
    tuple_val([FALSE, FALSE]),
)
DISC2 = VCategory(BOOL2, ("x", "y"), ((TT, FF), (FF, TT)))
I_RBOT = unit_category(RBOT)


def column(cat, *vals):
    return VModule(unit_category(cat.quantale), cat, tuple((v,) for v in vals))


class TestValidateModule:
    def test_identity_module_valid(self):
        rng = random.Random(1)
        for _ in range(10):
            c = random_rbot_category(rng)
            assert validate_module(identity_module(c)).ok

    def test_representables_valid(self):
        rng = random.Random(2)
        for _ in range(10):
            c = random_rbot_category(rng, min_objects=1)
            for o in c.objects:
                assert validate_module(representable(c, o)).ok
                assert validate_module(corepresentable(c, o)).ok

    def test_representable_in_the_unit_category(self):
        assert representable(I_RBOT, "*").mat == ((finite(0),),)
        assert corepresentable(I_RBOT, "*").mat == ((finite(0),),)

    def test_raised_entry_reports_the_spot(self):
        m = representable(CHAIN, "b")  # column (3, 0)
        bad = VModule(m.source, m.target, ((finite(3),), (finite(5),)))
        report = validate_module(bad)
        assert not report.ok
        # E(a,b) tensor M(b) = 3 + 5 = 8 !<= M(a) = 3
        assert ("a", "b", "*", finite(8), finite(3)) in report.left_violations

    def test_shape_and_quantale_mismatch(self):
        with pytest.raises(ValueError):
            VModule(I_RBOT, CHAIN, ((finite(0),),))
        with pytest.raises(ValueError):
            VModule(unit_category(BOOL2), CHAIN, ((finite(0),), (finite(0),)))


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(3)
        for _ in range(20):
            m = random_rbot_module(rng)
            assert compose(m, identity_module(m.source)) == m
            assert compose(identity_module(m.target), m) == m

    def test_two_element_middle(self):
        d2 = VCategory(RBOT, ("d0", "d1"), ((finite(0), BOT), (BOT, finite(0))))
        m = VModule(d2, I_RBOT, ((finite(3), BOT),))
        n = VModule(unit_category(RBOT, "c"), d2, ((finite(1),), (finite(5),)))
        out = compose(m, n)
        # brute force: join(3 + 1, bot tensor 5)
        assert out.mat[0][0] == join(RBOT, [finite(4), BOT])
        assert out.mat[0][0] == finite(4)

    def test_all_bot_absorbs(self):
        rng = random.Random(4)
        for _ in range(10):
            m = random_rbot_module(rng)
            z = VModule(
                unit_category(RBOT),
                m.source,
                tuple((BOT,) for _ in m.source.objects),
            )
            out = compose(m, z)
            assert all(v == BOT for row in out.mat for v in row)

    def test_entries_match_brute_force(self):
        rng = random.Random(5)
        for _ in range(25):
            m, n, _ = random_module_triple(rng)
            out = compose(m, n)
            q = m.quantale
            for x in range(len(m.target.objects)):
                for p in range(len(n.source.objects)):
                    expected = join(
                        q,
                        [
                            tensor(q, m.mat[x][a], n.mat[a][p])
                            for a in range(len(m.source.objects))
                        ],
                    )
                    assert out.mat[x][p] == expected

    def test_associativity(self):
        rng = random.Random(6)
        for _ in range(50):
            m, n, p = random_module_triple(rng)
            assert compose(compose(m, n), p) == compose(m, compose(n, p))

    def test_composability_checked(self):
        m = representable(CHAIN, "a")
        with pytest.raises(ValueError):
            compose(m, m)


class TestCanonicalRightAdjoint:
    def test_representable_gives_corepresentable(self):
        rng = random.Random(7)
        for _ in range(20):
            c = random_rbot_category(rng, min_objects=1)
            for o in c.objects:
                assert canonical_right_adjoint(representable(c, o)) == corepresentable(c, o)

    def test_all_bot_gives_all_inf(self):
        m = column(CHAIN, BOT, BOT)
        n = canonical_right_adjoint(m)
        assert n.mat == ((INF, INF),)

    def test_product_example(self):
        m = column(DISC2, TF, FT)
        n = canonical_right_adjoint(m)
        assert n.mat == ((TF, FT),)

    def test_output_satisfies_actions_and_counit(self):
        rng = random.Random(8)
        for _ in range(30):
            m = random_rbot_module(rng)
            n = canonical_right_adjoint(m)
            assert validate_module(n).ok
            assert check_adjunction(m, n).counit_ok

    def test_dominates_any_counit_candidate(self):
        rng = random.Random(9)
        grid = (BOT, finite(0), finite(1), finite(2), INF)
        tried = 0
        for _ in range(40):
            m = random_rbot_module(rng)
            n = canonical_right_adjoint(m)
            rows, cols = len(m.source.objects), len(m.target.objects)
            for _ in range(8):
                cand = VModule(
                    m.target,
                    m.source,
                    tuple(tuple(rng.choice(grid) for _ in range(cols)) for _ in range(rows)),
                )
                if check_adjunction(m, cand).counit_ok:
                    tried += 1
                    q = m.quantale
                    for a in range(rows):
                        for x in range(cols):
                            assert leq(q, cand.mat[a][x], n.mat[a][x])
        assert tried > 20  # the all-bot candidate always passes, so plenty get tried


class TestAdjunction:
    def test_yoneda_pair(self):
        rng = random.Random(10)
        for _ in range(10):
            c = random_rbot_category(rng, min_objects=1)
            o = rng.choice(c.objects)
            report = check_adjunction(representable(c, o), corepresentable(c, o))
            assert report.ok

    def test_empty_category_unit_fails(self):
        empty = VCategory(RBOT, (), ())
        m = VModule(I_RBOT, empty, ())
        n = VModule(empty, I_RBOT, ((),))
        report = check_adjunction(m, n)
        assert not report.unit_ok
        assert report.counit_ok
        ((a, b, hom_val, composite),) = report.unit_failures
        assert (a, b) == ("*", "*")
        assert hom_val == finite(0) and composite == BOT  # empty join is bot

    def test_product_pair_passes(self):
        m = column(DISC2, TF, FT)
        n = VModule(DISC2, unit_category(BOOL2), ((TF, FT),))
        assert check_adjunction(m, n).ok

    def test_mismatch_raises(self):
        m = representable(CHAIN, "a")
        with pytest.raises(ValueError):
            check_adjunction(m, m)


class TestCauchy:
    def test_representables_are_cauchy(self):
        rng = random.Random(11)
        for _ in range(10):
            c = random_rbot_category(rng, min_objects=1)
            for o in c.objects:
                m = representable(c, o)
                assert is_cauchy(m)
                assert find_representing(m) is not None
                assert o in representing_objects(m)

    def test_representables_are_cauchy_on_other_bases(self):
        from qcat import LAWVERE

        metric = VCategory(
            LAWVERE,
            ("p", "q"),
            ((finite(0), finite(2)), (finite(2), finite(0))),
        )
        for o in metric.objects:
            assert is_cauchy(representable(metric, o))
        for o in DISC2.objects:
            assert is_cauchy(representable(DISC2, o))

    def test_representable_within_a_tolerance_need_not_be_cauchy(self):
        # b represents M, since M(b) = 1/4 is within 1/2 of E(b, b) = 0; but
        # the adjoint's N(b) = min(1 - 1, 0 - 1/4) clamps to bot, and the unit
        # fails.  At tolerance 0, M must equal b's hom column, which is Cauchy.
        homs = ((finite(0), finite(1)), (BOT, finite(0)))
        for q, mb, cauchy in ((rbot(0.5), finite(Fraction(1, 4)), False), (RBOT, finite(0), True)):
            m = column(VCategory(q, ("a", "b"), homs), finite(1), mb)
            assert validate_module(m).ok
            assert representing_objects(m) == ("b",)
            assert is_cauchy(m) is cauchy

    def test_all_bot_not_cauchy(self):
        assert not is_cauchy(column(CHAIN, BOT, BOT))

    def test_chain_column_is_cauchy(self):
        m = column(CHAIN, finite(3), finite(0))
        assert is_cauchy(m)
        assert find_representing(m) == "b"
        assert cauchy_witness(m, canonical_right_adjoint(m)) == "b"

    def test_witness_requires_adjoint_pair(self):
        m = column(CHAIN, BOT, BOT)
        with pytest.raises(ValueError):
            cauchy_witness(m, canonical_right_adjoint(m))

    def test_product_cauchy_without_witness_or_representer(self):
        m = column(DISC2, TF, FT)
        n = canonical_right_adjoint(m)
        assert check_adjunction(m, n).ok
        assert find_representing(m) is None
        assert cauchy_witness(m, n) is None

    def test_source_must_be_unit(self):
        m = identity_module(CHAIN)
        with pytest.raises(ValueError):
            is_cauchy(m)

    def test_rbot_cauchy_implies_represented_with_positive_witness_terms(self):
        rng = random.Random(12)
        seen = 0
        for _ in range(40):
            m = random_black_hole_module(rng)
            if not m.target.objects:
                continue
            n = canonical_right_adjoint(m)
            if not check_adjunction(m, n).ok:
                continue
            seen += 1
            z = cauchy_witness(m, n)
            assert z is not None
            zi = m.target.index(z)
            # both terms at the witness sit above the unit
            assert leq(RBOT, finite(0), m.mat[zi][0])
            assert leq(RBOT, finite(0), n.mat[0][zi])
            rep = find_representing(m)
            assert rep is not None
            ri = m.target.index(rep)
            for y in range(len(m.target.objects)):
                assert m.mat[y][0] == m.target.hom[y][ri]
        assert seen >= 5


class TestEnumeration:
    def test_enumerates_the_valid_columns(self):
        grid = default_module_grid(CHAIN)
        mods = list(enumerate_modules_into(CHAIN, grid))
        assert len(mods) == len(set(mods))
        for m in mods:
            assert validate_module(m).ok
        # oracle: brute force over the full grid without propagation
        brute = 0
        for va in grid:
            for vb in grid:
                cand = column(CHAIN, va, vb)
                if validate_module(cand).ok:
                    brute += 1
        assert len(mods) == brute

    def test_grid_closure_contains_poles_and_homs(self):
        grid = set(default_module_grid(CHAIN))
        assert {BOT, finite(0), finite(3), INF} <= grid

    def test_grid_cap(self):
        c = VCategory(
            RBOT,
            ("a", "b", "c"),
            (
                (finite(0), finite(Fraction(1, 3)), finite(Fraction(7, 2))),
                (BOT, finite(0), finite(3)),
                (BOT, BOT, finite(0)),
            ),
        )
        with pytest.raises(ValueError):
            default_module_grid(c, cap=8)
        assert len(default_module_grid(c)) == 24  # closure converges under the cap

    def test_product_grid_is_componentwise(self):
        assert set(default_module_grid(DISC2)) == {TT, TF, FT, FF}


class TestCompletenessReport:
    def test_rbot_categories_complete(self):
        rng = random.Random(13)
        for _ in range(15):
            c = random_rbot_category(rng, 4)
            report = cauchy_completeness_report(c)
            assert report.complete
            for f in report.findings:
                assert f.representing is not None
                assert f.witness is not None

    def test_product_counterexample(self):
        report = cauchy_completeness_report(DISC2)
        assert report.modules_checked == 16
        assert not report.complete
        columns = [tuple(v for (v,) in m.mat) for m in report.counterexamples]
        assert (TF, FT) in columns
        assert set(columns) == {(TF, FT), (FT, TF)}
        # representables are Cauchy and found
        cauchy_columns = [tuple(v for (v,) in f.module.mat) for f in report.findings]
        assert (TT, FF) in cauchy_columns and (FF, TT) in cauchy_columns

    def test_empty_category(self):
        report = cauchy_completeness_report(VCategory(RBOT, (), ()))
        assert report.complete
        assert report.modules_checked == 1
        assert not report.findings

    def test_deterministic_and_sorted(self):
        r1 = cauchy_completeness_report(DISC2)
        r2 = cauchy_completeness_report(DISC2)
        assert r1.to_json() == r2.to_json()
        cols = [[str(v) for (v,) in f.module.mat] for f in r1.findings]
        assert cols == sorted(cols)

    def test_to_json_of_a_report_built_by_hand(self):
        # its entries need not come from its grid
        m = representable(CHAIN, "b")
        report = CompletenessReport(CHAIN, (finite(0),), 1, (CauchyFinding(m, None, None),))
        column = [format_value(v) for (v,) in m.mat]
        data = report.to_json()
        assert data["grid"] == ["0"]
        assert data["cauchy"] == [{"column": column, "representing": None, "witness": None}]
        assert data["counterexamples"] == [column]

    def test_invalid_category_rejected(self):
        bad = VCategory(RBOT, ("x",), ((finite(5),),))
        with pytest.raises(ValueError):
            cauchy_completeness_report(bad)

    def test_grid_outside_carrier_rejected(self):
        with pytest.raises(Exception):
            cauchy_completeness_report(CHAIN, [TRUE])


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is appended to a list."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestAdjunctionDecidedOnce:
    """Each candidate module's adjunction is decided once: the report
    decides every module in the batched kernel, without the scalar
    adjunction check, the witness scan after a passed check does not
    check it again, and ``qcat cauchy`` makes one decision call, which
    composes nothing."""

    @pytest.mark.parametrize("cat", [CHAIN, DISC2], ids=["rbot", "bool2"])
    def test_completeness_report(self, monkeypatch, cat):
        names = ("check_adjunction", "compose", "canonical_right_adjoint")
        calls = [_counting(monkeypatch, qcat.modules, name) for name in names]
        report = cauchy_completeness_report(cat)
        assert report.findings and report.modules_checked > len(report.findings)
        assert [len(c) for c in calls] == [0, 0, 0]

    def test_cauchy_witness_still_checks(self, monkeypatch):
        calls = _counting(monkeypatch, qcat.modules, "check_adjunction")
        m = representable(CHAIN, "b")
        assert cauchy_witness(m, canonical_right_adjoint(m)) == "b"
        assert len(calls) == 1
        with pytest.raises(ValueError, match="adjoint pair"):
            cauchy_witness(column(CHAIN, BOT, BOT), canonical_right_adjoint(representable(CHAIN, "b")))

    @pytest.mark.parametrize("col", [("3", "0"), ("bot", "bot")], ids=["cauchy", "not_cauchy"])
    def test_cli_cauchy(self, monkeypatch, tmp_path, col):
        counts = {
            (module.__name__, name): _counting(monkeypatch, module, name)
            for module, name in [(qcat.cli, "_cauchy_decision"), (qcat.cli, "check_adjunction"),
                                 (qcat.modules, "check_adjunction"), (qcat.modules, "compose")]
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "source": "I", "target": category_to_json(CHAIN), "mat": [[v] for v in col]
        }))
        result = run(["cauchy", str(path)])
        assert result.exit_code == (0 if col[1] == "0" else 1)
        assert [len(c) for c in counts.values()] == [1, 0, 0, 0]


class TestModuleJson:
    def test_round_trip(self):
        rng = random.Random(14)
        for _ in range(10):
            m = random_rbot_module(rng)
            assert module_from_json(module_to_json(m)) == m

    def test_unit_source_shorthand(self):
        m = representable(CHAIN, "b")
        data = module_to_json(m)
        assert data["source"] == "I"
        assert module_from_json(data) == m

    def test_errors_name_the_field(self):
        data = module_to_json(representable(CHAIN, "b"))
        data["mat"][1][0] = "wat"
        with pytest.raises(ValueError, match=r"mat\[1\]\[0\]"):
            module_from_json(data)
