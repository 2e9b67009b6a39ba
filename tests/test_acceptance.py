"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they pass).
"""

import random
import time
from fractions import Fraction

from qcat import (
    BOOL,
    BOT,
    FALSE,
    INF,
    LAWVERE,
    RBOT,
    TRUE,
    VCategory,
    VModule,
    adjoin_point,
    canonical_right_adjoint,
    cauchy_completeness_report,
    cauchy_witness,
    check_adjunction,
    classify_endohoms,
    collage,
    compose,
    corepresentable,
    find_representing,
    finite,
    identity_module,
    leq,
    minkowski_sample,
    mixed_signature_check,
    product,
    representable,
    residual,
    restrict,
    tensor,
    tuple_val,
    underlying_preorder,
    unit,
    unit_category,
    validate_category,
    validate_module,
)

from oracles import longest_path_oracle
from randgen import (
    random_black_hole_module,
    random_dag,
    random_module_triple,
    random_rbot_category,
    random_rbot_module,
    reflexive_transitive_closure,
)
from qcat import causal_space_from_dag


def _report(n: int, name: str) -> None:
    print(f"criterion {n:02d} ({name}): PASS")


def test_criterion_01_quantale_tables():
    start = time.time()
    a, b = finite(3), finite(5)
    tensor_table = {
        (BOT, BOT): BOT, (BOT, b): BOT, (BOT, INF): BOT,
        (a, BOT): BOT, (a, b): finite(8), (a, INF): INF,
        (INF, BOT): BOT, (INF, b): INF, (INF, INF): INF,
    }
    for (x, y), expected in tensor_table.items():
        assert tensor(RBOT, x, y) == expected
    residual_table = {
        (BOT, BOT): INF, (BOT, b): INF, (BOT, INF): INF,
        (a, BOT): BOT, (a, b): finite(2), (b, a): BOT, (a, INF): INF,
        (INF, BOT): BOT, (INF, b): BOT, (INF, INF): INF,
    }
    for (x, y), expected in residual_table.items():
        assert residual(RBOT, x, y) == expected

    grid = (BOT, finite(0), finite(1), finite(Fraction(5, 2)), finite(7), INF)
    triples = 0
    for x in grid:
        for y in grid:
            for z in grid:
                triples += 1
                assert leq(RBOT, tensor(RBOT, x, y), z) == leq(RBOT, y, residual(RBOT, x, z))
    assert triples == 216
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "quantale tables and residuation")


def test_criterion_02_minkowski_validity():
    start = time.time()
    for seed in range(20):
        cat, _ = minkowski_sample(200, seed)
        assert validate_category(cat).ok, f"seed {seed} failed validation"
        report = classify_endohoms(cat)
        assert report.ok
        assert all(kind == "regular" for _, kind in report.classes), f"seed {seed}"
        assert all(cat.hom[i][i] == finite(0) for i in range(len(cat)))
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(2, "minkowski sprinklings validate at 1e-9")


def test_criterion_03_mixed_signature_counterexample():
    record = mixed_signature_check()
    assert record.d_ab + record.d_bc == -1
    assert record.d_ac == 1
    assert record.violation
    _report(3, "mixed-signature triangle counterexample")


def test_criterion_04_rbot_cauchy_completeness():
    start = time.time()
    rng = random.Random(2024)
    cauchy_seen = 0
    for _ in range(100):
        cat = random_rbot_category(rng, 5)
        assert validate_category(cat).ok
        report = cauchy_completeness_report(cat)
        assert report.complete, f"counterexample on {cat.objects}"
        for finding in report.findings:
            cauchy_seen += 1
            z = finding.witness
            assert z is not None
            zi = cat.index(z)
            for y in range(len(cat)):
                assert finding.module.mat[y][0] == cat.hom[y][zi]
    assert cauchy_seen > 50
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(4, "causal base is Cauchy complete")


def test_criterion_05_empty_category_edge_case():
    empty = VCategory(RBOT, (), ())
    m = VModule(unit_category(RBOT), empty, ())
    n = VModule(empty, unit_category(RBOT), ((),))
    report = check_adjunction(m, n)
    assert not report.unit_ok  # empty join is bot, and 0 !<= bot
    ((_, _, hom_val, composite),) = report.unit_failures
    assert hom_val == finite(0) and composite == BOT
    completeness = cauchy_completeness_report(empty)
    assert completeness.complete and not completeness.findings
    _report(5, "empty category has no Cauchy modules")


def test_criterion_06_product_quantale_incompleteness():
    bool2 = product(BOOL, BOOL)
    tt, tf, ft, ff = (
        tuple_val([TRUE, TRUE]),
        tuple_val([TRUE, FALSE]),
        tuple_val([FALSE, TRUE]),
        tuple_val([FALSE, FALSE]),
    )
    disc = VCategory(bool2, ("x", "y"), ((tt, ff), (ff, tt)))
    i_cat = unit_category(bool2)
    m = VModule(i_cat, disc, ((tf,), (ft,)))
    n = VModule(disc, i_cat, ((tf, ft),))

    # verify the fixture exhaustively before trusting it
    assert validate_category(disc).ok
    assert validate_module(m).ok and validate_module(n).ok
    for x in range(2):  # actions, spelled out
        for y in range(2):
            assert leq(bool2, tensor(bool2, disc.hom[y][x], m.mat[x][0]), m.mat[y][0])
            assert leq(bool2, tensor(bool2, n.mat[0][x], disc.hom[x][y]), n.mat[0][y])
    # unit: unit <= join_X N(X) tensor M(X)
    from qcat import join

    assert leq(
        bool2,
        unit(bool2),
        join(bool2, [tensor(bool2, n.mat[0][x], m.mat[x][0]) for x in range(2)]),
    )
    # counit: M(X) tensor N(Y) <= E(X, Y)
    for x in range(2):
        for y in range(2):
            assert leq(bool2, tensor(bool2, m.mat[x][0], n.mat[0][y]), disc.hom[x][y])

    assert check_adjunction(m, n).ok
    assert find_representing(m) is None
    assert cauchy_witness(m, n) is None
    report = cauchy_completeness_report(disc)
    assert not report.complete
    assert m in report.counterexamples
    _report(6, "product quantale admits a Cauchy non-representable module")


def test_criterion_07_causal_set_ingestion():
    rng = random.Random(7)
    for _ in range(50):
        dag = random_dag(rng, 8)
        cat = causal_space_from_dag(dag)
        for a in dag.vertices:
            for b in dag.vertices:
                expected = longest_path_oracle(dag, a, b)
                got = cat.hom_between(a, b)
                if expected is None:
                    assert got == BOT
                else:
                    assert got == finite(expected)
        assert underlying_preorder(cat) == reflexive_transitive_closure(
            dag.vertices, dag.edges
        )
        assert cat.quantale.tolerance == 0
        assert validate_category(cat).ok
    _report(7, "causal-set ingestion agrees with the path oracle")


def test_criterion_08_collage_round_trip():
    rng = random.Random(8)
    black_holes = 0
    for k in range(50):
        if k % 5 == 0:
            m = random_black_hole_module(rng)
            black_holes += 1
        else:
            m = random_rbot_module(rng)
        col = collage(m)
        assert validate_category(col.category).ok
        assert restrict(col) == m
    assert black_holes == 10
    _report(8, "collage validates and restricts bit-exactly")


def test_criterion_09_lawvere_base():
    metric = VCategory(
        LAWVERE,
        ("p", "q", "r"),
        (
            (finite(0), finite(2), finite(5)),
            (finite(2), finite(0), finite(3)),
            (finite(5), finite(3), finite(0)),
        ),
    )
    assert validate_category(metric).ok
    m = representable(metric, "q")
    n = corepresentable(metric, "q")
    out = adjoin_point(m, n)
    assert validate_category(out).ok
    assert out.hom_between("q", "*") == finite(0)
    assert out.hom_between("*", "q") == finite(0)
    _report(9, "metric base validates and adjoins a zero-distance point")


def test_criterion_10_endohom_laws():
    rng = random.Random(10)
    for _ in range(1000):
        cat = random_rbot_category(rng, 6)
        assert validate_category(cat).ok
        report = classify_endohoms(cat)
        assert report.ok, report.to_json()
        q = cat.quantale
        for i in range(len(cat)):
            endo = cat.hom[i][i]
            # (1) endohoms are monoidal idempotents
            assert tensor(q, endo, endo) == endo
            # (3) and only 0 or inf
            assert endo == finite(0) or endo == INF
            for j in range(len(cat)):
                # (2) endohoms act by equality, not just inequality
                assert tensor(q, cat.hom[j][i], endo) == cat.hom[j][i]
                assert tensor(q, endo, cat.hom[i][j]) == cat.hom[i][j]
        kinds = dict(report.classes)
        for i, x in enumerate(cat.objects):
            for j, y in enumerate(cat.objects):
                if i == j:
                    continue
                # (3a) irregular objects interact only through bot or inf
                if kinds[x] == "irregular":
                    assert cat.hom[i][j] in (BOT, INF) and cat.hom[j][i] in (BOT, INF)
                # (3b) mutual causation between regular events forces simultaneity
                if kinds[x] == "regular" and kinds[y] == "regular":
                    fwd, back = cat.hom[i][j], cat.hom[j][i]
                    if fwd != BOT and back != BOT:
                        assert fwd == finite(0) and back == finite(0)
    _report(10, "endohom laws hold on 1000 random categories")


def test_criterion_11_module_calculus():
    rng = random.Random(11)
    for _ in range(100):
        m, n, p = random_module_triple(rng)
        assert compose(compose(m, n), p) == compose(m, compose(n, p))
        assert compose(m, identity_module(m.source)) == m
        assert compose(identity_module(m.target), m) == m

    grid = (BOT, finite(0), finite(1), finite(2), INF)
    dominated = 0
    for _ in range(40):
        m = random_rbot_module(rng, 6)
        canon = canonical_right_adjoint(m)
        rows, cols = len(m.source.objects), len(m.target.objects)
        for _ in range(10):
            cand = VModule(
                m.target,
                m.source,
                tuple(tuple(rng.choice(grid) for _ in range(cols)) for _ in range(rows)),
            )
            if check_adjunction(m, cand).counit_ok:
                dominated += 1
                for a in range(rows):
                    for x in range(cols):
                        assert leq(m.quantale, cand.mat[a][x], canon.mat[a][x])
    assert dominated > 30
    _report(11, "module calculus: associativity, identities, canonical adjoint dominates")
