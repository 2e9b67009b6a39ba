import math
import random
import warnings

import pytest

from qcat import (
    BOT,
    CausalDag,
    CycleError,
    Event2D,
    causal_space_from_dag,
    classify_endohoms,
    dag_from_json,
    dag_from_text,
    eq,
    finite,
    interval_2d,
    minkowski_sample,
    mixed_signature_check,
    toposort,
    underlying_preorder,
    validate_category,
)

from qcat.cli import run

from oracles import longest_path_oracle
from randgen import random_dag, reflexive_transitive_closure


class TestDagIngestion:
    def test_longest_path_beats_skip_edge(self):
        dag = CausalDag(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
        cat = causal_space_from_dag(dag)
        assert cat.hom_between("a", "c") == finite(2)
        assert cat.hom_between("a", "b") == finite(1)
        assert validate_category(cat).ok

    def test_single_vertex(self):
        cat = causal_space_from_dag(CausalDag(("a",), ()))
        assert cat.hom == ((finite(0),),)

    def test_incomparable_vertices(self):
        cat = causal_space_from_dag(CausalDag(("a", "b"), ()))
        assert cat.hom_between("a", "b") == BOT
        assert cat.hom_between("b", "a") == BOT

    def test_diamond(self):
        dag = CausalDag(("a", "b", "c", "d"), (("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")))
        assert longest_path_oracle(dag, "a", "d") == 2
        assert causal_space_from_dag(dag).hom_between("a", "d") == finite(2)

    def test_oracle_basics(self):
        dag = CausalDag(("a", "b"), (("a", "b"),))
        assert longest_path_oracle(dag, "a", "b") == 1
        assert longest_path_oracle(dag, "b", "a") is None
        assert longest_path_oracle(dag, "a", "a") == 0
        with pytest.raises(ValueError):
            longest_path_oracle(dag, "a", "zzz")

    def test_oracle_explosion_guard(self):
        # layered graph with 2^k paths
        vertices = [f"v{i}" for i in range(12)]
        edges = []
        for i in range(0, 10, 2):
            edges += [
                (f"v{i}", f"v{i+1}"),
                (f"v{i}", f"v{i+2}"),
                (f"v{i+1}", f"v{i+2}"),
            ]
        dag = CausalDag(tuple(vertices), tuple(set(edges)))
        with pytest.raises(ValueError, match="exceeded"):
            longest_path_oracle(dag, "v0", "v10", max_paths=3)

    def test_agreement_with_oracle_and_closure(self):
        rng = random.Random(77)
        for _ in range(50):
            dag = random_dag(rng)
            cat = causal_space_from_dag(dag)
            assert validate_category(cat).ok
            for a in dag.vertices:
                for b in dag.vertices:
                    expect = longest_path_oracle(dag, a, b)
                    got = cat.hom_between(a, b)
                    if expect is None:
                        assert got == BOT
                    else:
                        assert got == finite(expect)
            assert underlying_preorder(cat) == reflexive_transitive_closure(
                dag.vertices, dag.edges
            )

    def test_all_endohoms_zero(self):
        rng = random.Random(78)
        for _ in range(10):
            cat = causal_space_from_dag(random_dag(rng))
            assert all(v == finite(0) for v in (cat.hom[i][i] for i in range(len(cat))))

    def test_cycle_reported_with_witness(self):
        dag = CausalDag(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
        with pytest.raises(CycleError) as exc:
            causal_space_from_dag(dag)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) <= {"a", "b", "c"}
        edges = set(dag.edges)
        for u, v in zip(cycle, cycle[1:]):
            assert (u, v) in edges

    def test_toposort_stops_short_on_a_cycle(self):
        dag = CausalDag(("x", "a", "b", "y"), (("x", "a"), ("a", "b"), ("b", "a"), ("b", "y")))
        assert toposort(dag) == ["x"]

    def test_long_cycle_exits_two_with_witness(self, tmp_path):
        # far longer than the default recursion limit
        n = 5000
        names = [f"k{i}" for i in range(n)]
        edges = {(names[i], names[(i + 1) % n]) for i in range(n)}
        src = tmp_path / "cycle.txt"
        src.write_text("".join(f"{a} {b}\n" for a, b in sorted(edges)))
        result = run(["from-dag", str(src), "-o", str(tmp_path / "out.json")])
        assert result.exit_code == 2
        cycle = result.payload["error"].split("cycle: ", 1)[1].split(" -> ")
        assert cycle[0] == cycle[-1] and len(cycle) == n + 1
        assert all(e in edges for e in zip(cycle, cycle[1:]))
        assert not (tmp_path / "out.json").exists()

    def test_toposort_respects_edges(self):
        rng = random.Random(79)
        for _ in range(20):
            dag = random_dag(rng)
            order = toposort(dag)
            pos = {v: i for i, v in enumerate(order)}
            for a, b in dag.edges:
                assert pos[a] < pos[b]

    def test_dag_invariants(self):
        with pytest.raises(ValueError):
            CausalDag(("a",), (("a", "b"),))
        with pytest.raises(ValueError):
            CausalDag(("a", "b"), (("a", "b"), ("a", "b")))
        with pytest.raises(ValueError):
            CausalDag(("a", "a"), ())


class TestDagParsing:
    def test_text(self):
        dag = dag_from_text("# a comment\na b\n\nb c\n")
        assert dag.vertices == ("a", "b", "c")
        assert dag.edges == (("a", "b"), ("b", "c"))

    def test_text_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            dag_from_text("a b c\n")

    def test_json(self):
        dag = dag_from_json({"vertices": ["a", "b", "lonely"], "edges": [["a", "b"]]})
        assert dag.vertices == ("a", "b", "lonely")

    def test_json_errors(self):
        with pytest.raises(ValueError):
            dag_from_json({"vertices": ["a"]})
        with pytest.raises(ValueError, match=r"edges\[0\]"):
            dag_from_json({"vertices": ["a"], "edges": [["a"]]})


class TestMinkowski:
    def test_worked_intervals(self):
        assert float(interval_2d(Event2D(0, 0), Event2D(2, 1)).value) == pytest.approx(
            math.sqrt(3), abs=1e-12
        )
        assert interval_2d(Event2D(0, 0), Event2D(0, 1)) == BOT  # space-like
        assert interval_2d(Event2D(0, 0), Event2D(1, 1)) == finite(0)  # light-like
        assert interval_2d(Event2D(0, 0), Event2D(-1, 0)) == BOT  # past

    def test_deterministic_per_seed(self):
        c1, e1 = minkowski_sample(50, 123)
        c2, e2 = minkowski_sample(50, 123)
        c3, _ = minkowski_sample(50, 124)
        assert c1 == c2 and e1 == e2
        assert c3 != c1

    def test_validates_at_tolerance(self):
        for seed in range(5):
            cat, _ = minkowski_sample(60, seed)
            assert cat.quantale.tolerance == 1e-9
            assert validate_category(cat).ok
            report = classify_endohoms(cat)
            assert report.ok
            assert all(kind == "regular" for _, kind in report.classes)

    def test_bounds_respected(self):
        _, events = minkowski_sample(200, 9, bounds=(2.0, 3.0, -1.0, 4.0))
        assert all(2.0 <= e.t <= 3.0 and -1.0 <= e.x <= 4.0 for e in events)

    def test_degenerate_bounds(self):
        with pytest.raises(ValueError, match="degenerate"):
            minkowski_sample(5, 0, bounds=(1.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            minkowski_sample(-1, 0)

    def test_time_translation_invariance_at_tolerance(self):
        cat, events = minkowski_sample(30, 55, bounds=(0.0, 2.0, -1.0, 1.0))
        shifted = [Event2D(e.t + 5.0, e.x) for e in events]
        q = cat.quantale
        for i in range(len(events)):
            for j in range(len(events)):
                a = interval_2d(events[i], events[j])
                b = interval_2d(shifted[i], shifted[j])
                if a == BOT or b == BOT:
                    assert a == b
                else:
                    assert eq(q, a, b)

    def test_empty_sample(self):
        cat, events = minkowski_sample(0, 1)
        assert len(cat) == 0 and events == []
        assert validate_category(cat).ok

    def test_overflowing_squares_raise(self):
        # no RuntimeWarning either: the overflow is checked, not cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"bounds \(0\.0, 1e\+200, 0\.0, 1\.0\) too wide"):
                minkowski_sample(4, 1, bounds=(0.0, 1e200, 0.0, 1.0))
            with pytest.raises(ValueError, match="its square overflows a float"):
                interval_2d(Event2D(0, 0), Event2D(1e200, 0))
            with pytest.raises(ValueError, match="its square overflows a float"):
                interval_2d(Event2D(0, 0), Event2D(1e200, 1e200))

    def test_bounds_just_inside_the_limit_sample(self):
        # sqrt(float max) is 1.3407...e154: every square here stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cat, events = minkowski_sample(12, 3, bounds=(0.0, 1.34e154, 0.0, 1.34e154))
        assert max(e.t for e in events) > 1.3e154
        assert [list(row) for row in cat.hom] == [
            [interval_2d(a, b) for b in events] for a in events
        ]

    def test_overflowing_bounds_exit_two_and_write_nothing(self, tmp_path):
        out = tmp_path / "big.json"
        result = run(["minkowski", "--n", "4", "--seed", "1", "--bounds", "0,1e200,0,1", "-o", str(out)])
        assert result.exit_code == 2 and "too wide" in result.payload["error"]
        assert not out.exists()


class TestCrossGenerator:
    """Sprinkle, take the causal set with ``underlying_preorder``, rebuild
    its causal space with ``causal_space_from_dag``: the rebuilt space
    has the same causal set, and its longest chain (largest finite hom
    plus one) grows like sqrt(2n) in the unit square (Brightwell and
    Gregory, PRL 66, 1991; Logan-Shepp and Vershik-Kerov, 1977)."""

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_longest_chain_scales_as_sqrt_2n(self, n, seed):
        cat, _ = minkowski_sample(n, seed)
        edges = underlying_preorder(cat)
        dag = CausalDag(cat.objects, tuple(sorted(e for e in edges if e[0] != e[1])))
        rebuilt = causal_space_from_dag(dag)
        assert underlying_preorder(rebuilt) == edges
        chain = 1 + max(v.value for row in rebuilt.hom for v in row if v.is_finite)
        assert 0.7 * math.sqrt(2 * n) <= chain <= 1.3 * math.sqrt(2 * n)


class TestMixedSignature:
    def test_exact_record(self):
        rec = mixed_signature_check()
        assert (rec.a, rec.b, rec.c) == ((0, 0), (-1, 0), (0, 1))
        assert rec.d_ab == -1
        assert rec.d_bc == 0
        assert rec.d_ac == 1
        assert rec.chained == -1
        assert rec.violation

    def test_json_shape(self):
        data = mixed_signature_check().to_json()
        assert data["violation"] is True
        assert data["chained"] == -1
        assert data["d_ac"] == 1
