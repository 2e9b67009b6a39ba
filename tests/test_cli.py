import argparse
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcat import (
    BOT,
    RBOT,
    VCategory,
    category_from_json,
    category_to_json,
    compose,
    corepresentable,
    finite,
    module_from_json,
    module_to_json,
    preorder_dot,
    representable,
    validate_category,
)
from qcat import cli
from qcat.cli import main, run, _dump, _write
from qcat.quantale import parse_value

import oracles

CHAIN = VCategory(RBOT, ("a", "b"), ((finite(0), finite(3)), (BOT, finite(0))))

PRODUCT_DISC = {
    "quantale": ["bool", "bool"],
    "objects": ["x", "y"],
    "hom": [["(true,true)", "(false,false)"], ["(false,false)", "(true,true)"]],
}


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(_dump(category_to_json(CHAIN)))
    return str(path)


@pytest.fixture
def rep_module_file(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(_dump(module_to_json(representable(CHAIN, "b"))))
    return str(path)


class TestExitCodes:
    def test_ok_is_zero(self, chain_file):
        assert run(["validate", chain_file]).exit_code == 0

    def test_violations_are_one(self, tmp_path):
        bad = {
            "quantale": "rbot",
            "objects": ["a", "b"],
            "hom": [["0", "3"], ["2", "0"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        result = run(["validate", str(path)])
        assert result.exit_code == 1
        assert result.status == "violations"

    def test_input_errors_are_two(self, tmp_path):
        result = run(["validate", str(tmp_path / "nope.json")])
        assert result.exit_code == 2
        assert "nope.json" in result.payload["error"]

        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        result = run(["validate", str(garbled)])
        assert result.exit_code == 2
        assert "line" in result.payload["error"]

        badval = tmp_path / "badval.json"
        badval.write_text(
            json.dumps({"quantale": "rbot", "objects": ["a"], "hom": [["wat"]]})
        )
        result = run(["validate", str(badval)])
        assert result.exit_code == 2
        assert "hom[0][0]" in result.payload["error"]
        assert "badval.json" in result.payload["error"]

    @pytest.mark.parametrize("make,code", [(os.mkdir, errno.EISDIR), (lambda path: None, errno.ENOENT)],
                             ids=["directory", "missing"])
    def test_read_error_names_the_path_once(self, tmp_path, monkeypatch, capsys, make, code):
        monkeypatch.chdir(tmp_path)
        make("d")
        monkeypatch.setattr(sys, "argv", ["qcat", "validate", "d"])
        with pytest.raises(SystemExit) as exit_:
            main()
        error = f"d: [Errno {code}] {os.strerror(code)}"
        stdout, err = capsys.readouterr()
        assert (exit_.value.code, err) == (2, f"error: {error}\n")
        assert json.loads(stdout)["error"] == error

    @pytest.mark.parametrize("quantale,hom,grid,bad", [
        ("rbot", [["0", "3"], ["bot", "0"]], "0,(1,2)", "(1,2)"),
        (["rbot", "bool"], [["(0,true)", "(3,true)"], ["(bot,false)", "(0,true)"]],
         "(0,true),((0,1),true)", "(0,1)"),
    ], ids=["rbot", "rbot,bool"])
    def test_grid_of_another_shape_is_two_without_a_traceback(self, tmp_path, quantale, hom, grid, bad):
        (tmp_path / "c.json").write_text(json.dumps({"quantale": quantale, "objects": ["a", "b"], "hom": hom}))
        src_dir = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", "from qcat.cli import main; main()", "complete", "c.json", "--grid", grid],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        error = f"QVal({bad}) is not an element of the causal base"
        assert (proc.returncode, proc.stderr) == (2, f"error: {error}\n")
        assert json.loads(proc.stdout) == {"status": "error", "error": error}

    @pytest.mark.parametrize("argv", [["laws", "--quantale", "rbot"], ["complete", "c.json"]],
                             ids=["laws", "complete"])
    def test_empty_grid_is_two(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"quantale": "rbot", "objects": ["a"], "hom": [["0"]]}))
        monkeypatch.setattr(sys, "argv", ["qcat", *argv, "--grid", ""])
        with pytest.raises(SystemExit) as exit_:
            main()
        error = "cannot parse '' as a value"
        stdout, err = capsys.readouterr()
        assert (exit_.value.code, err) == (2, f"error: {error}\n")
        assert json.loads(stdout) == {"status": "error", "error": error}

    def test_complete_on_an_invalid_category_names_the_file(self, tmp_path, monkeypatch, capsys):
        # the endohom 5 is not the unit: the search refuses the category
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(json.dumps({"quantale": "rbot", "objects": ["x"], "hom": [["5"]]}))
        monkeypatch.setattr(sys, "argv", ["qcat", "complete", "bad.json"])
        with pytest.raises(SystemExit) as exit_:
            main()
        error = "bad.json: cauchy_completeness_report requires a valid category"
        stdout, err = capsys.readouterr()
        assert (exit_.value.code, err) == (2, f"error: {error}\n")
        assert json.loads(stdout) == {"status": "error", "error": error}

    def test_complete_past_the_default_grid_cap_names_the_file_and_the_flag(self, tmp_path, monkeypatch, capsys):
        # a valid chain whose homs 1/7, 5/2 and 6 close to more than 64
        # residuals: the search refuses the default grid
        monkeypatch.chdir(tmp_path)
        hom = [["0", "1/7", "5/2", "6"], ["bot", "0", "2", "5"], ["bot", "bot", "0", "3"], ["bot", "bot", "bot", "0"]]
        (tmp_path / "wide.json").write_text(json.dumps({"quantale": "rbot", "objects": list("abcd"), "hom": hom}))
        monkeypatch.setattr(sys, "argv", ["qcat", "complete", "wide.json"])
        with pytest.raises(SystemExit) as exit_:
            main()
        error = "wide.json: default module grid exceeded 64 values; pass an explicit grid with --grid"
        stdout, err = capsys.readouterr()
        assert (exit_.value.code, err) == (2, f"error: {error}\n")
        assert json.loads(stdout) == {"status": "error", "error": error}

    def test_empty_grid_message_on_stderr(self, tmp_path):
        src_dir = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", "from qcat.cli import main; main()", "laws", "--quantale", "rbot", "--grid", ""],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (2, "error: cannot parse '' as a value\n")

    @pytest.mark.parametrize("argv", [["validate"], ["from-dag", "-o", "x.json"]])
    def test_undecodable_file_is_named(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        Path("bad.bin").write_bytes(b"\xff\xfe{")
        result = run([argv[0], "bad.bin", *argv[1:]])
        assert result.exit_code == 2
        assert result.payload["error"].startswith("bad.bin: 'utf-8' codec can't decode byte 0xff")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.bin"]

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("hom", [[float("inf")]], "hom[0][0]"),
            ("tolerance", float("inf"), "tolerance"),
            ("tolerance", float("nan"), "tolerance"),
            ("hom", [["(" * 5000 + "0" + ")" * 5000]], "hom[0][0]"),
        ],
        ids=["infinity-hom", "infinity-tolerance", "nan-tolerance", "deep-tuple"],
    )
    def test_nonfinite_and_deep_input_is_two(self, tmp_path, field, value, fragment):
        data = {"quantale": "rbot", "objects": ["a"], "hom": [["0"]], field: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))  # writes Infinity and NaN literals
        result = run(["validate", str(path)])
        assert result.exit_code == 2
        assert f"c.json.{fragment}:" in result.payload["error"]

    @pytest.mark.parametrize("command", ["cauchy", "adjoint"])
    def test_row_for_an_empty_source_is_two(self, tmp_path, command):
        empty = {"quantale": "rbot", "objects": [], "hom": []}
        data = {"source": empty, "target": category_to_json(CHAIN), "mat": [[], ["0"]]}
        with pytest.raises(ValueError, match="module row 1 has 1 entries for 0 source objects"):
            module_from_json(data)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        result = run([command, str(path)])
        assert result.exit_code == 2
        assert "m.json: module row 1 has 1 entries for 0 source objects" in result.payload["error"]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"quantale": ' + "[" * 500 + '"rbot"' + "]" * 500 + ', "objects": [], "hom": []}',
             "c.json.quantale:"),
            ("[" * 100000 + "]" * 100000, "c.json: JSON nested too deeply"),
        ],
        ids=["deep-quantale", "deep-json"],
    )
    def test_deeply_nested_json_is_two(self, tmp_path, text, fragment):
        path = tmp_path / "c.json"
        path.write_text(text)
        result = run(["validate", str(path)])
        assert result.exit_code == 2
        assert fragment in result.payload["error"]

    def test_unknown_command_is_two(self):
        assert run(["frobnicate"]).exit_code == 2


class TestLaws:
    def test_default_grids(self):
        for q in ("rbot", "lawvere", "bool", "bool,bool"):
            result = run(["laws", "--quantale", q])
            assert result.exit_code == 0, q
            assert result.payload["ok"] is True

    def test_explicit_grid(self):
        result = run(["laws", "--quantale", "rbot", "--grid", "bot,0,1,5/2,7,inf"])
        assert result.exit_code == 0
        assert result.payload["sample"] == ["bot", "0", "1", "5/2", "7", "inf"]

    def test_tuple_grid(self):
        result = run(
            [
                "laws",
                "--quantale",
                "bool,bool",
                "--grid",
                "(true,true),(true,false),(false,true),(false,false)",
            ]
        )
        assert result.exit_code == 0

    def test_grid_outside_carrier(self):
        assert run(["laws", "--quantale", "bool", "--grid", "1,2"]).exit_code == 2


class TestValidate:
    def test_matches_library(self, chain_file):
        result = run(["validate", chain_file])
        assert result.payload["report"] == validate_category(CHAIN).to_json()
        assert result.payload["endohoms"]["classes"] == {"a": "regular", "b": "regular"}

    def test_no_endohoms_for_other_bases(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "quantale": "lawvere",
                    "objects": ["p"],
                    "hom": [["0"]],
                }
            )
        )
        result = run(["validate", str(path)])
        assert result.exit_code == 0
        assert "endohoms" not in result.payload


class TestModuleCommands:
    def test_compose_roundtrip(self, tmp_path, rep_module_file):
        n_path = tmp_path / "corep.json"
        n_path.write_text(_dump(module_to_json(corepresentable(CHAIN, "b"))))
        out = tmp_path / "out.json"
        result = run(["compose", rep_module_file, str(n_path), "-o", str(out)])
        assert result.exit_code == 0
        written = module_from_json(json.loads(out.read_text()))
        expected = compose(representable(CHAIN, "b"), corepresentable(CHAIN, "b"))
        assert written == expected

    def test_compose_mismatch(self, rep_module_file, tmp_path):
        out = tmp_path / "out.json"
        result = run(["compose", rep_module_file, rep_module_file, "-o", str(out)])
        assert result.exit_code == 2

    def test_adjoint(self, rep_module_file):
        result = run(["adjoint", rep_module_file])
        assert result.exit_code == 0
        n = module_from_json(result.payload["right_adjoint"])
        assert n == corepresentable(CHAIN, "b")
        assert result.payload["adjunction"]["unit_ok"] is True
        assert result.payload["adjunction"]["counit_ok"] is True

    def test_cauchy_representable(self, rep_module_file):
        result = run(["cauchy", rep_module_file])
        assert result.exit_code == 0
        assert result.payload["is_cauchy"] is True
        assert result.payload["representing"] == "b"
        assert result.payload["witness"] == "b"

    def test_cauchy_negative(self, tmp_path):
        m = {
            "source": "I",
            "target": category_to_json(CHAIN),
            "mat": [["bot"], ["bot"]],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m))
        result = run(["cauchy", str(path)])
        assert result.exit_code == 1
        assert result.payload["is_cauchy"] is False

    def test_complete_rbot(self, chain_file):
        result = run(["complete", chain_file])
        assert result.exit_code == 0
        assert result.payload["complete"] is True
        assert result.payload["counterexamples"] == []

    def test_complete_product_counterexample(self, tmp_path):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(PRODUCT_DISC))
        result = run(["complete", str(path)])
        assert result.exit_code == 1
        assert result.payload["complete"] is False
        assert ["(true,false)", "(false,true)"] in result.payload["counterexamples"]

    def test_complete_explicit_grid(self, chain_file):
        result = run(["complete", chain_file, "--grid", "bot,0,3,inf"])
        assert result.exit_code == 0
        assert result.payload["grid"] == ["bot", "0", "3", "inf"]


class TestGluingCommands:
    def test_collage_restrict_round_trip(self, tmp_path, rep_module_file):
        col_path = tmp_path / "col.json"
        assert run(["collage", rep_module_file, "-o", str(col_path)]).exit_code == 0
        result = run(["restrict", str(col_path)])
        assert result.exit_code == 0
        assert result.payload["module"]["mat"] == [["3"], ["0"]]
        out_path = tmp_path / "m2.json"
        assert run(["restrict", str(col_path), "-o", str(out_path)]).exit_code == 0
        assert json.loads(out_path.read_text())["mat"] == [["3"], ["0"]]

    def test_adjoin(self, tmp_path, rep_module_file):
        n_path = tmp_path / "corep.json"
        n_path.write_text(_dump(module_to_json(corepresentable(CHAIN, "b"))))
        out = tmp_path / "ext.json"
        result = run(["adjoin", rep_module_file, str(n_path), "-o", str(out)])
        assert result.exit_code == 0
        cat = category_from_json(json.loads(out.read_text()))
        assert cat.objects == ("a", "b", "*")
        assert validate_category(cat).ok


class TestGenerators:
    def test_from_dag_text(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\nb c\na c\n")
        out = tmp_path / "dag.json"
        result = run(["from-dag", str(edges), "-o", str(out)])
        assert result.exit_code == 0
        cat = category_from_json(json.loads(out.read_text()))
        assert cat.hom_between("a", "c") == finite(2)

    def test_from_dag_json(self, tmp_path):
        src = tmp_path / "dag-in.json"
        src.write_text(json.dumps({"vertices": ["a", "b", "solo"], "edges": [["a", "b"]]}))
        out = tmp_path / "dag.json"
        result = run(["from-dag", str(src), "-o", str(out)])
        assert result.exit_code == 0
        assert "solo" in result.payload["objects"]

    def test_from_dag_cycle_is_input_error(self, tmp_path):
        edges = tmp_path / "cyc.txt"
        edges.write_text("a b\nb a\n")
        result = run(["from-dag", str(edges), "-o", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert "cycle" in result.payload["error"]
        assert "cyc.txt" in result.payload["error"]

    def test_minkowski(self, tmp_path):
        out = tmp_path / "mk.json"
        result = run(
            ["minkowski", "--n", "25", "--seed", "4", "--bounds", "0,2,-1,1", "-o", str(out)]
        )
        assert result.exit_code == 0
        assert len(result.payload["events"]) == 25
        cat = category_from_json(json.loads(out.read_text()))
        assert cat.quantale.tolerance == 1e-9
        assert validate_category(cat).ok

    def test_minkowski_bad_bounds(self, tmp_path):
        result = run(
            ["minkowski", "--n", "5", "--seed", "1", "--bounds", "0,1", "-o", str(tmp_path / "x")]
        )
        assert result.exit_code == 2

    def test_underlying_with_dot(self, tmp_path, chain_file):
        dot = tmp_path / "g.dot"
        result = run(["underlying", chain_file, "--dot", str(dot)])
        assert result.exit_code == 0
        assert json.loads(_dump(result.payload))["edges"] == [["a", "a"], ["a", "b"], ["b", "b"]]
        assert dot.read_text() == 'digraph preorder {\n  "a";\n  "b";\n  "a" -> "b";\n}\n'

    def test_underlying_edges_in_label_order(self, tmp_path):
        # labels out of object order, with NULs (one label a prefix of
        # another), a quote and non-ASCII text; a chain in object order
        # but for the last object, which nothing reaches
        labels = ["é", 'q"', "a\x00", "a", "a\x00\x00", "Z"]
        n = len(labels)
        hom = [[str(j - i) if i <= j < n - 1 or i == j else "bot" for j in range(n)] for i in range(n)]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"quantale": "rbot", "objects": labels, "hom": hom}))
        dot = tmp_path / "g.dot"
        result = run(["underlying", str(path), "--dot", str(dot)])
        assert result.exit_code == 0
        want = {(labels[i], labels[j]) for i in range(n - 1) for j in range(i, n - 1)}
        want.add((labels[-1], labels[-1]))
        edges = json.loads(_dump(result.payload))["edges"]
        assert edges == sorted(map(list, want))
        assert edges[:3] == [["Z", "Z"], ["a", "a"], ["a", "a\x00\x00"]]
        assert dot.read_text(encoding="utf-8") == preorder_dot(labels, want)

    def test_counterexample_mixed(self):
        result = run(["counterexample-mixed"])
        assert result.exit_code == 1
        assert result.payload["d_ab"] == -1
        assert result.payload["d_bc"] == 0
        assert result.payload["d_ac"] == 1
        assert result.payload["violation"] is True


class TestAtomicWrite:
    def _fail_replace(self, monkeypatch):
        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("qcat.cli.os.replace", fail)

    @pytest.mark.parametrize("failure", ["unencodable", "rename"])
    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch, failure):
        src = tmp_path / "dag-in.json"
        label = "\ud800" if failure == "unencodable" else "b"  # a lone surrogate
        src.write_text(json.dumps({"vertices": ["a", label], "edges": [["a", label]]}))
        out = tmp_path / "out.json"
        out.write_text("previous\n")
        if failure == "rename":
            self._fail_replace(monkeypatch)
        result = run(["from-dag", str(src), "-o", str(out)])
        assert result.exit_code == 2
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dag-in.json", "out.json"]

    def test_unwritable_directory_is_input_error(self, tmp_path, chain_file):
        out = tmp_path / "missing" / "g.dot"
        result = run(["underlying", chain_file, "--dot", str(out)])
        assert result.exit_code == 2
        assert str(out) in result.payload["error"]

    def test_missing_directory_names_the_target(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "d.txt"
        src.write_text("a b\n")
        out = tmp_path / "nonexistent" / "x.json"
        monkeypatch.setattr(sys, "argv", ["qcat", "from-dag", str(src), "-o", str(out)])
        with pytest.raises(SystemExit) as exit_:
            main()
        error = f"{out}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
        stdout, err = capsys.readouterr()
        assert (exit_.value.code, err) == (2, f"error: {error}\n")
        assert json.loads(stdout)["error"] == error

    def test_replaces_existing_file(self, tmp_path, chain_file):
        out = tmp_path / "g.dot"
        out.write_text("stale, and longer than the new graph " * 20)
        assert run(["underlying", chain_file, "--dot", str(out)]).exit_code == 0
        assert out.read_text().startswith("digraph preorder {")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.json", "g.dot"]


class TestOutOfMemory:
    """A MemoryError is an input error (exit 2) that says memory ran out;
    nothing here allocates more than a test's usual memory."""

    @staticmethod
    def _no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB")

    def test_while_computing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "minkowski_sample", self._no_memory)
        result = run(["minkowski", "--n", "20000", "--seed", "1", "-o", str(tmp_path / "big.json")])
        assert result.exit_code == 2
        assert result.payload == {"status": "error", "error": "out of memory: Unable to allocate 2.98 GiB"}
        assert list(tmp_path.iterdir()) == []

    def test_while_writing(self, tmp_path, monkeypatch):
        matrix = cli._matrix

        def first_row_only(index, nl):
            yield next(matrix(index, nl))
            raise MemoryError

        monkeypatch.setattr(cli, "_matrix", first_row_only)
        out = tmp_path / "big.json"
        out.write_text("previous\n")
        result = run(["minkowski", "--n", "20", "--seed", "1", "-o", str(out)])
        assert (result.exit_code, result.payload["error"]) == (2, "out of memory")
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["big.json"]

    def test_no_traceback(self, tmp_path):
        script = (
            "from qcat import cli\n"
            "def sample(*args):\n"
            "    raise MemoryError\n"
            "cli.minkowski_sample = sample\n"
            "cli.main()\n"
        )
        src_dir = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", script, "minkowski", "--n", "20000", "--seed", "1", "-o", "big.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (2, "error: out of memory\n")
        assert json.loads(proc.stdout) == {"status": "error", "error": "out of memory"}
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_byte_identical_payloads(self, tmp_path, chain_file, rep_module_file):
        invocations = [
            ["validate", chain_file],
            ["laws", "--quantale", "rbot"],
            ["cauchy", rep_module_file],
            ["complete", chain_file],
            ["counterexample-mixed"],
        ]
        for argv in invocations:
            first = _dump(run(argv).payload)
            second = _dump(run(argv).payload)
            assert first == second

    def test_minkowski_artifact_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["minkowski", "--n", "10", "--seed", "3", "-o", str(out)]).exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unicode_value_inputs_accepted(self, tmp_path):
        path = tmp_path / "uni.json"
        path.write_text(
            json.dumps(
                {"quantale": "rbot", "objects": ["a", "b"], "hom": [["0", "∞"], ["⊥", "0"]]},
                ensure_ascii=False,
            ),
            encoding="utf-8",
        )
        result = run(["validate", str(path)])
        assert result.exit_code == 0


def _two_clusters(big: str) -> dict:
    """16 events in two clusters at proper time 0 within each, the first
    cluster seeing the second after ``big``; tolerance 1e-9."""
    hom = [["0" if (i < 8) == (j < 8) else (big if i < 8 else "bot") for j in range(16)]
           for i in range(16)]
    return {"quantale": "rbot", "tolerance": 1e-9, "objects": [f"e{i}" for i in range(16)],
            "hom": hom}


class TestOutOfRangeValues:
    """A hom value of 1e400 is past float64's range: validation stays exact."""

    def test_validate_and_complete(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(_two_clusters("1e400")))
        result = run(["validate", str(path)])
        assert result.exit_code == 0 and result.payload["report"]["ok"]
        result = run(["complete", str(path)])
        assert result.exit_code == 0 and result.payload["complete"] is True
        assert result.payload["cauchy_count"] == 2

    def test_violation_beyond_float_range(self, tmp_path):
        data = _two_clusters("1e400")
        data["hom"][0][9] = "1e399"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        result = run(["validate", str(path)])
        assert result.exit_code == 1
        expected = oracles.validate_exact(category_from_json(data)).to_json()
        assert result.payload["report"] == expected
        assert len(expected["composition_violations"]) == 14
        result = run(["complete", str(path)])
        assert result.exit_code == 2 and "valid category" in result.payload["error"]

    @pytest.mark.parametrize("literal", ["1e10000000", "1e5000", "1e4300", "1" * 3000 + "." + "1" * 2000])
    def test_value_too_long_to_print_is_two(self, tmp_path, literal):
        data = _two_clusters("1e400")
        data["hom"][0][9] = literal
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        result = run(["validate", str(path)])
        assert result.exit_code == 2
        assert "long.json.hom[0][9]:" in result.payload["error"]
        assert "digits" in result.payload["error"]

    def test_json_integer_too_long_to_read_names_the_file(self, tmp_path):
        # json.loads itself refuses a bare integer past the digit limit
        path = tmp_path / "long.json"
        path.write_text('{"quantale": "rbot", "objects": ["a"], "hom": [[' + "1" * 5001 + "]]}")
        for cmd in ("validate", "underlying", "complete"):
            result = run([cmd, str(path)])
            assert result.exit_code == 2
            error = result.payload["error"]
            assert error.startswith(f"{path}: Exceeds the limit (4300 digits)"), error


class TestCompleteHugeGridValues:
    """Grid values whose common scale passes 2^52 run on Python-int codes
    in object arrays: the same report as the per-module search, and
    never a traceback."""

    @pytest.mark.parametrize(
        "value",
        ["9" * 4000, str(2**1024 - 1), str(2**1024), f"1/{2**1024 - 1}", "1" + "0" * 3999 + "/7"],
        ids=["4000-digits", "below-2^1024", "2^1024", "1/(2^1024-1)", "10^3999/7"],
    )
    def test_complete_with_huge_grid_value(self, chain_file, value):
        grid = f"bot,0,1,3,{value},inf"
        result = run(["complete", chain_file, "--grid", grid])
        assert result.exit_code in (0, 1)
        want = oracles.cauchy_completeness_report(CHAIN, [parse_value(v) for v in grid.split(",")])
        assert result.payload == {"status": "ok" if want.complete else "violations", **want.to_json()}


class TestUnencodableLabels:
    """Labels that UTF-8 cannot encode (JSON admits a lone surrogate) are
    input errors naming the field, not a traceback when printed."""

    def check(self, result, fragment):
        assert result.exit_code == 2
        assert fragment in result.payload["error"]
        _dump(result.payload).encode("utf-8")

    def test_category_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"quantale": "rbot", "objects": ["a", "\\ud800"], '
                        '"hom": [["0", "bot"], ["bot", "0"]]}')
        for cmd in ("validate", "underlying", "complete"):
            self.check(run([cmd, str(path)]), "c.json.objects[1]: not encodable as UTF-8")

    def test_dag_vertex(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"vertices": ["a", "\\udfff"], "edges": [["a", "\\udfff"]]}')
        out = tmp_path / "out.json"
        self.check(run(["from-dag", str(path), "-o", str(out)]), "d.json.vertices[1]:")
        assert not out.exists()

    def test_adjoin_label(self, tmp_path, rep_module_file):
        n_path = tmp_path / "corep.json"
        n_path.write_text(_dump(module_to_json(corepresentable(CHAIN, "b"))))
        out = tmp_path / "ext.json"
        result = run(["adjoin", rep_module_file, str(n_path), "--label", "\ud800", "-o", str(out)])
        self.check(result, "--label: not encodable as UTF-8")
        assert not out.exists()

    def test_unencodable_write_keeps_existing_file(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("previous\n")
        with pytest.raises(ValueError):
            _write(str(out), "\ud800")
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# Exact outputs of small runs, pinned so that a writer change that alters
# one byte fails a named test.  Paths are relative to the working directory.
DIAMOND_EDGES = "a b\na c\nb d\nc d\n"

DIAMOND_JSON = """\
{
  "hom": [
    [
      "0",
      "1",
      "1",
      "2"
    ],
    [
      "bot",
      "0",
      "bot",
      "1"
    ],
    [
      "bot",
      "bot",
      "0",
      "1"
    ],
    [
      "bot",
      "bot",
      "bot",
      "0"
    ]
  ],
  "objects": [
    "a",
    "b",
    "c",
    "d"
  ],
  "quantale": "rbot",
  "tolerance": 0.0
}
"""

DIAMOND_STDOUT = """\
{
  "objects": [
    "a",
    "b",
    "c",
    "d"
  ],
  "output": "diamond.json",
  "status": "ok"
}
"""

DIAMOND_DOT = """\
digraph preorder {
  "a";
  "b";
  "c";
  "d";
  "a" -> "b";
  "a" -> "c";
  "a" -> "d";
  "b" -> "d";
  "c" -> "d";
}
"""

UNDERLYING_STDOUT = """\
{
  "dot": "diamond.dot",
  "edges": [
    [
      "a",
      "a"
    ],
    [
      "a",
      "b"
    ],
    [
      "a",
      "c"
    ],
    [
      "a",
      "d"
    ],
    [
      "b",
      "b"
    ],
    [
      "b",
      "d"
    ],
    [
      "c",
      "c"
    ],
    [
      "c",
      "d"
    ],
    [
      "d",
      "d"
    ]
  ],
  "status": "ok"
}
"""

COMPOSE_STDOUT = """\
{
  "output": "out.json",
  "shape": [
    2,
    2
  ],
  "status": "ok"
}
"""

COMPOSE_JSON = """\
{
  "mat": [
    [
      "bot",
      "3"
    ],
    [
      "bot",
      "0"
    ]
  ],
  "source": {
    "hom": [
      [
        "0",
        "3"
      ],
      [
        "bot",
        "0"
      ]
    ],
    "objects": [
      "a",
      "b"
    ],
    "quantale": "rbot",
    "tolerance": 0.0
  },
  "target": {
    "hom": [
      [
        "0",
        "3"
      ],
      [
        "bot",
        "0"
      ]
    ],
    "objects": [
      "a",
      "b"
    ],
    "quantale": "rbot",
    "tolerance": 0.0
  }
}
"""

LAWS_RBOT_STDOUT = """\
{
  "ok": true,
  "quantale": "rbot",
  "sample": [
    "bot",
    "0",
    "1",
    "5/2",
    "7",
    "inf"
  ],
  "status": "ok",
  "tolerance": 0.0,
  "violations": []
}
"""

LAWS_LAWVERE_STDOUT = """\
{
  "ok": true,
  "quantale": "lawvere",
  "sample": [
    "0",
    "1",
    "5/2",
    "7",
    "inf"
  ],
  "status": "ok",
  "tolerance": 0.0,
  "violations": []
}
"""

LAWS_BOOL_STDOUT = """\
{
  "ok": true,
  "quantale": "bool",
  "sample": [
    "false",
    "true"
  ],
  "status": "ok",
  "tolerance": 0.0,
  "violations": []
}
"""

LAWS_RBOT_TIES_STDOUT = """\
{
  "ok": true,
  "quantale": "rbot",
  "sample": [
    "bot",
    "0",
    "1/2",
    "1/2",
    "inf"
  ],
  "status": "ok",
  "tolerance": 0.0,
  "violations": []
}
"""

LAWS_RBOT_BOOL_STDOUT = """\
{
  "ok": true,
  "quantale": [
    "rbot",
    "bool"
  ],
  "sample": [
    "(bot,false)",
    "(bot,true)",
    "(0,false)",
    "(0,true)",
    "(1,false)",
    "(1,true)",
    "(5/2,false)",
    "(5/2,true)",
    "(7,false)",
    "(7,true)",
    "(inf,false)",
    "(inf,true)"
  ],
  "status": "ok",
  "tolerance": 0.0,
  "violations": []
}
"""


COMPLETE_DISC_STDOUT = """\
{
  "cauchy": [
    {
      "column": [
        "(false,false)",
        "(true,true)"
      ],
      "representing": "y",
      "witness": "y"
    },
    {
      "column": [
        "(false,true)",
        "(true,false)"
      ],
      "representing": null,
      "witness": null
    },
    {
      "column": [
        "(true,false)",
        "(false,true)"
      ],
      "representing": null,
      "witness": null
    },
    {
      "column": [
        "(true,true)",
        "(false,false)"
      ],
      "representing": "x",
      "witness": "x"
    }
  ],
  "cauchy_count": 4,
  "complete": false,
  "counterexamples": [
    [
      "(false,true)",
      "(true,false)"
    ],
    [
      "(true,false)",
      "(false,true)"
    ]
  ],
  "grid": [
    "(false,false)",
    "(false,true)",
    "(true,false)",
    "(true,true)"
  ],
  "modules_checked": 16,
  "status": "violations"
}
"""

# a source only within the tolerance of the unit: the unit is decided
# against its endohom 1/2 (Cauchy), the witness against the unit (none)
NEAR_UNIT_MODULE = {
    "source": {"quantale": "lawvere", "tolerance": 0.5, "objects": ["i"], "hom": [["1/2"]]},
    "target": {"quantale": "lawvere", "tolerance": 0.5, "objects": ["a"], "hom": [["0"]]},
    "mat": [["3/4"]],
}

CAUCHY_NEAR_UNIT_STDOUT = """\
{
  "all_representing": [],
  "is_cauchy": true,
  "representing": null,
  "status": "violations",
  "witness": null
}
"""


class TestGoldenBytes:
    def _stdout(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "argv", ["qcat", *argv])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == 0
        return capsys.readouterr().out

    def test_from_dag_diamond(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "diamond.txt").write_text(DIAMOND_EDGES)
        out = self._stdout(monkeypatch, capsys, ["from-dag", "diamond.txt", "-o", "diamond.json"])
        assert out == DIAMOND_STDOUT
        assert (tmp_path / "diamond.json").read_text() == DIAMOND_JSON

    def test_underlying_dot_diamond(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "diamond.json").write_text(DIAMOND_JSON)
        argv = ["underlying", "diamond.json", "--dot", "diamond.dot"]
        out = self._stdout(monkeypatch, capsys, argv)
        assert out == UNDERLYING_STDOUT
        assert (tmp_path / "diamond.dot").read_text() == DIAMOND_DOT

    def test_compose_representable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rep.json").write_text(_dump(module_to_json(representable(CHAIN, "b"))))
        (tmp_path / "corep.json").write_text(_dump(module_to_json(corepresentable(CHAIN, "b"))))
        argv = ["compose", "rep.json", "corep.json", "-o", "out.json"]
        out = self._stdout(monkeypatch, capsys, argv)
        assert out == COMPOSE_STDOUT
        assert (tmp_path / "out.json").read_text() == COMPOSE_JSON

    def test_laws_default_product_grid(self, monkeypatch, capsys):
        out = self._stdout(monkeypatch, capsys, ["laws", "--quantale", "rbot,bool"])
        assert out == LAWS_RBOT_BOOL_STDOUT

    @pytest.mark.parametrize("argv,want", [
        (["--quantale", "rbot"], LAWS_RBOT_STDOUT),
        (["--quantale", "lawvere"], LAWS_LAWVERE_STDOUT),
        (["--quantale", "bool"], LAWS_BOOL_STDOUT),
        (["--quantale", "rbot", "--grid", "bot,0,1/2,2/4,inf"], LAWS_RBOT_TIES_STDOUT),
    ], ids=["rbot", "lawvere", "bool", "rbot-ties"])
    def test_laws_plain_base(self, monkeypatch, capsys, argv, want):
        assert self._stdout(monkeypatch, capsys, ["laws", *argv]) == want

    def test_complete_product_counterexamples(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "disc.json").write_text(json.dumps(PRODUCT_DISC))
        monkeypatch.setattr(sys, "argv", ["qcat", "complete", "disc.json"])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == 1
        assert capsys.readouterr().out == COMPLETE_DISC_STDOUT

    def test_cauchy_near_unit_source(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "near.json").write_text(json.dumps(NEAR_UNIT_MODULE))
        monkeypatch.setattr(sys, "argv", ["qcat", "cauchy", "near.json"])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == 1
        assert capsys.readouterr().out == CAUCHY_NEAR_UNIT_STDOUT


FRONT_END_ARGV = [
    *([name, "--help"] for name in cli._COMMANDS),
    [],
    ["--help"],
    ["-h"],
    ["-h", "validate"],
    ["bogus"],
    ["--bogus"],
    ["validate"],  # a missing positional
    ["validate", "a.json", "b.json"],  # an extra argument
    ["compose", "a.json", "b.json"],  # a missing required option
    ["complete", "c.json", "--grid"],  # --grid with no value
    ["minkowski", "--n", "x", "--seed", "1", "-o", "o.json"],
    ["validate", "missing.json"],  # parsed, then a file error
    ["laws", "--quantale", "rbot"],
    ["counterexample-mixed"],
]


class TestParserFrontEnd:
    """``cli.run`` builds only the invoked subcommand's parser; what a
    user sees must be what the parser of every subcommand printed."""

    @staticmethod
    def _main(monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "argv", ["qcat", *argv])
        with pytest.raises(SystemExit) as exit_:
            main()
        out, err = capsys.readouterr()
        return exit_.value.code, out, err

    @pytest.mark.parametrize("columns", [None, "40"])
    @pytest.mark.parametrize("argv", FRONT_END_ARGV, ids=" ".join)
    def test_same_bytes_as_the_full_parser(self, argv, columns, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if columns is not None:  # argparse wraps its usage and help to COLUMNS
            monkeypatch.setenv("COLUMNS", columns)
        got = self._main(monkeypatch, capsys, argv)
        monkeypatch.setattr(cli, "run", oracles.cli_run)
        assert got == self._main(monkeypatch, capsys, argv)

    def _add_parser_calls(self, monkeypatch, argv) -> int:
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        run(argv)
        return len(calls)

    def test_a_known_command_builds_one_subparser(self, monkeypatch):
        assert self._add_parser_calls(monkeypatch, ["laws", "--quantale", "rbot"]) == 1

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]], ids=repr)
    def test_help_and_unknown_commands_build_them_all(self, monkeypatch, argv):
        assert self._add_parser_calls(monkeypatch, argv) == len(cli._COMMANDS)

    def test_build_parser_without_a_command_is_the_full_parser(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.build_parser().format_help() == oracles.build_parser().format_help()
        for name in cli._COMMANDS:
            assert cli.build_parser(name).format_usage() == oracles.build_parser().format_usage()
