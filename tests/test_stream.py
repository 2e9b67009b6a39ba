"""The streamed writer against the writer it replaced.

The CLI writes each hom matrix and module ``mat`` from its index, one
chunk per row (``cli._Rows``, rendered by ``cli._encode``), and streams
the chunks into a temp file that is renamed over the target.  Payload
rows of strings, such as the edges of ``qcat underlying`` gathered from
``_underlying_pairs``'s object array of labels, are joined at C level
one row at a time, and ``preorder_dot`` takes the same rows.  Every
byte is compared here with verbatim copies of the old code in
``oracles`` (``dump``, ``_encode``, ``format_rows``,
``sorted_underlying``, ``preorder_dot``), on labels that need escaping,
int32 positions, transposed views, empty and one-object categories,
modules over I and product values.  Golden tests pin streamed files and
stdout, and the failure tests break a write midway.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qcat import (
    BOT,
    FALSE,
    INF,
    RBOT,
    TRUE,
    VCategory,
    adjoin_point,
    category_from_json,
    category_to_json,
    causal_space_from_dag,
    collage,
    collage_from_json,
    collage_to_json,
    compose,
    corepresentable,
    dag_from_json,
    finite,
    identity_module,
    minkowski_sample,
    module_from_json,
    module_to_json,
    opposite,
    parse_quantale_name,
    preorder_dot,
    representable,
    restrict,
    underlying_preorder,
    unit_category,
)
from qcat import cli
from qcat.category import _underlying_pairs
from qcat.quantale import tuple_val

import oracles
import randgen

CHAIN = VCategory(RBOT, ("a", "b"), ((finite(0), finite(3)), (BOT, finite(0))))
LABELS = ['q"', "b\\", "\x00", "é\u2028", "∞ 😀", "\n", "plain"]
LABELS_DAG = {
    "vertices": ['q"', "b\\", "é\u2028", "\x00"],
    "edges": [['q"', "b\\"], ["b\\", "\x00"], ['q"', "é\u2028"]],
}


def relabel(c: VCategory, labels) -> VCategory:
    return VCategory(c.quantale, tuple(labels), None, c._index)


def categories() -> list[tuple[str, VCategory]]:
    rng = random.Random(20261019)
    dag = causal_space_from_dag(dag_from_json(LABELS_DAG))
    cases = [
        ("empty", VCategory(RBOT, (), ())),
        ("unit", unit_category(RBOT, "\x00")),
        ("unit-product", unit_category(parse_quantale_name("bool,bool"), '"')),
        ("chain", relabel(CHAIN, LABELS[:2])),
        ("from-dag", dag),
        ("from-dag-opposite", opposite(dag)),
        ("sprinkle", minkowski_sample(9, 4)[0]),
    ]
    for name in ("rbot", "lawvere", "bool", "bool,bool", "rbot,bool"):
        q = parse_quantale_name(name)
        for n in (1, 4, 7):
            c = relabel(randgen.random_category(rng, q, n), LABELS[:n])
            cases += [(f"{name}-{n}", c), (f"{name}-{n}-opposite", opposite(c))]
    return cases


CATEGORIES = categories()
IDS = [name for name, _ in CATEGORIES]


def test_the_cases_cover_int32_and_transposed_positions():
    positions = {name: c._index[1] for name, c in CATEGORIES}
    assert positions["from-dag"].dtype == np.int32
    assert positions["from-dag-opposite"].dtype == np.int32
    assert not positions["from-dag-opposite"].flags.c_contiguous
    assert not positions["rbot-4-opposite"].flags.c_contiguous
    assert positions["rbot-4"].dtype == np.intp


@pytest.mark.parametrize("name, c", CATEGORIES, ids=IDS)
def test_category_matches_the_old_writer(name, c):
    assert category_to_json(c)["hom"] == oracles.format_rows(c._index)
    for nl in ("\n", "\n  ", "\n      "):
        got = "".join(cli._encode(cli._Rows(c._index), nl))
        assert got == oracles._encode(oracles.format_rows(c._index), nl)
    assert cli._dump(category_to_json(c, _rows=cli._Rows)) == oracles.dump(category_to_json(c))


@pytest.mark.parametrize("name, c", CATEGORIES, ids=IDS)
def test_underlying_matches_the_old_writer(name, c):
    edges = oracles.sorted_underlying(c)
    i, j, labels = _underlying_pairs(c)
    rows = [[labels[a], labels[b]] for a, b in zip(i.tolist(), j.tolist())]
    assert rows == list(map(list, edges))
    assert underlying_preorder(c) == frozenset(edges)
    dot = preorder_dot(c.objects, rows)
    assert dot == oracles.preorder_dot(c.objects, edges) == oracles.preorder_dot_oracle(c.objects, edges)
    payload = {"status": "ok", "edges": rows}
    assert cli._dump(payload) == oracles.dump(payload)


def modules():
    rng = random.Random(7)
    rep = representable(relabel(CHAIN, LABELS[:2]), "b\\")
    cases = [("representable", rep), ("corepresentable", corepresentable(CHAIN, "b"))]
    cases += [("identity-" + name, identity_module(c)) for name, c in CATEGORIES[:6]]
    cases += [(f"random-{i}", randgen.random_rbot_module(rng)) for i in range(6)]
    return cases


MODULES = modules()


@pytest.mark.parametrize("name, m", MODULES, ids=[name for name, _ in MODULES])
def test_module_and_collage_match_the_old_writer(name, m):
    assert cli._dump(module_to_json(m, _rows=cli._Rows)) == oracles.dump(module_to_json(m))
    col = collage(m)
    assert cli._dump(collage_to_json(col, _rows=cli._Rows)) == oracles.dump(collage_to_json(col))


VALUES = [BOT, INF, finite(0), finite(Fraction(1, 3)), finite(2**60 + 1), tuple_val((TRUE, FALSE)),
          tuple_val((finite(Fraction(5, 2)), BOT))]


@st.composite
def indexes(draw):
    values = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=5))
    shape = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    entries = draw(st.lists(st.integers(0, len(values) - 1), min_size=shape[0] * shape[1],
                            max_size=shape[0] * shape[1]))
    positions = np.array(entries, draw(st.sampled_from([np.intp, np.int32]))).reshape(shape)
    return values, positions.T if draw(st.booleans()) else positions


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(indexes(), st.sampled_from(["\n", "\n    "]))
def test_rows_match_the_old_writer(index, nl):
    assert "".join(cli._encode(cli._Rows(index), nl)) == oracles._encode(oracles.format_rows(index), nl)


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LABELS), max_size=5),
       st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)), max_size=12),
       st.sampled_from([list, frozenset, tuple]))
def test_dot_matches_the_old_writer(objects, edges, kind):
    # unsorted, repeated and self edges, and labels that are not objects
    assert preorder_dot(objects, kind(edges)) == oracles.preorder_dot(objects, kind(edges))


def test_every_written_file_matches_the_old_writer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rep, corep = representable(CHAIN, "b"), corepresentable(CHAIN, "b")
    Path("rep.json").write_text(oracles.dump(module_to_json(rep)), encoding="utf-8")
    Path("corep.json").write_text(oracles.dump(module_to_json(corep)), encoding="utf-8")
    Path("dag.json").write_text(json.dumps(LABELS_DAG), encoding="utf-8")
    m, n = (module_from_json(json.loads(Path(p).read_text())) for p in ("rep.json", "corep.json"))
    label = 'p "\\'
    written = [
        (["from-dag", "dag.json", "-o", "a.json"],
         category_to_json(causal_space_from_dag(dag_from_json(LABELS_DAG)))),
        (["minkowski", "--n", "12", "--seed", "5", "-o", "b.json"],
         category_to_json(minkowski_sample(12, 5)[0])),
        (["compose", "rep.json", "corep.json", "-o", "c.json"], module_to_json(compose(m, n))),
        (["collage", "rep.json", "-o", "d.json"], collage_to_json(collage(m))),
        (["restrict", "d.json", "-o", "e.json"], None),
        (["adjoin", "rep.json", "corep.json", "--label", label, "-o", "f.json"],
         category_to_json(adjoin_point(m, n, label=label))),
    ]
    for argv, data in written:
        result = cli.run(argv)
        assert result.exit_code == 0, argv
        if data is None:  # restrict reads the collage written just before
            data = module_to_json(restrict(collage_from_json(json.loads(Path("d.json").read_text()))))
            assert result.payload["module"] == data
        assert Path(argv[-1]).read_text(encoding="utf-8") == oracles.dump(data), argv
        assert cli._dump(result.payload) == oracles.dump(result.payload), argv


def test_ingest_sized_underlying_matches_the_old_writer(tmp_path):
    rng = random.Random(3)
    n = 120
    edges = [[f"v{i}", f"v{rng.randrange(i + 1, n + 1)}"] for i in range(n)]
    (tmp_path / "dag.json").write_text(json.dumps(
        {"vertices": [f"v{i}" for i in range(n + 1)], "edges": edges}))
    out, dot = tmp_path / "dag.out.json", tmp_path / "dag.dot"
    assert cli.run(["from-dag", str(tmp_path / "dag.json"), "-o", str(out)]).exit_code == 0
    result = cli.run(["underlying", str(out), "--dot", str(dot)])
    cat = category_from_file(out)
    edges = oracles.sorted_underlying(cat)
    assert cli._dump(result.payload) == oracles.dump({"dot": str(dot), "edges": list(map(list, edges)),
                                                      "status": "ok"})
    assert dot.read_text(encoding="utf-8") == oracles.preorder_dot(cat.objects, edges)


def category_from_file(path: Path) -> VCategory:
    return category_from_json(json.loads(path.read_text(encoding="utf-8")))


# Streamed writes, pinned byte for byte: restrict's payload embeds the
# module it writes, and from-dag's labels need escaping.
RESTRICT_JSON = """\
{
  "mat": [
    [
      "3"
    ],
    [
      "0"
    ]
  ],
  "source": "I",
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

RESTRICT_STDOUT = (
    '{\n  "module": '
    + RESTRICT_JSON.rstrip("\n").replace("\n", "\n  ")
    + ',\n  "output": "mod.json",\n  "status": "ok"\n}\n'
)

LABELS_OBJECTS = '[\n    "q\\"",\n    "b\\\\",\n    "é\u2028",\n    "\\u0000"\n  ]'

LABELS_DAG_JSON = """\
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
      "bot"
    ],
    [
      "bot",
      "bot",
      "bot",
      "0"
    ]
  ],
  "objects": %s,
  "quantale": "rbot",
  "tolerance": 0.0
}
""" % LABELS_OBJECTS

LABELS_DAG_STDOUT = """\
{
  "objects": %s,
  "output": "labels.json",
  "status": "ok"
}
""" % LABELS_OBJECTS


def _main(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["qcat", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    out, err = capsys.readouterr()
    return exit_.value.code, out, err


class TestStreamedGoldenBytes:
    def test_restrict_to_file_and_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("rep.json").write_text(cli._dump(module_to_json(representable(CHAIN, "b"))))
        assert cli.run(["collage", "rep.json", "-o", "col.json"]).exit_code == 0
        assert _main(monkeypatch, capsys, ["restrict", "col.json", "-o", "mod.json"]) == (
            0, RESTRICT_STDOUT, "")
        assert Path("mod.json").read_text(encoding="utf-8") == RESTRICT_JSON

    def test_from_dag_labels_to_file_and_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("dag.json").write_text(json.dumps(LABELS_DAG))
        assert _main(monkeypatch, capsys, ["from-dag", "dag.json", "-o", "labels.json"]) == (
            0, LABELS_DAG_STDOUT, "")
        assert Path("labels.json").read_text(encoding="utf-8") == LABELS_DAG_JSON


def _chain_file(tmp_path: Path, n: int) -> Path:
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(n - 1)))
    return path


class TestWriteFailsMidway:
    """A write that fails after its first chunk is an input error (exit
    2, no traceback) that leaves the target as it was and no temp file."""

    def _check(self, tmp_path, monkeypatch, capsys, fragment):
        src = _chain_file(tmp_path, 40)
        out = tmp_path / "out.json"
        out.write_text("previous\n")
        code, stdout, err = _main(monkeypatch, capsys, ["from-dag", str(src), "-o", str(out)])
        assert code == 2
        assert json.loads(stdout)["error"] == f"{out}: {fragment}"
        assert err == f"error: {out}: {fragment}\n"
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.txt", "out.json"]

    def test_oserror_from_the_temp_file(self, tmp_path, monkeypatch, capsys):
        written = []

        class Full:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def writelines(self, chunks):
                for chunk in chunks:
                    if written:
                        raise OSError(28, "No space left on device")
                    self.f.write(chunk)
                    written.append(chunk)

        monkeypatch.setattr(cli, "open", lambda *a, **k: Full(open(*a, **k)), raising=False)
        self._check(tmp_path, monkeypatch, capsys, "[Errno 28] No space left on device")
        assert written == ['{\n  "hom": ']

    def test_the_chunks_raise(self, tmp_path, monkeypatch, capsys):
        matrix, rows = cli._matrix, []

        def first_row_only(index, nl):
            chunks = matrix(index, nl)
            rows.append(next(chunks))
            raise ValueError("the second row cannot be written")

        monkeypatch.setattr(cli, "_matrix", first_row_only)
        src = _chain_file(tmp_path, 40)
        out = tmp_path / "out.json"
        out.write_text("previous\n")
        code, stdout, err = _main(monkeypatch, capsys, ["from-dag", str(src), "-o", str(out)])
        assert (code, err) == (2, "error: the second row cannot be written\n")
        assert json.loads(stdout)["error"] == "the second row cannot be written"
        assert rows[0].startswith('[\n    [\n      "0",\n      "1",')
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.txt", "out.json"]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
    def test_file_size_limit(self, tmp_path):
        import resource

        def limit():  # in the child: writes past 4 KiB fail with EFBIG
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

        src = _chain_file(tmp_path, 60)
        out = tmp_path / "out.json"
        out.write_text("previous\n")
        src_dir = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", "from qcat.cli import main; main()",
             "from-dag", "chain.txt", "-o", "out.json"],
            cwd=tmp_path, env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out.json: [Errno 27]")
        assert "Traceback" not in proc.stderr
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.txt", "out.json"]


def test_write_gets_rows_not_the_document(tmp_path, monkeypatch):
    n = 200
    src = _chain_file(tmp_path, n)
    write, calls = cli._write, []

    def spy(path, text):
        sizes = []

        def measured():
            for chunk in text:
                sizes.append(len(chunk))
                yield chunk

        tracemalloc.start()
        try:
            write(path, measured())
            calls.append((text, sizes, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write", spy)
    out = tmp_path / "out.json"
    assert cli.run(["from-dag", str(src), "-o", str(out)]).exit_code == 0
    ((text, sizes, peak),) = calls
    assert iter(text) is text  # an iterator, not the document
    document = out.read_text(encoding="utf-8")
    longest_row = max(len(oracles._encode(r, "\n    ")) for r in category_to_json(
        category_from_file(out))["hom"])
    assert max(sizes) <= longest_row + len(",\n    ")
    assert len(sizes) > n
    assert sum(sizes) == len(document)
    assert peak < len(document) // 10  # the chunks are written as they come
