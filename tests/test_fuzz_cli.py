"""Mutation fuzz of the command line: no input file ends in a traceback.

Valid category, module, collage and DAG files are mutated (a node
replaced by a value of another kind or an out-of-range one, a key or
list element deleted or duplicated, the text cut short) and handed to
every subcommand that reads that kind of file.  Each run must exit 0, 1
or 2 with a payload that ``qcat`` can print as UTF-8.
"""

import copy
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qcat import (
    BOOL,
    BOT,
    FALSE,
    LAWVERE,
    TRUE,
    VCategory,
    category_to_json,
    collage,
    collage_to_json,
    finite,
    identity_module,
    module_to_json,
    product,
    rbot,
    representable,
    tuple_val,
)
from qcat.cli import _dump, run

CHAIN = VCategory(
    rbot(),
    ("a", "b", "c"),
    (
        (finite(0), finite(1), finite(2)),
        (BOT, finite(0), finite(1)),
        (BOT, BOT, finite(0)),
    ),
)
METRIC = VCategory(LAWVERE, ("x", "y"), ((finite(0), finite(1)), (finite(1), finite(0))))
PAIR = VCategory(
    product(rbot(), BOOL),
    ("p", "q"),
    (
        (tuple_val((finite(0), TRUE)), tuple_val((finite(1), FALSE))),
        (tuple_val((BOT, TRUE)), tuple_val((finite(0), TRUE))),
    ),
)
CATEGORIES = [category_to_json(c) for c in (CHAIN, METRIC, PAIR)]
MODULES = [
    module_to_json(m)
    for m in (representable(CHAIN, "b"), identity_module(METRIC), representable(PAIR, "q"))
]
COLLAGES = [collage_to_json(collage(identity_module(c))) for c in (CHAIN, PAIR)]
DAGS = [{"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["a", "d"]]}]

# values that fit some carrier, and values of every other kind
PLAUSIBLE = ["0", "1", "2", "5/2", "bot", "inf", "true", "false", "(0,true)", "(1,false)", "(bot,true)"]
JUNK = [
    "1/3", "1e400", "1e10000000", "0e99999", "(1,)", "-1", "x", "", "I", "left", "right",
    "rbot", "lawvere", "bool", "\ud800", 1, 1.5, -1, 0, True, None, 10**30, float("nan"),
    float("inf"), [], {}, [[]], ["rbot", "bool"], [["0"]], {"quantale": "rbot"},
]


def mutate(rng, node, depth=0):
    """One mutation somewhere under ``node``: the node itself replaced,
    or a child deleted, duplicated or mutated in turn."""
    if not isinstance(node, (dict, list)) or not node or rng.random() < 0.1 * min(depth, 3):
        return rng.choice(PLAUSIBLE if rng.random() < 0.5 else JUNK)
    key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
    op = rng.randrange(8)
    if op == 0:
        del node[key]
    elif op == 1 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = mutate(rng, node[key], depth + 1)
    return node


def mutated_files(docs):
    return st.integers(0, 2**32 - 1).map(lambda n: _mutated_file(random.Random(n), docs))


def _mutated_file(rng, docs) -> str:
    doc = copy.deepcopy(rng.choice(docs))
    for _ in range(rng.randint(1, 2)):
        doc = mutate(rng, doc)
    text = json.dumps(doc)
    if rng.random() < 0.1:
        text = text[: rng.randrange(len(text) + 1)]
    return text


def dag_text(doc) -> str:
    """The edge-list form of a DAG document, as far as it has one."""
    edges = doc.get("edges") if isinstance(doc, dict) else None
    if not isinstance(edges, list):
        return json.dumps(doc)
    return "".join(" ".join(map(str, e)) + "\n" if isinstance(e, list) else f"{e}\n" for e in edges)


def run_all(text: str, commands) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        out = str(Path(tmp) / "out")
        for command in commands:
            argv = [a.format(f=str(path), out=out) for a in command]
            result = run(argv)
            assert result.exit_code in (0, 1, 2), (argv, result)
            _dump(result.payload).encode("utf-8")


FUZZ = settings(max_examples=150, deadline=None)


@seed(20261018)
@FUZZ
@given(mutated_files(CATEGORIES))
def test_mutated_category_files(text):
    run_all(
        text,
        (["validate", "{f}"], ["complete", "{f}"], ["underlying", "{f}", "--dot", "{out}"]),
    )


@seed(20261018)
@FUZZ
@given(mutated_files(MODULES))
def test_mutated_module_files(text):
    run_all(
        text,
        (
            ["cauchy", "{f}"],
            ["adjoint", "{f}"],
            ["compose", "{f}", "{f}", "-o", "{out}"],
            ["collage", "{f}", "-o", "{out}"],
        ),
    )


@seed(20261018)
@FUZZ
@given(mutated_files(COLLAGES))
def test_mutated_collage_files(text):
    run_all(text, (["restrict", "{f}", "-o", "{out}"], ["validate", "{f}"]))


@seed(20261018)
@FUZZ
@given(mutated_files(DAGS), st.booleans())
def test_mutated_dag_files(text, as_edge_list):
    if as_edge_list:
        try:
            text = dag_text(json.loads(text))
        except ValueError:
            pass
    run_all(text, (["from-dag", "{f}", "-o", "{out}"],))
