"""Equality and hashing of categories and modules on the index, against
the tuple comparison of ``oracles.category_eq`` / ``oracles.module_eq``.

Every pair drawn from a pool of producers (separate parses, equal values
written differently, reordered and duplicated values, from-dag int32
positions, transposed views, sprinkles, product values, 0 objects) must
compare as the tuples compare, and equal objects must hash alike.
"""

import copy
import json
import random

import numpy as np
import pytest

from qcat import (
    BOT,
    RBOT,
    CausalDag,
    VCategory,
    VModule,
    causal_space_from_dag,
    category_from_json,
    category_to_json,
    compose,
    finite,
    identity_module,
    minkowski_sample,
    module_from_json,
    module_to_json,
    opposite,
    parse_quantale_name,
    representable,
    unit_category,
)
from qcat import maxplus

import oracles
from randgen import random_category, random_rbot_category

CHAIN = {"quantale": "rbot", "objects": ["a", "b", "c"],
         "hom": [["0", "1/2", "1"], ["bot", "0", "1/2"], ["bot", "bot", "0"]]}


def parsed(data: dict, **changes) -> VCategory:
    """A fresh parse of ``data`` with the given fields replaced."""
    return category_from_json(json.loads(json.dumps({**data, **changes})))


def with_entry(data: dict, i: int, j: int, text: str) -> dict:
    hom = [list(row) for row in data["hom"]]
    hom[i][j] = text
    return {**data, "hom": hom}


def reindexed(c: VCategory, rng: random.Random) -> VCategory:
    """``c`` with its distinct values shuffled, each replaced by an equal
    copy, one of them listed twice, and the positions remapped: the same
    matrix, indexed differently."""
    values, positions = c._index
    order = list(range(len(values)))
    rng.shuffle(order)
    new = [copy.copy(values[k]) for k in order]
    where = np.empty(len(values), np.intp)
    where[order] = np.arange(len(values))
    pos = where[positions]
    if len(values) and pos.size:
        new.append(copy.copy(values[order[0]]))  # a twin, used at one entry
        i, j = map(int, np.argwhere(pos == 0)[0])
        pos[i, j] = len(new) - 1
    return VCategory(c.quantale, c.objects, None, (new, pos))


def round_trip(c: VCategory) -> VCategory:
    return category_from_json(json.loads(json.dumps(category_to_json(c))))


def category_pool() -> dict[str, VCategory]:
    rng = random.Random(7)
    dag = CausalDag(("x", "y", "z", "w"), (("x", "y"), ("y", "z"), ("x", "w")))
    other_dag = CausalDag(("x", "y", "z", "w"), (("x", "y"), ("y", "z"), ("z", "w")))
    sprinkle, _ = minkowski_sample(12, 3)
    product = {"quantale": ["rbot", "lawvere"], "objects": ["p", "q"],
               "hom": [["(0,0)", "(1/2,1)"], ["(bot,inf)", "(0,0)"]]}
    causal = causal_space_from_dag(dag)
    pool = {
        "chain": parsed(CHAIN),
        "chain again": parsed(CHAIN),
        "chain 2/4": parsed(with_entry(CHAIN, 0, 1, "2/4")),
        "chain 3/6 both": parsed(with_entry(with_entry(CHAIN, 0, 1, "3/6"), 1, 2, "3/6")),
        "chain reindexed": reindexed(parsed(CHAIN), rng),
        "chain one entry": parsed(with_entry(CHAIN, 0, 2, "3/2")),
        "chain bot entry": parsed(with_entry(CHAIN, 2, 0, "inf")),
        "chain relabelled": parsed(CHAIN, objects=["a", "b", "d"]),
        "chain tolerant": parsed(CHAIN, tolerance=1e-9),
        "chain lawvere": parsed(CHAIN, quantale="lawvere",
                                hom=[["0", "1/2", "1"], ["inf", "0", "1/2"], ["inf", "inf", "0"]]),
        "chain opposite": opposite(parsed(CHAIN)),
        "chain opposite rows": VCategory(RBOT, ("a", "b", "c"), tuple(zip(*parsed(CHAIN).hom))),
        "chain opposite twice": opposite(opposite(parsed(CHAIN))),
        "empty": VCategory(RBOT, (), ()),
        "empty parsed": parsed({"quantale": "rbot", "objects": [], "hom": []}),
        "empty lawvere": parsed({"quantale": "lawvere", "objects": [], "hom": []}),
        "unit": unit_category(RBOT),
        "unit rows": VCategory(RBOT, ("*",), ((finite(0),),)),
        "unit bot": VCategory(RBOT, ("*",), ((BOT,),)),
        "dag": causal,
        "dag parsed": round_trip(causal),
        "dag reindexed": reindexed(causal, rng),
        "dag other": causal_space_from_dag(other_dag),
        "dag opposite": opposite(causal),
        "dag opposite parsed": round_trip(opposite(causal)),
        "sprinkle": sprinkle,
        "sprinkle parsed": round_trip(sprinkle),
        "sprinkle reindexed": reindexed(sprinkle, rng),
        "sprinkle other": minkowski_sample(12, 4)[0],
        "product": parsed(product),
        "product 2/4": parsed(with_entry(product, 0, 1, "(2/4,1)")),
        "product reindexed": reindexed(parsed(product), rng),
        "product other": parsed(with_entry(product, 0, 1, "(1/2,2)")),
    }
    for q in ("bool,bool", "rbot,lawvere"):
        c = random_category(rng, parse_quantale_name(q), 4)
        pool[f"random {q}"] = c
        pool[f"random {q} reindexed"] = reindexed(c, rng)
    return pool


POOL = category_pool()

EQUAL = [
    ("chain", "chain again"), ("chain", "chain 2/4"), ("chain", "chain 3/6 both"),
    ("chain", "chain reindexed"), ("chain opposite", "chain opposite rows"),
    ("chain", "chain opposite twice"), ("empty", "empty parsed"), ("unit", "unit rows"),
    ("dag", "dag parsed"), ("dag", "dag reindexed"), ("dag opposite", "dag opposite parsed"),
    ("sprinkle", "sprinkle parsed"), ("sprinkle", "sprinkle reindexed"),
    ("product", "product 2/4"), ("product", "product reindexed"),
    ("random bool,bool", "random bool,bool reindexed"),
    ("random rbot,lawvere", "random rbot,lawvere reindexed"),
]


@pytest.mark.parametrize("a", POOL)
def test_category_equality_matches_tuples(a):
    x = POOL[a]
    for b, y in POOL.items():
        assert (x == y) is oracles.category_eq(x, y), b
        assert (x != y) is not oracles.category_eq(x, y), b
        if x == y:
            assert hash(x) == hash(y), b


@pytest.mark.parametrize("a, b", EQUAL)
def test_equal_pairs_are_equal(a, b):
    # the pool holds pairs that are equal, so the differential above
    # cannot pass by calling everything unequal
    assert POOL[a] == POOL[b] and POOL[b] == POOL[a]
    assert oracles.category_hash(POOL[a]) == oracles.category_hash(POOL[b])


def test_int32_positions_and_views_are_in_the_pool():
    assert POOL["dag"]._index[1].dtype == np.int32
    assert POOL["dag opposite"]._index[1].base is not None
    assert POOL["chain opposite"]._index[1].base is not None


@pytest.mark.parametrize("seed", range(40))
def test_random_categories_against_tuples(seed):
    rng = random.Random(seed)
    c = random_rbot_category(rng, 6)
    same = reindexed(c, rng)
    assert c == same and hash(c) == hash(same) and oracles.category_eq(c, same)
    if len(c):
        rows = [list(row) for row in c.hom]
        i, j = rng.randrange(len(c)), rng.randrange(len(c))
        rows[i][j] = rng.choice([BOT, finite(0), finite(7), rows[i][j]])
        other = VCategory(c.quantale, c.objects, rows)
        assert (c == other) is oracles.category_eq(c, other)
        assert (other == same) is oracles.category_eq(other, same)


def test_other_types_are_not_equal():
    c = POOL["chain"]
    assert c != "chain" and c != None  # noqa: E711
    assert c.__eq__(c.hom) is NotImplemented
    assert oracles.category_eq(c, c.hom) is NotImplemented


def module_pool() -> dict[str, VModule]:
    chain = parsed(CHAIN)
    m = {"source": "I", "target": CHAIN, "mat": [["1"], ["1/2"], ["0"]]}
    two = {"source": CHAIN, "target": CHAIN, "mat": CHAIN["hom"]}

    def mod(data: dict) -> VModule:
        return module_from_json(json.loads(json.dumps(data)))

    ident = identity_module(chain)
    return {
        "column": mod(m),
        "column again": mod(m),
        "column 2/4": mod({**m, "mat": [["1"], ["2/4"], ["0"]]}),
        "column target 2/4": mod({**m, "target": with_entry(CHAIN, 0, 1, "2/4")}),
        "column other": mod({**m, "mat": [["1"], ["1"], ["0"]]}),
        "column other target": mod({**m, "target": with_entry(CHAIN, 0, 2, "3/2")}),
        "representable c": representable(chain, "c"),
        "identity": ident,
        "identity parsed": mod(two),
        "identity composed": compose(ident, ident),
        "identity written": mod(module_to_json(ident)),
        "identity other source": mod({**two, "source": with_entry(CHAIN, 0, 1, "1")}),
        "empty": VModule(VCategory(RBOT, (), ()), chain, ((), (), ())),
        "empty parsed": mod({"source": {"quantale": "rbot", "objects": [], "hom": []},
                             "target": CHAIN, "mat": [[], [], []]}),
    }


MODULES = module_pool()


@pytest.mark.parametrize("a", MODULES)
def test_module_equality_matches_tuples(a):
    x = MODULES[a]
    for b, y in MODULES.items():
        assert (x == y) is oracles.module_eq(x, y), b
        if x == y:
            assert hash(x) == hash(y), b


@pytest.mark.parametrize("a, b", [
    ("column", "column again"), ("column", "column 2/4"), ("column", "column target 2/4"),
    ("column", "representable c"), ("identity", "identity parsed"),
    ("identity", "identity composed"), ("identity", "identity written"), ("empty", "empty parsed"),
])
def test_equal_module_pairs_are_equal(a, b):
    assert MODULES[a] == MODULES[b]


def test_same_on_shapes():
    v = [finite(0)]
    assert not maxplus.same((v, np.zeros((2, 3), np.intp)), (v, np.zeros((3, 2), np.intp)))
    assert maxplus.same(([], np.zeros((0, 0), np.intp)), ([], np.zeros((0, 0), np.int32)))
    assert maxplus.same(([], np.zeros((2, 0), np.intp)), ([], np.zeros((2, 0), np.intp)))
    assert not maxplus.same(([], np.zeros((2, 0), np.intp)), ([], np.zeros((0, 2), np.intp)))


def test_compose_accepts_equal_middles_parsed_apart():
    # the middle category written with 1/2 in one file and 2/4 in the
    # other is the same category; a changed hom is not
    m = module_from_json({"source": CHAIN, "target": CHAIN, "mat": CHAIN["hom"]})
    half = with_entry(CHAIN, 0, 1, "2/4")
    n = module_from_json({"source": CHAIN, "target": half, "mat": half["hom"]})
    assert compose(m, n) == m
    bad = with_entry(CHAIN, 0, 1, "1/3")
    with pytest.raises(ValueError, match="not composable"):
        compose(m, module_from_json({"source": CHAIN, "target": bad, "mat": bad["hom"]}))
