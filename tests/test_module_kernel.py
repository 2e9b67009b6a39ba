"""The module calculus on exact codes: differentials of ``compose``,
``canonical_right_adjoint``, ``check_adjunction``, the one-module Cauchy
decision (``is_cauchy``, ``representing_objects``, ``cauchy_witness``,
``qcat cauchy``) and the default grid's closure against the scalar
versions they replaced, kept verbatim in ``tests/oracles.py``.

The corpus covers every plain base and two products, tolerances 0, 1e-9
and 1/2, values that push the exact codes past 2^52 onto Python ints in
object arrays (a denominator past 2^52, 2^1024, a 4000-digit integer,
and reciprocals of primes whose common scale alone passes it),
categories with 0 and 1 objects, arbitrary matrices that break the
module actions, and sources within the tolerance of the unit.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

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
    canonical_right_adjoint,
    cauchy_witness,
    check_adjunction,
    compose,
    default_module_grid,
    finite,
    is_cauchy,
    module_to_json,
    product,
    representing_objects,
    tuple_val,
    unit,
    unit_category,
)
from qcat import cli, maxplus, rbot
from qcat.cli import _dump, run
from qcat.modules import _cauchy_decision, _closure_values
from qcat.quantale import Kind, QuantaleDescriptor, Tag, qval_sort_key

import oracles
from randgen import random_category

LEAF_VALUES = {
    Kind.RBOT: (BOT, 0, Fraction(1, 2), 1, Fraction(10**9 + 1, 10**9), 2, 3, INF),
    Kind.LAWVERE: (0, Fraction(1, 2), 1, Fraction(10**9 + 1, 10**9), 2, INF),
    Kind.BOOL: (FALSE, TRUE),
}


def _primes(start: int, count: int) -> list[int]:
    found, p = [], start
    while len(found) < count:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            found.append(p)
        p += 1
    return found


# pools of values that push the codes past 2^52, onto Python ints: one
# value whose every common scale is too large, or (coprime) 1/p over 30
# primes of 17 bits, each small alone, whose common scale passes 2^52
# once a matrix holds a few of them
HUGE = {
    "plain": (),
    "2^-60": (Fraction(1, 2**60 + 1),),
    "2^1024": (Fraction(2**1024),),
    "4000-digit": (Fraction(10**3999 + 7),),
    "coprime": tuple(Fraction(1, p) for p in _primes(2**16, 30)),
}
BASES = {
    "rbot": RBOT,
    "lawvere": LAWVERE,
    "bool": BOOL,
    "bool,bool": product(BOOL, BOOL),
    "rbot,lawvere": product(RBOT, LAWVERE),
}
TOLERANCES = {"0": 0.0, "1e-9": 1e-9, "1/2": 0.5}
CASES = [
    (base, tol, huge)
    for base in BASES
    for tol in TOLERANCES
    for huge in HUGE
    if not (huge != "plain" and BASES[base].kind is Kind.BOOL)
    and not (huge != "plain" and base == "bool,bool")
]


def _base(name: str, tol: str) -> QuantaleDescriptor:
    return replace(BASES[name], tolerance=TOLERANCES[tol])


def _value(rng: random.Random, q: QuantaleDescriptor, huge: tuple[Fraction, ...]):
    if q.kind is Kind.PRODUCT:
        return tuple_val(_value(rng, f, huge) for f in q.factors)
    if huge and q.kind is not Kind.BOOL and rng.random() < 0.3:
        return finite(rng.choice(huge))
    v = rng.choice(LEAF_VALUES[q.kind])
    return finite(v) if isinstance(v, (int, Fraction)) else v


def _matrix(rng, q, rows, cols, huge):
    return tuple(tuple(_value(rng, q, huge) for _ in range(cols)) for _ in range(rows))


def _category(rng, q, n, huge):
    """A valid category half the time, an arbitrary matrix otherwise."""
    if rng.random() < 0.5:
        return random_category(rng, q, n)
    return VCategory(q, tuple(f"o{i}" for i in range(n)), _matrix(rng, q, n, n, huge))


def _column(rng, e: VCategory, huge):
    """A module column into E: a hom column, a join of two, or arbitrary
    values (which break the module actions)."""
    q, n = e.quantale, len(e)
    pick = rng.random()
    if n and pick < 0.5:
        zs = [rng.randrange(n) for _ in range(1 + (pick < 0.15))]
        return tuple((oracles.join(q, [e.hom[y][z] for z in zs]),) for y in range(n))
    return _matrix(rng, q, n, 1, huge)


def _module(rng, e: VCategory, huge) -> VModule:
    """A module out of I, mostly; else out of a point whose endohom is
    only within the tolerance of the unit, or out of two objects, which
    every Cauchy decision rejects."""
    q, pick = e.quantale, rng.random()
    if pick < 0.55:
        return VModule(unit_category(q), e, _column(rng, e, huge))
    if pick < 0.9:
        return VModule(VCategory(q, ("i",), ((_near_unit(q),),)), e, _column(rng, e, huge))
    pair = VCategory(q, ("i", "j"), ((unit(q), unit(q)), (unit(q), unit(q))))
    return VModule(pair, e, _matrix(rng, q, len(e), 2, huge))


def _near_unit(q):
    if q.kind is Kind.PRODUCT:
        return tuple_val(_near_unit(f) for f in q.factors)
    if q.kind is Kind.BOOL:
        return TRUE
    return finite(Fraction(q.tolerance))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _int_codes(arr) -> bool:
    """Every code of an object array is an int or a float pole, never a
    ``Fraction``."""
    return all(type(x) is int or x in (-math.inf, math.inf) for x in arr.flat)


def _exact(m: VModule) -> bool:
    """Every finite payload is a ``Fraction``, as the carrier demands."""

    def leaves(v):
        return [x for p in v.value for x in leaves(p)] if v.tag is Tag.TUPLE else [v]

    return all(
        isinstance(x.value, Fraction)
        for row in m.mat for v in row for x in leaves(v) if x.tag is Tag.FINITE
    )


@pytest.mark.parametrize("base,tol,huge", CASES)
def test_compose_adjoint_and_adjunction_match_the_scalar_loops(base, tol, huge):
    q, rng = _base(base, tol), random.Random(f"calculus/{base}/{tol}/{huge}")
    dtypes = set()
    for _ in range(12):
        rows, mid, cols = (rng.randint(0, 3) for _ in range(3))
        e, d, c = (_category(rng, q, k, HUGE[huge]) for k in (rows, mid, cols))
        m = VModule(d, e, _matrix(rng, q, rows, mid, HUGE[huge]))
        n = VModule(c, d, _matrix(rng, q, mid, cols, HUGE[huge]))
        codes, offsets, _ = maxplus.exact_codes(q, m._index, n._index)
        dtypes.add(offsets.dtype)
        assert offsets.dtype != object or all(map(_int_codes, codes + [offsets]))
        got = compose(m, n)
        assert got == oracles.compose(m, n) and _exact(got)
        adj = canonical_right_adjoint(m)
        assert adj == oracles.canonical_right_adjoint(m) and _exact(adj)
        assert check_adjunction(m, adj) == oracles.check_adjunction(m, adj)
        other = VModule(e, d, _matrix(rng, q, mid, rows, HUGE[huge]))
        assert check_adjunction(m, other) == oracles.check_adjunction(m, other)
    if huge == "coprime":  # both sides of 2^52 come up
        assert len(dtypes) == 2


@pytest.mark.parametrize("base,tol,huge", CASES)
def test_cauchy_decision_matches_the_scalar_check(base, tol, huge):
    q, rng = _base(base, tol), random.Random(f"cauchy/{base}/{tol}/{huge}")
    seen = set()
    for _ in range(25):
        e = _category(rng, q, rng.randint(0, 4), HUGE[huge])
        m = _module(rng, e, HUGE[huge])
        want = _outcome(oracles.is_cauchy, m)
        assert _outcome(is_cauchy, m) == want
        assert _outcome(representing_objects, m) == _outcome(oracles.representing_objects, m)
        if not isinstance(want, tuple):  # the one decision behind them and qcat cauchy
            witness = oracles._witness(m, oracles.canonical_right_adjoint(m))
            assert _cauchy_decision(m) == (want, oracles.representing_objects(m), witness)
        arbitrary = VModule(e, m.source, _matrix(rng, q, len(m.source), len(e), ()))
        for n in (oracles.canonical_right_adjoint(m), arbitrary):
            assert _outcome(cauchy_witness, m, n) == _outcome(oracles.cauchy_witness, m, n)
        seen.add(want)
    assert {True, False} <= seen


@pytest.mark.parametrize("base,tol,huge", [c for c in CASES if c[2] in ("plain", "4000-digit", "coprime")])
def test_cli_module_commands_match_the_scalar_versions(tmp_path, base, tol, huge):
    """``qcat compose``, ``adjoint`` and ``cauchy``: the same payload,
    stdout bytes, exit code and written file as the scalar versions."""
    q, rng = _base(base, tol), random.Random(f"cli/{base}/{tol}/{huge}")
    for k in range(4):
        e = _category(rng, q, rng.randint(0, 3), HUGE[huge])
        m = _module(rng, e, HUGE[huge])
        path = tmp_path / f"m{k}.json"
        path.write_text(_dump(module_to_json(m)))
        got, want = run(["cauchy", str(path)]), oracles.cli_run(["cauchy", str(path)])
        assert (got.exit_code, _dump(got.payload)) == (want.exit_code, _dump(want.payload))

        result = run(["adjoint", str(path)])
        adj = oracles.canonical_right_adjoint(m)
        report = oracles.check_adjunction(m, adj)
        status = cli.OK if report.ok else cli.VIOLATIONS
        payload = {"status": status, "right_adjoint": module_to_json(adj), "adjunction": report.to_json()}
        assert (result.exit_code, _dump(result.payload)) == (0 if report.ok else 1, _dump(payload))

        d = _category(rng, q, rng.randint(0, 3), HUGE[huge])
        n = VModule(d, m.source, _matrix(rng, q, len(m.source), len(d), HUGE[huge]))
        npath, out = tmp_path / f"n{k}.json", tmp_path / f"out{k}.json"
        npath.write_text(_dump(module_to_json(n)))
        result = run(["compose", str(path), str(npath), "-o", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == _dump(module_to_json(oracles.compose(m, n)))


NESTED = QuantaleDescriptor(Kind.PRODUCT, 0.0, (product(RBOT, BOOL), LAWVERE))


@pytest.mark.parametrize(
    "q", [RBOT, LAWVERE, BOOL, product(BOOL, BOOL), product(RBOT, LAWVERE), NESTED],
    ids=["rbot", "lawvere", "bool", "bool,bool", "rbot,lawvere", "[[rbot,bool],lawvere]"],
)
def test_grid_closure_matches_the_recursive_one(q):
    """The same grid, in the same order, and the same cap error as the
    closure that recursed over product factors.  That closure checked
    the cap only after a round that added values, so where it returns
    more than ``cap`` values the error is expected instead."""
    rng = random.Random(f"closure/{q}")
    for _ in range(20):
        values = {_value(rng, q, ()) for _ in range(rng.randint(1, 4))}
        for cap in (4, 16, 64):
            want = _outcome(oracles._closure_values, q, set(values), cap)
            if isinstance(want, set) and len(want) > cap:
                want = "error", f"default module grid exceeded {cap} values; pass an explicit grid"
            got = _outcome(_closure_values, q, set(values), cap)
            if isinstance(want, set):
                want = sorted(want, key=qval_sort_key)
                got = sorted(got, key=qval_sort_key)
            assert got == want


def test_default_grid_cap_holds_when_the_closure_adds_no_value():
    # homs |i - j| on 70 objects: 0..69, bot and inf are already closed
    # under the residual, 72 values
    n = 70
    hom = [[finite(abs(i - j)) for j in range(n)] for i in range(n)]
    c = VCategory(RBOT, tuple(f"o{i}" for i in range(n)), hom)
    with pytest.raises(ValueError, match="exceeded 64 values"):
        default_module_grid(c)
    assert len(default_module_grid(c, cap=72)) == 72
    with pytest.raises(ValueError, match="exceeded 71 values"):
        default_module_grid(c, cap=71)


def test_default_grid_of_a_nested_product():
    c = random_category(random.Random("nested"), NESTED, 3)
    values = {v for row in c.hom for v in row}
    want = tuple(sorted(oracles._closure_values(NESTED, values, 64), key=qval_sort_key))
    assert default_module_grid(c) == want


# (tolerance, the largest finite value, its neighbour) at each side of
# 2^52: a scaled code of 2^52 (L = 3) stays float64, 2^52 + 1 does not; an
# offset floor(t * L) of 2^52 (L = 2^53) stays float64, 2^52 + 1 (L = 2^53
# + 2) does not
BOUNDARY = {
    "code 2^52": (0.0, Fraction(2**52, 3), Fraction(1, 3), float),
    "code 2^52+1": (0.0, Fraction(2**52 + 1, 3), Fraction(1, 3), object),
    "offset 2^52": (0.5, Fraction(3, 2**53), Fraction(1, 2**53), float),
    "offset 2^52+1": (0.5, Fraction(3, 2**53 + 2), Fraction(1, 2**53 + 2), object),
}


@pytest.mark.parametrize("case", BOUNDARY)
def test_codes_at_the_2_52_boundary_match_the_scalar_loops(case):
    tol, big, small = BOUNDARY[case][:3]
    q = rbot(tol)
    hom = ((finite(0), finite(small), finite(big)),  # a valid chain a < b < c
           (BOT, finite(0), finite(big - small)),
           (BOT, BOT, finite(0)))
    e = VCategory(q, ("a", "b", "c"), hom)
    codes, offsets, _ = maxplus.exact_codes(q, e._index)
    assert offsets.dtype == BOUNDARY[case][3] and codes[0].dtype == offsets.dtype
    assert offsets.dtype == float or _int_codes(codes[0]) and _int_codes(offsets)
    m = VModule(e, e, hom)
    assert compose(m, m) == oracles.compose(m, m)
    assert canonical_right_adjoint(m) == oracles.canonical_right_adjoint(m)
    for column in ([(hom[y][z],) for y in range(3)] for z in range(3)):
        for col in (column, [(finite(small),), (finite(big),), (BOT,)]):
            m = VModule(unit_category(q), e, col)
            assert _cauchy_decision(m) == (
                oracles.is_cauchy(m), oracles.representing_objects(m),
                oracles._witness(m, oracles.canonical_right_adjoint(m)))
            n = oracles.canonical_right_adjoint(m)
            assert _outcome(cauchy_witness, m, n) == _outcome(oracles.cauchy_witness, m, n)
