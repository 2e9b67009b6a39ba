"""The scalar operations against their per-kind reference in oracles.py.

Every base is one row of the max-plus leaf table in qcat.quantale; the
reference keeps the earlier per-kind branches.  Each operation must give
the same value, or raise the same exception type with the same message,
on every base, nested products, tolerances 0, 1e-9 and 0.5, values
beyond float's range and below its smallest subnormal, and values
outside the carrier, wrong-shape tuples included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from qcat.quantale import (
    BOOL,
    BOT,
    FALSE,
    INF,
    LAWVERE,
    RBOT,
    TRUE,
    Kind,
    QuantaleDescriptor,
    bottom,
    carrier_check,
    eq,
    finite,
    join,
    leq,
    meet,
    product,
    residual,
    tensor,
    top,
    tuple_val,
    unit,
)

TOLERANCES = (0.0, 1e-9, 0.5)
HUGE = finite(2**1030)
TINY = finite(Fraction(1, 2**1080))
FINITES = (
    finite(0), finite(1), finite(Fraction(5, 2)), finite(7), finite(Fraction(1, 3)),
    finite(Fraction(1e-9)), finite(Fraction(1, 2)), finite(Fraction(3, 2)), HUGE, TINY,
)
LEAF_VALUES = (BOT, INF, TRUE, FALSE) + FINITES


def outcome(fn, *args):
    """The result, or the type and message of what was raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # every error must match, whatever its type
        return (type(exc), str(exc))


def same(new, old, *args):
    got, want = outcome(new, *args), outcome(old, *args)
    assert got == want, (args, got, want)
    if got[0] == "value":
        assert type(got[1]) is type(want[1])


descriptors = st.recursive(
    st.builds(QuantaleDescriptor, st.sampled_from((Kind.RBOT, Kind.LAWVERE, Kind.BOOL)),
              st.sampled_from(TOLERANCES)),
    lambda inner: st.builds(  # a product's tolerance is at least its factors'
        lambda fs, t: product(*fs, tolerance=max([t] + [f.tolerance for f in fs])),
        st.lists(inner, min_size=1, max_size=3),
        st.sampled_from(TOLERANCES),
    ),
    max_leaves=5,
)

finites = st.one_of(
    st.sampled_from(FINITES),
    st.fractions(min_value=0, max_value=10, max_denominator=12).map(finite),
)

# any value at all: a leaf of any base or a tuple of any shape
any_values = st.recursive(
    st.one_of(st.sampled_from(LEAF_VALUES), finites),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(tuple_val),
    max_leaves=6,
)


def carrier_values(q: QuantaleDescriptor):
    if q.kind is Kind.PRODUCT:
        return st.tuples(*(carrier_values(f) for f in q.factors)).map(tuple_val)
    if q.kind is Kind.BOOL:
        return st.sampled_from((FALSE, TRUE))
    poles = (BOT, INF) if q.kind is Kind.RBOT else (INF,)
    return st.one_of(st.sampled_from(poles), finites)


def values(q: QuantaleDescriptor):
    """Mostly members of the carrier, sometimes anything."""
    member = carrier_values(q)
    return st.one_of(member, member, member, any_values)


@st.composite
def operands(draw, arity):
    q = draw(descriptors)
    return (q, *(draw(values(q)) for _ in range(arity)))


@st.composite
def families(draw):
    q = draw(descriptors)
    return q, draw(st.lists(values(q), max_size=4))


BINARY = [
    (leq, oracles.leq),
    (eq, oracles.eq),
    (tensor, oracles.tensor),
    (residual, oracles.residual),
]
FAMILY = [(join, oracles.join), (meet, oracles.meet)]
NULLARY = [(unit, oracles.unit), (bottom, oracles.bottom), (top, oracles.top)]


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(operands(2))
def test_binary_operations_match_the_reference(args):
    for new, old in BINARY:
        same(new, old, *args)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(families())
def test_joins_and_meets_match_the_reference(args):
    q, family = args
    for new, old in FAMILY:
        same(new, old, q, family)


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(operands(1))
def test_elements_and_carrier_check_match_the_reference(args):
    q, v = args
    for new, old in NULLARY:
        same(new, old, q)
    same(carrier_check, oracles.carrier_check, q, v)


PINNED_BASES = [
    RBOT, LAWVERE, BOOL,
    QuantaleDescriptor(Kind.RBOT, 1e-9), QuantaleDescriptor(Kind.LAWVERE, 0.5),
    product(RBOT, LAWVERE, BOOL), product(product(RBOT, BOOL), LAWVERE, tolerance=0.5),
]


@pytest.mark.parametrize("q", PINNED_BASES, ids=repr)
def test_pinned_cases_match_the_reference(q):
    pairs = [(BOT, INF), (INF, INF), (HUGE, TINY), (TINY, HUGE), (HUGE, HUGE), (TINY, BOT)]
    # exactly a tolerance apart, either way round
    for t in TOLERANCES[1:]:
        pairs += [(finite(1 + Fraction(t)), finite(1)), (finite(1), finite(1 + Fraction(t)))]
    if q.kind is Kind.PRODUCT:
        width = len(q.factors)
        pairs = [(tuple_val([a] * width), tuple_val([b] * width)) for a, b in pairs]
        # wrong shapes: too short, too long, a plain value, a nested tuple
        pairs += [
            (tuple_val([TRUE] * (width - 1) or [TRUE, TRUE]), unit(q)),
            (unit(q), tuple_val([finite(0)] * (width + 1))),
            (finite(0), unit(q)),
            (tuple_val([unit(q)] * width), unit(q)),
        ]
    for a, b in pairs:
        for new, old in BINARY:
            same(new, old, q, a, b)
        for family in ([], [a], [b], [a, b], [b, a, b]):
            for new, old in FAMILY:
                same(new, old, q, family)
        same(carrier_check, oracles.carrier_check, q, a)


def test_pinned_poles():
    assert tensor(RBOT, BOT, INF) == BOT == oracles.tensor(RBOT, BOT, INF)
    assert residual(RBOT, INF, INF) == INF == oracles.residual(RBOT, INF, INF)
    assert residual(LAWVERE, INF, INF) == finite(0) == oracles.residual(LAWVERE, INF, INF)
