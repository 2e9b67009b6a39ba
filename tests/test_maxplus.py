"""Differential tests of the max-plus kernel behind ``validate_category``
and ``compose`` against plain loops over the scalar operations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qcat import (
    BOOL,
    BOT,
    FALSE,
    INF,
    LAWVERE,
    RBOT,
    TRUE,
    CategoryReport,
    Kind,
    VCategory,
    VModule,
    compose,
    finite,
    join,
    leq,
    product,
    tensor,
    tuple_val,
    unit,
    validate_category,
)
from qcat import maxplus
from qcat.maxplus import check_matrix

BASES = [
    RBOT,
    LAWVERE,
    BOOL,
    product(RBOT, RBOT),
    product(RBOT, LAWVERE),
    product(LAWVERE, BOOL),
    product(BOOL, BOOL),
    product(RBOT, product(BOOL, LAWVERE)),
]

# far beyond the kernel's 2^52 exactness bound
HUGE = finite(2**60 + 1)

numbers = st.one_of(
    st.integers(0, 6).map(finite),
    st.builds(Fraction, st.integers(0, 40), st.integers(2, 12)).map(finite),
)
LEAVES = {
    Kind.RBOT: st.one_of(st.just(BOT), st.just(INF), numbers),
    Kind.LAWVERE: st.one_of(st.just(INF), numbers),
    Kind.BOOL: st.sampled_from([TRUE, FALSE]),
}


def values(q, huge):
    if q.kind is Kind.PRODUCT:
        return st.tuples(*(values(f, huge) for f in q.factors)).map(tuple_val)
    leaf = LEAVES[q.kind]
    if huge and q.kind is not Kind.BOOL:
        return st.one_of(leaf, st.just(HUGE))
    return leaf


def reference_report(c):
    q = c.quantale
    u = unit(q)
    n, hom, obj = len(c), c.hom, c.objects
    unit_v = tuple((obj[i], hom[i][i]) for i in range(n) if not leq(q, u, hom[i][i]))
    comp_v = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                composite = tensor(q, hom[i][j], hom[j][k])
                if not leq(q, composite, hom[i][k]):
                    comp_v.append((obj[i], obj[j], obj[k], composite, hom[i][k]))
    return CategoryReport(unit_v, tuple(comp_v))


def reference_compose(m, n):
    q = m.quantale
    mid = range(len(m.source))
    rows = tuple(
        tuple(
            join(q, [tensor(q, m.mat[x][a], n.mat[a][p]) for a in mid])
            for p in range(len(n.source))
        )
        for x in range(len(m.target))
    )
    return VModule(n.source, m.target, rows)


def encodable(q, *mats):
    """Whether the exact codes of the matrices are float64, not ints in
    object arrays."""
    blocks = (check_matrix(q, mat, len(mat[0]) if mat else 0, str) for mat in mats)
    codes, offsets, _ = maxplus.exact_codes(q, *blocks)
    assert {a.dtype for a in codes} == {offsets.dtype}
    return offsets.dtype != object


@st.composite
def categories(draw, q, n, huge):
    vals = values(q, huge)
    hom = tuple(tuple(draw(vals) for _ in range(n)) for _ in range(n))
    return VCategory(q, tuple(f"o{i}" for i in range(n)), hom)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_matches_reference(data):
    q, huge = data.draw(st.sampled_from(BASES)), data.draw(st.booleans())
    c = data.draw(categories(q, data.draw(st.integers(0, 5)), huge))
    assert validate_category(c) == reference_report(c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_matches_reference(data):
    q, huge = data.draw(st.sampled_from(BASES)), data.draw(st.booleans())
    shape = st.sampled_from([(0, 0, 0), (1, 3, 1), (3, 1, 3), (1, 4, 0), (0, 2, 3), (2, 0, 2)])
    rows, mid, cols = data.draw(st.one_of(shape, st.tuples(*[st.integers(0, 4)] * 3)))
    e, d, c = (data.draw(categories(q, k, False)) for k in (rows, mid, cols))
    vals = values(q, huge)
    m = VModule(d, e, tuple(tuple(data.draw(vals) for _ in range(mid)) for _ in range(rows)))
    n = VModule(c, d, tuple(tuple(data.draw(vals) for _ in range(cols)) for _ in range(mid)))
    assert compose(m, n) == reference_compose(m, n)


def test_huge_value_takes_the_scalar_path():
    c = VCategory(RBOT, ("a", "b"), ((finite(0), HUGE), (BOT, finite(0))))
    assert not encodable(RBOT, c.hom)
    assert validate_category(c) == reference_report(c)
    m = VModule(c, c, c.hom)
    assert compose(m, m) == reference_compose(m, m)
    # a scaled value of 2^52 is still exact: its sums stay within float64's integers
    assert encodable(LAWVERE, [[finite(Fraction(2**52, 3)), finite(Fraction(1, 3))]])
    assert not encodable(LAWVERE, [[finite(Fraction(2**52 + 1, 3)), finite(Fraction(1, 3))]])
