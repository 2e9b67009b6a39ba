"""Differential tests of the one law sweep behind ``validate_category`` and
``validate_module`` against the plain scalar loops over every triple, and
of its candidate scan, which skips clean middle indices, against the scan
that listed every middle.

The inputs sit where a floating-point filter can go wrong: composites
exactly at c + tolerance and one ulp either side of it, denominators
whose least common multiple overflows the exact encoding, values of
2^1024 and more, and values below the smallest subnormal, 2^-1074.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcat import (
    BOOL,
    BOT,
    FALSE,
    INF,
    TRUE,
    Kind,
    QuantaleDescriptor,
    VCategory,
    VModule,
    finite,
    leq,
    maxplus,
    product,
    rbot,
    tensor,
    tuple_val,
    validate_category,
    validate_module,
)
from qcat.modules import ModuleReport
from qcat.quantale import bottom, unit

import oracles
from oracles import validate_exact

TOLERANCES = (0.0, 1e-9, 0.5)
NUMBERS = (
    Fraction(0),
    Fraction(1, 3),
    Fraction(1),
    Fraction(5, 2),
    Fraction(7),
    Fraction(1, 3**40),  # with 1/7 or 1/(2^60+1), an LCM beyond 2^52
    Fraction(1, 7),
    Fraction(1, 2**60 + 1),
    1 + Fraction(1, 2**60),
    Fraction(1, 2**1080),  # below the subnormal range
    Fraction(3, 2**1076),
    Fraction(1, 10**400),
    Fraction(2**1030),  # beyond float64's range
    2**1024 + Fraction(1, 7),
    Fraction(10**400),
)


def ulp(x: Fraction) -> Fraction:
    f = float(x) if x < 2**1023 else math.inf
    return Fraction(math.ulp(f)) if math.isfinite(f) else x / 2**52


def nudges(x: Fraction):
    """Offsets that put a value exactly on, or one ulp either side of, a
    boundary, in relative and in subnormal terms."""
    u = ulp(x)
    tiny = Fraction(1, 2**1074)
    return (Fraction(0), u, -u, tiny, -tiny, tiny / 2)


def leaves(q):
    if q.kind is Kind.PRODUCT:
        return [x for f in q.factors for x in leaves(f)]
    return [q]


def assemble(q, parts):
    if q.kind is Kind.PRODUCT:
        return tuple_val(assemble(f, parts) for f in q.factors)
    return next(parts)


plain = st.builds(
    QuantaleDescriptor,
    st.sampled_from((Kind.RBOT, Kind.LAWVERE, Kind.BOOL)),
    st.sampled_from(TOLERANCES),
)
bases = st.recursive(
    plain,
    lambda inner: st.builds(  # a product's tolerance is at least its factors'
        lambda fs, tol: product(*fs, tolerance=max([tol] + [f.tolerance for f in fs])),
        st.lists(inner, min_size=1, max_size=3),
        st.sampled_from(TOLERANCES),
    ),
    max_leaves=4,
)


def leaf_value(draw, leaf, pool):
    if leaf.kind is Kind.BOOL:
        return draw(st.sampled_from((TRUE, FALSE)))
    poles = (BOT, INF) if leaf.kind is Kind.RBOT else (INF,)
    return draw(st.one_of(st.sampled_from(poles), st.sampled_from(pool).map(finite)))


def plant(draw, leaf, a, b, c, i, j, k):
    """Set c[i][k] so that a[i][j] tensor b[j][k] <= c[i][k] is tight:
    a + b = c + t over rbot, c = a + b + t over lawvere, then nudged."""
    x, y = a[i][j], b[j][k]
    if leaf.kind is Kind.BOOL or not (x.is_finite and y.is_finite):
        return
    s = x.value + y.value
    t = Fraction(leaf.tolerance)
    edge = s - t if leaf.kind is Kind.RBOT else s + t
    v = edge + draw(st.sampled_from(nudges(edge)))
    c[i][k] = finite(max(v, Fraction(0)))


@st.composite
def law_inputs(draw):
    """A base, and leaf matrices for E (n x n), D (k x k) and M (n x k)
    with tight triples planted in each law."""
    q = draw(bases)
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    pool = draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=5))
    mats = []
    for leaf in leaves(q):
        e, d, m = ([[leaf_value(draw, leaf, pool) for _ in range(cols)] for _ in range(rows)]
                   for rows, cols in ((n, n), (k, k), (n, k)))
        ix = st.integers(0, max(n - 1, 0))
        jx = st.integers(0, max(k - 1, 0))
        for _ in range(draw(st.integers(0, 4)) if n else 0):
            plant(draw, leaf, e, e, e, draw(ix), draw(ix), draw(ix))
        for _ in range(draw(st.integers(0, 3)) if n and k else 0):
            plant(draw, leaf, e, m, m, draw(ix), draw(ix), draw(jx))
            plant(draw, leaf, m, d, m, draw(ix), draw(jx), draw(jx))
        mats.append((e, d, m))

    def join(which, rows, cols):
        return tuple(
            tuple(assemble(q, iter([mat[which][r][s] for mat in mats])) for s in range(cols))
            for r in range(rows)
        )

    return q, join(0, n, n), join(1, k, k), join(2, n, k)


def reference_module_report(m):
    """The action loops ``validate_module`` ran before the sweep."""
    q = m.quantale
    e, d = m.target, m.source
    left = []
    for y in range(len(e)):
        for x in range(len(e)):
            exy = e.hom[y][x]
            for a in range(len(d)):
                composite = tensor(q, exy, m.mat[x][a])
                if not leq(q, composite, m.mat[y][a]):
                    left.append(
                        (e.objects[y], e.objects[x], d.objects[a], composite, m.mat[y][a])
                    )
    right = []
    for x in range(len(e)):
        for a in range(len(d)):
            mxa = m.mat[x][a]
            for b in range(len(d)):
                composite = tensor(q, mxa, d.hom[a][b])
                if not leq(q, composite, m.mat[x][b]):
                    right.append(
                        (e.objects[x], d.objects[a], d.objects[b], composite, m.mat[x][b])
                    )
    return ModuleReport(tuple(left), tuple(right))


def labels(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


@settings(max_examples=400, deadline=None)
@given(law_inputs())
def test_validate_category_matches_scalar_loop(inputs):
    q, e, _, _ = inputs
    c = VCategory(q, labels("e", len(e)), e)
    assert validate_category(c) == validate_exact(c)


@settings(max_examples=400, deadline=None)
@given(law_inputs())
def test_validate_module_matches_scalar_loops(inputs):
    q, e, d, m = inputs
    mod = VModule(VCategory(q, labels("d", len(d)), d), VCategory(q, labels("e", len(e)), e), m)
    assert validate_module(mod) == reference_module_report(mod)


def test_margin_covers_cancellation_with_the_tolerance():
    # lawvere at tolerance 1/2: the composite 2^-60 must reach c = 1/2 +
    # 2^-59 within 1/2, and misses by 2^-60.  c's code rounds to -1/2, so
    # c + t rounds to exactly 0 and only a margin relative to |c| + t,
    # not to |c + t|, keeps the triple for the exact recheck.
    q = QuantaleDescriptor(Kind.LAWVERE, 0.5)
    zero, small = finite(0), finite(Fraction(1, 2**60))
    c = finite(Fraction(1, 2) + Fraction(1, 2**59))
    cat = VCategory(q, ("x", "y", "z"), ((zero, zero, c), (INF, zero, small), (INF, INF, zero)))
    report = validate_category(cat)
    assert report == validate_exact(cat)
    assert [v[:3] for v in report.composition_violations] == [("x", "y", "z")]


def test_values_beyond_float_range_and_below_subnormals():
    huge, tiny = finite(2**1030), finite(Fraction(1, 2**1080))
    hom = ((finite(0), huge, huge), (BOT, finite(0), tiny), (BOT, BOT, finite(0)))
    for tol, bad in ((0.0, [("a", "b", "c")]), (1e-9, [])):
        cat = VCategory(rbot(tol), ("a", "b", "c"), hom)
        (codes,), _, _ = maxplus.exact_codes(cat.quantale, cat._index)
        assert codes.dtype == object
        report = validate_category(cat)
        assert report == validate_exact(cat)
        assert [v[:3] for v in report.composition_violations] == bad


def test_no_candidates_on_a_valid_float_category():
    # at a tolerance the filter settles every triple of a valid sprinkle-like
    # category without an exact recheck
    from qcat import minkowski_sample

    cat, _ = minkowski_sample(30, 4)
    (a,), (bound,) = maxplus.law_encode(cat.quantale, cat._index)
    assert maxplus.candidates(a, a, bound) == []
    assert validate_category(cat).ok


def test_tolerance_zero_past_the_exact_limit_builds_no_object_codes(monkeypatch):
    # a sprinkle's binary fractions put the common scale past 2^52: at
    # tolerance 0 the sweep goes straight to the float filter, without
    # first building the exact codes as Python ints
    from qcat import minkowski_sample
    from qcat.category import CategoryReport

    sample, _ = minkowski_sample(200, 7)
    cat = VCategory(rbot(), sample.objects, sample.hom)
    dtypes = []
    arrays = maxplus._arrays

    def spy(q, blocks, code, dtype=float):
        dtypes.append(dtype)
        return arrays(q, blocks, code, dtype)

    monkeypatch.setattr(maxplus, "_arrays", spy)
    assert validate_category(cat) == CategoryReport((), ())
    assert dtypes == [float]
    # below the limit the exact float64 codes are the law's codes, built once
    dtypes.clear()
    small = VCategory(rbot(), ("a", "b"), ((finite(0), finite(3)), (BOT, finite(0))))
    assert validate_category(small).ok and dtypes == [float]



def sweep(c):
    """The candidate triples of ``c``'s composition law, and the reference
    scan's."""
    (a,), (bound,) = maxplus.law_encode(c.quantale, c._index)
    return maxplus.candidates(a, a, bound), oracles.candidates(a, a, bound)


def discrete(q, n):
    """The unit on the diagonal and the bottom elsewhere, leaf by leaf."""
    return [[[unit(leaf) if i == j else bottom(leaf) for j in range(n)] for i in range(n)]
            for leaf in leaves(q)]


def assembled(q, mats):
    n = len(mats[0])
    return tuple(
        tuple(assemble(q, iter([mat[i][j] for mat in mats])) for j in range(n)) for i in range(n)
    )


@st.composite
def mostly_clean(draw):
    """A discrete category with one to three entries replaced: every
    middle index that no planted entry touches, most of them, is clean."""
    q = draw(bases)
    n = draw(st.integers(7, 12))
    pool = draw(st.lists(st.sampled_from(NUMBERS[:5]), min_size=1, max_size=3))
    mats = discrete(q, n)
    ix = st.integers(0, n - 1)
    touched = set()
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(ix), draw(ix)
        touched |= {i, j}
        for leaf, mat in zip(leaves(q), mats):
            mat[i][j] = leaf_value(draw, leaf, pool)
    return VCategory(q, labels("e", n), assembled(q, mats)), touched


@settings(max_examples=300, deadline=None)
@given(mostly_clean())
def test_sweep_skips_clean_middles_with_the_same_triples(inputs):
    cat, touched = inputs
    got, want = sweep(cat)
    assert got == want
    assert {j for _, j, _ in got} <= touched
    assert validate_category(cat) == validate_exact(cat)


def test_no_middle_dirty_gives_no_candidates():
    for q in (rbot(), QuantaleDescriptor(Kind.LAWVERE, 0.5), BOOL, product(rbot(), BOOL)):
        cat = VCategory(q, labels("e", 6), assembled(q, discrete(q, 6)))
        assert sweep(cat) == ([], [])
        assert validate_category(cat).ok


def test_only_the_last_middle_dirty():
    # e0 -> e5 -> e1 with no arrow e0 -> e1: one violation, through the
    # last middle index
    n = 6
    for q in (rbot(), product(rbot(), BOOL)):
        mats = discrete(q, n)
        mats[0][0][n - 1] = mats[0][n - 1][1] = finite(1)
        cat = VCategory(q, labels("e", n), assembled(q, mats))
        got, want = sweep(cat)
        assert got == want == [(0, n - 1, 1)]
        report = validate_category(cat)
        assert report == validate_exact(cat)
        assert [v[:3] for v in report.composition_violations] == [("e0", f"e{n - 1}", "e1")]


# ---------------------------------------------------------------------------
# One 2-D sweep per factor: each factor's mask is ORed into the first's, so a
# violation in any one factor is listed, and a triple that several factors
# violate is listed once.
# ---------------------------------------------------------------------------

LAWVERE = QuantaleDescriptor(Kind.LAWVERE)
PRODUCTS = {
    "bool,bool": product(BOOL, BOOL),
    "rbot,lawvere": product(rbot(), LAWVERE),
    "[[rbot,bool],lawvere]": product(product(rbot(), BOOL), LAWVERE),
    "rbot,lawvere,bool@1/2": product(rbot(), LAWVERE, BOOL, tolerance=0.5),
}
WITH_RBOT = {name: q for name, q in PRODUCTS.items() if name != "bool,bool"}
TRIPLES = list(itertools.permutations(range(4), 3))


def planted(q, n, plants):
    """The discrete category on n objects with ``plants``, (leaf, i, j,
    value) each, set in the leaf matrices."""
    mats = discrete(q, n)
    for f, i, j, v in plants:
        mats[f][i][j] = v
    return VCategory(q, labels("e", n), assembled(q, mats))


def violation(q, f, i, j, k):
    """E(i, j) and E(j, k) the unit in leaf f, E(i, k) its bottom: the law
    fails at (i, j, k) in that leaf alone."""
    u = unit(leaves(q)[f])
    return [(f, i, j, u), (f, j, k, u)]


def sweep_arrays(c):
    (a,), (bound,) = maxplus.law_encode(c.quantale, c._index)
    return a, a, bound


def check_sweep(cat, want):
    got, ref = sweep(cat)
    assert got == ref == want
    report = validate_category(cat)
    assert report == validate_exact(cat)
    assert [v[:3] for v in report.composition_violations] == [
        tuple(f"e{x}" for x in t) for t in want
    ]


@pytest.mark.parametrize("q", PRODUCTS.values(), ids=PRODUCTS)
def test_a_violation_in_one_factor_only(q):
    for f in range(len(leaves(q))):
        for t in TRIPLES:
            check_sweep(planted(q, 4, violation(q, f, *t)), [t])


@pytest.mark.parametrize("q", PRODUCTS.values(), ids=PRODUCTS)
def test_a_triple_that_several_factors_violate_is_listed_once(q):
    nf = len(leaves(q))
    groups = [fs for r in range(2, nf + 1) for fs in itertools.combinations(range(nf), r)]
    for fs in groups:
        for t in TRIPLES:
            check_sweep(planted(q, 4, [p for f in fs for p in violation(q, f, *t)]), [t])


@pytest.mark.parametrize("q", WITH_RBOT.values(), ids=WITH_RBOT)
def test_a_nan_sum_beside_a_violation_in_another_factor(q):
    # the rbot leaf's bot + inf is NaN, an absorbed bottom: it flags no
    # triple, and does not hide the other factor's violation at it
    r = [leaf.kind for leaf in leaves(q)].index(Kind.RBOT)
    for g in set(range(len(leaves(q)))) - {r}:
        for i, j, k in TRIPLES:
            for nan in ([(r, i, j, BOT), (r, j, k, INF)], [(r, i, j, INF), (r, j, k, BOT)]):
                cat = planted(q, 4, nan + violation(q, g, i, j, k))
                a, b, _ = (x[..., r] for x in sweep_arrays(cat))
                with np.errstate(invalid="ignore"):
                    assert np.isnan(a[i, j] + b[j, k])
                check_sweep(cat, [(i, j, k)])
            # the NaN alone flags nothing
            check_sweep(planted(q, 4, [(r, j, k, INF)]), [])


SHAPES = [(3, 2), (2, 4), (4, 3), (1, 3), (3, 1)]


@pytest.mark.parametrize("q", PRODUCTS.values(), ids=PRODUCTS)
def test_rectangular_blocks_through_validate_module(q):
    # E(y, x), M(x, a) and D(a, b) the unit in one leaf, the rest discrete
    # and M's bottom: the left action fails at (y, x, a) and the right one
    # at (x, a, b), in that leaf alone
    for f, leaf in enumerate(leaves(q)):
        for n, k in SHAPES:
            for y, x, a, b in itertools.product(range(n), range(n), range(k), range(k)):
                if (y == x) != (n == 1) or (a == b) != (k == 1):
                    continue
                e, d = discrete(q, n), discrete(q, k)
                m = [[[bottom(g)] * k for _ in range(n)] for g in leaves(q)]
                e[f][y][x] = m[f][x][a] = d[f][a][b] = unit(leaf)
                mat = tuple(tuple(assemble(q, iter([lm[r][s] for lm in m])) for s in range(k))
                            for r in range(n))
                mod = VModule(VCategory(q, labels("d", k), assembled(q, d)),
                              VCategory(q, labels("e", n), assembled(q, e)), mat)
                blocks = (mod.target._index, mod.source._index, mod._index)
                (ea, da, ma), (_, _, bound) = maxplus.law_encode(q, *blocks)
                left, right = maxplus.candidates(ea, ma, bound), maxplus.candidates(ma, da, bound)
                assert left == oracles.candidates(ea, ma, bound) == ([(y, x, a)] if n > 1 else [])
                assert right == oracles.candidates(ma, da, bound) == ([(x, a, b)] if k > 1 else [])
                report = validate_module(mod)
                assert report == reference_module_report(mod)
                assert len(report.left_violations) == len(left)
                assert len(report.right_violations) == len(right)


@pytest.mark.parametrize("q", PRODUCTS.values(), ids=PRODUCTS)
def test_no_objects_and_one_object(q):
    check_sweep(planted(q, 0, []), [])
    check_sweep(planted(q, 1, []), [])
    for f, leaf in enumerate(leaves(q)):  # an endohom 1 over rbot: 1 + 1 > 1 + 1/2
        if leaf.kind is Kind.RBOT:
            check_sweep(planted(q, 1, [(f, 0, 0, finite(1))]), [(0, 0, 0)])
    for n, k in ((0, 0), (0, 2), (2, 0), (1, 0), (0, 1)):
        mat = tuple(tuple(bottom(q) for _ in range(k)) for _ in range(n))
        mod = VModule(planted(q, k, []), planted(q, n, []), mat)
        assert validate_module(mod) == reference_module_report(mod) == ModuleReport((), ())


# ---------------------------------------------------------------------------
# One tolerance per base: every leaf row is the shared table row, and every
# reader of the tolerance (leq, the exact offsets, the law bounds) reads the
# descriptor's one exact copy, as the per-leaf copies read before.
# ---------------------------------------------------------------------------

ONE_TOLERANCE = (0.0, 1e-9, 0.5, 1)  # 1: the int tolerance of rbot(1)
plain_tolerant = st.builds(
    QuantaleDescriptor,
    st.sampled_from((Kind.RBOT, Kind.LAWVERE, Kind.BOOL)),
    st.sampled_from(ONE_TOLERANCE),
)
tolerant_bases = st.recursive(
    plain_tolerant,
    lambda inner: st.builds(  # a factor below the product's tolerance is raised to it
        lambda fs, tol: product(*fs, tolerance=max([tol] + [f.tolerance for f in fs])),
        st.lists(inner, min_size=1, max_size=3),
        st.sampled_from(ONE_TOLERANCE),
    ),
    max_leaves=5,
)


def descriptors(q):
    """``q`` and every descriptor below it."""
    return [q] + [d for f in q.factors for d in descriptors(f)]


def lowered(q):
    """``q`` with every tolerance 0, below the top too."""
    return QuantaleDescriptor(q.kind, 0.0, tuple(lowered(f) for f in q.factors))


@st.composite
def base_and_values(draw):
    q = draw(tolerant_bases)
    pool = draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=4))
    k = draw(st.integers(1, 5))
    return q, [assemble(q, iter([leaf_value(draw, leaf, pool) for leaf in leaves(q)])) for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(base_and_values())
def test_one_tolerance_per_base(inputs):
    from qcat.quantale import _LEAF_TABLE, eq

    q, values = inputs
    for d in descriptors(q):
        assert d._tol == Fraction(d.tolerance) == Fraction(q.tolerance)
    assert [leaf is _LEAF_TABLE[d.kind] for leaf, d in zip(q._leaves, leaves(q))] == [True] * len(q._leaves)
    assert not any(hasattr(leaf, "tolerance") for leaf in q._leaves)
    for a in values:
        for b in values:
            assert leq(q, a, b) == oracles.leq(q, a, b)
            assert eq(q, a, b) == oracles.eq(q, a, b)
    block = maxplus.check_matrix(q, (values,), len(values), lambda i, k: "")
    _, offsets, scale = maxplus.exact_codes(q, block)
    want = oracles.exact_offsets(q, block)
    assert offsets.shape == want.shape == (len(leaves(q)),)
    assert offsets.dtype == want.dtype
    assert offsets.tolist() == want.tolist() == [math.floor(Fraction(q.tolerance) * scale)] * len(want)
    (codes,), (bounds,) = maxplus.law_encode(q, block)
    (ref_codes,), (ref_bounds,) = oracles.law_encode(q, block)
    for got, ref in ((codes, ref_codes), (bounds, ref_bounds)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
    if q.kind is Kind.PRODUCT:  # factors below the product's tolerance are raised to it
        assert product(*map(lowered, q.factors), tolerance=q.tolerance) == q


def test_a_factor_is_raised_to_the_products_tolerance():
    assert product(rbot(), tolerance=0.5) == product(rbot(0.5), tolerance=0.5)
    assert product(rbot(), tolerance=0.5).factors[0]._tol == Fraction(1, 2)
    q = rbot(1)  # an int tolerance
    assert q._tol == 1 and leq(q, finite(2), finite(1)) and not leq(q, finite(3), finite(1))
