"""Differential tests of the one law sweep behind ``validate_category`` and
``validate_module`` against the plain scalar loops over every triple, and
of its candidate scan, which skips clean middle indices, against the scan
that listed every middle.

The inputs sit where a floating-point filter can go wrong: composites
exactly at c + tolerance and one ulp either side of it, denominators
whose least common multiple overflows the exact encoding, values of
2^1024 and more, and values below the smallest subnormal, 2^-1074.
"""

import math
from fractions import Fraction

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
