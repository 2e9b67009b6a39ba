"""The batched Cauchy search: differential against the per-module search it
replaced, the counit argument that lets it decide by the unit alone, and
the paper's theorem and the Cauchy completion as properties."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

import qcat.modules
from qcat import maxplus

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
    adjoin_point,
    canonical_right_adjoint,
    cauchy_completeness_report,
    check_adjunction,
    default_module_grid,
    enumerate_modules_into,
    find_representing,
    finite,
    product,
    rbot,
    tuple_val,
    unit,
    unit_category,
)
from qcat.quantale import Kind, QuantaleDescriptor, Tag

import oracles
from randgen import random_category

HUGE = finite(Fraction(1, 2**60 + 1))  # no common scale fits 2^52 with it
# 1/p for two primes of 28 bits: each fits 2^52 alone, their common scale
# does not
COPRIME = (finite(Fraction(1, 134217757)), finite(Fraction(1, 134217773)))
# the values each kind of explicit grid adds to every numeric leaf
EXTRA = {"explicit": (), "huge": (HUGE,), "coprime": COPRIME}
LEAF_GRIDS = {
    Kind.RBOT: (BOT, finite(0), finite(Fraction(1, 2)), finite(1), finite(2), finite(3), INF),
    Kind.LAWVERE: (finite(0), finite(Fraction(1, 2)), finite(2), INF),
    Kind.BOOL: (FALSE, TRUE),
}
BASES = {
    "rbot": RBOT,
    "lawvere": LAWVERE,
    "bool": BOOL,
    "bool,bool": product(BOOL, BOOL),
    "rbot,lawvere": product(RBOT, LAWVERE),
    "lawvere~1/2": QuantaleDescriptor(Kind.LAWVERE, 0.5),
    "rbot~1e-9": rbot(1e-9),
    "rbot,lawvere~1/2": product(rbot(), LAWVERE, tolerance=0.5),
}


def _grid(q: QuantaleDescriptor, extra: tuple = ()) -> tuple:
    """A small explicit grid over ``q``, each numeric leaf also taking
    the values ``extra``."""
    if q.kind is Kind.PRODUCT:
        parts = [_grid(f, extra)[:: 1 if f.kind is Kind.BOOL else 2] for f in q.factors]
        return tuple(tuple_val(p) for p in iproduct(*parts))
    grid = LEAF_GRIDS[q.kind]
    return grid if q.kind is Kind.BOOL else grid + extra


def _loosen(c: VCategory, rng: random.Random) -> VCategory:
    """Move finite off-diagonal homs of a plain base by its tolerance,
    toward the bottom: the laws then hold only up to it."""
    q = c.quantale
    t = Fraction(q.tolerance)
    if q.kind is Kind.PRODUCT or not t:
        return c
    sign = 1 if q.kind is Kind.RBOT else -1

    def move(v, i, j):
        if i == j or v.tag is not Tag.FINITE or rng.random() < 0.5:
            return v
        return finite(max(Fraction(0), v.value - sign * t))

    rows = tuple(tuple(move(v, i, j) for j, v in enumerate(row)) for i, row in enumerate(c.hom))
    return VCategory(q, c.objects, rows)


def _outcome(report, c, grid):
    try:
        return report(c, grid).to_json()
    except ValueError as exc:
        return ("error", str(exc))


def _count(c, grid, cap):
    """The number of grid-valued modules into c, or cap if it is more."""
    vals, e, g, tol = qcat.modules._grid_codes(c, grid)
    total = 0
    for block in maxplus.module_blocks(e, g, tol):
        total += len(block)
        if total >= cap:
            return cap
    return total


def _small_case(rng, q, n, grid_kind):
    """A random category on n objects (loosened to the tolerance) and a
    grid: the first of 30 draws with at most ``SMALL`` modules, or else the
    draw with the fewest, so that the per-module reference stays quick."""
    best = None
    for _ in range(30):
        c = _loosen(random_category(rng, q, n, edge_p=0.9, distances=(Fraction(1, 2), 1, 2)), rng)
        if grid_kind == "default":
            try:
                grid = default_module_grid(c)
            except ValueError:  # the closure exceeded its cap
                return c, None
        else:
            grid = _grid(q, EXTRA[grid_kind])
        count = _count(c, grid, 40 * SMALL)
        if best is None or count < best[0]:
            best = count, c, None if grid_kind == "default" else grid
        if count <= SMALL:
            break
    return best[1:]


SMALL = 150


@pytest.mark.parametrize(
    "name,grid_kind",
    [(name, kind) for kind in ("default", "explicit", "huge", "coprime") for name in BASES
     if (name, kind) != ("rbot,lawvere~1/2", "default")],  # its default grids are too large
)
def test_report_and_enumeration_match_the_per_module_search(name, grid_kind):
    q = BASES[name]
    rng = random.Random(f"{name}/{grid_kind}")
    for n in (0, 1, 2, 3, 3, 4, 4, 5):
        c, grid = _small_case(rng, q, n, grid_kind)
        if grid_kind == "coprime" and "bool" not in name:  # the codes are Python ints
            assert qcat.modules._grid_codes(c, grid)[3].dtype == object
        want = _outcome(oracles.cauchy_completeness_report, c, grid)
        assert _outcome(cauchy_completeness_report, c, grid) == want, (name, c.hom)
        if isinstance(want, tuple):  # the default grid exceeded its cap
            continue
        if grid is None:
            grid = default_module_grid(c)
        got = list(enumerate_modules_into(c, grid))
        assert got == list(oracles.enumerate_modules_into(c, grid))
        assert len(got) == want["modules_checked"]


@pytest.mark.parametrize("q", [RBOT, LAWVERE, product(BOOL, BOOL)], ids=str)
def test_empty_and_one_object_categories(q):
    empty = VCategory(q, (), ())
    report = cauchy_completeness_report(empty, _grid(q))
    assert report.modules_checked == 1 and not report.findings and report.complete
    assert report.to_json() == oracles.cauchy_completeness_report(empty, _grid(q)).to_json()
    point = VCategory(q, ("p",), ((unit(q),),))
    report = cauchy_completeness_report(point)
    assert report.to_json() == oracles.cauchy_completeness_report(point).to_json()
    assert [f.module.mat for f in report.findings] == [((unit(q),),)]
    assert report.findings[0].representing == report.findings[0].witness == "p"


@pytest.mark.parametrize("name", ["rbot", "lawvere", "bool,bool", "rbot,lawvere", "lawvere~1/2",
                                  "rbot~1e-9", "rbot,lawvere~1/2"])
def test_counit_holds_for_every_enumerated_module(name):
    """The canonical right adjoint always satisfies the counit, which is
    why the report decides Cauchyness by the unit alone."""
    q = BASES[name]
    rng = random.Random(f"counit/{name}")
    seen = 0
    for n in range(1, 5):
        c = _loosen(random_category(rng, q, n), rng)
        for m in enumerate_modules_into(c, _grid(q)):
            assert check_adjunction(m, canonical_right_adjoint(m)).counit_ok
            seen += 1
    assert seen > 50


def _theorem_case(rng, q, n, grid_size):
    c = random_category(rng, q, n, edge_p=0.7, distances=(Fraction(1, 2), 1))
    values = {v for row in c.hom for v in row}
    leaf = LEAF_GRIDS[q.kind]
    extra = [finite(Fraction(k, 2)) for k in range(1, 4 * grid_size)]
    grid = sorted(values | set(leaf), key=lambda v: (v.tag is not Tag.FINITE, v.value or 0))
    grid = list(dict.fromkeys(grid + extra))[:grid_size]
    return c, grid


@pytest.mark.parametrize("q", [RBOT, LAWVERE], ids=str)
def test_join_prime_unit_every_cauchy_module_is_a_hom_column(q):
    """The paper's theorem on bases whose unit is join-prime: at 8-10
    objects with 10-15-value grids, every Cauchy module has a witness and
    is the hom column of that object."""
    rng = random.Random(f"theorem/{q.kind.value}")
    found = 0
    for n in (8, 8, 9, 9, 10, 10):
        c, grid = _theorem_case(rng, q, n, rng.randint(10, 15))
        report = cauchy_completeness_report(c, grid)
        assert report.complete and report.modules_checked > 0
        for f in report.findings:
            assert f.witness is not None and f.representing is not None
            z = c.index(f.witness)
            assert f.module.mat == tuple((c.hom[y][z],) for y in range(n))
            found += 1
    assert found > 0


def test_bool_bool_is_not_cauchy_complete():
    """bool x bool fails the join-prime condition, and the search finds
    Cauchy modules that no object represents."""
    rng = random.Random("theorem/bool,bool")
    q = product(BOOL, BOOL)
    incomplete = 0
    for n in (3, 4, 5, 6):
        report = cauchy_completeness_report(random_category(rng, q, n))
        incomplete += bool(report.counterexamples)
        for m in report.counterexamples:
            assert find_representing(m) is None
    assert incomplete >= 2


def test_adjoining_counterexamples_completes_the_category():
    """The Cauchy completion over bool x bool, whose carrier is finite
    so that the default grid holds every value: adjoin a point for each
    counterexample until none is left."""
    q = product(BOOL, BOOL)
    rng = random.Random("completion")
    grew = 0
    for _ in range(8):
        c = random_category(rng, q, rng.randint(2, 4))
        for step in range(20):
            report = cauchy_completeness_report(c)
            if report.complete:
                break
            m = report.counterexamples[0]
            c = adjoin_point(m, canonical_right_adjoint(m), f"p{step}")
            extended = VModule(unit_category(q), c, m.mat + ((unit(q),),))
            assert find_representing(extended) == f"p{step}"
            grew += 1
        assert report.complete
    assert grew > 0


def test_many_objects_and_values_keep_few_tables():
    """40 simultaneous events and a 64-value grid: the per-entry tables
    exceed their budget and are made again as needed.  The modules are
    the constant columns, and only the column of zeros is Cauchy."""
    n = 40
    c = VCategory(RBOT, tuple(f"e{i}" for i in range(n)), ((finite(0),) * n,) * n)
    grid = [BOT, INF] + [finite(k) for k in range(62)]
    report = cauchy_completeness_report(c, grid)
    assert report.modules_checked == 64  # the constant columns
    assert [f.module.mat for f in report.findings] == [((finite(0),),) * n]
    assert report.findings[0].representing == report.findings[0].witness == "e0"


@pytest.mark.parametrize(
    "name,grid_kind",
    [(name, kind) for kind in ("default", "explicit", "huge", "coprime") for name in BASES
     if (name, kind) != ("rbot,lawvere~1/2", "default")],
)
def test_report_read_lazily_matches_the_per_module_search(name, grid_kind):
    """The report holds its findings as grid rows and builds their modules
    on first read: findings, counterexamples, complete, to_json and == all
    agree with the per-module search, and a report rebuilt by hand from
    those findings renders the same."""
    q = BASES[name]
    rng = random.Random(f"lazy/{name}/{grid_kind}")
    for n in (1, 2, 3, 4):
        c, grid = _small_case(rng, q, n, grid_kind)
        try:
            want = oracles.cauchy_completeness_report(c, grid)
        except ValueError:  # the default grid exceeded its cap
            continue
        got = cauchy_completeness_report(c, grid)
        assert got.complete == want.complete
        assert got.to_json() == want.to_json()
        assert got.findings == want.findings
        assert got.counterexamples == want.counterexamples
        assert got == want and want == got
        by_hand = qcat.modules.CompletenessReport(c, got.grid, got.modules_checked, got.findings)
        assert by_hand.to_json() == want.to_json() and by_hand == got


def test_the_report_builds_no_module_until_its_findings_are_read(monkeypatch):
    """qcat complete's path (the search, complete, to_json) builds no
    VModule; the first read of findings builds one per finding, all
    against one unit category, and a second read returns the same tuple."""
    built = []
    post_init = VModule.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    c = VCategory(product(BOOL, BOOL), ("a", "b"), (
        (tuple_val((TRUE, TRUE)), tuple_val((FALSE, FALSE))),
        (tuple_val((FALSE, FALSE)), tuple_val((TRUE, TRUE)))))
    monkeypatch.setattr(VModule, "__post_init__", counted)
    report = cauchy_completeness_report(c)
    assert not report.complete
    data = report.to_json()
    assert built == [] and data["cauchy_count"] == 4 and len(data["counterexamples"]) == 2
    findings = report.findings
    assert report.findings is findings and len(built) == len(findings) == 4
    assert len({id(f.module.source) for f in findings}) == 1
    assert report.counterexamples == tuple(f.module for f in findings if f.representing is None)
    assert len(built) == 4
