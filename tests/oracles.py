"""Slow reference implementations that tests compare qcat against."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from qcat import CausalDag, CycleError
from qcat.quantale import (
    BOT,
    FALSE,
    INF,
    TRUE,
    CarrierMismatch,
    Kind,
    QuantaleDescriptor,
    QVal,
    Tag,
    boolean,
)


def longest_path_oracle(
    dag: CausalDag, a: str, b: str, max_paths: int = 200_000
) -> int | None:
    """Exhaustive path enumeration, for checking the dynamic program.

    Returns the maximal edge count over all directed paths a -> b, 0
    when a == b, and None when b is unreachable.  Raises when more than
    ``max_paths`` paths would be walked.
    """
    for v in (a, b):
        if v not in dag.vertices:
            raise ValueError(f"unknown vertex {v!r}")
    if a == b:
        return 0
    succ: dict[str, list[str]] = {v: [] for v in dag.vertices}
    for x, y in dag.edges:
        succ[x].append(y)
    best: int | None = None
    walked = 0
    on_path: set[str] = {a}

    def dfs(v: str, length: int) -> None:
        nonlocal best, walked
        if v == b:
            walked += 1
            if walked > max_paths:
                raise ValueError(f"path enumeration exceeded {max_paths} paths")
            if best is None or length > best:
                best = length
            return
        for w in succ[v]:
            if w in on_path:
                raise CycleError((w, v, w))
            on_path.add(w)
            dfs(w, length + 1)
            on_path.discard(w)

    dfs(a, 0)
    return best


def idempotent_split_check(edges: Iterable[tuple[str, str]]) -> bool:
    """Idempotents in a preorder always split (the only endo-arrow on an
    object is its identity), so this returns True for every preorder.

    The input must actually be one; a non-reflexive or non-transitive
    edge set is rejected.
    """
    es = set(tuple(e) for e in edges)
    verts = {v for e in es for v in e}
    for v in verts:
        if (v, v) not in es:
            raise ValueError(f"edge set is not reflexive at {v!r}")
    succ: dict[str, set[str]] = {v: set() for v in verts}
    for a, b in es:
        succ[a].add(b)
    for a, b in es:
        for cdest in succ[b]:
            if (a, cdest) not in es:
                raise ValueError(f"edge set is not transitive: {a!r} -> {b!r} -> {cdest!r}")
    return True


def preorder_dot_oracle(objects: Sequence[str], edges: Iterable[tuple[str, str]]) -> str:
    """``category.preorder_dot`` as it was before it quoted each label
    once: one quote per node line and two per edge line."""

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph preorder {"]
    for o in objects:
        lines.append(f"  {quote(o)};")
    for a, b in sorted(edges):
        if a != b:
            lines.append(f"  {quote(a)} -> {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The scalar operations as they were written before the max-plus leaf table:
# one per-kind branch per operation, each with an unchecked copy.  Kept
# verbatim as the reference for tests/test_scalar_oracle.py.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _tol_fraction(tolerance: float) -> Fraction:
    return Fraction(tolerance)


def carrier_check(q: QuantaleDescriptor, v: QVal) -> None:
    """Raise :class:`CarrierMismatch` unless ``v`` lives in ``q``'s carrier."""
    if q.kind is Kind.RBOT:
        if v.tag not in (Tag.BOT, Tag.FINITE, Tag.INF):
            raise CarrierMismatch(f"{v!r} is not an element of the causal base")
    elif q.kind is Kind.LAWVERE:
        if v.tag not in (Tag.FINITE, Tag.INF):
            raise CarrierMismatch(f"{v!r} is not an element of the metric base")
    elif q.kind is Kind.BOOL:
        if v.tag is not Tag.BOOL:
            raise CarrierMismatch(f"{v!r} is not a truth value")
    else:
        if v.tag is not Tag.TUPLE or len(v.value) != len(q.factors):
            raise CarrierMismatch(f"{v!r} does not match the product shape")
        for f, p in zip(q.factors, v.value):
            carrier_check(f, p)


def leq(q: QuantaleDescriptor, a: QVal, b: QVal) -> bool:
    """Whether an arrow a -> b exists in ``q``'s order.

    Total order for RBOT and LAWVERE, componentwise for products.
    Finite-vs-finite comparison is loosened by ``q.tolerance``.
    """
    carrier_check(q, a)
    carrier_check(q, b)
    return _leq(q, a, b)


def _leq(q: QuantaleDescriptor, a: QVal, b: QVal) -> bool:
    if q.kind is Kind.RBOT:
        if a.tag is Tag.BOT or b.tag is Tag.INF:
            return True
        if b.tag is Tag.BOT or a.tag is Tag.INF:
            return False
        if q.tolerance:
            return a.value <= b.value + _tol_fraction(q.tolerance)
        return a.value <= b.value
    if q.kind is Kind.LAWVERE:
        # arrow a -> b iff b <= a numerically
        if a.tag is Tag.INF or (b.tag is Tag.FINITE and b.value == 0):
            return True
        if b.tag is Tag.INF:
            return False
        if q.tolerance:
            return b.value <= a.value + _tol_fraction(q.tolerance)
        return b.value <= a.value
    if q.kind is Kind.BOOL:
        return (not a.value) or b.value
    return all(_leq(f, x, y) for f, x, y in zip(q.factors, a.value, b.value))


def eq(q: QuantaleDescriptor, a: QVal, b: QVal) -> bool:
    """Equality up to ``q``'s tolerance: mutual ``leq``."""
    return leq(q, a, b) and leq(q, b, a)


def tensor(q: QuantaleDescriptor, a: QVal, b: QVal) -> QVal:
    """Monoidal tensor: addition (bot absorbing) on the numeric bases,
    conjunction on truth values, componentwise on products."""
    carrier_check(q, a)
    carrier_check(q, b)
    return _tensor(q, a, b)


def _tensor(q: QuantaleDescriptor, a: QVal, b: QVal) -> QVal:
    if q.kind is Kind.RBOT:
        if a.tag is Tag.BOT or b.tag is Tag.BOT:
            return BOT
        if a.tag is Tag.INF or b.tag is Tag.INF:
            return INF
        return QVal(Tag.FINITE, a.value + b.value)
    if q.kind is Kind.LAWVERE:
        if a.tag is Tag.INF or b.tag is Tag.INF:
            return INF
        return QVal(Tag.FINITE, a.value + b.value)
    if q.kind is Kind.BOOL:
        return boolean(a.value and b.value)
    return QVal(Tag.TUPLE, tuple(_tensor(f, x, y) for f, x, y in zip(q.factors, a.value, b.value)))


def residual(q: QuantaleDescriptor, a: QVal, c: QVal) -> QVal:
    """The largest x with tensor(a, x) <= c (internal hom a -> c).

    On the causal base this is the familiar table: residuating out of
    bot gives top, residuating into bot gives bot, and finite values
    subtract when they can.  On the metric base it is truncated
    subtraction; on truth values, implication.
    """
    carrier_check(q, a)
    carrier_check(q, c)
    return _residual(q, a, c)


def _residual(q: QuantaleDescriptor, a: QVal, c: QVal) -> QVal:
    if q.kind is Kind.RBOT:
        if a.tag is Tag.BOT or c.tag is Tag.INF:
            return INF
        if c.tag is Tag.BOT or a.tag is Tag.INF:
            return BOT
        if a.value <= c.value:
            return QVal(Tag.FINITE, c.value - a.value)
        return BOT
    if q.kind is Kind.LAWVERE:
        if a.tag is Tag.INF:
            return QVal(Tag.FINITE, Fraction(0))
        if c.tag is Tag.INF:
            return INF
        return QVal(Tag.FINITE, max(c.value - a.value, Fraction(0)))
    if q.kind is Kind.BOOL:
        return boolean((not a.value) or c.value)
    return QVal(Tag.TUPLE, tuple(_residual(f, x, y) for f, x, y in zip(q.factors, a.value, c.value)))


def unit(q: QuantaleDescriptor) -> QVal:
    if q.kind in (Kind.RBOT, Kind.LAWVERE):
        return QVal(Tag.FINITE, Fraction(0))
    if q.kind is Kind.BOOL:
        return TRUE
    return QVal(Tag.TUPLE, tuple(unit(f) for f in q.factors))


def bottom(q: QuantaleDescriptor) -> QVal:
    if q.kind is Kind.RBOT:
        return BOT
    if q.kind is Kind.LAWVERE:
        return INF
    if q.kind is Kind.BOOL:
        return FALSE
    return QVal(Tag.TUPLE, tuple(bottom(f) for f in q.factors))


def top(q: QuantaleDescriptor) -> QVal:
    if q.kind is Kind.RBOT:
        return INF
    if q.kind is Kind.LAWVERE:
        return QVal(Tag.FINITE, Fraction(0))
    if q.kind is Kind.BOOL:
        return TRUE
    return QVal(Tag.TUPLE, tuple(top(f) for f in q.factors))


def _leq_exact(q: QuantaleDescriptor, a: QVal, b: QVal) -> bool:
    # lattice selection ignores the tolerance: joins and meets are exact
    if q.tolerance == 0:
        return _leq(q, a, b)
    return _leq(QuantaleDescriptor(q.kind, 0.0, q.factors), a, b)


def join(q: QuantaleDescriptor, family: Iterable[QVal]) -> QVal:
    """Least upper bound of a finite family; the empty join is bottom."""
    vals = list(family)
    for v in vals:
        carrier_check(q, v)
    return _join(q, vals)


def _join(q: QuantaleDescriptor, vals: Sequence[QVal]) -> QVal:
    if q.kind is Kind.PRODUCT:
        if not vals:
            return bottom(q)
        return QVal(
            Tag.TUPLE,
            tuple(_join(f, [v.value[i] for v in vals]) for i, f in enumerate(q.factors)),
        )
    if not vals:
        return bottom(q)
    best = vals[0]
    for v in vals[1:]:
        if _leq_exact(q, best, v):
            best = v
    return best


def meet(q: QuantaleDescriptor, family: Iterable[QVal]) -> QVal:
    """Greatest lower bound of a finite family; the empty meet is top."""
    vals = list(family)
    for v in vals:
        carrier_check(q, v)
    return _meet(q, vals)


def _meet(q: QuantaleDescriptor, vals: Sequence[QVal]) -> QVal:
    if q.kind is Kind.PRODUCT:
        if not vals:
            return top(q)
        return QVal(
            Tag.TUPLE,
            tuple(_meet(f, [v.value[i] for v in vals]) for i, f in enumerate(q.factors)),
        )
    if not vals:
        return top(q)
    best = vals[0]
    for v in vals[1:]:
        if _leq_exact(q, v, best):
            best = v
    return best


# ---------------------------------------------------------------------------
# The module calculus as it was before the shared adjoint kernel: compose as
# the scalar join of tensors (the loop it fell back to whenever the integer
# encoding did not fit), the canonical right adjoint as a meet of residuals,
# each Cauchy decision through two compositions, and the default grid's
# closure recursing over product factors.  Kept verbatim (on the scalar
# operations above) as the reference for tests/test_module_kernel.py.
# ---------------------------------------------------------------------------

from itertools import product as iproduct  # noqa: E402
from typing import Iterator  # noqa: E402

from qcat import VCategory, VModule, unit_category, validate_category  # noqa: E402
from qcat.modules import (  # noqa: E402
    AdjunctionReport,
    CauchyFinding,
    CompletenessReport,
    _require_unit_source,
    default_module_grid,
)
from qcat.quantale import qval_sort_key, tuple_val  # noqa: E402


def compose(m: VModule, n: VModule) -> VModule:
    if m.source != n.target:
        raise ValueError("modules are not composable: source of the first must be the target of the second")
    q = m.quantale
    mid, cols = len(m.source), len(n.source)
    rows = []
    for x in range(len(m.target)):
        row = []
        for p in range(cols):
            row.append(
                join(q, [tensor(q, m.mat[x][a], n.mat[a][p]) for a in range(mid)])
            )
        rows.append(tuple(row))
    return VModule(n.source, m.target, tuple(rows))


def canonical_right_adjoint(m: VModule) -> VModule:
    q = m.quantale
    d, e = m.source, m.target
    rows = []
    for a in range(len(d)):
        row = []
        for x in range(len(e)):
            row.append(
                meet(q, [residual(q, m.mat[y][a], e.hom[y][x]) for y in range(len(e))])
            )
        rows.append(tuple(row))
    return VModule(e, d, tuple(rows))


def check_adjunction(m: VModule, n: VModule) -> AdjunctionReport:
    if n.source != m.target or n.target != m.source:
        raise ValueError("adjunction candidates must be composable both ways")
    q = m.quantale
    d, e = m.source, m.target
    nm = compose(n, m)
    unit_failures = []
    for a in range(len(d)):
        for b in range(len(d)):
            if not leq(q, d.hom[a][b], nm.mat[a][b]):
                unit_failures.append(
                    (d.objects[a], d.objects[b], d.hom[a][b], nm.mat[a][b])
                )
    mn = compose(m, n)
    counit_failures = []
    for x in range(len(e)):
        for y in range(len(e)):
            if not leq(q, mn.mat[x][y], e.hom[x][y]):
                counit_failures.append(
                    (e.objects[x], e.objects[y], mn.mat[x][y], e.hom[x][y])
                )
    return AdjunctionReport(
        not unit_failures, not counit_failures, tuple(unit_failures), tuple(counit_failures)
    )


def is_cauchy(m: VModule) -> bool:
    _require_unit_source(m)
    return check_adjunction(m, canonical_right_adjoint(m)).ok


def representing_objects(m: VModule) -> tuple[str, ...]:
    _require_unit_source(m)
    e = m.target
    q = m.quantale
    out = []
    for z in range(len(e)):
        if all(eq(q, m.mat[y][0], e.hom[y][z]) for y in range(len(e))):
            out.append(e.objects[z])
    return tuple(out)


def find_representing(m: VModule) -> str | None:
    matches = representing_objects(m)
    return matches[0] if matches else None


def cauchy_witness(m: VModule, n: VModule) -> str | None:
    _require_unit_source(m)
    if not check_adjunction(m, n).ok:
        raise ValueError("cauchy_witness requires an adjoint pair")
    return _witness(m, n)


def _witness(m: VModule, n: VModule) -> str | None:
    q = m.quantale
    e = m.target
    u = unit(q)
    for z in range(len(e)):
        if leq(q, u, tensor(q, n.mat[0][z], m.mat[z][0])):
            return e.objects[z]
    return None


def _closure_values(q, values: set[QVal], cap: int) -> set[QVal]:
    if q.kind is Kind.PRODUCT:
        factor_sets = []
        for i, f in enumerate(q.factors):
            comps = {v.value[i] for v in values}
            factor_sets.append(sorted(_closure_values(f, comps, cap), key=qval_sort_key))
        out = {tuple_val(parts) for parts in iproduct(*factor_sets)}
        if len(out) > cap:
            raise ValueError(f"default module grid exceeded {cap} values; pass an explicit grid")
        return out
    seen = set(values) | {bottom(q), unit(q), top(q)}
    while True:
        fresh = set()
        for a in seen:
            for b in seen:
                r = residual(q, a, b)
                if r not in seen:
                    fresh.add(r)
        if not fresh:
            break
        seen.update(fresh)
        if len(seen) > cap:
            raise ValueError(f"default module grid exceeded {cap} values; pass an explicit grid")
    return seen


# ---------------------------------------------------------------------------
# The Cauchy search as it was before the batched kernel: a recursive
# depth-first enumeration of grid columns, and one scalar adjunction check
# per module.  Kept verbatim (on the scalar operations and the module
# calculus above) as the reference for tests/test_cauchy_batch.py.
# ---------------------------------------------------------------------------


def enumerate_modules_into(c: VCategory, grid: Iterable[QVal]) -> Iterator[VModule]:
    """All modules I -/-> C with entries drawn from ``grid``.

    Enumerated column-wise in grid order with constraint propagation:
    a partial column is abandoned as soon as some pair violates the
    left action.
    """
    q = c.quantale
    vals = tuple(sorted(set(grid), key=qval_sort_key))
    for v in vals:
        carrier_check(q, v)
    n = len(c)
    hom = c.hom
    i_cat = unit_category(q)
    column: list[QVal] = []

    def extend(i: int) -> Iterator[tuple[QVal, ...]]:
        if i == n:
            yield tuple(column)
            return
        for v in vals:
            if not leq(q, tensor(q, hom[i][i], v), v):
                continue
            ok = True
            for j in range(i):
                w = column[j]
                if not leq(q, tensor(q, hom[j][i], v), w):
                    ok = False
                    break
                if not leq(q, tensor(q, hom[i][j], w), v):
                    ok = False
                    break
            if ok:
                column.append(v)
                yield from extend(i + 1)
                column.pop()

    for col in extend(0):
        yield VModule(i_cat, c, tuple((v,) for v in col))


def _column_key(m: VModule):
    return tuple(qval_sort_key(v) for (v,) in m.mat)


def cauchy_completeness_report(
    c: VCategory, grid: Iterable[QVal] | None = None
) -> CompletenessReport:
    """Enumerate grid-valued modules I -/-> C, decide which are Cauchy,
    and report the Cauchy ones no object represents."""
    report = validate_category(c)
    if not report.ok:
        raise ValueError("cauchy_completeness_report requires a valid category")
    grid_vals = (
        default_module_grid(c) if grid is None else tuple(sorted(set(grid), key=qval_sort_key))
    )
    for v in grid_vals:
        carrier_check(c.quantale, v)
    checked = 0
    findings: list[CauchyFinding] = []
    for m in enumerate_modules_into(c, grid_vals):
        checked += 1
        n = canonical_right_adjoint(m)
        if not check_adjunction(m, n).ok:
            continue
        findings.append(CauchyFinding(m, find_representing(m), _witness(m, n)))
    findings.sort(key=lambda f: _column_key(f.module))
    return CompletenessReport(c, grid_vals, checked, tuple(findings))


# ---------------------------------------------------------------------------
# The CLI front end as it was when every call built the parser of all
# subcommands, with ``qcat cauchy`` on the module calculus above, and
# ``validate_category``'s scalar loop over every triple.  Kept verbatim
# (names qualified by module) as the references for tests/test_cli.py,
# tests/test_module_kernel.py and the validation differentials.
# ---------------------------------------------------------------------------

import argparse  # noqa: E402
import itertools  # noqa: E402

from qcat import cli, quantale  # noqa: E402
from qcat.category import CategoryReport  # noqa: E402


def validate_exact(c: VCategory) -> CategoryReport:
    """The scalar loop over all triples, with the tolerance of ``c``."""
    return _report(c, itertools.product(range(len(c)), repeat=3))


def _report(c: VCategory, triples: Iterable[tuple[int, int, int]]) -> CategoryReport:
    """The unit violations of ``c`` and the composition violations among
    the given (i, j, k) positions, with their scalar composites: read from
    the rows ``c.hom``."""
    q = c.quantale
    u = quantale.unit(q)
    hom, obj = c.hom, c.objects
    unit_v = tuple((obj[i], hom[i][i]) for i in range(len(c)) if not quantale.leq(q, u, hom[i][i]))
    return CategoryReport(unit_v, law_violations(q, hom, hom, hom, (obj, obj, obj), triples))


def law_violations(q: QuantaleDescriptor, a, b, c, labels, triples) -> tuple:
    """The (i, j, k) among ``triples`` where a[i][j] tensor b[j][k] <= c[i][k]
    fails, each as its three labels, the composite and c[i][k]: on rows."""
    li, lj, lk = labels
    out = []
    for i, j, k in triples:
        composite = quantale.tensor(q, a[i][j], b[j][k])
        if not quantale.leq(q, composite, c[i][k]):
            out.append((li[i], lj[j], lk[k], composite, c[i][k]))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcat",
        description="Finite quantale-enriched categories: validation, module algebra, "
        "Cauchy completeness, collages, and causal-space generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("laws", help="check the quantale laws over a value grid")
    p.add_argument("--quantale", required=True, help="rbot, lawvere, bool, or a comma list for a product")
    p.add_argument("--grid", help="comma-separated values (default: a small instance grid)")
    p.set_defaults(fn=cli._cmd_laws)

    p = sub.add_parser("validate", help="validate a category file (plus endohom classes over rbot)")
    p.add_argument("category")
    p.set_defaults(fn=cli._cmd_validate)

    p = sub.add_parser("compose", help="compose two module files (first . second)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cli._cmd_compose)

    p = sub.add_parser("adjoint", help="canonical right adjoint and adjunction report")
    p.add_argument("module")
    p.set_defaults(fn=cli._cmd_adjoint)

    p = sub.add_parser("cauchy", help="Cauchy test, representing object, unit witness")
    p.add_argument("module")
    p.set_defaults(fn=_cmd_cauchy)

    p = sub.add_parser("complete", help="exhaustive Cauchy-completeness search over a grid")
    p.add_argument("category")
    p.add_argument("--grid", help="comma-separated values (default: residual closure of the homs)")
    p.set_defaults(fn=cli._cmd_complete)

    p = sub.add_parser("collage", help="glue a module into one category")
    p.add_argument("module")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cli._cmd_collage)

    p = sub.add_parser("restrict", help="extract the module of a collage")
    p.add_argument("collage")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cli._cmd_restrict)

    p = sub.add_parser("adjoin", help="adjoin a point described by a module pair")
    p.add_argument("first", help="module I -/-> E (homs into the new point)")
    p.add_argument("second", help="module E -/-> I (homs out of the new point)")
    p.add_argument("--label", default="*")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cli._cmd_adjoin)

    p = sub.add_parser("from-dag", help="causal space of a causal set (longest paths)")
    p.add_argument("edges", help="edge-list text file ('a b' per line) or JSON")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cli._cmd_from_dag)

    p = sub.add_parser("minkowski", help="uniform sprinkling into a flat 2D rectangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bounds", default="0,1,0,1", help="t0,t1,x0,x1 (default 0,1,0,1)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cli._cmd_minkowski)

    p = sub.add_parser("underlying", help="underlying preorder, optionally as DOT")
    p.add_argument("category")
    p.add_argument("--dot", help="write a graphviz file")
    p.set_defaults(fn=cli._cmd_underlying)

    p = sub.add_parser(
        "counterexample-mixed",
        help="the three-event witness that signed intervals break the triangle inequality",
    )
    p.set_defaults(fn=cli._cmd_counterexample_mixed)

    return parser


def _cmd_cauchy(args) -> cli.CommandResult:
    m = cli.module_from_json(cli._read_json(args.module), where=args.module)
    representing = representing_objects(m)  # raises unless the source is I
    n = canonical_right_adjoint(m)
    cauchy = check_adjunction(m, n).ok
    payload: dict = {"status": cli.OK if cauchy else cli.VIOLATIONS, "is_cauchy": cauchy}
    if cauchy:
        payload["representing"] = representing[0] if representing else None
        payload["all_representing"] = list(representing)
        payload["witness"] = _witness(m, n)
        if payload["representing"] is None:
            payload["status"] = cli.VIOLATIONS
    else:
        payload["representing"] = None
        payload["all_representing"] = []
        payload["witness"] = None
    return cli.CommandResult(payload["status"], payload, 0 if payload["status"] == cli.OK else 1)


def cli_run(argv: Sequence[str]) -> cli.CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code == 0:  # --help
            return cli.CommandResult(cli.OK, {"status": cli.OK}, 0)
        return cli.CommandResult(cli.ERROR, {"status": cli.ERROR, "error": "invalid arguments"}, 2)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        return cli.CommandResult(cli.ERROR, {"status": cli.ERROR, "error": str(exc)}, 2)


# ---------------------------------------------------------------------------
# The value parser and the law sweep's candidate scan before plain digit
# strings were read as two ints and clean middle indices were skipped.
# Kept verbatim as the references for tests/test_parse_once.py and
# tests/test_sweep.py.
# ---------------------------------------------------------------------------

import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from qcat.quantale import _trusted_finite, split_top_level  # noqa: E402


def parse_value(raw: str | int | float | bool) -> QVal:
    """Parse one value in the shared textual syntax."""
    if isinstance(raw, bool):
        return boolean(raw)
    if isinstance(raw, int):
        if raw < 0:
            raise ValueError(f"negative value {raw} is not in any carrier")
        return _trusted_finite(Fraction(raw))
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ValueError(f"{raw} is not a finite number")
        try:
            frac = Fraction(str(raw))
        except ValueError:
            frac = Fraction(raw)
        if frac < 0:
            raise ValueError(f"negative value {raw} is not in any carrier")
        return _trusted_finite(frac)
    if not isinstance(raw, str):
        raise ValueError(f"cannot parse {raw!r} as a value")
    text = raw.strip()
    low = text.lower()
    if low in ("bot", "⊥"):
        return BOT
    if low in ("inf", "∞"):
        return INF
    if low == "true":
        return TRUE
    if low == "false":
        return FALSE
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
        parts = split_top_level(inner)
        if any(not p.strip() for p in parts):
            raise ValueError(f"empty tuple component in {raw!r}")
        return tuple_val(parse_value(p) for p in parts)
    # a decimal point or exponent can give the fraction more digits than
    # the literal has: hold them to the limit that printing obeys, and
    # reject an exponent beyond it (with a nonzero mantissa of n
    # characters, |exponent| > limit + n means too many digits) before
    # Fraction builds 10**exponent
    decimal = "." in text or "e" in low
    if decimal:
        # (CPython's default limit where none is set, or none is available)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        too_long = ValueError(f"value has more than {limit} digits in its numerator or denominator")
        mantissa, _, exponent = low.partition("e")
        exponent = exponent.lstrip("+-")
        if exponent.isdecimal() and (len(exponent) > 20 or int(exponent) > limit + len(mantissa)):
            raise too_long
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {raw!r} as a value") from exc
    if decimal:
        big = max(abs(frac.numerator), frac.denominator)  # 2**(3*limit) < 10**limit
        if big.bit_length() > 3 * limit and big >= 10**limit:
            raise too_long
    if frac < 0:
        raise ValueError(f"negative value {raw!r} is not in any carrier")
    return _trusted_finite(frac)


def candidates(a: np.ndarray, b: np.ndarray, bound: np.ndarray) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with a[i, j] + b[j, k] > bound[i, k] in some
    factor, in lexicographic order.

    ``a``, ``b`` and ``bound`` have shapes (I, J, F), (J, K, F) and (I,
    K, F); the sweep takes one middle index j at a time.  A NaN sum is
    an absorbed bottom and never exceeds the bound.
    """
    triples: list[tuple[int, int, int]] = []
    with np.errstate(invalid="ignore"):
        for j in range(a.shape[1]):
            s = a[:, j, None, :] + b[None, j, :, :]
            bad = (s > bound).any(axis=2)
            triples.extend((int(i), j, int(k)) for i, k in np.argwhere(bad))
    triples.sort()
    return triples


def dense_candidates(a: np.ndarray, b: np.ndarray, bound: np.ndarray) -> list[tuple[int, int, int]]:
    """``qcat.maxplus.candidates`` as it was before the ordered boxes:
    every row and column of each middle index, one factor at a time.

    Every (i, j, k) with a[i, j] + b[j, k] > bound[i, k] in some
    factor, in lexicographic order.

    ``a``, ``b`` and ``bound`` have shapes (I, J, F), (J, K, F) and (I,
    K, F); the sweep takes one middle index j at a time, and ORs the 2-D
    mask of each factor into that of the first.  A NaN sum is an
    absorbed bottom and never exceeds the bound.
    """
    triples: list[tuple[int, int, int]] = []
    (a0, b0, bound0), *rest = [(a[..., f], b[..., f], bound[..., f]) for f in range(a.shape[2])]
    with np.errstate(invalid="ignore"):
        for j in range(a.shape[1]):
            bad = a0[:, j, None] + b0[j] > bound0
            for x, y, z in rest:
                bad |= x[:, j, None] + y[j] > z
            if bad.any():
                triples.extend((i, j, k) for i, k in np.argwhere(bad).tolist())
    triples.sort()
    return triples


# ---------------------------------------------------------------------------
# The CLI's writer before it streamed: every matrix as plain rows of str,
# the whole document one string, each edge of the underlying preorder one
# Python step.  Kept verbatim as the references for tests/test_stream.py.
# ---------------------------------------------------------------------------

import json  # noqa: E402
from itertools import chain  # noqa: E402
from json.encoder import encode_basestring  # noqa: E402

from qcat.quantale import format_value  # noqa: E402


def dump(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)``
    plus a newline, byte for byte, at C speed per row: ``indent`` puts
    the stdlib on its pure-Python encoder, one call per entry."""
    return _encode(data, "\n") + "\n"


def _encode(o: object, nl: str) -> str:
    # nl is the newline plus the indent of o's own line.  Dicts keyed by
    # str and lists recurse; lists of str and lists of non-empty rows of
    # str are joined by C-level encode_basestring; None, bools and ints
    # are written as the stdlib writes them.  Everything else goes
    # to the stdlib, re-indented: JSON escapes every newline inside a
    # string, so each "\n" it writes is structural.
    inner = nl + "  "
    sep = "," + inner
    t = type(o)
    if t is str:
        return encode_basestring(o)
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    if t is int:  # the stdlib's own call, which raises past the digit limit
        return int.__repr__(o)
    if t is dict and o and set(map(type, o)) == {str}:
        items = (encode_basestring(k) + ": " + _encode(o[k], inner) for k in sorted(o))
        return "{" + inner + sep.join(items) + nl + "}"
    if t is list and o:
        types = set(map(type, o))
        if types == {str}:
            return "[" + inner + sep.join(map(encode_basestring, o)) + nl + "]"
        if types == {list} and all(o) and set(map(type, chain.from_iterable(o))) == {str}:
            cell = "," + inner + "  "
            rows = (
                "[" + inner + "  " + cell.join(map(encode_basestring, r)) + inner + "]" for r in o
            )
            return "[" + inner + sep.join(rows) + nl + "]"
        return "[" + inner + sep.join(_encode(x, inner) for x in o) + nl + "]"
    return json.dumps(o, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", nl)


def format_rows(index: tuple[Sequence[QVal], np.ndarray]) -> list[list[str]]:
    """The text of each entry of an indexed matrix, formatting each
    distinct value once."""
    values, positions = index
    text = [format_value(v) for v in values]
    return [list(map(text.__getitem__, row.tolist())) for row in positions]


def sorted_underlying(c: VCategory) -> list[tuple[str, str]]:
    """``sorted(underlying_preorder(c))``: ``leq`` runs once per distinct
    value, and the index pairs are ordered by the ranks of their labels,
    so that only the objects are sorted as strings."""
    q, obj = c.quantale, c.objects
    u = unit(q)
    values, positions = c._index
    i, j = np.nonzero(np.array([leq(q, u, v) for v in values], bool)[positions])
    rank = np.empty(len(obj), np.intp)
    rank[sorted(range(len(obj)), key=obj.__getitem__)] = np.arange(len(obj))
    order = np.lexsort((rank[j], rank[i]))
    return [(obj[a], obj[b]) for a, b in zip(i[order].tolist(), j[order].tolist())]


def preorder_dot(objects: Sequence[str], edges: Iterable[tuple[str, str]]) -> str:
    """Render a preorder in DOT: one node per object, one edge per
    non-identity relation, sorted for byte stability.  Each distinct
    label is quoted once."""
    edges = sorted(edges)
    labels = set(objects).union(itertools.chain.from_iterable(edges))
    q = {s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in labels}
    lines = ["digraph preorder {"]
    lines += [f"  {q[o]};" for o in objects]
    lines += [f"  {q[a]} -> {q[b]};" for a, b in edges if a != b]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The law encoder as it was when every leaf row carried its own copy of the
# tolerance: per-leaf offsets and per-leaf float tolerances, the first float
# pass through ``float``.  Kept verbatim, with each leaf's tolerance read
# from its plain descriptor, as the reference for tests/test_sweep.py.
# ---------------------------------------------------------------------------

from qcat import maxplus  # noqa: E402


def leaf_tolerances(q: QuantaleDescriptor) -> list[Fraction]:
    """The tolerance each leaf row held, depth first."""
    if q.kind is Kind.PRODUCT:
        return [t for f in q.factors for t in leaf_tolerances(f)]
    return [Fraction(q.tolerance)]


def _scale(q, blocks):
    finite = _finite_values(q, blocks)
    scale = math.lcm(*{x.denominator for x in finite})
    offsets = [math.floor(t * scale) for t in leaf_tolerances(q)]
    dtype = float if max([max(finite, default=0) * scale, *offsets]) <= maxplus.EXACT_LIMIT else object
    return lambda x: x.numerator * (scale // x.denominator), scale, offsets, dtype


def exact_offsets(q, *blocks) -> np.ndarray:
    _, _, offsets, dtype = _scale(q, blocks)
    return np.array(offsets, dtype)


def law_encode(q, *blocks):
    _FLOAT_BITS, _U, _ETA = maxplus._FLOAT_BITS, maxplus._U, maxplus._ETA
    tols = [float(t) for t in leaf_tolerances(q)]
    if not any(tols):
        code, _, _, dtype = _scale(q, blocks)
        if dtype is float:
            codes = _arrays(q, blocks, code)
            return codes, codes
    shift = 0
    try:
        arrays = _arrays(q, blocks, float)
        fits = all(np.abs(a[np.isfinite(a)]).max(initial=max(tols)) < 2.0**_FLOAT_BITS
                   for a in arrays)
    except OverflowError:  # a value of 2^1024 or more
        fits = False
    if not fits:
        # 2^e bounds a float t with e = frexp(t)[1], and a fraction whose
        # numerator and denominator have n and d bits with e = n - d + 1
        shift = max([math.frexp(t)[1] for t in tols] + [
            x.numerator.bit_length() - x.denominator.bit_length() + 1
            for x in _finite_values(q, blocks)
        ]) - _FLOAT_BITS
        arrays = _arrays(q, blocks, lambda x: x.numerator / (x.denominator << shift))
    tol = np.array([math.ldexp(t, -shift) for t in tols])
    with np.errstate(invalid="ignore"):
        # the margin covers the rounding of each code, of a sum of two and
        # of the bound itself; infinite codes are exact and bound themselves
        bounds = [np.where(np.isfinite(c), c + tol - (8 * _U * (np.abs(c) + tol) + 16 * _ETA), c)
                  for c in arrays]
    return arrays, bounds


# ---------------------------------------------------------------------------
# Equality and hashing of categories and modules as the dataclasses made
# them when ``hom`` and ``mat`` were eager tuples: the fields compared as
# tuples, value by value, and all of them hashed.  Kept verbatim (the
# endpoints of a module compared and hashed the same way) as the
# references for tests/test_equality.py.
# ---------------------------------------------------------------------------


def category_eq(a: VCategory, b: VCategory):
    if b.__class__ is a.__class__:
        return (a.quantale, a.objects, a.hom) == (b.quantale, b.objects, b.hom)
    return NotImplemented


def category_hash(c: VCategory) -> int:
    return hash((c.quantale, c.objects, c.hom))


def module_eq(a: VModule, b: VModule):
    if b.__class__ is a.__class__:
        return category_eq(a.source, b.source) and category_eq(a.target, b.target) and a.mat == b.mat
    return NotImplemented


# ---------------------------------------------------------------------------
# The value layer as it was when every index held a list of QVal: the file
# parser building one QVal per distinct string, the law encoder and the
# scale step reading each value's Fraction, the CLI's matrix writer
# formatting each value, and the sprinkle's values built from the floats'
# integer ratios.  Kept verbatim (the parser on the parse_value above) as
# the references for tests/test_columns.py; ``_arrays`` and
# ``_finite_values`` also serve the per-leaf law encoder above.
# ---------------------------------------------------------------------------

from numbers import Rational  # noqa: E402
from typing import Callable  # noqa: E402

from qcat.quantale import _NEG, _POS  # noqa: E402


def parse_rows(rows: object, where: str, memo: dict[str, QVal], ncols: int) -> tuple:
    if not isinstance(rows, list):
        raise ValueError(f"{where}: expected a matrix")
    values: list[QVal] = []
    ids: dict[int, int] = {}  # id(v) -> its position in values
    slot: dict[str, int] = {}  # a string of this matrix -> its value's position
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}]: expected a row")
        try:  # a row of strings seen before in this matrix
            out.append(list(map(slot.__getitem__, row)))
            continue
        except (KeyError, TypeError):
            pass
        if all(map(str.__instancecheck__, row)):
            # a row of strings: parse its new ones once each, in order of
            # first appearance, so the first to fail is its first bad entry
            for key in dict.fromkeys(row):
                if key in slot:
                    continue
                v = memo.get(key)
                if v is None:
                    try:
                        v = parse_value(key)
                    except ValueError as exc:
                        raise ValueError(f"{where}[{i}][{row.index(key)}]: {exc}") from None
                    memo[key] = v
                k = slot[key] = ids.setdefault(id(v), len(values))
                if k == len(values):
                    values.append(v)
            out.append(list(map(slot.__getitem__, row)))
            continue
        ks = []
        for j, raw in enumerate(row):
            key = raw if isinstance(raw, str) else None
            v = memo.get(key)
            if v is None:
                try:
                    v = parse_value(raw)
                except ValueError as exc:
                    raise ValueError(f"{where}[{i}][{j}]: {exc}") from None
                if key is not None:
                    memo[key] = v
            k = ids.setdefault(id(v), len(values))
            if k == len(values):
                values.append(v)
            if key is not None:
                slot[key] = k
            ks.append(k)
        out.append(ks)
    if any(len(ks) != ncols for ks in out):
        return tuple(tuple(map(values.__getitem__, ks)) for ks in out), None
    return None, (values, np.array(out, np.intp).reshape(len(out), ncols))


def _leaves(v: QVal) -> tuple[QVal, ...]:
    if v.tag is Tag.TUPLE:
        return tuple(x for p in v.value for x in _leaves(p))
    return (v,)


def _arrays(
    q: QuantaleDescriptor, blocks, code: Callable[[Rational], float | int], dtype=float
) -> list[np.ndarray]:
    leaves = q._leaves
    nf, fin, neg, pos = len(leaves), Tag.FINITE, -math.inf, math.inf
    out = []
    for values, positions in blocks:
        # (a column read as the list it stands for)
        flat = list(values) if q._leaf is not None else [x for v in values for x in _leaves(v)]
        arr = np.empty(len(flat), dtype)
        for f, leaf in enumerate(leaves):
            vals, low = flat[f::nf], leaf.bottom.tag
            if leaf.sign is None:
                arr[f::nf] = [0 if v.value else neg for v in vals]
            elif leaf.sign > 0:
                arr[f::nf] = [code(v.value) if v.tag is fin else neg if v.tag is low else pos for v in vals]
            else:
                arr[f::nf] = [-code(v.value) if v.tag is fin else neg if v.tag is low else pos for v in vals]
        out.append(arr.reshape(len(values), nf)[positions])
    return out


def _finite_values(q: QuantaleDescriptor, blocks) -> list[Rational]:
    return [x.value for values, _ in blocks for v in values for x in _leaves(v) if x.tag is Tag.FINITE]


def scale_step(q: QuantaleDescriptor, blocks):
    finite = _finite_values(q, blocks)
    scale = math.lcm(*{x.denominator for x in finite})
    offset = math.floor(q._tol * scale)
    dtype = float if max(max(finite, default=0) * scale, offset) <= maxplus.EXACT_LIMIT else object
    return lambda x: x.numerator * (scale // x.denominator), scale, offset, dtype


def exact_codes(q: QuantaleDescriptor, *blocks):
    code, scale, offset, dtype = scale_step(q, blocks)
    return _arrays(q, blocks, code, dtype), np.full(len(q._leaves), offset, dtype), scale


def one_tolerance_law_encode(q: QuantaleDescriptor, *blocks):
    _FLOAT_BITS, _U, _ETA = maxplus._FLOAT_BITS, maxplus._U, maxplus._ETA
    t = q._tol
    if not t:
        exact, _, _, dtype = scale_step(q, blocks)
        if dtype is float:
            codes = _arrays(q, blocks, exact)
            return codes, codes
    shift = 0

    def code(x: Rational) -> float:  # x * 2^-shift, correctly rounded
        return x.numerator / (x.denominator << shift)

    try:
        arrays, tol = _arrays(q, blocks, code), code(t)
        fits = all(np.abs(a[np.isfinite(a)]).max(initial=tol) < 2.0**_FLOAT_BITS for a in arrays)
    except OverflowError:  # a value of 2^1024 or more
        fits = False
    if not fits:
        # 2^e bounds a fraction whose numerator and denominator have n
        # and d bits, with e = n - d + 1
        shift = max(x.numerator.bit_length() - x.denominator.bit_length() + 1
                    for x in [t, *_finite_values(q, blocks)]) - _FLOAT_BITS
        arrays, tol = _arrays(q, blocks, code), code(t)
    with np.errstate(invalid="ignore"):
        # the margin covers the rounding of each code, of a sum of two and
        # of the bound itself; infinite codes are exact and bound themselves
        bounds = [np.where(np.isfinite(c), c + tol - (8 * _U * (np.abs(c) + tol) + 16 * _ETA), c)
                  for c in arrays]
    return arrays, bounds


def decode(q: QuantaleDescriptor, arr: np.ndarray, scale: int):
    from qcat.quantale import _build, _decode

    rows, cols, nf = arr.shape
    slot: dict[tuple, int] = {}  # a code tuple -> its position among the values
    keys = map(tuple, arr.reshape(-1, nf).tolist())
    positions = np.fromiter((slot.setdefault(k, len(slot)) for k in keys), np.intp, rows * cols)

    def code(x):  # a pole as the quantale's own object, a finite code unscaled
        return _NEG if x == _NEG else _POS if x == _POS else Fraction(x) / scale

    return [_build(q, map(_decode, q._leaves, map(code, k))) for k in slot], positions.reshape(rows, cols)


def matrix(index, nl: str):
    values, positions = index
    if not positions.size:  # no rows, or rows of no entries
        yield _encode([[]] * len(positions), nl)
        return
    texts = np.empty(len(values), object)
    texts[:] = [encode_basestring(format_value(v)) for v in values]
    inner = nl + "  "
    cell, row, close = "," + inner + "  ", "[" + inner + "  ", inner + "]"
    lead = "[" + inner + row
    for p in positions:
        yield lead + cell.join(texts[p].tolist()) + close
        lead = "," + inner + row
    yield nl + "]"


def minkowski_sample(n: int, seed: int, bounds=(0.0, 1.0, 0.0, 1.0)):
    """The sprinkle's labels, distinct values (a list of QVal, after bot)
    and positions, as ``qcat.minkowski_sample`` built them from the floats'
    integer ratios."""
    import random

    from qcat.causal import Event2D

    t0, t1, x0, x1 = bounds
    rng = random.Random(seed)
    events = []
    for _ in range(n):
        t = t0 + (t1 - t0) * rng.random()
        x = x0 + (x1 - x0) * rng.random()
        events.append(Event2D(t, x))
    labels = tuple(f"p{i}" for i in range(n))
    # interval_2d on every pair at once: the same IEEE operations, so the
    # same square roots; one value per causal pair, after bot
    t, x = np.array([(e.t, e.x) for e in events]).reshape(n, 2).T
    dt, dx = t - t[:, None], np.abs(x - x[:, None])  # from the row's event to the column's
    causal = dt >= dx
    a, b, bot = dt[causal], dx[causal], int(not causal.all())
    positions = np.zeros((n, n), np.intp)
    positions[causal] = np.arange(bot, bot + len(a))
    # dt >= dx >= 0, so every square root is a finite float >= 0
    roots = np.sqrt(a * a - b * b).tolist()
    values = [BOT] * bot + [_trusted_finite(Fraction(*s.as_integer_ratio())) for s in roots]
    return labels, values, positions


# ---------------------------------------------------------------------------
# The file layer's matrix parser as it was when each new string of a row was
# read by itself, in the row loop: ``memo.get``, then ``_digits`` or
# ``_parse_text``; and the column's gcd step as it was when it divided
# every pair.  Kept verbatim, but for their names, as the references for
# tests/test_parse_once.py; ``parse_value`` here is the copy above, which
# reads every non-string as the library does.
# ---------------------------------------------------------------------------

import operator  # noqa: E402

from qcat.maxplus import _ints, _small  # noqa: E402
from qcat.quantale import _digits, _parse_text  # noqa: E402


def reduced(nums: Sequence[int], dens: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators >= 1, divided by their gcd, as the
    arrays of a column."""
    num, den = _ints(nums), _ints(dens)
    if _small(num) and _small(den):
        g = np.gcd(num, den)
        return num // g, den // g
    gs = list(map(math.gcd, nums, dens))
    return _ints(list(map(operator.floordiv, nums, gs))), _ints(list(map(operator.floordiv, dens, gs)))


def parse_rows_per_key(rows: object, where: str, memo: dict[str, object], ncols: int) -> tuple:
    """Parse a JSON matrix of values; a bad entry raises naming
    ``where[i][j]``.

    Returns the ``hom``/``mat`` and ``_index`` arguments of the
    constructor: ``(None, index)``, values in order of first appearance
    as a column (:class:`qcat.maxplus.Column`), or ``(rows, None)`` for its
    walk to raise when a row has not ``ncols`` entries.  The constructor
    checks the values against its base's carrier.

    Each row reads its new keys once, in order of first appearance, so the
    first bad entry in row-major order raises.  A string is its own key,
    read once per file (``memo``): plain digits, ``d`` or ``d/d``, as two
    ints, reduced by their gcd once the matrix is read, and any other text
    by ``parse_value``.  Any other entry is keyed by its position, which no
    entry equals, because JSON ``true``, ``1`` and ``1.0`` are equal keys
    that parse to different values.
    """
    if not isinstance(rows, list):
        raise ValueError(f"{where}: expected a matrix")
    tags: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    built: dict[int, QVal] = {}  # the slots of values that parse_value built
    ids: dict[int, int] = {}  # id(v) -> its slot
    slot: dict[object, int] = {}  # a key of this matrix -> its slot
    at = object()  # the mark of a position key, (at, i, j)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}]: expected a row")
        try:  # a row of strings seen before in this matrix
            out.append(list(map(slot.__getitem__, row)))
            continue
        except (KeyError, TypeError):
            pass
        keys = row if all(map(str.__instancecheck__, row)) else [
            raw if isinstance(raw, str) else (at, i, j) for j, raw in enumerate(row)
        ]
        for key in dict.fromkeys(keys):
            if key in slot:
                continue
            try:
                if isinstance(key, str):
                    e = memo.get(key)
                    if e is None:
                        e = memo[key] = _digits(key) or _parse_text(key)
                else:
                    e = parse_value(row[key[2]])
            except ValueError as exc:
                j = row.index(key) if isinstance(key, str) else key[2]
                raise ValueError(f"{where}[{i}][{j}]: {exc}") from None
            if type(e) is tuple:  # a (numerator, denominator): a new slot
                slot[key] = len(tags)
                t, (p, d) = maxplus._FIN, e
            else:  # a value: a new slot, unless it was read before
                k = slot[key] = ids.setdefault(id(e), len(tags))
                if k < len(tags):
                    continue
                built[k] = e
                t, p, d = maxplus._entry(e)
            tags.append(t)
            nums.append(p)
            dens.append(d)
        out.append(list(map(slot.__getitem__, keys)))
    values = maxplus.Column(np.array(tags, np.int8), *maxplus._reduced(nums, dens), built)
    if any(len(ks) != ncols for ks in out):
        return tuple(tuple(map(values.__getitem__, ks)) for ks in out), None
    return None, (values, np.array(out, np.intp).reshape(len(out), ncols))
