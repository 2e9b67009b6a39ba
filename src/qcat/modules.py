"""Modules (profunctors) between enriched categories and Cauchy theory.

A module M: D -/-> E is a matrix ``mat[X][A]`` indexed by a target
object X in E and a source object A in D, compatible with both hom
actions:

* left action:   E(Y,X) tensor M(X,A) <= M(Y,A)
* right action:  M(X,A) tensor D(A,B) <= M(X,B)

Composition takes joins of tensors over the middle category.  A module
out of the one-object category I is Cauchy when it has a right adjoint;
in the posetal setting the adjoint, when it exists, is the canonical
residual matrix, which makes Cauchyness a decision procedure.  A
category is Cauchy complete when every Cauchy module into it is
representable, i.e. a hom column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import maxplus
from .maxplus import check_matrix
from .category import (
    VCategory,
    _checked,
    _category_from_json,
    _format_rows,
    _law_violations,
    _located,
    _parse_rows,
    category_to_json,
    unit_category,
    validate_category,
)
from .quantale import (
    _ZERO,
    QVal,
    _build,
    _code,
    _decode,
    _diff,
    eq,
    format_value,
    leq,
    qval_sort_key,
    unit,
)


@dataclass(frozen=True)
class VModule:
    """Rectangular matrix of quantale values between two categories,
    indexed (target object, source object); ``mat`` and ``_index`` as
    ``hom`` and ``_index`` in :class:`qcat.category.VCategory`.  Equality
    compares the source, the target and the values entry by entry; the
    hash covers the source and the target."""

    source: VCategory
    target: VCategory
    mat: tuple[tuple[QVal, ...], ...] = maxplus.Rows()
    _index: maxplus.Block | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.source.quantale != self.target.quantale:
            raise ValueError("module endpoints must share a quantale")
        object.__setattr__(self, "_index", _checked(self, "mat", "module", (
            len(self.target), "target objects"), (len(self.source), "source objects")))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.source == other.source and self.target == other.target
                                 and maxplus.same(self._index, other._index))

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    @property
    def quantale(self):
        return self.source.quantale


@dataclass(frozen=True)
class ModuleReport:
    """Action violations of a candidate module."""

    left_violations: tuple[tuple[str, str, str, QVal, QVal], ...]
    right_violations: tuple[tuple[str, str, str, QVal, QVal], ...]

    @property
    def ok(self) -> bool:
        return not self.left_violations and not self.right_violations

    def to_json(self) -> dict:
        def rows(vs):
            return [
                {"at": list(ix), "composite": format_value(a), "entry": format_value(b)}
                for *ix, a, b in vs
            ]

        return {
            "ok": self.ok,
            "left_violations": rows(self.left_violations),
            "right_violations": rows(self.right_violations),
        }


def validate_module(m: VModule) -> ModuleReport:
    """List every left/right action violation, in (Y, X, A) and (X, A, B)
    order; empty lists mean valid.  Both are swept as composition laws
    on one encoding of E, D and M, as in ``validate_category``."""
    q = m.quantale
    e, d = m.target, m.source
    (ea, da, ma), (_, _, bound) = maxplus.law_encode(q, e._index, d._index, m._index)
    left = _law_violations(
        q, e._index, m._index, m._index, (e.objects, e.objects, d.objects),
        maxplus.candidates(ea, ma, bound),
    )
    right = _law_violations(
        q, m._index, d._index, m._index, (e.objects, d.objects, d.objects),
        maxplus.candidates(ma, da, bound),
    )
    return ModuleReport(left, right)


def identity_module(c: VCategory) -> VModule:
    """The hom matrix of C seen as a module C -/-> C."""
    return VModule(c, c, None, c._index)


def compose(m: VModule, n: VModule) -> VModule:
    """Composite m . n of m: D -/-> E with n: C -/-> D.

    Entry (X, P) is the join over middle objects A of
    M(X, A) tensor N(A, P); an empty middle gives bottom.  It is
    computed exactly as the max-plus product max_A M[X, A] + N[A, P] of
    the matrices' exact codes (see :mod:`qcat.maxplus`), and does not
    depend on the tolerance.
    """
    if m.source != n.target:
        raise ValueError("modules are not composable: source of the first must be the target of the second")
    q = m.quantale
    (ma, na), _, scale = maxplus.exact_codes(q, m._index, n._index)
    return VModule(n.source, m.target, None, maxplus.decode(q, maxplus.product(ma, na), scale))


def representable(c: VCategory, label: str) -> VModule:
    """The module I -/-> C picking out an object: the hom column at it."""
    p = c.index(label)
    i = unit_category(c.quantale)
    values, positions = c._index
    return VModule(i, c, [(values[k],) for k in positions[:, p].tolist()])


def corepresentable(c: VCategory, label: str) -> VModule:
    """The module C -/-> I of an object: the hom row at it."""
    p = c.index(label)
    i = unit_category(c.quantale)
    values, positions = c._index
    return VModule(c, i, [[values[k] for k in positions[p].tolist()]])


def canonical_right_adjoint(m: VModule) -> VModule:
    """The largest candidate right adjoint of m: D -/-> E.

    N(A, X) is the meet over Y in E of the residual of M(Y, A) into
    E(Y, X): entrywise the largest matrix satisfying the counit
    inequality.  Posetal adjoints are unique, so if m has any right
    adjoint this one works.  Each column of M is one module I -/-> E
    for :func:`qcat.maxplus._right_adjoint`, on exact codes.
    """
    q = m.quantale
    d, e = m.source, m.target
    (hom, mat), _, scale = maxplus.exact_codes(q, e._index, m._index)
    adj = maxplus._right_adjoint(q, hom, mat.transpose(1, 0, 2))
    return VModule(e, d, None, maxplus.decode(q, adj, scale))


@dataclass(frozen=True)
class AdjunctionReport:
    """Unit/counit status of a candidate adjunction m -| n, with the
    failing indices and values."""

    unit_ok: bool
    counit_ok: bool
    unit_failures: tuple[tuple[str, str, QVal, QVal], ...]
    counit_failures: tuple[tuple[str, str, QVal, QVal], ...]

    @property
    def ok(self) -> bool:
        return self.unit_ok and self.counit_ok

    def to_json(self) -> dict:
        return {
            "unit_ok": self.unit_ok,
            "counit_ok": self.counit_ok,
            "unit_failures": [
                {"at": [a, b], "hom": format_value(h), "composite": format_value(c)}
                for a, b, h, c in self.unit_failures
            ],
            "counit_failures": [
                {"at": [x, y], "composite": format_value(c), "hom": format_value(h)}
                for x, y, c, h in self.counit_failures
            ],
        }


def check_adjunction(m: VModule, n: VModule) -> AdjunctionReport:
    """Check m -| n for m: D -/-> E, n: E -/-> D.

    Unit: D(A, B) <= (n . m)(A, B) entrywise.
    Counit: (m . n)(X, Y) <= E(X, Y) entrywise.
    """
    if n.source != m.target or n.target != m.source:
        raise ValueError("adjunction candidates must be composable both ways")
    q, d, e = m.quantale, m.source, m.target
    unit_failures = _failures(q, d.objects, d.hom, compose(n, m).mat)
    counit_failures = _failures(q, e.objects, compose(m, n).mat, e.hom)
    return AdjunctionReport(not unit_failures, not counit_failures, unit_failures, counit_failures)


def _failures(q, objects: tuple[str, ...], low: Sequence[Sequence[QVal]],
              high: Sequence[Sequence[QVal]]) -> tuple:
    """(X, Y, low(X, Y), high(X, Y)) wherever low(X, Y) <= high(X, Y)
    fails, in (X, Y) order."""
    ix = range(len(objects))
    return tuple((objects[x], objects[y], low[x][y], high[x][y])
                 for x in ix for y in ix if not leq(q, low[x][y], high[x][y]))


def _require_unit_source(m: VModule) -> None:
    src = m.source
    q = m.quantale
    if len(src.objects) != 1 or not eq(q, src.hom[0][0], unit(q)):
        raise ValueError("module source must be the one-object unit category")


def _labels(c: VCategory, mask: np.ndarray) -> tuple[str, ...]:
    """The objects of C where ``mask`` holds, in order."""
    return tuple(c.objects[z] for z in np.flatnonzero(mask))


def _cauchy_decision(m: VModule) -> tuple[bool, tuple[str, ...], str | None]:
    """Whether a module I -/-> E is Cauchy, every object that represents
    it, and its first unit witness, decided once on exact codes.

    The unit compares the source's own endohom, which need only be
    within the tolerance of the unit, with max over z of N(z) + M(z) for
    the canonical right adjoint N; the counit holds by construction
    (README, "How the module calculus runs").  The witness is the first
    z with unit <= N(z) tensor M(z).
    """
    _require_unit_source(m)
    q, e = m.quantale, m.target
    (hom, col, src), tol, _ = maxplus.exact_codes(q, e._index, m._index, m.source._index)
    col = col.transpose(1, 0, 2)  # the one module as a row, (1, n, F)
    rows, (witness,) = maxplus.cauchy_columns(q, hom, col, tol, src[0, 0] - tol)
    witness = _labels(e, witness)
    return rows.size > 0, _labels(e, maxplus._represents(hom, col, tol)[0]), (witness or (None,))[0]


def is_cauchy(m: VModule) -> bool:
    """Whether a module I -/-> E has a right adjoint."""
    return _cauchy_decision(m)[0]


def representing_objects(m: VModule) -> tuple[str, ...]:
    """All objects Z with M(Y) = E(Y, Z) for every Y, in label order."""
    return _cauchy_decision(m)[1]


def find_representing(m: VModule) -> str | None:
    """First object representing m, or None."""
    matches = representing_objects(m)
    return matches[0] if matches else None


def cauchy_witness(m: VModule, n: VModule) -> str | None:
    """First object Z with unit <= N(Z) tensor M(Z), for an adjoint pair.

    Over the causal base such a Z always exists and represents m; over
    a product quantale the join witnessing the unit can be spread over
    several objects, in which case there is no single witness and this
    returns None.
    """
    _require_unit_source(m)
    if not check_adjunction(m, n).ok:
        raise ValueError("cauchy_witness requires an adjoint pair")
    (col, row), tol, _ = maxplus.exact_codes(m.quantale, m._index, n._index)
    witness = _labels(m.target, (maxplus._tensor(row[0], col[:, 0]) >= -tol).all(axis=1))
    return (witness or (None,))[0]


_GRID_CAP = 64


class _GridTooLarge(ValueError):
    """A default module grid past its cap."""


def _closure_values(q, values: Sequence[QVal], cap: int) -> set[QVal]:
    """The values whose leaves lie in each leaf's closure: its values in
    ``values``, bottom, unit and top, closed under the leaf residual."""
    too_many = _GridTooLarge(f"default module grid exceeded {cap} values; pass an explicit grid")
    closures = []
    for leaf, column in zip(q._leaves, maxplus._factors(q, values)):
        seen = set(column) | {leaf.bottom, _decode(leaf, _ZERO), leaf.top}
        while len(seen) <= cap:
            fresh = {_decode(leaf, _diff(_code(leaf, a), _code(leaf, b))) for a in seen for b in seen}
            if fresh <= seen:
                break
            seen |= fresh
        if len(seen) > cap:
            raise too_many
        closures.append(seen)
    if math.prod(map(len, closures)) > cap:
        raise too_many
    return {_build(q, iter(p)) for p in iproduct(*closures)}


def default_module_grid(c: VCategory, cap: int = _GRID_CAP) -> tuple[QVal, ...]:
    """Hom values with bottom, unit and top, closed under residuals;
    for product quantales the closure is componentwise (the cartesian
    product of the factor closures), since adjoint candidates are built
    from componentwise residuals.

    Raises if the closure exceeds ``cap`` distinct values.
    """
    values = c._index[0] or [unit(c.quantale)]
    return tuple(sorted(_closure_values(c.quantale, values, cap), key=qval_sort_key))


def _grid_codes(c: VCategory, grid: Iterable[QVal]):
    """The grid in order, checked against C's carrier before the sort,
    whose key orders one carrier's values only, and the exact codes of C's
    homs and of the grid, (n, n, F) and (K, F), with the tolerance offsets
    (:func:`qcat.maxplus.exact_codes`)."""
    given = tuple(dict.fromkeys(grid))
    column, _ = check_matrix(c.quantale, (given,), len(given), lambda i, k: f"grid has {k} values")
    order = sorted(range(len(given)), key=lambda k: qval_sort_key(given[k]))
    (e, g), tol, _ = maxplus.exact_codes(c.quantale, c._index, (column, np.array([order], np.intp)))
    return tuple(given[k] for k in order), e, g[0], tol


def _columns(c: VCategory, vals: tuple[QVal, ...], blocks: Iterable[np.ndarray]) -> Iterator[VModule]:
    """The modules I -/-> C whose entries are the grid values at each row
    of ``blocks``, all against one unit category."""
    i_cat = unit_category(c.quantale)
    for block in blocks:
        for row in block.tolist():
            yield VModule(i_cat, c, tuple((vals[x],) for x in row))


def enumerate_modules_into(c: VCategory, grid: Iterable[QVal]) -> Iterator[VModule]:
    """All modules I -/-> C with entries drawn from ``grid``, lazily.

    Enumerated column-wise in grid order: the columns come in
    lexicographic order of their entries' grid positions, and a partial
    column is abandoned as soon as some pair violates the left action
    (:func:`qcat.maxplus.module_blocks`).
    """
    vals, e, g, tol = _grid_codes(c, grid)
    yield from _columns(c, vals, maxplus.module_blocks(e, g, tol))


@dataclass(frozen=True)
class CauchyFinding:
    module: VModule
    representing: str | None
    witness: str | None


class CompletenessReport:
    """Result of an exhaustive Cauchy-completeness search over a grid.

    ``findings`` lists every Cauchy module found, with its representing
    object and unit witness when they exist; ``counterexamples`` are
    the Cauchy modules that no object represents.  Deterministic: both
    are sorted by matrix order regardless of evaluation order.

    Each finding is held as a row of positions into the report's values
    (the grid's, then, for findings given by hand, their entries), with
    its representing and witness labels.  The search gives only those;
    the modules are built on the first read of ``findings``, all against
    one unit category, and kept.  Equality compares the category,
    the grid, ``modules_checked`` and the findings.
    """

    def __init__(self, category: VCategory, grid: Sequence[QVal], modules_checked: int,
                 findings: Sequence[CauchyFinding]) -> None:
        findings, grid = tuple(findings), tuple(grid)
        entries = tuple(v for f in findings for (v,) in f.module.mat)
        rows = np.arange(len(grid), len(grid) + len(entries)).reshape(len(findings), len(category))
        self._hold(category, grid, modules_checked, grid + entries, rows,
                   tuple(f.representing for f in findings), tuple(f.witness for f in findings))
        self._findings = findings

    def _hold(self, category: VCategory, grid: tuple[QVal, ...], modules_checked: int,
              values: tuple[QVal, ...], rows: np.ndarray, reps: tuple, wits: tuple) -> None:
        self.category, self.grid, self.modules_checked = category, grid, modules_checked
        self._values, self._rows, self._reps, self._wits = values, rows, reps, wits
        self._findings = None

    @property
    def findings(self) -> tuple[CauchyFinding, ...]:
        if self._findings is None:
            modules = _columns(self.category, self._values, (self._rows,))
            self._findings = tuple(map(CauchyFinding, modules, self._reps, self._wits))
        return self._findings

    @property
    def counterexamples(self) -> tuple[VModule, ...]:
        return tuple(f.module for f in self.findings if f.representing is None)

    @property
    def complete(self) -> bool:
        return None not in self._reps

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or ((self.category, self.grid, self.modules_checked, self.findings)
                                 == (other.category, other.grid, other.modules_checked, other.findings))

    def __hash__(self) -> int:
        return hash((self.category, self.grid, self.modules_checked))

    def to_json(self) -> dict:
        # each value is formatted once, and each finding's column gathered
        # from those texts by its row
        text = np.array(maxplus.texts(self._values), object)
        columns = text[self._rows].tolist()
        return {
            "complete": self.complete,
            "grid": text[: len(self.grid)].tolist(),
            "modules_checked": self.modules_checked,
            "cauchy_count": len(columns),
            "cauchy": [
                {"column": col, "representing": z, "witness": w}
                for col, z, w in zip(columns, self._reps, self._wits)
            ],
            "counterexamples": [list(col) for col, z in zip(columns, self._reps) if z is None],
        }


class _InvalidCategory(ValueError):
    """A search asked of a category that fails its own laws."""


def cauchy_completeness_report(
    c: VCategory, grid: Iterable[QVal] | None = None
) -> CompletenessReport:
    """Enumerate grid-valued modules I -/-> C, decide which are Cauchy,
    and report the Cauchy ones no object represents.

    Modules are enumerated and decided in blocks on exact codes
    (:func:`qcat.maxplus.cauchy_columns`).  The report keeps each Cauchy
    one as its row of grid indices, with the labels of its representing
    object and unit witness; no ``VModule`` is built until its
    ``findings`` are read.  Enumeration order is matrix order, so the
    findings come sorted.
    """
    if not validate_category(c).ok:
        raise _InvalidCategory("cauchy_completeness_report requires a valid category")
    vals, e, g, tol = _grid_codes(c, default_module_grid(c) if grid is None else grid)
    label = (c.objects + (None,)).__getitem__  # index n: no such object
    checked = 0
    rows, reps, wits = [np.empty((0, len(c)), np.intp)], [], []
    for block in maxplus.module_blocks(e, g, tol):
        checked += len(block)
        cauchy, witness = maxplus.cauchy_columns(c.quantale, e, g[block], tol, -tol)
        found = block[cauchy]
        rows.append(found)
        reps += map(label, maxplus._first(maxplus._represents(e, g[found], tol)).tolist())
        wits += map(label, maxplus._first(witness[cauchy]).tolist())
    report = CompletenessReport.__new__(CompletenessReport)
    report._hold(c, vals, checked, vals, np.concatenate(rows), tuple(reps), tuple(wits))
    return report


def module_to_json(m: VModule, *, _rows: Callable = _format_rows) -> dict:
    # _rows as in category_to_json
    src = "I" if m.source == unit_category(m.quantale) else category_to_json(m.source, _rows=_rows)
    return {
        "source": src,
        "target": category_to_json(m.target, _rows=_rows),
        "mat": _rows(m._index),
    }


def module_from_json(data: object, *, where: str = "module") -> VModule:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object")
    for field in ("source", "target", "mat"):
        if field not in data:
            raise ValueError(f"{where}: missing field {field!r}")
    memo: dict[str, object] = {}
    target = _category_from_json(data["target"], f"{where}.target", memo)
    raw_src = data["source"]
    if raw_src == "I":
        source = unit_category(target.quantale)
    else:
        source = _category_from_json(raw_src, f"{where}.source", memo)
    mat = _parse_rows(data["mat"], f"{where}.mat", memo, len(source.objects))
    try:
        return VModule(source, target, *mat)
    except ValueError as exc:
        raise _located(exc, where, "mat") from None

