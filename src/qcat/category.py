"""Finite categories enriched in a quantale.

A category is a list of object labels together with a square matrix of
quantale values, ``hom[i][j] = E(object_i, object_j)``, subject to

* unit law:         unit <= E(X, X)
* composition law:  E(X, Y) tensor E(Y, Z) <= E(X, Z)

Over the causal base the objects are events and ``E(X, Y)`` is the
maximal proper time from X to Y (bot when Y is not in X's future); over
the metric base they are points of a generalized metric space.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import maxplus
from .maxplus import check_matrix
from .quantale import (
    CarrierMismatch,
    Kind,
    QuantaleDescriptor,
    QVal,
    Tag,
    _digits,
    _parse_text,
    descriptor_from_json,
    descriptor_to_json,
    format_value,
    leq,
    parse_value,
    tensor,
    unit,
)


def _checked(obj, name: str, what: str, rows: tuple[int, str], cols: tuple[int, str]) -> maxplus.Block:
    """The index of ``obj``'s matrix field ``name``: its rows as given,
    checked and indexed, or else its given index, with the values checked.
    ``rows`` and ``cols`` are the expected counts, each with the name of
    the objects counted, for the messages about the ``what`` matrix."""
    given, index = obj.__dict__[name], obj._index
    if given is None and index is None:
        raise ValueError(f"{what} matrix missing: pass its rows or an index")
    (n, row_objects), (ncols, col_objects) = rows, cols
    k = len(given if given is not None else index[1])
    if k != n:
        raise ValueError(f"{what} matrix has {k} rows for {n} {row_objects}")
    return check_matrix(obj.quantale, given, ncols, lambda i, k: (
        f"{what} row {i} has {k} entries for {ncols} {col_objects}"), None if given is not None else index)


@dataclass(frozen=True)
class VCategory:
    """Object labels plus the square hom matrix over one quantale.

    The matrix is held indexed in ``_index`` (:data:`qcat.maxplus.Block`),
    which every pass reads.  Rows given as ``hom`` are indexed by
    :func:`qcat.maxplus.check_matrix` and kept; a producer that indexed the
    matrix itself passes ``hom`` None and its index, and ``hom`` is then
    gathered on first read.  Equality compares the quantale, the labels
    and the values entry by entry (:func:`qcat.maxplus.same`); the hash
    covers the quantale and the labels.
    """

    quantale: QuantaleDescriptor
    objects: tuple[str, ...]
    hom: tuple[tuple[QVal, ...], ...] = maxplus.Rows()
    _index: maxplus.Block | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        n = len(self.objects)
        if any(not isinstance(o, str) for o in self.objects):
            raise ValueError("object labels must be strings")
        if len(set(self.objects)) != n:
            raise ValueError("object labels must be unique")
        object.__setattr__(self, "_index", _checked(self, "hom", "hom", (n, "objects"), (n, "objects")))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.quantale == other.quantale and self.objects == other.objects
                                 and maxplus.same(self._index, other._index))

    def __hash__(self) -> int:
        return hash((self.quantale, self.objects))

    def __len__(self) -> int:
        return len(self.objects)

    def index(self, label: str) -> int:
        pos = self.__dict__.get("_pos")
        if pos is None:
            pos = {o: i for i, o in enumerate(self.objects)}
            object.__setattr__(self, "_pos", pos)
        try:
            return pos[label]
        except (KeyError, TypeError):
            raise ValueError(f"unknown object {label!r}") from None

    def hom_between(self, a: str, b: str) -> QVal:
        values, positions = self._index
        return values[positions[self.index(a), self.index(b)]]


def unit_category(q: QuantaleDescriptor, label: str = "*") -> VCategory:
    """The one-object category I with endohom the monoidal unit."""
    return VCategory(q, (label,), None, ([unit(q)], np.zeros((1, 1), np.intp)))


@dataclass(frozen=True)
class CategoryReport:
    """Every unit and composition violation of a candidate category."""

    unit_violations: tuple[tuple[str, QVal], ...]
    composition_violations: tuple[tuple[str, str, str, QVal, QVal], ...]

    @property
    def ok(self) -> bool:
        return not self.unit_violations and not self.composition_violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "unit_violations": [
                {"object": o, "endohom": format_value(v)} for o, v in self.unit_violations
            ],
            "composition_violations": [
                {
                    "via": [i, j, k],
                    "composite": format_value(c),
                    "direct": format_value(d),
                }
                for i, j, k, c, d in self.composition_violations
            ],
        }


def validate_category(c: VCategory) -> CategoryReport:
    """Check the unit and composition laws, listing every violation.

    Composition violations are listed in lexicographic (X, Y, Z) order
    with the scalar composite.  One array sweep per middle object over
    the max-plus encoding of the homs (see :func:`qcat.maxplus.law_encode`)
    finds every triple where the law may fail; the scalar ``leq`` and
    ``tensor`` decide each of those exactly.
    """
    (a,), (bound,) = maxplus.law_encode(c.quantale, c._index)
    return _report(c, maxplus.candidates(a, a, bound))


def _report(c: VCategory, triples: Iterable[tuple[int, int, int]]) -> CategoryReport:
    """The unit violations of ``c`` (:func:`qcat.maxplus.unit_below`) and the
    composition violations among the given (i, j, k) positions, with their
    scalar composites."""
    q, obj, index = c.quantale, c.objects, c._index
    values, positions = index
    diag = positions.diagonal().tolist()
    bad = np.flatnonzero(~maxplus.unit_below(q, values)[diag]).tolist()
    unit_v = tuple((obj[i], values[diag[i]]) for i in bad)
    return CategoryReport(unit_v, _law_violations(q, index, index, index, (obj, obj, obj), triples))


def _law_violations(q: QuantaleDescriptor, a: maxplus.Block, b: maxplus.Block, c: maxplus.Block,
                    labels, triples: Iterable[tuple[int, int, int]]) -> tuple:
    """The (i, j, k) among ``triples`` where a[i][j] tensor b[j][k] <= c[i][k]
    fails, each as its three labels, the composite and c[i][k]: the
    matrices are indexed, and their positions gathered at the triples once."""
    (va, pa), (vb, pb), (vc, pc) = a, b, c
    li, lj, lk = labels
    i, j, k = np.array(list(triples), np.intp).reshape(-1, 3).T
    out = []
    for x, y, z, s, t, r in zip(i.tolist(), j.tolist(), k.tolist(),
                                pa[i, j].tolist(), pb[j, k].tolist(), pc[i, k].tolist()):
        composite = tensor(q, va[s], vb[t])
        if not leq(q, composite, vc[r]):
            out.append((li[x], lj[y], lk[z], composite, vc[r]))
    return tuple(out)


def opposite(c: VCategory) -> VCategory:
    """Reverse all homs: E_op(X, Y) = E(Y, X)."""
    values, positions = c._index
    return VCategory(c.quantale, c.objects, None, (values, positions.T))


def underlying_preorder(c: VCategory) -> frozenset[tuple[str, str]]:
    """Edges i -> j where the unit maps into the hom.

    For a valid category the result is reflexive and transitive: the
    underlying preorder (the causal set of a causal space).
    """
    i, j, labels = _underlying_pairs(c)
    return frozenset(zip(labels[i].tolist(), labels[j].tolist()))


def _underlying_pairs(c: VCategory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of the underlying preorder as positions ``(i, j)`` into
    ``labels``, the objects sorted as strings in an object array, with the
    edges in label order.  ``unit <= v`` is read once per distinct value
    from its column (:func:`qcat.maxplus.unit_below`), and the positions
    are permuted into label order, so that only the objects are sorted as
    strings and the edges come out of ``np.nonzero`` in order."""
    obj = c.objects
    values, positions = c._index
    perm = np.array(sorted(range(len(obj)), key=obj.__getitem__), np.intp)
    i, j = np.nonzero(maxplus.unit_below(c.quantale, values)[positions[np.ix_(perm, perm)]])
    labels = np.empty(len(obj), object)
    labels[:] = sorted(obj)
    return i, j, labels


def _edge_runs(text: Sequence[str], i: np.ndarray, j: np.ndarray,
               head: str, mid: str, tail: str, sep: str) -> str:
    """``sep.join(head + text[a] + mid + text[b] + tail for a, b in zip(i,
    j))``, for ``i`` in order.  The edges from one source are a run, and
    each run is one C-level join over a gather of its targets' texts."""
    if not len(i):
        return ""
    targets = np.array(text, object)[j].tolist()
    cut = (np.flatnonzero(np.diff(i)) + 1).tolist()
    runs = []
    for a, s, e in zip(i[[0, *cut]].tolist(), [0, *cut], [*cut, len(i)]):
        lead = head + text[a] + mid
        runs.append(lead + (tail + sep + lead).join(targets[s:e]) + tail)
    return sep.join(runs)


def preorder_dot(objects: Sequence[str], edges: Iterable[tuple[str, str]]) -> str:
    """Render a preorder in DOT: one node per object, one edge per
    non-identity relation, sorted for byte stability.  The edges may come
    in any order, repeat, or name labels that are not objects: each is
    read as a pair of positions into the sorted labels, and the pairs are
    sorted and rendered by :func:`_dot`."""
    edges = list(edges)
    labels = sorted(set(objects).union(itertools.chain.from_iterable(edges)))
    rank = {s: k for k, s in enumerate(labels)}
    pairs = np.array(sorted((rank[a], rank[b]) for a, b in edges), np.intp).reshape(-1, 2)
    return _dot(objects, labels, pairs[:, 0], pairs[:, 1])


def _dot(objects: Sequence[str], labels: Sequence[str], i: np.ndarray, j: np.ndarray) -> str:
    """The text of :func:`preorder_dot` from its edges as positions
    ``(i, j)`` into the sorted ``labels``, in order.  Each label is
    quoted once, and the arrows are written a source at a time
    (:func:`_edge_runs`)."""
    quoted = ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in labels]
    q = dict(zip(labels, quoted))
    arrow = i != j
    arrows = _edge_runs(quoted, i[arrow], j[arrow], "  ", " -> ", ";", "\n")
    nodes = "".join(["  " + q[o] + ";\n" for o in objects])
    return "digraph preorder {\n" + nodes + (arrows + "\n" if arrows else "") + "}\n"


REGULAR = "regular"
IRREGULAR = "irregular"


@dataclass(frozen=True)
class EndohomReport:
    """Per-object endohom classes plus any law violations.

    Valid causal-base categories at tolerance 0 only ever have endohoms
    0 (regular events) or inf (irregular ones), endohoms act on other
    homs by equality, irregular objects see everything through bot or
    inf, and two regular events can only cause each other when both homs
    are 0.  So there a violation means the category was invalid; within
    a tolerance a valid category can have one (README, "Endohom laws").
    """

    classes: tuple[tuple[str, str], ...]
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "classes": {o: c for o, c in self.classes},
            "violations": [{"law": l, "detail": d} for l, d in self.violations],
        }


def classify_endohoms(c: VCategory) -> EndohomReport:
    """Label each object regular (endohom 0) or irregular (endohom inf)
    and verify the endohom laws of causal spaces.

    Over ``rbot`` at tolerance t each law depends only on the kinds of
    the values: bot, zero (finite, at most t), other finite or inf
    (README, "Endohom laws").  Tags are read from the values' column;
    only the diagonal and the regular pairs with no bot hom compare a
    value with t.  Violations come in the order of the all-pairs loops.
    """
    if c.quantale.kind is not Kind.RBOT:
        raise CarrierMismatch("endohom classification requires the causal base")
    values, positions = c._index
    tol, fin_tag, tags = c.quantale._tol, Tag.FINITE, values.tags
    bot, fin = (tags == maxplus._BOT)[positions], (tags == maxplus._FIN)[positions]
    obj, fmt = c.objects, format_value
    diag = [values[p] for p in positions.diagonal().tolist()]

    def zero(v: QVal) -> bool:
        return v.tag is fin_tag and v.value <= tol

    ezero = np.array([zero(v) for v in diag], bool)
    einf = ~(bot | fin).diagonal()
    classes = tuple((o, IRREGULAR if i else REGULAR if z else "invalid")
                    for o, i, z in zip(obj, einf.tolist(), ezero.tolist()))
    violations = []
    # per object: not idempotent (other finite), then no class (neither zero nor inf)
    laws = np.stack([fin.diagonal() & ~ezero, ~(ezero | einf)], axis=1)
    for i, law in np.argwhere(laws).tolist():
        o, e = obj[i], fmt(diag[i])
        violations.append(("endohom-value", f"E({o},{o}) = {e} is neither 0 nor inf") if law
                          else ("endohom-idempotent", f"E({o},{o}) = {e} is not idempotent"))
    # a nonzero endohom's action on E(y, x) (side 0) and E(x, y) (side 1)
    # fails: if bot, where the hom is not bot; otherwise where it is finite
    act = np.flatnonzero(~ezero)
    fails = np.where(bot.diagonal()[act, None, None], ~np.stack([bot.T[act], bot[act]], axis=2),
                     np.stack([fin.T[act], fin[act]], axis=2))
    for a, j, side in np.argwhere(fails).tolist():
        x, y = obj[act[a]], obj[j]
        violations.append(("endohom-action", f"E({x},{x}) tensor E({x},{y}) != E({x},{y})" if side
                           else f"E({y},{x}) tensor E({x},{x}) != E({y},{x})"))
    # so an irregular object's action fails exactly at its finite homs
    irr = act[einf[act]]
    for a, j, side in np.argwhere(fails[einf[act]]).tolist():
        i, y = irr[a], obj[j]
        v = fmt(values[positions[i, j] if side else positions[j, i]])
        violations.append(("irregular-homs", f"irregular {obj[i]} has finite hom {v} with {y}"))
    reg = np.flatnonzero(ezero)
    nonbot = ~bot[np.ix_(reg, reg)]
    for a, b in np.argwhere(np.triu(nonbot & nonbot.T, 1)).tolist():
        fwd, back = values[positions[reg[a], reg[b]]], values[positions[reg[b], reg[a]]]
        if not (zero(fwd) and zero(back)):
            violations.append(("regular-pair", f"regular {obj[reg[a]]}, {obj[reg[b]]} have homs "
                               f"{fmt(fwd)}, {fmt(back)}: neither both 0 nor one bot"))
    return EndohomReport(classes, tuple(violations))


def _format_rows(index: tuple[Sequence[QVal], np.ndarray]) -> list[list[str]]:
    """The text of each entry of an indexed matrix, formatting each
    distinct value once (:func:`qcat.maxplus.texts`)."""
    values, positions = index
    text = maxplus.texts(values)
    return [list(map(text.__getitem__, row.tolist())) for row in positions]


def category_to_json(c: VCategory, *, _rows: Callable = _format_rows) -> dict:
    # _rows renders the matrix from its index; the CLI passes its writer's
    # private leaf, so that a file is written from the index
    return {
        "quantale": descriptor_to_json(c.quantale),
        "tolerance": c.quantale.tolerance,
        "objects": list(c.objects),
        "hom": _rows(c._index),
    }


def category_from_json(data: object, *, where: str = "category") -> VCategory:
    return _category_from_json(data, where, {})


def _category_from_json(data: object, where: str, memo: dict[str, object]) -> VCategory:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object")
    for field in ("quantale", "objects", "hom"):
        if field not in data:
            raise ValueError(f"{where}: missing field {field!r}")
    tolerance = data.get("tolerance", 0.0)
    # NaN fails the comparison; an int too large for a float is rejected too
    if (
        not isinstance(tolerance, (int, float))
        or isinstance(tolerance, bool)
        or not abs(tolerance) <= sys.float_info.max
    ):
        raise ValueError(f"{where}.tolerance: expected a finite number")
    try:
        q = descriptor_from_json(data["quantale"], float(tolerance))
    except ValueError as exc:
        raise ValueError(f"{where}.quantale: {exc}") from None
    objects = data["objects"]
    if not isinstance(objects, list) or any(not isinstance(o, str) for o in objects):
        raise ValueError(f"{where}.objects: expected a list of strings")
    for i, o in enumerate(objects):
        _require_utf8(o, f"{where}.objects[{i}]")
    hom = _parse_rows(data["hom"], f"{where}.hom", memo, len(objects))
    try:
        return VCategory(q, tuple(objects), *hom)
    except ValueError as exc:
        raise _located(exc, where, "hom") from None


def _located(exc: ValueError, where: str, name: str) -> ValueError:
    """``exc``, raised building an object from the file at ``where``, with
    ``where`` in its message: a carrier mismatch names its entry of the
    ``name`` matrix."""
    at = getattr(exc, "at", None)
    return ValueError(f"{where}.{name}[{at[0]}][{at[1]}]: {exc}" if at else f"{where}: {exc}")


def _parse_rows(rows: object, where: str, memo: dict[str, object], ncols: int) -> tuple:
    """Parse a JSON matrix of values; a bad entry raises naming
    ``where[i][j]``.

    Returns the ``hom``/``mat`` and ``_index`` arguments of the
    constructor: ``(None, index)``, values in order of first appearance
    as a column (:class:`qcat.maxplus.Column`), or ``(rows, None)`` for its
    walk to raise when a row has not ``ncols`` entries.  The constructor
    checks the values against its base's carrier.

    Two passes: the row loop gives each new key a slot, in order of first
    appearance, and reads nothing; then :func:`_read_keys` reads the keys,
    and the first bad entry in row-major order raises.  A string is its own
    key, read once per file (``memo``).  Any other entry is keyed by its
    position, which no entry equals, because JSON ``true``, ``1`` and
    ``1.0`` are equal keys that parse to different values.
    """
    if not isinstance(rows, list):
        raise ValueError(f"{where}: expected a matrix")
    slot: dict[object, int] = {}  # a key of this matrix -> its slot
    at = object()  # the mark of a position key, (at, i, j)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            _read_keys(list(slot), rows, memo, where)  # an earlier bad entry raises first
            raise ValueError(f"{where}[{i}]: expected a row")
        try:  # a row of strings seen before in this matrix
            out.append(list(map(slot.__getitem__, row)))
            continue
        except (KeyError, TypeError):
            pass
        keys = row if all(map(str.__instancecheck__, row)) else [
            raw if isinstance(raw, str) else (at, i, j) for j, raw in enumerate(row)
        ]
        new = itertools.filterfalse(slot.__contains__, dict.fromkeys(keys))
        slot.update(zip(new, itertools.count(len(slot))))
        out.append(list(map(slot.__getitem__, keys)))
    values, slots = _read_keys(list(slot), rows, memo, where)
    if slots is not None:
        out = [list(map(slots.__getitem__, ks)) for ks in out]
    if any(len(ks) != ncols for ks in out):
        return tuple(tuple(map(values.__getitem__, ks)) for ks in out), None
    return None, (values, np.array(out, np.intp).reshape(len(out), ncols))


def _read_keys(keys: list, rows: list, memo: dict[str, object],
               where: str) -> tuple[maxplus.Column, list[int] | None]:
    """The values of a matrix's keys, in order, as a column; and, where
    keys read as one value object (a pole or a truth value), which takes
    its first key's slot, the slot of each key, else None.

    The strings that ``memo`` lacks, written ``d`` or ``d/d`` in ASCII
    digits, are read at once by :func:`_read_digits`, as two ints each,
    reduced by their gcd with the rest.  Every other key is read by
    itself, in order: a string through ``memo``, with ``_digits`` or
    ``_parse_text``, and a position key by ``parse_value``.  When a digit
    string does not read, every key is read by itself, so that the first
    bad entry in row-major order raises."""
    n = len(keys)
    # a key that the memo holds, or no string, stands as "-": not digits
    texts = keys if not memo and all(map(str.__instancecheck__, keys)) else [
        k if isinstance(k, str) and k not in memo else "-" for k in keys
    ]
    read = _read_digits(texts)
    if read is None:
        nums, dens, others = [0] * n, [1] * n, range(n)
    else:
        nums, dens, digits = read
        memo.update(itertools.compress(zip(texts, zip(nums, dens)), digits))
        others = itertools.compress(range(n), map(operator.not_, digits))
    tags = [maxplus._FIN] * n
    built: dict[int, QVal] = {}  # the keys whose values parse_value built
    ids: dict[int, int] = {}  # id(v) -> its first key
    merged: dict[int, int] = {}  # a later key of a value -> its first key
    for k in others:
        key = keys[k]
        try:
            if isinstance(key, str):
                e = memo.get(key)
                if e is None:
                    e = memo[key] = _digits(key) or _parse_text(key)
            else:
                e = parse_value(rows[key[1]][key[2]])
        except ValueError as exc:  # at the key's first entry
            i, j = key[1:] if not isinstance(key, str) else next(
                (i, row.index(key)) for i, row in enumerate(rows) if isinstance(row, list) and key in row
            )
            raise ValueError(f"{where}[{i}][{j}]: {exc}") from None
        if type(e) is tuple:  # a (numerator, denominator)
            nums[k], dens[k] = e
            continue
        first = ids.setdefault(id(e), k)
        if first != k:
            merged[k] = first
            continue
        built[k] = e
        tags[k], nums[k], dens[k] = maxplus._entry(e)
    slot = None
    if merged:
        keep = [k not in merged for k in range(n)]
        slot = list(itertools.accumulate(keep, initial=-1))[1:]
        for k, first in merged.items():
            slot[k] = slot[first]
        tags, nums, dens = (list(itertools.compress(xs, keep)) for xs in (tags, nums, dens))
        built = {slot[k]: v for k, v in built.items()}
    values = maxplus.Column(np.array(tags, np.int8), *maxplus._reduced(nums, dens), built)
    return values, slot


_INT64_MAX = int(np.iinfo(np.int64).max)
_READS = frozenset((b"", b"/"))  # what a text of ASCII digits, d or d/d, leaves


def _read_digits(texts: list[str]) -> tuple[list[int], list[int], list[bool]] | None:
    """The texts written in ASCII digits alone, ``d`` or ``d/d``, read at
    once: the numerator and denominator (not reduced) of each text, 0 and 1
    for any other, and whether each is such a text.  None when there is
    none, or one of them does not read (an empty part, a zero denominator
    or a part past the digit limit), or a text holds a newline.

    A text's non-digits say what it is.  ``np.fromstring`` reads every
    part; a part past int64 comes back as int64's maximum, without an
    error, and is read again by ``int``."""
    rest = "\n".join(texts).encode("utf-8", "surrogatepass").translate(None, b"0123456789").split(b"\n")
    if len(rest) != len(texts):
        return None
    digits = list(map(_READS.__contains__, rest))
    if True not in digits:
        return None
    pieces = [t + "/1" if not r else t if d else "0/1" for t, r, d in zip(texts, rest, digits)]
    read = np.fromstring(" ".join(pieces).replace("/", " "), np.int64, sep=" ")
    parts = read.tolist()
    if len(parts) != 2 * len(texts):
        return None
    nums, dens = parts[0::2], parts[1::2]
    if _INT64_MAX in parts:
        try:
            for k in (np.flatnonzero(read == _INT64_MAX) // 2).tolist():
                p, _, q = texts[k].partition("/")
                nums[k], dens[k] = int(p), int(q or 1)
        except ValueError:  # past the digit limit
            return None
    if 0 in dens:
        return None
    return nums, dens, digits


def _require_utf8(label: str, where: str) -> None:
    """Reject a label that cannot be written out, such as a lone surrogate."""
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{where}: not encodable as UTF-8") from None
