"""Max-plus array kernel for the composition laws and for composition.

Every base embeds in the complete max-plus semiring [-inf, +inf] by the
codes of its row of the leaf table in :mod:`qcat.quantale` (README, "One
scalar algebra"): the tensor becomes ``+`` with -inf absorbing, the join
becomes ``max`` and an arrow a -> b exists iff code(a) <= code(b).  The
scalar operations run on the same codes, one value at a time.

A matrix over a product base gets a trailing factor axis, one entry per
base factor (length 1 for a plain base); order and join are
componentwise: the law sweep ORs the 2-D masks of the factors, and
every factor reads the base's one tolerance.  A matrix comes indexed
(:data:`Block`), by its producer or by :func:`check_matrix`: each
distinct value is coded once and the codes are gathered at the entries'
positions.  On every base the distinct values are a :class:`Column` of
tag codes and integer numerators and denominators, which the coders
read as arrays: a truth value is a tag code alone, and a product's
tuple is a slot that keeps its value.  A list of values, a product's
leaves included, is read through the one adapter :func:`column`.
:func:`exact_codes` scales finite values by the least common multiple L
of their denominators, so that every code is an integer:
float64 when every |v*L| and the tolerance offset fit in 2^52, so that a
sum of two codes is still exact, and Python ints in an object array
otherwise.  :func:`law_encode` uses the float64 codes at tolerance 0 and
otherwise the nearest float64 of each value, with a bound that a static
rounding-error margin keeps below c + tolerance (a floating-point
filter, after Shewchuk, "Adaptive precision floating-point arithmetic
and fast robust geometric predicates", 1997).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .quantale import (
    _LEAF_TABLE,
    _NEG,
    _POS,
    BOT,
    FALSE,
    INF,
    TRUE,
    CarrierMismatch,
    QuantaleDescriptor,
    QVal,
    Tag,
    _build,
    _decode,
    _trusted_finite,
    carrier_check,
    format_value,
)

EXACT_LIMIT = 2**52
# float codes and tolerances stay below 2^1020, so that no sum or bound
# overflows; U and ETA bound the rounding of a float64 code or sum,
# relative and absolute (the unit roundoff and the smallest subnormal)
_FLOAT_BITS = 1020
_U = 2.0**-53
_ETA = 2.0**-1074
# elements per broadcast block in :func:`product` (and per gather in
# :func:`rows`): 128 KiB of float64,
# so that a block reuses heap memory instead of raising the peak
_CHUNK = 1 << 14

# A column's tag codes.  The poles and the truth values are one object
# each; OTHER is a value that no plain base holds (a tuple), kept as given.
_BOT, _FIN, _INF, _FALSE, _TRUE, _OTHER = range(6)
_SHARED = (BOT, None, INF, FALSE, TRUE, None)
_TAG_OF = (Tag.BOT, Tag.FINITE, Tag.INF, Tag.BOOL, Tag.BOOL, None)
_TEXT = ("bot", None, "inf", "false", "true", None)
_BOT_TAG, _FINITE, _INF_TAG, _BOOL_TAG = Tag.BOT, Tag.FINITE, Tag.INF, Tag.BOOL


def _ints(xs: Sequence[int]) -> np.ndarray:
    """Python ints as int64 where every one fits, else as an object array."""
    try:
        return np.array(xs, np.int64)
    except OverflowError:
        return np.array(xs, object)


def _small(x: np.ndarray) -> bool:
    return x.dtype != object


def _reduced(nums: Sequence[int], dens: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators >= 1, divided by their gcd, as the
    arrays of a column."""
    num, den = _ints(nums), _ints(dens)
    if _small(num) and _small(den):
        g = np.gcd(num, den)
        return num // g, den // g
    gs = list(map(math.gcd, nums, dens))
    return _ints(list(map(operator.floordiv, nums, gs))), _ints(list(map(operator.floordiv, dens, gs)))


class Column(Sequence):
    """Values as integer columns: a tag code per value (``_BOT`` ...
    ``_OTHER``), and the numerator and denominator of each finite value,
    reduced (0 and 1 elsewhere), each an int64 array where all of it fits
    and an object array of Python ints where not.

    A slot's ``QVal`` is built on its first read and kept, so that every
    read of it returns the same object; ``_built`` holds the slots read
    (or given as objects) so far."""

    __slots__ = ("tags", "num", "den", "_built")

    def __init__(self, tags: np.ndarray, num: np.ndarray, den: np.ndarray,
                 built: dict[int, QVal] | None = None) -> None:
        self.tags, self.num, self.den = tags, num, den
        self._built = {} if built is None else built

    @classmethod
    def of(cls, tags: Sequence[int], nums: Sequence[int], dens: Sequence[int]) -> "Column":
        return cls(np.array(tags, np.int8), _ints(nums), _ints(dens))

    def __len__(self) -> int:
        return len(self.tags)

    def __getitem__(self, k) -> QVal:
        k = operator.index(k)
        v = self._built.get(k)
        if v is None:
            n = len(self.tags)
            if not -n <= k < n:
                raise IndexError("column index out of range")
            k %= n
            t = int(self.tags[k])
            v = _SHARED[t] or _trusted_finite(Fraction(int(self.num[k]), int(self.den[k])))
            # setdefault is atomic: threads racing on a first read keep one object
            v = self._built.setdefault(k, v)
        return v

    def __iter__(self) -> Iterator[QVal]:
        n = len(self.tags)
        # once every slot is built, read them straight from the dict; until
        # then through __getitem__, so that a racing first read keeps one object
        return map((self._built if len(self._built) == n else self).__getitem__, range(n))

    def __repr__(self) -> str:
        return f"Column({len(self)} values)"


# a matrix indexed: its distinct values, each used, as a Column on every
# base, and a (rows, cols) integer array of each entry's position among them
Block = tuple[Column, np.ndarray]


def _entry(v: QVal) -> tuple[int, int, int]:
    """A value's tag code, numerator and denominator in a column."""
    t = v.tag
    if t is _FINITE:
        x = v.value
        return _FIN, x.numerator, x.denominator
    if t is _BOOL_TAG:
        return _TRUE if v.value else _FALSE, 0, 1
    return _BOT if t is _BOT_TAG else _INF if t is _INF_TAG else _OTHER, 0, 1


def column(values: Sequence[QVal]) -> Column:
    """``values`` as a column, in one pass: the one adapter from a list of
    values, which keeps the list's objects as its slots' values.  A column
    is returned as it is."""
    if isinstance(values, Column):
        return values
    tags, nums, dens = zip(*map(_entry, values)) if len(values) else ((), (), ())
    return Column(np.array(tags, np.int8), _ints(nums), _ints(dens), dict(enumerate(values)))


def texts(values: Sequence[QVal]) -> list[str]:
    """``format_value`` of each value, written from the column's tag codes
    and its two ints, ``p/q`` or ``p``, without building a finite value."""
    c, out = column(values), []
    for k, (t, p, q) in enumerate(zip(c.tags.tolist(), c.num.tolist(), c.den.tolist())):
        if t == _FIN:  # as Fraction.__str__ writes it
            out.append(str(p) if q == 1 else "%s/%s" % (p, q))
        else:
            out.append(_TEXT[t] or format_value(c[k]))
    return out


def _stored(q: QuantaleDescriptor, values: Sequence[QVal],
            first: Callable[[int], tuple[int, int]]) -> Column:
    """``values`` as an index stores them, a column, checked against
    ``q``'s carrier: ``carrier_check`` runs on each slot whose tag code is
    outside it, which on a plain base raises at the first such slot.  The
    :class:`qcat.quantale.CarrierMismatch` it raises gets ``at``, the
    position ``first(k)`` of the first entry that holds slot ``k``."""
    c = column(values)
    for k in _OUTSIDE[id(q._leaf)][c.tags].nonzero()[0].tolist():
        try:
            carrier_check(q, c[k])
        except CarrierMismatch as exc:
            exc.at = first(k)
            raise
    return c


# the tag codes outside each plain base's carrier, by the id of its leaf row
# (the rows live as long as the program); a product's leaf is None, and its
# every slot, a tuple, is checked in full
_OUTSIDE = {id(leaf): np.array([t not in leaf.tags for t in _TAG_OF]) for leaf in _LEAF_TABLE.values()}
_OUTSIDE[id(None)] = np.ones(len(_TAG_OF), bool)


def check_matrix(
    q: QuantaleDescriptor,
    rows: Sequence[Sequence[QVal]],
    ncols: int,
    row_error: Callable[[int, int], str],
    index: Block | None = None,
) -> Block:
    """Check a value matrix and return it indexed, each distinct value
    checked once.  The ``index`` of a producer that made it is kept, its
    values stored as a column (:func:`column`).

    Rows built by hand are indexed in one walk, their distinct values
    keyed by identity in order of first appearance.  It raises
    ``ValueError(row_error(i, len(row)))`` at the first row ``i`` without
    ``ncols`` entries, and :class:`qcat.quantale.CarrierMismatch` at the
    first entry outside ``q``'s carrier, whichever comes first in
    row-major order.  The mismatch's ``at`` is the first entry of its
    slot; where the slots are in order of first appearance, as in a walk
    or a parse, that is the first bad entry.
    """
    if index is not None:
        positions = index[1]
        return _stored(q, index[0], lambda k: tuple(np.argwhere(positions == k)[0].tolist())), positions
    values: list[QVal] = []
    slot: dict[int, int] = {}  # id(v) -> its position in values

    def first(k: int) -> tuple[int, int]:
        return next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is values[k])

    def walk() -> Iterator[int]:
        for i, row in enumerate(rows):
            if len(row) != ncols:
                _stored(q, values, first)  # a bad entry before the short row
                raise ValueError(row_error(i, len(row)))
            for v in row:
                k = slot.get(id(v))
                if k is None:
                    k = slot[id(v)] = len(values)
                    values.append(v)
                yield k

    it = walk()
    positions = np.fromiter(it, np.intp, len(rows) * ncols)
    # fromiter stops at its count: finish the walk, so that with no
    # columns every row's length is still checked
    next(it, None)
    return _stored(q, values, first), positions.reshape(len(rows), ncols)


def rows(block: Block) -> tuple[tuple[QVal, ...], ...]:
    """The value matrix of a block, :func:`check_matrix` inverted."""
    values, positions = block
    table = np.empty(len(values), object)
    table[:] = list(values)
    # in blocks of rows, so that no whole-matrix temporary raises the peak
    step = max(1, _CHUNK // max(1, positions.shape[1]))
    out: list[tuple[QVal, ...]] = []
    for k in range(0, len(positions), step):
        out += map(tuple, table[positions[k : k + step]].tolist())
    return tuple(out)


class Rows:
    """A required dataclass field for the rows of a matrix that its
    instance also holds indexed in ``_index``: rows given are kept as
    tuples; given None, they are gathered (:func:`rows`) on first read
    and kept."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # no class-level value, so that the field has no default
            raise AttributeError(self.name)
        got = obj.__dict__[self.name]
        if got is None:
            got = obj.__dict__[self.name] = rows(obj._index)
        return got

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = None if value is None else tuple(tuple(row) for row in value)


def same(a: Block, b: Block) -> bool:
    """Whether two indexed matrices over one base are equal entry by entry:
    each distinct value is keyed once, a tuple slot (``_OTHER``) by its
    ``QVal`` and any other by its tag code and reduced ints, and the keys
    are compared at the positions."""
    (va, pa), (vb, pb) = a, b
    if pa.shape != pb.shape:
        return False
    key: dict[object, int] = {}
    ka, kb = (np.array([key.setdefault(v, len(key)) for v in _keys(vs)], np.intp) for vs in (va, vb))
    return bool((ka[pa] == kb[pb]).all())


def _keys(values: Sequence[QVal]) -> list:
    c = column(values)
    return [c[k] if t == _OTHER else (t, p, q)
            for k, (t, p, q) in enumerate(zip(c.tags.tolist(), c.num.tolist(), c.den.tolist()))]


def _factors(q: QuantaleDescriptor, values: Sequence[QVal]) -> list[Column]:
    """The column of each leaf of ``values``, depth first, through
    :func:`column`: a plain base's values are one."""
    if q._leaf is not None:
        return [column(values)]
    parts = zip(*[v.value for v in values]) if len(values) else [()] * len(q.factors)
    return [c for f, part in zip(q.factors, parts) for c in _factors(f, part)]


# a block of :data:`Block` with its values as the columns of their leaves
Leaves = tuple[list[Column], np.ndarray]


def _arrays(
    q: QuantaleDescriptor, blocks: Sequence[Leaves], code: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dtype=float,
) -> list[np.ndarray]:
    """One (rows, cols, factors) array per block: each distinct value's
    leaves coded by their table rows, with ``code(num, den)`` in place of
    a column's finite values num/den, and gathered at the block's
    positions."""
    out = []
    for columns, positions in blocks:
        arr = np.empty((len(columns[0]), len(columns)), dtype)
        for f, (leaf, c) in enumerate(zip(q._leaves, columns)):
            # the poles and truth values by their tag codes; code() runs on
            # every slot, a pole's 0/1 coding to 0
            poles = [_NEG if v is leaf.bottom else 0 if leaf.sign is None else _POS for v in _SHARED]
            x = code(c.num, c.den)
            arr[:, f] = np.where(c.tags == _FIN, -x if leaf.sign == -1 else x, np.array(poles, dtype)[c.tags])
        out.append(arr[positions])
    return out


def _finite(blocks: Sequence[Leaves]) -> tuple[list[int], list[int]]:
    """The numerators and denominators of the blocks' finite leaves."""
    num: list[int] = []
    den: list[int] = []
    for columns, _ in blocks:
        for c in columns:
            fin = c.tags == _FIN
            num += c.num[fin].tolist()
            den += c.den[fin].tolist()
    return num, den


def unit_below(q: QuantaleDescriptor, values: Sequence[QVal]) -> np.ndarray:
    """``leq(q, unit(q), v)`` for each value v, read from the columns of
    its leaves: the unit's code is 0, so a leaf holds where its code is
    +inf or 0, or finite and at least -t (a metric value at most t)."""
    t = q._tol
    ok = np.ones(len(values), bool)
    for leaf, c in zip(q._leaves, _factors(q, values)):
        fin = c.tags == _FIN
        ok &= fin | np.array([v is not leaf.bottom for v in _SHARED])[c.tags]
        if leaf.sign == -1 and fin.any():
            num, den = c.num[fin].tolist(), c.den[fin].tolist()
            ok[fin] &= [p * t.denominator <= t.numerator * d for p, d in zip(num, den)]
    return ok


def _exact_double(x: np.ndarray) -> np.ndarray:
    """Where the int64 entries x >= 0 are exact doubles: their odd part
    fits in 53 bits."""
    return x // np.maximum(x & -x, 1) <= 2**53


def law_encode(q: QuantaleDescriptor, *blocks: Block) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The codes of the blocks and, per block, a bound on code sums: for
    values a, b, c with codes x, y and bound z of c, the law
    ``leq(q, tensor(q, a, b), c)`` holds wherever x + y <= z in every
    factor.  At tolerance 0, when :func:`exact_codes`' codes fit in
    float64 (tested before any is built), z is c's code and the law fails
    exactly where x + y > z; with float codes (times 2^-shift near the top
    of float64's range) x + y > z only marks where it may fail.
    """
    t = q._tol
    blocks = [(_factors(q, values), positions) for values, positions in blocks]
    if not t:
        exact, _, _, dtype = _scale(q, blocks)
        if dtype is float:
            codes = _arrays(q, blocks, exact)
            return codes, codes
    shift = 0

    def code(num: np.ndarray, den: np.ndarray) -> np.ndarray:  # num/den * 2^-shift, correctly rounded
        if shift or not (_small(num) and _small(den)):
            return np.array([p / (d << shift) for p, d in zip(num.tolist(), den.tolist())], float)
        # IEEE division of two exact doubles is correctly rounded, as int / int is
        out = num / den
        slow = ~(_exact_double(num) & _exact_double(den))
        if slow.any():
            out[slow] = [p / d for p, d in zip(num[slow].tolist(), den[slow].tolist())]
        return out

    try:
        arrays, tol = _arrays(q, blocks, code), t.numerator / t.denominator
        fits = all(np.abs(a[np.isfinite(a)]).max(initial=tol) < 2.0**_FLOAT_BITS for a in arrays)
    except OverflowError:  # a value of 2^1024 or more
        fits = False
    if not fits:
        # 2^e bounds a fraction whose numerator and denominator have n
        # and d bits, with e = n - d + 1
        num, den = _finite(blocks)
        shift = max(p.bit_length() - d.bit_length() + 1
                    for p, d in [(t.numerator, t.denominator), *zip(num, den)]) - _FLOAT_BITS
        arrays, tol = _arrays(q, blocks, code), t.numerator / (t.denominator << shift)
    with np.errstate(invalid="ignore"):
        # the margin covers the rounding of each code, of a sum of two and
        # of the bound itself; infinite codes are exact and bound themselves
        bounds = [np.where(np.isfinite(c), c + tol - (8 * _U * (np.abs(c) + tol) + 16 * _ETA), c)
                  for c in arrays]
    return arrays, bounds


def decode(q: QuantaleDescriptor, arr: np.ndarray, scale: int) -> Block:
    """The values of a (rows, cols, factors) array of :func:`exact_codes`'s
    codes at ``scale``, indexed (:data:`Block`): each distinct tuple of
    codes, float64 or int, is decoded once."""
    rows, cols, nf = arr.shape
    slot: dict[tuple, int] = {}  # a code tuple -> its position among the values
    keys = map(tuple, arr.reshape(-1, nf).tolist())
    positions = np.fromiter((slot.setdefault(k, len(slot)) for k in keys), np.intp, rows * cols)

    def code(x):  # a pole as the quantale's own object, a finite code unscaled
        return _NEG if x == _NEG else _POS if x == _POS else Fraction(x) / scale

    return [_build(q, map(_decode, q._leaves, map(code, k))) for k in slot], positions.reshape(rows, cols)


def product(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Max-plus matrix product: out[x, p] = max over a of m[x, a] + n[a, p],
    -inf absorbing, on float64 or int codes alike; an empty middle
    leaves -inf, the bottom."""
    return _by_rows(lambda mk: np.maximum.reduce(
        _tensor(mk[:, :, None], n[None]), axis=1, initial=_NEG), m, n.size)


def candidates(a: np.ndarray, b: np.ndarray, bound: np.ndarray) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with a[i, j] + b[j, k] > bound[i, k] in some
    factor, in lexicographic order.

    ``a``, ``b`` and ``bound`` have shapes (I, J, F), (J, K, F) and (I,
    K, F); the sweep takes one middle index j at a time, and ORs the 2-D
    mask of each factor into that of the first.  A NaN sum is an
    absorbed bottom and never exceeds the bound.

    Only the box of j's non-bottom rows i (a[i, j] > -inf in some factor)
    and non-bottom columns k is swept: outside it every sum has a -inf
    term, so it is -inf or NaN.  The rows of ``a`` are first put in
    descending and the columns of ``b`` in ascending order of their
    non-bottom counts (stable), which on a causal category are both
    causal orders and keep each box small; any order gives the same
    triples.
    """
    rows, mid, nf = a.shape
    cols = b.shape[1]
    triples: list[tuple[int, int, int]] = []
    if not (rows and mid and cols):
        return triples
    live_a = (a > _NEG).any(axis=2)
    live_b = live_a if b is a else (b > _NEG).any(axis=2)
    in_a, in_b = live_a.sum(axis=0), live_b.sum(axis=1)  # per middle: its non-bottom rows, columns
    rows_of, cols_of = in_a.tolist(), in_b.tolist()
    # when b is a, the row counts of a are in_b and the column counts of b in_a
    rp = (-(in_b if b is a else live_a.sum(axis=1))).argsort(kind="stable")
    cp = (in_a if b is a else live_b.sum(axis=0)).argsort(kind="stable")
    a, live_a, bound = a.take(rp, 0), live_a.take(rp, 0), bound.take(rp, 0).take(cp, 1)
    b, live_b = b.take(cp, 1), live_b.take(cp, 1)
    # the first non-bottom row and column of each middle, and the last from the end
    r0, r1 = live_a.argmax(axis=0).tolist(), live_a[::-1].argmax(axis=0).tolist()
    c0, c1 = live_b.argmax(axis=1).tolist(), live_b[:, ::-1].argmax(axis=1).tolist()
    boxes = [(j, r0[j], rows - r1[j], c0[j], cols - c1[j])
             for j in range(mid) if rows_of[j] and cols_of[j]]
    row_at, col_at = rp.tolist(), cp.tolist()
    (a0, b0, bound0), *rest = [(a[..., f], b[..., f], bound[..., f]) for f in range(nf)]
    with np.errstate(invalid="ignore"):
        for j, i0, i1, k0, k1 in boxes:
            bad = a0[i0:i1, j, None] + b0[j, k0:k1] > bound0[i0:i1, k0:k1]
            for x, y, z in rest:
                bad |= x[i0:i1, j, None] + y[j, k0:k1] > z[i0:i1, k0:k1]
            if bad.any():
                triples.extend((row_at[i0 + i], j, col_at[k0 + k]) for i, k in np.argwhere(bad).tolist())
    triples.sort()
    return triples


# ---------------------------------------------------------------------------
# The module calculus on exact codes (README, "How the module calculus
# runs").  A code array holds exact_codes' integer codes at the scale L,
# in float64 while they and the tolerance offsets fit in 2^52 and as Python
# ints in an object array past it, with float +-inf for the poles.  One code
# path serves both.
# ---------------------------------------------------------------------------


def exact_codes(q: QuantaleDescriptor, *blocks: Block) -> tuple[list[np.ndarray], np.ndarray, int]:
    """The blocks' codes, exact, the base's tolerance as an offset on
    them, one entry per factor, and their scale: code(a) <= code(b) +
    offset iff ``leq(q, a, b)`` for values whose codes are finite.  Each
    finite value v is coded as the integer v * L, L the least common
    multiple of the denominators, and the offset of the tolerance t is
    floor(t * L), exact because every code difference is an integer.  The codes and offsets
    are float64 when none exceeds 2^52 and Python ints in object arrays
    otherwise.  The values must already lie in ``q``'s carrier, as the
    entries of a ``VCategory`` or ``VModule`` do."""
    blocks = [(_factors(q, values), positions) for values, positions in blocks]
    code, scale, offset, dtype = _scale(q, blocks)
    return _arrays(q, blocks, code, dtype), np.full(len(q._leaves), offset, dtype), scale


def _scale(q: QuantaleDescriptor, blocks: Sequence[Leaves]) -> tuple[Callable, int, int, type]:
    """:func:`exact_codes`'s scale step, before any array is built: the
    code num/den -> num * (L // den), L itself, the offset floor(t * L) of
    the base's one tolerance t, and the dtype, float when no code or offset
    exceeds 2^52."""
    num, den = _finite(blocks)
    scale = math.lcm(*set(den))
    offset = math.floor(q._tol * scale)
    top = max([p * (scale // d) for p, d in zip(num, den)], default=0)
    dtype = float if max(top, offset) <= EXACT_LIMIT else object

    def code(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        # below 2^52 every code, and so each int64 product, is exact
        if dtype is float and scale < 2**63 and _small(num) and _small(den):
            return num * (scale // den)
        return np.array([p * (scale // d) for p, d in zip(num.tolist(), den.tolist())], object)

    return code, scale, offset, dtype


def _poles(x: np.ndarray) -> np.ndarray:
    """The poles of a code array as float64, 0 at its finite codes."""
    return np.where(x == _POS, _POS, np.where(x == _NEG, _NEG, 0.0))


def _combine(op, x: np.ndarray, y: np.ndarray, nan: float) -> np.ndarray:
    """``op`` (add or subtract) of two code arrays, broadcast.  IEEE
    arithmetic settles every pole as the scalar operations do, except
    the NaN of two opposite poles, which becomes ``nan``.  On object
    arrays the arithmetic runs only where both codes are finite, since
    an int code past float's range meets a float infinity only with an
    OverflowError."""
    with np.errstate(invalid="ignore"):
        if x.dtype != object and y.dtype != object:
            out = op(x, y)
            out[np.isnan(out)] = nan
            return out
        px, py = _poles(x), _poles(y)
        out = op(px, py)
    out[np.isnan(out)] = nan
    out = out.astype(object)
    finite = (px == 0) & (py == 0)
    x, y = np.broadcast_arrays(x, y)
    out[finite] = op(x[finite], y[finite])
    return out


def _tensor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y, -inf absorbing."""
    return _combine(np.add, x, y, _NEG)


def _clamp(q: QuantaleDescriptor, x: np.ndarray) -> np.ndarray:
    """Each leaf's codes clamped into its carrier, as ``quantale._decode``
    does: below 0 to -inf where the leaf's codes are >= 0 or -inf (rbot,
    bool), above 0 to 0 where they are <= 0 or -inf (lawvere, bool)."""
    low = np.array([leaf.sign != -1 for leaf in q._leaves])
    high = np.array([leaf.sign != 1 for leaf in q._leaves])
    x = np.where(low & (x < 0), _NEG, x)
    return np.where(high & (x > 0), 0, x)


def module_blocks(e: np.ndarray, g: np.ndarray, tol: np.ndarray) -> Iterator[np.ndarray]:
    """Every module I -/-> C with entries from a grid, as rows of grid
    indices, in lexicographic order, in blocks of at most a fixed size.

    ``e`` holds C's hom codes, (n, n, F), ``g`` the grid's, (K, F), and
    ``tol`` the offsets of :func:`exact_codes`.  A row is a column M with
    E(y, x) + M(x) <= M(y) + tol for all x, y.  Prefixes are extended one
    entry at a time by every grid value and filtered at once, through a
    table per entry i of the pairs (M(j), M(i)), j < i, that pass both
    actions between j and i.  Pending prefixes wait on a stack of
    bounded blocks, deepest first, so memory does not grow with the
    number of modules.
    """
    n, k = len(e), len(g)
    gt = _tensor(g, tol)  # the grid's codes plus the offsets

    # all tables take n * n * k * k / 2 booleans: past a fixed budget only
    # the last two are kept, which still serves a run of sibling blocks
    @lru_cache(maxsize=None if n * n * k * k <= _CHUNK << 8 else 2)
    def table(i: int) -> tuple[np.ndarray, np.ndarray]:
        # self[v]: E(i, i) + v <= v;  pair[j, w, v]: E(j, i) + v <= w
        # and E(i, j) + w <= v, for w = M(j) and v = M(i)
        into = _tensor(e[:i, i, None, None], g[None, None]) <= gt[None, :, None]
        out = _tensor(e[i, :i, None, None], g[None, :, None]) <= gt[None, None]
        return (_tensor(e[i, i], g) <= gt).all(axis=-1), (into & out).all(axis=-1)

    step = max(1, _CHUNK // max(1, k * n))
    stack = [np.zeros((1, 0), np.intp)]
    while stack:
        prefix = stack.pop()
        i = prefix.shape[1]
        if i == n:
            yield prefix
            continue
        self_ok, pair = table(i)
        ok = self_ok & pair[np.arange(i), prefix].all(axis=1)
        rows, vals = np.nonzero(ok)
        grown = np.concatenate([prefix[rows], vals[:, None]], axis=1)
        stack.extend(grown[s : s + step] for s in reversed(range(0, len(grown), step)))


def _first(mask: np.ndarray) -> np.ndarray:
    """Per row, the first column where ``mask`` holds, or its width."""
    return np.concatenate([mask, np.ones((len(mask), 1), bool)], axis=1).argmax(axis=1)


def _by_rows(fn: Callable[[np.ndarray], np.ndarray], m: np.ndarray, width: int) -> np.ndarray:
    """``fn`` of ``m``, computed on blocks of its rows, each row taking
    ``width`` elements, so that a block stays within the fixed size."""
    step = max(1, _CHUNK // max(1, width))
    return np.concatenate([fn(m[k0 : k0 + step]) for k0 in range(0, len(m), step)] or [fn(m)])


def _right_adjoint(q: QuantaleDescriptor, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The canonical right adjoint of each module M: I -/-> C in ``m``,
    one per row, (k, n, F), against C's hom codes ``e``, (n, n, F):
    N(x) = clamp(min over y of E(y, x) - M(y)), the poles settled as
    ``quantale._diff`` does; the clamp is monotone, so it commutes with
    the min, and the empty min is the top."""
    return _by_rows(lambda mk: _clamp(q, np.minimum.reduce(
        _combine(np.subtract, e[None], mk[:, :, None], _POS), axis=1, initial=_POS)), m, e.size)


def _represents(e: np.ndarray, m: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """(k, z): whether E(-, z) equals row k of ``m`` within the tolerance."""
    et = _tensor(e, tol)
    return _by_rows(lambda mk: ((mk[:, :, None] <= et) & (e <= _tensor(mk[:, :, None], tol)))
                    .all(axis=(1, 3)), m, e.size)


def cauchy_columns(
    q: QuantaleDescriptor, e: np.ndarray, m: np.ndarray, tol: np.ndarray, floor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decide which modules M: I -/-> C are Cauchy, from codes.

    ``m`` holds one module per row, (k, n, F); ``e`` and ``tol`` are as
    in :func:`module_blocks`.  With N the canonical right adjoint
    (:func:`_right_adjoint`), M is Cauchy iff the unit holds, max over z
    of N(z) + M(z) >= ``floor`` in every factor: the code of the
    source's endohom less ``tol``, which is -tol when the source is I.
    The counit holds by construction.  Returns the Cauchy rows, and the
    witnesses of every row, (k, n): the z with N(z) + M(z) >= -tol in
    every factor.
    """
    terms = _tensor(_right_adjoint(q, e, m), m)  # (k, z, F): the join is per factor
    return np.flatnonzero((terms >= floor).any(axis=1).all(axis=1)), (terms >= -tol).all(axis=2)
