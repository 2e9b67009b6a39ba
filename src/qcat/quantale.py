"""Commutative quantale bases for enriched categories.

A quantale here is a complete lattice carrying a commutative monoid
structure whose tensor preserves joins.  Every instance exposes the
order (``leq``), the tensor, its right adjoint (``residual``), finite
joins and meets, and the distinguished elements ``bottom``, ``unit``
and ``top``.

Built-in instances:

``RBOT``
    The extended nonnegative reals [0, inf] with a free bottom element
    ``bot`` adjoined below 0.  Tensor is addition, with ``bot``
    absorbing.  Categories enriched in it are causal spaces: homs are
    proper-time intervals and ``bot`` marks pairs that are not causally
    related.

``LAWVERE``
    The nonnegative reals [0, inf] ordered so that an arrow a -> b
    exists iff b <= a numerically; tensor is (truncated) addition and
    the residual is truncated subtraction.  Categories enriched in it
    are generalized metric spaces.

``BOOL``
    Truth values under conjunction; enriched categories are preorders.

``product(...)``
    Finite products of the above, componentwise.

Finite values are exact ``fractions.Fraction``s, so all law checking is
decidable.  A descriptor may opt into a comparison tolerance (used by
generators whose values come from floating point); the tolerance only
loosens comparisons, never the arithmetic itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator


class Tag(Enum):
    """Variant tag of a quantale element."""

    BOT = "bot"
    FINITE = "finite"
    INF = "inf"
    BOOL = "bool"
    TUPLE = "tuple"


class CarrierMismatch(ValueError):
    """A value's shape does not belong to the descriptor's carrier.
    Raised checking a matrix, ``at`` is the ``(i, j)`` of the first entry
    that holds the value (:func:`qcat.maxplus.check_matrix`)."""

    at: tuple[int, int] | None = None


@dataclass(frozen=True, eq=False)
class QVal:
    """A value in some quantale carrier.

    ``value`` holds the payload: an exact nonnegative ``Fraction`` for
    FINITE, a ``bool`` for BOOL, a tuple of component ``QVal``s for
    TUPLE, and ``None`` for the poles BOT and INF.
    """

    tag: Tag
    value: Fraction | bool | tuple["QVal", ...] | None = None

    def __post_init__(self) -> None:
        if self.tag is Tag.FINITE:
            if not isinstance(self.value, Fraction):
                raise TypeError("finite payload must be a Fraction")
            if self.value < 0:
                raise ValueError(f"finite payload must be nonnegative, got {self.value}")
        elif self.tag is Tag.BOOL:
            if not isinstance(self.value, bool):
                raise TypeError("bool payload must be a bool")
        elif self.tag is Tag.TUPLE:
            if (
                not isinstance(self.value, tuple)
                or not self.value
                or not all(isinstance(p, QVal) for p in self.value)
            ):
                raise TypeError("tuple payload must be a nonempty tuple of QVal")
        elif self.value is not None:
            raise TypeError(f"{self.tag.value} carries no payload")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QVal):
            return NotImplemented
        return self.tag is other.tag and self.value == other.value

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.tag, self.value))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"QVal({format_value(self)})"

    @property
    def is_bot(self) -> bool:
        return self.tag is Tag.BOT

    @property
    def is_inf(self) -> bool:
        return self.tag is Tag.INF

    @property
    def is_finite(self) -> bool:
        return self.tag is Tag.FINITE


def _trusted_finite(x: Fraction) -> QVal:
    """``QVal(Tag.FINITE, x)`` without the payload check, for callers
    that hold a nonnegative ``Fraction`` already."""
    v = object.__new__(QVal)
    # set as the dataclass's __init__ sets them: touching v.__dict__ would
    # make CPython give each value a dict of its own, two thirds larger
    object.__setattr__(v, "tag", Tag.FINITE)
    object.__setattr__(v, "value", x)
    return v


BOT = QVal(Tag.BOT)
INF = QVal(Tag.INF)
TRUE = QVal(Tag.BOOL, True)
FALSE = QVal(Tag.BOOL, False)


def finite(x: int | str | float | Fraction) -> QVal:
    """Wrap an exact nonnegative rational.

    Floats are converted exactly (binary value, no decimal rounding);
    pass a string such as ``"0.1"`` for decimal intent.
    """
    return QVal(Tag.FINITE, x if isinstance(x, Fraction) else Fraction(x))


def boolean(b: bool) -> QVal:
    return TRUE if b else FALSE


def tuple_val(parts: Iterable[QVal]) -> QVal:
    return QVal(Tag.TUPLE, tuple(parts))


class Kind(Enum):
    RBOT = "rbot"
    LAWVERE = "lawvere"
    BOOL = "bool"
    PRODUCT = "product"


# The poles of the max-plus codes.  A finite code is a Fraction, so an
# identity test tells a pole apart, and no arithmetic mixes the two (a
# Fraction beyond float's range cannot become a float).
_NEG = -math.inf
_POS = math.inf
_ZERO = Fraction(0)


@dataclass(frozen=True)
class _Leaf:
    """One plain base's row of the max-plus table (README, "One scalar
    algebra"), shared by every descriptor of that base."""

    tags: tuple[Tag, ...]  # the carrier
    mismatch: str  # the CarrierMismatch wording outside it
    sign: int | None  # a finite value's code is sign * value; None on truth values
    bottom: QVal  # code -inf
    top: QVal
    sample: tuple[QVal, ...]  # the default grid of ``qcat laws``


_LEAF_TABLE = {
    Kind.RBOT: _Leaf(
        (Tag.BOT, Tag.FINITE, Tag.INF), "is not an element of the causal base", 1, BOT, INF,
        (BOT, finite(0), finite(1), finite("5/2"), finite(7), INF),
    ),
    Kind.LAWVERE: _Leaf(
        (Tag.FINITE, Tag.INF), "is not an element of the metric base", -1, INF, finite(0),
        (finite(0), finite(1), finite("5/2"), finite(7), INF),
    ),
    Kind.BOOL: _Leaf((Tag.BOOL,), "is not a truth value", None, FALSE, TRUE, (FALSE, TRUE)),
}


@dataclass(frozen=True)
class QuantaleDescriptor:
    """Identifies a built-in quantale instance plus a comparison tolerance.

    ``tolerance`` is 0 for exact carriers; generators producing
    floating-point values opt into a positive tolerance, which loosens
    ``leq`` between finite values by that amount.  A product passes its
    tolerance down to every factor, and refuses a factor whose own
    tolerance exceeds it, which a written base could not express.
    """

    kind: Kind
    tolerance: float = 0.0
    factors: tuple["QuantaleDescriptor", ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        if self.kind is Kind.PRODUCT:
            if not self.factors:
                raise ValueError("product quantale needs at least one factor")
            tol = self.tolerance
            for f in self.factors:
                if f.tolerance > tol:
                    raise ValueError(f"factor tolerance {f.tolerance} exceeds the product's {tol}")
            factors = (f if f.tolerance == tol else replace(f, tolerance=tol) for f in self.factors)
            object.__setattr__(self, "factors", tuple(factors))
            leaf, leaves = None, tuple(x for f in self.factors for x in f._leaves)
        elif self.factors:
            raise ValueError(f"{self.kind.value} takes no factors")
        else:
            leaf = _LEAF_TABLE[self.kind]
            leaves = (leaf,)
        # what the operations read: a plain base's table row (None on a
        # product), the leaf rows, depth first, and the exact tolerance
        object.__setattr__(self, "_leaf", leaf)
        object.__setattr__(self, "_leaves", leaves)
        object.__setattr__(self, "_tol", Fraction(self.tolerance))


RBOT = QuantaleDescriptor(Kind.RBOT)
LAWVERE = QuantaleDescriptor(Kind.LAWVERE)
BOOL = QuantaleDescriptor(Kind.BOOL)


def rbot(tolerance: float = 0.0) -> QuantaleDescriptor:
    return QuantaleDescriptor(Kind.RBOT, tolerance)


def product(*factors: QuantaleDescriptor, tolerance: float = 0.0) -> QuantaleDescriptor:
    return QuantaleDescriptor(Kind.PRODUCT, tolerance, tuple(factors))


# ---------------------------------------------------------------------------
# Operations.  A plain base's value is coded into max-plus [-inf, +inf] by
# its table row, the operation runs on codes, and the result is clamped
# back into the carrier; a product runs its leaves side by side.
# ---------------------------------------------------------------------------


def _code(leaf: _Leaf, v: QVal):
    """``v``'s code: 0 for true, -inf for the bottom, +inf for the other
    pole, sign * value for a finite value.  Raises
    :class:`CarrierMismatch` outside the carrier."""
    if v.tag not in leaf.tags:
        raise CarrierMismatch(f"{v!r} {leaf.mismatch}")
    if leaf.sign is None:
        return _ZERO if v.value else _NEG
    if v.value is None:
        return _NEG if v.tag is leaf.bottom.tag else _POS
    return v.value if leaf.sign > 0 else -v.value


def _decode(leaf: _Leaf, x) -> QVal:
    """The largest value whose code is at most ``x``: a negative code is
    bot on rbot, a positive one 0 on lawvere, one >= 0 true on bool."""
    if x is _NEG:
        return leaf.bottom
    if x is _POS:
        return leaf.top
    if leaf.sign is None:
        return leaf.top if x >= 0 else leaf.bottom
    if leaf.sign > 0:
        return _trusted_finite(x) if x >= 0 else leaf.bottom
    return _trusted_finite(-x) if x <= 0 else leaf.top


def _le(t: Fraction, x, y) -> bool:
    """x <= y + t, the poles settled before any Fraction is added."""
    if x is _NEG or y is _POS:
        return True
    if x is _POS or y is _NEG:
        return False
    return x <= y + t if t else x <= y


def _add(x, y):
    """x + y, -inf absorbing."""
    if x is _NEG or y is _NEG:
        return _NEG
    if x is _POS or y is _POS:
        return _POS
    return x + y


def _diff(x, z):
    """z - x, +inf where x = -inf or z = +inf (the residual's top)."""
    if x is _NEG or z is _POS:
        return _POS
    if z is _NEG or x is _POS:
        return _NEG
    return z - x


def _codes(q: QuantaleDescriptor, v: QVal) -> list:
    """The codes of ``v``'s leaves, depth first; a product value's shape
    is checked before its parts."""
    leaf = q._leaf
    if leaf is not None:
        return [_code(leaf, v)]
    if v.tag is not Tag.TUPLE or len(v.value) != len(q.factors):
        raise CarrierMismatch(f"{v!r} does not match the product shape")
    return [x for f, p in zip(q.factors, v.value) for x in _codes(f, p)]


def _build(q: QuantaleDescriptor, leaves: Iterator[QVal]) -> QVal:
    """The value of ``q`` whose leaves, depth first, are ``leaves``."""
    if q._leaf is not None:
        return next(leaves)
    return QVal(Tag.TUPLE, tuple(_build(f, leaves) for f in q.factors))


def carrier_check(q: QuantaleDescriptor, v: QVal) -> None:
    """Raise :class:`CarrierMismatch` unless ``v`` lives in ``q``'s carrier."""
    _codes(q, v)


def leq(q: QuantaleDescriptor, a: QVal, b: QVal) -> bool:
    """Whether an arrow a -> b exists in ``q``'s order: code(a) <=
    code(b) + tolerance, the tolerance loosening finite-vs-finite
    comparisons only.

    Total order for RBOT and LAWVERE, componentwise for products.
    """
    leaf, t = q._leaf, q._tol
    if leaf is not None:
        return _le(t, _code(leaf, a), _code(leaf, b))
    return all([_le(t, x, y) for x, y in zip(_codes(q, a), _codes(q, b))])


def eq(q: QuantaleDescriptor, a: QVal, b: QVal) -> bool:
    """Equality up to ``q``'s tolerance: mutual ``leq``."""
    return leq(q, a, b) and leq(q, b, a)


def tensor(q: QuantaleDescriptor, a: QVal, b: QVal) -> QVal:
    """Monoidal tensor: addition (bot absorbing) on the numeric bases,
    conjunction on truth values, componentwise on products."""
    return _pointwise(q, _add, a, b)


def residual(q: QuantaleDescriptor, a: QVal, c: QVal) -> QVal:
    """The largest x with tensor(a, x) <= c (internal hom a -> c).

    On the causal base this is the familiar table: residuating out of
    bot gives top, residuating into bot gives bot, and finite values
    subtract when they can.  On the metric base it is truncated
    subtraction; on truth values, implication.
    """
    return _pointwise(q, _diff, a, c)


def _pointwise(q: QuantaleDescriptor, op, a: QVal, b: QVal) -> QVal:
    """The value whose leaves decode ``op`` of the leaf codes of ``a``
    and ``b``; ``a`` is coded in full before ``b``."""
    leaf = q._leaf
    if leaf is not None:
        return _decode(leaf, op(_code(leaf, a), _code(leaf, b)))
    codes = zip(q._leaves, _codes(q, a), _codes(q, b))
    return _build(q, iter([_decode(f, op(x, y)) for f, x, y in codes]))


def unit(q: QuantaleDescriptor) -> QVal:
    return _build(q, (_decode(f, _ZERO) for f in q._leaves))


def bottom(q: QuantaleDescriptor) -> QVal:
    return _build(q, (f.bottom for f in q._leaves))


def top(q: QuantaleDescriptor) -> QVal:
    return _build(q, (f.top for f in q._leaves))


def join(q: QuantaleDescriptor, family: Iterable[QVal]) -> QVal:
    """Least upper bound of a finite family; the empty join is bottom."""
    return _extreme(q, list(family), max, bottom)


def meet(q: QuantaleDescriptor, family: Iterable[QVal]) -> QVal:
    """Greatest lower bound of a finite family; the empty meet is top."""
    return _extreme(q, list(family), min, top)


def _extreme(q: QuantaleDescriptor, vals: list[QVal], pick, empty) -> QVal:
    """The member whose code ``pick`` (max or min) selects, the last one
    on ties, exactly (the tolerance plays no part); on a product the
    value of each leaf's pick; ``empty(q)`` for no members."""
    if not vals:
        return empty(q)
    leaf = q._leaf
    if leaf is not None:
        codes = [_code(leaf, v) for v in vals]
        return vals[pick(range(len(vals) - 1, -1, -1), key=codes.__getitem__)]
    columns = zip(*[_codes(q, v) for v in vals])
    return _build(q, iter([_decode(f, pick(col)) for f, col in zip(q._leaves, columns)]))


def join_witness(q: QuantaleDescriptor, family: Iterable[QVal]) -> bool:
    """Whether unit <= join(family) implies unit <= m for some member m.

    Total-order bases always satisfy this; product quantales can fail
    it, which is exactly what breaks Cauchy completeness there.
    """
    vals = list(family)
    u = unit(q)
    if not leq(q, u, join(q, vals)):
        return True
    return any(leq(q, u, m) for m in vals)


@dataclass(frozen=True)
class LawViolation:
    law: str
    operands: tuple[QVal, ...]
    detail: str

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "operands": [format_value(v) for v in self.operands],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class LawReport:
    quantale: QuantaleDescriptor
    sample: tuple[QVal, ...]
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "quantale": descriptor_to_json(self.quantale),
            "tolerance": self.quantale.tolerance,
            "sample": [format_value(v) for v in self.sample],
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }


def check_laws(q: QuantaleDescriptor, sample: Iterable[QVal]) -> LawReport:
    """Exhaustively check the quantale laws over all triples of ``sample``.

    Checked: unit laws, commutativity, associativity, the residuation
    adjunction (tensor(a, b) <= c iff b <= residual(a, c)), tensor
    monotonicity, and tensor distributing over sampled binary joins.
    """
    vals = tuple(sample)
    for v in vals:
        carrier_check(q, v)
    u = unit(q)
    out: list[LawViolation] = []

    for a in vals:
        if not eq(q, tensor(q, u, a), a):
            out.append(LawViolation("unit", (a,), f"tensor(unit, {format_value(a)}) != {format_value(a)}"))
        if not eq(q, tensor(q, a, u), a):
            out.append(LawViolation("unit", (a,), f"tensor({format_value(a)}, unit) != {format_value(a)}"))
    for a in vals:
        for b in vals:
            if not eq(q, tensor(q, a, b), tensor(q, b, a)):
                out.append(LawViolation("commutativity", (a, b), "tensor(a, b) != tensor(b, a)"))
    for a in vals:
        for b in vals:
            ab = tensor(q, a, b)
            for c in vals:
                if not eq(q, tensor(q, ab, c), tensor(q, a, tensor(q, b, c))):
                    out.append(LawViolation("associativity", (a, b, c), "tensor not associative"))
                r = residual(q, a, c)
                if leq(q, ab, c) != leq(q, b, r):
                    out.append(
                        LawViolation(
                            "residuation",
                            (a, b, c),
                            f"tensor(a, b) <= c is {leq(q, ab, c)} but "
                            f"b <= residual(a, c) = {format_value(r)} is {leq(q, b, r)}",
                        )
                    )
                if leq(q, a, b) and not leq(q, tensor(q, a, c), tensor(q, b, c)):
                    out.append(LawViolation("monotonicity", (a, b, c), "a <= b but tensor(a, c) !<= tensor(b, c)"))
                if not eq(q, tensor(q, a, join(q, [b, c])), join(q, [tensor(q, a, b), tensor(q, a, c)])):
                    out.append(
                        LawViolation("join_distributivity", (a, b, c), "tensor(a, b v c) != tensor(a, b) v tensor(a, c)")
                    )
    return LawReport(q, vals, tuple(out))


def qval_sort_key(v: QVal):
    """Deterministic total-order key within any one carrier."""
    if v.tag is Tag.BOT:
        return (0, 0)
    if v.tag is Tag.FINITE:
        return (1, v.value)
    if v.tag is Tag.INF:
        return (2, 0)
    if v.tag is Tag.BOOL:
        return (1 if v.value else 0, 0)
    return tuple(qval_sort_key(p) for p in v.value)


# ---------------------------------------------------------------------------
# Textual value syntax shared by all file formats.
#
# "bot"/"⊥", "inf"/"∞", decimal or rational literals ("5", "5/2", "2.5"),
# "true"/"false", and tuples "(v1,v2)".  Output is canonical: "bot", "inf",
# exact fraction strings, "true"/"false".
# ---------------------------------------------------------------------------

# deepest nesting accepted in a tuple literal (parentheses) and in a
# product quantale (lists): far beyond any real base, and well inside
# the recursion limit
MAX_NESTING = 32


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` at paren depth zero."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING} levels")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def _digits(raw: str) -> tuple[int, int] | None:
    """The numerator and denominator, not reduced, of a value written in
    plain ASCII digits, ``d`` or ``d/d`` (around spaces), which
    Fraction(str)'s regex would read as the same two integers; None for
    any other text.  Raises ValueError as :func:`parse_value` does."""
    text = raw.strip()
    num, slash, den = text.partition("/")
    if not (text.isascii() and num.isdigit() and (not slash or den.isdigit())):
        return None
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError as exc:  # past the digit limit
        raise ValueError(f"cannot parse {raw!r} as a value") from exc
    if not q:
        raise ValueError(f"cannot parse {raw!r} as a value")
    return p, q


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
    ratio = _digits(raw)
    if ratio is not None:
        return _trusted_finite(Fraction(*ratio))
    return _parse_text(raw)


def _parse_text(raw: str) -> QVal:
    """:func:`parse_value` of a string that is not plain digits."""
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


def format_value(v: QVal) -> str:
    """Canonical textual form of a value."""
    if v.tag is Tag.BOT:
        return "bot"
    if v.tag is Tag.INF:
        return "inf"
    if v.tag is Tag.FINITE:
        return str(v.value)
    if v.tag is Tag.BOOL:
        return "true" if v.value else "false"
    return "(" + ",".join(format_value(p) for p in v.value) + ")"


def descriptor_to_json(q: QuantaleDescriptor) -> str | list:
    if q.kind is Kind.PRODUCT:
        return [descriptor_to_json(f) for f in q.factors]
    return q.kind.value


def descriptor_from_json(data: str | list, tolerance: float = 0.0) -> QuantaleDescriptor:
    def build(data, tolerance: float, depth: int) -> QuantaleDescriptor:
        if isinstance(data, str):
            low = data.strip().lower()
            for kind in _LEAF_TABLE:
                if low == kind.value:
                    return QuantaleDescriptor(kind, tolerance)
        elif isinstance(data, list) and data:
            if depth == MAX_NESTING:
                raise ValueError(f"product quantale nested deeper than {MAX_NESTING} levels")
            return QuantaleDescriptor(
                Kind.PRODUCT, tolerance, tuple(build(f, 0.0, depth + 1) for f in data)
            )
        raise ValueError(f"unknown quantale {data!r}")

    return build(data, tolerance, 0)


def parse_quantale_name(text: str, tolerance: float = 0.0) -> QuantaleDescriptor:
    """Parse a command-line quantale name: a base name or a comma list
    of base names for a product (e.g. ``bool,bool``)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return descriptor_from_json(parts[0], tolerance)
    return descriptor_from_json(parts, tolerance)
