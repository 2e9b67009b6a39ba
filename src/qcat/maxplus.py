"""Exact max-plus array kernel for validation and composition.

Every base embeds in the complete max-plus semiring [-inf, +inf]: the
tensor becomes ``+`` with -inf absorbing, the join becomes ``max`` and
an arrow a -> b exists iff enc(a) <= enc(b).  Finite values are scaled
by the least common multiple L of their denominators, so every encoded
value is an integer:

=========  ============  ==========  ===========
base       bottom        finite v    top
=========  ============  ==========  ===========
rbot       bot -> -inf   v*L         inf -> +inf
lawvere    inf -> -inf   -v*L        0 -> 0
bool       false -> -inf             true -> 0
=========  ============  ==========  ===========

A matrix over a product base gets a trailing factor axis, one entry per
base factor (length 1 for a plain base); order and join are
componentwise.  Encoded values are float64, which holds the integers
up to 2^53 exactly; :func:`encode` declines (returns None) when some
|v*L| exceeds 2^52, so that a sum of two of them is still exact, and
the caller then keeps its scalar loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .quantale import BOT, FALSE, INF, TRUE, Kind, QuantaleDescriptor, QVal, Tag

EXACT_LIMIT = 2**52
# elements per broadcast block in :func:`product`: 128 KiB of float64,
# so that a block reuses heap memory instead of raising the peak
_CHUNK = 1 << 14

Matrix = Sequence[Sequence[QVal]]


def _leaf_kinds(q: QuantaleDescriptor) -> tuple[Kind, ...]:
    if q.kind is Kind.PRODUCT:
        return tuple(k for f in q.factors for k in _leaf_kinds(f))
    return (q.kind,)


def _leaves(v: QVal) -> tuple[QVal, ...]:
    if v.tag is Tag.TUPLE:
        return tuple(x for p in v.value for x in _leaves(p))
    return (v,)


def _code(kind: Kind, v: QVal, scale: int) -> float:
    tag = v.tag
    if tag is Tag.FINITE:
        x = float(v.value.numerator * (scale // v.value.denominator))
        return -x if kind is Kind.LAWVERE else x
    if tag is Tag.BOOL:
        return 0.0 if v.value else -math.inf
    if tag is Tag.INF:
        return -math.inf if kind is Kind.LAWVERE else math.inf
    return -math.inf


def encode(
    q: QuantaleDescriptor, *blocks: tuple[Matrix, int]
) -> tuple[list[np.ndarray], int] | None:
    """Encode matrices over ``q`` with one common scale L.

    Each block is a matrix with its column count (a matrix without rows
    does not show it).  Returns one float64 array of shape (rows, cols,
    factors) per block, and L; or None when some |v*L| exceeds 2^52.
    The values must already lie in ``q``'s carrier, as the entries of a
    ``VCategory`` or ``VModule`` do.
    """
    kinds = _leaf_kinds(q)
    nf = len(kinds)
    flats = []
    for mat, _ in blocks:
        flat = [v for row in mat for v in row]
        if q.kind is Kind.PRODUCT:
            flat = [x for v in flat for x in _leaves(v)]
        flats.append(flat)
    finite = [v.value for flat in flats for v in flat if v.tag is Tag.FINITE]
    scale = math.lcm(*{x.denominator for x in finite})
    if max(finite, default=0) * scale > EXACT_LIMIT:
        return None
    arrays = []
    for (mat, cols), flat in zip(blocks, flats):
        codes = [_code(kinds[i % nf], v, scale) for i, v in enumerate(flat)]
        arrays.append(np.array(codes, dtype=np.float64).reshape(len(mat), cols, nf))
    return arrays, scale


def _decoder(kind: Kind, scale: int):
    """Map one encoded factor value back to a ``QVal``, memoised."""
    memo: dict[float, QVal] = {}

    def decode(x: float) -> QVal:
        v = memo.get(x)
        if v is None:
            if x == -math.inf:
                v = INF if kind is Kind.LAWVERE else FALSE if kind is Kind.BOOL else BOT
            elif x == math.inf:
                v = INF
            elif kind is Kind.BOOL:
                v = TRUE
            else:
                k = int(x)
                v = QVal(Tag.FINITE, Fraction(-k if kind is Kind.LAWVERE else k, scale))
            memo[x] = v
        return v

    return decode


def _assemble(q: QuantaleDescriptor, leaves) -> QVal:
    if q.kind is Kind.PRODUCT:
        return QVal(Tag.TUPLE, tuple(_assemble(f, leaves) for f in q.factors))
    return next(leaves)


def decode(q: QuantaleDescriptor, arr: np.ndarray, scale: int) -> tuple[tuple[QVal, ...], ...]:
    """The ``QVal`` matrix of an encoded (rows, cols, factors) array."""
    rows, cols, nf = arr.shape
    decoders = [_decoder(kind, scale) for kind in _leaf_kinds(q)]
    if nf == 1:
        (dec,) = decoders
        return tuple(tuple(dec(x) for x in row) for row in arr[:, :, 0].tolist())
    out = []
    for row in arr.tolist():
        out.append(
            tuple(
                _assemble(q, (d(x) for d, x in zip(decoders, entry))) for entry in row
            )
        )
    return tuple(out)


def product(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Max-plus matrix product: out[x, p] = max over a of m[x, a] + n[a, p].

    The NaN of (-inf) + (+inf) stands for an absorbed bottom, so it is
    skipped by ``fmax``; an empty middle leaves -inf, the bottom.
    """
    rows, mid, nf = m.shape
    cols = n.shape[1]
    out = np.full((rows, cols, nf), -np.inf)
    step = max(1, _CHUNK // max(1, rows * cols * nf))
    with np.errstate(invalid="ignore"):
        for a0 in range(0, mid, step):
            s = m[:, a0 : a0 + step, None, :] + n[None, a0 : a0 + step, :, :]
            np.fmax(out, np.fmax.reduce(s, axis=1), out=out)
    return out


def violating_triples(a: np.ndarray, bound: np.ndarray) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with a[i, j] + a[j, k] > bound[i, k] in some
    factor, in lexicographic order.

    ``a`` and ``bound`` have shape (n, n, factors).  A NaN sum is an
    absorbed bottom and never exceeds the bound.
    """
    n = a.shape[0]
    triples: list[tuple[int, int, int]] = []
    with np.errstate(invalid="ignore"):
        for j in range(n):
            s = a[:, j, None, :] + a[None, j, :, :]
            bad = (s > bound).any(axis=2)
            triples.extend((int(i), j, int(k)) for i, k in np.argwhere(bad))
    triples.sort()
    return triples
