"""Max-plus array kernel for the composition laws and for composition.

Every base embeds in the complete max-plus semiring [-inf, +inf]: the
tensor becomes ``+`` with -inf absorbing, the join becomes ``max`` and
an arrow a -> b exists iff enc(a) <= enc(b):

=========  ============  ==========  ===========
base       bottom        finite v    top
=========  ============  ==========  ===========
rbot       bot -> -inf   v           inf -> +inf
lawvere    inf -> -inf   -v          0 -> 0
bool       false -> -inf             true -> 0
=========  ============  ==========  ===========

A matrix over a product base gets a trailing factor axis, one entry per
base factor (length 1 for a plain base); order and join are
componentwise.  :func:`encode` scales finite values by the least common
multiple L of their denominators, so that every code is an integer; it
declines (returns None) when some |v*L| exceeds 2^52, so that a sum of
two codes is still exact.  :func:`law_encode` uses those codes at
tolerance 0 and otherwise the nearest float64 of each value, with a
bound that a static rounding-error margin keeps below c + tolerance (a
floating-point filter, after Shewchuk, "Adaptive precision
floating-point arithmetic and fast robust geometric predicates", 1997).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .quantale import BOT, FALSE, INF, TRUE, Kind, QuantaleDescriptor, QVal, Tag

EXACT_LIMIT = 2**52
# float codes and tolerances stay below 2^1020, so that no sum or bound
# overflows; U and ETA bound the rounding of a float64 code or sum,
# relative and absolute (the unit roundoff and the smallest subnormal)
_FLOAT_BITS = 1020
_U = 2.0**-53
_ETA = 2.0**-1074
# elements per broadcast block in :func:`product`: 128 KiB of float64,
# so that a block reuses heap memory instead of raising the peak
_CHUNK = 1 << 14

Matrix = Sequence[Sequence[QVal]]
Block = tuple[Matrix, int]


def _leaf_bases(q: QuantaleDescriptor) -> list[QuantaleDescriptor]:
    if q.kind is Kind.PRODUCT:
        return [leaf for f in q.factors for leaf in _leaf_bases(f)]
    return [q]


def _leaves(v: QVal) -> tuple[QVal, ...]:
    if v.tag is Tag.TUPLE:
        return tuple(x for p in v.value for x in _leaves(p))
    return (v,)


def _flat(q: QuantaleDescriptor, mat: Matrix) -> list[QVal]:
    """The leaf values of a matrix, row by row, factor by factor."""
    flat = [v for row in mat for v in row]
    return [x for v in flat for x in _leaves(v)] if q.kind is Kind.PRODUCT else flat


def _arrays(
    q: QuantaleDescriptor, blocks: Sequence[Block], code: Callable[[Fraction], float]
) -> list[np.ndarray]:
    """One (rows, cols, factors) array per block, a finite value ``v``
    encoded as ``code(v)`` (negated over lawvere)."""
    kinds = [leaf.kind for leaf in _leaf_bases(q)]
    nf, poles, fin = len(kinds), {Tag.BOT: -math.inf, Tag.INF: math.inf}, Tag.FINITE
    out = []
    for mat, cols in blocks:
        flat = _flat(q, mat)
        arr = np.empty(len(flat))
        for f, kind in enumerate(kinds):
            vals = flat[f::nf]
            if kind is Kind.BOOL:
                arr[f::nf] = [0.0 if v.value else -math.inf for v in vals]
            elif kind is Kind.LAWVERE:
                arr[f::nf] = [-code(v.value) if v.tag is fin else -math.inf for v in vals]
            else:
                arr[f::nf] = [code(v.value) if v.tag is fin else poles[v.tag] for v in vals]
        out.append(arr.reshape(len(mat), cols, nf))
    return out


def _finite_values(q: QuantaleDescriptor, blocks: Sequence[Block]) -> list[Fraction]:
    return [v.value for mat, _ in blocks for v in _flat(q, mat) if v.tag is Tag.FINITE]


def encode(q: QuantaleDescriptor, *blocks: Block) -> tuple[list[np.ndarray], int] | None:
    """Encode matrices over ``q`` with one common scale L.

    Each block is a matrix with its column count (a matrix without rows
    does not show it).  Returns one float64 array of shape (rows, cols,
    factors) per block, and L; or None when some |v*L| exceeds 2^52.
    The values must already lie in ``q``'s carrier, as the entries of a
    ``VCategory`` or ``VModule`` do.
    """
    finite = _finite_values(q, blocks)
    scale = math.lcm(*{x.denominator for x in finite})
    if max(finite, default=0) * scale > EXACT_LIMIT:
        return None
    return _arrays(q, blocks, lambda x: float(x.numerator * (scale // x.denominator))), scale


def law_encode(q: QuantaleDescriptor, *blocks: Block) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The codes of the blocks and, per block, a bound on code sums: for
    values a, b, c with codes x, y and bound z of c, the law
    ``leq(q, tensor(q, a, b), c)`` holds wherever x + y <= z in every
    factor.  With :func:`encode`'s codes (tolerance 0, L fits) z is c's
    code and the law fails exactly where x + y > z; with float codes
    (times 2^-shift near the top of float64's range) x + y > z only
    marks where it may fail.
    """
    tols = [leaf.tolerance for leaf in _leaf_bases(q)]
    enc = None if any(tols) else encode(q, *blocks)
    if enc is not None:
        return enc[0], enc[0]
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
    decoders = [_decoder(leaf.kind, scale) for leaf in _leaf_bases(q)]
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
