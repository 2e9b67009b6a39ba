"""Max-plus array kernel for the composition laws and for composition.

Every base embeds in the complete max-plus semiring [-inf, +inf] by the
codes of its row of the leaf table in :mod:`qcat.quantale` (README, "One
scalar algebra"): the tensor becomes ``+`` with -inf absorbing, the join
becomes ``max`` and an arrow a -> b exists iff code(a) <= code(b).  The
scalar operations run on the same codes, one value at a time.

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

from .quantale import _NEG, _POS, Kind, QuantaleDescriptor, QVal, Tag, _build, _decode, _Leaf

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
    """One (rows, cols, factors) array per block, coded by each leaf's
    table row with ``code(v)`` in place of a finite value ``v``."""
    leaves = q._leaves
    nf, fin, neg, pos = len(leaves), Tag.FINITE, -math.inf, math.inf
    out = []
    for mat, cols in blocks:
        flat = _flat(q, mat)
        arr = np.empty(len(flat))
        for f, leaf in enumerate(leaves):
            vals, low = flat[f::nf], leaf.bottom.tag
            if leaf.sign is None:
                arr[f::nf] = [0.0 if v.value else neg for v in vals]
            elif leaf.sign > 0:
                arr[f::nf] = [code(v.value) if v.tag is fin else neg if v.tag is low else pos for v in vals]
            else:
                arr[f::nf] = [-code(v.value) if v.tag is fin else neg if v.tag is low else pos for v in vals]
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
    tols = [float(leaf.tolerance) for leaf in q._leaves]
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


def _decoder(leaf: _Leaf, scale: int):
    """Map one encoded factor value back to a ``QVal``, memoised."""
    memo: dict[float, QVal] = {}

    def decode(x: float) -> QVal:
        v = memo.get(x)
        if v is None:
            code = _NEG if x == -math.inf else _POS if x == math.inf else Fraction(int(x), scale)
            v = memo[x] = _decode(leaf, code)
        return v

    return decode


def decode(q: QuantaleDescriptor, arr: np.ndarray, scale: int) -> tuple[tuple[QVal, ...], ...]:
    """The ``QVal`` matrix of an encoded (rows, cols, factors) array."""
    rows, cols, nf = arr.shape
    decoders = [_decoder(leaf, scale) for leaf in q._leaves]
    if nf == 1:
        (dec,) = decoders
        return tuple(tuple(dec(x) for x in row) for row in arr[:, :, 0].tolist())
    out = []
    for row in arr.tolist():
        out.append(
            tuple(
                _build(q, (d(x) for d, x in zip(decoders, entry))) for entry in row
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
