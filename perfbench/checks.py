"""Independent computations that the benchmark checks qcat's outputs against.

Nothing here imports qcat. Values are plain numpy arrays: over the causal
base ``rbot`` a matrix holds ``-inf`` for ``bot``, ``+inf`` for ``inf`` and
the finite value otherwise, so that its order is the float order and its
tensor is addition with ``bot`` absorbing. Exact inputs use small integers
and a separate mask, so their arithmetic is exact in int64.
"""

from __future__ import annotations

import numpy as np

BOT = -np.inf


class CheckError(Exception):
    """An output of qcat disagrees with the independent computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# Reading qcat's value strings.


def rbot_float(s: str) -> float:
    """A causal-base value string as a float; dyadic fractions are exact."""
    if s == "bot":
        return BOT
    if s == "inf":
        return np.inf
    num, _, den = s.partition("/")
    return float(int(num)) / float(int(den)) if den else float(int(num))


def rbot_matrix(rows: list[list[str]]) -> np.ndarray:
    return np.array([[rbot_float(s) for s in row] for row in rows], dtype=np.float64)


def otimes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Causal-base tensor, elementwise with broadcasting: bot absorbs inf."""
    with np.errstate(invalid="ignore"):
        s = a + b
    return np.where((a == BOT) | (b == BOT), BOT, s)


# ---------------------------------------------------------------------------
# Sprinkling: proper times and composition faults in float.


def proper_times(events: np.ndarray) -> np.ndarray:
    """hom[i, j] = sqrt(dt^2 - dx^2) from event i to event j, or bot when
    event j is not in the causal future of event i."""
    t, x = events[:, 0], events[:, 1]
    dt = t[None, :] - t[:, None]
    dx = np.abs(x[None, :] - x[:, None])
    related = dt >= dx
    with np.errstate(invalid="ignore"):
        tau = np.sqrt(dt * dt - dx * dx)
    return np.where(related, tau, BOT)


def float_violations(a: np.ndarray, tol: float) -> set[tuple[int, int, int]]:
    """Triples (i, j, k) with a[i,j] tensor a[j,k] > a[i,k] + tol."""
    out: set[tuple[int, int, int]] = set()
    bound = a + tol
    for j in range(a.shape[0]):
        comp = otimes(a[:, j : j + 1], a[j : j + 1, :])
        for i, k in np.argwhere(comp > bound):
            out.add((int(i), j, int(k)))
    return out


# ---------------------------------------------------------------------------
# Exact bases in int64: rbot as (value, finite mask), lawvere as values.


def rbot_int_violations(a: np.ndarray, fin: np.ndarray) -> set[tuple[int, int, int]]:
    """Composition faults of an rbot matrix with finite entries ``a[fin]``
    and bot elsewhere (no inf): max-plus, componentwise."""
    out: set[tuple[int, int, int]] = set()
    for j in range(a.shape[0]):
        valid = fin[:, j : j + 1] & fin[j : j + 1, :]
        comp = a[:, j : j + 1] + a[j : j + 1, :]
        bad = valid & (~fin | (comp > a))
        out.update((int(i), j, int(k)) for i, k in np.argwhere(bad))
    return out


def lawvere_int_violations(d: np.ndarray) -> set[tuple[int, int, int]]:
    """Triangle faults of a finite integer Lawvere metric: min-plus."""
    out: set[tuple[int, int, int]] = set()
    for j in range(d.shape[0]):
        bad = d[:, j : j + 1] + d[j : j + 1, :] < d
        out.update((int(i), j, int(k)) for i, k in np.argwhere(bad))
    return out


def detour_attained(d: np.ndarray) -> np.ndarray:
    """Pairs (i, k) whose distance a path through a third point attains."""
    far = np.iinfo(np.int64).max // 4
    best = np.full_like(d, far)
    for j in range(d.shape[0]):
        via = d[:, j : j + 1] + d[j : j + 1, :]
        via[j, :] = via[:, j] = far  # j may not be an endpoint
        best = np.minimum(best, via)
    return best == d


def rbot_int_square(a: np.ndarray, fin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-plus product of an rbot matrix with itself: (values, finite mask)."""
    n = a.shape[0]
    big = np.where(fin, a, np.iinfo(np.int64).min // 4)
    out = np.full((n, n), np.iinfo(np.int64).min // 4, dtype=np.int64)
    for j in range(n):
        out = np.maximum(out, big[:, j : j + 1] + big[j : j + 1, :])
    ofin = (fin.astype(np.int64) @ fin.astype(np.int64)) > 0
    return np.where(ofin, out, 0), ofin


def lawvere_int_square(d: np.ndarray) -> np.ndarray:
    """Min-plus product of a finite Lawvere matrix with itself."""
    return np.min(d[:, :, None] + d[None, :, :], axis=1)


def rbot_strings(a: np.ndarray, fin: np.ndarray) -> list[list[str]]:
    return [[str(int(v)) if f else "bot" for v, f in zip(r, fr)] for r, fr in zip(a, fin)]


def int_strings(d: np.ndarray) -> list[list[str]]:
    return [[str(int(v)) for v in r] for r in d]


def pair_strings(x: list[list[str]], y: list[list[str]]) -> list[list[str]]:
    return [[f"({u},{v})" for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


# ---------------------------------------------------------------------------
# Causal sets: longest paths and reachability by dynamic programming.


def longest_paths(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Edge counts of longest paths; vertices are numbered in a topological
    order (every edge goes from a lower to a higher index). -1 means
    unreachable; the diagonal is 0."""
    preds: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        require(a < b, f"edge {a}->{b} is not in topological order")
        preds[b].append(a)
    dist = np.full((n, n), -1, dtype=np.int64)
    for b in range(n):
        dist[b, b] = 0
        for a in preds[b]:
            col = dist[:, a]
            dist[:, b] = np.where(col >= 0, np.maximum(dist[:, b], col + 1), dist[:, b])
    return dist


def cycle_in_edges(cycle: list[str], edges: set[tuple[str, str]]) -> bool:
    """Whether ``cycle`` (first vertex repeated last) is a closed walk of edges."""
    return (
        len(cycle) >= 2
        and cycle[0] == cycle[-1]
        and all((a, b) in edges for a, b in zip(cycle, cycle[1:]))
    )


# ---------------------------------------------------------------------------
# Cauchy completeness by brute force.


def left_action_levels(e: np.ndarray, grid: np.ndarray, limit: int = 50_000) -> list[int] | None:
    """How many vectors in grid^i satisfy E(Y,X) tensor v(X) <= v(Y) among
    their first i coordinates, for i = 0..n (causal base; a truth value
    embeds as false -> bot, true -> 0). The last entry counts the modules
    I -/-> E with entries in the grid.

    Exhaustive over grid^n, one coordinate at a time: a prefix that breaks
    the inequality extends to no valid vector. Returns None once more than
    ``limit`` prefixes would be held.
    """
    cols = np.zeros((1, 0))
    levels = [1]
    for i in range(e.shape[0]):
        if len(cols) * len(grid) > limit:
            return None
        cand = np.hstack([np.repeat(cols, len(grid), axis=0), np.tile(grid, len(cols))[:, None]])
        vi = cand[:, i]
        ok = otimes(e[i, i], vi) <= vi
        for j in range(i):
            vj = cand[:, j]
            ok &= (otimes(e[j, i], vi) <= vj) & (otimes(e[i, j], vj) <= vi)
        cols = cand[ok]
        levels.append(len(cols))
    return levels


def bool_as_rbot(r: np.ndarray) -> np.ndarray:
    return np.where(r, 0.0, BOT)


def transitive_closure(r: np.ndarray) -> np.ndarray:
    r = r.copy()
    for k in range(r.shape[0]):
        r |= r[:, k : k + 1] & r[k : k + 1, :]
    return r
