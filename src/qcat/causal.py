"""Generators and ingestion for causal spaces.

Two sources of examples: uniform sprinklings into a 2D flat spacetime
rectangle, and finite causal sets (DAGs) whose homs are longest-path
lengths.  Both produce categories over the causal base; the sprinkling
opts into a 1e-9 comparison tolerance because its values pass through
floating-point square roots, while DAG ingestion is exact.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .category import VCategory, _require_utf8
from .maxplus import _BOT, _FIN, Column, _ints
from .quantale import BOT, QVal, finite, rbot

MINKOWSKI_TOLERANCE = 1e-9


class CycleError(ValueError):
    """The input graph is not acyclic; carries a witness cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = tuple(cycle)
        super().__init__("graph contains a cycle: " + " -> ".join(self.cycle))


@dataclass(frozen=True)
class CausalDag:
    """A finite directed graph; acyclicity is verified on ingestion."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        known = set(self.vertices)
        seen = set()
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a!r}, {b!r}) mentions an unknown vertex")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            seen.add((a, b))


def dag_from_text(text: str) -> CausalDag:
    """Parse an edge list, one ``a b`` pair per line; blank lines and
    ``#`` comments are skipped.  Vertices appear in first-use order."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'source target', got {line!r}")
        for v in parts:
            if v not in seen:
                seen.add(v)
                vertices.append(v)
        edges.append((parts[0], parts[1]))
    return CausalDag(tuple(vertices), tuple(edges))


def dag_from_json(data: object, *, where: str = "dag") -> CausalDag:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError(f"{where}: expected an object with 'vertices' and 'edges'")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or any(not isinstance(v, str) for v in vertices):
        raise ValueError(f"{where}.vertices: expected a list of strings")
    for i, v in enumerate(vertices):
        _require_utf8(v, f"{where}.vertices[{i}]")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"{where}.edges: expected a list of pairs")
    pairs = []
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or any(not isinstance(v, str) for v in e):
            raise ValueError(f"{where}.edges[{i}]: expected a pair of vertex names")
        pairs.append((e[0], e[1]))
    try:
        return CausalDag(tuple(vertices), tuple(pairs))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _successors(dag: CausalDag) -> list[list[int]]:
    """Each vertex's successors, as vertex positions, in edge order."""
    pos = {v: i for i, v in enumerate(dag.vertices)}
    succ: list[list[int]] = [[] for _ in dag.vertices]
    for a, b in dag.edges:
        succ[pos[a]].append(pos[b])
    return succ


def _find_cycle(vertices: tuple[str, ...], succ: list[list[int]]) -> tuple[str, ...]:
    """A cycle ``a -> ... -> a`` of the graph, by depth-first search with
    an explicit stack, so that long cycles do not exhaust the recursion
    limit."""
    color = [0] * len(succ)  # 0 new, 1 on path, 2 done
    for root in range(len(succ)):
        if color[root]:
            continue
        color[root] = 1
        path = [root]
        todo = [iter(succ[root])]
        while todo:
            w = next(todo[-1], None)
            if w is None:
                todo.pop()
                color[path.pop()] = 2
            elif color[w] == 1:
                return tuple(vertices[x] for x in path[path.index(w) :] + [w])
            elif color[w] == 0:
                color[w] = 1
                path.append(w)
                todo.append(iter(succ[w]))
    raise AssertionError("no cycle found in a graph that toposort could not order")


def _order(succ: list[list[int]]) -> list[int]:
    """Kahn's algorithm on vertex positions; see :func:`toposort`."""
    indeg = [0] * len(succ)
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    queue = deque(v for v, d in enumerate(indeg) if d == 0)
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order


def toposort(dag: CausalDag) -> list[str]:
    """Kahn's algorithm: the vertices in an order that respects every edge.

    On a graph with a cycle the order stops short: it leaves out every
    vertex on a cycle or reachable from one.  It does not raise, so a
    caller can time or inspect it on any graph;
    :func:`causal_space_from_dag` checks the length and raises
    :class:`CycleError` with a witness.
    """
    return [dag.vertices[v] for v in _order(_successors(dag))]


def causal_space_from_dag(dag: CausalDag) -> VCategory:
    """The causal space of a causal set: hom(A, B) is the number of
    edges on the longest directed path from A to B, 0 on the diagonal,
    and bot when B is unreachable.

    Longest paths over a topological order make composition hold: a
    path through an intermediate vertex is never longer than the
    longest direct one.  Raises :class:`CycleError`, with a cycle of
    the graph as witness, when the graph is not acyclic.
    """
    succ = _successors(dag)
    order = _order(succ)
    n = len(succ)
    if len(order) != n:
        raise CycleError(_find_cycle(dag.vertices, succ))
    # dist[v, x]: the longest path from v to x, -1 where there is none,
    # each row one past the best of its successors' rows, which the
    # reverse topological order has already filled
    dist = np.full((n, n), -1, np.int32)
    for v in reversed(order):
        if succ[v]:
            best = dist[succ[v]].max(axis=0)
            dist[v] = np.where(best >= 0, best + 1, -1)
        dist[v, v] = 0
    # indexed as it stands: bot where no path goes, then one value per
    # length from 0 to the longest (a longest path passes every shorter one)
    longest, bot = int(dist.max(initial=-1)), int((dist < 0).any())
    dist += bot
    values = Column.of([_BOT] * bot + [_FIN] * (longest + 1), [0] * bot + list(range(longest + 1)),
                       [1] * (bot + longest + 1))
    return VCategory(rbot(), dag.vertices, None, (values, dist))


@dataclass(frozen=True)
class Event2D:
    """A point (t, x) of 2D flat spacetime."""

    t: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError("event coordinates must be finite")


def interval_2d(e1: Event2D, e2: Event2D) -> QVal:
    """Proper-time interval from e1 to e2: sqrt(dt^2 - dx^2) when e2 is
    in e1's future lightcone (dt >= |dx|), bot otherwise."""
    dt = e2.t - e1.t
    dx = abs(e2.x - e1.x)
    if dt < dx:
        return BOT
    root = math.sqrt(dt * dt - dx * dx)
    if not math.isfinite(root):
        raise ValueError(f"interval from {e1} to {e2}: its square overflows a float")
    return finite(root)


def minkowski_sample(
    n: int,
    seed: int,
    bounds: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
) -> tuple[VCategory, list[Event2D]]:
    """Sprinkle ``n`` uniform events into the rectangle ``(t0, t1, x0, x1)``
    and build their causal space at tolerance 1e-9.

    Deterministic per seed and platform: coordinates are
    ``lo + (hi - lo) * r`` for consecutive outputs r of the Mersenne
    Twister ``random()`` stream seeded with ``seed``, t drawn before x,
    events in order.  Finite hom values are the exact binary values of
    the computed square roots.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t0, t1, x0, x1 = bounds
    if not (t1 > t0 and x1 > x0):
        raise ValueError(f"degenerate bounds {bounds}")
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        dt, dx = t - t[:, None], np.abs(x - x[:, None])  # from the row's event to the column's
        causal = dt >= dx
        a, b, bot = dt[causal], dx[causal], int(not causal.all())
        root = np.sqrt(a * a - b * b)
    # dt >= dx >= 0: every root is a float >= 0, finite unless a square overflowed
    if not np.isfinite(root).all():
        raise ValueError(f"bounds {bounds} too wide: a squared interval overflows a float")
    positions = np.zeros((n, n), np.intp)
    positions[causal] = np.arange(bot, bot + len(a))
    num, den = _binary_fractions(root)
    tags = np.full(bot + len(a), _FIN, np.int8)
    tags[:bot] = _BOT
    values = Column(tags, np.concatenate([np.zeros(bot, num.dtype), num]),
                    np.concatenate([np.ones(bot, den.dtype), den]))
    return VCategory(rbot(MINKOWSKI_TOLERANCE), labels, None, (values, positions)), events


def _binary_fractions(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced numerators and denominators of finite floats x >= 0,
    ``x.as_integer_ratio()`` of each: int64 arrays where they fit, object
    arrays of Python ints where not, decided per array."""
    mant, exp = np.frexp(x)  # x = mant * 2^exp, mant in [0.5, 1) or 0
    num = (mant * 2.0**53).astype(np.int64)  # x = num * 2^(exp - 53), num < 2^53
    # strip num's trailing zero bits: 2^tz is its lowest set bit
    tz = np.frexp((num & -num).astype(float))[1] - 1
    exp = np.where(num > 0, exp - 53 + tz, 0)
    num >>= np.maximum(tz, 0)
    up, down = np.maximum(exp, 0), np.maximum(-exp, 0)
    if up.any():  # an integer past 2^53
        num = _ints([p << e for p, e in zip(num.tolist(), up.tolist())])
    if down.max(initial=0) < 63:
        return num, np.left_shift(1, down, dtype=np.int64)
    return num, np.array([1 << e for e in down.tolist()], object)


def _signed_interval(p1: tuple[int, int], p2: tuple[int, int]) -> int:
    # mixed-signature convention: time-like (and light-like) intervals
    # are negative, space-like ones positive; inputs are integer points
    # whose squared intervals are perfect squares
    dt = p2[0] - p1[0]
    dx = abs(p2[1] - p1[1])
    s = dt * dt - dx * dx
    if s >= 0:
        return -math.isqrt(s)
    return math.isqrt(-s)


@dataclass(frozen=True)
class MixedSignatureRecord:
    """Witness that signed intervals on [-inf, inf] break the triangle
    inequality when time-like and space-like legs mix."""

    a: tuple[int, int]
    b: tuple[int, int]
    c: tuple[int, int]
    d_ab: int
    d_bc: int
    d_ac: int

    @property
    def chained(self) -> int:
        return self.d_ab + self.d_bc

    @property
    def violation(self) -> bool:
        return self.chained < self.d_ac

    def to_json(self) -> dict:
        return {
            "points": {"A": list(self.a), "B": list(self.b), "C": list(self.c)},
            "d_ab": self.d_ab,
            "d_bc": self.d_bc,
            "d_ac": self.d_ac,
            "chained": self.chained,
            "violation": self.violation,
        }


def mixed_signature_check() -> MixedSignatureRecord:
    """Evaluate the canonical three-event witness A=(0,0), B=(-1,0),
    C=(0,1): the chained signed interval is -1 while the direct one is
    1, so no triangle inequality can hold for the mixed signature."""
    a, b, c = (0, 0), (-1, 0), (0, 1)
    return MixedSignatureRecord(
        a,
        b,
        c,
        _signed_interval(a, b),
        _signed_interval(b, c),
        _signed_interval(a, c),
    )
