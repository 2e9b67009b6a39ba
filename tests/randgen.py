"""Seeded random generators for valid categories, modules and DAGs.

Categories are built constructively so they are valid by construction
(the tests still validate them): regular events come from a weighted
DAG of simultaneity clusters closed under longest paths, and irregular
events (endohom inf) are attached in one of the shapes composition
allows.  Modules are cross blocks of a category hom matrix, which the
composition law makes valid automatically.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qcat import (
    BOT,
    INF,
    RBOT,
    CausalDag,
    QuantaleDescriptor,
    QVal,
    VCategory,
    VModule,
    boolean,
    finite,
    join,
    tensor,
    tuple_val,
    unit_category,
)
from qcat.quantale import Kind

EDGE_WEIGHTS = (finite(0), finite(1), finite(2), finite(Fraction(5, 2)))


def random_rbot_category(
    rng: random.Random,
    max_objects: int = 5,
    *,
    allow_irregular: bool = True,
    weights: tuple[QVal, ...] = EDGE_WEIGHTS,
    min_objects: int = 0,
) -> VCategory:
    n = rng.randint(min_objects, max_objects)
    n_irr = 0
    if allow_irregular and n > 0 and rng.random() < 0.25:
        n_irr = rng.randint(1, min(2, n))
    n_reg = n - n_irr

    # simultaneity clusters: objects in one cluster are at mutual distance 0
    if n_reg > 0:
        n_clusters = rng.randint(max(1, n_reg // 2), n_reg)
        cluster_of = [rng.randrange(n_clusters) for _ in range(n_reg)]
    else:
        n_clusters = 0
        cluster_of = []

    # weighted DAG on clusters, closed under max-plus longest paths
    cdist: list[list[QVal]] = [
        [finite(0) if i == j else BOT for j in range(n_clusters)] for i in range(n_clusters)
    ]
    for i in range(n_clusters):
        for j in range(i + 1, n_clusters):
            if rng.random() < 0.45:
                w = INF if rng.random() < 0.08 else rng.choice(weights)
                cdist[i][j] = w
    for k in range(n_clusters):
        for i in range(n_clusters):
            for j in range(n_clusters):
                via = tensor(RBOT, cdist[i][k], cdist[k][j])
                cdist[i][j] = join(RBOT, [cdist[i][j], via])

    hom: list[list[QVal]] = [[BOT] * n for _ in range(n)]
    for i in range(n_reg):
        for j in range(n_reg):
            hom[i][j] = cdist[cluster_of[i]][cluster_of[j]]

    # at most one irregular interacts with the regular part; the rest
    # are isolated (bot homs in both directions)
    active = rng.randrange(n_irr) if n_irr and rng.random() < 0.7 else None
    for a in range(n_irr):
        w = n_reg + a
        hom[w][w] = INF
        if a == active:
            if rng.random() < 0.5:
                for x in range(n_reg):  # everything falls into w
                    hom[x][w] = INF
            else:
                for x in range(n_reg):  # w precedes everything
                    hom[w][x] = INF

    perm = list(range(n))
    rng.shuffle(perm)
    labels = tuple(f"e{i}" for i in range(n))
    rows = tuple(tuple(hom[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return VCategory(RBOT, labels, rows)


def random_category(
    rng: random.Random,
    q: QuantaleDescriptor,
    n: int,
    *,
    edge_p: float = 0.45,
    distances: tuple[Fraction | int, ...] = (1, 2, 3),
) -> VCategory:
    """A valid category over ``q`` on objects e0..e(n-1): over rbot one of
    :func:`random_rbot_category`; over lawvere the shortest-path closure
    of random ``distances`` (or inf); over bool the reflexive transitive
    closure of a random relation; over a product one random category per
    factor, zipped entrywise."""
    labels = tuple(f"e{i}" for i in range(n))
    if q.kind is Kind.PRODUCT:
        parts = [random_category(rng, f, n, edge_p=edge_p, distances=distances) for f in q.factors]
        rows = [[tuple_val(p.hom[i][j] for p in parts) for j in range(n)] for i in range(n)]
    elif q.kind is Kind.RBOT:
        rows = random_rbot_category(rng, n, min_objects=n).hom
    elif q.kind is Kind.LAWVERE:
        d = [[0 if i == j else rng.choice(distances) if rng.random() < edge_p else None
              for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if d[i][k] is not None and d[k][j] is not None:
                        via = d[i][k] + d[k][j]
                        if d[i][j] is None or via < d[i][j]:
                            d[i][j] = via
        rows = [[INF if x is None else finite(x) for x in row] for row in d]
    else:
        r = [[i == j or rng.random() < edge_p / 2 for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                if r[i][k]:
                    r[i] = [a or b for a, b in zip(r[i], r[k])]
        rows = [[boolean(x) for x in row] for row in r]
    return VCategory(q, labels, tuple(tuple(row) for row in rows))


def subcategory(cat: VCategory, ixs: list[int]) -> VCategory:
    return VCategory(
        cat.quantale,
        tuple(cat.objects[i] for i in ixs),
        tuple(tuple(cat.hom[i][j] for j in ixs) for i in ixs),
    )


def block_module(cat: VCategory, target_ixs: list[int], source_ixs: list[int]) -> VModule:
    """The cross block of a hom matrix as a module between the two full
    subcategories; the composition law is exactly the module actions."""
    return block_module_between(
        cat, subcategory(cat, target_ixs), target_ixs, subcategory(cat, source_ixs), source_ixs
    )


def block_module_between(cat, target, target_ixs, source, source_ixs) -> VModule:
    mat = tuple(tuple(cat.hom[x][a] for a in source_ixs) for x in target_ixs)
    return VModule(source, target, mat)


def _split(rng: random.Random, n: int, parts: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(parts)]
    for i in range(n):
        out[rng.randrange(parts)].append(i)
    return out


def random_rbot_module(rng: random.Random, max_objects: int = 7) -> VModule:
    cat = random_rbot_category(rng, max_objects)
    d_ixs, e_ixs = _split(rng, len(cat.objects), 2)
    return block_module(cat, e_ixs, d_ixs)


def random_black_hole_module(rng: random.Random, max_objects: int = 5) -> VModule:
    """A valid column module I -/-> E: the hom-weighted closure of a
    random assignment, M(Y) = join_X E(Y, X) tensor V(X).

    Half the assignments put a single 0 on one object (so the closure is
    a representable column, hence Cauchy), the rest are unconstrained.
    """
    cat = random_rbot_category(rng, max_objects, min_objects=0)
    n = len(cat.objects)
    grid = (BOT, finite(0), finite(1), finite(3), INF)
    if n and rng.random() < 0.5:
        v = [BOT] * n
        v[rng.randrange(n)] = finite(0)
    else:
        v = [rng.choice(grid) for _ in range(n)]
    col = [
        join(RBOT, [tensor(RBOT, cat.hom[y][x], v[x]) for x in range(n)]) for y in range(n)
    ]
    return VModule(unit_category(RBOT), cat, tuple((c,) for c in col))


def random_module_triple(
    rng: random.Random, max_objects: int = 8
) -> tuple[VModule, VModule, VModule]:
    """Composable m: D -/-> E, n: C -/-> D, p: B -/-> C."""
    cat = random_rbot_category(rng, max_objects)
    b, c, d, e = _split(rng, len(cat.objects), 4)
    cat_b, cat_c, cat_d, cat_e = (subcategory(cat, ix) for ix in (b, c, d, e))
    m = block_module_between(cat, cat_e, e, cat_d, d)
    n = block_module_between(cat, cat_d, d, cat_c, c)
    p = block_module_between(cat, cat_c, c, cat_b, b)
    return m, n, p


def random_dag(rng: random.Random, max_vertices: int = 8) -> CausalDag:
    n = rng.randint(1, max_vertices)
    labels = [f"v{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                edges.append((order[i], order[j]))
    return CausalDag(tuple(labels), tuple(edges))


def reflexive_transitive_closure(
    vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...]
) -> frozenset[tuple[str, str]]:
    reach = {(v, v) for v in vertices}
    reach.update(edges)
    for k in vertices:
        for i in vertices:
            if (i, k) in reach:
                for j in vertices:
                    if (k, j) in reach:
                        reach.add((i, j))
    return frozenset(reach)
