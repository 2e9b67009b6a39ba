"""Slow reference implementations that tests compare qcat against."""

from __future__ import annotations

from typing import Iterable, Sequence

from qcat import CausalDag, CycleError


def longest_path_oracle(
    dag: CausalDag, a: str, b: str, max_paths: int = 200_000
) -> int | None:
    """Exhaustive path enumeration, for checking the dynamic program.

    Returns the maximal edge count over all directed paths a -> b, 0
    when a == b, and None when b is unreachable.  Raises when more than
    ``max_paths`` paths would be walked.
    """
    for v in (a, b):
        if v not in dag.vertices:
            raise ValueError(f"unknown vertex {v!r}")
    if a == b:
        return 0
    succ: dict[str, list[str]] = {v: [] for v in dag.vertices}
    for x, y in dag.edges:
        succ[x].append(y)
    best: int | None = None
    walked = 0
    on_path: set[str] = {a}

    def dfs(v: str, length: int) -> None:
        nonlocal best, walked
        if v == b:
            walked += 1
            if walked > max_paths:
                raise ValueError(f"path enumeration exceeded {max_paths} paths")
            if best is None or length > best:
                best = length
            return
        for w in succ[v]:
            if w in on_path:
                raise CycleError((w, v, w))
            on_path.add(w)
            dfs(w, length + 1)
            on_path.discard(w)

    dfs(a, 0)
    return best


def idempotent_split_check(edges: Iterable[tuple[str, str]]) -> bool:
    """Idempotents in a preorder always split (the only endo-arrow on an
    object is its identity), so this returns True for every preorder.

    The input must actually be one; a non-reflexive or non-transitive
    edge set is rejected.
    """
    es = set(tuple(e) for e in edges)
    verts = {v for e in es for v in e}
    for v in verts:
        if (v, v) not in es:
            raise ValueError(f"edge set is not reflexive at {v!r}")
    succ: dict[str, set[str]] = {v: set() for v in verts}
    for a, b in es:
        succ[a].add(b)
    for a, b in es:
        for cdest in succ[b]:
            if (a, cdest) not in es:
                raise ValueError(f"edge set is not transitive: {a!r} -> {b!r} -> {cdest!r}")
    return True


def preorder_dot_oracle(objects: Sequence[str], edges: Iterable[tuple[str, str]]) -> str:
    """``category.preorder_dot`` as it was before it quoted each label
    once: one quote per node line and two per edge line."""

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph preorder {"]
    for o in objects:
        lines.append(f"  {quote(o)};")
    for a, b in sorted(edges):
        if a != b:
            lines.append(f"  {quote(a)} -> {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
