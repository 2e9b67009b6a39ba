"""Gluing constructions: collages, black holes, and adjoined points.

The collage of a module M: D -/-> E is the single category built from
the block matrix ``[[E, M], [bot, D]]``: homs inside each block are the
original homs, homs from an E-object to a D-object are given by M, and
nothing maps back.  Physically the module reads as a wormhole from E to
D; when D is the unit category it is a black hole in E.  The module
actions are exactly what composition across the blocks requires, so the
collage of a valid module is always a valid category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .category import (
    VCategory,
    _format_rows,
    category_from_json,
    category_to_json,
    validate_category,
)
from .modules import VModule, check_adjunction, validate_module
from .quantale import bottom, unit

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class Collage:
    """A glued category, the left/right block label of each object, and
    the module it was built from (None when parsed from a file)."""

    category: VCategory
    partition: tuple[str, ...]
    origin: VModule | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "partition", tuple(self.partition))
        if len(self.partition) != len(self.category.objects):
            raise ValueError("partition length must match the object count")
        if any(p not in (LEFT, RIGHT) for p in self.partition):
            raise ValueError("partition entries must be 'left' or 'right'")
        sides = list(self.partition)
        if RIGHT in sides and LEFT in sides[sides.index(RIGHT) :]:
            raise ValueError("collage objects must list the left block first")


def collage(m: VModule) -> Collage:
    """Glue m.target and m.source along m (left block first)."""
    report = validate_module(m)
    if not report.ok:
        bad = [list(v[:3]) for v in report.left_violations + report.right_violations]
        raise ValueError(f"collage requires a valid module; action violations at {bad}")
    e, d = m.target, m.source
    q = m.quantale
    clash = set(e.objects) & set(d.objects)
    if clash:
        left_labels = tuple(f"L:{o}" for o in e.objects)
        right_labels = tuple(f"R:{o}" for o in d.objects)
    else:
        left_labels = e.objects
        right_labels = d.objects
    ne, nd = len(e), len(d)
    bot = (bottom(q),) * ne
    rows = [e_row + m_row for e_row, m_row in zip(e.hom, m.mat)] + [bot + d_row for d_row in d.hom]
    cat = VCategory(q, left_labels + right_labels, rows)
    return Collage(cat, (LEFT,) * ne + (RIGHT,) * nd, m)


def restrict(col: Collage) -> VModule:
    """Extract the generating module: the off-diagonal block.

    ``restrict(collage(m))`` returns ``m`` exactly.  For a collage
    parsed from a file the endpoint categories are rebuilt from the
    diagonal blocks under the labels as stored.
    """
    ne = col.partition.count(LEFT)  # the left block comes first
    hom, labels, q = col.category.hom, col.category.objects, col.category.quantale
    block = [row[ne:] for row in hom[:ne]]
    if col.origin is not None:
        return VModule(col.origin.source, col.origin.target, block)
    target = VCategory(q, labels[:ne], [row[:ne] for row in hom[:ne]])
    return VModule(VCategory(q, labels[ne:], [row[ne:] for row in hom[ne:]]), target, block)


def adjoin_point(m: VModule, n: VModule, label: str = "*") -> VCategory:
    """Extend m.target by one point whose homs are given by m and n.

    Homs to the new point come from M, homs from it come from N, and
    its endohom is the unit.  Only the counit of the adjunction is
    required; the unit is what additionally forces the new point to be
    at zero distance from the rest, the Cauchy reading.
    """
    report = check_adjunction(m, n)
    if not report.counit_ok:
        bad = [list(f[:2]) for f in report.counit_failures]
        raise ValueError(f"adjoin_point requires the counit inequality; failures at {bad}")
    e = m.target
    if len(m.source.objects) != 1 or len(n.target.objects) != 1:
        raise ValueError("adjoin_point takes modules to and from the unit category")
    if label in e.objects:
        raise ValueError(f"label {label!r} already names an object")
    q = m.quantale
    rows = [e_row + m_row for e_row, m_row in zip(e.hom, m.mat)] + [n.mat[0] + (unit(q),)]
    out = VCategory(q, e.objects + (label,), rows)
    check = validate_category(out)
    if not check.ok:
        bad = [list(v[:3]) for v in check.composition_violations]
        raise ValueError(
            "adjoined point breaks composition (an object interacts with it "
            f"above the unit endohom); violations at {bad}"
        )
    return out


def collage_to_json(col: Collage, *, _rows: Callable = _format_rows) -> dict:
    # _rows as in category_to_json
    data = category_to_json(col.category, _rows=_rows)
    data["partition"] = list(col.partition)
    return data


def collage_from_json(data: object, *, where: str = "collage") -> Collage:
    cat = category_from_json(data, where=where)
    if "partition" not in data:
        raise ValueError(f"{where}: missing field 'partition'")
    partition = data["partition"]
    if not isinstance(partition, list) or any(p not in (LEFT, RIGHT) for p in partition):
        raise ValueError(f"{where}.partition: expected a list of 'left'/'right'")
    try:
        return Collage(cat, tuple(partition), None)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
