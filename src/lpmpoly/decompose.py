"""Decomposing a region's polytope into border-strip polytopes.

A hyperplane split fixes the number of N steps among the first x ground
elements to j on the shared facet; recursing on the two pinched children
terminates exactly when every leaf region is a border strip (no 2-by-2
block of boxes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, NamedTuple

from .errors import InvalidSplit
from .matroid import is_independent, presentation
from .paths import Box, PathWord, Region, path_from_profile, region_boxes


class Split(NamedTuple):
    x: int
    j: int


def find_split(region: Region) -> Split | None:
    """Smallest (j, x) where both the j-th and (j+1)-th intervals straddle x.

    Absent exactly when the region is a border strip.
    """
    intervals = presentation(region).intervals
    for j in range(1, len(intervals)):
        s_j, t_j = intervals[j - 1]
        s_next, t_next = intervals[j]
        for x in range(s_j + 1, t_j):
            if s_next < x + 1 < t_next:
                return Split(x, j)
    return None


@dataclass(frozen=True)
class SplitResult:
    left: Region
    right: Region
    split: Split


def hyperplane_split(region: Region, x: int, j: int) -> SplitResult:
    """Split into the child with at most j N steps in the first x elements (left)
    and the child with at least j (right); the shared bases form a facet of both."""
    intervals = presentation(region).intervals
    ok = (
        1 <= j < region.r
        and intervals[j - 1][0] < x < intervals[j - 1][1]
        and intervals[j][0] < x + 1 < intervals[j][1]
    )
    if not ok:
        raise InvalidSplit(f"(x={x}, j={j}) does not satisfy the split condition")
    p = region.lower.profile
    q = region.upper.profile
    n = region.size
    capped = tuple(min(q[i], j + max(0, i - x)) for i in range(n + 1))
    raised = tuple(max(p[i], j - max(0, x - i)) for i in range(n + 1))
    left = Region(region.lower, path_from_profile(capped))
    right = Region(path_from_profile(raised), region.upper)
    return SplitResult(left, right, Split(x, j))


def is_border_strip(region: Region) -> bool:
    """No 2-by-2 square of boxes anywhere in the region."""
    boxes = set(region_boxes(region))
    return not any(
        (b.col + 1, b.row) in boxes
        and (b.col, b.row + 1) in boxes
        and (b.col + 1, b.row + 1) in boxes
        for b in boxes
    )


@dataclass(frozen=True)
class BorderStrip:
    """A monotone box path; each successor is one step East or one step North."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        for a, b in zip(self.boxes, self.boxes[1:]):
            step = (b.col - a.col, b.row - a.row)
            if step not in ((1, 0), (0, 1)):
                raise ValueError(f"boxes {a} -> {b} are not E/N adjacent")

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def descents(self) -> frozenset[int]:
        """Positions i where box i+1 sits North of box i."""
        return frozenset(
            i
            for i, (a, b) in enumerate(zip(self.boxes, self.boxes[1:]), start=1)
            if b.row == a.row + 1
        )

    @property
    def direction_word(self) -> str:
        return "".join(
            "U" if b.row == a.row + 1 else "R"
            for a, b in zip(self.boxes, self.boxes[1:])
        )


def border_strips(region: Region) -> list[BorderStrip]:
    """All monotone box paths from the region's first box to its last box.

    Emitted in lexicographic order of direction words (R < U).  A boxless
    region yields the single empty strip; a border-strip region yields itself.
    The depth-first walk keeps its own stack, so strip length is unbounded.
    """
    boxes = set(region_boxes(region))
    if not boxes:
        return [BorderStrip(())]
    first = min(boxes, key=lambda b: (b.col, b.row))
    last = max(boxes, key=lambda b: (b.col, b.row))
    if first == last:
        return [BorderStrip((first,))]

    def moves(b: Box) -> Iterator[Box]:
        for nxt in (Box(b.col + 1, b.row), Box(b.col, b.row + 1)):
            if nxt in boxes and nxt.col <= last.col and nxt.row <= last.row:
                yield nxt

    out: list[BorderStrip] = []
    trail: list[Box] = [first]
    branches = [moves(first)]  # branches[k]: untried successors of trail[k]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            branches.pop()
            trail.pop()
        elif nxt == last:
            out.append(BorderStrip((*trail, nxt)))
        else:
            trail.append(nxt)
            branches.append(moves(nxt))
    return out


def strip_to_region(strip: BorderStrip, ambient: Region | None = None) -> Region:
    """The region whose box set is exactly the strip (the ambient itself when empty)."""
    if not strip.boxes:
        if ambient is None:
            raise ValueError("an empty strip needs its ambient region")
        return ambient
    cols: dict[int, list[int]] = {}
    for b in strip.boxes:
        cols.setdefault(b.col, []).append(b.row)
    m = max(cols)
    r = max(b.row for b in strip.boxes)
    lower_heights = [min(cols[c]) - 1 for c in range(1, m + 1)]
    upper_heights = [max(cols[c]) for c in range(1, m + 1)]

    def from_heights(heights: list[int]) -> PathWord:
        profile = [0]
        h = 0
        for target in heights:
            while h < target:
                h += 1
                profile.append(h)
            profile.append(h)
        while h < r:
            h += 1
            profile.append(h)
        return path_from_profile(tuple(profile))

    return Region(from_heights(lower_heights), from_heights(upper_heights))


def region_to_strip(region: Region) -> BorderStrip:
    """Read a border-strip region's boxes as the strip itself, in path order."""
    boxes = sorted(region_boxes(region))
    if not boxes:
        return BorderStrip(())
    ordered = sorted(boxes, key=lambda b: (b.col + b.row, b.col))
    return BorderStrip(tuple(ordered))


@dataclass(frozen=True)
class GoodPartition:
    """Ground-set bipartition with threshold witnesses for a hyperplane split."""

    e1: tuple[int, ...]
    e2: tuple[int, ...]
    r1: int
    r2: int
    a1: int
    a2: int


def good_partition_of_split(region: Region, x: int, j: int) -> GoodPartition:
    p = region.lower.profile
    q = region.upper.profile
    n = region.size
    r1 = q[x]
    r2 = region.r - p[x]
    return GoodPartition(
        e1=tuple(range(1, x + 1)),
        e2=tuple(range(x + 1, n + 1)),
        r1=r1,
        r2=r2,
        a1=r1 - j,
        a2=j - p[x],
    )


def _restriction_rank(region: Region, ground: tuple[int, ...]) -> int:
    pres = presentation(region)
    best = 0
    for size in range(len(ground), 0, -1):
        if size <= best:
            break
        for sub in combinations(ground, size):
            if is_independent(pres, sub):
                best = size
                break
    return best


def partition_arithmetic_ok(region: Region, gp: GoodPartition) -> bool:
    """The always-true half of goodness: partition, thresholds, ranks."""
    return (
        set(gp.e1) | set(gp.e2) == set(range(1, region.size + 1))
        and not set(gp.e1) & set(gp.e2)
        and gp.r1 + gp.r2 == region.r + gp.a1 + gp.a2
        and 0 < gp.a1 < gp.r1
        and 0 < gp.a2 < gp.r2
    )


def verify_good_partition(region: Region, gp: GoodPartition) -> bool:
    """Exhaustively check the partition arithmetic and the pairing property."""
    if not partition_arithmetic_ok(region, gp):
        return False
    if gp.r1 != _restriction_rank(region, gp.e1):
        return False
    if gp.r2 != _restriction_rank(region, gp.e2):
        return False
    pres = presentation(region)
    ind1 = [
        x
        for size in range(gp.r1 - gp.a1 + 1)
        for x in combinations(gp.e1, size)
        if is_independent(pres, x)
    ]
    ind2 = [
        y
        for size in range(gp.r2 - gp.a2 + 1)
        for y in combinations(gp.e2, size)
        if is_independent(pres, y)
    ]
    return all(
        is_independent(pres, x + y) for x in ind1 for y in ind2
    )


@dataclass(frozen=True)
class DecompositionNode:
    region: Region
    split: Split | None
    children: tuple["DecompositionNode", ...] = field(default=())

    def leaves(self) -> list["DecompositionNode"]:
        """Leaves from left to right."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return out


def decomposition_tree(region: Region) -> DecompositionNode:
    """Hyperplane splitting down to border-strip leaves.

    Splits are found in preorder on an explicit stack, then nodes are built
    in reverse preorder, children before parents, so depth is unbounded.
    """
    preorder: list[tuple[Region, Split | None]] = []
    stack = [region]
    while stack:
        node = stack.pop()
        split = find_split(node)
        preorder.append((node, split))
        if split is not None:
            result = hyperplane_split(node, split.x, split.j)
            stack += (result.right, result.left)
    built: list[DecompositionNode] = []
    for node, split in reversed(preorder):
        if split is None:
            built.append(DecompositionNode(node, None))
        else:
            left, right = built.pop(), built.pop()
            built.append(DecompositionNode(node, split, (left, right)))
    return built[0]
