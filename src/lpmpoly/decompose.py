"""Decomposing a region's polytope into border-strip polytopes.

A hyperplane split fixes the number of N steps among the first x ground
elements to j on the shared facet; recursing on the two pinched children
terminates exactly when every leaf region is a border strip (no 2-by-2
block of boxes).
"""

from __future__ import annotations

from operator import eq, ge
from typing import Callable, Iterator, NamedTuple

from .errors import InvalidSplit
from .paths import Box, PathWord, Region, pin, region_boxes


class Split(NamedTuple):
    x: int
    j: int


def find_split(region: Region) -> Split | None:
    """Smallest (j, x) where both the j-th and (j+1)-th intervals straddle x.

    The j-th interval runs from s_j, the j-th N position of the upper path,
    to t_j, that of the lower path.  The smallest x for j is
    max(s_j + 1, s_{j+1}), a split when it is below min(t_j, t_{j+1} - 1).
    Both position lists increase strictly, so that x is s_{j+1}, and it is
    below t_{j+1} - 1 once it is below t_j.  There the upper path stands at
    j + 1 and the lower one below j, so the first split is where the gap
    between the profiles, which moves by at most one per step, first
    reaches 2: O(n), a scan that stops there.  Absent exactly when the
    region is a border strip.
    """
    return _split_from(region, 0)


def _split_from(region: Region, start: int) -> Split | None:
    """``find_split`` scanning from x = ``start``, before which a child of a
    split at x = ``start`` has no split: its gaps are at most its parent's."""
    p, q = region.lower.profile, region.upper.profile
    for x in range(start, len(q)):
        if q[x] - p[x] == 2:
            return tuple.__new__(Split, (x, q[x] - 1))
    return None


class SplitResult(NamedTuple):
    left: Region
    right: Region
    split: Split


def hyperplane_split(region: Region, x: int, j: int) -> SplitResult:
    """Split into the child with at most j N steps in the first x elements (left)
    and the child with at least j (right); the shared bases form a facet of both.
    Valid when the point at height j after x steps lies strictly between the paths."""
    if not (0 <= x <= region.size and region.lower.profile[x] < j < region.upper.profile[x]):
        raise InvalidSplit(f"(x={x}, j={j}) does not satisfy the split condition")
    return SplitResult(*_split_children(region, x, j), Split(x, j))


def _split_children(region: Region, x: int, j: int) -> tuple[Region, Region]:
    """The two children of a valid split, cut by the point surgery
    :func:`paths.pin` at height j after x steps: the left one keeps the
    lower path and takes the capped upper path, the right one the reverse."""
    (w, p), (v, q) = pin(region, x, j)
    m, r = region.lower.m, region.lower.r
    raised, capped = PathWord._from_profile(w, p, m, r), PathWord._from_profile(v, q, m, r)
    return Region._from_paths(region.lower, capped), Region._from_paths(raised, region.upper)


class _Boxes(NamedTuple):
    boxes: tuple[Box, ...]


class BorderStrip(_Boxes):
    """A monotone box path; each successor is one step East or one step North.

    ``len`` is the box count, so ``_make`` and ``_replace``, which check
    ``len`` against the one field, do not apply to a strip.
    """

    __slots__ = ()

    def __new__(cls, boxes: tuple[Box, ...]):
        for a, b in zip(boxes, boxes[1:]):
            step = (b.col - a.col, b.row - a.row)
            if step not in ((1, 0), (0, 1)):
                raise ValueError(f"boxes {a} -> {b} are not E/N adjacent")
        return tuple.__new__(cls, (boxes,))

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
    A region with two or more components of kind ``"block"`` yields no
    strip, since no monotone box path crosses the touch point between two
    blocks; loops and coloops hold no boxes and do not count.  Between two
    blocks some column's top box has no step R (an empty column counts),
    so one comparison per column settles it before the walk.
    Box (c, row) lies in the region exactly when lo[c] < row <= hi[c], the
    E-step heights of the bounding paths, so a step R from (c, row) stays in
    it when lo[c + 1] < row and a step U when row < hi[c].  The depth-first
    walk keeps its own stack of the boxes still to visit, U pushed under R,
    so strip length is unbounded.  A box's depth in its strip is fixed by
    col + row, so the strip being built is one list overwritten in place.
    The boxes come from one table per call, shared by the strips, which skip
    the adjacency check that holds by construction.  No generator and no
    fresh ``Box`` per box visited: on ``reduced_catalan_region(7)`` (625
    boxes visited, 132 strips) a generator walk over a box set costs about
    2 us per box visited, this walk about 0.5 us.
    """
    lo = (0,) + region.lower.east_step_heights()
    hi = (0,) + region.upper.east_step_heights()
    cols = [c for c in range(1, len(lo)) if lo[c] < hi[c]]
    if not cols:
        return [BorderStrip(())]
    first_col, last_col = cols[0], cols[-1]
    # ahead[c]: a step R from (c, row) stays in the region iff ahead[c] < row
    ahead = (0,) + lo[2 : last_col + 1] + (hi[last_col],)
    if any(map(ge, ahead[first_col:last_col], hi[first_col:last_col])):
        return []
    new = tuple.__new__
    grid = [()] * (last_col + 1)
    for c in cols:
        grid[c] = [None] * (lo[c] + 1) + [new(Box, (c, row)) for row in range(lo[c] + 1, hi[c] + 1)]
    first = grid[first_col][lo[first_col] + 1]
    last = grid[last_col][hi[last_col]]
    base = first_col + first.row
    trail = [first] * (last_col + last.row - base + 1)
    out: list[BorderStrip] = []
    stack = [first]
    while stack:
        box = stack.pop()
        col, row = box
        trail[col + row - base] = box
        if row < hi[col]:
            stack.append(grid[col][row + 1])
            if ahead[col] < row:
                stack.append(grid[col + 1][row])
        elif ahead[col] < row:
            stack.append(grid[col + 1][row])
        elif box is last:
            out.append(new(BorderStrip, (tuple(trail),)))
    return out


def region_to_strip(region: Region) -> BorderStrip:
    """Read a border-strip region's boxes as the strip itself: a strip's path
    order is the (col, row) order of ``region_boxes``.  A region with a 2-by-2
    block of boxes raises ``ValueError``."""
    return BorderStrip(region_boxes(region))


class DecompositionNode(NamedTuple):
    """One node of a decomposition tree.

    Every walk goes through :meth:`nodes` or :meth:`render`, both on
    explicit stacks, so they work at any depth.  Between two nodes ``==``
    and ``!=`` compare field by field, children included, on such a walk,
    where tuple's own comparison would recurse down the children; ``repr``
    prints the same fields.  The hash is consistent with equality.
    """

    region: Region
    split: Split | None
    children: tuple["DecompositionNode", ...] = ()

    def nodes(self) -> Iterator["DecompositionNode"]:
        """Every node of the tree in preorder, left subtree first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def _shape(self) -> Iterator[tuple]:
        # The preorder with each node's child count determines the tree, and
        # no such sequence is a proper prefix of another.
        return ((n.__class__, n.region, n.split, len(n.children)) for n in self.nodes())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(eq, self._shape(), other._shape()))

    def __ne__(self, other):
        same = self.__eq__(other)
        return same if same is NotImplemented else not same

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def render(self, head: Callable[..., str], tail: Callable[..., str]) -> str:
        """The nested text of the tree: each node's ``head``, then its
        children's texts joined by ``", "``, then its ``tail``."""
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(head(item))
            stack.append(tail(item))
            joined = [part for child in item.children for part in (", ", child)]
            stack.extend(reversed(joined[1:]))
        return "".join(out)

    def __repr__(self) -> str:
        return self.render(
            lambda node: (
                f"{node.__class__.__qualname__}(region={node.region!r}, "
                f"split={node.split!r}, children=("
            ),
            lambda node: ",))" if len(node.children) == 1 else "))",
        )

    def leaves(self) -> list["DecompositionNode"]:
        """Leaves from left to right."""
        return [node for node in self.nodes() if not node.children]


def decomposition_tree(region: Region) -> DecompositionNode:
    """Hyperplane splitting down to border-strip leaves.

    Splits are found in preorder on an explicit stack, then nodes are built
    in reverse preorder, children before parents, so depth is unbounded.
    A child's scan for its split starts at its parent's x, before which no
    child splits.  Each child is cut from its parent's words and profiles
    by the point surgery :func:`paths.pin`, a few slices joined at C speed,
    and wrapped without the ``Region`` checks, which hold by construction.
    """
    preorder: list[tuple[Region, Split | None]] = []
    stack = [(region, 0)]
    while stack:
        node, start = stack.pop()
        split = _split_from(node, start)
        preorder.append((node, split))
        if split is not None:
            left, right = _split_children(node, *split)
            stack += ((right, split.x), (left, split.x))
    built: list[DecompositionNode] = []
    new = tuple.__new__
    for node, split in reversed(preorder):
        if split is None:
            built.append(new(DecompositionNode, (node, None, ())))
        else:
            left, right = built.pop(), built.pop()
            built.append(new(DecompositionNode, (node, split, (left, right))))
    return built[0]
