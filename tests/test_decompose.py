import dataclasses
import inspect
import sys
from itertools import count

import pytest

from lpmpoly import (
    BorderStrip,
    Box,
    DecompositionNode,
    Split,
    bases,
    border_strips,
    decomposition_tree,
    dimension,
    find_split,
    hyperplane_split,
    is_connected,
    region_from_words,
    region_to_strip,
    strip_volume,
    volume,
)
from lpmpoly.errors import InvalidSplit
from lpmpoly.matroid import presentation
from lpmpoly.oracle import all_regions, box_path_strips
from lpmpoly.decompose import _split_children
from lpmpoly.paths import PathWord, Region, path_from_profile, region_boxes
from lpmpoly.polytope import h_representation
from lpmpoly import verify
from lpmpoly.verify import (
    GoodPartition,
    check_decomposition,
    good_partition_of_split,
    verify_good_partition,
)


def is_border_strip(region):
    """No 2-by-2 square of boxes anywhere in the region."""
    boxes = set(region_boxes(region))
    return not any(
        (b.col + 1, b.row) in boxes
        and (b.col, b.row + 1) in boxes
        and (b.col + 1, b.row + 1) in boxes
        for b in boxes
    )


def supports(region):
    return {frozenset(b.support) for b in bases(region)}


def test_find_split_examples():
    assert find_split(region_from_words("EENN", "NNEE")) == Split(x=2, j=1)
    assert find_split(region_from_words("EENN", "NENE")) is None
    assert find_split(region_from_words("EN", "NE")) is None


def reference_split(region):
    """The smallest (j, x) straddle, scanned over the interval presentation."""
    intervals = presentation(region).intervals
    for j in range(1, len(intervals)):
        (s_j, t_j), (s_next, t_next) = intervals[j - 1], intervals[j]
        for x in range(s_j + 1, t_j):
            if s_next < x + 1 < t_next:
                return Split(x, j)
    return None


def reference_halves(region, x, j):
    """The capped upper and raised lower profiles of a split, or None when
    (x, j) fails the straddle condition on the interval presentation."""
    intervals = presentation(region).intervals
    if not (
        1 <= j < region.r
        and intervals[j - 1][0] < x < intervals[j - 1][1]
        and intervals[j][0] < x + 1 < intervals[j][1]
    ):
        return None
    p, q = region.lower.profile, region.upper.profile
    capped = tuple(min(q[i], j + max(0, i - x)) for i in range(region.size + 1))
    raised = tuple(max(p[i], j - max(0, x - i)) for i in range(region.size + 1))
    return capped, raised


def _halves(result):
    left, right = result.left, result.right
    for path in (left.upper, right.lower):  # the wrapped word agrees with its profile
        assert PathWord(path.word).profile == path.profile
    return left.lower, left.upper.profile, right.lower.profile, right.upper


def test_splits_match_the_interval_presentation_reference():
    for region in all_regions(8):
        split = find_split(region)
        assert split == reference_split(region), region
        if split is not None:
            want = reference_halves(region, split.x, split.j)
            got = _halves(hyperplane_split(region, split.x, split.j))
            assert got == (region.lower, *want, region.upper), region


def test_hyperplane_split_accepts_exactly_the_straddles():
    for region in all_regions(6):
        for x in range(-1, region.size + 2):
            for j in range(-1, region.r + 2):
                want = reference_halves(region, x, j)
                if want is None:
                    with pytest.raises(InvalidSplit):
                        hyperplane_split(region, x, j)
                else:
                    got = _halves(hyperplane_split(region, x, j))
                    assert got == (region.lower, *want, region.upper), (region, x, j)


def children_by_profiles(region, x, j):
    """The reference children of a valid split: each new profile by one
    comprehension over the parent's, its word rebuilt from it."""
    p = region.lower.profile
    q = region.upper.profile
    # capped: min(q_i, j + max(0, i - x)); raised: max(p_i, j - max(0, x - i))
    capped = [h if h < j else j for h in q[: x + 1]]
    capped += [h if h < c else c for h, c in zip(q[x + 1 :], count(j + 1))]
    raised = [h if h > c else c for h, c in zip(p[:x], count(j - x))]
    raised += [h if h > j else j for h in p[x:]]
    return Region(region.lower, path_from_profile(capped)), Region(path_from_profile(raised), region.upper)


def _fields(region):
    paths = (region.lower, region.upper)
    return tuple((p.word, p.profile, p.m, p.r) for p in paths) + (region.size,)


def test_split_children_match_the_profile_route_on_the_sweep():
    splits = 0
    for region in all_regions(8):
        s, t = region.upper.north_positions(), region.lower.north_positions()
        for j in range(1, region.r):
            for x in range(max(s[j - 1] + 1, s[j]), min(t[j - 1], t[j] - 1)):
                got = _split_children(region, x, j)
                want = children_by_profiles(region, x, j)
                assert list(map(_fields, got)) == list(map(_fields, want)), (region, x, j)
                splits += 1
    assert splits == 3895  # every valid split, not only the first straddle


def test_hyperplane_split_example():
    square = region_from_words("EENN", "NNEE")
    result = hyperplane_split(square, 2, 1)
    assert (result.left.lower.word, result.left.upper.word) == ("EENN", "NENE")
    assert (result.right.lower.word, result.right.upper.word) == ("ENEN", "NNEE")
    lb, rb = supports(result.left), supports(result.right)
    assert len(lb) == len(rb) == 5
    assert len(lb & rb) == 4
    assert lb | rb == supports(square)
    with pytest.raises(InvalidSplit):
        hyperplane_split(square, 3, 1)


def test_split_invariants_sweep():
    for region in all_regions(6, connected_only=True):
        split = find_split(region)
        if split is None:
            assert is_border_strip(region)
            continue
        assert not is_border_strip(region)
        result = hyperplane_split(region, split.x, split.j)
        lb, rb = supports(result.left), supports(result.right)
        assert lb | rb == supports(region)
        e1 = set(range(1, split.x + 1))
        assert lb & rb == {b for b in supports(region) if len(b & e1) == split.j}
        assert dimension(result.left) == dimension(region)
        assert dimension(result.right) == dimension(region)


def test_is_border_strip_examples():
    assert is_border_strip(region_from_words("EENN", "NENE"))
    assert not is_border_strip(region_from_words("EENN", "NNEE"))
    assert is_border_strip(region_from_words("EN", "NE"))


def test_border_strip_equivalence_with_find_split():
    for region in all_regions(7, connected_only=True):
        assert is_border_strip(region) == (find_split(region) is None)


def test_border_strips_examples():
    square = border_strips(region_from_words("EENN", "NNEE"))
    assert [(s.direction_word, sorted(s.descents)) for s in square] == [
        ("RU", [2]),
        ("UR", [1]),
    ]
    ell = border_strips(region_from_words("EENN", "NENE"))
    assert [(s.direction_word, sorted(s.descents)) for s in ell] == [("RU", [2])]
    wide = border_strips(region_from_words("EEENN", "NNEEE"))
    assert len(wide) == 3


def test_border_strips_lex_order():
    for region in all_regions(7, connected_only=True):
        words = [s.direction_word for s in border_strips(region)]
        assert words == sorted(words)


def test_border_strips_match_the_box_walk_oracle():
    # as lists, order included, on every region of at most 9 elements,
    # disconnected ones included; each strip passes the public check too
    for region in all_regions(9):
        strips = border_strips(region)
        assert strips == box_path_strips(region), region
        for strip in strips:
            assert BorderStrip(strip.boxes) == strip


@pytest.mark.parametrize("lower,upper,count", [
    ("E" * 8 + "N" * 8 + "EN", "NE" * 8 + "NE", 0),  # two blocks: no strip crosses the touch
    ("EEENN", "ENNEE", 2),  # a loop, then one block: a loop holds no box
])
def test_border_strips_on_regions_of_several_components(lower, upper, count):
    region = region_from_words(lower, upper)
    assert not is_connected(region)
    strips = border_strips(region)
    assert len(strips) == count
    assert strips == box_path_strips(region)


@pytest.mark.parametrize("boxes", [
    (Box(1, 1), Box(2, 2)),
    (Box(1, 1), Box(3, 1)),
    (Box(2, 1), Box(1, 1)),
    (Box(1, 2), Box(1, 1)),
    (Box(1, 1), Box(1, 1)),
    (Box(1, 1), Box(2, 1), Box(2, 3)),
], ids=repr)
def test_border_strip_rejects_boxes_that_are_not_adjacent(boxes):
    with pytest.raises(ValueError, match="not E/N adjacent"):
        BorderStrip(boxes)


def two_sort_strip(region):
    """``region_to_strip`` as first written: the boxes by antidiagonal, then column."""
    boxes = sorted(region_boxes(region))
    return BorderStrip(tuple(sorted(boxes, key=lambda b: (b.col + b.row, b.col))))


def test_region_to_strip_reads_the_boxes_in_column_order():
    leaves = [
        leaf.region
        for region in all_regions(8, connected_only=True)
        for leaf in decomposition_tree(region).leaves()
    ]
    assert len(leaves) == 2621
    for leaf in leaves:
        assert region_to_strip(leaf) == two_sort_strip(leaf), leaf
    blocks = [region for region in all_regions(6) if not is_border_strip(region)]
    assert len(blocks) == 75
    for region in blocks:
        for read in (region_to_strip, two_sort_strip):
            with pytest.raises(ValueError):
                read(region)


def test_good_partition_examples():
    square = region_from_words("EENN", "NNEE")
    gp = good_partition_of_split(square, 2, 1)
    assert gp == GoodPartition(e1=(1, 2), e2=(3, 4), r1=2, r2=2, a1=1, a2=1)
    assert verify_good_partition(square, gp)
    assert not verify_good_partition(
        square, GoodPartition(e1=(1,), e2=(2, 3, 4), r1=1, r2=2, a1=1, a2=1)
    )
    assert not verify_good_partition(
        square, GoodPartition(e1=(1, 2), e2=(3, 4), r1=2, r2=2, a1=2, a2=1)
    )


def test_goodness_counterexample_is_real():
    # the straddle condition holds at (x=2, j=1) yet the pairing property
    # fails: {2} and {3,4} are independent but their union is not
    region = region_from_words("EENENN", "NNEENE")
    split = find_split(region)
    assert split == Split(x=2, j=1)
    gp = good_partition_of_split(region, split.x, split.j)
    assert not verify_good_partition(region, gp)
    result = hyperplane_split(region, split.x, split.j)
    assert supports(result.left) | supports(result.right) == supports(region)


def test_decomposition_leaves_are_strips():
    for region in all_regions(6, connected_only=True):
        tree = decomposition_tree(region)
        leaves = [leaf.region for leaf in tree.leaves()]
        assert all(is_border_strip(leaf) for leaf in leaves)
        assert sorted(region_to_strip(leaf).boxes for leaf in leaves) == sorted(
            s.boxes for s in border_strips(region)
        )
        assert sum(strip_volume(region_to_strip(l)) for l in leaves) == volume(region)


def _is_face_of(leaf, shared):
    """Certify ``shared`` as a face of the leaf by a tight valid inequality.

    The candidates are the leaf's own defining inequalities; the total of
    all candidates tight on ``shared`` is valid and tight exactly on the
    smallest face containing it.
    """
    verts = {tuple(b.coords) for b in bases(leaf)}
    chosen = []
    for cons in h_representation(leaf).inequalities:
        coeffs = cons.coeffs if cons.rel == "<=" else tuple(-c for c in cons.coeffs)
        rhs = cons.rhs if cons.rel == "<=" else -cons.rhs
        if all(sum(c * x for c, x in zip(coeffs, v)) == rhs for v in shared):
            chosen.append((coeffs, rhs))
    if not chosen:
        return False
    total = tuple(sum(c[i] for c, _ in chosen) for i in range(len(chosen[0][0])))
    rhs = sum(r for _, r in chosen)
    tight = {v for v in verts if sum(c * x for c, x in zip(total, v)) == rhs}
    return tight == shared


def test_leaf_polytopes_meet_in_common_faces():
    for region in all_regions(6, connected_only=True):
        leaves = [leaf.region for leaf in decomposition_tree(region).leaves()]
        vertex_sets = [{tuple(b.coords) for b in bases(leaf)} for leaf in leaves]
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                shared = vertex_sets[i] & vertex_sets[j]
                if not shared:
                    continue
                assert _is_face_of(leaves[i], shared), (region, i, j)
                assert _is_face_of(leaves[j], shared), (region, i, j)


def test_decomposition_tree_children_are_the_split_halves():
    for region in all_regions(6, connected_only=True):
        stack = [decomposition_tree(region)]
        while stack:
            node = stack.pop()
            assert node.split == find_split(node.region)
            if node.split is None:
                assert node.children == ()
                continue
            halves = hyperplane_split(node.region, node.split.x, node.split.j)
            assert [child.region for child in node.children] == [halves.left, halves.right]
            stack.extend(node.children)


def reference_preorder(region):
    """The (region, split) of every node, left subtree first, split by the
    public functions alone, each node's N positions read afresh:
    ``find_split``, which scans each node from step 0, then
    ``hyperplane_split``."""
    preorder, stack = [], [region]
    while stack:
        node = stack.pop()
        split = find_split(node)
        preorder.append((node, split))
        if split is not None:
            halves = hyperplane_split(node, split.x, split.j)
            stack += (halves.right, halves.left)
    return preorder


def reference_tree(region):
    """The tree built from :func:`reference_preorder`, children before parents."""
    built = []
    for node, split in reversed(reference_preorder(region)):
        children = () if split is None else (built.pop(), built.pop())
        built.append(DecompositionNode(node, split, children))
    return built[0]


def test_decomposition_tree_matches_the_public_split_route():
    for region in all_regions(8):
        assert decomposition_tree(region) == reference_tree(region), region


def test_no_child_splits_before_its_parent():
    # so the tree starts each child's scan at its parent's x
    for region in all_regions(8):
        for node in decomposition_tree(region).nodes():
            for child in node.children:
                assert child.split is None or child.split.x >= node.split.x, node


def test_nodes_walk_the_tree_in_preorder():
    for region in all_regions(8):
        tree = decomposition_tree(region)
        nodes = list(tree.nodes())
        assert [(node.region, node.split) for node in nodes] == reference_preorder(region), region
        assert tree.leaves() == [node for node in nodes if not node.children]


def test_decomposition_tree_lists_no_north_positions(monkeypatch):
    # Each split is read off the node's profiles and each child cut from
    # them by ``pin``, so no node's N positions are listed.
    def listed(self):
        raise AssertionError(f"north_positions of {self}")

    monkeypatch.setattr(PathWord, "north_positions", listed)
    for width in (2, 5, 40):
        band = region_from_words("E" * width + "NN", "NN" + "E" * width)
        assert len(decomposition_tree(band).leaves()) == width


def test_check_decomposition_reads_the_halves_from_the_tree(monkeypatch):
    assert check_decomposition(5).ok

    def doubled(region):  # the root's left half replaced by its right half
        tree = decomposition_tree(region)
        if not tree.children:
            return tree
        return tree._replace(children=(tree.children[1],) * 2)

    monkeypatch.setattr(verify, "decomposition_tree", doubled)
    res = check_decomposition(5)
    assert not res.ok
    assert any(f.startswith("split loses bases on") for f in res.failures)


def test_border_strips_walk_a_strip_past_the_recursion_limit():
    long_row = region_from_words("E" * 1100 + "N", "N" + "E" * 1100)
    (strip,) = border_strips(long_row)
    assert len(strip) == 1100
    assert strip.direction_word == "R" * 1099


def test_deep_decomposition_keeps_a_flat_stack():
    # A two-row band splits one strip off per column, so its tree is as deep
    # as the band is wide (and so is every strip).  Under a limit 100 frames
    # above the caller, a walk that recursed once per level would fail.
    width = 300
    band = region_from_words("E" * width + "NN", "NN" + "E" * width)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        tree = decomposition_tree(band)
        leaves = tree.leaves()
        strips = border_strips(band)
    finally:
        sys.setrecursionlimit(limit)
    depth, node = 0, tree
    while node.children:
        node = max(node.children, key=lambda child: len(child.children))
        depth += 1
    assert depth == width - 1
    assert len(leaves) == len(strips) == width
    assert sorted(region_to_strip(leaf.region).boxes for leaf in leaves) == sorted(s.boxes for s in strips)


# The methods a plain frozen dataclass generates, as the reference for the
# hand-written ones: same name, same fields.
GeneratedNode = dataclasses.make_dataclass(
    "DecompositionNode",
    [("region", object), ("split", object), ("children", tuple, dataclasses.field(default=()))],
    frozen=True,
)


def _rebuilt(tree, cls, swap=None):
    """The same tree made of new ``cls`` nodes; ``swap`` maps a node's id to a new region."""
    order, stack = [], [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    built = {}
    for node in reversed(order):
        region = (swap or {}).get(id(node), node.region)
        built[id(node)] = cls(region, node.split, tuple(built[id(c)] for c in node.children))
    return built[id(tree)]


def test_node_dunders_match_the_generated_dataclass_methods():
    trees = [decomposition_tree(region) for region in all_regions(5)]
    copies = [_rebuilt(tree, DecompositionNode) for tree in trees]
    refs = [_rebuilt(tree, GeneratedNode) for tree in trees]
    assert any(tree.children for tree in trees)
    for tree, ref in zip(trees, refs):
        assert repr(tree) == repr(ref)
        assert tree != ref and tree != tree.region
    for i, (tree, ref) in enumerate(zip(trees, refs)):
        for j in range(i % 3, len(trees), 3):
            same = tree == copies[j]
            assert same == (ref == refs[j]) == (not tree != copies[j]), (i, j)
            if same:
                assert hash(tree) == hash(copies[j])


@pytest.fixture(scope="module")
def deep_band_tree():
    width = 1100
    return decomposition_tree(region_from_words("E" * width + "NN", "NN" + "E" * width))


def test_deep_band_tree_matches_the_public_split_route(deep_band_tree):
    band = deep_band_tree.region
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        tree, reference = decomposition_tree(band), reference_tree(band)
        same, differ = tree == reference, tree != reference
    finally:
        sys.setrecursionlimit(limit)
    assert same and not differ


def test_deep_band_tree_children_match_the_profile_route(deep_band_tree):
    splits = [node for node in deep_band_tree.nodes() if node.children]
    assert len(splits) == 1099
    for node in splits:
        want = children_by_profiles(node.region, *node.split)
        assert [_fields(child.region) for child in node.children] == list(map(_fields, want))


def test_deep_band_trees_that_differ_at_the_bottom_compare_unequal(deep_band_tree):
    # a tree past the recursion limit that differs only at its deepest leaf
    node = deep_band_tree
    while node.children:
        node = max(node.children, key=lambda child: len(child.children))
    changed = _rebuilt(deep_band_tree, DecompositionNode, {id(node): deep_band_tree.region})
    assert deep_band_tree != changed
    assert not deep_band_tree == changed


def test_nodes_on_a_tree_past_the_recursion_limit(deep_band_tree):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        nodes = list(deep_band_tree.nodes())
        leaves = deep_band_tree.leaves()
    finally:
        sys.setrecursionlimit(limit)
    assert [(node.region, node.split) for node in nodes] == reference_preorder(deep_band_tree.region)
    assert leaves == [node for node in nodes if not node.children]
    assert len(leaves) == 1100


def test_node_dunders_on_a_tree_past_the_recursion_limit(deep_band_tree):
    tree = deep_band_tree
    deepest, depth = tree, 0
    while deepest.children:
        deepest = max(deepest.children, key=lambda child: len(child.children))
        depth += 1
    assert depth == 1099
    copy = _rebuilt(tree, DecompositionNode)
    altered = _rebuilt(tree, DecompositionNode, swap={id(deepest): tree.region})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        equal, unequal = tree == copy, tree == altered
        hashes = hash(tree), hash(copy)
        text = repr(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert equal and not unequal
    assert hashes[0] == hashes[1]
    assert text.startswith(f"DecompositionNode(region={tree.region!r}, split=")
    assert text.count("DecompositionNode(") == 2 * depth + 1
    assert text.count("children=())") == depth + 1  # the leaves
