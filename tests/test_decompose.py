import inspect
import sys

import pytest

from lpmpoly import (
    BorderStrip,
    Box,
    GoodPartition,
    Split,
    bases,
    border_strips,
    decomposition_tree,
    dimension,
    find_split,
    good_partition_of_split,
    hyperplane_split,
    is_border_strip,
    region_from_words,
    region_to_strip,
    strip_to_region,
    strip_volume,
    verify_good_partition,
    volume,
)
from lpmpoly.errors import InvalidSplit
from lpmpoly.oracle import all_regions
from lpmpoly.polytope import h_representation


def supports(region):
    return {frozenset(b.support) for b in bases(region)}


def test_find_split_examples():
    assert find_split(region_from_words("EENN", "NNEE")) == Split(x=2, j=1)
    assert find_split(region_from_words("EENN", "NENE")) is None
    assert find_split(region_from_words("EN", "NE")) is None


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


def test_strip_region_round_trip():
    for region in all_regions(7, connected_only=True):
        for strip in border_strips(region):
            back = strip_to_region(strip, region)
            assert region_to_strip(back).boxes == strip.boxes
            assert is_border_strip(back)


def test_strip_region_profile_matches_descents():
    # the strip region's lower profile counts the descents seen so far; the
    # triangulation module relies on this correspondence
    for strip in (
        BorderStrip((Box(1, 1), Box(2, 1), Box(2, 2))),
        BorderStrip((Box(1, 1), Box(1, 2), Box(2, 2), Box(3, 2))),
    ):
        region = strip_to_region(strip)
        size = len(strip) + 1
        p = region.lower.profile
        for i in range(1, size):
            assert p[i] == len([d for d in strip.descents if d <= i - 1])
            assert region.upper.profile[i] == p[i] + 1


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
