"""The seeded draw the tests share: the region between two random paths."""

from lpmpoly.paths import PathWord, Region, path_from_profile


def between_two_random_paths(rng, n, r=None):
    """The region of n elements bounded by the pointwise min and max of two
    random paths of rank r, drawn from ``rng`` after r (from 1..n-1 when not
    given); the paths may touch."""
    if r is None:
        r = rng.randint(1, n - 1)
    a, b = (PathWord("".join(rng.sample("N" * r + "E" * (n - r), n))).profile for _ in "ab")
    return Region(path_from_profile(tuple(map(min, a, b))), path_from_profile(tuple(map(max, a, b))))
