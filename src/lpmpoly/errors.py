"""Error types raised across the library.

Every error carries enough context in its message to locate the offending
input (positions are 1-based, matching ground-set numbering).
"""


class InvalidCharacter(ValueError):
    """A path word contains a letter other than E or N."""

    def __init__(self, word: str, position: int):
        self.position = position
        super().__init__(f"invalid character {word[position - 1]!r} at position {position}")


class EmptyWord(ValueError):
    """A path word must contain at least one step."""


class EndpointMismatch(ValueError):
    """Bounding paths must share the same number of E and N steps."""


class DominanceViolation(ValueError):
    """The lower path climbs above the upper path."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"lower path exceeds upper path at step {position}")


class EmptyFace(ValueError):
    """No basis attains the requested coordinate value."""


class NotGeneralizedCatalan(ValueError):
    """The operation needs a region whose lower path hugs the bottom-right corner."""


class DisconnectedRegion(ValueError):
    """The operation is defined per connected block; split the region first."""


class NotAFacet(ValueError):
    """The supplied inequality is not a facet of the polytope."""


class InvalidSplit(ValueError):
    """The supplied (x, j) does not satisfy the split condition."""


class BadK(ValueError):
    """Hypersimplex slice index out of range."""


class WrongChamber(ValueError):
    """The point violates the order type of the requested simplex."""


class TooLarge(ValueError):
    """Input exceeds the size cap of a brute-force oracle."""
