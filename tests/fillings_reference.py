"""The reference descent-class DP the column-range ``volume._fillings`` is
tested against: one dict of counts keyed by box, filled box by box."""

from itertools import accumulate


def box_fillings(boxes):
    """Standard fillings totalled over the monotone box paths from the first
    box to the last, ``boxes`` sorted by (col, row) as (col, row) pairs; 1
    for no boxes."""
    if not boxes:
        return 1
    first_col, first_row = boxes[0]
    fillings = {tuple(boxes[0]): [1]}
    for col, row in boxes[1:]:
        west = fillings.get((col - 1, row))
        south = fillings.get((col, row - 1))
        size = col + row - first_col - first_row + 1
        counts = list(accumulate(west, initial=0)) if west else [0] * size
        if south:
            below = list(accumulate(south, initial=0))
            counts = [c + below[-1] - s for c, s in zip(counts, below)]
        fillings[col, row] = counts
    return sum(fillings[tuple(boxes[-1])])
