"""The reference bound closure the face surgeries of ``lpmpoly.paths`` are
tested against: one full forward and one full backward pass."""


def two_pass_tighten(low, high, i, step=None, height=None):
    """Min and max height profiles of the paths between ``low`` and ``high``
    whose i-th letter is ``step``, or which stand at ``height`` after i
    steps; None when no path qualifies."""
    n = len(low) - 1
    lo, hi = list(low), list(high)
    if height is not None:
        lo[i] = max(lo[i], height)
        hi[i] = min(hi[i], height)
        fixed_min, fixed_max = 0, 1
    else:
        fixed_min = fixed_max = 1 if step == "N" else 0
    for j in range(1, n + 1):
        rise_min, rise_max = (fixed_min, fixed_max) if j == i else (0, 1)
        lo[j] = max(lo[j], lo[j - 1] + rise_min)
        hi[j] = min(hi[j], hi[j - 1] + rise_max)
    for j in range(n - 1, -1, -1):
        rise_min, rise_max = (fixed_min, fixed_max) if j + 1 == i else (0, 1)
        lo[j] = max(lo[j], lo[j + 1] - rise_max)
        hi[j] = min(hi[j], hi[j + 1] - rise_min)
    if any(a > b for a, b in zip(lo, hi)):
        return None
    return tuple(lo), tuple(hi)
