"""Precision assignment: cut a sensitivity ranking into three bit tiers.

Modules arrive ranked by descending sensitivity, and every plan has one
shape: the first k_hi modules at the high level, the modules up to position
k_mid at the middle level, and the rest at the low level.
``assign_precision`` takes the counts from split ratios (p_hi, p_mid, p_lo):
k_hi = floor(p_hi * M) and k_mid = floor((p_hi + p_mid) * M).
``budget_plan`` takes them from a target size-weighted average by
waterfilling: starting from all modules at the low level, it raises them in
ranking order to the middle level, then to the high level, stopping each
pass at the first module that no longer fits within the budget.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .quant import DEFAULT_GROUP_SIZE, QuantPlan

BIT_LEVELS = (16, 8, 4)


def split_ratios(values) -> tuple:
    """(p_hi, p_mid, p_lo): exactly three numbers, none negative or NaN, summing to 1."""
    ratios = tuple(values)
    if len(ratios) != 3:
        raise ParameterError(f"split ratios are three numbers p_hi,p_mid,p_lo, got {list(ratios)}")
    for name, value in zip(("p_hi", "p_mid", "p_lo"), ratios):
        if not value >= 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"split ratios must sum to 1, got {sum(ratios)}")
    return ratios


def bit_levels(values) -> tuple:
    """Three integer widths (high, middle, low), one per tier, none above the one before.

    The first tier holds the most sensitive modules, so rising widths would
    give them the fewest bits.
    """
    levels = tuple(values)
    if (len(levels) != 3 or any(type(b) is not int for b in levels)
            or list(levels) != sorted(levels, reverse=True)):
        raise ParameterError(f"bit levels are three non-increasing integer widths, "
                             f"got {list(levels)}")
    return levels


def _tiered(paths, k_hi: int, k_mid: int, levels, group_size: int) -> QuantPlan:
    """The plan of the ranked ``paths`` with rank positions (1-indexed) up to
    ``k_hi`` at the high level, up to ``k_mid`` at the middle level and the
    rest at the low level."""
    hi, mid, lo = levels
    bits = [hi if m <= k_hi else mid if m <= k_mid else lo for m in range(1, len(paths) + 1)]
    return QuantPlan(dict(zip(paths, bits)), group_size)


def assign_precision(ranked_modules, ratios, group_size: int = DEFAULT_GROUP_SIZE,
                     levels=BIT_LEVELS) -> QuantPlan:
    """QuantPlan over the ranked module paths; most sensitive get most bits.

    A product p·M within 1e-9 of an integer, the tolerance of
    :func:`split_ratios`, counts as that integer. So ratios that are count/M
    fractions, such as (1/7, 4/7, 2/7) over 7 modules, give exactly those
    counts, whatever the float rounding of the ratios. ``levels`` (8, 4, 4)
    reproduces the 8/4 split where the p_hi fraction gets 8 bits and the
    rest 4.
    """
    p_hi, p_mid, _ = split_ratios(ratios)
    paths = [r.path for r in ranked_modules]
    if not paths:
        raise ParameterError("no ranked modules to assign")
    m = len(paths)
    return _tiered(paths, math.floor(p_hi * m + 1e-9), math.floor((p_hi + p_mid) * m + 1e-9),
                   bit_levels(levels), group_size)


def budget_plan(ranked_modules_with_sizes, target_avg_bits: float,
                group_size: int = DEFAULT_GROUP_SIZE, levels=BIT_LEVELS) -> QuantPlan:
    """QuantPlan for a target size-weighted bitwidth between the low and high level.

    ``ranked_modules_with_sizes``: iterable of (path, n_params) in
    descending sensitivity order. The plan holds the waterfilled widths,
    whose size-weighted average is at most the target.
    """
    levels = bit_levels(levels)
    hi, mid, lo = levels
    if not (lo <= target_avg_bits <= hi):
        raise ParameterError(f"target_avg_bits must be within [{lo}, {hi}], got {target_avg_bits}")
    items = [(str(p), int(n)) for p, n in ranked_modules_with_sizes]
    if not items:
        raise ParameterError("no modules given")
    sizes = [n for _, n in items]
    budget = target_avg_bits * sum(sizes)
    used = float(lo) * sum(sizes)
    k_mid = k_hi = 0  # the high tier is a prefix of the middle one, so widths never rise
    while k_mid < len(sizes) and used + (mid - lo) * sizes[k_mid] <= budget + 1e-9:
        used += (mid - lo) * sizes[k_mid]
        k_mid += 1
    while k_hi < k_mid and used + (hi - mid) * sizes[k_hi] <= budget + 1e-9:
        used += (hi - mid) * sizes[k_hi]
        k_hi += 1
    return _tiered([p for p, _ in items], k_hi, k_mid, levels, group_size)
