"""Split-ratio precision assignment and budget-targeted ratio search.

Modules arrive ranked by descending sensitivity. ``assign_precision`` cuts
the ranking at k16 = floor(p16 * M) and k8 = floor((p16 + p8) * M)
(1-indexed, boundary included), assigning 16/8/4 bits to the three
segments. ``budget_plan`` meets a target average bitwidth by
waterfilling: starting from all-4-bit it raises modules level by level
(4 -> 8 -> 16) in ranking order while the size-weighted average stays
within budget, stopping a pass at the first module that no longer fits so
the assignment stays a monotone prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .quant import DEFAULT_GROUP_SIZE, QuantPlan

BIT_LEVELS = (16, 8, 4)


@dataclass(frozen=True)
class SplitRatios:
    p16: float
    p8: float
    p4: float

    def __post_init__(self):
        for name, value in (("p16", self.p16), ("p8", self.p8), ("p4", self.p4)):
            if not value >= 0:
                raise ParameterError(f"{name} must be >= 0, got {value}")
        if abs(self.p16 + self.p8 + self.p4 - 1.0) > 1e-9:
            raise ParameterError(f"split ratios must sum to 1, got {self.p16 + self.p8 + self.p4}")


def split_ratios(values) -> SplitRatios:
    """The :class:`SplitRatios` of exactly three numbers p16, p8, p4."""
    values = tuple(values)
    if len(values) != 3:
        raise ParameterError(f"split ratios are three numbers p16,p8,p4, got {list(values)}")
    return SplitRatios(*values)


def bit_levels(values) -> tuple:
    """Three integer widths, one per tier of :func:`cutoff_bits`, none above the one before.

    The first tier holds the most sensitive modules, so rising widths would
    give them the fewest bits.
    """
    levels = tuple(values)
    if (len(levels) != 3 or any(type(b) is not int for b in levels)
            or list(levels) != sorted(levels, reverse=True)):
        raise ParameterError(f"bit levels are three non-increasing integer widths, "
                             f"got {list(levels)}")
    return levels


def cutoff_bits(n_modules: int, ratios: SplitRatios, levels=BIT_LEVELS) -> list:
    """Bit level per rank position (1-indexed cutoffs with floor arithmetic).

    A product within 1e-9 of an integer, the tolerance of :class:`SplitRatios`,
    counts as that integer. So ratios that are count/M fractions, such as
    (1/7, 4/7, 2/7) over 7 modules, give exactly those counts, whatever the
    float rounding of the ratios.
    """
    k_hi = math.floor(ratios.p16 * n_modules + 1e-9)
    k_mid = math.floor((ratios.p16 + ratios.p8) * n_modules + 1e-9)
    bits = []
    for m in range(1, n_modules + 1):
        if m <= k_hi:
            bits.append(levels[0])
        elif m <= k_mid:
            bits.append(levels[1])
        else:
            bits.append(levels[2])
    return bits


def assign_precision(ranked_modules, ratios: SplitRatios,
                     group_size: int = DEFAULT_GROUP_SIZE,
                     levels=BIT_LEVELS) -> QuantPlan:
    """QuantPlan over the ranked module paths; most sensitive get most bits.

    ``levels`` swaps the bit tiers; (8, 4, 4) reproduces the 8/4 split where
    the p16 fraction gets 8 bits and the rest 4.
    """
    paths = [r.path for r in ranked_modules]
    if not paths:
        raise ParameterError("no ranked modules to assign")
    bits = cutoff_bits(len(paths), ratios, levels)
    return QuantPlan(dict(zip(paths, bits)), group_size)


def budget_plan(ranked_modules_with_sizes, target_avg_bits: float,
                group_size: int = DEFAULT_GROUP_SIZE) -> QuantPlan:
    """QuantPlan for a target size-weighted bitwidth.

    ``ranked_modules_with_sizes``: iterable of (path, n_params) in
    descending sensitivity order. The plan holds the waterfilled widths,
    whose size-weighted average is at most the target.
    """
    if not (4.0 <= target_avg_bits <= 16.0):
        raise ParameterError(f"target_avg_bits must be within [4, 16], got {target_avg_bits}")
    items = [(str(p), int(n)) for p, n in ranked_modules_with_sizes]
    if not items:
        raise ParameterError("no modules given")
    total_n = sum(n for _, n in items)
    budget = target_avg_bits * total_n

    bits = [4] * len(items)
    used = 4.0 * total_n
    for level_from, level_to in ((4, 8), (8, 16)):
        for i, (_, n) in enumerate(items):
            if bits[i] != level_from:
                break
            candidate = used + (level_to - level_from) * n
            if candidate > budget + 1e-9:
                break  # keep the assignment a monotone prefix
            bits[i] = level_to
            used = candidate

    return QuantPlan({p: b for (p, _), b in zip(items, bits)}, group_size)
