import itertools
import math
from fractions import Fraction

import pytest

from ptqlab.allocator import assign_precision, budget_plan, split_ratios
from ptqlab.errors import ParameterError
from ptqlab.numerics import make_rng
from ptqlab.quant import DEFAULT_GROUP_SIZE
from ptqlab.sensitivity import SensitivityRecord


def ranked(n):
    # descending sensitivity by construction
    return [SensitivityRecord(f"m{str(i).zfill(2)}", float(n - i), 10, 1, True)
            for i in range(n)]


def plan_bits(plan, paths):
    return [plan.bits[p] for p in paths]


def cut(m, ratios):
    """The widths ``assign_precision`` gives ``m`` ranked modules, in ranking order."""
    mods = ranked(m)
    return plan_bits(assign_precision(mods, ratios), [r.path for r in mods])


class TestRatioValidation:
    def test_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            split_ratios((0.5, 0.5, 0.5))

    def test_no_negatives(self):
        with pytest.raises(ParameterError):
            split_ratios((1.2, -0.2, 0.0))

    def test_assign_precision_validates_its_ratios(self):
        for ratios in ((0.5, 0.5, 0.5), (1.2, -0.2, 0.0), (float("nan"), 0.5, 0.5), (0.5, 0.5)):
            with pytest.raises(ParameterError):
                assign_precision(ranked(4), ratios)
        with pytest.raises(ParameterError, match="no ranked modules"):  # valid ratios, no modules
            assign_precision([], (0.5, 0.5, 0.0))


class TestAssignPrecision:
    def test_example_m10(self):
        mods = ranked(10)
        plan = assign_precision(mods, (0.2, 0.3, 0.5))
        assert plan_bits(plan, [m.path for m in mods]) == [16, 16, 8, 8, 8, 4, 4, 4, 4, 4]
        assert plan.group_size == DEFAULT_GROUP_SIZE

    def test_degenerate_all_16(self):
        mods = ranked(5)
        plan = assign_precision(mods, (1.0, 0.0, 0.0))
        assert plan_bits(plan, [m.path for m in mods]) == [16] * 5

    def test_fifty_fifty_m4(self):
        mods = ranked(4)
        plan = assign_precision(mods, (0.5, 0.5, 0.0))
        assert plan_bits(plan, [m.path for m in mods]) == [16, 16, 8, 8]

    def test_eight_four_remap(self):
        mods = ranked(4)
        plan = assign_precision(mods, (0.5, 0.5, 0.0), levels=(8, 4, 4))
        assert plan_bits(plan, [m.path for m in mods]) == [8, 8, 4, 4]

    def test_cutoffs_match_direct_formula_over_grid(self):
        # the formula in exact arithmetic; the ratios reach assign_precision as floats
        grid = [Fraction(n, d) for n, d in ((0, 1), (1, 10), (1, 5), (1, 4), (1, 3), (1, 2),
                                            (3, 5), (3, 4), (9, 10), (1, 1))]
        for m in range(1, 101):
            for p16, p8 in itertools.product(grid, repeat=2):
                if p16 + p8 > 1:
                    continue
                bits = cut(m, (float(p16), float(p8), max(0.0, 1.0 - p16 - p8)))
                k16 = math.floor(p16 * m)
                k8 = math.floor((p16 + p8) * m)
                want = [16 if i <= k16 else 8 if i <= k8 else 4 for i in range(1, m + 1)]
                assert bits == want, (m, p16, p8)

    def test_count_fractions_cut_exactly(self):
        # every split of M modules into counts (a, b, c), given as a/M, b/M, c/M
        for m in range(1, 41):
            for a in range(m + 1):
                for b in range(m + 1 - a):
                    c = m - a - b
                    bits = cut(m, (a / m, b / m, c / m))
                    assert bits == [16] * a + [8] * b + [4] * c, (m, a, b, c)

    def test_monotone_bits_down_the_ranking(self):
        rng = make_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            raw = rng.random(3)
            raw /= raw.sum()
            plan = assign_precision(ranked(m), tuple(raw))
            bits = plan_bits(plan, [f"m{str(i).zfill(2)}" for i in range(m)])
            assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_pure_function_of_ranking(self):
        a = [SensitivityRecord("x", 100.0, 10, 1, True), SensitivityRecord("y", 1.0, 10, 1, True)]
        b = [SensitivityRecord("x", 0.2, 10, 1, True), SensitivityRecord("y", 0.1, 10, 1, True)]
        r = (0.5, 0.5, 0.0)
        assert assign_precision(a, r).bits == assign_precision(b, r).bits


class TestRatiosForBudget:
    def equal_sized(self, n, size=10):
        return [(f"m{i}", size) for i in range(n)]

    def bits(self, plan, mods):
        return [plan.bits[p] for p, _ in mods]

    def average(self, plan, mods):
        """The size-weighted average width of ``plan`` over ``mods``."""
        return sum(plan.bits[p] * n for p, n in mods) / sum(n for _, n in mods)

    def test_max_budget(self):
        mods = self.equal_sized(6)
        plan = budget_plan(mods, 16.0)
        assert self.bits(plan, mods) == [16] * 6
        assert self.average(plan, mods) == 16.0

    def test_min_budget(self):
        mods = self.equal_sized(6)
        plan = budget_plan(mods, 4.0)
        assert self.bits(plan, mods) == [4] * 6
        assert self.average(plan, mods) == 4.0

    def test_waterfill_example_m4_target10(self):
        mods = self.equal_sized(4)
        plan = budget_plan(mods, 10.0, group_size=64)
        assert self.bits(plan, mods) == [16, 8, 8, 8]
        assert plan.group_size == 64
        assert self.average(plan, mods) == 10.0

    def test_waterfill_stops_at_the_first_module_that_does_not_fit(self):
        # (1/18 + 6/18) * 18 is just under 7, so flooring the ratios would
        # put one module fewer at 8 bits than the waterfill did
        sizes = [4096] * 7 + [16384] + [4096] * 10
        mods = [(f"m{i:02d}", n) for i, n in enumerate(sizes)]
        plan = budget_plan(mods, 6.0)
        assert self.bits(plan, mods) == [16] + [8] * 6 + [4] * 11
        assert self.average(plan, mods) == pytest.approx(5.714, abs=1e-3)

    def test_never_exceeds_budget_and_discreteness_bound(self):
        rng = make_rng(5)
        for _ in range(60):
            m = int(rng.integers(1, 25))
            target = float(rng.uniform(4.0, 16.0))
            mods = self.equal_sized(m)
            plan = budget_plan(mods, target)
            achieved = self.average(plan, mods)
            assert achieved <= target + 1e-9
            assert achieved >= target - 12.0 / m - 1e-9
            bits = self.bits(plan, mods)
            assert all(a >= b for a, b in zip(bits, bits[1:]))

    @pytest.mark.parametrize("levels", [(16, 8, 4), (8, 4, 2)])
    def test_greedy_is_feasible_vs_exhaustive(self, levels):
        # every assignment the waterfill emits must be inside the feasible
        # set of the full 3^m enumeration, and no feasible monotone prefix
        # assignment may have a strictly higher minimum bit level
        rng = make_rng(9)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            sizes = [int(rng.integers(1, 20)) for _ in range(m)]
            mods = [(f"m{i}", s) for i, s in zip(range(m), sizes)]
            total = sum(sizes)
            target = float(rng.uniform(levels[2], levels[0]))
            got = self.bits(budget_plan(mods, target, levels=levels), mods)
            assert sum(b * s for b, s in zip(got, sizes)) <= target * total + 1e-6
            feasible = [combo for combo in itertools.product(levels, repeat=m)
                        if sum(b * s for b, s in zip(combo, sizes)) <= target * total + 1e-9
                        and all(a >= b for a, b in zip(combo, combo[1:]))]
            assert tuple(got) in feasible
            assert min(got) == max(min(c) for c in feasible)

    def test_rejects_out_of_range_target(self):
        for target in (3.9, 16.1, float("nan")):
            with pytest.raises(ParameterError):
                budget_plan(self.equal_sized(3), target)
        for target in (1.9, 8.1):
            with pytest.raises(ParameterError, match=r"\[2, 8\]"):
                budget_plan(self.equal_sized(3), target, levels=(8, 4, 2))
        with pytest.raises(ParameterError, match="no modules"):  # a target in range, no modules
            budget_plan([], 6.0)
