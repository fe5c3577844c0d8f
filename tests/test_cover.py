"""The pair-separation set-cover engine: instance construction, greedy
seeding, and exact branch and bound."""

from itertools import combinations

import numpy as np
import pytest

from mdimlab import (
    BadParameters,
    CoverResult,
    PairCoverInstance,
    build_instance,
    greedy_cover,
    min_cover,
)
from mdimlab.cover import _Search, pack_bits


def brute_minimum(inst: PairCoverInstance) -> int | None:
    all_items = (1 << inst.n_items) - 1
    for size in range(inst.n_choosers + 1):
        for sub in combinations(range(inst.n_choosers), size):
            cov = 0
            for v in sub:
                cov |= inst.coverage[v]
            if cov == all_items:
                return size
    return None


def covers_everything(inst: PairCoverInstance, chosen) -> bool:
    cov = 0
    for v in chosen:
        cov |= inst.coverage[v]
    return cov == (1 << inst.n_items) - 1


class TestPackBits:
    def test_empty(self):
        assert pack_bits(np.zeros(0, dtype=bool)) == 0

    def test_bit_positions(self):
        assert pack_bits(np.array([True, False, True, True])) == 0b1101

    def test_beyond_64_bits(self):
        arr = np.zeros(130, dtype=bool)
        arr[129] = True
        assert pack_bits(arr) == 1 << 129


class TestBuildInstance:
    def test_items_are_lexicographic_column_pairs(self):
        inst = build_instance(np.zeros((2, 4), dtype=np.uint8))
        assert inst.items == tuple(combinations(range(4), 2))

    def test_coverage_marks_separated_pairs(self):
        # row 0 distinguishes columns 0 and 1 only
        m = np.array([[0, 1, 0], [2, 2, 3]])
        inst = build_instance(m)
        assert inst.items == ((0, 1), (0, 2), (1, 2))
        assert inst.coverage[0] == 0b101  # pairs (0,1) and (1,2)
        assert inst.coverage[1] == 0b110  # pairs (0,2) and (1,2)

    def test_resolvers_transpose_coverage(self):
        rng = np.random.default_rng(0)
        inst = build_instance(rng.integers(0, 3, size=(6, 5)))
        for v in range(inst.n_choosers):
            for p in range(inst.n_items):
                assert bool(inst.coverage[v] >> p & 1) == bool(
                    inst.resolvers[p] >> v & 1
                )

    def test_single_column_has_no_items(self):
        inst = build_instance(np.zeros((3, 1), dtype=np.uint8))
        assert inst.n_items == 0


class TestGreedyCover:
    def test_result_covers_everything(self):
        rng = np.random.default_rng(1)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        assert covers_everything(inst, greedy_cover(inst))

    def test_forced_choosers_stay_in_the_answer(self):
        rng = np.random.default_rng(2)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        out = greedy_cover(inst, forced=[5])
        assert out[0] == 5
        assert covers_everything(inst, out)

    def test_identical_columns_are_infeasible(self):
        m = np.array([[1, 1], [2, 2]])
        inst = build_instance(m)
        with pytest.raises(ValueError):
            greedy_cover(inst)

    def test_ties_break_toward_low_ids(self):
        # both rows separate the single pair; greedy must pick row 0
        m = np.array([[0, 1], [0, 1]])
        inst = build_instance(m)
        assert greedy_cover(inst) == [0]


class TestMinCover:
    def test_matches_brute_force_on_random_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            inst = build_instance(rng.integers(0, 3, size=(7, 6)))
            want = brute_minimum(inst)
            if want is None:
                continue
            got = min_cover(inst)
            assert got.optimal
            assert len(got.chosen) == want
            assert covers_everything(inst, got.chosen)

    def test_chosen_is_sorted_and_contains_forced(self):
        rng = np.random.default_rng(3)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        got = min_cover(inst, forced=[6])
        assert 6 in got.chosen
        assert list(got.chosen) == sorted(got.chosen)

    def test_forced_set_that_already_covers_is_returned_as_is(self):
        m = np.array([[0, 1, 2], [0, 0, 1]])
        inst = build_instance(m)
        got = min_cover(inst, forced=[0])
        assert got == CoverResult(chosen=(0,), nodes=0, optimal=True)

    def test_no_items_needs_no_choosers(self):
        inst = build_instance(np.zeros((3, 1), dtype=np.uint8))
        got = min_cover(inst)
        assert got.chosen == () and got.optimal

    def test_spent_budget_downgrades_to_upper_bound(self):
        rng = np.random.default_rng(5)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        got = min_cover(inst, budget=0)
        assert not got.optimal
        assert covers_everything(inst, got.chosen)  # still a verified cover

    def test_negative_budget_is_rejected(self):
        inst = build_instance(np.array([[0, 1, 2], [0, 0, 1]]))
        with pytest.raises(BadParameters):
            min_cover(inst, budget=-1)
        with pytest.raises(BadParameters):  # before the forced early return
            min_cover(inst, forced=[0], budget=-1)

    def test_lower_stop_accepts_the_greedy_answer(self):
        rng = np.random.default_rng(7)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        opt = len(min_cover(inst).chosen)
        early = min_cover(inst, lower_stop=opt)
        assert early.optimal and len(early.chosen) == opt


def some_chooser_completes(inst: PairCoverInstance, uncovered: int, banned: int) -> bool:
    """Reference: some unbanned chooser covers every uncovered item."""
    return any(
        not banned >> v & 1 and inst.coverage[v] & uncovered == uncovered
        for v in range(inst.n_choosers)
    )


def random_subset(rng, bits: int) -> int:
    return sum(1 << p for p in range(bits.bit_length()) if bits >> p & 1 and rng.random() < 0.5)


class TestCompletionTest:
    """_Search._completable, the slack-one bound, against the brute-force
    predicate and against the marginal-coverage scan it replaces."""

    def check(self, search: _Search, uncovered: int, banned: int) -> bool:
        want = some_chooser_completes(search.inst, uncovered, banned)
        assert search._completable(uncovered, banned) == want
        assert search._coverage_reachable(uncovered, banned, uncovered.bit_count()) == want
        return want

    def test_matches_the_reference_on_random_instances(self):
        seen = {"true_beyond_prefilter": 0, "survivor_fails_subset": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            inst = build_instance(rng.integers(0, 3, size=(7, 9)))
            search = _Search(inst, budget=0, lower_stop=0)
            all_items = (1 << inst.n_items) - 1
            for _ in range(30):
                banned = random_subset(rng, (1 << inst.n_choosers) - 1)
                # a subset of one chooser's coverage is often completable
                source = inst.coverage[int(rng.integers(inst.n_choosers))]
                uncovered = random_subset(rng, source if rng.random() < 0.7 else all_items)
                if not uncovered:
                    continue
                got = self.check(search, uncovered, banned)
                if uncovered.bit_count() > _Search.PREFILTER:
                    lowest = sorted(p for p in range(inst.n_items) if uncovered >> p & 1)
                    cands = ~banned
                    for p in lowest[: _Search.PREFILTER]:
                        cands &= inst.resolvers[p]
                    seen["true_beyond_prefilter"] += got
                    seen["survivor_fails_subset"] += bool(cands) and not got
        assert all(seen.values()), seen

    def test_every_chooser_banned(self):
        rng = np.random.default_rng(0)
        inst = build_instance(rng.integers(0, 3, size=(6, 6)))
        search = _Search(inst, budget=0, lower_stop=0)
        every = (1 << inst.n_choosers) - 1
        for p in range(inst.n_items):
            assert not self.check(search, 1 << p, every)
        assert not self.check(search, (1 << inst.n_items) - 1, every)

    def test_exactly_one_uncovered_item(self):
        rng = np.random.default_rng(1)
        inst = build_instance(rng.integers(0, 3, size=(6, 6)))
        search = _Search(inst, budget=0, lower_stop=0)
        for p in range(inst.n_items):
            for v in range(inst.n_choosers):
                # banning one separator leaves the item completable iff it had another
                assert self.check(search, 1 << p, 1 << v) == bool(inst.resolvers[p] & ~(1 << v))

    def test_survivor_of_the_prefilter_can_fail_the_subset_test(self):
        # chooser 0 separates column 0 from every other column, so it alone
        # survives the prefilter on the items (0, 1) .. (0, k); it does not
        # separate (1, 2), which chooser 1 does
        k = _Search.PREFILTER
        m = np.zeros((2, k + 2), dtype=np.uint8)
        m[0, 1:] = 1
        m[1, 2] = 1
        inst = build_instance(m)
        search = _Search(inst, budget=0, lower_stop=0)
        first_k = (1 << k) - 1
        assert inst.items[:k] == tuple((0, j) for j in range(1, k + 1))
        p12 = inst.items.index((1, 2))
        assert self.check(search, first_k, 0)
        assert not self.check(search, first_k | 1 << p12, 0)
        assert not self.check(search, first_k | 1 << p12, 0b10)
