"""Minimum pair-separation set cover by branch and bound over bitsets.

The reduction shared by metric dimension and semi-resolving sets: a matrix
row per chooser, a column per entity, and chooser v separates the entity
pair (i, j) iff its row differs at columns i and j.  A cover is a chooser
set separating every pair.

The solver branches on an uncovered pair with few remaining separators,
trying its separators in decreasing marginal-coverage order; each branch
bans the separators already tried at that node, so the subtrees partition
the solution space.  Pruning uses chosen + ceil(remaining / best possible
marginal coverage) against the incumbent, plus an optional external lower
bound that stops the search as soon as it is met.  All tie-breaks are by
ascending id, so results are fully deterministic.

When that bound asks one chooser to cover every uncovered pair (slack one,
or a single pair left), a completion test answers it instead of the
marginal-coverage scan: the chooser must separate each uncovered pair, so
the candidates are the unbanned members of the separator sets of the first
few uncovered pairs, and each survivor gets one subset test.  Both tests
give the same answer, so the tree and its node count do not depend on
which one runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import BadParameters
from .graphs import iter_bits

DEFAULT_BUDGET = 10**8


def pack_bits(arr: np.ndarray) -> int:
    """Bool array -> int with bit p set iff arr[p]."""
    return int.from_bytes(
        np.packbits(arr, bitorder="little").tobytes(), "little"
    )


@dataclass(frozen=True)
class PairCoverInstance:
    """Pair-separation instance.

    items: the column pairs, lexicographically ordered.
    coverage[v]: bitset over item indices separated by chooser v.
    resolvers[p]: bitset over choosers separating item p.
    """

    n_choosers: int
    items: tuple[tuple[int, int], ...]
    coverage: tuple[int, ...]
    resolvers: tuple[int, ...]

    @property
    def n_items(self) -> int:
        return len(self.items)


def build_instance(matrix: np.ndarray) -> PairCoverInstance:
    """Instance whose choosers are the matrix rows and whose items are all
    unordered column pairs."""
    n_choosers, n_cols = matrix.shape
    items = tuple((i, j) for i, j in combinations(range(n_cols), 2))
    iu = np.fromiter((p[0] for p in items), dtype=np.intp, count=len(items))
    iw = np.fromiter((p[1] for p in items), dtype=np.intp, count=len(items))
    sep = np.empty((n_choosers, len(items)), dtype=bool)
    for v in range(n_choosers):
        row = matrix[v]
        sep[v] = row[iu] != row[iw]
    coverage = tuple(pack_bits(sep[v]) for v in range(n_choosers))
    resolvers = tuple(pack_bits(sep[:, p]) for p in range(len(items)))
    return PairCoverInstance(
        n_choosers=n_choosers,
        items=items,
        coverage=coverage,
        resolvers=resolvers,
    )


@dataclass(frozen=True)
class CoverResult:
    chosen: tuple[int, ...]
    nodes: int
    optimal: bool

    @property
    def size(self) -> int:
        return len(self.chosen)


def greedy_cover(inst: PairCoverInstance, forced: Sequence[int] = ()) -> list[int]:
    """Maximum-marginal-coverage greedy, seeded with the forced choosers.

    Ties break toward the lowest chooser id.
    """
    all_items = (1 << inst.n_items) - 1
    chosen = list(forced)
    covered = 0
    for v in chosen:
        covered |= inst.coverage[v]
    while covered != all_items:
        best_v = -1
        best_gain = 0
        for v in range(inst.n_choosers):
            gain = (inst.coverage[v] & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            raise ValueError("instance is infeasible: some pair has no separator")
        chosen.append(best_v)
        covered |= inst.coverage[best_v]
    return chosen


class _Stop(Exception):
    pass


class _Search:
    """Branch and bound state."""

    PIVOT_WINDOW = 8  # uncovered items examined per node when picking a pivot
    PREFILTER = 4  # uncovered items whose separator sets the completion test intersects

    def __init__(self, inst: PairCoverInstance, budget: int, lower_stop: int):
        self.inst = inst
        self.budget = budget
        self.lower_stop = lower_stop
        self.all_items = (1 << inst.n_items) - 1
        self.nodes = 0
        self.exhausted = True
        self.best: list[int] = []
        # items by ascending static separator count, then index
        counts = [r.bit_count() for r in inst.resolvers]
        self.item_order = sorted(range(inst.n_items), key=lambda p: (counts[p], p))
        # choosers by descending static coverage, then id, for bound scans
        cov_counts = [c.bit_count() for c in inst.coverage]
        self.chooser_order = sorted(
            range(inst.n_choosers), key=lambda v: (-cov_counts[v], v)
        )
        self.cov_counts = cov_counts

    def run(self, start: Sequence[int], seed: Sequence[int]) -> CoverResult:
        self.best = list(seed)
        covered = 0
        for v in start:
            covered |= self.inst.coverage[v]
        try:
            if len(self.best) > self.lower_stop:
                self._search(list(start), covered, 0)
        except _Stop:
            pass
        return CoverResult(
            chosen=tuple(sorted(self.best)),
            nodes=self.nodes,
            optimal=self.exhausted or len(self.best) <= self.lower_stop,
        )

    def _search(self, chosen: list[int], covered: int, banned: int) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            self.exhausted = False
            raise _Stop
        uncovered = self.all_items & ~covered
        if not uncovered:
            if len(chosen) < len(self.best):
                self.best = list(chosen)
                if len(self.best) <= self.lower_stop:
                    raise _Stop
            return
        slack = len(self.best) - 1 - len(chosen)
        if slack <= 0:
            return
        unc_cnt = uncovered.bit_count()
        # prune: even `slack` more choosers at the best possible marginal
        # coverage cannot finish
        threshold = -(-unc_cnt // slack)  # ceil
        if threshold == unc_cnt:
            if not self._completable(uncovered, banned):
                return
        elif not self._coverage_reachable(uncovered, banned, threshold):
            return
        pivot_resolvers = self._pick_pivot(uncovered, banned)
        if pivot_resolvers == 0:
            return  # some pair lost all its separators
        cands = sorted(
            iter_bits(pivot_resolvers),
            key=lambda v: (-(self.inst.coverage[v] & uncovered).bit_count(), v),
        )
        tried = 0
        for v in cands:
            chosen.append(v)
            self._search(chosen, covered | self.inst.coverage[v], banned | tried)
            chosen.pop()
            tried |= 1 << v
            if len(self.best) - 1 - len(chosen) <= 0:
                return  # incumbent improved enough to close this node

    def _coverage_reachable(self, uncovered: int, banned: int, threshold: int) -> bool:
        """True iff some unbanned chooser covers >= threshold uncovered items."""
        coverage = self.inst.coverage
        for v in self.chooser_order:
            if banned >> v & 1:
                continue
            if self.cov_counts[v] < threshold:
                return False  # static counts only shrink dynamically
            if (coverage[v] & uncovered).bit_count() >= threshold:
                return True
        return False

    def _completable(self, uncovered: int, banned: int) -> bool:
        """True iff some unbanned chooser covers every uncovered item.

        Equals _coverage_reachable(uncovered, banned, uncovered.bit_count()).
        Such a chooser separates every uncovered pair, so it lies in the
        separator sets of the lowest PREFILTER uncovered items; only those
        candidates get the subset test on the rest.
        """
        resolvers = self.inst.resolvers
        cands = ~banned
        rest = uncovered
        for _ in range(self.PREFILTER):
            low = rest & -rest
            cands &= resolvers[low.bit_length() - 1]
            if not cands:
                return False
            rest ^= low
            if not rest:
                return True
        coverage = self.inst.coverage
        while cands:
            low = cands & -cands
            if coverage[low.bit_length() - 1] & rest == rest:
                return True
            cands ^= low
        return False

    def _pick_pivot(self, uncovered: int, banned: int) -> int:
        """Separator set of the branching pair.

        Walks items in static separator-count order and takes the dynamic
        minimum among the first PIVOT_WINDOW uncovered ones.
        """
        best_bits = 0
        best_cnt = 1 << 62
        seen = 0
        for p in self.item_order:
            if not uncovered >> p & 1:
                continue
            avail = self.inst.resolvers[p] & ~banned
            cnt = avail.bit_count()
            if cnt == 0:
                return 0
            if cnt < best_cnt:
                best_cnt, best_bits = cnt, avail
                if cnt == 1:
                    break
            seen += 1
            if seen >= self.PIVOT_WINDOW:
                break
        return best_bits


def min_cover(
    inst: PairCoverInstance,
    forced: Sequence[int] = (),
    budget: int = DEFAULT_BUDGET,
    lower_stop: int = 0,
) -> CoverResult:
    """Minimum cover containing the forced choosers.

    lower_stop is an external lower bound on the optimum: any incumbent of
    that size is accepted as optimal without exhausting the tree.  A spent
    budget downgrades the result to a verified upper bound
    (optimal=False).  A negative budget raises BadParameters.
    """
    if budget < 0:
        raise BadParameters(f"node budget must be non-negative, got {budget}")
    forced = sorted(set(forced))
    lower_stop = max(lower_stop, len(forced))
    seed = greedy_cover(inst, forced)
    # forced choosers that already cover everything leave seed == forced
    if len(seed) <= lower_stop:
        return CoverResult(chosen=tuple(sorted(seed)), nodes=0, optimal=True)
    return _Search(inst, budget, lower_stop).run(forced, seed)
