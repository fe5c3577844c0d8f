"""Resolving sets, exact and greedy metric dimension, and bound reports.

A set R resolves a connected graph iff no two vertices share distances to
all of R.  Exact minimisation reduces to pair-separation set cover; twin
classes (vertices with identical distance rows off the pair itself) are
preselected all-but-one before the search, which already settles complete
and complete multipartite graphs at the root.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Iterable, Literal, Sequence

import numpy as np

from . import cover
from .cover import CoverResult, PairCoverInstance, build_instance, greedy_cover, min_cover
from .designs import SymmetricDesign
from .errors import (
    BadParameters,
    HypothesisFailure,
    LiftVerificationError,
)
from .graphs import (
    DistanceMatrix,
    Graph,
    intersection_array,
    is_primitive,
    max_distance_class,
)

ENV_BUDGET = "MDIMLAB_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return cover.DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise BadParameters(f"{ENV_BUDGET} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise BadParameters(f"{ENV_BUDGET} must be positive")
    return value


def _normalise(s: Iterable[int]) -> tuple[int, ...]:
    """A chooser set as sorted, distinct ints."""
    return tuple(sorted({int(v) for v in s}))


def _first_unseparated(
    matrix: np.ndarray, chosen: Sequence[int]
) -> tuple[int, int] | None:
    """The lexicographically first pair of rows of matrix that agree on all
    the chosen columns, or None.

    matrix is indexed [entity, chooser]; chosen must hold ints.
    """
    n, n_choosers = matrix.shape
    for v in chosen:
        if not 0 <= v < n_choosers:
            raise BadParameters(f"index {v} out of range")
    if n < 2:
        return None
    if not chosen:
        return (0, 1)
    sig = matrix[:, chosen]
    groups: dict[bytes, list[int]] = {}
    for v in range(n):
        groups.setdefault(sig[v].tobytes(), []).append(v)
    best = None
    for members in groups.values():
        if len(members) > 1:
            pair = (members[0], members[1])
            if best is None or pair < best:
                best = pair
    return best


def first_unresolved_pair(
    dm: DistanceMatrix, s: Iterable[int]
) -> tuple[int, int] | None:
    """The lexicographically first pair not separated by s, or None."""
    return _first_unseparated(dm.dist, _normalise(s))


def is_resolving(dm: DistanceMatrix, s: Iterable[int]) -> bool:
    return first_unresolved_pair(dm, s) is None


@dataclass(frozen=True)
class ResolvingCertificate:
    """A vertex set with its verification status.

    status is "minimum" (proved optimal), "verified-resolving" (checked
    resolving, optimality unknown), or "failed" (not resolving; pair holds
    the first witness).  method records provenance, e.g. "exact-bnb",
    "greedy", "lifted-halving".
    """

    set: tuple[int, ...]
    status: Literal["minimum", "verified-resolving", "failed"]
    method: str
    nodes_explored: int = 0
    pair: tuple[int, int] | None = None

    @property
    def mu(self) -> int:
        return len(self.set)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "mu": self.mu,
            "set": list(self.set),
            "status": self.status,
            "method": self.method,
            "nodes_explored": self.nodes_explored,
        }
        if self.pair is not None:
            out["unresolved_pair"] = list(self.pair)
        return out


def pair_cover_instance(dm: DistanceMatrix) -> PairCoverInstance:
    """Metric-dimension cover instance: choosers and columns are vertices."""
    return build_instance(np.asarray(dm.dist))


def twin_classes(inst: PairCoverInstance) -> list[tuple[int, ...]]:
    """Maximal classes of mutually twin vertices, by ascending minimum.

    A pair is twin iff nothing but its two members separates it; twinhood
    is transitive, so the classes are a partition of the affected vertices.
    """
    parent = list(range(inst.n_choosers))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, (u, w) in enumerate(inst.items):
        if inst.resolvers[p] == (1 << u) | (1 << w):
            ru, rw = find(u), find(w)
            if ru != rw:
                parent[max(ru, rw)] = min(ru, rw)
    groups: dict[int, list[int]] = {}
    for v in range(inst.n_choosers):
        groups.setdefault(find(v), []).append(v)
    return [tuple(g) for g in sorted(groups.values()) if len(g) > 1]


def twin_forced_choices(inst: PairCoverInstance) -> list[int]:
    """All but the largest member of every twin class.

    Any resolving set contains all but one vertex of each twin class, and
    twins are interchangeable by an automorphism, so forcing the smallest
    members preserves the optimum.
    """
    forced: list[int] = []
    for cls in twin_classes(inst):
        forced.extend(cls[:-1])
    return forced


def lower_bound_nd(n: int, d: int) -> int:
    """Least mu with mu + d**mu >= n (every vertex needs a distinct distance
    vector with entries in 0..d)."""
    if n < 1 or d < 1:
        raise BadParameters("need n >= 1 and d >= 1")
    mu = 0
    while mu + d**mu < n:
        mu += 1
    return mu


def mdim_exact(g: Graph, budget: int | None = None) -> ResolvingCertificate:
    """Exact metric dimension with a verified witness.

    Disconnected graphs are handled with the unreachable-distance sentinel;
    a pair in two different components is separated exactly by the vertices
    of those components.  Spending the whole node budget downgrades the
    result to status "verified-resolving" carrying the best set found.
    """
    dm = g.distances
    if budget is None:
        budget = default_budget()
    inst = pair_cover_instance(dm)
    forced = twin_forced_choices(inst)
    # the distance-alphabet counting bound needs a finite diameter
    lb = lower_bound_nd(g.n, dm.diameter) if dm.connected and g.n > 1 else 0
    res = min_cover(
        inst, forced=forced, budget=budget, lower_stop=max(lb, len(forced))
    )
    return _from_cover(res, first_unresolved_pair(dm, res.chosen), "exact-bnb")


def _from_cover(
    res: CoverResult, pair: tuple[int, int] | None, method: str
) -> ResolvingCertificate:
    """Certificate for a solver result; pair is what the check of its set
    left unseparated (None if nothing)."""
    if pair is not None:
        raise LiftVerificationError(f"{method} left pair {pair} unseparated")
    return ResolvingCertificate(
        set=res.chosen,
        status="minimum" if res.optimal else "verified-resolving",
        method=method,
        nodes_explored=res.nodes,
    )


def mdim_greedy(g: Graph) -> ResolvingCertificate:
    """Greedy upper bound with a verified witness."""
    return _verified(g, greedy_cover(pair_cover_instance(g.distances)), "greedy")


def exhaustive_mdim(g: Graph) -> ResolvingCertificate:
    """Independent oracle: try all vertex subsets in increasing size.

    Only sensible for small graphs; used to pin expected values and to
    cross-check the branch-and-bound path, which it shares no code with.
    """
    from itertools import combinations

    dm = g.distances
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            if first_unresolved_pair(dm, subset) is None:
                return ResolvingCertificate(
                    set=subset, status="minimum", method="exhaustive"
                )
    raise LiftVerificationError("full vertex set failed to resolve")  # unreachable


def certify(
    g: Graph, s: Iterable[int], method: str = "supplied"
) -> ResolvingCertificate:
    """Check a supplied set and wrap the outcome in a certificate.

    This is the one place where a vertex set is normalised, checked and
    wrapped: the greedy bound, the split check and every lift verify
    through it.
    """
    chosen = _normalise(s)
    pair = _first_unseparated(g.distances.dist, chosen)
    return ResolvingCertificate(
        set=chosen,
        status="verified-resolving" if pair is None else "failed",
        method=method,
        pair=pair,
    )


def _verified(g: Graph, s: Iterable[int], method: str) -> ResolvingCertificate:
    """certify, raising LiftVerificationError if the set fails: for sets
    the package produced itself."""
    cert = certify(g, s, method)
    if cert.pair is not None:
        raise LiftVerificationError(
            f"{method} produced a set that fails to resolve pair {cert.pair}"
        )
    return cert


def resolving_witness_map(
    dm: DistanceMatrix, s: Sequence[int]
) -> dict[tuple[int, int], int]:
    """pair -> the least member of s separating it; input must resolve."""
    chosen = _normalise(s)
    pair = _first_unseparated(dm.dist, chosen)
    if pair is not None:
        raise HypothesisFailure(f"set does not resolve pair {pair}")
    out = {}
    for u in range(dm.n):
        for w in range(u + 1, dm.n):
            for v in chosen:
                if dm.d(v, u) != dm.d(v, w):
                    out[(u, w)] = v
                    break
    return out


@dataclass(frozen=True)
class BoundReport:
    """Numeric sizes of always-resolving sets for a primitive graph,
    natural-logarithm form, next to the counting lower bound."""

    n: int
    k: int
    d: int
    max_class: int
    lower_nd: int
    general: float
    srg: float | None
    distance_class: float

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "max_class": self.max_class,
            "lower_nd": self.lower_nd,
            "general": self.general,
            "srg": self.srg,
            "distance_class": self.distance_class,
        }


def babai_bounds(g: Graph) -> BoundReport:
    """Upper bounds on the metric dimension of a primitive distance-regular
    graph: 4*sqrt(n)*ln n in general, 2n^2/(k(n-k))*ln n at diameter 2, and
    2d*n/(n-M)*ln n from the largest distance class M."""
    if g.n < 2:
        raise HypothesisFailure("bound report needs at least two vertices")
    if not is_primitive(g):
        raise HypothesisFailure("bound report is stated for primitive graphs")
    ia = intersection_array(g)
    n, k, d = g.n, ia.k, ia.d
    m = max_distance_class(g.distances)
    ln = math.log(n)
    general = 4.0 * math.sqrt(n) * ln
    srg = (2.0 * n * n / (k * (n - k))) * ln if d == 2 else None
    distance_class = 2.0 * d * (n / (n - m)) * ln
    return BoundReport(
        n=n, k=k, d=d, max_class=m,
        lower_nd=lower_bound_nd(n, d),
        general=general, srg=srg, distance_class=distance_class,
    )


# ---------------------------------------------------------------------------
# designs: semi-resolving sets, split dimension, double blocking sets


def _side_matrix(
    d: SymmetricDesign, side: Literal["blocks", "points"]
) -> np.ndarray:
    """Incidence indexed [chooser, entity] for the pairs of one side."""
    if side == "blocks":
        return np.asarray(d.inc)
    if side == "points":
        return np.asarray(d.inc).T
    raise BadParameters("side must be 'blocks' or 'points'")


def semi_cover_instance(
    d: SymmetricDesign, side: Literal["blocks", "points"]
) -> PairCoverInstance:
    """Choosers on one side separating the pairs of the other.

    side="blocks": points separating block pairs; side="points": blocks
    separating point pairs.
    """
    return build_instance(_side_matrix(d, side))


def first_unseparated_pair(
    d: SymmetricDesign, s: Iterable[int], side: Literal["blocks", "points"] = "blocks"
) -> tuple[int, int] | None:
    """First pair on the given side with no chooser of s in exactly one member."""
    return _first_unseparated(_side_matrix(d, side).T, _normalise(s))


def is_semi_resolving_for_blocks(d: SymmetricDesign, s: Iterable[int]) -> bool:
    """True iff every block pair has a point of s in exactly one block."""
    return first_unseparated_pair(d, s, "blocks") is None


def min_semi_resolving(
    d: SymmetricDesign,
    side: Literal["blocks", "points"] = "blocks",
    budget: int | None = None,
) -> ResolvingCertificate:
    """Minimum semi-resolving set for one side of a design."""
    if budget is None:
        budget = default_budget()
    res = min_cover(semi_cover_instance(d, side), budget=budget)
    return _from_cover(
        res, first_unseparated_pair(d, res.chosen, side), f"exact-bnb-semi-{side}"
    )


@dataclass(frozen=True)
class SplitDimension:
    """Minimum split resolving set of an incidence graph: a points part
    separating all blocks plus a blocks part separating all points."""

    points_part: ResolvingCertificate
    blocks_part: ResolvingCertificate

    @property
    def mu_star(self) -> int:
        return self.points_part.mu + self.blocks_part.mu

    def to_json(self) -> dict[str, Any]:
        return {
            "mu_star": self.mu_star,
            "points_part": self.points_part.to_json(),
            "blocks_part": self.blocks_part.to_json(),
        }


def split_mdim(d: SymmetricDesign, budget: int | None = None) -> SplitDimension:
    """Split metric dimension of the incidence graph of d.

    The union of the two witnesses is verified to resolve the incidence
    graph, which certifies that the graph's metric dimension is at most
    mu_star.  Undefined for k = v-1 (repeated distance rows collapse).
    """
    from .designs import incidence_graph

    if not 1 < d.k < d.v - 1:
        raise BadParameters("split dimension needs 1 < k < v-1")
    pts = min_semi_resolving(d, "blocks", budget=budget)
    blks = min_semi_resolving(d, "points", budget=budget)
    union = set(pts.set) | {d.v + j for j in blks.set}
    _verified(incidence_graph(d).graph, union, "split")
    return SplitDimension(points_part=pts, blocks_part=blks)
