"""Resolving sets, exact and greedy metric dimension, and bound reports.

A set R resolves a connected graph iff no two vertices share distances to
all of R.  Exact minimisation reduces to pair-separation set cover; twin
classes (u and w with N(u) - {w} = N(w) - {u}, read off the adjacency
rows) are preselected all-but-one before the search, which already settles
complete and complete multipartite graphs at the root.  Graphs without
twins may instead get root symmetry: cover.min_cover decides when to look
for automorphisms, and finds, checks and branches on them; mdim_exact only
reports what it used.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations, islice
from typing import Any, Iterable, Literal, Sequence

import numpy as np

from .cover import (
    DEFAULT_BUDGET,
    CoverResult,
    PairCoverInstance,
    build_instance,
    greedy_cover,
    min_cover,
)
from .designs import SymmetricDesign, incidence_graph
from .errors import (
    BadParameters,
    HypothesisFailure,
    LiftVerificationError,
)
from .graphs import DistanceMatrix, Graph, as_ids, as_ints, intersection_array, is_primitive


def _normalise(s: Iterable[int], n: int) -> tuple[int, ...]:
    """A chooser set of 0..n-1 as sorted, distinct ids."""
    return tuple(sorted(set(as_ids(s, n, "vertex ids"))))


def _first_unseparated(
    matrix: np.ndarray, chosen: Sequence[int]
) -> tuple[int, int] | None:
    """The lexicographically first pair of rows of matrix that agree on all
    the chosen columns, or None.

    matrix is indexed [entity, chooser]; chosen must hold chooser ids, as
    _normalise reads them.  One pass keeps the first row of each
    signature; the answer is the least (first, v) over the later rows v.
    """
    first: dict[bytes, int] = {}
    best = None
    for v, row in enumerate(matrix[:, chosen]):
        u = first.setdefault(row.tobytes(), v)
        if u != v and (best is None or (u, v) < best):
            best = (u, v)
    return best


def first_unresolved_pair(
    dm: DistanceMatrix, s: Iterable[int]
) -> tuple[int, int] | None:
    """The lexicographically first pair not separated by s, or None."""
    return _first_unseparated(dm.dist, _normalise(s, dm.n))


def is_resolving(dm: DistanceMatrix, s: Iterable[int]) -> bool:
    return first_unresolved_pair(dm, s) is None


@dataclass(frozen=True)
class ResolvingCertificate:
    """A vertex set with its verification status.

    status is "minimum" (proved optimal), "verified-resolving" (checked
    resolving, optimality unknown), or "failed" (not resolving; pair holds
    the first witness).  method records provenance, e.g. "exact-bnb",
    "greedy", "lifted-halving".  generators holds the verified
    automorphisms (vertex x goes to p[x]) behind an "exact-bnb-sym"
    search, and is empty otherwise.
    """

    set: tuple[int, ...]
    status: Literal["minimum", "verified-resolving", "failed"]
    method: str
    nodes_explored: int = 0
    pair: tuple[int, int] | None = None
    generators: tuple[tuple[int, ...], ...] = ()

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
        if self.generators:
            out["generators"] = [list(p) for p in self.generators]
        return out


def pair_cover_instance(dm: DistanceMatrix) -> PairCoverInstance:
    """Metric-dimension cover instance: choosers and columns are vertices."""
    return build_instance(np.asarray(dm.dist))


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Maximal classes of mutually twin vertices, by ascending minimum.

    u and w are twins iff N(u) - {w} = N(w) - {u}: equal open rows for
    non-adjacent twins, equal closed rows for adjacent ones.  An open row
    never equals a closed one (that would put a vertex in its own row), so
    both kinds share one dict, and the two kinds of class share no vertex.
    Each row is first met at its least member, which orders the classes.
    """
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(g.adj):
        groups.setdefault(row, []).append(v)
        groups.setdefault(row | 1 << v, []).append(v)
    return [tuple(m) for m in groups.values() if len(m) > 1]


def twin_forced_choices(g: Graph) -> list[int]:
    """All but the largest member of every twin class.

    Any resolving set contains all but one vertex of each twin class, and
    twins are interchangeable by an automorphism, so forcing the smallest
    members preserves the optimum.
    """
    forced: list[int] = []
    for cls in twin_classes(g):
        forced.extend(cls[:-1])
    return forced


def lower_bound_nd(n: int, d: int) -> int:
    """Least mu with mu + d**mu >= n (every vertex needs a distinct distance
    vector with entries in 0..d)."""
    n, d = as_ints((n, d), "n and d")
    if n < 1 or d < 1:
        raise BadParameters("need n >= 1 and d >= 1")
    mu = 0
    while mu + d**mu < n:
        mu += 1
    return mu


def _root_lower_bound(g: Graph) -> int:
    """lower_bound_nd(n, diameter), or 0 unless g is connected with n > 1."""
    dm = g.distances
    return lower_bound_nd(g.n, dm.diameter) if dm.connected and g.n > 1 else 0


def mdim_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> ResolvingCertificate:
    """Exact metric dimension with a verified witness.

    Disconnected graphs are handled with the unreachable-distance sentinel;
    a pair in two different components is separated exactly by the vertices
    of those components.  Spending the whole node budget (min_cover
    rejects a negative one) downgrades the result to status
    "verified-resolving" carrying the best set found.  Budget 0 returns
    the verified greedy seed, "minimum" only when it meets the lower bound.

    The distance instance goes to cover.min_cover with the twin-forced
    vertices and the counting lower bound (0 when disconnected), and
    min_cover decides on symmetry: with nothing forced, a positive budget
    and a greedy seed above that bound, cover.root_symmetries looks for
    automorphisms moving vertex 0, and the search branches on the orbit of
    0 and on the orbits of its stabiliser (orbital branching in the cover
    module).  When it found any, the certificate has method
    "exact-bnb-sym" and carries the generators.
    """
    dm = g.distances
    res = min_cover(
        pair_cover_instance(dm), forced=twin_forced_choices(g), budget=budget,
        lower_stop=_root_lower_bound(g),
    )
    method = "exact-bnb-sym" if res.generators else "exact-bnb"
    return _from_cover(res, first_unresolved_pair(dm, res.chosen), method)


def _from_cover(
    res: CoverResult, pair: tuple[int, int] | None, method: str
) -> ResolvingCertificate:
    """Certificate for a solver result, with its generators; pair is what
    the check of its set left unseparated (None if nothing)."""
    if pair is not None:
        raise LiftVerificationError(f"{method} left pair {pair} unseparated")
    return ResolvingCertificate(
        set=res.chosen,
        status="minimum" if res.optimal else "verified-resolving",
        method=method,
        nodes_explored=res.nodes,
        generators=res.generators,
    )


def mdim_greedy(g: Graph) -> ResolvingCertificate:
    """Greedy upper bound with a verified witness."""
    return _verified(g, greedy_cover(pair_cover_instance(g.distances)), "greedy")


# subsets per numpy pass of exhaustive_mdim: at n = 32 a chunk's signatures
# take at most 4096 * 32 * 32 bytes
_CHUNK = 4096


def _resolving_rows(dist: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """For each row of subsets, a (k, m) array of vertex ids, whether the n
    rows of dist restricted to its columns are pairwise distinct.

    Each vertex's m distances, UNREACHABLE included, are read as one
    m-byte string; sorting each subset's n strings puts equal ones next to
    each other.  Byte strings compare exactly for every n and m, where
    packing the distances into one integer could overflow.
    """
    n = dist.shape[0]
    k, m = subsets.shape
    if n <= 1 or m == 0:
        return np.full(k, n <= 1)
    sigs = np.ascontiguousarray(dist[:, subsets].transpose(1, 0, 2))
    keys = sigs.view(np.dtype((np.void, m)))[..., 0]
    keys.sort(axis=1)
    return (keys[:, 1:] != keys[:, :-1]).all(axis=1)


def exhaustive_mdim(g: Graph) -> ResolvingCertificate:
    """Independent oracle: try all vertex subsets in increasing size.

    A subset resolves when the n rows of the distance matrix restricted to
    its columns are distinct.  Each size is tested in lexicographic chunks
    of _CHUNK subsets, one numpy pass per chunk, and the first resolving
    subset is returned, so the answer is the first in size-then-
    lexicographic order.  Only sensible for small graphs; used to pin
    expected values and to cross-check the branch and bound of cover.py
    and the pair check of certify, with neither of which it shares code.
    """
    dist = g.distances.dist
    for size in range(g.n + 1):
        subsets = combinations(range(g.n), size)
        while chunk := list(islice(subsets, _CHUNK)):
            hits = np.flatnonzero(_resolving_rows(dist, np.array(chunk, dtype=np.intp)))
            if hits.size:
                return ResolvingCertificate(
                    set=chunk[hits[0]], status="minimum", method="exhaustive"
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
    chosen = _normalise(s, g.n)
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
        return asdict(self)


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
    m = max(ia.class_sizes()[1:])
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
    return _first_unseparated(_side_matrix(d, side).T, _normalise(s, d.v))


def is_semi_resolving_for_blocks(d: SymmetricDesign, s: Iterable[int]) -> bool:
    """True iff every block pair has a point of s in exactly one block."""
    return first_unseparated_pair(d, s, "blocks") is None


def min_semi_resolving(
    d: SymmetricDesign,
    side: Literal["blocks", "points"] = "blocks",
    budget: int = DEFAULT_BUDGET,
) -> ResolvingCertificate:
    """Minimum semi-resolving set for one side of a design; a spent budget
    gives status "verified-resolving", as in mdim_exact."""
    # no finder: faster on the small planes and budgeted searches run here,
    # slower on a full PG(2,5) proof (README; ROADMAP item 8)
    res = min_cover(semi_cover_instance(d, side), budget=budget, symmetries=())
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


def split_mdim(d: SymmetricDesign, budget: int = DEFAULT_BUDGET) -> SplitDimension:
    """Split metric dimension of the incidence graph of d.

    The union of the two witnesses is verified to resolve the incidence
    graph, which certifies that the graph's metric dimension is at most
    mu_star.  Undefined for k = v-1 (repeated distance rows collapse).
    """
    if not 1 < d.k < d.v - 1:
        raise BadParameters("split dimension needs 1 < k < v-1")
    pts = min_semi_resolving(d, "blocks", budget=budget)
    blks = min_semi_resolving(d, "points", budget=budget)
    union = set(pts.set) | {d.v + j for j in blks.set}
    _verified(incidence_graph(d), union, "split")
    return SplitDimension(points_part=pts, blocks_part=blks)
