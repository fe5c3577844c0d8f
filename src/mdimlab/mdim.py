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

import functools
import math
from dataclasses import asdict, dataclass
from itertools import combinations, islice
from typing import Any, Iterable, Iterator, Literal, Sequence

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
from .graphs import (
    DistanceMatrix,
    Graph,
    _gram,
    _kept,
    as_ids,
    as_ints,
    intersection_array,
    is_primitive,
)


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


@_kept
def _instance(g: Graph) -> PairCoverInstance:
    """pair_cover_instance of g's distances, kept with g (read-only, as
    build_instance leaves it), so mdim_exact and mdim_greedy on one graph
    build it once: n * C(n, 2) / 8 bytes for as long as g lives."""
    return pair_cover_instance(g.distances)


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


def _subsets_total(k: int, m: int) -> float:
    """Least total size of m distinct nonempty subsets of a k-set (the
    smallest first), or inf if it has fewer than m."""
    if m >= 1 << k:
        return math.inf
    total, size = 0, 1
    while m > 0:
        take = min(m, math.comb(k, size))
        total += take * size
        m -= take
        size += 1
    return total


def _fibre_count_bound(n_f: int, t: int) -> int:
    """Least k for which some h <= min(k, n_f) lets (n_f - h)t - 1 distinct
    nonempty subsets of a k-set have total size <= k(n_f - h).

    In an antipodal t-fold cover of K_{n_f} of diameter 3, let a resolving
    set S of k vertices meet h fibres.  A vertex v of a missed fibre is at
    distance 1 or 2 from each vertex of S, so N(v) & S fixes its vector.
    The (n_f - h)t such sets are distinct, at most one is empty, and as
    each vertex of S has at most one neighbour in every other fibre, their
    sizes sum to at most k(n_f - h).
    """
    k = 0
    while not any(
        _subsets_total(k, (n_f - h) * t - 1) <= k * (n_f - h)
        for h in range(min(k, n_f) + 1)
    ):
        k += 1
    return k


def _fibre_bound(dist: np.ndarray) -> int:
    """_fibre_count_bound of a graph of diameter 3 whose relation "equal or
    at distance 3" is an equivalence with n_f classes (fibres) of one size
    t >= 2; else 0.

    The relation is an equivalence iff each row equals the row of its
    least member.  Two neighbours of one vertex are at distance 1 or 2, so
    they lie in different fibres, and neither in its own: a vertex has at
    most one neighbour in every other fibre.
    """
    far = (dist & 1) == (dist >> 1)  # 0 and 3 of the distances 0..3
    least = far.argmax(axis=1)
    if not (far == far[least]).all():
        return 0
    sizes = np.bincount(least)
    t = int(sizes[0])
    n_f = len(dist) // t
    if t < 2 or (sizes[least] != t).any():
        return 0
    return _fibre_count_bound(n_f, t)


def _told_apart(a: int, lam: int) -> int:
    """Most vertices of one side outside a resolving set that a chosen
    vertices of the other side tell apart, in a bipartite graph of diameter
    3 where two vertices of that other side have at most lam common
    neighbours: one with no chosen neighbour, a with one, and at most
    min(lam * C(a, 2), 2**a - a - 1) with more."""
    return 1 + a + min(lam * math.comb(a, 2), 2**a - a - 1)


def _bipartite_count_bound(n_x: int, n_y: int, lam_x: int, lam_y: int) -> int:
    """Least a + b with n_y - b <= _told_apart(a, lam_x) and n_x - a <=
    _told_apart(b, lam_y).

    Let a resolving set of a bipartite graph of diameter 3 hold a vertices
    of side X (two of which have at most lam_x common neighbours) and b of
    side Y.  A Y-vertex outside it is at distance 2 from every chosen
    Y-vertex and at distance 1 or 3 from each chosen X-vertex, so only its
    chosen X-neighbours tell it apart; and the same with the sides swapped.
    """
    b = 0  # the least b with n_x - a <= _told_apart(b, lam_y); it falls as a rises
    while _told_apart(b, lam_y) < n_x:
        b += 1
    best = n_x + n_y
    for a in range(n_x + 1):
        if a >= best:
            break
        while b and _told_apart(b - 1, lam_y) >= n_x - a:
            b -= 1
        if b <= n_y:
            best = min(best, a + max(b, n_y - _told_apart(a, lam_x)))
    return best


def _bipartite_bound(dist: np.ndarray) -> int:
    """_bipartite_count_bound of a bipartite graph of diameter 3, else 0."""
    side = dist[0] & 1
    if ((dist & 1) != (side[:, None] ^ side)).any():
        return 0
    x = side == 0
    biadj = dist[x][:, ~x] == 1
    lams = []  # the most neighbours two vertices of one side share
    for rows in (biadj, biadj.T):
        common = _gram(rows)
        np.fill_diagonal(common, 0)
        lams.append(int(common.max()))
    return _bipartite_count_bound(len(biadj), biadj.shape[1], *lams)


def _root_lower_bound(g: Graph) -> int:
    """The largest of three lower bounds on the metric dimension, or 0
    unless g is connected with n > 1: lower_bound_nd(n, diameter) always,
    and at diameter 3 the antipodal fibre bound and the bipartite bound,
    each 0 where its structure is absent.  Their recognisers read
    g.distances.dist alone, so no labelling changes the value."""
    dm = g.distances
    if not dm.connected or g.n < 2:
        return 0
    bound = lower_bound_nd(g.n, dm.diameter)
    if dm.diameter == 3:
        bound = max(bound, _fibre_bound(dm.dist), _bipartite_bound(dm.dist))
    return bound


def mdim_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> ResolvingCertificate:
    """Exact metric dimension with a verified witness.

    Disconnected graphs are handled with the unreachable-distance sentinel;
    a pair in two different components is separated exactly by the vertices
    of those components.  Spending the whole node budget (min_cover
    rejects a negative one) downgrades the result to status
    "verified-resolving" carrying the best set found.  Budget 0 returns
    the verified greedy seed, "minimum" only when it meets the lower bound.

    The distance instance, kept with g and shared with mdim_greedy
    (_instance), goes to cover.min_cover with the twin-forced vertices
    and, as lower_stop, the root lower bound (0 when
    disconnected): the largest of the distance-alphabet bound
    lower_bound_nd, the antipodal fibre bound of a t-fold cover of K_n of
    diameter 3, and the two-sided counting bound of a bipartite graph of
    diameter 3, such as the incidence graph of a symmetric design.  A
    greedy seed that meets it is returned as the minimum with no finder
    and no search, and a search stops at the first cover of its size.
    Otherwise min_cover decides on symmetry: with nothing forced and a
    positive budget, cover.root_symmetries looks for automorphisms moving
    vertex 0, and the search branches on the orbit of 0 and on the orbits
    of its stabiliser (orbital branching in the cover module).  When it
    found any, the certificate has method "exact-bnb-sym" and carries the
    generators.
    """
    dm = g.distances
    res = min_cover(
        _instance(g), forced=twin_forced_choices(g), budget=budget,
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
    """Greedy upper bound with a verified witness, from greedy_cover on the
    distance instance that g keeps and shares with mdim_exact (_instance)."""
    return _verified(g, greedy_cover(_instance(g)), "greedy")


# subsets per numpy pass of exhaustive_mdim, and the most rows of a kept
# _subsets table: at n = 32 a chunk's signatures take at most 4096 * 32 * 32
# bytes
_CHUNK = 4096


@functools.cache
def _subsets(n: int, size: int) -> np.ndarray:
    """Every size-subset of range(n), one per row of a (C(n, size), size)
    array of vertex ids in lexicographic order, built once per (n, size)
    and read-only."""
    subsets = np.array(list(combinations(range(n), size)), dtype=np.intp)
    subsets.flags.writeable = False
    return subsets


def _chunks(n: int, size: int) -> Iterator[np.ndarray]:
    """The size-subsets of range(n) in lexicographic order, as arrays of at
    most _CHUNK rows: the kept _subsets table when it fits in one chunk,
    else chunks streamed from combinations."""
    if math.comb(n, size) <= _CHUNK:
        yield _subsets(n, size)
        return
    subsets = combinations(range(n), size)
    while chunk := list(islice(subsets, _CHUNK)):
        yield np.array(chunk, dtype=np.intp)


def _resolving_rows(dist: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """For each row of subsets, a (k, m) array of vertex ids, whether the n
    rows of dist restricted to its columns are pairwise distinct.

    Each vertex's m distances, UNREACHABLE included, are zero-padded to
    ceil(m / 8) * 8 bytes and read as that many uint64 words: the same
    bytes, so two rows are equal exactly when their words are, for every n
    and m.  Sorting each subset's n keys puts equal rows next to each
    other: one word sorts in place, more words sort by np.lexsort.
    """
    n = dist.shape[0]
    k, m = subsets.shape
    if n <= 1 or m == 0:
        return np.full(k, n <= 1)
    words = -(-m // 8)
    sigs = np.zeros((k, n, 8 * words), np.uint8)
    sigs[..., :m] = dist[:, subsets].transpose(1, 0, 2)
    keys = sigs.view(np.uint64)
    if words == 1:
        keys = keys[..., 0]
        keys.sort(axis=1)
        return (keys[:, 1:] != keys[:, :-1]).all(axis=1)
    order = np.lexsort(keys.transpose(2, 0, 1)[::-1], axis=-1)
    keys = np.take_along_axis(keys, order[..., None], axis=1)
    return (keys[:, 1:] != keys[:, :-1]).any(axis=2).all(axis=1)


def exhaustive_mdim(g: Graph) -> ResolvingCertificate:
    """Independent oracle: try all vertex subsets in increasing size.

    A subset resolves when the n rows of the distance matrix restricted to
    its columns are distinct.  Each size is tested in the lexicographic
    chunks of _chunks, one numpy pass per chunk: one pass over its kept
    _subsets table when its C(n, size) subsets fit in one _CHUNK.  The
    first resolving subset is returned, so the answer is the first in
    size-then-lexicographic order.  Only sensible for small graphs; used to
    pin expected values and to cross-check the branch and bound of cover.py
    and the pair check of certify, with neither of which it shares code.
    """
    dist = g.distances.dist
    for size in range(g.n + 1):
        for chunk in _chunks(g.n, size):
            hits = np.flatnonzero(_resolving_rows(dist, chunk))
            if hits.size:
                return ResolvingCertificate(
                    set=tuple(chunk[hits[0]].tolist()), status="minimum", method="exhaustive"
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
