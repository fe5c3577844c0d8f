"""Immutable graphs, all-pairs BFS distances, and distance-regularity checks.

Vertices are always 0..n-1.  Adjacency is stored as one Python int per vertex
used as a bitset, so neighbourhood algebra is word-parallel.  Distance
matrices are dense 8-bit numpy arrays with 255 marking unreachable pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadParameters,
    DisconnectedGraph,
    NotDistanceRegular,
)

UNREACHABLE = 255


def iter_bits(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of x in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Graph:
    """Simple undirected graph with bitset adjacency rows.

    Instances are immutable after construction: all mutating operations build
    new graphs.  Equality is exact edge-set equality under the fixed labels,
    never isomorphism.  All-pairs distances are computed on first use of
    `distances` and kept with the graph, as are the first intersection
    array and the first halving (`imprimitivity.halve`) computed for it.
    """

    __slots__ = ("n", "adj", "_distances", "_intersection_array", "_halves")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 1:
            raise BadParameters("graph needs at least one vertex")
        rows = tuple(int(r) for r in adj)
        if len(rows) != n:
            raise BadParameters(f"expected {n} adjacency rows, got {len(rows)}")
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise BadParameters(f"adjacency row {v} references vertices >= {n}")
            if row & (1 << v):
                raise BadParameters(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in iter_bits(row):
                if not rows[u] & (1 << v):
                    raise BadParameters(f"edge ({v}, {u}) is not symmetric")
        self.n = n
        self.adj = rows
        self._distances = None
        self._intersection_array = None
        self._halves = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, w in edges:
            if not (0 <= u < n and 0 <= w < n):
                raise BadParameters(f"edge ({u}, {w}) out of range for n={n}")
            if u == w:
                raise BadParameters(f"loop at vertex {u}")
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        return cls(n, rows)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.adj[u] >> w & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, w) with u < w, in lexicographic order."""
        for u in range(self.n):
            for w in iter_bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + w

    @property
    def distances(self) -> "DistanceMatrix":
        """All-pairs distances, computed by the first access and then shared
        (the matrix is read-only)."""
        if self._distances is None:
            self._distances = bfs_distances(self)
        return self._distances

    @property
    def n_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def regular_valency(self) -> int | None:
        """The common degree, or None if the graph is not regular."""
        k = self.adj[0].bit_count()
        if all(r.bit_count() == k for r in self.adj):
            return k
        return None

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [full & ~r & ~(1 << v) for v, r in enumerate(self.adj)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.n_edges})"


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs distances for one graph.

    dist is an (n, n) uint8 array, read-only, with UNREACHABLE = 255 for
    pairs in different components.  diameter is None iff disconnected.
    spheres[u][i] is the bitset of the vertices at distance exactly i from
    u, for i from 0 up to the eccentricity of u in its component.
    """

    n: int
    dist: np.ndarray
    connected: bool
    diameter: int | None
    spheres: tuple[tuple[int, ...], ...]

    def d(self, u: int, w: int) -> int:
        return int(self.dist[u, w])

    def sphere(self, u: int, i: int) -> tuple[int, ...]:
        """Vertices at distance exactly i from u, ascending."""
        row = self.spheres[u]
        return tuple(iter_bits(row[i])) if 0 <= i < len(row) else ()

    def layer(self, i: int) -> tuple[int, ...]:
        """Bitset adjacency rows of the distance-i graph."""
        return tuple(row[i] if 0 <= i < len(row) else 0 for row in self.spheres)


def bfs_distances(g: Graph) -> DistanceMatrix:
    """All-pairs distances via one bitset BFS per source vertex; its
    frontiers are kept as the spheres."""
    n = g.n
    adj = g.adj
    rows = []
    spheres = []
    for s in range(n):
        row = [UNREACHABLE] * n
        seen = 1 << s
        frontier = seen
        frontiers = []
        d = 0
        while frontier:
            if d >= UNREACHABLE:
                raise BadParameters("graph diameter exceeds the 8-bit distance range")
            frontiers.append(frontier)
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                v = low.bit_length() - 1
                row[v] = d
                nxt |= adj[v]
                f ^= low
            frontier = nxt & ~seen
            seen |= nxt
            d += 1
        rows.append(row)
        spheres.append(tuple(frontiers))
    dist = np.array(rows, dtype=np.uint8)
    connected = not bool((dist == UNREACHABLE).any())
    diameter = int(dist.max()) if connected else None
    dist.setflags(write=False)
    return DistanceMatrix(n=n, dist=dist, connected=connected, diameter=diameter,
                          spheres=tuple(spheres))


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers of a distance-regular graph.

    c holds c_1..c_d, a holds a_0..a_d, b holds b_0..b_(d-1).
    """

    d: int
    c: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.c) != self.d or len(self.a) != self.d + 1 or len(self.b) != self.d:
            raise BadParameters("intersection array has inconsistent lengths")

    @property
    def k(self) -> int:
        return self.b[0]

    def standard_notation(self) -> str:
        bs = ", ".join(str(x) for x in self.b)
        cs = ", ".join(str(x) for x in self.c)
        return "{" + bs + "; " + cs + "}"

    def class_sizes(self) -> tuple[int, ...]:
        """k_0..k_d, the sizes of the distance classes around any vertex."""
        ks = [1]
        for i in range(self.d):
            ks.append(ks[-1] * self.b[i] // self.c[i])
        return tuple(ks)

    def srg_params(self, n: int) -> "SrgParams | None":
        if self.d != 2:
            return None
        return SrgParams(n=n, k=self.k, a=self.a[1], c=self.c[1])


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular graph parameters (n, k, a, c)."""

    n: int
    k: int
    a: int
    c: int

    def __post_init__(self):
        # standard counting identity k(k - a - 1) = (n - k - 1)c
        if self.k * (self.k - self.a - 1) != (self.n - self.k - 1) * self.c:
            raise BadParameters(f"inconsistent strongly regular parameters {self}")


def intersection_array(g: Graph) -> IntersectionArray:
    """Compute the intersection array, or raise NotDistanceRegular.

    The witness on failure is the first (u, w, i) in lexicographic (u, w)
    order whose neighbour counts disagree with the counts established by
    earlier pairs at the same distance i.  The array is kept with g, so
    later calls on the same graph return the same object.
    """
    if g._intersection_array is not None:
        return g._intersection_array
    dm = g.distances
    if not dm.connected:
        raise DisconnectedGraph("intersection array needs a connected graph")
    n, d = g.n, dm.diameter
    assert d is not None
    expected: list[tuple[int, int, int] | None] = [None] * (d + 1)
    for u in range(n):
        row = dm.dist[u].tolist()
        # the appended empty sphere is Gamma_{e+1}(u) past the eccentricity
        # e of u, and Gamma_{-1}(u) through index -1
        masks = dm.spheres[u] + (0,)
        for w in range(n):
            i = row[w]
            aw = g.adj[w]
            triple = (
                (aw & masks[i - 1]).bit_count(),
                (aw & masks[i]).bit_count(),
                (aw & masks[i + 1]).bit_count(),
            )
            if expected[i] is None:
                expected[i] = triple
            elif expected[i] != triple:
                raise NotDistanceRegular((u, w, i))
    c = tuple(expected[i][0] for i in range(1, d + 1))
    a = tuple(expected[i][1] for i in range(d + 1))
    b = tuple(expected[i][2] for i in range(d))
    g._intersection_array = IntersectionArray(d=d, c=c, a=a, b=b)
    return g._intersection_array


def is_distance_regular(g: Graph) -> bool:
    try:
        intersection_array(g)
        return True
    except (NotDistanceRegular, DisconnectedGraph):
        return False


def distance_i_graph(dm: DistanceMatrix, i: int) -> Graph:
    """Graph on the same vertices whose edges are the pairs at distance exactly i."""
    if dm.diameter is None:
        raise DisconnectedGraph("distance-i graph needs a connected graph")
    if not 1 <= i <= dm.diameter:
        raise IndexError(f"distance class {i} outside 1..{dm.diameter}")
    return Graph(dm.n, dm.layer(i))


def _components(n: int, rows: Sequence[int]) -> list[int]:
    """Connected components of a bitset adjacency, as vertex bitsets, by min vertex."""
    unseen = (1 << n) - 1
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        comps.append(comp)
        unseen &= ~comp
    return comps


def is_primitive(g: Graph) -> bool:
    """True iff every distance-i graph (1 <= i <= d) is connected.

    Requires a connected distance-regular graph; raises otherwise.
    """
    d = intersection_array(g).d  # validates connected + distance-regular
    dm = g.distances
    return all(len(_components(g.n, dm.layer(i))) == 1 for i in range(1, d + 1))


def max_distance_class(dm: DistanceMatrix) -> int:
    """M = max over vertices u and i >= 1 of |{v : d(u,v) = i}|."""
    if not dm.connected:
        raise DisconnectedGraph("max distance class needs a connected graph")
    return max((s.bit_count() for row in dm.spheres for s in row[1:]), default=0)


def induced_neighborhood(g: Graph, x: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the neighbours of x, plus the vertex map.

    The returned map sends local vertex i to the i-th neighbour of x in
    ascending order.
    """
    if not 0 <= x < g.n:
        raise BadParameters(f"vertex {x} out of range")
    vmap = tuple(iter_bits(g.adj[x]))
    if not vmap:
        raise BadParameters(f"vertex {x} has no neighbours")
    index = {v: i for i, v in enumerate(vmap)}
    rows = []
    for v in vmap:
        mask = 0
        for u in iter_bits(g.adj[v] & g.adj[x]):
            mask |= 1 << index[u]
        rows.append(mask)
    return Graph(len(vmap), rows), vmap
