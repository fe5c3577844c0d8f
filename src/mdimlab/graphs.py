"""Immutable graphs, all-pairs BFS distances, the bipartition, and
distance-regularity checks.

Vertices are always 0..n-1.  Adjacency is stored as one Python int per vertex
used as a bitset, so neighbourhood algebra is word-parallel.  Distance
matrices are dense 8-bit numpy arrays with 255 marking unreachable pairs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadParameters,
    DisconnectedGraph,
    NotBipartite,
    NotDistanceRegular,
)

UNREACHABLE = 255


def as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """values read with operator.index, so ints and numpy integers pass;
    anything else (a float, a string, a character of one) raises
    BadParameters instead of being truncated or split."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise BadParameters(f"{what} must be integers: {exc}") from exc


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
        (n,) = as_ints((n,), "the vertex count")
        if n < 1:
            raise BadParameters("graph needs at least one vertex")
        rows = as_ints(adj, "adjacency rows")
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


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """2-colour a connected graph; the first side contains vertex 0.

    The sides are the even and the odd distance classes of vertex 0, read
    from g.distances.spheres[0].  An edge inside one class raises
    NotBipartite with an odd closed walk witness; otherwise a vertex
    outside the component of 0 raises DisconnectedGraph.
    """
    adj = g.adj
    spheres = g.distances.spheres[0]
    for i, sphere in enumerate(spheres):
        for u in iter_bits(sphere):
            if adj[u] & sphere:
                raise NotBipartite(_odd_walk(adj, spheres, i, u))
    if not g.distances.connected:
        raise DisconnectedGraph("bipartition needs a connected graph")
    plus = sum(spheres[::2])  # the spheres are disjoint bitsets
    minus = ((1 << g.n) - 1) & ~plus
    return tuple(iter_bits(plus)), tuple(iter_bits(minus))


def _odd_walk(adj: tuple[int, ...], spheres: tuple[int, ...], i: int, u: int):
    """Odd closed walk through u and its least neighbour w in sphere i.

    Both ends climb to their least neighbour one sphere down until the two
    climbs meet; the walk runs from the meeting vertex down to u, across
    the edge uw, and back up from w.
    """
    pu, pw = [u], [next(iter_bits(adj[u] & spheres[i]))]
    while pu[-1] != pw[-1]:
        i -= 1
        pu.append(next(iter_bits(adj[pu[-1]] & spheres[i])))
        pw.append(next(iter_bits(adj[pw[-1]] & spheres[i])))
    return tuple(pu[::-1] + pw)


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


def _induced(rows: Sequence[int], vertices: Sequence[int]) -> Graph:
    """Subgraph of the bitset adjacency rows induced on the ascending
    vertices, relabelled so that local vertex i is vertices[i]."""
    index = {v: i for i, v in enumerate(vertices)}
    mask = sum(1 << v for v in vertices)
    local = []
    for v in vertices:
        row = 0
        for u in iter_bits(rows[v] & mask):
            row |= 1 << index[u]
        local.append(row)
    return Graph(len(vertices), local)


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
    return _induced(g.adj, vmap), vmap
