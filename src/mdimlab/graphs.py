"""Immutable graphs, all-pairs BFS distances, the bipartition, and
distance-regularity checks.

Vertices are always 0..n-1.  Adjacency is stored as one Python int per vertex
used as a bitset, so neighbourhood algebra is word-parallel.  This module
owns that bit-row format: bit v of a row is column v, little-endian, and
_bit_matrix and _bit_rows convert between int rows and 0/1 arrays.  It
also owns the packed uint64 rows of _gram, the package's one count of
the columns that two 0/1 rows share: a design's intersection law, the
bipartite bound's common neighbours and the Johnson and Kneser
adjacencies all read it.
Distance matrices are dense 8-bit numpy arrays with 255 marking
unreachable pairs; they are the one stored form of the distances, and the
spheres and distance-i graphs are read off them.

Graph construction checks that the rows are a simple graph: one pass over
the rows for range and loops, then symmetry on the whole matrix at once
(_is_symmetric), the rows packed into one int compared with its
transpose, made in log2 of the padded width block swaps.  In process on
a 2-core host that costs about what the per-edge loop it replaced cost at
n <= 8 and less from n = 10 up (K_57 15 us against 0.8 ms, Q_8 0.09 ms
against 0.6 ms), but it packs a square as wide as the largest row, so a
large sparse graph pays more than one step per edge (C_4096 40 ms against
2.7 ms).  Only a rejected matrix is scanned row by row, for the first
one-way edge.

bfs_distances runs one BFS for all sources together in numpy: the
spheres of every vertex are rows of uint64 words, and sphere i + 1 of a
vertex is the OR of sphere i of its neighbours, gathered through the
neighbour table, less its ball of radius i.  The distance bytes are read
off the levels by one unpack of bit planes.  Below SMALL_BFS_N vertices
it keeps its per-source loop, whose fixed cost is lower there.
intersection_array checks the triple (c, a, b) of every pair of a
connected graph on one gather of distance rows through the same table,
and decodes the triple each distance expects from that gather at its
first pair.  imprimitivity's fold scatters its quotient rows through the
table too.  A Graph keeps each fact computed from it alone in one memo,
through _kept; the neighbour table is one of them, and so is the
pair-cover instance of its distances that mdim solves on.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadParameters,
    DisconnectedGraph,
    HypothesisFailure,
    NotBipartite,
    NotDistanceRegular,
)

UNREACHABLE = 255
# Graphs below this vertex count take the loop version of bfs_distances
# (one BFS per source): a few dozen microseconds of fixed numpy cost
# outweigh what the whole-graph pass saves there.
SMALL_BFS_N = 24


def _index(value) -> int:
    """operator.index, except that a bool (an int subclass, which numpy's
    bools are not) raises TypeError: a boolean mask is no list of ids."""
    if type(value) is bool:
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """values read with operator.index, so ints and numpy integers pass;
    anything else (a bool, a float, a string, a character of one) raises
    BadParameters instead of being truncated, split or read as 0 and 1."""
    try:
        return tuple(map(_index, values))
    except TypeError as exc:
        raise BadParameters(f"{what} must be integers: {exc}") from exc


def as_ids(values: Iterable, n: int, what: str) -> tuple[int, ...]:
    """values read with as_ints as ids of 0..n-1: the one reader of the
    vertex, point and chooser ids that callers hand in, so an id outside
    the range raises BadParameters rather than being dropped or wrapped."""
    ids = as_ints(values, what)
    for v in ids:
        if not 0 <= v < n:
            raise BadParameters(f"{what}: {v} is out of range 0..{n - 1}")
    return ids


def ascii_lines(text: str, what: str) -> list[str]:
    """The non-blank lines of an ASCII text format, stripped; other text
    raises BadParameters (str.split() would split on non-ASCII spaces)."""
    if not text.isascii():
        raise BadParameters(f"{what} must be ASCII decimal text")
    return [ln for ln in map(str.strip, text.splitlines()) if ln]


def as_decimal(token: str, what: str) -> int:
    """token read as ASCII decimal digits only, the number format of the
    text files; int() would also take a sign, underscores and non-ASCII
    digits, so anything else raises BadParameters."""
    if not (token.isascii() and token.isdigit()):
        raise BadParameters(f"{what} must be ASCII decimal: {token!r}")
    return int(token)


def iter_bits(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of x in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _kept(fact):
    """fact(g), computed on the first call for g and kept in g's memo under
    fact, so later calls return the same object; a raise is not kept."""
    @functools.wraps(fact)
    def kept(g):
        if fact not in g._memo:
            g._memo[fact] = fact(g)
        return g._memo[fact]
    return kept


class Graph:
    """Simple undirected graph with bitset adjacency rows.

    Instances are immutable after construction: all mutating operations build
    new graphs.  Equality is exact edge-set equality under the fixed labels,
    never isomorphism.  A graph keeps what is computed from it alone in one
    memo (see _kept): its distances, intersection array, halves, antipodal
    classes and fold, and the pair-cover instance that mdim_greedy and
    mdim_exact share, each computed at most once.  The instance is the
    largest fact kept: one bit per vertex and vertex pair, n * C(n, 2) / 8
    bytes (1 MiB at n = 256), held for as long as the graph lives.

    Construction raises BadParameters unless adj holds n non-negative int
    rows with no bit at or above n, no loop and no one-way edge.  It costs
    O(n) Python steps plus one transpose of the h x h bit square, h the
    largest row bit length (see _is_symmetric): tens of microseconds up
    to n = 128, about 0.1 ms at n = 256.
    """

    __slots__ = ("n", "adj", "_memo")

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
            if row >> v & 1:
                raise BadParameters(f"loop at vertex {v}")
        if not _is_symmetric(rows):
            _raise_one_way_edge(rows)
        self.n = n
        self.adj = rows
        self._memo = {}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on 0..n-1 with the given edges.  n and both ends of
        every edge are read with as_ints, so a float or a bool raises
        BadParameters rather than being read as a vertex."""
        (n,) = as_ints((n,), "the vertex count")
        rows = [0] * n
        for u, w in edges:
            if type(u) is not int or type(w) is not int:  # as_ints keeps an int as it is
                u, w = as_ints((u, w), "edge ends")
            if not (0 <= u < n and 0 <= w < n):
                raise BadParameters(f"edge ({u}, {w}) out of range for n={n}")
            if u == w:
                raise BadParameters(f"loop at vertex {u}")
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        return cls(n, rows)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.adj[u] >> w & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, w) with u < w, in lexicographic order."""
        for u in range(self.n):
            for w in iter_bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + w

    @property
    @_kept
    def distances(self) -> "DistanceMatrix":
        """All-pairs distances, computed by the first access and then shared
        (the matrix is read-only)."""
        return bfs_distances(self)

    @property
    def graph(self) -> "Graph":
        """This graph.  Only perfbench/workloads.py, kept fixed so that
        benchmark runs compare, reads it, off bipartite_double, taylor and
        incidence_graph; ROADMAP item 18 deletes it."""
        return self

    @property
    def n_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def regular_valency(self) -> int | None:
        """The common degree, or None if the graph is not regular."""
        k = self.adj[0].bit_count()
        if all(r.bit_count() == k for r in self.adj):
            return k
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        # a pickle or copy holds n and adj only; the memo is rebuilt on use
        return type(self), (self.n, self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.n_edges})"


def _is_symmetric(rows: tuple[int, ...]) -> bool:
    """True iff the rows, none negative, are a symmetric bit matrix.

    With h the largest bit length of a row, rows h and above must be
    empty.  Rows 0..h-1 are packed into one int, row v at bit v * size for
    the least power of two size >= max(h, 8), and that square is compared
    with its transpose, made in log2(size) block swaps on the whole int
    (Warren, Hacker's Delight, 2nd ed., section 7-3): each swaps the upper
    right and lower left s x s blocks of every 2s x 2s block.
    """
    h = max(rows).bit_length()
    if any(rows[h:]):
        return False
    if h <= 8:  # one byte a row
        size = 8
        square = int.from_bytes(bytes(rows[:h]), "little")
    else:
        size = 1 << (h - 1).bit_length()
        square = int.from_bytes(
            b"".join(map(int.to_bytes, rows[:h], repeat(size >> 3), repeat("little"))), "little")
    x = square
    for shift, mask in _transpose_masks(size):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x == square


@functools.cache
def _transpose_masks(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each block swap of _is_symmetric's size x size
    square, s = size / 2 down to 1: the shift s (size - 1) moves bit (v, u)
    to (v + s, u - s), and the mask holds the bits (v, u) of the upper right
    blocks, v with bit s clear and u with bit s set.  Each mask is doubled
    out from one block by shifts and ORs, much faster than dividing big
    ints.  The masks of a size are kept for the life of the process: 56
    KiB at size 256, 22 MiB at size 4096."""
    masks = []
    s = size >> 1
    while s:
        mask = ((1 << s) - 1) << s
        for start, stop in ((2 * s, size), (size, s * size), (2 * s * size, size * size)):
            span = start  # the bits 0..span-1 hold their pattern; copy it up to stop
            while span < stop:
                mask |= mask << span
                span *= 2
        masks.append((s * (size - 1), mask))
        s >>= 1
    return tuple(masks)


def _raise_one_way_edge(rows: tuple[int, ...]) -> None:
    """Raise BadParameters naming the first edge (v, u), in row order, whose
    row u lacks v.  Only rows that _is_symmetric rejects come here."""
    for v, row in enumerate(rows):
        for u in iter_bits(row):
            if not rows[u] >> v & 1:
                raise BadParameters(f"edge ({v}, {u}) is not symmetric")


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs distances for one graph.

    dist is an (n, n) uint8 array, read-only, with UNREACHABLE = 255 for
    pairs in different components.  diameter is None iff disconnected.
    The spheres and the distance-i graphs are not stored: spheres(u) and
    layer(i) read them off dist as bitset rows.
    """

    n: int
    dist: np.ndarray
    connected: bool
    diameter: int | None

    def layer(self, i: int) -> tuple[int, ...]:
        """Bitset adjacency rows of the distance-i graph."""
        if not 0 <= i < UNREACHABLE:  # dist == 255 would be the unreachable pairs
            return (0,) * self.n
        return _bit_rows(self.dist == i)

    def spheres(self, u: int) -> tuple[int, ...]:
        """spheres(u)[i] is the bitset of the vertices at distance exactly i
        from u, for i from 0 up to the eccentricity of u in its component."""
        row = self.dist[u]
        eccentricity = int(row[row != UNREACHABLE].max())
        return _bit_rows(row == np.arange(eccentricity + 1)[:, None])


def bfs_distances(g: Graph) -> DistanceMatrix:
    """All-pairs distances.

    Graphs with fewer than SMALL_BFS_N vertices run one bitset BFS per
    source.  Larger graphs run one BFS for all sources together in numpy
    (_bfs_all_sources).
    """
    n = g.n
    dist = _bfs_per_source(g) if n < SMALL_BFS_N else _bfs_all_sources(g)
    connected = UNREACHABLE not in dist[0]
    diameter = int(dist.max()) if connected else None
    dist.setflags(write=False)
    return DistanceMatrix(n=n, dist=dist, connected=connected, diameter=diameter)


def _bfs_per_source(g: Graph) -> np.ndarray:
    """One bitset BFS per source, whose frontiers fill its row of distances."""
    n, adj = g.n, g.adj
    rows = []
    for s in range(n):
        row = [UNREACHABLE] * n
        seen = frontier = 1 << s
        d = 0
        while frontier:
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
    return np.array(rows, dtype=np.uint8)


def _bfs_all_sources(g: Graph) -> np.ndarray:
    """The (n, n) uint8 distance matrix from one BFS for all sources.

    Row v of level i holds sphere i of v as uint64 words, bit u of word
    u // 64 for vertex u, and the zero row n is what the padding of the
    neighbour table reads.  Sphere i + 1 of v is the union of sphere i of
    the neighbours of v, less the ball of radius i of v: a vertex at
    distance i from a neighbour of v is within i + 1 of v, and each vertex
    at distance i + 1 from v is at distance i from a neighbour of v on a
    shortest path.  So a level costs one gather of n K rows of words.

    Plane j holds, for each v, the vertices whose distance from v has bit
    j set, and one more plane the vertices outside the component of v.
    Unpacked and weighted by 2^j and by UNREACHABLE, the planes sum to the
    distances.
    """
    n = g.n
    slots = _neighbour_table(g).T  # OR-reducing the gather's first axis is the fast one
    words = (n + 63) // 64
    v = np.arange(n)
    level = np.zeros((n + 1, words), np.uint64)
    level[v, v >> 6] = np.uint64(1) << (v & 63).astype(np.uint64)
    unseen = ~level[:n]  # the vertices outside the ball of each v, so far
    unseen[:, -1] &= np.uint64((1 << n - 64 * (words - 1)) - 1)
    planes = []
    i = 0
    while unseen.any():  # once every ball is full, no empty last level is gathered
        nxt = np.bitwise_or.reduce(level.take(slots, axis=0), axis=0) & unseen
        if not nxt.any():  # every component is exhausted
            break
        i += 1
        if i == UNREACHABLE:
            raise BadParameters("graph diameter exceeds the 8-bit distance range")
        if i.bit_length() > len(planes):
            planes.append(np.zeros((n, words), np.uint64))
        for j, plane in enumerate(planes):
            if i >> j & 1:
                plane |= nxt
        unseen ^= nxt
        level[:n] = nxt
    planes.append(unseen)
    weights = np.array([1 << j for j in range(len(planes) - 1)] + [UNREACHABLE], np.uint8)
    packed = np.stack(planes).astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(packed, axis=2, count=n, bitorder="little")
    bits *= weights[:, None, None]
    return bits.sum(axis=0, dtype=np.uint8)


@_kept
def _neighbour_table(g: Graph) -> np.ndarray:
    """The (n, K) array whose row v lists the neighbours of v in ascending
    order, padded with n (no vertex) up to the largest degree K >= 1.  It
    is kept with g, read-only."""
    n, adj = g.n, g.adj
    width = max(1, *map(int.bit_count, adj))
    # bits n, n + 1, ... fill each row up to width set bits, and read as n
    rows = [r | ((1 << width) - 1 >> r.bit_count() << n) for r in adj]
    cols = np.flatnonzero(_bit_matrix(rows, n + width).view(bool)) % (n + width)
    table = np.minimum(cols.reshape(n, width), n)
    table.setflags(write=False)
    return table


def _bit_matrix(rows: Sequence[int], n: int) -> np.ndarray:
    """The bitset rows as a (len(rows), n) uint8 array of 0s and 1s."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in rows]), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n, bitorder="little")


def _bit_rows(mask: np.ndarray) -> tuple[int, ...]:
    """The rows of a 2-d boolean array as bitsets, bit v of a row its column v."""
    return _packed_ints(np.packbits(mask, axis=1, bitorder="little"))


def _gram(rows: np.ndarray) -> np.ndarray:
    """The (m, m) counts of the columns that each two rows of an (m, c)
    0/1 array share, the diagonal holding each row's own count.  The rows
    are packed into uint64 words, and each count is the popcount of the
    AND of two rows' words, summed one word column at a time: exact
    integers, with no float matmul and so no BLAS work buffer, and no
    integer matmul, which numpy runs in its plain loop."""
    m, c = rows.shape
    words = np.zeros((m, -(-c // 64)), np.uint64)
    words.view(np.uint8)[:, :-(-c // 8)] = np.packbits(rows, axis=1, bitorder="little")
    common = np.zeros((m, m), np.min_scalar_type(c))
    for column in words.T:
        common += np.bitwise_count(column[:, None] & column)
    return common


def _packed_int(row: np.ndarray) -> int:
    """One row of a uint8 array as a little-endian int."""
    return int.from_bytes(row.tobytes(), "little")


def _packed_ints(packed: np.ndarray) -> tuple[int, ...]:
    """The rows of a uint8 array as little-endian ints."""
    rows, width = packed.shape
    if width == 0:
        return (0,) * rows
    # a packed transposed mask is not C-contiguous, which the view needs
    chunks = np.ascontiguousarray(packed).view(f"V{width}").ravel().tolist()
    return tuple(map(int.from_bytes, chunks, repeat("little")))


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """2-colour a connected graph; the first side contains vertex 0.

    The sides are the even and the odd distance classes of vertex 0, read
    from g.distances.spheres(0).  An edge inside one class raises
    NotBipartite with an odd closed walk witness; otherwise a vertex
    outside the component of 0 raises DisconnectedGraph.
    """
    adj = g.adj
    spheres = g.distances.spheres(0)
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


@_kept
def intersection_array(g: Graph) -> IntersectionArray:
    """Compute the intersection array, or raise NotDistanceRegular.

    The triple (c, a, b) of a pair (u, w) at distance i counts the
    neighbours of w at distance i - 1, i and i + 1 from u.  Each distance
    expects the triple of its first pair in lexicographic (u, w) order: u
    the first vertex whose eccentricity reaches i, w the least vertex at
    distance i from u.  The witness on failure is the first (u, w, i) in
    that order whose triple differs.  Every pair is checked in a few numpy
    passes (_triple_sums), and the expected triples are decoded from the
    same sums at the first pairs.  The array is kept with g, so later calls
    on the same graph return the same object; a NotDistanceRegular is
    raised again on every call.
    """
    dm = g.distances
    if not dm.connected:
        raise DisconnectedGraph("intersection array needs a connected graph")
    n, d, dist = g.n, dm.diameter, dm.dist
    s, p, t = _triple_sums(g)
    levels = np.arange(d + 1)
    first_u = np.searchsorted(np.maximum.accumulate(dist.max(axis=1)), levels)
    first_w = (dist[first_u] == levels[:, None]).argmax(axis=1)
    s_first, p_first = s[first_w, first_u], p[first_w, first_u]
    bad = (s != s_first.take(dist)) | (p != p_first.take(dist))  # indexed [w, u]
    if bad.any():
        u, w = divmod(int(bad.T.argmax()), n)
        raise NotDistanceRegular((u, w, int(dist[u, w])))
    triples = []
    for i, (si, pi, w) in enumerate(zip(s_first.tolist(), p_first.tolist(), first_w.tolist())):
        degree = g.adj[w].bit_count()
        diff = si - degree * (i + t)  # b - c
        total = degree - pi if i & 1 else pi  # b + c
        triples.append(((total - diff) // 2, degree - total, (total + diff) // 2))
    c, a, b = zip(*triples)
    return IntersectionArray(d=d, c=c[1:], a=a, b=b[:d])


def _triple_sums(g: Graph) -> tuple[np.ndarray, np.ndarray, int]:
    """The sums s and p of every pair, indexed [w, u], and t.

    Over the neighbours x of w, s = the sum of d(u, x) plus t deg(w), for
    a t above twice the largest degree K, and p = the number of odd d(u, x)
    come from one gather of distance rows through the transposed neighbour
    table, whose padding reads a zero row.  With i = d(u, w) every d(u, x)
    is i - 1, i or i + 1, so s = deg(w) (i + t) + b - c, and as
    |b - c| <= K this fixes deg(w) = c + a + b and b - c; p = b + c for
    even i and a for odd i then fixes the triple.
    """
    n, dm = g.n, g.distances
    table = _neighbour_table(g)
    k = table.shape[1]
    t = 2 * k + 1
    # near[j, w, u] = d(u, x) for the j-th neighbour x of w; row n is 0
    near = np.vstack([dm.dist, np.zeros((1, n), np.uint8)]).take(table.T, axis=0)
    dtype = np.min_scalar_type(k * (dm.diameter + 1 + t))
    s = near.sum(axis=0, dtype=dtype)
    s += t * np.array([r.bit_count() for r in g.adj], dtype)[:, None]
    p = np.bitwise_and(near, 1, out=near).sum(axis=0, dtype=dtype)
    return s, p, t


def _attempt(reader, g: Graph):
    """reader(g), or None where g fails the hypothesis that reader checks."""
    try:
        return reader(g)
    except HypothesisFailure:
        return None


def is_distance_regular(g: Graph) -> bool:
    return _attempt(intersection_array, g) is not None


def is_primitive(g: Graph) -> bool:
    """True iff every distance-i graph (1 <= i <= d) is connected: one
    bitset sweep from vertex 0 reaches every vertex.

    Requires a connected distance-regular graph; raises otherwise.
    """
    d = intersection_array(g).d  # validates connected + distance-regular
    full = (1 << g.n) - 1
    for i in range(1, d + 1):
        rows = g.distances.layer(i)
        reached = frontier = 1
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~reached
            reached |= frontier
        if reached != full:
            return False
    return True


def _induced(rows: Sequence[int], vertices: Sequence[int]) -> Graph:
    """Subgraph of the bitset adjacency rows induced on the ascending
    vertices, relabelled so that local vertex i is vertices[i]."""
    bits = _bit_matrix([rows[v] for v in vertices], len(rows))
    return Graph(len(vertices), _bit_rows(bits[:, vertices] == 1))


def induced_neighborhood(g: Graph, x: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the neighbours of x, plus the vertex map.

    The returned map sends local vertex i to the i-th neighbour of x in
    ascending order.
    """
    (x,) = as_ids((x,), g.n, "the vertex")
    vmap = tuple(iter_bits(g.adj[x]))
    if not vmap:
        raise BadParameters(f"vertex {x} has no neighbours")
    return _induced(g.adj, vmap), vmap
