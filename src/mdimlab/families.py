"""Named graph families and the covering constructions built on them.

Vertex orders are deterministic: subsets are listed in colexicographic
order, field elements as 0..q-1, and bit-vectors as the integers they
encode.  Families overlap (odd(3) = kneser(5,2) = Petersen); no
deduplication is attempted.

Each constructor writes its adjacency rows as ints, bit w of row v set
iff v ~ w, with no edge list and no loop over vertex pairs, and returns
Graph(n, rows).  Graph checks the rows it is given, so a row formula
that is not symmetric raises BadParameters when the graph is built.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import BadParameters, HypothesisFailure
from .graphs import Graph, _bit_matrix, _bit_rows, _gram, as_ints, intersection_array


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def colex_subsets(m: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of {0..m-1} in colexicographic order."""
    return sorted(combinations(range(m), r), key=lambda s: tuple(reversed(s)))


def cycle(n: int) -> Graph:
    (n,) = as_ints((n,), "the cycle length")
    if n < 3:
        raise BadParameters("cycle needs n >= 3")
    return Graph(n, [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)])


def complete(n: int) -> Graph:
    (n,) = as_ints((n,), "the clique size")
    if n < 1:
        raise BadParameters("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, [full ^ 1 << v for v in range(n)])


def complete_multipartite(s: int, t: int) -> Graph:
    """s parts of size t; vertices v with v // t as their part."""
    s, t = as_ints((s, t), "the part count and size")
    if s < 2 or t < 1:
        raise BadParameters("complete multipartite needs s >= 2 parts of size t >= 1")
    full, part = (1 << s * t) - 1, (1 << t) - 1
    return Graph(s * t, [full ^ part << v // t * t for v in range(s * t)])


def disjoint_cliques(s: int, t: int) -> Graph:
    """s disjoint copies of K_t; vertices v with v // t as their copy."""
    s, t = as_ints((s, t), "the clique count and size")
    if s < 1 or t < 1:
        raise BadParameters("needs s >= 1 copies of K_t with t >= 1")
    part = (1 << t) - 1
    return Graph(s * t, [part << v // t * t ^ 1 << v for v in range(s * t)])


def hypercube(m: int) -> Graph:
    (m,) = as_ints((m,), "the hypercube dimension")
    if m < 1:
        raise BadParameters("hypercube needs m >= 1")
    return Graph(1 << m, [sum(1 << (u ^ 1 << b) for b in range(m)) for u in range(1 << m)])


def _shared_members(m: int, r: int) -> np.ndarray:
    """The members that each two r-subsets of {0..m-1} share, the subsets
    in colexicographic order: one _gram of their 0/1 rows."""
    masks = [sum(1 << x for x in s) for s in colex_subsets(m, r)]  # bit x: member x
    return _gram(_bit_matrix(masks, m))


def johnson(m: int, r: int) -> Graph:
    m, r = as_ints((m, r), "the Johnson parameters")
    if not 1 <= r <= m - 1:
        raise BadParameters("johnson needs 1 <= r <= m-1")
    shared = _shared_members(m, r)
    return Graph(len(shared), _bit_rows(shared == r - 1))


def kneser(m: int, r: int) -> Graph:
    m, r = as_ints((m, r), "the Kneser parameters")
    if r < 0 or m < 2 * r + 1:
        raise BadParameters("kneser needs r >= 0, and m >= 2r+1 to be connected")
    disjoint = _shared_members(m, r) == 0
    np.fill_diagonal(disjoint, False)  # for r = 0 the one empty set is disjoint from itself
    return Graph(len(disjoint), _bit_rows(disjoint))


def odd_graph(r: int) -> Graph:
    """Disjointness graph on (r-1)-subsets of a (2r-1)-set; odd(3) is Petersen."""
    (r,) = as_ints((r,), "the odd graph parameter")
    if r < 2:
        raise BadParameters("odd graph needs r >= 2")
    return kneser(2 * r - 1, r - 1)


def paley(q: int) -> Graph:
    (q,) = as_ints((q,), "the Paley modulus")
    if not is_prime(q):
        raise BadParameters(f"paley needs a prime modulus, got {q}")
    if q % 4 != 1:
        raise BadParameters("paley needs q congruent to 1 mod 4")
    full = (1 << q) - 1
    squares = sum(1 << x for x in {x * x % q for x in range(1, q)})
    # row u is the squares turned u places: w ~ u iff w - u is a square
    return Graph(q, [(squares << u | squares >> q - u) & full for u in range(q)])


def rook(a: int, b: int) -> Graph:
    """Rook's graph on an a x b board; vertex (i, j) is i*b + j."""
    a, b = as_ints((a, b), "the board sides")
    if a < 2 or b < 2:
        raise BadParameters("rook needs both sides >= 2")
    line = (1 << b) - 1                          # vertices (0, 0..b-1)
    column = sum(1 << i * b for i in range(a))   # vertices (0..a-1, 0)
    return Graph(a * b, [(line << v - v % b | column << v % b) ^ 1 << v
                         for v in range(a * b)])


def shrikhande() -> Graph:
    """The (16, 6, 2, 2) graph that is not the 4x4 rook's graph: vertex
    (i, j) on the 4x4 torus is 4*i + j, and u ~ w iff their difference is
    one of (0,1), (0,3), (1,0), (3,0), (1,1), (3,3)."""
    steps = ((0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3))
    return Graph(16, [sum(1 << 4 * ((u // 4 + i) % 4) + (u + j) % 4 for i, j in steps)
                      for u in range(16)])


def gq22_incidence() -> Graph:
    """Point-line incidence graph of the generalized quadrangle of order (2, 2).

    Points are the 15 2-subsets of a 6-set (colex order); lines are the 15
    partitions of the 6-set into three 2-subsets (lex order by sorted parts);
    a point lies on a line iff it is one of its parts.  Points come first.
    """
    points = colex_subsets(6, 2)
    lines = [m for m in combinations(sorted(points), 3) if len(set().union(*m)) == 6]
    on = [sum(1 << points.index(p) for p in line) for line in lines]  # line j's points
    return Graph(30, [r << 15 for r in _bit_rows(_bit_matrix(on, 15).T == 1)] + on)


def bipartite_double(g: Graph) -> Graph:
    """Two copies of the vertex set with u+ ~ w- iff u ~ w in g.

    Vertex v of g appears as v (its plus copy) and v + n (its minus copy).
    """
    return Graph(2 * g.n, [row << g.n for row in g.adj] + list(g.adj))


def taylor(delta: Graph) -> Graph:
    """Two-fold antipodal cover of diameter 3 built from a strongly regular
    graph with parameters (n, 2c, a, c).

    Vertices: 0..n-1 are the plus copies, n..2n-1 the minus copies, 2n and
    2n+1 the two poles.  The pole 2n is adjacent to every plus copy; plus
    copies follow delta; a plus copy u is adjacent to the minus copy of w
    iff u != w and u is not adjacent to w in delta.
    """
    ia = intersection_array(delta)
    if ia.d != 2 or ia.k != 2 * ia.c[1]:
        raise HypothesisFailure(
            "taylor construction needs a strongly regular graph with k = 2c"
        )
    n, full = delta.n, (1 << delta.n) - 1
    # rests[u]: the vertices other than u that u does not see in delta
    rests = [full ^ row ^ 1 << u for u, row in enumerate(delta.adj)]
    plus = [row | rest << n | 1 << 2 * n for row, rest in zip(delta.adj, rests)]
    minus = [row << n | rest | 1 << 2 * n + 1 for row, rest in zip(delta.adj, rests)]
    return Graph(2 * n + 2, plus + minus + [full, full << n])


_FAMILIES = {
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_multipartite": (complete_multipartite, 2),
    "disjoint_cliques": (disjoint_cliques, 2),
    "hypercube": (hypercube, 1),
    "johnson": (johnson, 2),
    "kneser": (kneser, 2),
    "odd": (odd_graph, 1),
    "paley": (paley, 1),
    "rook": (rook, 2),
    "shrikhande": (shrikhande, 0),
    "gq22_incidence": (gq22_incidence, 0),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def family(name: str, *params: int) -> Graph:
    """Construct a named family member; raises BadParameters for an unknown or
    non-str name or wrong arity; each constructor reads its params with as_ints."""
    if not isinstance(name, str) or name not in _FAMILIES:
        raise BadParameters(
            f"unknown family {name!r}; known: {', '.join(family_names())}"
        )
    fn, arity = _FAMILIES[name]
    if len(params) != arity:
        raise BadParameters(f"family {name!r} takes {arity} parameter(s)")
    return fn(*params)
