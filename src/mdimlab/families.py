"""Named graph families and the covering constructions built on them.

Vertex orders are deterministic: subsets are listed in colexicographic
order, field elements as 0..q-1, and bit-vectors as the integers they
encode.  Families overlap (odd(3) = kneser(5,2) = Petersen); no
deduplication is attempted.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BadParameters, HypothesisFailure
from .graphs import Graph, as_ints, intersection_array


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
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    (n,) = as_ints((n,), "the clique size")
    if n < 1:
        raise BadParameters("complete graph needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_multipartite(s: int, t: int) -> Graph:
    """s parts of size t; vertices v with v // t as their part."""
    s, t = as_ints((s, t), "the part count and size")
    if s < 2 or t < 1:
        raise BadParameters("complete multipartite needs s >= 2 parts of size t >= 1")
    n = s * t
    edges = [(u, w) for u, w in combinations(range(n), 2) if u // t != w // t]
    return Graph.from_edges(n, edges)


def disjoint_cliques(s: int, t: int) -> Graph:
    """s disjoint copies of K_t; vertices v with v // t as their copy."""
    s, t = as_ints((s, t), "the clique count and size")
    if s < 1 or t < 1:
        raise BadParameters("needs s >= 1 copies of K_t with t >= 1")
    n = s * t
    edges = [(u, w) for u, w in combinations(range(n), 2) if u // t == w // t]
    return Graph.from_edges(n, edges)


def complete_bipartite_minus_matching(v: int) -> Graph:
    """K_{v,v} minus a perfect matching; u on one side pairs with u+v."""
    (v,) = as_ints((v,), "the side size")
    if v < 2:
        raise BadParameters("needs v >= 2")
    edges = [(u, v + w) for u in range(v) for w in range(v) if u != w]
    return Graph.from_edges(2 * v, edges)


def hypercube(m: int) -> Graph:
    (m,) = as_ints((m,), "the hypercube dimension")
    if m < 1:
        raise BadParameters("hypercube needs m >= 1")
    n = 1 << m
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(m) if u < u ^ (1 << b)]
    return Graph.from_edges(n, edges)


def johnson(m: int, r: int) -> Graph:
    m, r = as_ints((m, r), "the Johnson parameters")
    if not 1 <= r <= m - 1:
        raise BadParameters("johnson needs 1 <= r <= m-1")
    masks = [sum(1 << x for x in s) for s in colex_subsets(m, r)]  # bit x: member x
    edges = [
        (i, j)
        for i, j in combinations(range(len(masks)), 2)
        if (masks[i] & masks[j]).bit_count() == r - 1
    ]
    return Graph.from_edges(len(masks), edges)


def kneser(m: int, r: int) -> Graph:
    m, r = as_ints((m, r), "the Kneser parameters")
    if r < 0 or m < 2 * r + 1:
        raise BadParameters("kneser needs r >= 0, and m >= 2r+1 to be connected")
    masks = [sum(1 << x for x in s) for s in colex_subsets(m, r)]  # bit x: member x
    edges = [(i, j) for i, j in combinations(range(len(masks)), 2) if not masks[i] & masks[j]]
    return Graph.from_edges(len(masks), edges)


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
    squares = {(x * x) % q for x in range(1, q)}
    edges = [(u, w) for u, w in combinations(range(q), 2) if (w - u) % q in squares]
    return Graph.from_edges(q, edges)


def rook(a: int, b: int) -> Graph:
    """Rook's graph on an a x b board; vertex (i, j) is i*b + j."""
    a, b = as_ints((a, b), "the board sides")
    if a < 2 or b < 2:
        raise BadParameters("rook needs both sides >= 2")
    n = a * b
    edges = []
    for u, w in combinations(range(n), 2):
        if u // b == w // b or u % b == w % b:
            edges.append((u, w))
    return Graph.from_edges(n, edges)


def shrikhande() -> Graph:
    """The (16, 6, 2, 2) graph that is not the 4x4 rook's graph: vertex
    (i, j) on the 4x4 torus is 4*i + j, and u ~ w iff their difference is
    one of (0,1), (0,3), (1,0), (3,0), (1,1), (3,3)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    edges = [(u, w) for u, w in combinations(range(16), 2)
             if ((w // 4 - u // 4) % 4, (w - u) % 4) in steps]
    return Graph.from_edges(16, edges)


def gq22_incidence() -> Graph:
    """Point-line incidence graph of the generalized quadrangle of order (2, 2).

    Points are the 15 2-subsets of a 6-set (colex order); lines are the 15
    partitions of the 6-set into three 2-subsets (lex order by sorted parts);
    a point lies on a line iff it is one of its parts.  Points come first.
    """
    points = colex_subsets(6, 2)
    lines = [m for m in combinations(sorted(points), 3) if len(set().union(*m)) == 6]
    edges = [(points.index(p), 15 + j) for j, line in enumerate(lines) for p in line]
    return Graph.from_edges(30, edges)


def bipartite_double(g: Graph) -> Graph:
    """Two copies of the vertex set with u+ ~ w- iff u ~ w in g.

    Vertex v of g appears as v (its plus copy) and v + n (its minus copy).
    """
    n = g.n
    edges = [(u, n + w) for u in range(n) for w in g.neighbors(u)]
    return Graph.from_edges(2 * n, {(min(u, w), max(u, w)) for u, w in edges})


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
    n = delta.n
    edges = []
    for u in range(n):
        edges.append((u, 2 * n))          # pole+ to plus copies
        edges.append((n + u, 2 * n + 1))  # pole- to minus copies
        for w in delta.neighbors(u):
            if u < w:
                edges.append((u, w))
                edges.append((n + u, n + w))
        for w in range(n):
            if w != u and not delta.has_edge(u, w):
                edges.append((u, n + w))
    return Graph.from_edges(2 * n + 2, edges)


_FAMILIES = {
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_multipartite": (complete_multipartite, 2),
    "disjoint_cliques": (disjoint_cliques, 2),
    "complete_bipartite_minus_matching": (complete_bipartite_minus_matching, 1),
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
