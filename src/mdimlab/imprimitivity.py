"""Imprimitivity structure of distance-regular graphs.

A connected distance-regular graph of valency >= 3 and diameter >= 2 can
only be imprimitive by being bipartite, antipodal, or both.  This module
detects both structures with witnesses, builds the halved and folded
graphs with explicit vertex maps, and sorts any distance-regular graph
into one of thirteen mutually exclusive classes with verified sub-claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .designs import design_from_graph
from .errors import (
    BadParameters,
    ClassificationContradiction,
    DisconnectedGraph,
    NotAntipodal,
)
from .graphs import (
    Graph,
    _attempt,
    _bit_rows,
    _kept,
    _neighbour_table,
    bipartition,
    intersection_array,
    is_primitive,
    iter_bits,
)


@dataclass(frozen=True)
class AntipodalStructure:
    """Partition of the vertices into antipodal classes.

    classes are vertex tuples sorted ascending, ordered by their minimum
    vertex; every class is a clique of the distance-d graph of the same
    size t >= 2.  quotient[v] is the index of the class of v, so v lies in
    classes[quotient[v]]; it is also the vertex map of fold.
    """

    t: int
    classes: tuple[tuple[int, ...], ...]
    quotient: tuple[int, ...]


@_kept
def antipodal_structure(g: Graph) -> AntipodalStructure:
    """Antipodal class partition, or NotAntipodal.

    The distance-d graph must be a disjoint union of cliques, all of one
    size t >= 2: that is exactly the condition for "equal or at maximal
    distance" to be an equivalence relation.  The class of u is then its
    closed row, u and the vertices at distance d from u, and every member
    of that class has the same closed row.  The partition is kept with g.
    """
    dm = g.distances
    if dm.diameter is None:
        raise DisconnectedGraph("antipodal structure needs a connected graph")
    d = dm.diameter
    if d < 2:
        raise NotAntipodal("antipodal classes need diameter >= 2")
    closed = [row | 1 << u for u, row in enumerate(dm.layer(d))]
    classes: list[tuple[int, ...]] = []
    quotient = [-1] * g.n
    for u, row in enumerate(closed):
        if quotient[u] >= 0:
            continue
        # u has no class yet, so u is the least vertex of its closed row
        members = tuple(iter_bits(row))
        if len(members) < 2:
            raise NotAntipodal(f"vertex {u} has no antipode")
        for w in members:
            if closed[w] != row:
                raise NotAntipodal(
                    f"distance-{d} component containing {w} is not a clique"
                )
        if classes and len(members) != len(classes[0]):
            raise NotAntipodal("antipodal classes have unequal sizes")
        for w in members:
            quotient[w] = len(classes)
        classes.append(members)
    return AntipodalStructure(t=len(classes[0]), classes=tuple(classes), quotient=tuple(quotient))


def is_antipodal(g: Graph) -> bool:
    return _attempt(antipodal_structure, g) is not None


@_kept
def halve(g: Graph) -> tuple[Graph, Graph, tuple[int, ...], tuple[int, ...]]:
    """Halved graphs of a connected bipartite graph.

    Returns (plus graph, minus graph, plus map, minus map); the maps send
    local vertices to original labels in ascending order, and the plus side
    is the one containing vertex 0.  Edges join vertices at distance 2:
    each half's rows are packed from its side's block of the distance
    matrix.  The result is kept with g, so later calls return the same
    graphs.
    """
    plus, minus = bipartition(g)
    if not minus:
        raise BadParameters("halving needs a graph with at least two vertices")
    dist = g.distances.dist
    # the rows, then the columns, of a side: one np.ix_ gather costs 4x as much
    halves = [Graph(len(side), _bit_rows(dist[side, :][:, side] == 2)) for side in (plus, minus)]
    return (*halves, plus, minus)


def fold(
    g: Graph, structure: AntipodalStructure | None = None
) -> tuple[Graph, tuple[int, ...]]:
    """Quotient on the antipodal classes.

    Returns (folded graph, quotient map vertex -> class index), the map
    being antipodal_structure(g).quotient.  Classes are adjacent iff they
    contain adjacent vertices; no class holds an edge, as its members sit
    at the diameter d >= 2.  The valency test runs at diameter >= 3: there
    no vertex can have two neighbours in one class (they would sit at
    distance d yet share a neighbour), so a regular input keeps its
    valency, and a quotient that changes it raises
    ClassificationContradiction.  At diameter 2 every vertex is adjacent
    to all of each other class, so the quotient collapses further and the
    test is skipped.  The result is kept with g; a structure, if passed,
    must equal antipodal_structure(g), or BadParameters is raised.
    """
    # structure has one valid value but stays: perfbench/workloads.py, kept
    # fixed so that benchmark runs compare, passes it to fold and lift_folded
    if structure is not None and structure != antipodal_structure(g):
        raise BadParameters("fold takes only the graph's own antipodal structure")
    return _fold(g)


@_kept
def _fold(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    quotient = antipodal_structure(g).quotient
    m = max(quotient) + 1
    # class m is a spare column, where the padding n of the table lands
    q = np.array([*quotient, m])
    adj = np.zeros((m, m + 1), bool)
    adj[q[:-1, None], q[_neighbour_table(g)]] = True
    folded = Graph(m, _bit_rows(adj[:, :m]))
    kg = g.regular_valency()
    if kg is not None and g.distances.diameter >= 3:
        kf = folded.regular_valency()
        if kf != kg:
            raise ClassificationContradiction(
                f"folding changed the valency from {kg} to {kf}"
            )
    return folded, quotient


@dataclass(frozen=True)
class AHClass:
    """Result of the thirteen-way classification.

    subclaims holds (description, ok) pairs, all verified True; halved and
    folded carry the derived graphs when the class definition mentions them.
    """

    label: str
    d: int
    k: int
    bipartite: bool
    antipodal: bool
    t: int | None = None
    halved: tuple[Graph, Graph] | None = field(default=None, compare=False)
    folded: Graph | None = field(default=None, compare=False)
    subclaims: tuple[tuple[str, bool], ...] = ()

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "class": self.label,
            "d": self.d,
            "k": self.k,
            "bipartite": self.bipartite,
            "antipodal": self.antipodal,
        }
        if self.t is not None:
            out["t"] = self.t
        if self.halved is not None:
            out["halved"] = [{"n": h.n, "m": h.n_edges} for h in self.halved]
        if self.folded is not None:
            out["folded"] = {"n": self.folded.n, "m": self.folded.n_edges}
        out["subclaims"] = [{"claim": c, "ok": ok} for c, ok in self.subclaims]
        return out


def _claim(claims: list[tuple[str, bool]], description: str, ok: bool) -> None:
    claims.append((description, ok))
    if not ok:
        raise ClassificationContradiction(f"sub-claim failed: {description}")


def classify_ah(g: Graph) -> AHClass:
    """Place a connected distance-regular graph into one of thirteen classes.

    Ties break toward the complete and complete-multipartite classes: C_3
    lands in AH3 and C_4 in AH4, ahead of the valency-2 cycle class.
    Every structural sub-claim attached to a class is re-verified; a failed
    sub-claim raises ClassificationContradiction.
    """
    ia = intersection_array(g)
    d = ia.d
    n = g.n
    claims: list[tuple[str, bool]] = []

    if d <= 1:
        k = n - 1
        _claim(claims, "every pair of distinct vertices is adjacent", _is_complete(g))
        return AHClass(label="AH3", d=d, k=k, bipartite=(n == 2),
                       antipodal=(n >= 2), subclaims=tuple(claims))

    k = ia.k
    bip = _attempt(bipartition, g)
    ant = _attempt(antipodal_structure, g)
    halved: tuple[Graph, Graph] | None = None
    folded: Graph | None = None

    def result(label: str) -> AHClass:
        return AHClass(label=label, d=d, k=k, bipartite=bip is not None,
                       antipodal=ant is not None, t=ant.t if ant else None,
                       halved=halved, folded=folded, subclaims=tuple(claims))

    if d == 2 and (bip is not None or ant is not None):
        _claim(claims, "imprimitive diameter-2 graph is antipodal", ant is not None)
        _claim(claims, "graph is complete multipartite on the antipodal classes",
               _is_complete_multipartite(g))
        folded = fold(g)[0]
        _claim(claims, "folded graph is complete", _is_complete(folded))
        return result("AH4")

    if k == 2:
        _claim(claims, "graph is a cycle", g.regular_valency() == 2)
        return result("AH2")

    if bip is None and ant is None:
        _claim(claims, "all distance graphs are connected", is_primitive(g))
        return result("AH1")

    halved = halve(g)[:2] if bip is not None else None
    folded = fold(g)[0] if ant is not None else None
    e = d // 2

    if d == 3 and bip is not None and ant is not None:
        _claim(claims, "graph is complete bipartite minus a perfect matching",
               _is_kvv_minus_matching(g, ant))
        return result("AH5")

    if d == 3 and bip is not None:
        _claim(claims, "graph is the incidence graph of a symmetric design",
               _is_design_incidence(g))
        return result("AH6")

    if d == 3:  # not bipartite, so antipodal
        _claim(claims, "folded graph is complete on k+1 vertices",
               folded.n == k + 1 and _is_complete(folded))
        return result("AH7")

    if d == 4 and bip is not None and ant is not None:
        _claim(claims, "folded graph is complete bipartite",
               _is_complete_bipartite(folded))
        _claim(claims, "halved graphs are complete multipartite",
               all(_is_complete_multipartite(h) for h in halved))
        return result("AH8")

    if d == 6 and bip is not None and ant is not None:
        _claim(claims, "halved graphs are antipodal of diameter 3",
               all(h.distances.diameter == 3 and is_antipodal(h) for h in halved))
        _claim(claims, "folded graph is bipartite of diameter 3",
               folded.distances.diameter == 3 and _attempt(bipartition, folded) is not None)
        return result("AH9")

    if bip is None:  # antipodal, d >= 4
        _claim(claims, f"folded graph is primitive of diameter {e}",
               folded.distances.diameter == e and is_primitive(folded))
        _claim(claims, "folded valency at least 3", (folded.regular_valency() or 0) >= 3)
        return result("AH10")

    if ant is None:  # bipartite, d >= 4
        _claim(claims, f"halved graphs are primitive of diameter {e}",
               all(h.distances.diameter == e and is_primitive(h) for h in halved))
        _claim(claims, "halved valency at least 3",
               all((h.regular_valency() or 0) >= 3 for h in halved))
        return result("AH11")

    # bipartite and antipodal, d >= 5
    if d % 2 == 1:
        _claim(claims, "odd diameter forces antipodal classes of size 2", ant.t == 2)
        _claim(claims, f"folded graph is primitive of diameter {e}",
               folded.distances.diameter == e and is_primitive(folded))
        _claim(claims, f"halved graphs are primitive of diameter {e}",
               all(h.distances.diameter == e and is_primitive(h) for h in halved))
        return result("AH12")

    reduced = fold(halved[0])[0] if is_antipodal(halved[0]) else None
    _claim(claims, f"halving then folding is primitive of diameter {e // 2}",
           reduced is not None and reduced.distances.diameter == e // 2
           and is_primitive(reduced))
    _claim(claims, "reduced valency at least 3",
           reduced is not None and (reduced.regular_valency() or 0) >= 3)
    return result("AH13")


def _is_complete(g: Graph) -> bool:
    """A simple graph is complete iff it has all n(n - 1)/2 edges."""
    return 2 * g.n_edges == g.n * (g.n - 1)


def _is_complete_multipartite(g: Graph) -> bool:
    """Non-adjacency must be an equivalence: u !~ w iff same part.

    The part of v is its closed non-neighbourhood, and all members of a
    part must agree on it.  For a diameter-2 graph that part is {v} plus
    the vertices at distance 2, which is v's antipodal class by the
    definition of antipodal_structure; so on an antipodal graph this is
    the claim "complete multipartite on the antipodal classes".
    """
    full = (1 << g.n) - 1
    part = [full & ~row for row in g.adj]
    return all(part[w] == part[v] for v in range(g.n) for w in iter_bits(part[v]))


def _is_complete_bipartite(g: Graph) -> bool:
    sides = _attempt(bipartition, g)
    if sides is None:
        return False
    plus, minus = sides
    minus_mask = sum(1 << w for w in minus)
    return all(g.adj[u] == minus_mask for u in plus)


def _is_kvv_minus_matching(g: Graph, structure: AntipodalStructure) -> bool:
    if structure.t != 2 or g.n % 2:
        return False
    v = g.n // 2
    if g.regular_valency() != v - 1:
        return False
    for a, b in structure.classes:
        if g.has_edge(a, b):
            return False
    return True


def _is_design_incidence(g: Graph) -> bool:
    return _attempt(design_from_graph, g) is not None
