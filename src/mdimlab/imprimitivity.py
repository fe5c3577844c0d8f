"""Imprimitivity structure of distance-regular graphs.

A connected distance-regular graph of valency >= 3 and diameter >= 2 can
only be imprimitive by being bipartite, antipodal, or both.  This module
detects both structures with witnesses, builds the halved and folded
graphs with explicit vertex maps, and sorts any distance-regular graph
into one of thirteen mutually exclusive classes with verified sub-claims.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .errors import (
    ClassificationContradiction,
    DisconnectedGraph,
    NotAntipodal,
    NotBipartite,
)
from .families import complete
from .graphs import (
    Graph,
    _components,
    intersection_array,
    is_primitive,
    iter_bits,
)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """2-colour a connected graph; the first side contains vertex 0.

    Raises NotBipartite with an odd closed walk witness, or
    DisconnectedGraph.
    """
    n = g.n
    color = [-1] * n
    parent = [-1] * n
    color[0] = 0
    queue = deque([0])
    seen = 1
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if color[w] == -1:
                color[w] = 1 - color[u]
                parent[w] = u
                queue.append(w)
                seen += 1
            elif color[w] == color[u]:
                raise NotBipartite(_odd_walk(parent, u, w))
    if seen != n:
        raise DisconnectedGraph("bipartition needs a connected graph")
    plus = tuple(v for v in range(n) if color[v] == 0)
    minus = tuple(v for v in range(n) if color[v] == 1)
    return plus, minus


def _odd_walk(parent: list[int], u: int, w: int) -> tuple[int, ...]:
    def path_to_root(v):
        out = [v]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        return out

    pu = path_to_root(u)
    pw = path_to_root(w)
    # trim the common tail so the walk closes at the lowest common ancestor
    while len(pu) > 1 and len(pw) > 1 and pu[-2] == pw[-2]:
        pu.pop()
        pw.pop()
    return tuple(pu[::-1] + pw)


@dataclass(frozen=True)
class AntipodalStructure:
    """Partition of the vertices into antipodal classes.

    classes are vertex tuples sorted ascending, ordered by their minimum
    vertex; every class is a clique of the distance-d graph of the same
    size t >= 2.  labels[v] = (class index, transversal index of v within
    its class by ascending vertex id).
    """

    t: int
    classes: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, int], ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_of(self, v: int) -> int:
        return self.labels[v][0]


def antipodal_structure(g: Graph) -> AntipodalStructure:
    """Antipodal class partition, or NotAntipodal.

    The distance-d graph must be a disjoint union of cliques, all of one
    size t >= 2: that is exactly the condition for "equal or at maximal
    distance" to be an equivalence relation.
    """
    dm = g.distances
    if dm.diameter is None:
        raise DisconnectedGraph("antipodal structure needs a connected graph")
    d = dm.diameter
    if d < 2:
        raise NotAntipodal("antipodal classes need diameter >= 2")
    n = g.n
    far = [0] * n
    for u in range(n):
        mask = 0
        for v in dm.sphere(u, d):
            mask |= 1 << v
        far[u] = mask
    comps = _components(n, far)
    classes = []
    size = None
    for comp in comps:
        members = tuple(iter_bits(comp))
        t = len(members)
        if t < 2:
            raise NotAntipodal(f"vertex {members[0]} has no antipode")
        for u in members:
            if far[u] != comp & ~(1 << u):
                raise NotAntipodal(
                    f"distance-{d} component containing {u} is not a clique"
                )
        if size is None:
            size = t
        elif size != t:
            raise NotAntipodal("antipodal classes have unequal sizes")
        classes.append(members)
    labels: list[tuple[int, int]] = [(-1, -1)] * n
    for ci, members in enumerate(classes):
        for ti, v in enumerate(members):
            labels[v] = (ci, ti)
    return AntipodalStructure(t=size, classes=tuple(classes), labels=tuple(labels))


def is_antipodal(g: Graph) -> bool:
    try:
        antipodal_structure(g)
        return True
    except NotAntipodal:
        return False


def halve(g: Graph) -> tuple[Graph, Graph, tuple[int, ...], tuple[int, ...]]:
    """Halved graphs of a connected bipartite graph.

    Returns (plus graph, minus graph, plus map, minus map); the maps send
    local vertices to original labels in ascending order, and the plus side
    is the one containing vertex 0.  Edges join vertices at distance 2.
    """
    plus, minus = bipartition(g)
    dm = g.distances

    def build(side: tuple[int, ...]) -> Graph:
        index = {v: i for i, v in enumerate(side)}
        rows = [0] * len(side)
        for i, v in enumerate(side):
            for w in side:
                if dm.d(v, w) == 2:
                    rows[i] |= 1 << index[w]
        return Graph(len(side), rows)

    return build(plus), build(minus), plus, minus


def fold(
    g: Graph, structure: AntipodalStructure | None = None
) -> tuple[Graph, tuple[int, ...]]:
    """Quotient on the antipodal classes.

    Returns (folded graph, quotient map vertex -> class index).  Classes are
    adjacent iff they contain adjacent vertices.  For a regular input of
    diameter >= 3 no vertex can have two neighbours in one class (they would
    sit at the maximal distance yet share a neighbour), so the quotient
    keeps the valency; that is asserted.  Diameter-2 quotients collapse
    further and skip the check.
    """
    if structure is None:
        structure = antipodal_structure(g)
    s = structure.n_classes
    rows = [0] * s
    collision = False
    for u in range(g.n):
        cu = structure.class_of(u)
        seen = 0
        for w in g.neighbors(u):
            cw = structure.class_of(w)
            if cu != cw:
                if seen >> cw & 1:
                    collision = True
                seen |= 1 << cw
                rows[cu] |= 1 << cw
    folded = Graph(s, rows)
    kg = g.regular_valency()
    if kg is not None and not collision:
        kf = folded.regular_valency()
        if kf != kg:
            raise ClassificationContradiction(
                f"folding changed the valency from {kg} to {kf}"
            )
    quotient = tuple(structure.class_of(v) for v in range(g.n))
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
            out["halved"] = [
                {"n": h.n, "m": h.n_edges} for h in self.halved
            ]
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
        _claim(claims, "every pair of distinct vertices is adjacent",
               all(r == ((1 << n) - 1) & ~(1 << v) for v, r in enumerate(g.adj)))
        return AHClass(label="AH3", d=d, k=k, bipartite=(n == 2),
                       antipodal=(n >= 2), subclaims=tuple(claims))

    k = ia.k
    bip = _try_bipartition(g)
    ant = _try_antipodal(g)

    if d == 2 and (bip is not None or ant is not None):
        _claim(claims, "imprimitive diameter-2 graph is antipodal", ant is not None)
        assert ant is not None
        _claim(claims, "graph is complete multipartite on the antipodal classes",
               _is_complete_multipartite(g, ant))
        folded = fold(g, ant)[0]
        _claim(claims, "folded graph is complete",
               folded == complete(folded.n))
        return AHClass(label="AH4", d=d, k=k, bipartite=bip is not None,
                       antipodal=True, t=ant.t, folded=folded,
                       subclaims=tuple(claims))

    if k == 2:
        _claim(claims, "graph is a cycle", _is_cycle(g))
        return AHClass(label="AH2", d=d, k=k, bipartite=bip is not None,
                       antipodal=ant is not None,
                       t=ant.t if ant else None, subclaims=tuple(claims))

    if bip is None and ant is None:
        _claim(claims, "all distance graphs are connected", is_primitive(g))
        return AHClass(label="AH1", d=d, k=k, bipartite=False, antipodal=False,
                       subclaims=tuple(claims))

    halved = halve(g)[:2] if bip is not None else None
    folded = fold(g, ant)[0] if ant is not None else None
    e = d // 2

    if d == 3 and bip is not None and ant is not None:
        _claim(claims, "graph is complete bipartite minus a perfect matching",
               _is_kvv_minus_matching(g, ant))
        return AHClass(label="AH5", d=d, k=k, bipartite=True, antipodal=True,
                       t=ant.t, halved=halved, folded=folded,
                       subclaims=tuple(claims))

    if d == 3 and bip is not None:
        _claim(claims, "graph is the incidence graph of a symmetric design",
               _is_design_incidence(g))
        return AHClass(label="AH6", d=d, k=k, bipartite=True, antipodal=False,
                       halved=halved, subclaims=tuple(claims))

    if d == 3 and ant is not None:
        _claim(claims, "folded graph is complete on k+1 vertices",
               folded is not None and folded.n == k + 1
               and folded == complete(k + 1))
        return AHClass(label="AH7", d=d, k=k, bipartite=False, antipodal=True,
                       t=ant.t, folded=folded, subclaims=tuple(claims))

    if d == 4 and bip is not None and ant is not None:
        _claim(claims, "folded graph is complete bipartite",
               folded is not None and _is_complete_bipartite(folded))
        _claim(claims, "halved graphs are complete multipartite",
               halved is not None
               and all(_is_complete_multipartite(h, None) for h in halved))
        return AHClass(label="AH8", d=d, k=k, bipartite=True, antipodal=True,
                       t=ant.t, halved=halved, folded=folded,
                       subclaims=tuple(claims))

    if d == 6 and bip is not None and ant is not None:
        _claim(claims, "halved graphs are antipodal of diameter 3",
               halved is not None
               and all(_diameter(h) == 3 and _try_antipodal(h) is not None
                       for h in halved))
        _claim(claims, "folded graph is bipartite of diameter 3",
               folded is not None and _diameter(folded) == 3
               and _try_bipartition(folded) is not None)
        return AHClass(label="AH9", d=d, k=k, bipartite=True, antipodal=True,
                       t=ant.t, halved=halved, folded=folded,
                       subclaims=tuple(claims))

    if d >= 4 and ant is not None and bip is None:
        _claim(claims, f"folded graph is primitive of diameter {e}",
               folded is not None and _diameter(folded) == e
               and is_primitive(folded))
        _claim(claims, "folded valency at least 3",
               folded is not None and (folded.regular_valency() or 0) >= 3)
        return AHClass(label="AH10", d=d, k=k, bipartite=False, antipodal=True,
                       t=ant.t, folded=folded, subclaims=tuple(claims))

    if d >= 4 and bip is not None and ant is None:
        _claim(claims, f"halved graphs are primitive of diameter {e}",
               halved is not None
               and all(_diameter(h) == e and is_primitive(h) for h in halved))
        _claim(claims, "halved valency at least 3",
               halved is not None
               and all((h.regular_valency() or 0) >= 3 for h in halved))
        return AHClass(label="AH11", d=d, k=k, bipartite=True, antipodal=False,
                       halved=halved, subclaims=tuple(claims))

    # bipartite and antipodal, d >= 5
    assert bip is not None and ant is not None
    if d % 2 == 1:
        _claim(claims, "odd diameter forces antipodal classes of size 2",
               ant.t == 2)
        _claim(claims, f"folded graph is primitive of diameter {e}",
               folded is not None and _diameter(folded) == e
               and is_primitive(folded))
        _claim(claims, f"halved graphs are primitive of diameter {e}",
               halved is not None
               and all(_diameter(h) == e and is_primitive(h) for h in halved))
        return AHClass(label="AH12", d=d, k=k, bipartite=True, antipodal=True,
                       t=2, halved=halved, folded=folded,
                       subclaims=tuple(claims))

    half_ant = _try_antipodal(halved[0])
    reduced = fold(halved[0], half_ant)[0] if half_ant is not None else None
    _claim(claims, f"halving then folding is primitive of diameter {e // 2}",
           reduced is not None and _diameter(reduced) == e // 2
           and is_primitive(reduced))
    _claim(claims, "reduced valency at least 3",
           reduced is not None and (reduced.regular_valency() or 0) >= 3)
    return AHClass(label="AH13", d=d, k=k, bipartite=True, antipodal=True,
                   t=ant.t, halved=halved, folded=folded,
                   subclaims=tuple(claims))


def _try_bipartition(g: Graph):
    try:
        return bipartition(g)
    except NotBipartite:
        return None


def _try_antipodal(g: Graph):
    try:
        return antipodal_structure(g)
    except NotAntipodal:
        return None


def _diameter(g: Graph) -> int | None:
    return g.distances.diameter


def _is_cycle(g: Graph) -> bool:
    return (
        g.regular_valency() == 2
        and len(_components(g.n, g.adj)) == 1
        and g.n_edges == g.n
    )


def _is_complete_multipartite(g: Graph, structure: AntipodalStructure | None) -> bool:
    """Non-adjacency must be an equivalence: u !~ w iff same part."""
    if structure is not None:
        part = [structure.class_of(v) for v in range(g.n)]
    else:
        # derive parts from non-adjacency
        part = [-1] * g.n
        nxt = 0
        for v in range(g.n):
            if part[v] == -1:
                part[v] = nxt
                for w in range(v + 1, g.n):
                    if not g.has_edge(v, w):
                        if part[w] != -1:
                            return False
                        part[w] = nxt
                nxt += 1
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if g.has_edge(u, w) == (part[u] == part[w]):
                return False
    return True


def _is_complete_bipartite(g: Graph) -> bool:
    try:
        plus, minus = bipartition(g)
    except (NotBipartite, DisconnectedGraph):
        return False
    return all(
        g.has_edge(u, w) for u in plus for w in minus
    )


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
    from .designs import design_from_graph
    from .errors import NotBipartiteDiameter3

    try:
        design_from_graph(g)
        return True
    except NotBipartiteDiameter3:
        return False
