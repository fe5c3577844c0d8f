"""Transfers of resolving sets across halving, folding, and doubling.

Every routine takes verified inputs (the set it is given must resolve its
source graph), maps them through the structural correspondence, and
re-verifies the output against the target's distance matrix.  A failed
input check raises InputNotResolving and any other failed hypothesis
(bipartite, antipodal with classes of size 2, strongly regular with k = 2c
or a = c, a minimum input set) a HypothesisFailure, with its witness when
it has one; a failed output check raises LiftVerificationError, which
indicates a bug, not a user error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .errors import BadParameters, HypothesisFailure, InputNotResolving
from .families import bipartite_double
from .graphs import Graph, as_ids, bipartition, induced_neighborhood, intersection_array
from .imprimitivity import AntipodalStructure, antipodal_structure, fold, halve
from .mdim import ResolvingCertificate, _normalise, _verified, certify


def _require_resolving(g: Graph, s: Iterable[int], where: str) -> tuple[int, ...]:
    cert = certify(g, s)
    if cert.pair is not None:
        raise InputNotResolving(cert.pair, where)
    return cert.set


def lift_halved(
    g: Graph, r_plus: Iterable[int], r_minus: Iterable[int]
) -> ResolvingCertificate:
    """Union of resolving sets of the two halved graphs, mapped up.

    r_plus and r_minus are given in the local labels of the halves
    returned by halve(g); the output is in g's labels.  Distances from one
    side of a bipartite graph have fixed parity, so the union resolves g.
    """
    gp, gm, map_p, map_m = halve(g)
    rp = _require_resolving(gp, r_plus, "plus half")
    rm = _require_resolving(gm, r_minus, "minus half")
    lifted = {map_p[v] for v in rp} | {map_m[v] for v in rm}
    if not lifted:
        raise HypothesisFailure("both halves are trivial; nothing to lift")
    return _verified(g, lifted, "lifted-halving")


@dataclass(frozen=True)
class FoldedLift:
    """Resolving set of an antipodal graph built from one of its quotient.

    case "ii": the partial fibres over the folded set suffice (always at
    odd diameter, or when no vertex of the quotient is at maximal distance
    from the whole folded set).  case "iii": the fibre over the unique
    all-maximal vertex is added, minus its representative.
    """

    certificate: ResolvingCertificate
    case: Literal["ii", "iii"]
    center: int | None = None


def lift_folded(
    g: Graph,
    r_bar: Iterable[int],
    structure: AntipodalStructure | None = None,
) -> FoldedLift:
    """Resolve an antipodal graph from a resolving set of its folded quotient.

    r_bar is given as class indices of the antipodal structure.  Each class
    contributes all members except its minimum-id representative; at even
    diameter, if some folded vertex sees all of r_bar at the folded
    diameter, that vertex's class (again minus its representative) is
    added.  A passed structure must equal antipodal_structure(g), as in fold.
    """
    folded, _ = fold(g, structure)
    classes = antipodal_structure(g).classes
    rb = _require_resolving(folded, r_bar, "folded")
    dm_f = folded.distances
    d = g.distances.diameter
    e_bar = dm_f.diameter

    lifted = set()
    for c in rb:
        lifted.update(classes[c][1:])

    case: Literal["ii", "iii"] = "ii"
    center = None
    if d % 2 == 0:
        want = sum(1 << w for w in rb)
        maximal = [
            u for u, far in enumerate(dm_f.layer(e_bar)) if far & want == want
        ]
        if maximal:
            case = "iii"
            center = maximal[0]
            lifted.update(classes[center][1:])
    cert = _verified(g, lifted, "lifted-folding")
    return FoldedLift(certificate=cert, case=case, center=center)


def two_antipodal_partition(
    g: Graph, v_plus: Iterable[int]
) -> tuple[frozenset[int], dict[int, int]]:
    """Validate that v_plus holds exactly one vertex of each antipodal pair.

    Returns (the plus side, the antipode involution).  Raises the
    NotAntipodal or DisconnectedGraph of antipodal_structure, and
    HypothesisFailure if the classes have size other than 2 or the
    partition does not split every pair.
    """
    structure = antipodal_structure(g)
    if structure.t != 2:
        raise HypothesisFailure(f"antipodal classes have size {structure.t}, not 2")
    plus = frozenset(as_ids(v_plus, g.n, "vertex ids"))
    antipode = {}
    for v, w in structure.classes:
        if (v in plus) == (w in plus):
            raise HypothesisFailure(
                f"antipodal pair ({v}, {w}) is not split by the partition"
            )
        antipode[v], antipode[w] = w, v
    return plus, antipode


def push_to_plus(
    g: Graph, v_plus: Iterable[int], r: Iterable[int]
) -> ResolvingCertificate:
    """Replace every minus-side member of a resolving set by its antipode.

    In a 2-antipodal graph the two distances from any vertex to an
    antipodal pair sum to the diameter, so resolving power is preserved.
    """
    plus, antipode = two_antipodal_partition(g, v_plus)
    chosen = _require_resolving(g, r, "input")
    pushed = {v if v in plus else antipode[v] for v in chosen}
    return _verified(g, pushed, "lifted-push")


def project_to_folded(
    g: Graph, r_plus: Iterable[int]
) -> tuple[Graph, tuple[int, ...], ResolvingCertificate]:
    """Project a one-sided resolving set of a bipartite 2-antipodal graph of
    odd diameter onto its folded quotient.

    Returns (folded graph, quotient map, certificate in folded labels).
    The projection witnesses that the quotient's metric dimension is at
    most that of the double cover.
    """
    r_plus = as_ids(r_plus, g.n, "vertex ids")
    side_plus, _ = bipartition(g)  # so g is connected and has a diameter
    if g.distances.diameter % 2 == 0:
        raise HypothesisFailure("projection needs odd diameter")
    if antipodal_structure(g).t != 2:
        raise HypothesisFailure("projection needs antipodal classes of size 2")
    if not set(r_plus) <= set(side_plus):
        raise HypothesisFailure(
            "the set must lie in the bipartition side of vertex 0; push it first"
        )
    chosen = _require_resolving(g, r_plus, "input")
    folded, quotient = fold(g)
    cert = _verified(folded, {quotient[v] for v in chosen}, "lifted-projection")
    return folded, quotient, cert


def taylor_lift(g: Graph, r: Iterable[int]) -> ResolvingCertificate:
    """Resolve a Taylor graph from a resolving set of the local graph at its
    plus pole, by adding the pole itself.

    g must be distance-regular of diameter 3 with antipodal classes of
    size 2, and its plus pole 2n must be adjacent to exactly the plus
    copies 0..n-1, as in taylor().  r is given in the labels of the
    plus-pole neighbourhood, which coincide with the plus copies.
    """
    if intersection_array(g).d != 3 or antipodal_structure(g).t != 2:
        raise HypothesisFailure(
            "taylor lift needs diameter 3 and antipodal classes of size 2"
        )
    pole = g.n - 2
    delta, vmap = induced_neighborhood(g, pole)
    if vmap != tuple(range(pole // 2)):
        raise HypothesisFailure("plus pole is not adjacent to exactly the plus copies")
    chosen = _require_resolving(delta, r, "local")
    return _verified(g, set(chosen) | {pole}, "lifted-taylor")


def descendant_extract(
    g: Graph, s: Iterable[int], x: int
) -> tuple[Graph, tuple[int, ...], ResolvingCertificate]:
    """Extract a resolving set of the local graph at x of a Taylor graph g
    from a minimum resolving set containing x.

    The set is first pushed into the 2-antipodal side {x} + N(x); dropping
    x then leaves a resolving set of the local graph.  push_to_plus checks
    that g has antipodal classes of size 2 met once each by that side.
    Returns (local graph, vertex map, certificate in local labels).
    """
    (x,) = as_ids((x,), g.n, "the vertex")
    chosen = _normalise(s, g.n)  # push_to_plus checks that it resolves g
    if x not in chosen:
        raise BadParameters("the chosen vertex must belong to the resolving set")
    v_plus = {x} | set(g.neighbors(x))
    pushed = push_to_plus(g, v_plus, chosen)
    if pushed.mu != len(chosen):
        raise HypothesisFailure(
            "pushing collided two antipodes; the input set was not minimum"
        )
    local_graph, vmap = induced_neighborhood(g, x)
    index = {v: i for i, v in enumerate(vmap)}
    reduced = [index[v] for v in pushed.set if v != x]
    return local_graph, vmap, _verified(local_graph, reduced, "lifted-descendant")


def double_lift(
    delta: Graph, r: Iterable[int]
) -> tuple[Graph, ResolvingCertificate]:
    """Resolve the bipartite double of a strongly regular graph with a = c by
    taking both copies of a resolving set.

    Returns (the double as bipartite_double builds it, certificate in its
    labels: v and v + n).
    """
    ia = intersection_array(delta)
    if ia.d != 2 or ia.a[1] != ia.c[1]:
        raise HypothesisFailure(
            "doubling transfer needs a strongly regular graph with a = c"
        )
    chosen = _require_resolving(delta, r, "input")
    cover = bipartite_double(delta)
    lifted = set(chosen) | {v + delta.n for v in chosen}
    cert = _verified(cover, lifted, "lifted-double")
    return cover, cert
