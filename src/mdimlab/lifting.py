"""Transfers of resolving sets across halving, folding, and doubling.

Every routine takes verified inputs (the set it is given must resolve its
source graph), maps them through the structural correspondence, and
re-verifies the output against the target's distance matrix.  A failed
input check raises InputNotResolving; a failed output check raises
LiftVerificationError, which indicates a bug, not a user error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .errors import (
    BadParameters,
    DisconnectedGraph,
    HypothesisFailure,
    InputNotResolving,
    NormalizationFailure,
    NotBipartite,
    NotTwoAntipodal,
    ParameterFailure,
)
from .families import LabeledCover, bipartite_double
from .graphs import Graph, induced_neighborhood, intersection_array
from .imprimitivity import (
    AntipodalStructure,
    antipodal_structure,
    bipartition,
    fold,
    halve,
)
from .mdim import ResolvingCertificate, _verified, certify


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
    added.
    """
    if structure is None:
        structure = antipodal_structure(g)
    folded, _ = fold(g, structure)
    rb = _require_resolving(folded, r_bar, "folded")
    dm_f = folded.distances
    d = g.distances.diameter or 0
    e_bar = dm_f.diameter or 0

    lifted = set()
    for c in rb:
        lifted.update(structure.classes[c][1:])

    case: Literal["ii", "iii"] = "ii"
    center = None
    if d % 2 == 0:
        want = sum(1 << w for w in rb)
        maximal = [
            u for u, far in enumerate(dm_f.layer(e_bar)) if far & want == want
        ]
        if len(maximal) > 1:
            raise InputNotResolving((maximal[0], maximal[1]), "folded")
        if maximal:
            case = "iii"
            center = maximal[0]
            lifted.update(structure.classes[center][1:])
    cert = _verified(g, lifted, "lifted-folding")
    return FoldedLift(certificate=cert, case=case, center=center)


def two_antipodal_partition(
    g: Graph, v_plus: Iterable[int]
) -> tuple[frozenset[int], dict[int, int]]:
    """Validate that v_plus holds exactly one vertex of each antipodal pair.

    Returns (the plus side, the antipode involution).  Raises
    NotTwoAntipodal if the graph is not 2-antipodal or the partition does
    not split every pair.
    """
    dm = g.distances
    if dm.diameter is None or dm.diameter < 2:
        raise NotTwoAntipodal("need a connected graph of diameter >= 2")
    antipode: dict[int, int] = {}
    for v, far in enumerate(dm.layer(dm.diameter)):
        if far.bit_count() != 1:
            raise NotTwoAntipodal(f"vertex {v} has {far.bit_count()} antipodes, not 1")
        antipode[v] = far.bit_length() - 1
    plus = frozenset(int(v) for v in v_plus)
    for v in plus:
        if not 0 <= v < g.n:
            raise BadParameters(f"vertex {v} out of range")
    for v, w in antipode.items():
        if (v in plus) == (w in plus):
            raise NotTwoAntipodal(
                f"antipodal pair ({v}, {w}) is not split by the partition"
            )
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
    try:
        side_plus, _ = bipartition(g)
    except (NotBipartite, DisconnectedGraph) as exc:
        raise HypothesisFailure(f"projection needs a bipartite graph: {exc}") from exc
    dm = g.distances
    if dm.diameter is None or dm.diameter % 2 == 0:
        raise HypothesisFailure("projection needs odd diameter")
    structure = antipodal_structure(g)
    if structure.t != 2:
        raise HypothesisFailure("projection needs antipodal classes of size 2")
    r_plus = tuple(r_plus)
    if not set(r_plus) <= set(side_plus):
        raise HypothesisFailure(
            "the set must lie in the bipartition side of vertex 0; push it first"
        )
    chosen = _require_resolving(g, r_plus, "input")
    folded, quotient = fold(g, structure)
    cert = _verified(folded, {quotient[v] for v in chosen}, "lifted-projection")
    return folded, quotient, cert


def _check_two_fold_cover_tags(cover: LabeledCover) -> int:
    """Validate the vertex tag layout of a diameter-3 two-fold cover with
    poles; returns the number of plus copies."""
    n2 = cover.graph.n
    if n2 < 4 or n2 % 2:
        raise HypothesisFailure("not a two-fold cover with poles")
    n = (n2 - 2) // 2
    want = (
        tuple(f"{v}+" for v in range(n))
        + tuple(f"{v}-" for v in range(n))
        + ("inf+", "inf-")
    )
    if cover.tags != want:
        raise HypothesisFailure("vertex tags do not match the two-pole cover layout")
    return n


def taylor_lift(cover: LabeledCover, r: Iterable[int]) -> ResolvingCertificate:
    """Resolve a two-fold diameter-3 cover from a resolving set of the local
    graph at its plus pole, by adding the pole itself.

    r is given in the labels of the plus-pole neighbourhood, which coincide
    with the plus copies 0..n-1.
    """
    n = _check_two_fold_cover_tags(cover)
    g = cover.graph
    pole = 2 * n
    delta, vmap = induced_neighborhood(g, pole)
    if vmap != tuple(range(n)):
        raise HypothesisFailure("plus pole is not adjacent to exactly the plus copies")
    chosen = _require_resolving(delta, r, "local")
    return _verified(g, set(chosen) | {pole}, "lifted-taylor")


def descendant_extract(
    cover: LabeledCover, s: Iterable[int], x: int
) -> tuple[Graph, tuple[int, ...], ResolvingCertificate]:
    """Extract a resolving set of the local graph at x from a minimum
    resolving set containing x.

    The set is first pushed into the 2-antipodal side {x} + N(x); dropping
    x then leaves a resolving set of the local graph.  Returns (local
    graph, vertex map, certificate in local labels).
    """
    _check_two_fold_cover_tags(cover)
    g = cover.graph
    if not 0 <= x < g.n:
        raise BadParameters(f"vertex {x} out of range")
    chosen = _require_resolving(g, s, "input")
    if x not in chosen:
        raise BadParameters("the chosen vertex must belong to the resolving set")
    v_plus = {x} | set(g.neighbors(x))
    pushed = push_to_plus(g, v_plus, chosen)
    if pushed.mu != len(chosen):
        raise NormalizationFailure(
            "pushing collided two antipodes; the input set was not minimum"
        )
    local_graph, vmap = induced_neighborhood(g, x)
    index = {v: i for i, v in enumerate(vmap)}
    reduced = [index[v] for v in pushed.set if v != x]
    return local_graph, vmap, _verified(local_graph, reduced, "lifted-descendant")


def double_lift(
    delta: Graph, r: Iterable[int]
) -> tuple[LabeledCover, ResolvingCertificate]:
    """Resolve the bipartite double of a strongly regular graph with a = c by
    taking both copies of a resolving set.

    Returns (the double, certificate in its labels: v and v + n).
    """
    ia = intersection_array(delta)
    if ia.d != 2 or ia.a[1] != ia.c[1]:
        raise ParameterFailure(
            "doubling transfer needs a strongly regular graph with a = c"
        )
    chosen = _require_resolving(delta, r, "input")
    cover = bipartite_double(delta)
    lifted = set(chosen) | {v + delta.n for v in chosen}
    cert = _verified(cover.graph, lifted, "lifted-double")
    return cover, cert
