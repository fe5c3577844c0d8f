"""The named graphs exercised across the test and verification suites.

ZOO maps each name to its builder, and SOLVABLE is the frozenset of the
names small enough for routine exact solves.  Builders are thunks so
importing this module stays cheap.
"""

from __future__ import annotations

from typing import Callable

from . import families
from .designs import design_from_graph, incidence_graph, pg2
from .graphs import Graph


def petersen() -> Graph:
    return families.odd_graph(3)


def _taylor_c5() -> Graph:
    # the icosahedron is the two-fold diameter-3 cover over C_5
    return families.taylor(families.cycle(5)).graph


def heawood() -> Graph:
    return incidence_graph(pg2(2)).graph


def desargues() -> Graph:
    return families.bipartite_double(petersen()).graph


def doubled_odd_4() -> Graph:
    return families.bipartite_double(families.odd_graph(4)).graph


def biplane_incidence() -> Graph:
    # incidence graph of the (16, 6, 2) design carried by the doubled rook graph
    dbl = families.bipartite_double(families.rook(4, 4)).graph
    return incidence_graph(design_from_graph(dbl)).graph


ZOO: dict[str, Callable[[], Graph]] = {
    "C_5": lambda: families.cycle(5),
    "C_6": lambda: families.cycle(6),
    "C_7": lambda: families.cycle(7),
    "K_4": lambda: families.complete(4),
    "K_6": lambda: families.complete(6),
    "2K_3": lambda: families.disjoint_cliques(2, 3),
    "3K_4": lambda: families.disjoint_cliques(3, 4),
    "K_3x4": lambda: families.complete_multipartite(3, 4),
    "K44_minus_matching": lambda: families.complete_bipartite_minus_matching(4),
    "K66_minus_matching": lambda: families.complete_bipartite_minus_matching(6),
    "Q_3": lambda: families.hypercube(3),
    "Q_4": lambda: families.hypercube(4),
    "Q_6": lambda: families.hypercube(6),
    "Q_8": lambda: families.hypercube(8),
    "petersen": petersen,
    "johnson_5_2": lambda: families.johnson(5, 2),
    "johnson_8_4": lambda: families.johnson(8, 4),
    "odd_4": lambda: families.odd_graph(4),
    "paley_13": lambda: families.paley(13),
    "paley_17": lambda: families.paley(17),
    "rook_4_4": lambda: families.rook(4, 4),
    "shrikhande": families.shrikhande,
    "gq22_incidence": families.gq22_incidence,
    "icosahedron": _taylor_c5,
    "taylor_paley_13": lambda: families.taylor(families.paley(13)).graph,
    "taylor_paley_17": lambda: families.taylor(families.paley(17)).graph,
    "heawood": heawood,
    "desargues": desargues,
    "doubled_odd_4": doubled_odd_4,
    "biplane_incidence": biplane_incidence,
}

# members whose exact metric dimension is routine (seconds, not minutes)
SOLVABLE = frozenset(name for name in ZOO if name != "Q_8")
