"""The named graphs of the test and verification suites, and the one reader
of the specs that name graphs and designs, for ZOO, golden rows and the CLI.

A graph spec is {"name": z} for the ZOO graph z, {"family": f, "params":
[...]} for families.family(f, *params), {"double": g}, {"taylor": g} or
{"incidence": d}; a design spec is {"plane": q} for pg2(q), {"complement":
d} or {"of": g} for design_from_graph, where g and d are graph and design
specs.  graph and design build them, and raise BadParameters naming a spec
of no such form, a name not in ZOO or a name of no family.  ZOO maps each
name to a thunk that builds its spec, so importing this module stays cheap;
SOLVABLE is the frozenset of the names small enough for routine exact solves.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from . import families
from .designs import SymmetricDesign, design_complement, design_from_graph, incidence_graph, pg2
from .errors import BadParameters
from .graphs import Graph

# each form's keys, by the key that names it
_GRAPH_FORMS = {"name": {"name"}, "family": {"family", "params"}, "double": {"double"},
                "taylor": {"taylor"}, "incidence": {"incidence"}}
_DESIGN_FORMS = {"plane": {"plane"}, "complement": {"complement"}, "of": {"of"}}
_FAMILY_NAMES = families.family_names()


def _form(spec: Any, forms: dict[str, set[str]], kind: str) -> str:
    """The form whose keys are exactly spec's, or BadParameters."""
    if isinstance(spec, dict):
        for form, keys in forms.items():
            if set(spec) == keys:
                return form
    shapes = ", ".join(" + ".join(sorted(keys)) for keys in forms.values())
    raise BadParameters(f"not a {kind} spec: {spec!r}; the forms have keys {shapes}")


def graph(spec: dict[str, Any]) -> Graph:
    """The graph a graph spec names (see the module docstring)."""
    form = _form(spec, _GRAPH_FORMS, "graph")
    if form == "name":
        if not isinstance(spec["name"], str) or spec["name"] not in ZOO:
            raise BadParameters(f"unknown ZOO name in {spec!r}")
        return ZOO[spec["name"]]()
    if form == "family":
        if not isinstance(spec["params"], list):
            raise BadParameters(f"params is not a list in {spec!r}")
        if spec["family"] not in _FAMILY_NAMES:  # a tuple: an unhashable name is absent
            raise BadParameters(
                f"unknown family in {spec!r}; known: {', '.join(_FAMILY_NAMES)}")
        return families.family(spec["family"], *spec["params"])
    if form == "double":
        return families.bipartite_double(graph(spec["double"]))
    if form == "taylor":
        return families.taylor(graph(spec["taylor"]))
    return incidence_graph(design(spec["incidence"]))


def design(spec: dict[str, Any]) -> SymmetricDesign:
    """The design a design spec names (see the module docstring)."""
    form = _form(spec, _DESIGN_FORMS, "design")
    if form == "plane":
        return pg2(spec["plane"])
    if form == "complement":
        return design_complement(design(spec["complement"]))
    return design_from_graph(graph(spec["of"]))


_SPECS = {
    "C_5": {"family": "cycle", "params": [5]},
    "C_6": {"family": "cycle", "params": [6]},
    "C_7": {"family": "cycle", "params": [7]},
    "K_4": {"family": "complete", "params": [4]},
    "K_6": {"family": "complete", "params": [6]},
    "2K_3": {"family": "disjoint_cliques", "params": [2, 3]},
    "3K_4": {"family": "disjoint_cliques", "params": [3, 4]},
    "K_3x4": {"family": "complete_multipartite", "params": [3, 4]},
    "K44_minus_matching": {"family": "complete_bipartite_minus_matching", "params": [4]},
    "K66_minus_matching": {"family": "complete_bipartite_minus_matching", "params": [6]},
    "Q_3": {"family": "hypercube", "params": [3]},
    "Q_4": {"family": "hypercube", "params": [4]},
    "Q_6": {"family": "hypercube", "params": [6]},
    "Q_8": {"family": "hypercube", "params": [8]},
    "petersen": {"family": "odd", "params": [3]},
    "johnson_5_2": {"family": "johnson", "params": [5, 2]},
    "johnson_8_4": {"family": "johnson", "params": [8, 4]},
    "odd_4": {"family": "odd", "params": [4]},
    "paley_13": {"family": "paley", "params": [13]},
    "paley_17": {"family": "paley", "params": [17]},
    "rook_4_4": {"family": "rook", "params": [4, 4]},
    "shrikhande": {"family": "shrikhande", "params": []},
    "gq22_incidence": {"family": "gq22_incidence", "params": []},
    "icosahedron": {"taylor": {"name": "C_5"}},
    "taylor_paley_13": {"taylor": {"name": "paley_13"}},
    "taylor_paley_17": {"taylor": {"name": "paley_17"}},
    "heawood": {"incidence": {"plane": 2}},
    "desargues": {"double": {"name": "petersen"}},
    "doubled_odd_4": {"double": {"name": "odd_4"}},
    # incidence graph of the (16, 6, 2) design carried by the doubled rook graph
    "biplane_incidence": {"incidence": {"of": {"double": {"name": "rook_4_4"}}}},
}
ZOO: dict[str, Callable[[], Graph]] = {name: partial(graph, spec) for name, spec in _SPECS.items()}

# members whose exact metric dimension is routine (seconds, not minutes)
SOLVABLE = frozenset(name for name in ZOO if name != "Q_8")
