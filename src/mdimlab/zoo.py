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

Inside a verify.run_suite call graph and design build each distinct spec
once, and every later reader of it, a nested spec or a ZOO thunk included,
gets the same Graph or SymmetricDesign, with all that the Graph keeps; both
are immutable, so sharing is safe.  A ZOO name reads its spec, so {"taylor":
{"name": "paley_13"}} and {"family": "paley", "params": [13]} share one
Paley graph.  The run memo, _RUN, also keeps verify's solves; it ends with
the run, and outside one every call builds and solves anew.
"""

from __future__ import annotations

from contextvars import ContextVar
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
    shapes = ", ".join(" + ".join(sorted(keys)) or "{}" for keys in forms.values())
    raise BadParameters(f"not a {kind} spec: {spec!r}; the forms have keys {shapes}")


# what the current verify.run_suite call built and solved, keyed by spec
# form and what the spec names, or by ("solve", n, adj); None outside a call
_RUN: ContextVar[dict | None] = ContextVar("_RUN", default=None)


def _built(key: tuple, build: Callable[[], Any]) -> Any:
    """build(), or inside a run the object first built under key: a spec
    form's key or ("solve", n, adj).  A nested form's key holds the id of
    its inner graph or design; every object is kept, so it lives, and its
    id stays its own, until the run ends.  A build that raises keeps
    nothing.  Callers make key only after the spec's own checks pass."""
    memo = _RUN.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def graph(spec: dict[str, Any]) -> Graph:
    """The graph a graph spec names (see the module docstring)."""
    form = _form(spec, _GRAPH_FORMS, "graph")
    if form == "name":
        if not isinstance(spec["name"], str) or spec["name"] not in _SPECS:
            raise BadParameters(f"unknown ZOO name in {spec!r}")
        return graph(_SPECS[spec["name"]])
    if form == "family":
        if not isinstance(spec["params"], list):
            raise BadParameters(f"params is not a list in {spec!r}")
        if spec["family"] not in _FAMILY_NAMES:  # a tuple: an unhashable name is absent
            raise BadParameters(
                f"unknown family in {spec!r}; known: {', '.join(_FAMILY_NAMES)}")
        # repr, not a tuple, tells [5] from [5.0] and [True] from [1]
        return _built(("family", spec["family"], repr(spec["params"])),
                      partial(families.family, spec["family"], *spec["params"]))
    if form == "double":
        base = graph(spec["double"])
        return _built(("double", id(base)), partial(families.bipartite_double, base))
    if form == "taylor":
        base = graph(spec["taylor"])
        return _built(("taylor", id(base)), partial(families.taylor, base))
    inner = design(spec["incidence"])
    return _built(("incidence", id(inner)), partial(incidence_graph, inner))


def design(spec: dict[str, Any]) -> SymmetricDesign:
    """The design a design spec names (see the module docstring)."""
    form = _form(spec, _DESIGN_FORMS, "design")
    if form == "plane":
        return _built(("plane", repr(spec["plane"])), partial(pg2, spec["plane"]))
    if form == "complement":
        inner = design(spec["complement"])
        return _built(("complement", id(inner)), partial(design_complement, inner))
    base = graph(spec["of"])
    return _built(("of", id(base)), partial(design_from_graph, base))


_SPECS = {
    "C_5": {"family": "cycle", "params": [5]},
    "C_6": {"family": "cycle", "params": [6]},
    "C_7": {"family": "cycle", "params": [7]},
    "K_4": {"family": "complete", "params": [4]},
    "K_6": {"family": "complete", "params": [6]},
    "2K_3": {"family": "disjoint_cliques", "params": [2, 3]},
    "3K_4": {"family": "disjoint_cliques", "params": [3, 4]},
    "K_3x4": {"family": "complete_multipartite", "params": [3, 4]},
    "K44_minus_matching": {"double": {"family": "complete", "params": [4]}},
    "K66_minus_matching": {"double": {"family": "complete", "params": [6]}},
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
