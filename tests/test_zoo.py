"""The spec reader behind ZOO, the golden checks and the command line: the
labels it builds, the specs it refuses, and the modules that build named
graphs and designs without it."""

import ast
import hashlib
from pathlib import Path

import pytest

import mdimlab
from mdimlab import BadParameters
from mdimlab.zoo import ZOO, design, graph

# sha1[:12] of repr((n, adj)) of every ZOO graph, as the builder functions
# that the specs replaced labelled them: the solver's node counts and the
# run memo's keys depend on the labels
DIGESTS = {
    "2K_3": "fa59b200fcdf",
    "3K_4": "d2621e7179b4",
    "C_5": "c6d1970e2d5e",
    "C_6": "dd343a648b87",
    "C_7": "81333c2d1fcf",
    "K44_minus_matching": "308779124ddc",
    "K66_minus_matching": "dd592760e640",
    "K_3x4": "898787836eb4",
    "K_4": "eeb9af33a29b",
    "K_6": "cd44bfe82a27",
    "Q_3": "be7b5c0dcc02",
    "Q_4": "da50104249b8",
    "Q_6": "8dbc2a7b67b4",
    "Q_8": "bcab9795d302",
    "biplane_incidence": "a89358892ce8",
    "desargues": "445b40deb4e6",
    "doubled_odd_4": "1ddd84e62ace",
    "gq22_incidence": "4650637eccb6",
    "heawood": "87a37c74d287",
    "icosahedron": "ee7d7dc15bd6",
    "johnson_5_2": "10c195ccd4b8",
    "johnson_8_4": "320e49ba7547",
    "odd_4": "6c8a863a81b6",
    "paley_13": "d445593e5f3d",
    "paley_17": "ca088fcce3f5",
    "petersen": "32eb068d07b1",
    "rook_4_4": "1ed626a612f4",
    "shrikhande": "f8274535b0fe",
    "taylor_paley_13": "e81a3025fa17",
    "taylor_paley_17": "38d663640a53",
}


def test_every_zoo_graph_keeps_its_labels():
    digests = {}
    for name, build in ZOO.items():
        g = build()
        digests[name] = hashlib.sha1(repr((g.n, g.adj)).encode()).hexdigest()[:12]
    assert digests == DIGESTS


@pytest.mark.parametrize("reader,spec", [
    (graph, {"famly": "cycle", "params": [5]}),  # unknown key
    (graph, {"family": "cycle", "params": [5], "q": 2}),  # extra key
    (graph, {"family": "cycle"}),  # missing key
    (graph, {}),
    (graph, ["name", "petersen"]),
    (graph, {"name": "nope"}),  # unknown ZOO name
    (graph, {"name": ["petersen"]}),
    (graph, {"family": "nope", "params": []}),  # unknown family
    (graph, {"family": ["cycle"], "params": [5]}),
    (graph, {"family": {"cycle": 5}, "params": []}),
    (graph, {"family": "cycle", "params": 5}),
    (graph, {"plane": 2}),  # a design spec where a graph spec goes
    (design, {"plane": 2, "side": "blocks"}),  # bad design specs
    (design, {"lines": 2}),
    (design, {"name": "heawood"}),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_a_malformed_spec_is_refused_by_name(reader, spec):
    with pytest.raises(BadParameters) as info:
        reader(spec)
    assert repr(spec) in str(info.value)


@pytest.mark.parametrize("spec,bad", [
    ({"double": {"name": "nope"}}, {"name": "nope"}),
    ({"incidence": {"complement": {"lines": 2}}}, {"lines": 2}),
    ({"incidence": {"of": {"taylor": {"famly": "cycle", "params": [5]}}}},
     {"famly": "cycle", "params": [5]}),
], ids=repr)
def test_a_nested_malformed_spec_is_refused_by_its_own_name(spec, bad):
    with pytest.raises(BadParameters) as info:
        graph(spec)
    assert repr(bad) in str(info.value)


BUILDERS = {"pg2", "family", "bipartite_double"}


def builder_names(tree: ast.Module) -> list[str]:
    """The BUILDERS that tree names: bare, as an attribute or in an import."""
    names = (
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name if isinstance(node, ast.alias)
        else None
        for node in ast.walk(tree)
    )
    return sorted(name for name in names if name in BUILDERS)


def test_only_the_spec_reader_builds_named_graphs_and_designs():
    # a new family or design form lands once, in graph or design, and
    # reaches the golden rows and the command line both
    probe = ("from .designs import pg2\n"
             "build = lambda a: families.family(a.base), bipartite_double(g), pg2(a.q)")
    assert builder_names(ast.parse(probe)) == ["bipartite_double", "family", "pg2", "pg2"]
    package = Path(mdimlab.__file__).parent
    named = {path.name: builder_names(ast.parse(path.read_text()))
             for path in package.glob("*.py")}
    assert named["cli.py"] == []
    # __init__ re-exports them; lifting's double_lift doubles the graph it is given
    assert {name for name, found in named.items()
            if {"pg2", "family"} & set(found)} == {"__init__.py", "zoo.py"}
