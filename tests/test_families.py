"""Named graph families: orders, parameters, deterministic labeling."""

from itertools import combinations

import pytest

from mdimlab import (
    BadParameters,
    Graph,
    HypothesisFailure,
    antipodal_structure,
    bipartite_double,
    bipartition,
    family,
    family_names,
    intersection_array,
    is_distance_regular,
    taylor,
)
from mdimlab import families
from mdimlab.families import colex_subsets, disjoint_cliques


class TestBasicFamilies:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_cycle(self, n):
        g = family("cycle", n)
        assert g.n == n and g.regular_valency() == 2

    def test_complete(self):
        g = family("complete", 6)
        assert g.n_edges == 15

    def test_complete_multipartite(self):
        g = family("complete_multipartite", 3, 4)
        assert g.n == 12 and g.regular_valency() == 8
        # same part iff non-adjacent
        assert not g.has_edge(0, 3) and g.has_edge(0, 4)

    def test_disjoint_cliques(self):
        g = disjoint_cliques(3, 4)
        assert g.n == 12 and g.regular_valency() == 3
        assert g.has_edge(0, 3) and not g.has_edge(0, 4)
        # the complement of K_{3x4}: each pair of distinct vertices is an edge of one
        other = family("complete_multipartite", 3, 4)
        assert all(g.has_edge(u, w) != other.has_edge(u, w)
                   for u in range(12) for w in range(u + 1, 12))

    def test_crown(self):
        g = bipartite_double(family("complete", 4))
        assert g.n == 8 and g.regular_valency() == 3
        assert not g.has_edge(0, 4)  # the removed matching pairs u with u+v
        for v in range(2, 9):  # K_{v,v} minus the matching u ~ u+v
            crown = Graph.from_edges(2 * v, [(u, v + w) for u in range(v) for w in range(v)
                                             if u != w])
            assert bipartite_double(family("complete", v)) == crown

    def test_hypercube(self):
        g = family("hypercube", 4)
        assert g.n == 16 and g.regular_valency() == 4
        assert g.has_edge(0b0000, 0b1000) and not g.has_edge(0b0000, 0b0011)

    def test_johnson(self):
        g = family("johnson", 5, 2)
        assert g.n == 10 and g.regular_valency() == 6

    def test_kneser(self):
        g = family("kneser", 5, 2)
        assert g.n == 10 and g.regular_valency() == 3
        with pytest.raises(BadParameters):
            family("kneser", 4, 2)  # needs m >= 2r + 1
        with pytest.raises(BadParameters, match="kneser needs r >= 0"):
            family("kneser", 3, -1)  # not itertools' bare ValueError

    def test_odd_graph_is_kneser(self):
        assert family("odd", 4) == family("kneser", 7, 3)

    def test_paley_13(self):
        g = family("paley", 13)
        ia = intersection_array(g)
        assert (g.n, ia.k) == (13, 6)
        with pytest.raises(BadParameters):
            family("paley", 11)  # 11 % 4 == 3
        with pytest.raises(BadParameters):
            family("paley", 9)  # prime powers not supported, only primes

    def test_rook(self):
        g = family("rook", 4, 4)
        assert g.n == 16 and g.regular_valency() == 6

    def test_family_dispatch_errors(self):
        with pytest.raises(BadParameters):
            family("no_such_family")
        for name in (["cycle"], {"cycle": 5}):  # unhashable: not a bare TypeError
            with pytest.raises(BadParameters, match="unknown family"):
                family(name, 5)
        with pytest.raises(BadParameters):
            family("cycle")  # missing parameter
        with pytest.raises(BadParameters):
            family("cycle", 5, 7)  # too many

    @pytest.mark.parametrize("name, params", [
        ("cycle", (5.0,)), ("hypercube", (3.5,)), ("johnson", ("8", 4)), ("cycle", (True,)),
    ])
    def test_non_integer_parameters_are_rejected(self, name, params):
        with pytest.raises(BadParameters, match="must be integers"):
            family(name, *params)

    # unchecked, cycle(5.0) raises TypeError from range() and
    # hypercube(True) builds Q_1; each case's id is its constructor's name
    NON_INTEGER = [
        ("cycle", (5.0,)), ("complete", (True,)), ("complete_multipartite", (2, 3.0)),
        ("disjoint_cliques", (True, 3)), ("hypercube", (True,)), ("johnson", (8, 4.0)),
        ("kneser", (7.0, 2)), ("odd_graph", (True,)), ("paley", (13.0,)), ("rook", (3, True)),
    ]

    @pytest.mark.parametrize("name, params", NON_INTEGER, ids=[c[0] for c in NON_INTEGER])
    def test_constructors_read_their_parameters_as_ints(self, name, params):
        with pytest.raises(BadParameters, match="must be integers"):
            getattr(families, name)(*params)

    # the first value below each constructor's range
    BELOW_RANGE = [
        ("cycle", (2,), "cycle needs n >= 3"),
        ("complete", (0,), "complete graph needs n >= 1"),
        ("complete_multipartite", (1, 3), "needs s >= 2 parts"),
        ("disjoint_cliques", (0, 2), "needs s >= 1 copies"),
        ("hypercube", (0,), "hypercube needs m >= 1"),
        ("johnson", (4, 4), "johnson needs 1 <= r <= m-1"),
        ("odd_graph", (1,), "odd graph needs r >= 2"),
        ("rook", (1, 3), "rook needs both sides >= 2"),
    ]

    @pytest.mark.parametrize("name, params, message", BELOW_RANGE,
                             ids=[c[0] for c in BELOW_RANGE])
    def test_constructors_reject_parameters_below_their_range(self, name, params, message):
        with pytest.raises(BadParameters, match=message):
            getattr(families, name)(*params)

    def test_family_names_sorted(self):
        names = family_names()
        assert list(names) == sorted(names)
        assert "cycle" in names and "shrikhande" in names


def subset_masks(m: int, r: int) -> list[int]:
    return [sum(1 << x for x in s) for s in colex_subsets(m, r)]


def johnson_by_pairs(m: int, r: int) -> Graph:
    """The pair-loop Johnson graph: r-subsets meeting in r - 1 members."""
    masks = subset_masks(m, r)
    edges = [(i, j) for i, j in combinations(range(len(masks)), 2)
             if (masks[i] & masks[j]).bit_count() == r - 1]
    return Graph.from_edges(len(masks), edges)


def kneser_by_pairs(m: int, r: int) -> Graph:
    """The pair-loop Kneser graph: disjoint r-subsets."""
    masks = subset_masks(m, r)
    edges = [(i, j) for i, j in combinations(range(len(masks)), 2) if not masks[i] & masks[j]]
    return Graph.from_edges(len(masks), edges)


class TestSubsetFamiliesMatchThePairLoops:
    # equal adjacency rows, so equal labels too, for every valid (m, r), m <= 10
    def test_johnson(self):
        for m in range(2, 11):
            for r in range(1, m):
                assert family("johnson", m, r) == johnson_by_pairs(m, r), (m, r)

    def test_kneser(self):
        for m in range(1, 11):
            for r in range((m - 1) // 2 + 1):
                assert family("kneser", m, r) == kneser_by_pairs(m, r), (m, r)

    def test_odd(self):
        for r in range(2, 6):  # odd(r) lives on a (2r - 1)-set
            assert family("odd", r) == kneser_by_pairs(2 * r - 1, r - 1), r

class TestSrgFamilies:
    def test_shrikhande_and_rook_share_parameters(self):
        sh = family("shrikhande")
        rk = family("rook", 4, 4)
        assert intersection_array(sh).standard_notation() == \
            intersection_array(rk).standard_notation()
        assert sh != rk

    def test_shrikhande_rook_distinguished_by_local_structure(self):
        # in the rook graph each vertex's neighborhood is two disjoint
        # triangles; in the other graph it is a single 6-cycle
        from mdimlab import bfs_distances, induced_neighborhood

        local_rk, _ = induced_neighborhood(family("rook", 4, 4), 0)
        local_sh, _ = induced_neighborhood(family("shrikhande"), 0)
        assert local_rk.n == local_sh.n == 6
        assert not bfs_distances(local_rk).connected
        assert bfs_distances(local_sh).connected

    def test_gq22_incidence(self):
        g = family("gq22_incidence")
        assert g.n == 30 and g.regular_valency() == 3
        assert intersection_array(g).standard_notation() == "{3, 2, 2, 2; 1, 1, 1, 3}"


def partitions_into_pairs(rest):
    """Every split of the sorted list rest into pairs, the pair through its
    least member first."""
    if not rest:
        yield ()
        return
    first = rest[0]
    for other in rest[1:]:
        remaining = [x for x in rest if x not in (first, other)]
        for tail in partitions_into_pairs(remaining):
            yield ((first, other),) + tail


def gq22_by_recursion() -> Graph:
    points = colex_subsets(6, 2)
    lines = sorted({tuple(sorted(m)) for m in partitions_into_pairs(list(range(6)))})
    edges = [(points.index(p), 15 + j) for j, line in enumerate(lines) for p in line]
    return Graph.from_edges(30, edges)


class TestGq22Lines:
    def test_matches_the_recursive_construction(self):
        assert family("gq22_incidence").adj == gq22_by_recursion().adj


class TestCoverConstructions:
    def test_bipartite_double_layout(self):
        base = family("odd", 3)
        g = bipartite_double(base)
        n = base.n
        assert g.n == 2 * n
        # v is the plus copy of v and v + n its minus copy: u ~ w + n iff
        # u ~ w in the base, and no edge stays inside a copy
        for u in range(n):
            for w in range(n):
                assert g.has_edge(u, w + n) == base.has_edge(u, w)
                assert not g.has_edge(u, w) and not g.has_edge(u + n, w + n)

    def test_bipartite_double_is_bipartite(self):
        cov = bipartite_double(family("odd", 3))
        left, right = bipartition(cov)
        assert len(left) == len(right) == 10

    def test_taylor_structure(self):
        g = taylor(family("cycle", 5))
        assert g.n == 12
        assert intersection_array(g).standard_notation() == "{5, 2, 1; 1, 2, 5}"

    @pytest.mark.parametrize("name, param", [("cycle", 5), ("paley", 13)])
    def test_taylor_layout(self, name, param):
        g = taylor(family(name, param))
        n = (g.n - 2) // 2
        # the plus pole 2n sees exactly the plus copies 0..n-1, the minus
        # pole 2n+1 exactly the minus copies n..2n-1
        assert tuple(g.neighbors(2 * n)) == tuple(range(n))
        assert tuple(g.neighbors(2 * n + 1)) == tuple(range(n, 2 * n))
        expected = {(v, v + n) for v in range(n)} | {(2 * n, 2 * n + 1)}
        assert set(antipodal_structure(g).classes) == expected

    def test_taylor_rejects_wrong_parameters(self):
        with pytest.raises(HypothesisFailure, match="taylor construction needs .* with k = 2c"):
            taylor(family("complete", 4))

    def test_taylor_paley_is_distance_regular(self):
        assert is_distance_regular(taylor(family("paley", 13)))

    def test_the_constructors_return_the_graph_and_its_graph_alias_is_itself(self):
        # perfbench/workloads.py reads .graph off these returns until ROADMAP
        # item 18 re-bases it
        g = taylor(family("paley", 13))
        assert type(g) is Graph
        assert g.graph is g
        assert type(bipartite_double(g)) is Graph
