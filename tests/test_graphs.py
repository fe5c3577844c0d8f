"""Core graph type, BFS distances, intersection arrays."""

import random
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab import (
    DisconnectedGraph,
    Graph,
    NotDistanceRegular,
    UNREACHABLE,
    bfs_distances,
    classify_ah,
    distance_i_graph,
    family,
    halve,
    induced_neighborhood,
    intersection_array,
    is_distance_regular,
    is_primitive,
    lift_halved,
    max_distance_class,
    mdim_exact,
)


def random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.4]
    return Graph.from_edges(n, edges)


class TestGraph:
    def test_from_edges_symmetry(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.has_edge(1, 0) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)

    def test_rejects_loops(self):
        with pytest.raises(Exception):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(Exception):
            Graph.from_edges(2, [(0, 5)])

    def test_edges_lexicographic(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (0, 3)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_degree_and_valency(self):
        g = family("cycle", 5)
        assert all(g.degree(v) == 2 for v in range(5))
        assert g.regular_valency() == 2
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert path.regular_valency() is None

    def test_complement_involution(self):
        g = random_graph(8, 11)
        assert g.complement().complement() == g

    def test_complement_of_complete_is_empty(self):
        g = family("complete", 5).complement()
        assert g.n_edges == 0

    def test_hashable(self):
        assert len({family("cycle", 5), family("cycle", 5)}) == 1


class TestBfsDistances:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx(self, seed):
        g = random_graph(9, seed)
        dm = bfs_distances(g)
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        for u in range(g.n):
            for w in range(g.n):
                expected = lengths[u].get(w)
                got = dm.d(u, w)
                if expected is None:
                    assert got == UNREACHABLE
                else:
                    assert got == expected

    def test_connected_flag(self):
        assert bfs_distances(family("cycle", 5)).connected
        two = Graph.from_edges(4, [(0, 1), (2, 3)])
        dm = bfs_distances(two)
        assert not dm.connected and dm.diameter is None

    def test_sphere(self):
        dm = bfs_distances(family("cycle", 6))
        assert sorted(dm.sphere(0, 1)) == [1, 5]
        assert sorted(dm.sphere(0, 3)) == [3]

    def test_dist_matrix_read_only(self):
        dm = bfs_distances(family("cycle", 5))
        with pytest.raises(ValueError):
            dm.dist[0, 0] = 3

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, n, seed):
        g = random_graph(n, seed)
        dm = bfs_distances(g)
        for u in range(n):
            for w in range(n):
                for x in range(n):
                    duw, dux, dxw = dm.d(u, w), dm.d(u, x), dm.d(x, w)
                    if dux != UNREACHABLE and dxw != UNREACHABLE:
                        assert duw <= dux + dxw


def bitset(vertices) -> int:
    return sum(1 << int(v) for v in vertices)


# seeded random graphs, about a third of them disconnected, plus two
# components of unequal diameter
SPHERE_INPUTS = [random_graph(n, seed) for n in (1, 2, 5, 9) for seed in range(6)] + [
    Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]),
]


class TestSphereTable:
    def test_spheres_are_the_distance_classes(self):
        for g in SPHERE_INPUTS:
            dm = g.distances
            for u in range(g.n):
                row = dm.dist[u]
                eccentricity = int(row[row != UNREACHABLE].max())
                assert len(dm.spheres[u]) == eccentricity + 1
                for i, sphere in enumerate(dm.spheres[u]):
                    assert sphere == bitset(np.flatnonzero(row == i))

    def test_layers_are_the_distance_i_graphs(self):
        for g in SPHERE_INPUTS:
            dm = g.distances
            for i in range(dm.n + 1):
                rows = tuple(bitset(np.flatnonzero(dm.dist[u] == i)) for u in range(g.n))
                assert dm.layer(i) == rows
                if dm.connected and 1 <= i <= dm.diameter:
                    assert distance_i_graph(dm, i).adj == rows

    def test_sphere_lists_the_distance_class_below_the_unreachable_mark(self):
        for g in SPHERE_INPUTS:
            dm = g.distances
            for u in range(g.n):
                for i in range(UNREACHABLE):
                    expected = tuple(int(v) for v in np.flatnonzero(dm.dist[u] == i))
                    assert dm.sphere(u, i) == expected

    def test_other_components_are_in_no_sphere(self):
        dm = Graph.from_edges(4, [(0, 1), (2, 3)]).distances
        assert dm.sphere(0, UNREACHABLE) == ()
        assert dm.layer(UNREACHABLE) == (0, 0, 0, 0)


class TestDistanceCache:
    def test_distances_are_computed_once_and_shared(self):
        g = random_graph(9, 5)
        dm = g.distances
        assert g.distances is dm
        assert not dm.dist.flags.writeable
        fresh = bfs_distances(g)
        assert (dm.dist == fresh.dist).all()
        assert (dm.connected, dm.diameter) == (fresh.connected, fresh.diameter)

    def test_classify_and_halved_lift_run_one_bfs_per_graph(self, monkeypatch):
        real = bfs_distances
        sources: list[Graph] = []  # keeps every graph alive, so ids stay unique

        def counting(g):
            sources.append(g)
            return real(g)

        # every module-level alias, so a call that bypasses the cache shows
        for name, module in list(sys.modules.items()):
            if name.startswith("mdimlab") and getattr(module, "bfs_distances", None) is real:
                monkeypatch.setattr(module, "bfs_distances", counting)
        g = family("hypercube", 4)
        assert classify_ah(g).label == "AH8"
        gp, gm, _, _ = halve(g)
        lifted = lift_halved(g, mdim_exact(gp).set, mdim_exact(gm).set)
        assert lifted.status == "verified-resolving"
        assert sum(h is g for h in sources) == 1
        assert len({id(h) for h in sources}) == len(sources)


class TestIntersectionArray:
    def test_petersen(self):
        ia = intersection_array(family("odd", 3))
        assert ia.standard_notation() == "{3, 2; 1, 1}"
        assert ia.d == 2 and ia.k == 3

    def test_cycle(self):
        assert intersection_array(family("cycle", 6)).standard_notation() == "{2, 1, 1; 1, 1, 2}"

    def test_class_sizes_sum_to_n(self):
        g = family("johnson", 5, 2)
        ia = intersection_array(g)
        assert sum(ia.class_sizes()) == g.n

    def test_not_drg_has_witness(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotDistanceRegular) as exc:
            intersection_array(path)
        u, w, i = exc.value.witness
        assert 0 <= u < 4 and 0 <= w < 4

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_matches_a_loop_reference(self, seed):
        g = next(h for h in (random_graph(8, 100 * seed + k) for k in range(100))
                 if h.distances.connected)
        expected = _first_irregular_triple(g)
        if expected is None:
            assert is_distance_regular(g)
        else:
            with pytest.raises(NotDistanceRegular) as exc:
                intersection_array(g)
            assert exc.value.witness == expected

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph):
            intersection_array(g)

    def test_is_distance_regular_predicate(self):
        assert is_distance_regular(family("hypercube", 3))
        assert not is_distance_regular(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_srg_params(self):
        ia = intersection_array(family("paley", 13))
        srg = ia.srg_params(13)
        assert (srg.n, srg.k, srg.a, srg.c) == (13, 6, 2, 3)


class TestDerivedGraphs:
    def test_distance_2_graph_of_cycle(self):
        g = distance_i_graph(bfs_distances(family("cycle", 6)), 2)
        # two disjoint triangles
        assert g.n_edges == 6 and all(g.degree(v) == 2 for v in range(6))

    def test_distance_i_out_of_range(self):
        with pytest.raises(IndexError):
            distance_i_graph(bfs_distances(family("cycle", 6)), 9)

    def test_primitive(self):
        assert is_primitive(family("odd", 3))
        assert not is_primitive(family("cycle", 6))      # bipartite
        assert not is_primitive(family("hypercube", 3))  # antipodal too

    def test_max_distance_class(self):
        assert max_distance_class(bfs_distances(family("cycle", 6))) == 2

    def test_induced_neighborhood(self):
        g = family("johnson", 5, 2)
        local, vmap = induced_neighborhood(g, 0)
        assert local.n == g.degree(0)
        for i, u in enumerate(vmap):
            for j in range(i + 1, local.n):
                assert local.has_edge(i, j) == g.has_edge(u, vmap[j])


class TestIntersectionArrayCache:
    def test_second_call_returns_the_same_object(self):
        g = family("odd", 3)
        assert intersection_array(g) is intersection_array(g)

    def test_classify_and_bounds_compute_it_once(self, monkeypatch):
        import mdimlab.graphs
        from mdimlab import babai_bounds

        real = mdimlab.graphs.IntersectionArray
        built = []

        def counting(**kw):
            built.append(kw)
            return real(**kw)

        monkeypatch.setattr(mdimlab.graphs, "IntersectionArray", counting)
        g = family("kneser", 5, 2)
        assert classify_ah(g).label == "AH1"
        babai_bounds(g)
        assert len(built) == 1

    def test_failures_are_not_cached(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        for _ in range(2):
            with pytest.raises(NotDistanceRegular):
                intersection_array(path)


def _first_irregular_triple(g: Graph):
    """Loop reference for the NotDistanceRegular witness: the first (u, w, i)
    in (u, w) order whose neighbour counts at distances i-1, i, i+1 from u
    differ from those of an earlier pair at distance i."""
    dist = nx.floyd_warshall_numpy(nx.Graph(list(g.edges())), nodelist=range(g.n))
    seen = {}
    for u in range(g.n):
        for w in range(g.n):
            i = int(dist[u, w])
            counts = [0, 0, 0]
            for x in g.neighbors(w):
                counts[int(dist[u, x]) - i + 1] += 1
            if seen.setdefault(i, counts) != counts:
                return u, w, i
    return None
