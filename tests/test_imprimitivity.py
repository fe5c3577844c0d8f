"""Bipartitions, antipodal class structure, halving, folding, and the
thirteen-way classification."""

import random
from collections import deque

import networkx as nx
import numpy as np
import pytest

from mdimlab import (
    BadParameters,
    ClassificationContradiction,
    DisconnectedGraph,
    Graph,
    NotAntipodal,
    NotBipartite,
    NotDistanceRegular,
    antipodal_structure,
    bfs_distances,
    bipartition,
    classify_ah,
    family,
    fold,
    halve,
    intersection_array,
    is_antipodal,
    is_distance_regular,
    lift_folded,
)
from mdimlab import imprimitivity
from mdimlab.families import bipartite_double, taylor
from mdimlab.imprimitivity import (
    AntipodalStructure,
    _is_complete,
    _is_complete_bipartite,
    _is_complete_multipartite,
)
from mdimlab.zoo import ZOO


def random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def random_bipartite(half: int, seed: int) -> Graph:
    """Connected bipartite graph on sides 0..half-1 and half..2*half-1: a
    zigzag path through both sides plus seeded random cross edges."""
    rng = random.Random(seed)
    edges = {(v, half + v) for v in range(half)}
    edges |= {(v + 1, half + v) for v in range(half - 1)}
    edges |= {(u, half + w) for u in range(half) for w in range(half)
              if rng.random() < 0.3}
    return Graph.from_edges(2 * half, sorted(edges))


def _two_colouring_reference(g: Graph):
    """Deque-BFS 2-colouring from vertex 0: the (plus, minus) sides, or
    "odd" on an edge inside one colour of 0's component, or "disconnected"."""
    colour = [-1] * g.n
    colour[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if colour[w] == -1:
                colour[w] = 1 - colour[u]
                queue.append(w)
            elif colour[w] == colour[u]:
                return "odd"
    if -1 in colour:
        return "disconnected"
    return (tuple(v for v in range(g.n) if colour[v] == 0),
            tuple(v for v in range(g.n) if colour[v] == 1))


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, w + a.n) for u, w in b.edges()]
    return Graph.from_edges(a.n + b.n, list(a.edges()) + shifted)


def _bipartition_cases():
    """Seeded connected bipartite, connected non-bipartite and disconnected
    graphs, the last with and without an odd cycle through vertex 0."""
    cases = [random_bipartite(half, seed) for half in (2, 3, 5, 8) for seed in range(5)]
    cases += [g for g in (random_graph(n, seed) for n in (5, 7, 9, 12) for seed in range(8))
              if g.distances.connected]
    cases += [_disjoint_union(random_bipartite(3, seed), random_graph(5, seed))
              for seed in range(8)]
    cases += [_disjoint_union(family("cycle", 2 * r + 1), random_bipartite(3, r))
              for r in range(1, 5)]
    return cases


class TestBipartition:
    def test_even_cycle_splits_by_parity(self):
        plus, minus = bipartition(family("cycle", 6))
        assert plus == (0, 2, 4)
        assert minus == (1, 3, 5)

    def test_first_side_contains_vertex_zero(self):
        plus, _ = bipartition(family("hypercube", 4))
        assert 0 in plus

    def test_sides_partition_the_vertices(self):
        g = ZOO["heawood"]()
        plus, minus = bipartition(g)
        assert sorted(plus + minus) == list(range(g.n))

    def test_odd_cycle_raises_with_a_witness(self):
        with pytest.raises(NotBipartite) as exc:
            bipartition(family("cycle", 5))
        walk = exc.value.witness
        assert walk[0] == walk[-1]
        assert len(walk) % 2 == 0  # closed walk of odd length

    def test_witness_is_a_real_closed_walk(self):
        g = ZOO["petersen"]()
        with pytest.raises(NotBipartite) as exc:
            bipartition(g)
        walk = exc.value.witness
        assert walk[0] == walk[-1]
        for u, w in zip(walk, walk[1:]):
            assert g.has_edge(u, w)

    def test_disconnected_input_is_rejected(self):
        with pytest.raises(DisconnectedGraph):
            bipartition(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_odd_cycle_through_zero_wins_over_disconnection(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        with pytest.raises(NotBipartite):
            bipartition(g)

    def test_matches_a_two_colouring_reference(self):
        outcomes = []
        for g in _bipartition_cases():
            expected = _two_colouring_reference(g)
            outcomes.append(expected if isinstance(expected, str) else "sides")
            if expected == "disconnected":
                with pytest.raises(DisconnectedGraph):
                    bipartition(g)
            elif expected == "odd":
                with pytest.raises(NotBipartite) as exc:
                    bipartition(g)
                walk = exc.value.witness
                assert walk[0] == walk[-1]
                assert (len(walk) - 1) % 2 == 1  # an odd number of edges
                assert all(g.has_edge(u, w) for u, w in zip(walk, walk[1:]))
            else:
                assert bipartition(g) == expected
        assert len(outcomes) >= 50
        assert {"sides", "odd", "disconnected"} <= set(outcomes)
        assert outcomes.count("odd") >= 10 and outcomes.count("disconnected") >= 5


class TestHalve:
    def test_cube_halves_into_two_tetrahedra(self):
        plus, minus, map_p, map_m = halve(family("hypercube", 3))
        for h in (plus, minus):
            assert h.n == 4
            assert h.regular_valency() == 3
        assert sorted(map_p + map_m) == list(range(8))

    def test_point_block_graph_halves_into_complete_graphs(self):
        # any two points of the order-2 plane share a block, and dually
        plus, minus, _, _ = halve(ZOO["heawood"]())
        assert plus.n == minus.n == 7
        assert plus.regular_valency() == minus.regular_valency() == 6

    def test_maps_are_ascending_and_plus_holds_vertex_zero(self):
        _, _, map_p, map_m = halve(family("hypercube", 4))
        assert map_p[0] == 0
        assert list(map_p) == sorted(map_p)
        assert list(map_m) == sorted(map_m)

    def test_halved_edges_are_distance_two_pairs(self):
        inputs = [ZOO[name]() for name in ("desargues", "Q_6", "doubled_odd_4")]
        for g in inputs + [random_bipartite(8, 3)]:
            plus, minus, map_p, map_m = halve(g)
            dm = bfs_distances(g)
            for half, vmap in ((plus, map_p), (minus, map_m)):
                for i in range(half.n):
                    for j in range(i + 1, half.n):
                        assert half.has_edge(i, j) == (dm.dist[vmap[i], vmap[j]] == 2)

    def test_result_is_kept_with_the_graph(self):
        g = family("hypercube", 4)
        first = halve(g)
        assert halve(g) is first
        assert halve(family("hypercube", 4)) == first

    def test_non_bipartite_input_is_rejected(self):
        g = ZOO["petersen"]()
        for _ in range(2):  # a failure is not kept with the graph
            with pytest.raises(NotBipartite):
                halve(g)

    def test_one_vertex_is_rejected_as_halving(self):
        with pytest.raises(BadParameters, match="halving needs"):
            halve(Graph(1, [0]))


def _antipodal_reference(g: Graph):
    """(classes, quotient) read off the networkx components of the
    distance-d graph, ordered by least vertex; None where a component is
    not a clique, has one vertex, or differs in size from the others."""
    dist = g.distances.dist
    far = nx.Graph()
    far.add_nodes_from(range(g.n))
    far.add_edges_from(map(tuple, np.argwhere(dist == g.distances.diameter).tolist()))
    comps = sorted(tuple(sorted(c)) for c in nx.connected_components(far))
    if len({len(c) for c in comps}) > 1 or any(
        len(c) < 2 or far.subgraph(c).number_of_edges() != len(c) * (len(c) - 1) // 2
        for c in comps
    ):
        return None
    quotient = {v: ci for ci, c in enumerate(comps) for v in c}
    return tuple(comps), tuple(quotient[v] for v in range(g.n))


def _antipodal_cases():
    """The connected ZOO graphs of diameter >= 2, complete bipartite graphs
    K_{a,b}, cycles, and seeded random connected graphs from sparse to dense."""
    cases = [g for g in (build() for build in ZOO.values())
             if g.distances.connected and g.distances.diameter >= 2]
    cases += [Graph.from_edges(a + b, [(u, a + w) for u in range(a) for w in range(b)])
              for a in range(1, 5) for b in range(2, 5)]
    cases += [family("cycle", n) for n in range(4, 11)]
    for seed in range(40):
        n = 4 + seed % 9
        nxg = nx.gnp_random_graph(n, (0.2, 0.4, 0.6, 0.8)[seed % 4], seed=seed)
        if nx.is_connected(nxg) and nx.diameter(nxg) >= 2:
            cases.append(Graph.from_edges(n, list(nxg.edges())))
    return cases


class TestAntipodalStructure:
    def test_even_cycle_pairs_opposite_vertices(self):
        st = antipodal_structure(family("cycle", 6))
        assert st.t == 2
        assert st.classes == ((0, 3), (1, 4), (2, 5))

    def test_labels_give_class_and_position(self):
        st = antipodal_structure(family("cycle", 6))
        assert st.quotient == (0, 1, 2, 0, 1, 2)
        assert st.classes[st.quotient[4]].index(4) == 1  # second member of class (1, 4)
        assert st.quotient[5] == 2

    def test_complete_multipartite_classes_are_the_parts(self):
        st = antipodal_structure(family("complete_multipartite", 3, 4))
        assert st.t == 4
        assert len(st.classes) == 3
        assert st.classes[0] == (0, 1, 2, 3)

    def test_hypercube_pairs_complementary_vertices(self):
        st = antipodal_structure(family("hypercube", 4))
        assert st.t == 2
        assert all(u ^ w == 15 for u, w in st.classes)

    def test_diameter_one_is_not_antipodal(self):
        assert not is_antipodal(family("complete", 4))

    def test_point_block_graph_is_not_antipodal(self):
        with pytest.raises(NotAntipodal):
            antipodal_structure(ZOO["heawood"]())

    def test_primitive_graph_is_not_antipodal(self):
        assert not is_antipodal(ZOO["petersen"]())

    @pytest.mark.parametrize("name", ["2K_3", "3K_4"])
    def test_disconnected_graphs_fail_both_predicates(self, name):
        # the predicates answer False where antipodal_structure and
        # intersection_array raise DisconnectedGraph
        g = ZOO[name]()
        assert not is_antipodal(g)
        assert not is_distance_regular(g)

    def test_structure_is_kept_with_the_graph(self):
        g = family("hypercube", 4)
        assert antipodal_structure(g) is antipodal_structure(g)

    def test_cliques_of_unequal_sizes_are_not_antipodal(self):
        # the distance-2 graph of K_{2,3} is K_2 + K_3
        g = Graph.from_edges(5, [(u, w) for u in (0, 1) for w in (2, 3, 4)])
        with pytest.raises(NotAntipodal, match="unequal sizes"):
            antipodal_structure(g)

    def test_matches_the_components_of_the_distance_d_graph(self):
        outcomes = []
        for g in _antipodal_cases():
            expected = _antipodal_reference(g)
            if expected is None:
                with pytest.raises(NotAntipodal):
                    antipodal_structure(g)
            else:
                st = antipodal_structure(g)
                assert (st.classes, st.quotient) == expected
                assert st.t == len(expected[0][0])
            outcomes.append(expected is None)
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


def _regular_antipodal_graphs():
    """The regular antipodal ZOO graphs and families: cycles, Q_2..Q_8,
    K_{s x t}, K_{v,v} minus a matching, doubled odd graphs, Taylor
    graphs and J(2m, m)."""
    graphs = [g for g in (build() for build in ZOO.values())
              if g.distances.connected and g.regular_valency() is not None and is_antipodal(g)]
    graphs += [family("cycle", n) for n in range(4, 11, 2)]
    graphs += [family("hypercube", m) for m in range(2, 9)]
    graphs += [family("complete_multipartite", s, t) for s in (2, 3, 4) for t in (2, 3)]
    graphs += [family("complete_bipartite_minus_matching", v) for v in range(3, 7)]
    graphs += [bipartite_double(family("odd", r)) for r in (2, 3, 4)]
    graphs += [taylor(family("paley", q)) for q in (5, 13, 17)]
    graphs += [family("johnson", 2 * m, m) for m in (2, 3, 4)]
    return graphs


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def _fold_rows_reference(g: Graph) -> tuple[int, ...]:
    """The folded rows by a loop over the edges of g."""
    quotient = antipodal_structure(g).quotient
    rows = [0] * (max(quotient) + 1)
    for u, cu in enumerate(quotient):
        for w in g.neighbors(u):
            rows[cu] |= 1 << quotient[w]
    return tuple(rows)


class TestFold:
    def test_rows_match_a_per_edge_loop(self):
        graphs = [g for g in (build() for build in ZOO.values())
                  if g.distances.connected and is_antipodal(g)]
        assert len(graphs) >= 10
        graphs += [_relabelled(g, seed) for seed in range(2) for g in (
            family("hypercube", 7), family("hypercube", 8), taylor(family("paley", 61)))]
        for g in graphs:
            assert fold(g)[0].adj == _fold_rows_reference(g)

    def test_valency_is_kept_iff_the_diameter_is_at_least_three(self):
        diameters = set()
        for g in _regular_antipodal_graphs():
            folded, quotient = fold(g)
            st = antipodal_structure(g)
            assert st.quotient == quotient
            assert all(v in st.classes[c] for v, c in enumerate(quotient))
            d = g.distances.diameter
            k = g.regular_valency()
            # the number of classes each vertex sees through its neighbours
            seen = [len({quotient[w] for w in g.neighbors(u)}) for u in range(g.n)]
            if d >= 3:
                assert folded.regular_valency() == k
                assert seen == [k] * g.n
            else:
                assert folded.regular_valency() != k
                assert any(c < k for c in seen)  # two neighbours in one class
            diameters.add(min(d, 3))
        assert diameters == {2, 3}

    def test_even_cycle_folds_to_half_length(self):
        folded, quotient = fold(family("cycle", 6))
        assert (folded.n, folded.n_edges) == (3, 3)
        assert quotient == (0, 1, 2, 0, 1, 2)

    def test_cube_folds_to_the_complete_graph(self):
        folded, _ = fold(family("hypercube", 3))
        assert folded.n == 4
        assert folded.regular_valency() == 3

    def test_icosahedron_folds_to_five_regular_six_vertices(self):
        folded, _ = fold(ZOO["icosahedron"]())
        assert folded.n == 6
        assert folded.regular_valency() == 5

    def test_valency_is_kept_when_diameter_is_at_least_three(self):
        g = family("hypercube", 6)
        folded, _ = fold(g)
        assert folded.regular_valency() == g.regular_valency()

    def test_diameter_two_quotient_may_collapse(self):
        # all four-vertex parts merge into single vertices
        folded, _ = fold(family("complete_multipartite", 3, 4))
        assert folded.n == 3
        assert folded.regular_valency() == 2

    def test_quotient_map_respects_adjacency(self):
        g = family("hypercube", 4)
        folded, quotient = fold(g)
        for u in range(g.n):
            for w in g.neighbors(u):
                assert folded.has_edge(quotient[u], quotient[w])

    def test_non_antipodal_input_is_rejected(self):
        with pytest.raises(NotAntipodal):
            fold(ZOO["petersen"]())

    def test_result_is_kept_with_the_graph(self):
        g = family("hypercube", 4)
        first = fold(g)
        assert fold(g) is first
        # an equal structure, here that of an equal graph, is the graph's own
        assert fold(g, antipodal_structure(family("hypercube", 4))) is first

    def test_a_foreign_structure_is_rejected(self):
        g = family("cycle", 8)
        # the classes of C_8 are {v, v + 4}; these pair v with v + 1
        foreign = AntipodalStructure(
            t=2, classes=tuple((v, v + 1) for v in range(0, 8, 2)),
            quotient=tuple(v // 2 for v in range(8)))
        with pytest.raises(BadParameters):
            fold(g, foreign)
        with pytest.raises(BadParameters):
            lift_folded(g, [0, 1], foreign)
        with pytest.raises(BadParameters):  # a structure of another graph
            fold(g, antipodal_structure(family("cycle", 6)))


class TestClassifyAh:
    def test_primitive_graph(self):
        r = classify_ah(ZOO["petersen"]())
        assert r.label == "AH1"
        assert not r.bipartite and not r.antipodal

    def test_cycles_of_diameter_at_least_three(self):
        assert classify_ah(family("cycle", 7)).label == "AH2"
        assert classify_ah(family("cycle", 8)).label == "AH2"

    def test_complete_graph(self):
        r = classify_ah(family("complete", 5))
        assert r.label == "AH3"
        assert r.d == 1

    def test_a_failed_sub_claim_raises(self, monkeypatch):
        monkeypatch.setattr(imprimitivity, "_is_complete", lambda g: False)
        message = "^sub-claim failed: every pair of distinct vertices is adjacent$"
        with pytest.raises(ClassificationContradiction, match=message):
            classify_ah(family("complete", 4))

    def test_triangle_counts_as_complete(self):
        assert classify_ah(family("cycle", 3)).label == "AH3"

    def test_square_counts_as_diameter_two_imprimitive(self):
        assert classify_ah(family("cycle", 4)).label == "AH4"

    def test_complete_multipartite(self):
        r = classify_ah(family("complete_multipartite", 3, 4))
        assert r.label == "AH4"
        assert r.t == 4

    def test_cube_is_bipartite_and_antipodal_of_diameter_three(self):
        r = classify_ah(family("hypercube", 3))
        assert r.label == "AH5"
        assert r.bipartite and r.antipodal and r.t == 2
        assert r.halved is not None and r.folded is not None

    def test_point_block_graph_of_diameter_three(self):
        r = classify_ah(ZOO["heawood"]())
        assert r.label == "AH6"
        assert r.bipartite and not r.antipodal

    def test_antipodal_non_bipartite_of_diameter_three(self):
        r = classify_ah(ZOO["icosahedron"]())
        assert r.label == "AH7"
        assert r.antipodal and not r.bipartite

    def test_doubly_imprimitive_diameters_four_and_six(self):
        assert classify_ah(family("hypercube", 4)).label == "AH8"
        assert classify_ah(family("hypercube", 6)).label == "AH9"

    def test_antipodal_only_of_diameter_four(self):
        r = classify_ah(family("johnson", 8, 4))
        assert r.label == "AH10"
        assert r.antipodal and not r.bipartite

    def test_bipartite_only_of_diameter_four(self):
        r = classify_ah(ZOO["gq22_incidence"]())
        assert r.label == "AH11"
        assert r.bipartite and not r.antipodal

    def test_doubly_imprimitive_odd_diameter_at_least_five(self):
        assert classify_ah(family("hypercube", 5)).label == "AH12"

    def test_doubly_imprimitive_even_diameter_at_least_eight(self):
        assert classify_ah(family("hypercube", 8)).label == "AH13"

    def test_doubly_imprimitive_classification_halves_once(self, monkeypatch):
        import mdimlab.imprimitivity

        calls = []

        def counting(g):
            calls.append(g)
            return halve(g)

        monkeypatch.setattr(mdimlab.imprimitivity, "halve", counting)
        assert classify_ah(family("hypercube", 8)).label == "AH13"
        assert len(calls) == 1

    def test_all_subclaims_hold(self):
        for name in ("petersen", "heawood", "icosahedron", "desargues"):
            r = classify_ah(ZOO[name]())
            assert all(ok for _, ok in r.subclaims)

    def test_json_projection_carries_the_label(self):
        out = classify_ah(family("hypercube", 3)).to_json()
        assert out["class"] == "AH5"
        assert out["bipartite"] and out["antipodal"]
        assert out["t"] == 2
        assert all(c["ok"] for c in out["subclaims"])

    def test_irregular_input_is_rejected(self):
        with pytest.raises(NotDistanceRegular):
            classify_ah(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_disconnected_input_is_rejected(self):
        with pytest.raises(DisconnectedGraph):
            classify_ah(family("disjoint_cliques", 2, 3))

    # (label, bipartite, antipodal, t, has halved graphs, has folded graph)
    PINNED = {
        "C_5": ("AH2", False, False, None, False, False),
        "C_6": ("AH2", True, True, 2, False, False),
        "C_7": ("AH2", False, False, None, False, False),
        "K_4": ("AH3", False, True, None, False, False),
        "K_6": ("AH3", False, True, None, False, False),
        "K_3x4": ("AH4", False, True, 4, False, True),
        "K44_minus_matching": ("AH5", True, True, 2, True, True),
        "K66_minus_matching": ("AH5", True, True, 2, True, True),
        "Q_3": ("AH5", True, True, 2, True, True),
        "Q_4": ("AH8", True, True, 2, True, True),
        "Q_6": ("AH9", True, True, 2, True, True),
        "Q_8": ("AH13", True, True, 2, True, True),
        "petersen": ("AH1", False, False, None, False, False),
        "johnson_5_2": ("AH1", False, False, None, False, False),
        "johnson_8_4": ("AH10", False, True, 2, False, True),
        "odd_4": ("AH1", False, False, None, False, False),
        "paley_13": ("AH1", False, False, None, False, False),
        "paley_17": ("AH1", False, False, None, False, False),
        "rook_4_4": ("AH1", False, False, None, False, False),
        "shrikhande": ("AH1", False, False, None, False, False),
        "gq22_incidence": ("AH11", True, False, None, True, False),
        "icosahedron": ("AH7", False, True, 2, False, True),
        "taylor_paley_13": ("AH7", False, True, 2, False, True),
        "taylor_paley_17": ("AH7", False, True, 2, False, True),
        "heawood": ("AH6", True, False, None, True, False),
        "desargues": ("AH12", True, True, 2, True, True),
        "doubled_odd_4": ("AH12", True, True, 2, True, True),
        "biplane_incidence": ("AH6", True, False, None, True, False),
        "C_4": ("AH4", True, True, 2, False, True),
        "K_33": ("AH4", True, True, 3, False, True),
        "Q_5": ("AH12", True, True, 2, True, True),
        "K_2": ("AH3", True, True, None, False, False),
    }
    EXTRA = {
        "C_4": lambda: family("cycle", 4),
        "K_33": lambda: family("complete_multipartite", 2, 3),
        "Q_5": lambda: family("hypercube", 5),
        "K_2": lambda: family("complete", 2),
    }

    def test_every_zoo_graph_is_pinned(self):
        assert set(ZOO) - set(self.PINNED) == {"2K_3", "3K_4"}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_record(self, name):
        r = classify_ah({**ZOO, **self.EXTRA}[name]())
        got = (r.label, r.bipartite, r.antipodal, r.t,
               r.halved is not None, r.folded is not None)
        assert got == self.PINNED[name]

    @pytest.mark.parametrize("name", ["2K_3", "3K_4"])
    def test_disconnected_zoo_graphs_are_rejected(self, name):
        with pytest.raises(DisconnectedGraph):
            classify_ah(ZOO[name]())


class TestDerivedGraphsStayDistanceRegular:
    @pytest.mark.parametrize("name", ["hypercube_4", "cycle_8"])
    def test_halves_of_doubly_imprimitive_graphs(self, name):
        fam, arg = name.rsplit("_", 1)
        g = family(fam, int(arg))
        plus, minus, _, _ = halve(g)
        for h in (plus, minus):
            intersection_array(h)  # raises if not distance-regular

    def test_fold_of_the_six_cube(self):
        folded, _ = fold(family("hypercube", 6))
        intersection_array(folded)


def _multipartite_reference(g: Graph) -> bool:
    """The pair-loop form of _is_complete_multipartite."""
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
    return all(
        g.has_edge(u, w) != (part[u] == part[w])
        for u in range(g.n) for w in range(u + 1, g.n)
    )


def _complete_bipartite_reference(g: Graph) -> bool:
    """The pair-loop form of _is_complete_bipartite."""
    try:
        plus, minus = bipartition(g)
    except (NotBipartite, DisconnectedGraph):
        return False
    return all(g.has_edge(u, w) for u in plus for w in minus)


class TestClassificationPredicates:
    """The bitset predicates agree with their pair-loop forms."""

    GRAPHS = (
        [family("complete_multipartite", s, t) for s in (2, 3, 4) for t in (1, 2, 3)]
        + [random_graph(n, seed) for n in range(1, 9) for seed in range(25)]
        + [random_bipartite(half, seed) for half in (2, 3, 4) for seed in range(10)]
    )

    def test_complete_multipartite_without_a_structure(self):
        for g in self.GRAPHS:
            assert _is_complete_multipartite(g) == _multipartite_reference(g)

    def test_complete_is_an_edge_count(self):
        for g in self.GRAPHS:
            assert _is_complete(g) == (g == family("complete", g.n))
        assert sum(map(_is_complete, self.GRAPHS)) >= 8

    def test_complete_bipartite(self):
        graphs = self.GRAPHS + [family("complete_bipartite_minus_matching", 4),
                                family("complete_multipartite", 2, 5)]
        for g in graphs:
            assert _is_complete_bipartite(g) == _complete_bipartite_reference(g)
        assert _is_complete_bipartite(family("complete_multipartite", 2, 5))
