"""Bipartitions, antipodal class structure, halving, folding, and the
thirteen-way classification."""

import random

import pytest

from mdimlab import (
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
)
from mdimlab.imprimitivity import (
    AntipodalStructure,
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
                        assert half.has_edge(i, j) == (dm.d(vmap[i], vmap[j]) == 2)

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


class TestAntipodalStructure:
    def test_even_cycle_pairs_opposite_vertices(self):
        st = antipodal_structure(family("cycle", 6))
        assert st.t == 2
        assert st.classes == ((0, 3), (1, 4), (2, 5))

    def test_labels_give_class_and_position(self):
        st = antipodal_structure(family("cycle", 6))
        assert st.labels[4] == (1, 1)  # second member of class (1, 4)
        assert st.class_of(5) == 2

    def test_complete_multipartite_classes_are_the_parts(self):
        st = antipodal_structure(family("complete_multipartite", 3, 4))
        assert st.t == 4
        assert st.n_classes == 3
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


class TestFold:
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


def _multipartite_reference(g: Graph, structure) -> bool:
    """The pair-loop form of _is_complete_multipartite."""
    if structure is not None:
        part = [structure.class_of(v) for v in range(g.n)]
    else:
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


def _random_structure(n: int, t: int, rng: random.Random) -> AntipodalStructure:
    """A seeded partition of 0..n-1 into classes of size t."""
    order = list(range(n))
    rng.shuffle(order)
    classes = sorted(tuple(sorted(order[i:i + t])) for i in range(0, n, t))
    labels = [(-1, -1)] * n
    for ci, members in enumerate(classes):
        for ti, v in enumerate(members):
            labels[v] = (ci, ti)
    return AntipodalStructure(t=t, classes=tuple(classes), labels=tuple(labels))


class TestClassificationPredicates:
    """The bitset predicates agree with their pair-loop forms."""

    GRAPHS = (
        [family("complete_multipartite", s, t) for s in (2, 3, 4) for t in (1, 2, 3)]
        + [random_graph(n, seed) for n in range(1, 9) for seed in range(25)]
        + [random_bipartite(half, seed) for half in (2, 3, 4) for seed in range(10)]
    )

    def test_complete_multipartite_without_a_structure(self):
        for g in self.GRAPHS:
            assert _is_complete_multipartite(g, None) == _multipartite_reference(g, None)

    def test_complete_multipartite_on_given_classes(self):
        rng = random.Random(7)
        checked = 0
        for g in self.GRAPHS:
            structures = [_random_structure(g.n, t, rng)
                          for t in (1, 2, 3) if g.n % t == 0]
            if g.distances.connected and g.distances.diameter >= 2:
                try:
                    structures.append(antipodal_structure(g))
                except NotAntipodal:
                    pass
            for st in structures:
                got = _is_complete_multipartite(g, st)
                assert got == _multipartite_reference(g, st)
                checked += got
        assert checked  # some given classes are the parts

    def test_complete_bipartite(self):
        graphs = self.GRAPHS + [family("complete_bipartite_minus_matching", 4),
                                family("complete_multipartite", 2, 5)]
        for g in graphs:
            assert _is_complete_bipartite(g) == _complete_bipartite_reference(g)
        assert _is_complete_bipartite(family("complete_multipartite", 2, 5))
