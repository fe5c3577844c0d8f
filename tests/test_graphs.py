"""Core graph type, BFS distances, intersection arrays."""

import pickle
import random
import re
import sys
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab import (
    BadParameters,
    DisconnectedGraph,
    Graph,
    IntersectionArray,
    NotDistanceRegular,
    UNREACHABLE,
    bfs_distances,
    classify_ah,
    family,
    fold,
    graphs,
    halve,
    induced_neighborhood,
    intersection_array,
    is_distance_regular,
    is_primitive,
    lift_folded,
    lift_halved,
    mdim_exact,
    mdim_greedy,
    taylor,
)
from mdimlab.graphs import (
    _bfs_all_sources,
    _bfs_per_source,
    _bit_matrix,
    _bit_rows,
    _gram,
    _induced,
    _neighbour_table,
    _transpose_masks,
    bipartition,
    iter_bits,
)
from mdimlab.designs import incidence_graph, pg2
from mdimlab.zoo import ZOO


def random_graph(n: int, seed: int, p: float = 0.4) -> Graph:
    rng = random.Random(seed)
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_regular(k: int, n: int, seed: int) -> Graph:
    return Graph.from_edges(n, list(nx.random_regular_graph(k, n, seed=seed).edges()))


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


# the seeded 9-vertex graphs keep their seeds as ids; then one vertex, about
# 40 vertices from sparse (mostly disconnected) to dense, on both sides of
# graphs.SMALL_BFS_N, K_24 (the all-sources path's complete-graph return),
# sparse and dense graphs on either side of the 64-bit word boundaries,
# three paths whose middle and last ones straddle bits 64 and 128, C_130
# (65 levels), and every zoo graph
BFS_CASES = {
    **{str(seed): lambda seed=seed: random_graph(9, seed) for seed in range(12)},
    "n1": lambda: Graph(1, [0]),
    "n40-edgeless": lambda: Graph(40, [0] * 40),
    **{f"n{n}-p{p}-{seed}": lambda n=n, p=p, seed=seed: random_graph(n, seed, p)
       for n in (23, 24, 40) for p in (0.03, 0.08, 0.4) for seed in range(2)},
    "two-paths": lambda: Graph.from_edges(41, [(v, v + 1) for v in range(40) if v != 19]),
    "K24": lambda: family("complete", 24),
    **{f"n{n}-p{p}": lambda n=n, p=p: random_graph(n, n, p)
       for n in (63, 65, 127, 129) for p in (0.03, 0.3)},
    "three-paths": lambda: Graph.from_edges(
        130, [(v, v + 1) for v in range(129) if v not in (40, 100)]),
    "C130": lambda: family("cycle", 130),
    **{f"zoo-{name}": build for name, build in ZOO.items()},
}

# the seeded connected 8-vertex graphs keep their seeds as ids; then
# connected random regular graphs (k, n, seed), all but (3, 6, 1) = K_{3,3}
# not distance-regular: their witness needs the counts at distance 2 or
# more, and in (4, 10, 18) it lies past the row of vertex 0.  Then graphs
# that are not regular: one whose witness (0, 4, 2) needs the degree of w
# (the neighbour sum and odd count without it would name (0, 5, 1)),
# connected ones at and above graphs.SMALL_BFS_N, and K_1 and K_2.  Last,
# two trees where vertex 0 has eccentricity below the diameter, so the
# first pair at the largest distances lies past row 0: the path
# 2-3-0-1-4, whose witness (1, 3, 2) comes after (1, 2), the first pair
# at distance 3, and a spider with legs 1, 2 and 3 centred at vertex 1
WITNESS_CASES = {
    **{str(case): lambda case=case: next(
        h for h in (random_graph(8, 100 * case + k) for k in range(100))
        if h.distances.connected) for case in range(8)},
    **{"rr{}-{}-{}".format(*c): lambda c=c: random_regular(*c)
       for c in [(3, 6, 0), (3, 6, 1), (3, 8, 0), (4, 8, 0), (3, 16, 1), (3, 24, 0),
                 (4, 10, 18), (4, 30, 2), (3, 40, 2), (5, 36, 0), (6, 20, 1)]},
    "degree-needed": lambda: Graph.from_edges(8, [
        (0, 2), (0, 5), (0, 7), (1, 2), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7),
        (3, 4), (3, 6)]),
    **{f"n{n}-{seed}": lambda n=n, seed=seed: random_graph(n, seed, 0.3)
       for n in (24, 30) for seed in range(3)},
    "K1": lambda: Graph(1, [0]),
    "K2": lambda: Graph.from_edges(2, [(0, 1)]),
    "path-0-in-middle": lambda: Graph.from_edges(5, [(2, 3), (3, 0), (0, 1), (1, 4)]),
    "spider-1-2-3": lambda: Graph.from_edges(7, [(1, 0), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6)]),
}


class TestGraph:
    def test_from_edges_symmetry(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.has_edge(1, 0) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)

    def test_rejects_loops(self):
        with pytest.raises(BadParameters, match="loop at vertex 0"):
            Graph.from_edges(2, [(0, 0)])

    # unchecked, (0, 5) raises IndexError and (0, -1) a ValueError from a
    # negative shift
    def test_rejects_out_of_range(self):
        for edge in [(0, 5), (0, -1)]:
            with pytest.raises(BadParameters, match=re.escape(f"edge {edge} out of range for n=2")):
                Graph.from_edges(2, [edge])

    def test_edges_lexicographic(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (0, 3)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_degree_and_valency(self):
        g = family("cycle", 5)
        assert all(g.adj[v].bit_count() == 2 for v in range(5))
        assert g.regular_valency() == 2
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert path.regular_valency() is None

    def test_hashable(self):
        assert len({family("cycle", 5), family("cycle", 5)}) == 1

    @pytest.mark.parametrize("n, rows", [
        (2, [2.5, 1]),  # int() would truncate row 0 to 0b10, an edge
        (2.0, [2, 1]),
        (2, ["2", "1"]),
    ])
    def test_rejects_non_integer_input(self, n, rows):
        with pytest.raises(BadParameters, match="must be integers"):
            Graph(n, rows)

    @pytest.mark.parametrize("n, rows, message", [
        (0, [], "graph needs at least one vertex"),
        (2, [2], "expected 2 adjacency rows, got 1"),
        (2, [4, 0], "references vertices >= 2"),
        (2, [3, 1], "loop at vertex 0"),
        (2, [2, 0], "edge (0, 1) is not symmetric"),
    ])
    def test_rejects_rows_that_are_no_simple_graph(self, n, rows, message):
        with pytest.raises(BadParameters, match=re.escape(message)):
            Graph(n, rows)

    @pytest.mark.parametrize("n, edges", [
        (3, [(True, 2)]),  # a bool end would be read as vertex 1
        (3, [(0, 2.0)]),
        (3, [("0", 1)]),
        (5.0, []),
        (3.0, [(0, 1)]),
        (True, []),
    ])
    def test_from_edges_rejects_non_integer_input(self, n, edges):
        with pytest.raises(BadParameters, match="must be integers"):
            Graph.from_edges(n, edges)

    def test_from_edges_accepts_numpy_integers(self):
        g = Graph.from_edges(np.int64(3), [(np.int64(0), np.uint8(1)), (1, np.int32(2))])
        assert g == Graph.from_edges(3, [(0, 1), (1, 2)])
        assert type(g.n) is int and all(type(r) is int for r in g.adj)

    @pytest.mark.parametrize("n", [8, 9, 40, 64, 70, 128, 130, 256])
    def test_an_asymmetric_row_names_its_first_one_way_edge(self, n):
        rng = random.Random(n)
        named = 0
        for _ in range(20):
            rows = [0] * n
            for u, w in combinations(range(n), 2):
                if rng.random() < 0.3:
                    rows[u] |= 1 << w
                    rows[w] |= 1 << u
            for _ in range(rng.randint(0, 3)):  # add or drop one side of an edge
                v, u = rng.sample(range(n), 2)
                rows[v] ^= 1 << u
            one_way = [(v, u) for v in range(n) for u in range(n)
                       if rows[v] >> u & 1 and not rows[u] >> v & 1]
            if not one_way:
                assert Graph(n, rows).adj == tuple(rows)
                continue
            with pytest.raises(BadParameters, match=re.escape(
                    "edge ({}, {}) is not symmetric".format(*one_way[0]))):
                Graph(n, rows)
            named += 1
        assert named >= 10

    def test_accepts_numpy_integers(self):
        g = Graph(np.int64(2), np.array([2, 1], dtype=np.uint64))
        assert g == family("complete", 2)
        assert type(g.n) is int and all(type(r) is int for r in g.adj)


def first_row_fault(n: int, rows: list[int]) -> str | None:
    """The message of the first fault of the rows under the per-row rule
    that Graph checked edge by edge before its packed symmetry check: a
    row out of range, a loop, or a one-way edge (v, u) in row order."""
    for v, row in enumerate(rows):
        if row < 0 or row >> n:
            return f"adjacency row {v} references vertices >= {n}"
        if row & (1 << v):
            return f"loop at vertex {v}"
    for v, row in enumerate(rows):
        for u in range(n):
            if row >> u & 1 and not rows[u] >> v & 1:
                return f"edge ({v}, {u}) is not symmetric"
    return None


def random_rows(n: int, rng: random.Random) -> list[int]:
    """Symmetric rows of a random graph whose vertices from a random cut
    up are isolated, so the largest row bit length h falls anywhere in
    0..n and the rows at and above h are empty."""
    cut = rng.randint(0, n)
    p = rng.choice([0.05, 0.3, 0.9])
    rows = [0] * n
    for u, w in combinations(range(cut), 2):
        if rng.random() < p:
            rows[u] |= 1 << w
            rows[w] |= 1 << u
    return rows


class TestSymmetryCheck:
    """Graph's packed symmetry check (graphs._is_symmetric) against the
    per-row rule, at the widths where its square pads to a power of two."""

    FAULTS = ("one-way edge", "one-way edge from an empty row", "loop",
              "bit at or above n", "negative row")

    @staticmethod
    def inject(rows: list[int], fault: str, rng: random.Random) -> None:
        n = len(rows)
        v = rng.randrange(n)
        if fault == "one-way edge" and n > 1:
            u = rng.choice([u for u in range(n) if u != v])
            rows[v] ^= 1 << u
        elif fault == "one-way edge from an empty row" and n > 1:
            # row h, above every row's bit length, points down (row n - 1
            # when h = n, and row 1 of an edgeless graph)
            v = max(1, min(max(r.bit_length() for r in rows), n - 1))
            rows[v] ^= 1 << rng.randrange(v)
        elif fault == "loop":
            rows[v] |= 1 << v
        elif fault == "bit at or above n":
            rows[v] |= 1 << (n + rng.choice([0, 1, 7, 64]))
        elif fault == "negative row":
            rows[v] = -1 - rows[v]

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65,
                                   127, 128, 129, 255, 256, 257])
    def test_accepts_and_rejects_as_the_per_row_rule(self, n):
        rng = random.Random(n)
        faults = 0
        for trial in range(12):
            rows = random_rows(n, rng)
            for _ in range(trial % 3):
                self.inject(rows, rng.choice(self.FAULTS), rng)
            message = first_row_fault(n, rows)
            if message is None:
                assert Graph(n, rows).adj == tuple(rows)
                continue
            with pytest.raises(BadParameters) as err:
                Graph(n, rows)
            assert str(err.value) == message
            faults += 1
        assert faults >= 4 if n > 1 else faults >= 1

    @pytest.mark.parametrize("n", [2, 8, 9, 64, 65, 256, 257])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_fault_is_named_as_the_per_row_rule_names_it(self, n, fault):
        rng = random.Random(f"{n} {fault}")
        for _ in range(4):
            rows = random_rows(n, rng)
            self.inject(rows, fault, rng)
            message = first_row_fault(n, rows)
            assert message is not None
            with pytest.raises(BadParameters) as err:
                Graph(n, rows)
            assert str(err.value) == message

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 15, 16, 17, 31, 32, 33])
    def test_every_one_bit_flip_is_named_as_the_per_row_rule_names_it(self, n):
        # a one-way edge at each cell of the square, at sizes 8 to 64
        rows = random_rows(n, random.Random(n))
        for v, u in permutations(range(n), 2):
            flipped = list(rows)
            flipped[v] ^= 1 << u
            with pytest.raises(BadParameters) as err:
                Graph(n, flipped)
            assert str(err.value) == first_row_fault(n, flipped)

    @pytest.fixture
    def no_scan(self, monkeypatch):
        """The per-row scan made to fail the test if anything reaches it."""
        def scan(rows):
            raise AssertionError("valid rows reached the per-row scan")
        monkeypatch.setattr(graphs, "_raise_one_way_edge", scan)

    def test_valid_rows_never_reach_the_per_row_scan(self, no_scan):
        q8 = family("hypercube", 8)
        plus, minus, _, _ = halve(q8)
        built = [q8, plus, minus, fold(q8)[0], family("complete", 57),
                 taylor(family("paley", 61)), incidence_graph(pg2(7))]
        assert [g.n for g in built] == [256, 128, 128, 128, 57, 124, 114]
        for g in built:
            assert Graph(g.n, g.adj) == g
        rng = random.Random(500)
        for _ in range(500):
            n = rng.randint(1, 40)
            rows = random_rows(n, rng)
            assert Graph(n, rows).adj == tuple(rows)

    def test_a_rejected_square_reaches_the_per_row_scan(self, no_scan):
        with pytest.raises(AssertionError, match="per-row scan"):
            Graph(9, [2, 0, 0, 0, 0, 0, 0, 0, 0])

    def test_an_edgeless_graph_packs_no_square(self, monkeypatch):
        sizes = []

        def masks(size):
            sizes.append(size)
            return _transpose_masks(size)

        monkeypatch.setattr(graphs, "_transpose_masks", masks)
        g = Graph(10**6, [0] * 10**6)
        assert g.n == 10**6 and g.adj[-1] == 0
        assert sizes == [8]  # the one-byte pack of no rows

    @pytest.mark.parametrize("size", [8, 16, 32, 64, 128, 256])
    def test_the_block_swaps_transpose_the_square(self, size):
        # each mask holds the bits (v, u), v with bit s clear and u with
        # bit s set, and the swaps take bit v * size + u to u * size + v
        masks = _transpose_masks(size)
        assert len(masks) == size.bit_length() - 1
        for (shift, mask), s in zip(masks, [size >> j for j in range(1, size.bit_length())]):
            assert shift == s * (size - 1)
            assert mask == sum(1 << (v * size + u) for v in range(size) for u in range(size)
                               if not v & s and u & s)
        rng = random.Random(size)
        for _ in range(5):
            cells = [(rng.randrange(size), rng.randrange(size)) for _ in range(size)]
            x = sum({1 << (v * size + u) for v, u in cells})
            for shift, mask in masks:
                t = (x ^ (x >> shift)) & mask
                x ^= t ^ (t << shift)
            assert x == sum({1 << (u * size + v) for v, u in cells})


class TestBfsDistances:
    @pytest.mark.parametrize("case", BFS_CASES)
    def test_matches_networkx(self, case):
        g = BFS_CASES[case]()
        dm = bfs_distances(g)
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        for u in range(g.n):
            for w in range(g.n):
                expected = lengths[u].get(w)
                got = int(dm.dist[u, w])
                if expected is None:
                    assert got == UNREACHABLE
                else:
                    assert got == expected
            spheres = [0] * (max(lengths[u].values()) + 1)
            for w, i in lengths[u].items():
                spheres[i] |= 1 << w
            assert dm.spheres(u) == tuple(spheres)
        assert dm.connected == nx.is_connected(h)
        assert dm.diameter == (nx.diameter(h) if dm.connected else None)

    @pytest.mark.parametrize("case", BFS_CASES)
    def test_all_sources_matches_per_source(self, case):
        g = BFS_CASES[case]()
        got = _bfs_all_sources(g)
        assert got.dtype == np.uint8 and np.array_equal(got, _bfs_per_source(g))

    def test_the_neighbour_table_is_kept_read_only(self):
        g = family("hypercube", 6)
        table = _neighbour_table(g)
        assert not table.flags.writeable
        assert table.tolist() == [sorted(g.neighbors(v)) for v in range(g.n)]
        for reader in (bfs_distances, intersection_array, fold):  # each reads the table
            reader(g)
        assert _neighbour_table(g) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1

    def test_connected_flag(self):
        assert bfs_distances(family("cycle", 5)).connected
        two = Graph.from_edges(4, [(0, 1), (2, 3)])
        dm = bfs_distances(two)
        assert not dm.connected and dm.diameter is None

    def test_a_path_of_255_vertices_has_diameter_254(self):
        dm = bfs_distances(path(255))
        assert dm.diameter == 254 and int(dm.dist[0, 254]) == 254 and int(dm.dist[254, 0]) == 254
        assert len(dm.spheres(0)) == 255

    def test_a_path_of_256_vertices_exceeds_the_8_bit_range(self):
        with pytest.raises(BadParameters, match="graph diameter exceeds the 8-bit distance range"):
            bfs_distances(path(256))

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
                    duw, dux, dxw = int(dm.dist[u, w]), int(dm.dist[u, x]), int(dm.dist[x, w])
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
                assert len(dm.spheres(u)) == eccentricity + 1
                for i, sphere in enumerate(dm.spheres(u)):
                    assert sphere == bitset(np.flatnonzero(row == i))

    def test_layers_are_the_distance_i_graphs(self):
        for g in SPHERE_INPUTS:
            dm = g.distances
            for i in range(dm.n + 1):
                rows = tuple(bitset(np.flatnonzero(dm.dist[u] == i)) for u in range(g.n))
                assert dm.layer(i) == rows

    def test_other_components_are_in_no_sphere(self):
        dm = Graph.from_edges(4, [(0, 1), (2, 3)]).distances
        assert dm.spheres(0) == (0b0001, 0b0010)
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

    def test_a_used_graph_pickles_without_its_memo(self):
        g = family("hypercube", 4)
        halve(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert copy.distances is not g.distances
        assert (copy.distances.dist == g.distances.dist).all()

    def test_classify_and_folded_lift_fold_once(self, monkeypatch):
        real = bfs_distances
        sources: list[Graph] = []

        def counting(g):
            sources.append(g)
            return real(g)

        for name, module in list(sys.modules.items()):
            if name.startswith("mdimlab") and getattr(module, "bfs_distances", None) is real:
                monkeypatch.setattr(module, "bfs_distances", counting)
        g = family("hypercube", 7)
        folded = classify_ah(g).folded
        lifted = lift_folded(g, mdim_greedy(folded).set)
        assert lifted.certificate.status == "verified-resolving"
        assert fold(g)[0] is folded
        # a second fold would build an equal graph and search it again
        assert sum(h == folded for h in sources) == 1
        assert sum(h is g for h in sources) == 1


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

    def test_cycle_of_diameter_254(self):
        ia = intersection_array(family("cycle", 509))
        assert ia == IntersectionArray(d=254, c=(1,) * 254, a=(0,) * 254 + (1,),
                                       b=(2,) + (1,) * 253)

    @pytest.mark.parametrize("case", WITNESS_CASES)
    def test_witness_matches_a_loop_reference(self, case):
        g = WITNESS_CASES[case]()
        assert g.distances.connected
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
        # Paley(13) is strongly regular with (n, k, a, c) = (13, 6, 2, 3)
        ia = intersection_array(family("paley", 13))
        assert (ia.d, ia.k, ia.a[1], ia.c[1]) == (2, 6, 2, 3)


class TestDerivedGraphs:
    def test_primitive(self):
        assert is_primitive(family("odd", 3))
        assert not is_primitive(family("cycle", 6))      # bipartite
        assert not is_primitive(family("hypercube", 3))  # antipodal too

    def test_primitive_matches_networkx_on_every_distance_graph(self):
        checked = []
        for name, build in ZOO.items():
            g = build()
            if not is_distance_regular(g):
                continue
            dist = g.distances.dist
            layers = []
            for i in range(1, g.distances.diameter + 1):
                layer = nx.Graph()
                layer.add_nodes_from(range(g.n))
                layer.add_edges_from(map(tuple, np.argwhere(dist == i).tolist()))
                layers.append(nx.is_connected(layer))
            assert is_primitive(g) == all(layers), name
            checked.append(all(layers))
        assert checked.count(True) >= 5 and checked.count(False) >= 5

    def test_induced_neighborhood(self):
        g = family("johnson", 5, 2)
        local, vmap = induced_neighborhood(g, 0)
        assert local.n == g.adj[0].bit_count()
        for i, u in enumerate(vmap):
            for j in range(i + 1, local.n):
                assert local.has_edge(i, j) == g.has_edge(u, vmap[j])

    def test_halve_matches_a_loop_reference(self):
        halved = 0
        for name, build in ZOO.items():
            g = build()
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
            if not (nx.is_connected(nxg) and nx.is_bipartite(nxg)):
                continue
            dist = dict(nx.all_pairs_shortest_path_length(nxg))
            plus = tuple(v for v in range(g.n) if dist[0][v] % 2 == 0)
            minus = tuple(v for v in range(g.n) if dist[0][v] % 2 == 1)
            expected = [
                Graph.from_edges(len(side), [
                    (i, j) for i, j in combinations(range(len(side)), 2)
                    if dist[side[i]][side[j]] == 2
                ])
                for side in (plus, minus)
            ]
            assert halve(g) == (expected[0], expected[1], plus, minus), name
            halved += 1
        assert halved >= 5

    @pytest.mark.parametrize("x", [0.0, True, "0"])
    def test_induced_neighborhood_rejects_a_non_integer_vertex(self, x):
        # True used to mean vertex 1
        with pytest.raises(BadParameters, match="must be integers"):
            induced_neighborhood(family("johnson", 5, 2), x)

    def test_induced_neighborhood_of_an_isolated_vertex_is_rejected(self):
        with pytest.raises(BadParameters, match="vertex 0 has no neighbours"):
            induced_neighborhood(Graph(2, [0, 0]), 0)

    def test_induced_neighborhood_matches_a_loop_reference(self):
        g = taylor(family("paley", 13))
        for x in (0, 13, g.n - 1):
            vmap = tuple(w for w in range(g.n) if g.has_edge(x, w))
            edges = [(i, j) for i, j in combinations(range(len(vmap)), 2)
                     if g.has_edge(vmap[i], vmap[j])]
            assert induced_neighborhood(g, x) == (Graph.from_edges(len(vmap), edges), vmap)


def induced_by_loop(rows, vertices) -> Graph:
    """The loop graphs._induced replaced, kept as its reference."""
    index = {v: i for i, v in enumerate(vertices)}
    mask = sum(1 << v for v in vertices)
    local = []
    for v in vertices:
        row = 0
        for u in iter_bits(rows[v] & mask):
            row |= 1 << index[u]
        local.append(row)
    return Graph(len(vertices), local)


class TestBitRows:
    def test_induced_matches_the_loop_reference(self):
        for m in (6, 8):  # the distance-2 halves of Q_6 and Q_8
            g = family("hypercube", m)
            far2 = g.distances.layer(2)
            for side in bipartition(g):
                assert _induced(far2, side) == induced_by_loop(far2, side)
        g = taylor(family("paley", 13))
        for x in range(g.n):  # every local graph
            vmap = tuple(g.neighbors(x))
            assert _induced(g.adj, vmap) == induced_by_loop(g.adj, vmap)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
    def test_bit_rows_inverts_bit_matrix(self, n):
        rng = random.Random(n)
        rows = tuple(rng.getrandbits(n) for _ in range(n + 3))
        assert _bit_rows(_bit_matrix(rows, n) == 1) == rows
        transposed = _bit_matrix(rows, n).T == 1
        assert transposed.flags.f_contiguous
        columns = tuple(sum((r >> v & 1) << u for u, r in enumerate(rows)) for v in range(n))
        assert _bit_rows(transposed) == columns

    def test_the_gram_counts_match_a_pair_count(self):
        rng = np.random.default_rng(47)
        shapes = [(1, 5), (2, 1), (7, 7), (13, 70), (40, 133),
                  (3, 0), (5, 63), (5, 64), (5, 65), (6, 128), (6, 129)]
        for shape in shapes:
            rows = rng.random(shape) < 0.5
            for matrix in (rows, rows.T):  # the transpose as _bipartite_bound passes it
                want = [[int((a & b).sum()) for b in matrix] for a in matrix]
                most = max((int((a & b).sum()) for a, b in combinations(matrix, 2)), default=0)
                for form in (matrix, matrix.astype(np.uint8)):  # _bit_matrix gives uint8
                    common = _gram(form)
                    assert common.tolist() == want, matrix.shape
                    np.fill_diagonal(common, 0)
                    assert int(common.max(initial=0)) == most, matrix.shape
        for width in (255, 256, 257):  # a count as wide as the rows, on the diagonal
            assert _gram(np.ones((2, width), bool)).tolist() == [[width] * 2] * 2


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
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    dist = nx.floyd_warshall_numpy(h, nodelist=range(g.n))
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
