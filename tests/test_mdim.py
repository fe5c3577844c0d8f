"""Metric dimension: the exact solver, greedy and exhaustive baselines,
certificates, twin forcing, bounds, and design-side semi-resolving sets."""

from itertools import combinations

import numpy as np
import pytest

from mdimlab import (
    BadParameters,
    Graph,
    HypothesisFailure,
    MdimlabError,
    babai_bounds,
    bfs_distances,
    certify,
    design_complement,
    exhaustive_mdim,
    family,
    first_unresolved_pair,
    first_unseparated_pair,
    is_resolving,
    is_semi_resolving_for_blocks,
    lower_bound_nd,
    mdim_exact,
    mdim_greedy,
    min_semi_resolving,
    pair_cover_instance,
    pg2,
    resolving_witness_map,
    split_mdim,
    twin_classes,
    twin_forced_choices,
)
from mdimlab import mdim
from mdimlab.zoo import ZOO


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [
        (u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


class TestLowerBoundNd:
    def test_small_values(self):
        assert lower_bound_nd(1, 1) == 0
        assert lower_bound_nd(2, 1) == 1
        assert lower_bound_nd(10, 2) == 3
        assert lower_bound_nd(14, 3) == 3

    def test_monotone_in_n(self):
        for d in (1, 2, 3):
            values = [lower_bound_nd(n, d) for n in range(1, 40)]
            assert values == sorted(values)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(BadParameters):
            lower_bound_nd(0, 2)
        with pytest.raises(BadParameters):
            lower_bound_nd(5, 0)


class TestResolutionPredicates:
    def test_adjacent_pair_on_a_cycle(self):
        dm = bfs_distances(family("cycle", 5))
        assert is_resolving(dm, [0, 1])
        assert not is_resolving(dm, [0])

    def test_first_unresolved_pair_is_lexicographic(self):
        dm = bfs_distances(family("cycle", 5))
        # from vertex 0 alone, (1, 4) and (2, 3) stay equidistant
        assert first_unresolved_pair(dm, [0]) == (1, 4)

    def test_members_resolve_themselves(self):
        dm = bfs_distances(family("complete", 4))
        assert first_unresolved_pair(dm, [0, 1, 2]) is None

    def test_witness_map_names_a_separator_for_every_pair(self):
        g = ZOO["petersen"]()
        dm = bfs_distances(g)
        s = mdim_exact(g).set
        wmap = resolving_witness_map(dm, s)
        assert len(wmap) == g.n * (g.n - 1) // 2
        for (u, w), v in wmap.items():
            assert dm.d(v, u) != dm.d(v, w)
            assert v in s

    def test_witness_map_rejects_non_resolving_input(self):
        dm = bfs_distances(family("cycle", 5))
        with pytest.raises(HypothesisFailure):
            resolving_witness_map(dm, [0])


class TestCertify:
    def test_good_set(self):
        g = family("cycle", 6)
        cert = certify(g, [1, 0])
        assert cert.status == "verified-resolving"
        assert cert.set == (0, 1)  # normalized to a sorted tuple
        assert cert.pair is None

    def test_bad_set_reports_the_offending_pair(self):
        g = family("cycle", 6)
        cert = certify(g, [0, 3], method="manual")
        assert cert.status == "failed"
        assert cert.method == "manual"
        u, w = cert.pair
        dm = bfs_distances(g)
        assert dm.d(0, u) == dm.d(0, w) and dm.d(3, u) == dm.d(3, w)

    def test_duplicates_collapse(self):
        cert = certify(family("cycle", 6), [0, 0, 1, 1])
        assert cert.set == (0, 1)


class TestMdimExact:
    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: family("cycle", 6), 2),
            (lambda: family("complete", 5), 4),
            (lambda: family("hypercube", 3), 3),
            (lambda: ZOO["petersen"](), 3),
            (lambda: ZOO["heawood"](), 5),
        ],
    )
    def test_known_values(self, build, expected):
        cert = mdim_exact(build())
        assert cert.status == "minimum"
        assert len(cert.set) == expected

    def test_witness_actually_resolves(self):
        g = ZOO["heawood"]()
        cert = mdim_exact(g)
        assert is_resolving(bfs_distances(g), cert.set)

    def test_agrees_with_the_exhaustive_oracle_on_random_graphs(self):
        for seed in range(12):
            g = random_graph(7, 0.4, seed)
            assert len(mdim_exact(g).set) == len(exhaustive_mdim(g).set)

    def test_disconnected_clique_unions(self):
        cert = mdim_exact(family("disjoint_cliques", 2, 3))
        assert cert.status == "minimum"
        assert len(cert.set) == 4  # two vertices per triangle

    def test_edgeless_graphs_need_all_but_one_vertex(self):
        cert = mdim_exact(Graph.from_edges(4, []))
        assert len(cert.set) == 3

    def test_single_vertex_needs_nothing(self):
        cert = mdim_exact(Graph.from_edges(1, []))
        assert cert.set == () and cert.status == "minimum"

    def test_negative_budget_is_rejected(self):
        with pytest.raises(BadParameters):
            mdim_exact(ZOO["petersen"](), budget=-3)
        # rejected before twin forcing can settle the answer at the root
        with pytest.raises(BadParameters):
            mdim_exact(family("complete", 4), budget=-1)

    def test_spent_budget_downgrades_the_status(self):
        cert = mdim_exact(ZOO["heawood"](), budget=0)
        assert cert.status == "verified-resolving"
        assert is_resolving(bfs_distances(ZOO["heawood"]()), cert.set)

    # Node counts of the default search.  Every tie-break is deterministic,
    # so a change that only speeds the search up leaves them as they are.
    @pytest.mark.parametrize(
        "name,nodes",
        [
            ("Q_6", 14026),
            ("johnson_8_4", 17131),
            ("doubled_odd_4", 23488),
            ("taylor_paley_17", 2902),
            ("gq22_incidence", 6169),
            pytest.param("biplane_incidence", 48615, marks=pytest.mark.slow),
        ],
    )
    def test_node_counts_are_pinned(self, name, nodes):
        cert = mdim_exact(ZOO[name]())
        assert cert.status == "minimum"
        assert cert.nodes_explored == nodes


class TestMdimGreedy:
    def test_result_resolves_and_bounds_the_optimum(self):
        for name in ("petersen", "heawood", "icosahedron"):
            g = ZOO[name]()
            greedy = mdim_greedy(g)
            assert greedy.status == "verified-resolving"
            assert is_resolving(bfs_distances(g), greedy.set)
            assert len(greedy.set) >= len(mdim_exact(g).set)


class TestTwins:
    def test_complete_graph_is_one_twin_class(self):
        inst = pair_cover_instance(bfs_distances(family("complete", 4)))
        assert twin_classes(inst) == [(0, 1, 2, 3)]
        assert twin_forced_choices(inst) == [0, 1, 2]

    def test_square_has_two_antipodal_twin_pairs(self):
        inst = pair_cover_instance(bfs_distances(family("cycle", 4)))
        assert twin_classes(inst) == [(0, 2), (1, 3)]
        assert twin_forced_choices(inst) == [0, 1]

    def test_twin_free_graph_forces_nothing(self):
        inst = pair_cover_instance(bfs_distances(ZOO["petersen"]()))
        assert twin_classes(inst) == []
        assert twin_forced_choices(inst) == []

    def test_forcing_preserves_the_optimum(self):
        # complete multipartite graphs are all twins; the formula value
        # (n minus the number of parts) must survive the forcing
        g = family("complete_multipartite", 3, 4)
        assert len(mdim_exact(g).set) == 9


class TestBoundReport:
    def test_values_for_a_primitive_graph(self):
        g = ZOO["petersen"]()
        rep = babai_bounds(g)
        assert (rep.n, rep.k, rep.d, rep.max_class) == (10, 3, 2, 6)
        assert rep.lower_nd == 3
        assert rep.srg is not None
        mu = len(mdim_exact(g).set)
        assert rep.lower_nd <= mu
        assert mu <= rep.general and mu <= rep.srg and mu <= rep.distance_class

    def test_srg_bound_only_at_diameter_two(self):
        rep = babai_bounds(ZOO["odd_4"]())
        assert rep.d == 3 and rep.srg is None

    def test_one_vertex_graph_is_a_typed_error(self):
        with pytest.raises(MdimlabError):
            babai_bounds(Graph.from_edges(1, []))

    def test_imprimitive_input_is_rejected(self):
        with pytest.raises(HypothesisFailure):
            babai_bounds(family("hypercube", 3))  # bipartite and antipodal
        with pytest.raises(HypothesisFailure):
            babai_bounds(ZOO["heawood"]())  # bipartite


class TestSemiResolving:
    def test_minimum_size_for_the_order_2_plane(self):
        cert = min_semi_resolving(pg2(2), side="blocks")
        assert cert.status == "minimum"
        assert len(cert.set) == 3

    def test_found_set_separates_all_block_pairs(self):
        p = pg2(3)
        cert = min_semi_resolving(p, side="blocks")
        assert is_semi_resolving_for_blocks(p, cert.set)
        assert first_unseparated_pair(p, cert.set, side="blocks") is None

    def test_sides_agree_for_self_dual_designs(self):
        p = pg2(2)
        a = min_semi_resolving(p, side="blocks")
        b = min_semi_resolving(p, side="points")
        assert len(a.set) == len(b.set)

    def test_any_proper_subset_fails(self):
        p = pg2(2)
        s = min_semi_resolving(p, side="blocks").set
        for skip in range(len(s)):
            smaller = s[:skip] + s[skip + 1:]
            assert first_unseparated_pair(p, smaller, side="blocks") is not None

    def test_split_dimension_solves_both_sides(self):
        sp = split_mdim(pg2(2))
        assert sp.points_part.status == sp.blocks_part.status == "minimum"
        assert len(sp.points_part.set) + len(sp.blocks_part.set) == 6

    def test_semi_separation_on_the_complement_design(self):
        # semi-resolving sets are defined for any symmetric design
        d = design_complement(pg2(2))
        cert = min_semi_resolving(d, side="blocks")
        assert cert.status == "minimum"
        assert is_semi_resolving_for_blocks(d, cert.set)

    def test_negative_budget_is_rejected(self):
        with pytest.raises(BadParameters):
            min_semi_resolving(pg2(2), budget=-1)
        with pytest.raises(BadParameters):
            split_mdim(pg2(2), budget=-1)


def loop_unseparated(d, s, side):
    """Reference pair test: the first pair on `side` that no member of s
    meets in exactly one of its two elements."""
    inc = d.inc if side == "blocks" else d.inc.T
    chosen = sorted(set(s))
    for i in range(d.v):
        for j in range(i + 1, d.v):
            if not any(inc[x, i] != inc[x, j] for x in chosen):
                return (i, j)
    return None


class TestSeparation:
    def test_small_plane_matches_the_loop_reference(self):
        p = pg2(2)
        for size in range(4):
            for s in combinations(range(p.v), size):
                for side in ("blocks", "points"):
                    assert first_unseparated_pair(p, s, side) == loop_unseparated(p, s, side)

    def test_random_sets_of_the_order_3_plane_match_the_loop_reference(self):
        p = pg2(3)
        rng = np.random.default_rng(11)
        for _ in range(60):
            size = int(rng.integers(0, 9))
            s = [int(x) for x in rng.choice(p.v, size=size, replace=False)]
            for side in ("blocks", "points"):
                assert first_unseparated_pair(p, s, side) == loop_unseparated(p, s, side)

    def test_unknown_side_is_rejected(self):
        with pytest.raises(BadParameters):
            first_unseparated_pair(pg2(2), [0], side="lines")

    def test_out_of_range_chooser_is_rejected(self):
        with pytest.raises(BadParameters):
            first_unseparated_pair(pg2(2), [7], side="points")
        with pytest.raises(BadParameters):
            first_unresolved_pair(bfs_distances(ZOO["petersen"]()), [10])

    def test_fewer_than_two_entities_leave_no_pair(self):
        for shape in ((0, 0), (0, 3), (1, 3)):
            assert mdim._first_unseparated(np.zeros(shape, dtype=np.uint8), []) is None

    def test_graph_and_design_checks_share_one_pair_test(self, monkeypatch):
        real = mdim._first_unseparated
        calls = []

        def spy(matrix, chosen):
            calls.append(matrix.shape)
            return real(matrix, chosen)

        monkeypatch.setattr(mdim, "_first_unseparated", spy)
        assert first_unresolved_pair(bfs_distances(ZOO["petersen"]()), [0]) == (1, 2)
        assert first_unseparated_pair(pg2(2), [0, 1, 2], "points") is not None
        assert calls == [(10, 10), (7, 7)]
