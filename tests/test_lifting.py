"""Constructive transfers of resolving sets between a graph and its
quotients, halves, doubles, and two-fold covers."""

import random
import sys
from itertools import combinations

import pytest

from mdimlab import (
    BadParameters,
    DisconnectedGraph,
    Graph,
    HypothesisFailure,
    InputNotResolving,
    LabeledCover,
    NotAntipodal,
    NotBipartite,
    NotDistanceRegular,
    antipodal_structure,
    bfs_distances,
    bipartition,
    classify_ah,
    descendant_extract,
    double_lift,
    family,
    fold,
    incidence_graph,
    intersection_array,
    is_resolving,
    lift_folded,
    halve,
    lift_halved,
    mdim_exact,
    mdim_greedy,
    pg2,
    project_to_folded,
    push_to_plus,
    taylor,
    taylor_lift,
    two_antipodal_partition,
)
from mdimlab import mdim as mdim_module
from mdimlab.cover import build_instance, min_cover
from mdimlab.mdim import pair_cover_instance
from mdimlab.zoo import ZOO


class TestTwoAntipodalPartition:
    def test_valid_transversal_returns_the_involution(self):
        g = family("hypercube", 3)
        plus, inv = two_antipodal_partition(g, [0, 1, 2, 4])
        assert plus == frozenset({0, 1, 2, 4})
        for v in range(8):
            assert inv[v] == v ^ 7  # complementary vertex
            assert (v in plus) != (inv[v] in plus)

    def test_pair_on_one_side_is_rejected(self):
        with pytest.raises(HypothesisFailure, match=r"pair \(0, 7\) is not split"):
            two_antipodal_partition(family("hypercube", 3), [0, 7, 1, 2])

    def test_wrong_sized_transversal_is_rejected(self):
        with pytest.raises(HypothesisFailure, match=r"pair \(3, 4\) is not split"):
            two_antipodal_partition(family("hypercube", 3), [0, 1, 2])

    def test_non_antipodal_graph_is_rejected(self):
        with pytest.raises(NotAntipodal, match="component containing 1 is not a clique"):
            two_antipodal_partition(ZOO["petersen"](), [0, 1, 2, 3, 4])

    @pytest.mark.parametrize("side", [[0, 1, 2, 4.5], "0124"])
    def test_non_integer_vertices_are_rejected(self, side):
        with pytest.raises(BadParameters, match="must be integers"):
            two_antipodal_partition(family("hypercube", 3), side)

    def test_larger_classes_are_rejected(self):
        with pytest.raises(HypothesisFailure, match="^antipodal classes have size 4, not 2$"):
            two_antipodal_partition(
                family("complete_multipartite", 3, 4), range(6)
            )


def scan_antipodes(g: Graph) -> dict[int, int] | None:
    """The antipode of each vertex, read off the distance-d graph one
    vertex at a time; None unless every vertex has exactly one."""
    dm = g.distances
    if dm.diameter is None or dm.diameter < 2:
        return None
    antipode = {}
    for v, far in enumerate(dm.layer(dm.diameter)):
        if far.bit_count() != 1:
            return None
        antipode[v] = far.bit_length() - 1
    return antipode


def antipode_inputs():
    yield from ((name, build()) for name, build in ZOO.items())
    yield "Q_5", family("hypercube", 5)
    yield "C_8", family("cycle", 8)
    yield "K_3x4", family("complete_multipartite", 3, 4)  # t = 4
    yield "taylor_paley_13", taylor(family("paley", 13)).graph
    yield "path_and_vertex", Graph.from_edges(4, [(0, 1), (1, 2)])
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        p = rng.uniform(0.2, 0.9)
        edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
        yield f"random_{seed}", Graph.from_edges(n, edges)


class TestAntipodesAgainstTheScan:
    def test_same_verdict_and_involution_as_the_scan(self):
        accepted = rejected = 0
        for name, g in antipode_inputs():
            want = scan_antipodes(g)
            if want is None:
                with pytest.raises(HypothesisFailure, match="antipod|not a clique"):
                    two_antipodal_partition(g, [0])
                rejected += 1
                continue
            side = [v for v, w in want.items() if v < w]
            plus, inv = two_antipodal_partition(g, side)
            assert plus == frozenset(side), name
            assert inv == want, name
            accepted += 1
        # Q_3, C_6, Q_5, C_8, the covers and doubles on one side; K_4
        # (d = 1), 2K_3 (disconnected) and K_3x4 (t = 4) on the other
        assert accepted >= 10 and rejected >= 10


class TestPushToPlus:
    def test_minus_members_are_replaced_by_antipodes(self):
        g = family("hypercube", 3)
        plus, _ = bipartition(g)  # at odd diameter this is a transversal
        r = mdim_exact(g).set
        pushed = push_to_plus(g, plus, r)
        assert pushed.status == "verified-resolving"
        assert pushed.method == "lifted-push"
        assert set(pushed.set) <= set(plus)
        assert len(pushed.set) == len(r)
        assert is_resolving(bfs_distances(g), pushed.set)

    def test_already_plus_sets_pass_through(self):
        g = family("cycle", 6)
        pushed = push_to_plus(g, [0, 1, 2], [0, 1])
        assert pushed.set == (0, 1)

    def test_non_resolving_input_is_rejected(self):
        g = family("cycle", 6)
        with pytest.raises(InputNotResolving):
            push_to_plus(g, [0, 1, 2], [0, 3])


class TestLiftHalved:
    @pytest.mark.parametrize(
        "dim,expected",
        [(3, 6), (4, 8)],
    )
    def test_hypercube_lifts_have_the_sum_size(self, dim, expected):
        g = family("hypercube", dim)
        cert = lift_halved(g, _half_minimum(g, 0), _half_minimum(g, 1))
        assert cert.status == "verified-resolving"
        assert cert.method == "lifted-halving"
        assert len(cert.set) == expected
        assert is_resolving(bfs_distances(g), cert.set)

    def test_output_uses_original_labels(self):
        g = family("hypercube", 3)
        cert = lift_halved(g, [0, 1, 2], [0, 1, 2])
        plus, minus = bipartition(g)
        mapped = {plus[i] for i in (0, 1, 2)} | {minus[i] for i in (0, 1, 2)}
        assert set(cert.set) == mapped

    def test_non_resolving_half_is_rejected(self):
        with pytest.raises(InputNotResolving):
            lift_halved(family("hypercube", 3), [0], [0, 1, 2])

    def test_two_trivial_halves_are_rejected(self):
        # K_2 halves into two single vertices, each resolved by the empty set
        with pytest.raises(HypothesisFailure, match="both halves are trivial"):
            lift_halved(family("complete", 2), [], [])

    def test_reuses_the_halves_the_caller_solved(self, monkeypatch):
        import mdimlab.imprimitivity

        real_bfs, real_bipartition = bfs_distances, bipartition
        searched, split = [], []

        def counting_bfs(g):
            searched.append(g)
            return real_bfs(g)

        def counting_bipartition(g):
            split.append(g)
            return real_bipartition(g)

        for name, module in list(sys.modules.items()):
            if name.startswith("mdimlab") and getattr(module, "bfs_distances", None) is real_bfs:
                monkeypatch.setattr(module, "bfs_distances", counting_bfs)
        monkeypatch.setattr(mdimlab.imprimitivity, "bipartition", counting_bipartition)
        g = family("hypercube", 6)
        plus, minus, _, _ = halve(g)
        lift_halved(g, mdim_greedy(plus).set, mdim_greedy(minus).set)
        assert (len(searched), len(split)) == (3, 1)


def _half_minimum(g, side: int):
    halves = halve(g)
    return mdim_exact(halves[side]).set


class TestLiftFolded:
    def test_odd_diameter_needs_no_extra_class(self):
        out = lift_folded(family("hypercube", 3), [0, 1, 2])
        assert out.case == "ii"
        assert out.center is None
        # classes are complementary pairs; the non-representative members
        # of classes 0, 1, 2 are 7, 6, 5
        assert out.certificate.set == (5, 6, 7)

    def test_diameter_three_cover_of_the_five_cycle(self):
        out = lift_folded(ZOO["icosahedron"](), [0, 1, 2, 3, 4])
        assert out.case == "ii"
        assert len(out.certificate.set) == 5

    def test_even_diameter_without_a_far_vertex(self):
        out = lift_folded(family("hypercube", 4), [0, 1, 2, 3, 4, 5])
        assert out.case == "ii"
        assert len(out.certificate.set) == 6

    def test_small_multipartite_adds_a_center_class(self):
        out = lift_folded(family("complete_multipartite", 2, 3), [0])
        assert out.case == "iii"
        assert out.center == 1
        assert out.certificate.set == (1, 2, 4, 5)

    def test_larger_multipartite_matches_the_formula(self):
        # folded quotient is a triangle; two classes resolve it, and the
        # far class is added: 3 * (4 - 1) vertices in total
        out = lift_folded(family("complete_multipartite", 3, 4), [0, 1])
        assert out.case == "iii"
        assert len(out.certificate.set) == 9

    def test_certificates_resolve_the_cover(self):
        for build, r_bar in (
            (lambda: family("hypercube", 3), (0, 1, 2)),
            (lambda: family("complete_multipartite", 3, 4), (0, 1)),
        ):
            g = build()
            out = lift_folded(g, r_bar)
            assert is_resolving(bfs_distances(g), out.certificate.set)

    def test_quotient_set_must_resolve_the_quotient(self):
        with pytest.raises(InputNotResolving):
            lift_folded(family("complete_multipartite", 3, 4), [0])

    def test_the_graphs_own_structure_changes_nothing(self):
        # the benchmark's large-n items pass the structure positionally
        for g, r_bar in (
            (family("hypercube", 3), (0, 1, 2)),
            (family("complete_multipartite", 3, 4), (0, 1)),
        ):
            assert lift_folded(g, r_bar, antipodal_structure(g)) == lift_folded(g, r_bar)


class TestProjectToFolded:
    def test_cube_projects_onto_the_complete_graph(self):
        g = family("hypercube", 3)
        plus, _ = bipartition(g)
        pushed = push_to_plus(g, plus, mdim_exact(g).set)
        folded_g, qmap, cert = project_to_folded(g, pushed.set)
        assert folded_g.n == 4
        assert cert.method == "lifted-projection"
        assert is_resolving(bfs_distances(folded_g), cert.set)
        assert len(cert.set) <= len(pushed.set)

    def test_quotient_map_matches_fold(self):
        g = family("cycle", 6)
        pushed = push_to_plus(g, bipartition(g)[0], mdim_exact(g).set)
        _, qmap, _ = project_to_folded(g, pushed.set)
        _, expected = fold(g)
        assert qmap == expected

    def test_even_diameter_is_rejected(self):
        with pytest.raises(HypothesisFailure, match="^projection needs odd diameter$"):
            project_to_folded(family("hypercube", 4), (0, 1, 2, 4))

    def test_non_bipartite_input_is_rejected(self):
        with pytest.raises(NotBipartite, match="^not bipartite: odd closed walk "):
            project_to_folded(ZOO["icosahedron"](), (0, 1, 2))

    def test_non_antipodal_input_is_rejected(self):
        # the Heawood graph: bipartite of odd diameter 3, not antipodal
        heawood = incidence_graph(pg2(2)).graph
        with pytest.raises(NotAntipodal, match="component containing 7 is not a clique"):
            project_to_folded(heawood, [0])

    def test_set_off_the_plus_side_is_rejected_before_resolving(self):
        # {1} is neither on vertex 0's side nor resolving; the side wins
        with pytest.raises(HypothesisFailure, match="side of vertex 0; push it first"):
            project_to_folded(family("hypercube", 3), iter([1]))

    def test_programming_errors_are_not_reported_as_hypotheses(self, monkeypatch):
        import mdimlab.lifting

        class Boom(Exception):
            pass

        def broken(g):
            raise Boom

        monkeypatch.setattr(mdimlab.lifting, "bipartition", broken)
        with pytest.raises(Boom):
            project_to_folded(family("hypercube", 3), (0,))


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def _icosahedron_minus_edges_off_the_pole() -> list[Graph]:
    """taylor(C_5) less one edge, for each of the 25 edges that miss the
    plus pole 10: every result keeps the pole layout."""
    g = taylor(family("cycle", 5)).graph
    kept = list(g.edges())
    return [Graph.from_edges(12, [e for e in kept if e != cut])
            for cut in kept if 10 not in cut]


def _petersen_line_graph() -> Graph:
    edges = list(family("odd", 3).edges())
    return Graph.from_edges(15, [(i, j) for i, j in combinations(range(15), 2)
                                 if set(edges[i]) & set(edges[j])])


class TestTaylorLift:
    def test_pole_plus_local_set_resolves_the_cover(self):
        cov = taylor(family("cycle", 5))
        cert = taylor_lift(cov, [0, 1])
        assert cert.method == "lifted-taylor"
        assert len(cert.set) == 3
        assert 10 in cert.set  # the plus pole 2n
        assert is_resolving(bfs_distances(cov.graph), cert.set)

    def test_quadratic_residue_cover(self):
        base = family("paley", 13)
        cov = taylor(base)
        r = mdim_exact(base).set
        cert = taylor_lift(cov, r)
        assert len(cert.set) == len(r) + 1
        assert is_resolving(bfs_distances(cov.graph), cert.set)

    def test_non_resolving_local_set_is_rejected(self):
        with pytest.raises(InputNotResolving):
            taylor_lift(taylor(family("cycle", 5)), [0])

    def test_covers_without_poles_are_rejected(self):
        # the Heawood graph is distance-regular of diameter 3, not antipodal
        with pytest.raises(NotAntipodal):
            taylor_lift(incidence_graph(pg2(2)), [0, 1])

    @pytest.mark.parametrize("g", [
        pytest.param(family("hypercube", 4), id="Q_4"),
        pytest.param(_petersen_line_graph(), id="petersen_line_graph"),
    ])
    def test_a_diameter_or_class_size_off_taylor_is_rejected(self, g):
        # Q_4 has diameter 4; the line graph of Petersen, diameter 3, has
        # antipodal classes of size 3
        with pytest.raises(HypothesisFailure, match="taylor lift needs diameter 3"):
            taylor_lift(LabeledCover(graph=g), [0, 1])

    @pytest.mark.parametrize("k", range(25))
    def test_a_cover_short_of_an_edge_is_rejected(self, k):
        # each keeps the pole layout, so only the structural check tells
        # it from a Taylor graph
        h = _icosahedron_minus_edges_off_the_pole()[k]
        with pytest.raises(NotDistanceRegular):
            taylor_lift(LabeledCover(graph=h), [0, 1])

    def test_a_cover_with_the_wrong_pole_layout_is_rejected(self):
        # Q_3 is 2-antipodal of diameter 3; vertex 6 sees 2, 4 and 7
        with pytest.raises(HypothesisFailure, match="plus pole is not adjacent"):
            taylor_lift(LabeledCover(graph=family("hypercube", 3)), [0, 1])

    def test_a_relabelled_cover_is_rejected(self):
        g = _relabelled(taylor(family("cycle", 5)).graph, 3)
        assert tuple(g.neighbors(10)) != tuple(range(5))
        with pytest.raises(HypothesisFailure, match="plus pole is not adjacent"):
            taylor_lift(LabeledCover(graph=g), [0, 1])


class TestDescendantExtract:
    def test_local_set_comes_from_a_minimum_set_through_the_chosen_vertex(self):
        g = taylor(family("cycle", 5)).graph
        inst = pair_cover_instance(bfs_distances(g))
        res = min_cover(inst, forced=[0])
        local, vmap, cert = descendant_extract(g, res.chosen, 0)
        assert local.n == 5  # valency of the cover
        assert cert.method == "lifted-descendant"
        assert is_resolving(bfs_distances(local), cert.set)
        assert len(cert.set) == len(res.chosen) - 1
        # the map sends local ids onto neighbors of the chosen vertex
        assert set(vmap) <= set(g.neighbors(0))

    def test_a_relabelled_taylor_graph_is_read_as_a_graph(self):
        g = _relabelled(taylor(family("paley", 13)).graph, 7)
        best = mdim_exact(g)
        assert best.status == "minimum"
        x = best.set[-1]
        local, vmap, cert = descendant_extract(g, best.set, x)
        assert vmap == tuple(g.neighbors(x))
        assert is_resolving(bfs_distances(local), cert.set)
        assert len(cert.set) == best.mu - 1

    def test_chosen_vertex_must_be_in_the_set(self):
        g = taylor(family("cycle", 5)).graph
        with pytest.raises(BadParameters):
            descendant_extract(g, (1, 2, 3), 0)

    def test_the_input_set_is_certified_once(self, monkeypatch):
        # push_to_plus checks that the set resolves the cover; descendant_extract
        # does not check it again
        import mdimlab.lifting

        g = taylor(family("cycle", 5)).graph
        calls = []
        real = mdim_module.certify

        def spy(g, s, method="supplied"):
            s = tuple(s)
            calls.append((method, s))
            return real(g, s, method)

        monkeypatch.setattr(mdim_module, "certify", spy)
        monkeypatch.setattr(mdimlab.lifting, "certify", spy)
        descendant_extract(g, (0, 1, 2), 0)
        assert [method for method, _ in calls] == [
            "supplied", "lifted-push", "lifted-descendant"
        ]
        assert calls[0] == ("supplied", (0, 1, 2))

    @pytest.mark.parametrize("x", [0.0, True])
    def test_chosen_vertex_must_be_an_integer(self, x):
        # True used to mean vertex 1
        g = taylor(family("cycle", 5)).graph
        res = min_cover(pair_cover_instance(bfs_distances(g)), forced=[0, 1])
        with pytest.raises(BadParameters, match="must be integers"):
            descendant_extract(g, res.chosen, x)


class TestDoubleLift:
    def test_both_copies_of_a_resolving_set(self):
        base = family("rook", 4, 4)
        r = mdim_exact(base).set
        cover, cert = double_lift(base, r)
        assert cover.graph.n == 32
        assert len(cert.set) == 2 * len(r)
        assert set(cert.set) == {v for v in r} | {v + 16 for v in r}
        assert is_resolving(bfs_distances(cover.graph), cert.set)

    def test_unequal_intersection_numbers_are_rejected(self):
        with pytest.raises(HypothesisFailure, match="doubling transfer needs .* with a = c"):
            double_lift(ZOO["petersen"](), (0, 1, 3))

    def test_non_resolving_base_set_is_rejected(self):
        with pytest.raises(InputNotResolving):
            double_lift(family("rook", 4, 4), (0, 1))


def is_odd_closed_walk(g: Graph, walk: tuple[int, ...]) -> bool:
    return (
        len(walk) % 2 == 0 and walk[0] == walk[-1]
        and all(g.has_edge(u, w) for u, w in zip(walk, walk[1:]))
    )


# (ZOO graph, the call that fails on it, the error class, its message);
# a NotBipartite message names its witness, an odd closed walk
FAILED_HYPOTHESES = [
    pytest.param("C_7", lambda g: lift_halved(g, [0], [0]), NotBipartite, None,
                 id="lift_halved-C_7"),
    pytest.param("icosahedron", lambda g: project_to_folded(g, (0, 1, 2)),
                 NotBipartite, None, id="project_to_folded-icosahedron"),
    pytest.param("C_7", lambda g: lift_folded(g, [0]), NotAntipodal,
                 "distance-3 component containing 3 is not a clique",
                 id="lift_folded-C_7"),
    pytest.param("petersen", lambda g: push_to_plus(g, range(5), (0, 1, 2)),
                 NotAntipodal, "distance-2 component containing 1 is not a clique",
                 id="push_to_plus-petersen"),
    pytest.param("heawood", lambda g: project_to_folded(g, [0]), NotAntipodal,
                 "distance-3 component containing 7 is not a clique",
                 id="project_to_folded-heawood"),
    pytest.param("K_3x4", lambda g: two_antipodal_partition(g, range(6)),
                 HypothesisFailure, "antipodal classes have size 4, not 2",
                 id="two_antipodal_partition-K_3x4"),
    pytest.param("K_4", taylor, HypothesisFailure,
                 "taylor construction needs a strongly regular graph with k = 2c",
                 id="taylor-K_4"),
    pytest.param("petersen", lambda g: double_lift(g, (0, 1, 3)), HypothesisFailure,
                 "doubling transfer needs a strongly regular graph with a = c",
                 id="double_lift-petersen"),
    # (0, 1, 2) is a minimum resolving set of taylor(C_5) through x = 0, and
    # 6 is the antipode of 1: the superset resolves but pushing collides
    pytest.param("C_5", lambda g: descendant_extract(taylor(g).graph, (0, 1, 2, 6), 0),
                 HypothesisFailure,
                 "pushing collided two antipodes; the input set was not minimum",
                 id="descendant_extract-taylor_C_5"),
    pytest.param("2K_3", intersection_array, DisconnectedGraph,
                 "intersection array needs a connected graph",
                 id="intersection_array-2K_3"),
]


class TestFailedHypotheses:
    @pytest.mark.parametrize("name, call, kind, message", FAILED_HYPOTHESES)
    def test_raises_a_hypothesis_failure(self, name, call, kind, message):
        g = ZOO[name]()
        with pytest.raises(kind) as info:
            call(g)
        exc = info.value
        assert type(exc) is kind
        assert isinstance(exc, HypothesisFailure) and not isinstance(exc, RuntimeError)
        if kind is NotBipartite:
            assert is_odd_closed_walk(g, exc.witness)
            message = f"not bipartite: odd closed walk {list(exc.witness)}"
        assert str(exc) == message

    def test_the_superset_in_the_descendant_row_resolves(self):
        g = taylor(ZOO["C_5"]()).graph
        assert is_resolving(bfs_distances(g), (0, 1, 2, 6))
        assert antipodal_structure(g).classes[1] == (1, 6)
        assert mdim_exact(g).mu == 3


class TestStructureStageBuildsOnlyWords:
    """Greedy sets and their lifts read no cover layer beyond the packed
    words: they make no search, which builds the coverage ints, the
    static separator counts and the separator sets."""

    def test_halve_fold_and_taylor_lifts(self, monkeypatch, searches):
        built = []

        def keep(matrix):
            built.append(build_instance(matrix))
            return built[-1]

        monkeypatch.setattr(mdim_module, "build_instance", keep)
        g = family("hypercube", 6)  # bipartite and antipodal
        cls = classify_ah(g)
        assert cls.bipartite and cls.antipodal
        mdim_greedy(g)
        plus, minus, _, _ = halve(g)
        lift_halved(g, mdim_greedy(plus).set, mdim_greedy(minus).set)
        structure = antipodal_structure(g)
        folded, _ = fold(g, structure)
        lift_folded(g, mdim_greedy(folded).set, structure)
        base = family("paley", 13)
        taylor_lift(taylor(base), mdim_greedy(base).set)
        assert len(built) == 5 and searches == []
