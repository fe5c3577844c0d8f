"""Constructive transfers of resolving sets between a graph and its
quotients, halves, doubles, and two-fold covers."""

import sys

import pytest

from mdimlab import (
    BadParameters,
    HypothesisFailure,
    InputNotResolving,
    NotTwoAntipodal,
    ParameterFailure,
    bfs_distances,
    bipartition,
    descendant_extract,
    double_lift,
    family,
    fold,
    incidence_graph,
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
from mdimlab.cover import min_cover
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
        with pytest.raises(NotTwoAntipodal):
            two_antipodal_partition(family("hypercube", 3), [0, 7, 1, 2])

    def test_wrong_sized_transversal_is_rejected(self):
        with pytest.raises(NotTwoAntipodal):
            two_antipodal_partition(family("hypercube", 3), [0, 1, 2])

    def test_non_antipodal_graph_is_rejected(self):
        with pytest.raises(NotTwoAntipodal):
            two_antipodal_partition(ZOO["petersen"](), [0, 1, 2, 3, 4])

    def test_larger_classes_are_rejected(self):
        with pytest.raises(NotTwoAntipodal):
            two_antipodal_partition(
                family("complete_multipartite", 3, 4), range(6)
            )


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
        with pytest.raises(HypothesisFailure):
            project_to_folded(family("hypercube", 4), (0, 1, 2, 4))

    def test_non_bipartite_input_is_rejected(self):
        with pytest.raises(HypothesisFailure):
            project_to_folded(ZOO["icosahedron"](), (0, 1, 2))

    def test_set_off_the_plus_side_is_rejected_before_resolving(self):
        # {1} is neither on vertex 0's side nor resolving; the side wins
        with pytest.raises(HypothesisFailure):
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


class TestTaylorLift:
    def test_pole_plus_local_set_resolves_the_cover(self):
        cov = taylor(family("cycle", 5))
        cert = taylor_lift(cov, [0, 1])
        assert cert.method == "lifted-taylor"
        assert len(cert.set) == 3
        pole_plus = cov.tags.index("inf+")
        assert pole_plus in cert.set
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
        with pytest.raises(HypothesisFailure):
            taylor_lift(incidence_graph(pg2(2)), [0, 1])


class TestDescendantExtract:
    def test_local_set_comes_from_a_minimum_set_through_the_chosen_vertex(self):
        cov = taylor(family("cycle", 5))
        inst = pair_cover_instance(bfs_distances(cov.graph))
        res = min_cover(inst, forced=[0])
        local, vmap, cert = descendant_extract(cov, res.chosen, 0)
        assert local.n == 5  # valency of the cover
        assert cert.method == "lifted-descendant"
        assert is_resolving(bfs_distances(local), cert.set)
        assert len(cert.set) == len(res.chosen) - 1
        # the map sends local ids onto neighbors of the chosen vertex
        assert set(vmap) <= set(cov.graph.neighbors(0))

    def test_chosen_vertex_must_be_in_the_set(self):
        cov = taylor(family("cycle", 5))
        with pytest.raises(BadParameters):
            descendant_extract(cov, (1, 2, 3), 0)


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
        with pytest.raises(ParameterFailure):
            double_lift(ZOO["petersen"](), (0, 1, 3))

    def test_non_resolving_base_set_is_rejected(self):
        with pytest.raises(InputNotResolving):
            double_lift(family("rook", 4, 4), (0, 1))
