"""Symmetric designs: construction, validation, serialization, incidence
graphs, blocking sets, and polarities."""

import numpy as np
import pytest

from mdimlab import (
    BadParameters,
    DegenerateComplement,
    BudgetExceeded,
    NoSuchTriple,
    NotBijection,
    NotBipartiteDiameter3,
    NotNullPolarity,
    NotPrime,
    SymmetricDesign,
    bfs_distances,
    bipartite_double,
    design_complement,
    design_dual,
    design_from_graph,
    design_from_text,
    design_text,
    family,
    find_null_polarity,
    incidence_graph,
    intersection_array,
    is_double_blocking,
    is_null_polarity,
    pg2,
    srg_from_null_polarity,
    three_lines_2blocking,
)
from mdimlab import designs


class TestPg2:
    def test_order_2_parameters(self):
        p = pg2(2)
        assert (p.v, p.k, p.lam) == (7, 3, 1)

    def test_order_3_parameters(self):
        p = pg2(3)
        assert (p.v, p.k, p.lam) == (13, 4, 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_every_block_has_q_plus_1_points(self, q):
        p = pg2(q)
        for j in range(p.v):
            assert len(p.block_points(j)) == q + 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_two_points_lie_on_exactly_one_common_block(self, q):
        p = pg2(q)
        for x in range(p.v):
            for y in range(x + 1, p.v):
                common = set(p.point_blocks(x)) & set(p.point_blocks(y))
                assert len(common) == 1

    @pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
    def test_rejects_non_prime_order(self, q):
        with pytest.raises(NotPrime):
            pg2(q)


class TestSymmetricDesignValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(BadParameters):
            SymmetricDesign(v=3, k=2, lam=1, inc=np.zeros((3, 4), dtype=np.uint8))

    def test_rejects_non_binary_entries(self):
        inc = np.full((3, 3), 2, dtype=np.uint8)
        with pytest.raises(BadParameters):
            SymmetricDesign(v=3, k=2, lam=1, inc=inc)

    def test_rejects_inadmissible_parameters(self):
        # lam * (v - 1) must equal k * (k - 1)
        with pytest.raises(BadParameters):
            SymmetricDesign(v=7, k=3, lam=2, inc=np.zeros((7, 7), dtype=np.uint8))

    def test_rejects_a_design_without_points(self):
        # v = 0 passes every other check: an empty matrix meets both laws
        with pytest.raises(BadParameters):
            SymmetricDesign(v=0, k=0, lam=0, inc=np.zeros((0, 0), dtype=np.uint8))
        with pytest.raises(BadParameters):
            design_from_text("0 0 0\n")

    def test_rejects_incidence_violating_intersection_law(self):
        with pytest.raises(BadParameters):
            SymmetricDesign(v=7, k=3, lam=1, inc=np.zeros((7, 7), dtype=np.uint8))

    def test_incidence_matrix_is_read_only(self):
        p = pg2(2)
        with pytest.raises(ValueError):
            p.inc[0, 0] = 0

    def test_equality_compares_incidence(self):
        assert pg2(2) == pg2(2)
        assert pg2(2) != pg2(3)

    def test_repr_names_the_parameters(self):
        assert repr(pg2(2)) == "SymmetricDesign(v=7, k=3, lam=1)"


class TestDualAndComplement:
    def test_dual_transposes_incidence(self):
        p = pg2(3)
        assert (design_dual(p).inc == p.inc.T).all()

    def test_dual_is_an_involution(self):
        p = pg2(2)
        assert design_dual(design_dual(p)) == p

    def test_complement_of_order_2_plane_is_a_7_4_2_design(self):
        c = design_complement(pg2(2))
        assert (c.v, c.k, c.lam) == (7, 4, 2)

    def test_complement_is_an_involution(self):
        p = pg2(2)
        assert design_complement(design_complement(p)) == p

    def test_degenerate_complement_is_rejected(self):
        # v = k = lam with an all-ones incidence is admissible, but its
        # complement would have lam = 0
        ones = np.ones((4, 4), dtype=np.uint8)
        d = SymmetricDesign(v=4, k=4, lam=4, inc=ones)
        with pytest.raises(DegenerateComplement):
            design_complement(d)


class TestSerialization:
    def test_text_round_trip(self):
        p = pg2(3)
        assert design_from_text(design_text(p)) == p

    def test_text_layout(self):
        p = pg2(2)
        lines = design_text(p).splitlines()
        assert lines[0] == "7 3 1"
        assert len(lines) == 8
        assert all(len(row) == 7 and set(row) <= {"0", "1"} for row in lines[1:])

    def test_empty_text_is_rejected(self):
        with pytest.raises(BadParameters):
            design_from_text("")

    def test_malformed_header_is_rejected(self):
        with pytest.raises(BadParameters):
            design_from_text("7 3\n" + "0000000\n" * 7)

    def test_non_decimal_header_is_rejected(self):
        with pytest.raises(BadParameters):
            design_from_text("x y z\n")

    def test_wrong_row_count_is_rejected(self):
        with pytest.raises(BadParameters):
            design_from_text("7 3 1\n" + "0000000\n" * 6)

    def test_non_binary_row_is_rejected(self):
        good = design_text(pg2(2)).splitlines()
        good[1] = "2" + good[1][1:]
        with pytest.raises(BadParameters):
            design_from_text("\n".join(good))


class TestIncidenceGraph:
    def test_order_2_plane_gives_a_14_vertex_cubic_graph(self):
        cover = incidence_graph(pg2(2))
        g = cover.graph
        assert g.n == 14
        assert g.regular_valency() == 3
        ia = intersection_array(g)
        assert ia.b == (3, 2, 2) and ia.c == (1, 1, 3)

    def test_tags_separate_points_from_blocks(self):
        cover = incidence_graph(pg2(2))
        assert cover.tags[:7] == tuple(f"p{x}" for x in range(7))
        assert cover.tags[7:] == tuple(f"B{j}" for j in range(7))

    def test_edges_follow_the_incidence_matrix(self):
        p = pg2(2)
        g = incidence_graph(p).graph
        for x in range(7):
            assert tuple(g.neighbors(x)) == tuple(7 + j for j in p.point_blocks(x))

    def test_round_trip_through_design_from_graph(self):
        p = pg2(3)
        assert design_from_graph(incidence_graph(p).graph) == p

    def test_biplane_from_doubled_rook_graph(self):
        doubled = bipartite_double(family("rook", 4, 4)).graph
        d = design_from_graph(doubled)
        assert (d.v, d.k, d.lam) == (16, 6, 2)

    def test_design_from_graph_rejects_odd_cycles(self):
        with pytest.raises(NotBipartiteDiameter3):
            design_from_graph(family("kneser", 5, 2))

    def test_design_from_graph_rejects_wrong_diameter(self):
        with pytest.raises(NotBipartiteDiameter3):
            design_from_graph(family("cycle", 8))  # diameter 4
        with pytest.raises(NotBipartiteDiameter3):
            design_from_graph(family("complete_multipartite", 2, 4))  # diameter 2

    def test_programming_errors_are_not_reported_as_rejections(self, monkeypatch):
        import mdimlab.imprimitivity

        class Boom(Exception):
            pass

        def broken(g):
            raise Boom

        monkeypatch.setattr(mdimlab.imprimitivity, "bipartition", broken)
        with pytest.raises(Boom):
            design_from_graph(incidence_graph(pg2(2)).graph)


class TestDoubleBlocking:
    def test_whole_point_set_blocks_doubly(self):
        p = pg2(2)
        assert is_double_blocking(p, range(p.v))

    def test_empty_set_does_not(self):
        assert not is_double_blocking(pg2(2), ())

    def test_single_line_does_not(self):
        # another line meets it in only one point
        p = pg2(3)
        assert not is_double_blocking(p, p.block_points(0))

    def test_rejects_designs_with_lam_above_1(self):
        with pytest.raises(BadParameters):
            is_double_blocking(design_complement(pg2(2)), (0, 1))

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_three_line_union_has_3q_points_and_blocks_doubly(self, q):
        p = pg2(q)
        triple, union = three_lines_2blocking(p)
        assert len(union) == 3 * q
        assert is_double_blocking(p, union)
        # the three lines are pairwise non-concurrent
        i, j, k = triple
        sets = [set(p.block_points(b)) for b in (i, j, k)]
        assert not (sets[0] & sets[1] & sets[2])


class TestPolarities:
    def _biplane(self):
        return design_from_graph(bipartite_double(family("rook", 4, 4)).graph)

    def test_symmetric_zero_diagonal_incidence_admits_identity(self):
        d = self._biplane()
        assert (d.inc == d.inc.T).all() and not d.inc.diagonal().any()
        assert is_null_polarity(d, tuple(range(d.v)))

    def test_non_bijections_are_rejected(self):
        d = self._biplane()
        with pytest.raises(NotBijection):
            is_null_polarity(d, (0,) * d.v)
        with pytest.raises(NotBijection):
            is_null_polarity(d, tuple(range(d.v - 1)))

    def test_absolute_point_fails_quietly(self):
        # the identity on the order-2 plane has a self-incident point
        p = pg2(2)
        assert not is_null_polarity(p, tuple(range(7)))

    def test_search_finds_a_polarity_of_the_biplane(self):
        d = self._biplane()
        sigma = find_null_polarity(d)
        assert sigma is not None
        assert is_null_polarity(d, sigma)

    def test_planes_admit_no_null_polarity(self):
        assert find_null_polarity(pg2(2)) is None

    def test_search_budget_is_enforced(self):
        with pytest.raises(BudgetExceeded):
            find_null_polarity(self._biplane(), budget=0)

    def test_a_found_map_that_fails_the_check_is_an_error(self, monkeypatch):
        # a typed error, not an assert that python -O strips
        monkeypatch.setattr(designs, "is_null_polarity", lambda d, sigma: False)
        with pytest.raises(NotNullPolarity):
            find_null_polarity(self._biplane())

    def test_polarity_graph_is_strongly_regular(self):
        d = self._biplane()
        sigma = find_null_polarity(d)
        g = srg_from_null_polarity(d, sigma)
        ia = intersection_array(g)
        params = ia.srg_params(g.n)
        assert (params.n, params.k, params.a, params.c) == (16, 6, 2, 2)

    def test_polarity_graph_rejects_bad_sigma(self):
        with pytest.raises(NotNullPolarity):
            srg_from_null_polarity(pg2(2), tuple(range(7)))


class TestNoSuchTriple:
    def test_error_type_exists_for_planes_without_a_triple(self):
        # every plane of order >= 2 has three pairwise non-concurrent lines,
        # so only the error contract is checked here
        assert issubclass(NoSuchTriple, Exception)
