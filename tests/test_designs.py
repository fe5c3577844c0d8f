"""Symmetric designs: construction, validation, serialization, incidence
graphs, and blocking sets."""

from itertools import combinations, product

import numpy as np
import pytest

from mdimlab import (
    BadParameters,
    Graph,
    HypothesisFailure,
    NotBipartite,
    SymmetricDesign,
    bipartite_double,
    bipartition,
    design_complement,
    design_from_graph,
    design_from_text,
    design_text,
    family,
    incidence_graph,
    intersection_array,
    is_double_blocking,
    pg2,
    three_lines_2blocking,
)


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
                common = set(np.flatnonzero(p.inc[x])) & set(np.flatnonzero(p.inc[y]))
                assert len(common) == 1

    @pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
    def test_rejects_non_prime_order(self, q):
        with pytest.raises(BadParameters, match=f"^pg2 needs a prime order, got {q}$"):
            pg2(q)

    @pytest.mark.parametrize("q", [3.0, True, "3"])
    def test_rejects_a_non_integer_order(self, q):
        # a prime check fails with a BadParameters too: the message tells them apart
        with pytest.raises(BadParameters, match="must be integers"):
            pg2(q)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_matches_the_loop_reference(self, q):
        pts = sorted([(0, 0, 1)] + [(0, 1, z) for z in range(q)]
                     + [(1, y, z) for y in range(q) for z in range(q)])
        inc = np.zeros((len(pts), len(pts)), dtype=np.uint8)
        for x, (a, b, c) in enumerate(pts):
            for j, (d_, e, f) in enumerate(pts):
                if (a * d_ + b * e + c * f) % q == 0:
                    inc[x, j] = 1
        assert pg2(q).inc.dtype == np.uint8 and (pg2(q).inc == inc).all()


class TestSymmetricDesignValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(BadParameters):
            SymmetricDesign(v=3, k=2, lam=1, inc=np.zeros((3, 4), dtype=np.uint8))

    def test_rejects_non_binary_entries(self):
        inc = np.full((3, 3), 2, dtype=np.uint8)
        with pytest.raises(BadParameters):
            SymmetricDesign(v=3, k=2, lam=1, inc=inc)

    def test_checks_entries_before_the_uint8_cast(self):
        # a cast first would read 0.4 as 0 and 257 as 1, and accept both
        fractional = pg2(2).inc.astype(float)
        fractional[fractional == 0] = 0.4
        wrapped = pg2(2).inc.astype(np.int64)
        wrapped[0, np.flatnonzero(wrapped[0])[0]] += 256
        for inc in (fractional, wrapped):
            with pytest.raises(BadParameters, match="must be 0 or 1"):
                SymmetricDesign(v=7, k=3, lam=1, inc=inc)

    def test_rejects_inadmissible_parameters(self):
        # lam * (v - 1) must equal k * (k - 1)
        with pytest.raises(BadParameters):
            SymmetricDesign(v=7, k=3, lam=2, inc=np.zeros((7, 7), dtype=np.uint8))

    def test_rejects_a_design_without_points(self):
        # v = 0 passes every other check: an empty matrix meets the intersection law
        with pytest.raises(BadParameters):
            SymmetricDesign(v=0, k=0, lam=0, inc=np.zeros((0, 0), dtype=np.uint8))
        with pytest.raises(BadParameters):
            design_from_text("0 0 0\n")

    def test_rejects_non_integer_parameters(self):
        with pytest.raises(BadParameters, match="must be integers"):
            SymmetricDesign(v=True, k=True, lam=0, inc=[[1]])
        with pytest.raises(BadParameters, match="must be integers"):
            SymmetricDesign(v=7.0, k=3, lam=1, inc=pg2(2).inc)

    def test_rejects_admissible_parameters_beyond_int64(self):
        # (2, 2^40, 2^80 - 2^40) is admissible; its lam fits no int64
        k = 2**40
        with pytest.raises(BadParameters, match="rows do not meet the"):
            SymmetricDesign(v=2, k=k, lam=k * (k - 1), inc=np.ones((2, 2), np.uint8))

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



def small_incidences():
    """(v, k, lam, matrices): every 0/1 matrix of v <= 5 whose rows all
    sum to k, for each admissible (v, k, lam); lam is free at v = 1, and
    0 and 1 stand for it there."""
    for v in range(1, 6):
        for k in range(v + 1):
            if v == 1:
                lams = (0, 1)
            elif k * (k - 1) % (v - 1) == 0:
                lams = (k * (k - 1) // (v - 1),)
            else:
                continue
            rows = np.zeros((len(list(combinations(range(v), k))), v), np.uint8)
            for i, members in enumerate(combinations(range(v), k)):
                rows[i, list(members)] = 1
            picks = np.array(list(product(range(len(rows)), repeat=v)))
            for lam in lams:
                yield v, k, lam, rows[picks]


def meets_the_law(mats: np.ndarray, k: int, lam: int) -> np.ndarray:
    """Per matrix: any two rows share lam columns and every row has k."""
    v = mats.shape[1]
    shared = (mats[:, :, None, :] & mats[:, None, :, :]).sum(axis=3)
    want = np.where(np.eye(v, dtype=bool), k, lam)
    return (shared == want).all(axis=(1, 2))


class TestIntersectionLaw:
    def test_every_small_matrix_is_judged_by_its_rows_alone(self):
        seen = accepted = 0
        for v, k, lam, mats in small_incidences():
            rows_meet = meets_the_law(mats, k, lam)
            columns_meet = meets_the_law(mats.transpose(0, 2, 1), k, lam)
            assert columns_meet[rows_meet].all(), (v, k, lam)
            for inc, meets in zip(mats, rows_meet):
                if meets:
                    assert (SymmetricDesign(v=v, k=k, lam=lam, inc=inc).inc == inc).all()
                else:
                    with pytest.raises(BadParameters, match="rows do not meet the"):
                        SymmetricDesign(v=v, k=k, lam=lam, inc=inc)
            seen += len(mats)
            accepted += int(rows_meet.sum())
        assert (seen, accepted) == (6832, 314)

    def test_relabelled_designs_and_their_complements_are_accepted(self):
        rng = np.random.default_rng(52)
        biplane = design_from_graph(bipartite_double(family("rook", 4, 4)))
        for base in (pg2(2), pg2(3), pg2(5), pg2(7), biplane):
            for d in (base, design_complement(base)):
                inc = d.inc[rng.permutation(d.v)][:, rng.permutation(d.v)]
                relabelled = SymmetricDesign(v=d.v, k=d.k, lam=d.lam, inc=inc)
                assert meets_the_law(relabelled.inc.T[None], d.k, d.lam).all()
                flipped = inc.copy()
                flipped[tuple(rng.integers(d.v, size=2))] ^= 1
                with pytest.raises(BadParameters, match="rows do not meet the"):
                    SymmetricDesign(v=d.v, k=d.k, lam=d.lam, inc=flipped)

class TestDualAndComplement:
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
        with pytest.raises(BadParameters, match="would have lambda = 0"):
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

    @pytest.mark.parametrize("head", ["+7 3 1", "7 3 0_1", "7 \u0663 1", "7\u20033 1"])
    def test_header_must_be_ascii_decimal(self, head):
        # int() and str.split() would read each of these as 7 3 1
        rows = design_text(pg2(2)).splitlines()[1:]
        with pytest.raises(BadParameters, match="ASCII decimal"):
            design_from_text("\n".join([head, *rows]))

    def test_wrong_row_count_is_rejected(self):
        with pytest.raises(BadParameters):
            design_from_text("7 3 1\n" + "0000000\n" * 6)

    def test_non_ascii_space_around_a_row_is_rejected(self):
        good = design_text(pg2(2)).splitlines()
        good[1] = "\u00a0" + good[1]  # str.strip() would drop it
        with pytest.raises(BadParameters, match="ASCII"):
            design_from_text("\n".join(good))

    def test_non_binary_row_is_rejected(self):
        good = design_text(pg2(2)).splitlines()
        good[1] = "2" + good[1][1:]
        with pytest.raises(BadParameters):
            design_from_text("\n".join(good))


class TestIncidenceGraph:
    def test_order_2_plane_gives_a_14_vertex_cubic_graph(self):
        cover = incidence_graph(pg2(2))
        g = cover
        assert g.n == 14
        assert g.regular_valency() == 3
        ia = intersection_array(g)
        assert ia.b == (3, 2, 2) and ia.c == (1, 1, 3)

    def test_points_meet_only_blocks(self):
        # points are 0..v-1, blocks v..2v-1
        g = incidence_graph(pg2(2))
        for x in range(7):
            assert all(w >= 7 for w in g.neighbors(x))
        for j in range(7, 14):
            assert all(w < 7 for w in g.neighbors(j))

    def test_edges_follow_the_incidence_matrix(self):
        p = pg2(2)
        g = incidence_graph(p)
        for x in range(7):
            assert tuple(g.neighbors(x)) == tuple(7 + j for j in np.flatnonzero(p.inc[x]))

    def test_round_trip_through_design_from_graph(self):
        p = pg2(3)
        assert design_from_graph(incidence_graph(p)) == p

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_designs_match_the_loop_references(self, seed):
        # points and blocks shuffled separately, so inc is not symmetric
        rng = np.random.default_rng(seed)
        biplane = design_from_graph(bipartite_double(family("rook", 4, 4)))
        for d in (pg2(2), pg2(3), design_complement(pg2(3)), biplane):
            inc = d.inc[rng.permutation(d.v)][:, rng.permutation(d.v)]
            shuffled = SymmetricDesign(v=d.v, k=d.k, lam=d.lam, inc=inc)
            g = incidence_graph(shuffled)
            edges = [(x, d.v + j) for x in range(d.v) for j in np.flatnonzero(shuffled.inc[x])]
            assert g == Graph.from_edges(2 * d.v, edges)
            back = np.zeros((d.v, d.v), dtype=np.uint8)
            plus, minus = bipartition(g)
            pos = {p: i for i, p in enumerate(minus)}
            for i, x in enumerate(plus):
                for w in g.neighbors(x):
                    back[i, pos[w]] = 1
            assert (design_from_graph(g).inc == back).all()
            assert design_from_graph(g) == shuffled

    def test_biplane_from_doubled_rook_graph(self):
        doubled = bipartite_double(family("rook", 4, 4))
        d = design_from_graph(doubled)
        assert (d.v, d.k, d.lam) == (16, 6, 2)
        # rook(4,4) is its own design: the incidence is symmetric with zero diagonal
        assert (d.inc == d.inc.T).all() and not d.inc.diagonal().any()

    def test_design_from_graph_rejects_odd_cycles(self):
        with pytest.raises(NotBipartite, match="^not bipartite: odd closed walk "):
            design_from_graph(family("kneser", 5, 2))

    def test_design_from_graph_rejects_wrong_diameter(self):
        with pytest.raises(HypothesisFailure, match="^diameter is 4, not 3$"):
            design_from_graph(family("cycle", 8))
        with pytest.raises(HypothesisFailure, match="^diameter is 2, not 3$"):
            design_from_graph(family("complete_multipartite", 2, 4))

    def test_programming_errors_are_not_reported_as_rejections(self, monkeypatch):
        import mdimlab.designs

        class Boom(Exception):
            pass

        def broken(g):
            raise Boom

        monkeypatch.setattr(mdimlab.designs, "bipartition", broken)
        with pytest.raises(Boom):
            design_from_graph(incidence_graph(pg2(2)))


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

    @pytest.mark.parametrize("s", [[x + 0.5 for x in range(7)], "0123456"])
    def test_rejects_non_integer_points(self, s):
        # int() would truncate each point or read each character as one
        with pytest.raises(BadParameters, match="must be integers"):
            is_double_blocking(pg2(2), s)

    def test_rejects_designs_with_lam_above_1(self):
        d = design_complement(pg2(2))
        planes_only = "double blocking sets are defined for projective planes"
        with pytest.raises(BadParameters, match=planes_only):
            is_double_blocking(d, (0, 1))
        with pytest.raises(BadParameters, match=planes_only):
            three_lines_2blocking(d)

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


class TestNoSuchTriple:
    def test_a_design_with_one_line_has_no_triple(self):
        # every plane of order >= 2 has three pairwise non-concurrent lines;
        # the admissible (1, 1, 1) design has a single line
        with pytest.raises(BadParameters, match="^no three pairwise non-concurrent lines found$"):
            three_lines_2blocking(SymmetricDesign(1, 1, 1, [[1]]))
