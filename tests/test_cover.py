"""The pair-separation set-cover engine: instance construction, greedy
seeding, and exact branch and bound."""

import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from mdimlab import (
    BadParameters,
    CoverResult,
    PairCoverInstance,
    bipartite_double,
    build_instance,
    family,
    greedy_cover,
    mdim_exact,
    mdim_greedy,
    min_cover,
    taylor,
)
from mdimlab.cover import (
    SCHREIER_BLOCK,
    _open_items,
    _orbital_roots,
    _Search,
    _stabiliser_orbits,
    is_symmetry,
    orbit_partition,
    root_symmetries,
)
from mdimlab import cover
from mdimlab import mdim as mdim_module
from mdimlab.mdim import semi_cover_instance, twin_forced_choices
from mdimlab.verify import run_suite
from mdimlab.designs import incidence_graph, pg2
from mdimlab.graphs import Graph, iter_bits
from mdimlab.zoo import SOLVABLE, ZOO

# one root with an empty start: a search made with it closes only the items
# that every chooser separates
WHOLE = [([], 0)]


def every_item_search(inst: PairCoverInstance, budget: int = 0) -> _Search:
    """A search under WHOLE that keeps every item, _open_items stubbed out
    as in TestOpenItems, so its layers are indexed by all the pairs."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cover, "_open_items", lambda inst, roots: None)
        return _Search(inst, budget=budget, lower_stop=0, roots=WHOLE)


def word_rows(inst: PairCoverInstance) -> tuple[int, ...]:
    """The rows of inst.words as little-endian ints."""
    return tuple(int.from_bytes(row.tobytes(), "little") for row in inst.words)


def brute_minimum(inst: PairCoverInstance) -> int | None:
    all_items = (1 << inst.n_items) - 1
    coverage = word_rows(inst)
    for size in range(inst.n_choosers + 1):
        for sub in combinations(range(inst.n_choosers), size):
            cov = 0
            for v in sub:
                cov |= coverage[v]
            if cov == all_items:
                return size
    return None


def covers_everything(inst: PairCoverInstance, chosen) -> bool:
    coverage = word_rows(inst)
    cov = 0
    for v in chosen:
        cov |= coverage[v]
    return cov == (1 << inst.n_items) - 1


def reference_build(matrix: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-column builder: the pair list from combinations, every coverage
    row and every separator column packed on its own."""

    def pack(arr) -> int:
        return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")

    items = list(combinations(range(matrix.shape[1]), 2))
    sep = np.array(
        [[row[i] != row[j] for i, j in items] for row in matrix], dtype=bool
    ).reshape(matrix.shape[0], len(items))
    coverage = tuple(pack(sep[v]) for v in range(matrix.shape[0]))
    resolvers = tuple(pack(sep[:, p]) for p in range(len(items)))
    return coverage, resolvers


def builder_matrices() -> list[np.ndarray]:
    """Seeded random matrices of many shapes and dtypes, views, the
    solvable zoo, and matrices without choosers or items."""
    rng = np.random.default_rng(7)
    matrices = [rng.integers(0, 4, size=(int(rng.integers(1, 12)), int(rng.integers(0, 12))))
                for _ in range(30)]
    matrices += [rng.integers(0, 3, size=(130, 9)), rng.integers(0, 2, size=(70, 66))]
    matrices += [np.zeros((5, c), dtype=np.uint8) for c in (0, 1, 2)]
    matrices.append(np.asarray(pg2(3).inc).T)  # a non-contiguous view
    matrices += [np.asarray(ZOO[name]().distances.dist) for name in sorted(SOLVABLE)]
    matrices += [rng.integers(-3, 3, size=(9, 10), dtype=np.int8),
                 np.array([[-128, 127, -1], [0, -1, 127]], dtype=np.int8)]
    matrices += [np.zeros((0, c), dtype=np.uint8) for c in (0, 1, 5)]
    matrices.append(np.asfortranarray(rng.integers(0, 3, size=(13, 17))))
    # a disconnected graph: unreachable entries hold the 255 sentinel
    path_and_edge = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    matrices.append(np.asarray(path_and_edge.distances.dist))
    assert matrices[-1].max() == 255
    # resolver widths across byte and word boundaries
    matrices.append(rng.integers(0, 3, size=(259, 23)))
    matrices += [rng.integers(0, 2, size=(7, 9)).astype(bool),
                 rng.integers(0, 3, size=(6, 8)) * 10**12]
    # item (0, 1) has a separator in every row: 256 and 300 overflow a byte
    for rows in (256, 300):
        m = rng.integers(0, 3, size=(rows, 6))
        m[:, 1] = m[:, 0] + 1
        matrices.append(m)
    return matrices


def assert_words(inst: PairCoverInstance, coverage: tuple[int, ...]) -> None:
    """inst.words holds coverage, as uint64 rows of whole words, zero past
    the last item."""
    assert inst.words.dtype == np.uint64
    assert inst.words.shape == (inst.n_choosers, -(-inst.n_items // 64))
    assert word_rows(inst) == coverage
    assert all(row >> inst.n_items == 0 for row in word_rows(inst))


def assert_static_layers(inst: PairCoverInstance, coverage, resolvers) -> None:
    """A fresh search on inst has the separator sets, item groups and
    chooser order of the per-column builder's coverage and resolvers."""
    counts = [r.bit_count() for r in resolvers]
    search = every_item_search(inst)
    assert tuple(map(search._resolver, range(inst.n_items))) == resolvers
    assert search.item_groups == tuple(
        sum(1 << p for p, c in enumerate(counts) if c == k) for k in sorted(set(counts))
    )
    cov_counts = [c.bit_count() for c in coverage]
    assert search.cov_counts == cov_counts
    assert search.chooser_order == sorted(
        range(inst.n_choosers), key=lambda v: (-cov_counts[v], v)
    )


def search_layers(inst: PairCoverInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """coverage and every resolver of a fresh search on inst."""
    search = every_item_search(inst)
    return tuple(search.coverage), tuple(map(search._resolver, range(inst.n_items)))


class TestBuildInstance:
    def test_items_are_lexicographic_column_pairs(self):
        # column 3 differs from the rest, so the items touching it are the
        # pairs (i, 3) at their lexicographic positions 2, 4 and 5
        m = np.array([[0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.uint8)
        inst = build_instance(m)
        assert inst.n_entities == 4 and inst.n_items == 6
        pairs = list(combinations(range(4), 2))
        assert [pairs[p] for p in iter_bits(word_rows(inst)[0])] == [(0, 3), (1, 3), (2, 3)]

    def test_coverage_marks_separated_pairs(self):
        # row 0 distinguishes columns 0 and 1 only
        m = np.array([[0, 1, 0], [2, 2, 3]])
        inst = build_instance(m)
        assert inst.n_items == 3  # pairs (0,1), (0,2), (1,2)
        assert word_rows(inst)[0] == 0b101  # pairs (0,1) and (1,2)
        assert word_rows(inst)[1] == 0b110  # pairs (0,2) and (1,2)

    def test_resolvers_transpose_coverage(self):
        rng = np.random.default_rng(0)
        inst = build_instance(rng.integers(0, 3, size=(6, 5)))
        coverage, resolvers = search_layers(inst)
        for v in range(inst.n_choosers):
            for p in range(inst.n_items):
                assert bool(coverage[v] >> p & 1) == bool(resolvers[p] >> v & 1)

    def test_single_column_has_no_items(self):
        inst = build_instance(np.zeros((3, 1), dtype=np.uint8))
        assert inst.n_items == 0

    def test_matches_the_per_column_builder(self):
        for m in builder_matrices():
            inst = build_instance(m)
            coverage, resolvers = search_layers(inst)
            assert (coverage, resolvers) == reference_build(m)
            assert_words(inst, coverage)
            assert (inst.n_choosers, inst.n_entities) == m.shape
            assert inst.n_items == inst.n_entities * (inst.n_entities - 1) // 2

    def test_one_word_chunks_match_the_per_column_builder(self, monkeypatch):
        # a budget under 128 bytes makes every chunk one word of items, in
        # build_instance and in the search's column sums alike
        monkeypatch.setattr(cover, "PACK_BYTES", 64)
        rng = np.random.default_rng(8)
        # 12 entities: the chunk edge at item 64 cuts entity 9's block
        # (63, 65); 150: entity 0's block of 149 items crosses two edges;
        # 128 and 129 entities: whole chunks, 127 and 130: one item more
        matrices = [rng.integers(0, 3, size=(5, 12)), rng.integers(0, 3, size=(3, 150)),
                    rng.integers(0, 2, size=(2, 128)), rng.integers(0, 2, size=(2, 129)),
                    rng.integers(0, 2, size=(2, 127)), rng.integers(0, 2, size=(2, 130))]
        matrices += [np.zeros((0, c), dtype=np.uint8) for c in (0, 1, 2, 12)]
        matrices += [rng.integers(0, 3, size=(4, c)) for c in (0, 1, 2)]
        for m in builder_matrices() + matrices:
            coverage, resolvers = reference_build(m)
            inst = build_instance(m)
            assert_words(inst, coverage)
            assert_static_layers(inst, coverage, resolvers)

    @pytest.mark.parametrize("matrix", [
        np.zeros(4, dtype=np.uint8),
        np.zeros((2, 3, 4), dtype=np.uint8),
        [[0, 1], [1, 0]],
        np.array([[0.0, np.nan], [1.0, np.nan]]),
    ], ids=["1-D", "3-D", "list", "float-nan"])
    def test_rejects_a_matrix_that_is_no_2d_int_array(self, matrix):
        with pytest.raises(BadParameters, match="2-D numpy array of ints or bools"):
            build_instance(matrix)

    def test_words_are_read_only(self):
        # an instance that mdim keeps with its graph is shared by every
        # solve of that graph, so no reader may write into it
        inst = build_instance(np.asarray(family("hypercube", 5).distances.dist))
        for view in (inst.words, inst.words.view(np.uint8), inst.words[1:]):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 0

    @pytest.mark.parametrize("per_root_items", [cover.PER_ROOT_ITEMS, 0])
    def test_a_read_only_instance_solves_as_a_writeable_copy(self, monkeypatch, per_root_items):
        monkeypatch.setattr(cover, "PER_ROOT_ITEMS", per_root_items)
        rng = np.random.default_rng(49)
        for m in (np.asarray(family("hypercube", 5).distances.dist),
                  rng.integers(0, 3, size=(12, 12))):
            inst = build_instance(m)
            writeable = replace(inst, words=inst.words.copy())
            assert writeable.words.flags.writeable
            assert greedy_cover(inst) == greedy_cover(writeable)
            got, want = min_cover(inst), min_cover(writeable)
            assert (got, got.generators) == (want, want.generators)
            items = np.arange(0, inst.n_items, 3)
            assert np.array_equal(cover._open_words(inst.words, items),
                                  cover._open_words(writeable.words, items))

    def test_the_working_set_is_words_and_one_chunk(self):
        # the whole bool block at Q_8 would be 8 MiB past words
        m = np.asarray(family("hypercube", 8).distances.dist)
        tracemalloc.start()
        try:
            inst = build_instance(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the slack holds the packed copy of a chunk (an eighth of it) and
        # small temporaries
        assert peak <= inst.words.nbytes + cover.PACK_BYTES + cover.PACK_BYTES // 8 + 2**16


# the attributes of an instance: it keeps no layer of its own
STORED = {"n_choosers", "n_entities", "matrix", "words", "seeds"}


def lazy_shapes(rng) -> list[tuple[int, int]]:
    """Seeded random shapes, chooser counts on and off byte and word
    boundaries, and instances with 0 and 1 items."""
    shapes = [(int(rng.integers(1, 70)), int(rng.integers(2, 14))) for _ in range(25)]
    return shapes + [(9, 0), (9, 1), (9, 2), (1, 6), (7, 5), (64, 9), (65, 9), (259, 7), (0, 4)]


class TestLayersOnFirstRead:
    """build_instance stores matrix and words alone; a search builds the
    layers it reads, and min_cover makes one only when there is a tree to
    search, so an answer that needs none builds nothing past words."""

    def test_greedy_reads_only_words(self, searches):
        rng = np.random.default_rng(5)
        inst = build_instance(rng.integers(0, 3, size=(20, 15)))
        greedy_cover(inst)
        assert searches == []
        min_cover(inst)  # the guard sees the search that a solve makes
        assert searches == [inst]

    def test_mdim_greedy_builds_only_words(self, monkeypatch, searches):
        built = []

        def keep(matrix):
            built.append(build_instance(matrix))
            return built[-1]

        monkeypatch.setattr(mdim_module, "build_instance", keep)
        mdim_greedy(family("hypercube", 5))
        assert len(built) == 1 and searches == []

    def test_a_search_that_never_runs_reads_nothing(self, searches):
        # a seed that meets lower_stop, or a budget of 0, is returned
        # without a search
        inst = build_instance(np.asarray(family("hypercube", 5).distances.dist))
        seed = greedy_cover(inst)
        res = min_cover(inst, lower_stop=len(seed))
        assert res.optimal and res.nodes == 0
        res = min_cover(inst, budget=0)
        assert not res.optimal and res.nodes == 0
        assert searches == []

    def test_a_budgeted_search_converts_only_the_items_it_reads(self):
        inst = build_instance(np.asarray(family("hypercube", 6).distances.dist))
        _, want = reference_build(np.asarray(inst.matrix))
        search = every_item_search(inst, budget=40)
        res = search.run(seed=greedy_cover(inst))
        assert res.nodes == 40 and not res.optimal
        read = [p for p, r in enumerate(search.resolvers) if r is not None]
        assert 0 < len(read) < inst.n_items // 10
        assert all(search.resolvers[p] == want[p] for p in read)
        assert set(vars(inst)) == STORED

    def test_lazy_rows_match_the_per_column_builder(self):
        rng = np.random.default_rng(11)
        for shape in lazy_shapes(rng):
            m = rng.integers(0, 3, size=shape)
            _, want = reference_build(m)
            inst = build_instance(m)
            search = every_item_search(inst)
            # read half the items in a random order: only they are converted
            order = rng.permutation(inst.n_items).tolist()
            half = order[: len(order) // 2]
            for p in half:
                # with item p alone uncovered and nothing banned, the pivot
                # is the separator set of p
                assert search._pick_pivot(1 << p, 0) == want[p]
            assert [p for p, r in enumerate(search.resolvers) if r is not None] == sorted(half)
            for p in order:
                assert search._completable(1 << p, 0) == bool(want[p])
            assert search.resolvers == list(want)
            assert set(vars(inst)) == STORED

    def test_a_search_reads_only_words(self):
        # every layer of the search comes from words: without its matrix
        # the instance gives the same tree, node for node
        inst = build_instance(np.asarray(family("hypercube", 6).distances.dist))
        seed = greedy_cover(inst)
        want = _Search(inst, budget=10**8, lower_stop=0, roots=WHOLE).run(seed)
        blind = replace(inst, matrix=None)
        got = _Search(blind, budget=10**8, lower_stop=0, roots=WHOLE).run(seed)
        assert got == want and got.nodes == 14_026

    def test_the_set_up_working_set_is_words_twice_and_one_chunk(self):
        inst = build_instance(np.asarray(family("hypercube", 8).distances.dist))
        tracemalloc.start()
        try:
            _Search(inst, budget=0, lower_stop=0, roots=WHOLE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the coverage ints and the bytes they are read from hold words
        # twice; one unpacked chunk of items and small temporaries fit in
        # the rest
        assert peak <= 2 * inst.words.nbytes + cover.PACK_BYTES + 2**16

    def test_the_every_item_set_up_working_set_is_words_twice_and_one_chunk(self):
        # Q_8 is bipartite, so under WHOLE its cross pairs are cut; with
        # every item kept the search reads words itself, within one bound
        inst = build_instance(np.asarray(family("hypercube", 8).distances.dist))
        tracemalloc.start()
        try:
            search = every_item_search(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert search.all_items == (1 << inst.n_items) - 1 and search.closed == 0
        assert peak <= 2 * inst.words.nbytes + cover.PACK_BYTES + 2**16

    @staticmethod
    def cut_set_up(inst: PairCoverInstance) -> tuple[_Search, int]:
        """A search under the orbital roots of inst, run to a node budget
        of 0, and the traced peak of making and running it."""
        seed = greedy_cover(inst)
        roots = _orbital_roots(inst, root_symmetries(inst, seed))
        tracemalloc.start()
        try:
            search = _Search(inst, budget=0, lower_stop=0, roots=roots)
            assert search.run(seed).nodes == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return search, peak

    def test_the_cut_set_up_working_set_is_words_twice_and_one_chunk(self):
        # under the orbital roots of Q_8 each root's open columns are
        # gathered a chunk at a time when the search enters it, within the
        # bound of a search that keeps them all; a budget of 0 stops the
        # search in its first root
        inst = build_instance(np.asarray(family("hypercube", 8).distances.dist))
        search, peak = self.cut_set_up(inst)
        assert search.per_root and len(search.resolvers) == 3_304
        assert peak <= 2 * inst.words.nbytes + cover.PACK_BYTES + 2**16

    def test_the_union_cut_set_up_working_set_is_words_twice_and_one_chunk(self, monkeypatch):
        # the same, with the open columns of all roots gathered at once
        monkeypatch.setattr(cover, "PER_ROOT_ITEMS", 6_307)
        inst = build_instance(np.asarray(family("hypercube", 8).distances.dist))
        search, peak = self.cut_set_up(inst)
        assert not search.per_root and len(search.resolvers) == 6_307
        assert peak <= 2 * inst.words.nbytes + cover.PACK_BYTES + 2**16

    def test_static_counts_match_bit_count(self):
        rng = np.random.default_rng(12)
        for shape in lazy_shapes(rng):
            m = rng.integers(0, int(rng.integers(2, 5)), size=shape)
            assert_static_layers(build_instance(m), *reference_build(m))

    def test_equality_is_identity(self):
        m = np.array([[0, 1, 2], [1, 1, 0]])
        inst = build_instance(m)
        assert inst == inst and inst != build_instance(m)


class TestGreedyCover:
    def test_result_covers_everything(self):
        rng = np.random.default_rng(1)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        assert covers_everything(inst, greedy_cover(inst))

    def test_forced_choosers_stay_in_the_answer(self):
        rng = np.random.default_rng(2)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        out = greedy_cover(inst, forced=[5])
        assert out[0] == 5
        assert covers_everything(inst, out)

    def test_identical_columns_are_infeasible(self):
        m = np.array([[1, 1], [2, 2]])
        inst = build_instance(m)
        with pytest.raises(BadParameters):
            greedy_cover(inst)

    def test_pairs_and_no_chooser_are_infeasible(self):
        inst = build_instance(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(BadParameters):
            greedy_cover(inst)
        assert greedy_cover(build_instance(np.zeros((0, 1), dtype=np.uint8))) == []

    def test_ties_break_toward_low_ids(self):
        # both rows separate the single pair; greedy must pick row 0
        m = np.array([[0, 1], [0, 1]])
        inst = build_instance(m)
        assert greedy_cover(inst) == [0]

    @pytest.mark.parametrize("forced", [[-1], [6], [0.5], ["0"]])
    def test_a_forced_entry_that_is_no_chooser_id_is_rejected(self, forced):
        inst = build_instance(np.asarray(family("cycle", 6).distances.dist))
        with pytest.raises(BadParameters):
            greedy_cover(inst, forced=forced)


def reference_greedy(inst: PairCoverInstance, forced=()) -> list[int] | None:
    """The big-integer greedy that greedy_cover's popcount over inst.words
    replaced: a scan over every chooser per step, strict improvement only,
    so the lowest id wins a tie.  None when some item has no separator."""
    all_items = (1 << inst.n_items) - 1
    coverage = word_rows(inst)
    chosen = list(forced)
    covered = 0
    for v in chosen:
        covered |= coverage[v]
    while covered != all_items:
        best_v = -1
        best_gain = 0
        for v in range(inst.n_choosers):
            gain = (coverage[v] & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            return None
        chosen.append(best_v)
        covered |= coverage[best_v]
    return chosen


class TestGreedyMatchesTheReference:
    def check(self, inst: PairCoverInstance, forced=()) -> list[int] | None:
        want = reference_greedy(inst, forced)
        if want is None:
            with pytest.raises(BadParameters):
                greedy_cover(inst, forced)
        else:
            assert greedy_cover(inst, forced) == want
        return want

    def test_seeded_random_instances(self):
        # row counts past one 64-bit word, item counts on and off word
        # boundaries (12 entities give 66 items), and 0 to 4 letters, so
        # some instances are infeasible
        rng = np.random.default_rng(22)
        shapes = [(70, 12), (130, 9), (65, 12), (8, 12), (3, 12), (40, 17), (20, 2)]
        shapes += [(int(rng.integers(1, 140)), int(rng.integers(1, 25))) for _ in range(40)]
        infeasible = 0
        for rows, cols in shapes:
            inst = build_instance(rng.integers(0, int(rng.integers(1, 5)), size=(rows, cols)))
            infeasible += self.check(inst) is None
            forced = rng.integers(0, rows, size=int(rng.integers(1, 4))).tolist()
            self.check(inst, forced)
        assert infeasible

    def test_single_entity_has_nothing_to_cover(self):
        inst = build_instance(np.zeros((5, 1), dtype=np.uint8))
        assert greedy_cover(inst) == reference_greedy(inst) == []
        assert greedy_cover(inst, forced=[3, 3]) == [3, 3]

    def test_repeated_forced_entries(self):
        rng = np.random.default_rng(5)
        inst = build_instance(rng.integers(0, 3, size=(90, 12)))
        for forced in ([7, 7], [0, 89, 0, 89], [3, 3, 3]):
            assert self.check(inst, forced)[: len(forced)] == forced

    def test_all_tied_columns(self):
        # identical rows, or one column apart per row, tie at every step,
        # which the lowest id wins; with two letters the pairs inside a
        # letter class have no separator
        distinct = np.arange(12)
        assert self.check(build_instance(np.tile(distinct, (70, 1)))) == [0]
        assert self.check(build_instance(np.eye(70, 12, dtype=np.uint8))) == list(range(11))
        assert self.check(build_instance(np.tile(distinct % 2, (70, 1)))) is None

    def test_zoo_distance_instances(self):
        for name in sorted(SOLVABLE):
            inst = build_instance(np.asarray(ZOO[name]().distances.dist))
            self.check(inst)


class TestGreedySeedsAreKept:
    """greedy_cover keeps what it adds to each forced set in inst.seeds, so
    a later call with the same set computes nothing."""

    def test_each_call_returns_a_fresh_list(self):
        rng = np.random.default_rng(3)
        inst = build_instance(rng.integers(0, 3, size=(8, 9)))
        first = greedy_cover(inst, forced=[2])
        want = list(first)
        first.append(7)
        second = greedy_cover(inst, forced=[2])
        assert second == want and second is not greedy_cover(inst, forced=[2])

    def test_seeds_are_keyed_by_the_forced_set(self):
        # each answer is that of a fresh instance, whatever was asked before
        rng = np.random.default_rng(4)
        m = rng.integers(0, 3, size=(12, 10))
        inst = build_instance(m)
        for _ in range(40):
            forced = rng.integers(0, 12, size=int(rng.integers(0, 4))).tolist()
            assert greedy_cover(inst, forced) == greedy_cover(build_instance(m), forced)
        assert len(inst.seeds) > 5
        assert all(isinstance(key, frozenset) for key in inst.seeds)
        # one set in two orders shares its seed, after the forced ones as given
        assert greedy_cover(inst, [3, 5])[2:] == greedy_cover(inst, [5, 3, 5])[3:]

    @pytest.mark.parametrize("m", [np.array([[1, 1], [2, 2]]), np.zeros((0, 3), dtype=np.uint8)])
    def test_an_infeasible_instance_raises_on_every_call(self, m):
        inst = build_instance(m)
        for _ in range(3):
            with pytest.raises(BadParameters):
                greedy_cover(inst)
        assert inst.seeds == {}

    def test_mdim_exact_reuses_the_seed_of_mdim_greedy(self):
        g = family("hypercube", 5)  # twin-free: mdim_exact forces nothing
        assert twin_forced_choices(g) == []
        assert len(mdim_greedy(g).set) == 4
        inst = mdim_module._instance(g)
        kept = inst.seeds[frozenset()]
        cert = mdim_exact(g)  # the greedy 4 is above the root bound: a search
        assert (len(cert.set), cert.status, cert.nodes_explored) == (4, "minimum", 5)
        # a second computation would have stored a tuple of its own
        assert list(inst.seeds) == [frozenset()] and inst.seeds[frozenset()] is kept


class TestMinCover:
    def test_matches_brute_force_on_random_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            inst = build_instance(rng.integers(0, 3, size=(7, 6)))
            want = brute_minimum(inst)
            if want is None:
                continue
            got = min_cover(inst)
            assert got.optimal
            assert len(got.chosen) == want
            assert covers_everything(inst, got.chosen)

    def test_chosen_is_sorted_and_contains_forced(self):
        rng = np.random.default_rng(3)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        got = min_cover(inst, forced=[6])
        assert 6 in got.chosen
        assert list(got.chosen) == sorted(got.chosen)

    def test_forced_set_that_already_covers_is_returned_as_is(self):
        m = np.array([[0, 1, 2], [0, 0, 1]])
        inst = build_instance(m)
        got = min_cover(inst, forced=[0])
        assert got == CoverResult(chosen=(0,), nodes=0, optimal=True)

    def test_no_items_needs_no_choosers(self):
        inst = build_instance(np.zeros((3, 1), dtype=np.uint8))
        got = min_cover(inst)
        assert got.chosen == () and got.optimal

    def test_spent_budget_downgrades_to_upper_bound(self):
        rng = np.random.default_rng(5)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        got = min_cover(inst, budget=0)
        assert not got.optimal
        assert covers_everything(inst, got.chosen)  # still a verified cover

    @pytest.mark.parametrize("budget", [0, 5])
    def test_a_spent_budget_counts_exactly_its_nodes(self, budget):
        # the budget is checked before a node is counted, so budget 0
        # searches no node and budget B stops after B
        inst = build_instance(np.asarray(family("hypercube", 6).distances.dist))
        got = min_cover(inst, budget=budget)
        assert (got.nodes, got.optimal) == (budget, False)

    def test_negative_budget_is_rejected(self):
        inst = build_instance(np.array([[0, 1, 2], [0, 0, 1]]))
        with pytest.raises(BadParameters):
            min_cover(inst, budget=-1)
        with pytest.raises(BadParameters):  # before the forced early return
            min_cover(inst, forced=[0], budget=-1)

    # unchecked, 0.5 and 3.5 never equal the node count and search to the
    # end, None raises TypeError, and True reads as 1
    @pytest.mark.parametrize("budget", [0.5, 3.5, None, True, np.float64(3.0)])
    def test_a_budget_that_is_not_an_int_is_rejected(self, budget):
        inst = build_instance(np.asarray(family("hypercube", 6).distances.dist))
        with pytest.raises(BadParameters):
            min_cover(inst, budget=budget)

    # unchecked, -1 would index the last chooser and come back as a chosen
    # id, 7 would raise IndexError and 0.5 TypeError
    @pytest.mark.parametrize("forced", [[-1], [7], [0.5], [np.float64(1.0)]])
    def test_a_forced_entry_that_is_no_chooser_id_is_rejected(self, forced):
        inst = build_instance(np.asarray(family("cycle", 6).distances.dist))
        with pytest.raises(BadParameters):
            min_cover(inst, forced=forced)

    # unchecked, None and "2" raise TypeError from max(), and 1.5 and True
    # are taken as bounds
    @pytest.mark.parametrize("lower_stop", [None, "2", 1.5, True])
    def test_a_lower_stop_that_is_not_an_int_is_rejected(self, lower_stop):
        inst = build_instance(np.asarray(family("cycle", 6).distances.dist))
        with pytest.raises(BadParameters, match="must be integers"):
            min_cover(inst, lower_stop=lower_stop)

    def test_lower_stop_accepts_the_greedy_answer(self):
        rng = np.random.default_rng(7)
        inst = build_instance(rng.integers(0, 3, size=(8, 7)))
        opt = len(min_cover(inst).chosen)
        early = min_cover(inst, lower_stop=opt)
        assert early.optimal and len(early.chosen) == opt


def brute_minimum_with(inst: PairCoverInstance, forced) -> int | None:
    """Least size of a cover containing the forced choosers."""
    rest = [v for v in range(inst.n_choosers) if v not in forced]
    for size in range(len(rest) + 1):
        for sub in combinations(rest, size):
            if covers_everything(inst, [*forced, *sub]):
                return len(forced) + size
    return None


def group_closure(gens) -> set[tuple[int, ...]]:
    """Every element of the permutation group the generators generate."""
    n = len(gens[0])
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        h = todo.pop()
        for g in gens:
            gh = tuple(g[h[x]] for x in range(n))
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


def bits(members) -> int:
    return sum(1 << v for v in members)


class TestRootSymmetry:
    """min_cover's orbital root: 0 forced with the least member of each
    stabiliser orbit of 0 in turn, then the orbit of 0 banned."""

    @staticmethod
    def circulant_of(f) -> PairCoverInstance:
        # row i is row 0 = f shifted by i, so the shift x -> x + 1 is a
        # symmetry that carries chooser 0 to every chooser
        n = len(f)
        return build_instance(np.array([[f[(j - i) % n] for j in range(n)]
                                        for i in range(n)]))

    @classmethod
    def circulant(cls, rng, n: int) -> PairCoverInstance:
        return cls.circulant_of(rng.integers(0, 3, size=n))

    @staticmethod
    def reflection(n: int) -> list[int]:
        return [-x % n for x in range(n)]

    @staticmethod
    def shift(n: int) -> list[int]:
        return [(x + 1) % n for x in range(n)]

    def test_full_orbit_matches_brute_force_and_keeps_the_root(self):
        rng = np.random.default_rng(12)
        for n in range(4, 10):
            inst = self.circulant(rng, n)
            if brute_minimum(inst) is None:
                continue
            got = min_cover(inst, symmetries=[self.shift(n)])
            assert got.optimal and len(got.chosen) == brute_minimum(inst)
            assert covers_everything(inst, got.chosen)
            if got.nodes:  # the search beat the greedy seed with 0 forced
                assert 0 in got.chosen

    def test_dihedral_orbits_match_brute_force(self):
        # a symmetric row 0 lets the reflection x -> -x act too, so the
        # stabiliser of 0 has the orbits {k, -k}
        rng = np.random.default_rng(21)
        for n in range(4, 11):
            for _ in range(3):
                half = rng.integers(0, 3, size=n // 2 + 1)
                f = [half[min(k, n - k)] for k in range(n)]
                inst = self.circulant_of(f)
                want = brute_minimum(inst)
                if want is None:
                    continue
                got = min_cover(inst, symmetries=[self.shift(n), self.reflection(n)])
                assert got.optimal and len(got.chosen) == want
                assert covers_everything(inst, got.chosen)

    def test_the_banned_branch_finds_what_the_forced_one_cannot(self):
        # greedy takes four choosers, the optimum three, and no optimum
        # contains chooser 0; {0} is its orbit under the identity, so only
        # the second branch, with 0 banned, can reach the optimum
        m = np.array([[1, 1, 1, 0, 1, 0], [1, 0, 0, 1, 0, 0], [0, 1, 0, 1, 1, 0],
                      [0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 0, 1], [0, 1, 0, 1, 0, 0]])
        inst = build_instance(m)
        assert len(greedy_cover(inst)) == 4 and brute_minimum(inst) == 3
        got = min_cover(inst, symmetries=[list(range(6))])
        assert got.optimal and got.chosen == (3, 4, 5)

    def test_a_permutation_that_is_no_symmetry_is_rejected(self):
        # without the check, forcing 0 would lose the optimum of the
        # banned-branch instance above
        m = np.array([[1, 1, 1, 0, 1, 0], [1, 0, 0, 1, 0, 0], [0, 1, 0, 1, 1, 0],
                      [0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 0, 1], [0, 1, 0, 1, 0, 0]])
        inst = build_instance(m)
        assert not is_symmetry(inst, self.shift(6))
        with pytest.raises(BadParameters):
            min_cover(inst, symmetries=[self.shift(6)])

    def test_a_forced_root_changes_nothing(self):
        # an empty list of symmetries leaves a forced search as it is
        rng = np.random.default_rng(4)
        inst = self.circulant(rng, 8)
        assert min_cover(inst, forced=[0], symmetries=()) == min_cover(inst, forced=[0])

    def test_a_symmetry_that_moves_a_forced_chooser_is_rejected(self):
        rng = np.random.default_rng(4)
        inst = self.circulant(rng, 8)
        assert is_symmetry(inst, self.shift(8))
        with pytest.raises(BadParameters, match="no chooser is forced"):
            min_cover(inst, forced=[0], symmetries=[self.shift(8)])

    def test_symmetries_with_forced_choosers_are_rejected(self):
        # the orbital root is proved for an empty forced set only, so even
        # the identity, which moves no chooser, is refused with one
        rng = np.random.default_rng(4)
        inst = self.circulant(rng, 8)
        with pytest.raises(BadParameters, match="no chooser is forced"):
            min_cover(inst, forced=[0], symmetries=[list(range(8))])

    def test_a_float_permutation_is_rejected(self):
        # np.asarray(..., dtype=np.intp) would truncate it to the shift
        rng = np.random.default_rng(4)
        inst = self.circulant(rng, 8)
        with pytest.raises(BadParameters):
            min_cover(inst, symmetries=[[float(x) for x in self.shift(8)]])
        with pytest.raises(BadParameters):
            min_cover(inst, symmetries=[[x + 0.25 for x in self.shift(8)]])
        assert min_cover(inst, symmetries=[np.array(self.shift(8))]).optimal

    def test_is_symmetry_rejects_a_float_permutation(self):
        # each entry truncates to the identity on C_6
        inst = build_instance(np.asarray(family("cycle", 6).distances.dist))
        assert is_symmetry(inst, [0, 1, 2, 3, 4, 5])
        with pytest.raises(BadParameters, match="must be integers"):
            is_symmetry(inst, [0.9, 1.9, 2.9, 3.9, 4.9, 5.9])

    @pytest.mark.parametrize("perm", [
        [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5, 0], [0, 0, 1, 2, 3, 4], [-1, 0, 1, 2, 3, 4],
        [-6, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 60],
    ], ids=["short", "long", "duplicate", "negative", "negative-wrapping", "out-of-range",
            "far-out-of-range"])
    def test_a_list_that_is_no_permutation_is_no_symmetry(self, perm):
        # the gather runs only after the permutation test, so no entry
        # indexes the matrix; -6 would wrap to 0 and gather the identity
        m = np.asarray(family("cycle", 6).distances.dist)
        assert not cover._is_symmetry(m, np.array(perm, dtype=np.intp))
        assert not is_symmetry(build_instance(m), perm)

    def test_only_square_instances_have_symmetries(self):
        inst = build_instance(np.array([[0, 1, 2], [0, 0, 1]]))
        assert not is_symmetry(inst, [0, 1])
        assert not is_symmetry(inst, [0, 1, 2])
        assert root_symmetries(inst, [0]) == ()

    def test_a_later_orbit_holds_the_only_optima(self):
        # the distance matrix of the circulant graph on Z_8 with jumps 1, 2
        # and 4: the dihedral group acts, and the stabiliser of 0 has the
        # orbits {1, 7}, {2, 6}, {3, 5} and {4}.  No optimal cover holds 0
        # and 1, and greedy is one above the optimum, so only a later
        # orbit's child can reach it.
        inst = self.circulant_of([0, 1, 1, 2, 1, 2, 1, 1])
        gens = [self.shift(8), self.reflection(8)]
        assert len(greedy_cover(inst)) == 4 and brute_minimum(inst) == 3
        assert brute_minimum_with(inst, [0, 1]) == 4
        assert _orbital_roots(inst, gens) == [
            ([0, 1], 0), ([0, 2], bits([1, 7])), ([0, 3], bits([1, 7, 2, 6])),
            ([0], bits([1, 7, 2, 6, 3, 5])),
        ]
        got = min_cover(inst, symmetries=gens)
        assert got.optimal and len(got.chosen) == 3 and 0 in got.chosen
        assert covers_everything(inst, got.chosen)

    def test_a_forced_set_on_q4_matches_brute_force(self):
        inst = build_instance(np.asarray(family("hypercube", 4).distances.dist))
        forced = [3, 12]
        got = min_cover(inst, forced=forced)
        assert got.optimal and len(got.chosen) == brute_minimum_with(inst, forced)
        assert {3, 12} <= set(got.chosen) and covers_everything(inst, got.chosen)

    def test_chooser_zero_alone_is_a_cover(self):
        # row 0 has distinct entries, so it separates every pair; then only
        # the identity fixes 0 (it would have to keep row 0), and the one
        # child forces 0 with nothing banned
        inst = self.circulant_of(list(range(7)))
        roots = _orbital_roots(inst, [self.shift(7)])
        assert roots == [([0], 0)]
        got = min_cover(inst, symmetries=[self.shift(7)])
        assert got.chosen == (0,) and got.optimal
        got = _Search(inst, budget=100, lower_stop=0, roots=roots).run(seed=[1, 2])
        assert got.chosen == (0,) and got.optimal

    def test_stabiliser_orbits_match_the_enumerated_group(self):
        # Schreier generators against the whole group, on random generators
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(60):
            n = int(rng.integers(2, 7))
            gens = [rng.permutation(n).tolist() for _ in range(int(rng.integers(1, 3)))]
            group = group_closure(gens)
            # one class for row 0, so the join never stops early
            orbit, labels = _stabiliser_orbits(np.array(gens), np.zeros(n))
            assert sorted(orbit) == sorted({h[0] for h in group})
            stab = [h for h in group if h[0] == 0]
            assert labels.tolist() == [min(h[x] for h in stab) for x in range(n)]
            kinds.add((len(orbit) == n, len(set(labels.tolist())) < n))
        assert len(kinds) == 4, kinds

    def test_stabiliser_orbits_over_several_blocks_match_the_enumerated_group(self):
        # dihedral groups on 20 to 40 points, alone or beside a cyclic group
        # on more points, regular products of two cyclic groups, and cyclic
        # groups on an m-cycle beside a k-cycle, each relabelled; the orbit
        # of 0 spans several Schreier blocks.  In the last kind, only the
        # last orbit point gives a Schreier generator other than the
        # identity, g^m, which moves the k-cycle when m is no multiple of k.
        rng = np.random.default_rng(35)

        def cycles(m, k):
            return [[(x + 1) % m for x in range(m)] + [m + (x + 1) % k for x in range(k)]]

        def dihedral(m, k):
            shift = [(x + 1) % m for x in range(m)] + [m + (x + 1) % k for x in range(k)]
            flip = [-x % m for x in range(m)] + list(range(m, m + k))
            return [shift, flip]

        def cyclic_product(a, b):  # Z_a x Z_b on the points a*j + i
            return [[a * j + (i + 1) % a for j in range(b) for i in range(a)],
                    [a * ((j + 1) % b) + i for j in range(b) for i in range(a)]]

        groups = [dihedral(m, 0) for m in (20, 27, 40)]
        groups += [dihedral(24, 5), dihedral(17, 6), cyclic_product(4, 5), cyclic_product(3, 7)]
        groups += [cycles(20, 3), cycles(33, 6), cycles(18, 4)]
        for gens in groups:
            n = len(gens[0])
            # point x is relabelled q[x], and 0 stays in the largest orbit
            q = [0, *(1 + rng.permutation(n - 1)).tolist()]
            gens = [[q[g[x]] for x in np.argsort(q).tolist()] for g in gens]
            group = group_closure(gens)
            orbit, labels = _stabiliser_orbits(np.array(gens), np.zeros(n))
            assert sorted(orbit) == sorted({h[0] for h in group})
            assert len(orbit) > SCHREIER_BLOCK
            stab = [h for h in group if h[0] == 0]
            assert labels.tolist() == [min(h[x] for h in stab) for x in range(n)]

    def test_the_join_stops_at_the_classes_of_row_zero(self):
        # on Q_6 the stabiliser orbits are the distance classes of 0, over
        # several blocks of orbit points, whether or not the join stops early
        g = family("hypercube", 6)
        gens = np.array(mdim_exact(g).generators)
        dist0 = np.asarray(g.distances.dist)[0]
        assert len(gens) and 64 > SCHREIER_BLOCK
        orbit, labels = _stabiliser_orbits(gens, dist0)
        _, full = _stabiliser_orbits(gens, np.zeros(64))
        assert len(orbit) == 64 and labels.tolist() == full.tolist()
        assert labels.tolist() == [x if x == 0 else (1 << int(dist0[x])) - 1
                                   for x in range(64)]

    def test_the_orbit_is_closed_under_the_generators(self):
        # each point's least orbit-mate
        assert orbit_partition(np.array([[1, 0, 2, 3], [0, 2, 1, 3]])).tolist() == [0, 0, 0, 3]
        assert orbit_partition(np.array([[0, 1, 3, 2]])).tolist() == [0, 1, 2, 2]

    def test_orbit_partition_joins_a_given_partition(self):
        # against components of the graph x - p[x], one permutation at a
        # time and all at once
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            perms = []
            for _ in range(int(rng.integers(1, 4))):
                p = np.arange(n)
                if rng.random() < 0.3:
                    p = rng.permutation(n)
                else:  # a product of a few transpositions leaves small orbits
                    for _ in range(int(rng.integers(0, 3))):
                        i, j = rng.integers(0, n, size=2)
                        p[[i, j]] = p[[j, i]]
                perms.append(p)
            want = list(range(n))
            for x in range(n):
                seen, todo = {x}, [x]
                while todo:
                    y = todo.pop()
                    for p in perms:
                        for z in (int(p[y]), int(np.flatnonzero(p == y)[0])):
                            if z not in seen:
                                seen.add(z)
                                todo.append(z)
                want[x] = min(seen)
            assert orbit_partition(np.array(perms)).tolist() == want
            labels = None
            for p in perms:
                labels = orbit_partition(p[None, :], labels)
            assert labels.tolist() == want


class TestRootSymmetries:
    """The finder on instances that are not distance matrices."""

    @pytest.mark.parametrize("v, diffs", [(7, (1, 2, 4)), (13, (0, 1, 3, 9))])
    def test_cyclic_planes_are_transitive(self, v, diffs):
        # m[i, j] = 1 iff j - i lies in a planar difference set mod v: the
        # incidence matrix of a cyclic projective plane, where the shift
        # carries chooser 0 to every chooser
        inst = TestRootSymmetry.circulant_of([int(k in diffs) for k in range(v)])
        gens = root_symmetries(inst, greedy_cover(inst))
        assert gens and all(is_symmetry(inst, p) for p in gens)
        assert orbit_partition(np.array(gens)).tolist() == [0] * v
        got = min_cover(inst, symmetries=gens)
        assert got.optimal and len(got.chosen) == brute_minimum(inst)
        assert covers_everything(inst, got.chosen)


    # a circulant whose shift is a symmetry, with entries made negative,
    # fractional or past 255: np.bincount over them would raise ValueError,
    # TypeError and MemoryError (a 131 TiB count array).  Each map keeps
    # which entries are equal, so words stays that of the circulant; the
    # matrix is swapped in by hand, since build_instance refuses floats.
    @pytest.mark.parametrize("entries", [
        lambda m: m - 1, lambda m: m + 0.5, lambda m: m * 10**12,
    ], ids=["negative", "float", "huge"])
    def test_entries_outside_0_to_255_get_no_symmetries(self, entries):
        shifted = TestRootSymmetry.circulant_of([0, 1, 1, 2, 0, 2, 1, 0, 0])
        assert min_cover(shifted).generators  # the finder sees the shift here
        inst = replace(shifted, matrix=entries(shifted.matrix))
        assert root_symmetries(inst, greedy_cover(inst)) == ()
        got = min_cover(inst)
        assert got.generators == ()
        assert got == min_cover(inst, symmetries=())
        assert got.optimal and len(got.chosen) == brute_minimum(inst)


def reference_root_symmetries(inst: PairCoverInstance, seed) -> tuple[tuple[int, ...], ...]:
    """The finder that root_symmetries replaced: both sides of every level
    refined again for each candidate image, the orbit of 0 read off
    orbit_partition labels, and each leaf checked through is_symmetry."""
    m = inst.matrix
    n = inst.n_choosers
    if n < 2 or m.shape != (n, n) or m.dtype.kind not in "iu" or m.min() < 0 or m.max() > 255:
        return ()
    base = [0, *(v for v in seed if v != 0)]
    width = int(m.max()) + 1
    work = cover.FINDER_WORK * n
    gens = []
    labels = np.arange(n)
    zero = np.zeros(n, dtype=np.intp)
    for v in range(1, n):
        if labels[v] == 0:
            continue
        stack = [(0, zero, zero, iter([v]))]
        while stack:
            i, cells, image_cells, cands = stack[-1]
            c = next(cands, None)
            if c is None:
                stack.pop()
                continue
            work -= 1
            if work < 0:
                return tuple(gens)
            keys = cells * width + m[base[i]]
            image_keys = image_cells * width + m[c]
            counts = np.bincount(keys, minlength=n * width)
            if not np.array_equal(counts, np.bincount(image_keys, minlength=n * width)):
                continue
            ids = np.cumsum(counts > 0) - 1
            refined, image_refined = ids[keys], ids[image_keys]
            if ids[-1] == n - 1:
                entity_of = np.empty_like(image_refined)
                entity_of[image_refined] = np.arange(n)
                perm = entity_of[refined]
                if is_symmetry(inst, perm):
                    gens.append(tuple(perm.tolist()))
                    labels = orbit_partition(perm[None, :], labels)
                    break
            elif i + 1 < len(base):
                nxt = np.flatnonzero(image_refined == refined[base[i + 1]])
                stack.append((i + 1, refined, image_refined, iter(nxt.tolist())))
    return tuple(gens)


def relabelled_instance(dist: np.ndarray, seed: int) -> PairCoverInstance:
    q = np.random.default_rng(seed).permutation(len(dist))
    return build_instance(dist[np.ix_(q, q)])


class TestFinderMatchesTheReference:
    def check(self, inst: PairCoverInstance) -> tuple[tuple[int, ...], ...]:
        seed = greedy_cover(inst)
        got = root_symmetries(inst, seed)
        assert got == reference_root_symmetries(inst, seed)
        # the orbit mask, grown after each generator as the finder grows it
        in_orbit = [True] + [False] * (inst.n_choosers - 1)
        for k in range(1, len(got) + 1):
            cover._close_orbit(in_orbit, list(got[:k]))
            assert in_orbit == (orbit_partition(np.array(got[:k])) == 0).tolist()
        return got

    def test_relabelled_zoo_graphs(self):
        found = 0
        for name in sorted(SOLVABLE):
            dist = np.asarray(ZOO[name]().distances.dist)
            if len(dist) > 70:
                continue
            for seed in range(3):
                found += len(self.check(relabelled_instance(dist, seed)))
        assert found

    def test_a_relabelled_projective_plane_spends_the_cap(self):
        # PG(2,5): every point is at distance 2 from every other, so the
        # codes barely refine and the work cap runs out before any leaf
        dist = np.asarray(incidence_graph(pg2(5)).distances.dist)
        assert self.check(relabelled_instance(dist, 5)) == ()


class TestMinCoverFindsSymmetries:
    """min_cover asks root_symmetries itself when it is given none."""

    @staticmethod
    def q6() -> PairCoverInstance:
        return build_instance(np.asarray(family("hypercube", 6).distances.dist))

    def test_a_twin_free_distance_instance_gets_checked_generators(self):
        inst = self.q6()
        got = min_cover(inst)
        assert got.optimal and got.generators
        assert all(is_symmetry(inst, p) for p in got.generators)
        assert orbit_partition(np.array(got.generators)).tolist() == [0] * 64

    @pytest.mark.parametrize(
        "kwargs",
        [{"symmetries": ()}, {"forced": [0]}, {"budget": 0}, {"lower_stop": 5}],
        ids=["opted-out", "forced", "budget-0", "seed-meets-lower-stop"],
    )
    def test_the_finder_is_not_asked(self, kwargs):
        inst = self.q6()
        assert len(greedy_cover(inst)) == 5  # so lower_stop 5 is met
        with_finder = min_cover(inst)
        got = min_cover(inst, **kwargs)
        assert got.generators == ()
        assert len(got.chosen) == len(with_finder.chosen)
        assert covers_everything(inst, got.chosen)

    def test_passed_symmetries_are_the_generators(self):
        inst = TestRootSymmetry.circulant_of([0, 1, 1, 2, 1, 2, 1, 1])
        gens = [TestRootSymmetry.shift(8), TestRootSymmetry.reflection(8)]
        got = min_cover(inst, symmetries=gens)
        assert got.generators == tuple(map(tuple, gens))


def some_chooser_completes(inst: PairCoverInstance, uncovered: int, banned: int) -> bool:
    """Reference: some unbanned chooser covers every uncovered item."""
    return any(
        not banned >> v & 1 and cov & uncovered == uncovered
        for v, cov in enumerate(word_rows(inst))
    )


def random_subset(rng, bits: int) -> int:
    return sum(1 << p for p in range(bits.bit_length()) if bits >> p & 1 and rng.random() < 0.5)


class TestItemOrder:
    def test_ties_keep_ascending_item_index(self):
        # few choosers give few distinct separator counts, so most items tie;
        # the bits of item_groups, group by group, give the (count, index)
        # order, and each group holds the items of one count, ascending
        for seed in range(20):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(1, 6)), int(rng.integers(2, 60)))
            inst = build_instance(rng.integers(0, 2, size=shape))
            counts = [r.bit_count() for r in reference_build(inst.matrix)[1]]
            want = sorted(range(inst.n_items), key=lambda p: (counts[p], p))
            groups = every_item_search(inst).item_groups
            assert [p for group in groups for p in iter_bits(group)] == want
            group_counts = [{counts[p] for p in iter_bits(group)} for group in groups]
            assert group_counts == [{c} for c in sorted(set(counts))]


def reference_pivot(resolvers: tuple[int, ...], uncovered: int, banned: int) -> int:
    """The walk that _pick_pivot's item groups replaced: every item in
    (separator count, index) order, one shift test each; resolvers[p] is
    the separator set of item p."""
    counts = [r.bit_count() for r in resolvers]
    best_bits = 0
    best_cnt = 1 << 62
    seen = 0
    for p in sorted(range(len(resolvers)), key=lambda p: (counts[p], p)):
        if not uncovered >> p & 1:
            continue
        avail = resolvers[p] & ~banned
        cnt = avail.bit_count()
        if cnt == 0:
            return 0
        if cnt < best_cnt:
            best_cnt, best_bits = cnt, avail
            if cnt == 1:
                break
        seen += 1
        if seen >= _Search.PIVOT_WINDOW:
            break
    return best_bits


class TestPickPivot:
    def test_matches_the_reference_walk(self):
        # dense and sparse uncovered sets, light and heavy bans, on
        # instances on and off 64-item boundaries; each way out of the walk
        # (a pair with no separator left, one with one, a full window, the
        # items running out) is taken
        seen = {"none": 0, "single": 0, "window": 0, "ran_out": 0}
        for seed in range(30):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(2, 70)), int(rng.integers(2, 20)))
            inst = build_instance(rng.integers(0, int(rng.integers(2, 5)), size=shape))
            search = every_item_search(inst)
            _, resolvers = reference_build(inst.matrix)
            all_items = (1 << inst.n_items) - 1
            every = (1 << inst.n_choosers) - 1
            for _ in range(40):
                uncovered = all_items
                for _ in range(int(rng.integers(0, 6))):
                    uncovered = random_subset(rng, uncovered)
                banned = every
                for _ in range(int(rng.integers(1, 5))):
                    banned = random_subset(rng, banned)
                got = search._pick_pivot(uncovered, banned)
                assert got == reference_pivot(resolvers, uncovered, banned)
                if got == 0:
                    seen["none"] += bool(uncovered)
                elif got.bit_count() == 1:
                    seen["single"] += 1
                elif uncovered.bit_count() > _Search.PIVOT_WINDOW:
                    seen["window"] += 1
                else:
                    seen["ran_out"] += 1
        assert all(seen.values()), seen

    def test_nothing_uncovered(self):
        rng = np.random.default_rng(3)
        inst = build_instance(rng.integers(0, 3, size=(9, 8)))
        assert _Search(inst, budget=0, lower_stop=0, roots=WHOLE)._pick_pivot(0, 0) == 0


class TestCompletionTest:
    """_Search._completable, the slack-one bound, against the brute-force
    predicate and against the marginal-coverage scan it replaces."""

    def check(self, inst, search: _Search, uncovered: int, banned: int) -> bool:
        want = some_chooser_completes(inst, uncovered, banned)
        assert search._completable(uncovered, banned) == want
        assert search._coverage_reachable(uncovered, banned, uncovered.bit_count(),
                                          search.chooser_order, search.cov_counts) == want
        return want

    def test_matches_the_reference_on_random_instances(self):
        # 20 columns give 190 items, so uncovered items reach past the
        # window, where only the subset test decides
        seen = {"true_past_the_window": 0, "survivor_fails_subset": 0, "banned_completer": 0}
        w = _Search.COMPLETION_WINDOW
        for seed in range(40):
            rng = np.random.default_rng(seed)
            inst = build_instance(rng.integers(0, 3, size=(7, 20)))
            search = every_item_search(inst)
            coverage, resolvers = reference_build(inst.matrix)
            all_items = (1 << inst.n_items) - 1
            for _ in range(30):
                banned = random_subset(rng, (1 << inst.n_choosers) - 1)
                # a subset of one chooser's coverage is often completable
                source = coverage[int(rng.integers(inst.n_choosers))]
                uncovered = random_subset(rng, source if rng.random() < 0.7 else all_items)
                if rng.random() < 0.3:  # and one item more, which that chooser may miss
                    uncovered |= 1 << int(rng.integers(w, inst.n_items))
                if not uncovered:
                    continue
                got = self.check(inst, search, uncovered, banned)
                first = (uncovered & -uncovered).bit_length() - 1
                if uncovered >> first + w:
                    cands = ~banned
                    for p in range(first, first + w):
                        if uncovered >> p & 1:
                            cands &= resolvers[p]
                    seen["true_past_the_window"] += got
                    seen["survivor_fails_subset"] += bool(cands) and not got
                seen["banned_completer"] += not got and some_chooser_completes(inst, uncovered, 0)
        assert all(seen.values()), seen

    def test_every_chooser_banned(self):
        rng = np.random.default_rng(0)
        inst = build_instance(rng.integers(0, 3, size=(6, 6)))
        search = every_item_search(inst)
        every = (1 << inst.n_choosers) - 1
        for p in range(inst.n_items):
            assert not self.check(inst, search, 1 << p, every)
        assert not self.check(inst, search, (1 << inst.n_items) - 1, every)

    def test_exactly_one_uncovered_item(self):
        rng = np.random.default_rng(1)
        inst = build_instance(rng.integers(0, 3, size=(6, 6)))
        search = every_item_search(inst)
        _, resolvers = reference_build(inst.matrix)
        for p in range(inst.n_items):
            for v in range(inst.n_choosers):
                # banning one separator leaves the item completable iff it had another
                assert self.check(inst, search, 1 << p, 1 << v) == bool(resolvers[p] & ~(1 << v))

    def test_survivor_of_the_prefilter_can_fail_the_subset_test(self):
        # the prefilter is the window of COMPLETION_WINDOW items from the
        # lowest uncovered one.  Chooser 0 separates column 0 from columns
        # 1 .. k, so it alone survives the window on the items (0, 1) ..
        # (0, k); it does not separate (0, k + 1), the first item past the
        # window, which chooser 1 does
        k = _Search.COMPLETION_WINDOW
        m = np.zeros((2, k + 2), dtype=np.uint8)
        m[0, 1:k + 1] = 1
        m[1, k + 1] = 1
        inst = build_instance(m)
        search = every_item_search(inst)
        window = (1 << k) - 1
        pairs = list(combinations(range(inst.n_entities), 2))
        assert pairs[:k + 1] == [(0, j) for j in range(1, k + 2)]
        assert self.check(inst, search, window, 0)
        assert not self.check(inst, search, window | 1 << k, 0)
        assert not self.check(inst, search, window | 1 << k, 0b10)
        # banned, the chooser that completes the window does not count
        assert not self.check(inst, search, window, 0b1)


def compressed(row: int, items) -> int:
    """The bits items of row, in their order, as an int of their own."""
    return sum(1 << q for q, p in enumerate(items) if row >> p & 1)


@pytest.fixture
def never_empty(monkeypatch):
    """_completable and _pick_pivot assert that uncovered is not empty."""
    for name in ("_completable", "_pick_pivot"):
        method = getattr(_Search, name)

        def guarded(self, uncovered, banned, method=method):
            assert uncovered
            return method(self, uncovered, banned)

        monkeypatch.setattr(_Search, name, guarded)


@pytest.mark.usefixtures("never_empty")
class TestOpenItems:
    """A search keeps only the items that some root's start leaves
    unseparated.  Its tree, node count and answer are those of a search
    that keeps every item."""

    @staticmethod
    def solve_both(monkeypatch, inst: PairCoverInstance, **kwargs) -> CoverResult:
        got = min_cover(inst, **kwargs)
        with monkeypatch.context() as m:
            # every search keeps every item, as when nothing is closed
            m.setattr(cover, "_open_items", lambda inst, roots: None)
            want = min_cover(inst, **kwargs)
        assert (got.chosen, got.nodes, got.optimal, got.generators) == (
            want.chosen, want.nodes, want.optimal, want.generators)
        return got

    def test_relabelled_zoo_graphs(self, monkeypatch):
        for name in sorted(SOLVABLE):
            dist = np.asarray(ZOO[name]().distances.dist)
            if len(dist) > 70:
                continue
            for seed in range(3):
                self.solve_both(monkeypatch, relabelled_instance(dist, seed))

    def test_a_twin_forced_graph(self, monkeypatch):
        # a seeded random graph with a twin of vertex 3 added: the forced
        # twin is the one root's start, and no symmetry is looked for
        rng = np.random.default_rng(4)
        while True:
            g = Graph.from_edges(14, [(u, w) for u, w in combinations(range(14), 2)
                                      if rng.random() < 0.25])
            if g.distances.connected:
                break
        edges = list(g.edges()) + [(14, w) for w in iter_bits(g.adj[3])]
        g = Graph.from_edges(15, edges)
        forced = twin_forced_choices(g)
        assert forced
        inst = build_instance(np.asarray(g.distances.dist))
        assert len(_open_items(inst, [(forced, 0)])) < inst.n_items
        got = self.solve_both(monkeypatch, inst, forced=forced)
        assert got.nodes and got.generators == ()

    def test_random_square_instances(self, monkeypatch):
        # circulants, whose shift moves chooser 0 to every chooser, and
        # plain random matrices with a forced chooser or none
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(4, 13))
            if rng.random() < 0.5:
                inst = TestRootSymmetry.circulant(rng, n)
                kwargs = {}
            else:
                inst = build_instance(rng.integers(0, 3, size=(n, n)))
                kwargs = {"forced": rng.choice(n, size=int(rng.integers(0, 3)), replace=False)}
            if brute_minimum(inst) is None:
                continue
            self.solve_both(monkeypatch, inst, **kwargs)

    def test_one_word_chunks(self, monkeypatch):
        # a budget under 128 bytes makes every gathered chunk one word
        monkeypatch.setattr(cover, "PACK_BYTES", 64)
        for name in ("Q_6", "johnson_8_4", "taylor_paley_17"):
            dist = np.asarray(ZOO[name]().distances.dist)
            self.solve_both(monkeypatch, relabelled_instance(dist, 1))

    @pytest.mark.parametrize("name,kept", [
        ("Q_6", 430), ("johnson_8_4", 870), ("doubled_odd_4", 450),
        ("biplane_incidence", 165), ("taylor_paley_17", 272), ("gq22_incidence", 112),
    ])
    def test_every_orbital_root_holds_chooser_0(self, name, kept):
        # the kept items are the pairs that chooser 0 leaves unseparated
        inst = build_instance(np.asarray(ZOO[name]().distances.dist))
        roots = _orbital_roots(inst, root_symmetries(inst, greedy_cover(inst)))
        items = _open_items(inst, roots)
        row0 = word_rows(inst)[0]
        assert items.tolist() == [p for p in range(inst.n_items) if not row0 >> p & 1]
        assert len(items) == kept

    def test_the_closed_items_are_those_every_start_separates(self):
        # an empty start separates what every chooser separates
        rng = np.random.default_rng(9)
        universal = 0
        for _ in range(30):
            inst = build_instance(rng.integers(0, 3, size=(8, int(rng.integers(2, 14)))))
            rows = word_rows(inst)
            every = (1 << inst.n_items) - 1
            for row in rows:
                every &= row
            universal += every.bit_count()
            roots = [(rng.choice(8, size=int(rng.integers(1, 4)), replace=False).tolist(), 0)
                     for _ in range(int(rng.integers(1, 4)))]
            closed = (1 << inst.n_items) - 1
            for start, _ in roots:
                separated = 0
                for v in start:
                    separated |= rows[v]
                closed &= separated
            for kept, shut in ((roots, closed), (roots + [([], 0)], closed & every),
                               (WHOLE, every)):
                want = [p for p in range(inst.n_items) if not shut >> p & 1]
                got = _open_items(inst, kept)
                assert (got is None and len(want) == inst.n_items) or got.tolist() == want
        assert universal

    def test_chooser_zero_alone_leaves_no_item_open(self):
        # every row is a permutation of range(7), so each chooser separates
        # every pair; the seed [0] is one above lower_stop 0, and the one
        # root, 0 forced, closes every item, so the search keeps every item
        n = 7
        inst = build_instance(np.array([[(j - i) % n for j in range(n)] for i in range(n)]))
        shift = tuple(TestRootSymmetry.shift(n))
        roots = _orbital_roots(inst, [shift])
        assert roots == [([0], 0)] and len(_open_items(inst, roots)) == 0
        search = _Search(inst, budget=100, lower_stop=0, roots=roots)
        every = (1 << inst.n_items) - 1
        assert search.all_items == every and search.coverage == (every,) * n
        assert search.item_groups == (every,) and search.cov_counts == [inst.n_items] * n
        got = min_cover(inst)
        assert (got.chosen, got.nodes, got.optimal, got.generators) == ((0,), 1, True, (shift,))

    def test_an_open_count_off_byte_and_word_edges(self):
        # Q_6 keeps 430 items: the gathered words end inside a byte and a
        # word, with no bit past the last item
        inst = build_instance(np.asarray(family("hypercube", 6).distances.dist))
        seed = greedy_cover(inst)
        roots = _orbital_roots(inst, root_symmetries(inst, seed))
        items = _open_items(inst, roots).tolist()
        assert len(items) == 430 and len(items) % 8 and len(items) % 64
        search = _Search(inst, budget=10**8, lower_stop=0, roots=roots)
        assert search.all_items == (1 << 430) - 1
        assert search.coverage == tuple(compressed(row, items) for row in word_rows(inst))
        _, resolvers = reference_build(np.asarray(inst.matrix))
        assert [search._resolver(q) for q in range(430)] == [resolvers[p] for p in items]
        got = search.run(seed)
        assert (got.chosen, got.nodes, got.optimal) == ((0, 2, 7, 9, 19), 102, True)


# the large-n graphs, whose orbital roots leave more than PER_ROOT_ITEMS
# items open
WIDE = {
    "Q_7": lambda: family("hypercube", 7),
    "Q_8": lambda: family("hypercube", 8),
    "johnson_9_4": lambda: family("johnson", 9, 4),
    "doubled_odd_5": lambda: bipartite_double(family("odd", 5)).graph,
    "taylor_paley_61": lambda: taylor(family("paley", 61)).graph,
}

@pytest.mark.usefixtures("never_empty")
class TestPerRootOpenItems:
    """Past PER_ROOT_ITEMS open items, each orbital root keeps the items
    that its own start leaves open, loaded when the search enters it; the
    tree, node count and answer are those of the one union set."""

    @staticmethod
    def solve_both(monkeypatch, made_searches, inst: PairCoverInstance, **kwargs) -> CoverResult:
        got = min_cover(inst, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(cover, "PER_ROOT_ITEMS", inst.n_items)
            want = min_cover(inst, **kwargs)
        assert [search.per_root for search in made_searches] == [True, False]
        made_searches.clear()
        assert (got.chosen, got.nodes, got.optimal, got.generators) == (
            want.chosen, want.nodes, want.optimal, want.generators)
        return got

    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_relabelled_wide_graphs_at_budget_600(self, monkeypatch, made_searches, name):
        dist = np.asarray(WIDE[name]().distances.dist)
        for seed in range(2):
            got = self.solve_both(monkeypatch, made_searches, relabelled_instance(dist, seed),
                                  budget=600)
            assert got.nodes == 600 and not got.optimal and got.generators

    def test_the_q7_proof(self, monkeypatch, made_searches):
        inst = build_instance(np.asarray(family("hypercube", 7).distances.dist))
        got = self.solve_both(monkeypatch, made_searches, inst)
        assert (len(got.chosen), got.nodes, got.optimal) == (6, 8_726, True)

    def test_each_root_loads_its_own_open_items(self, monkeypatch):
        # the Q_7 proof enters every root, and each load holds the items
        # that its start leaves open; Q_7 is vertex-transitive, so no
        # root has an empty start
        inst = build_instance(np.asarray(family("hypercube", 7).distances.dist))
        seed = greedy_cover(inst)
        roots = _orbital_roots(inst, root_symmetries(inst, seed))
        search = _Search(inst, budget=10**8, lower_stop=0, roots=roots)
        loads = []
        load = search._load

        def spy(items):
            load(items)
            loads.append((items.tolist(), search.all_items, search.closed))

        monkeypatch.setattr(search, "_load", spy)
        assert search.per_root and search.run(seed).nodes == 8_726
        assert len(loads) == len(roots) == 7
        for root, (items, all_items, closed) in zip(roots, loads):
            want = _open_items(inst, [root]).tolist()
            assert items == want and all_items == (1 << len(want)) - 1
            assert closed == inst.n_items - len(want)

    def test_q8_widths_in_constructor_labels(self):
        # a root that forces 0 and one more chooser keeps 2,322 to 3,304
        # items; the last root, 0 alone, keeps the union's 6,307
        inst = build_instance(np.asarray(family("hypercube", 8).distances.dist))
        roots = _orbital_roots(inst, root_symmetries(inst, greedy_cover(inst)))
        assert [len(_open_items(inst, [root])) for root in roots] == [
            3_304, 2_644, 2_392, 2_322, 2_392, 2_644, 3_304, 6_307]
        assert len(_open_items(inst, roots)) == 6_307

    def test_a_default_verify_run_keeps_the_union(self, made_searches):
        # the benchmark's workloads are pinned in test_benchmark_calls.py
        assert run_suite().ok
        assert made_searches and not any(search.per_root for search in made_searches)


class TestCoverageEndsAtTheKeptItems:
    """_search reads uncovered as all_items ^ covered, which is
    all_items & ~covered because every coverage row that _load makes is
    zero from the kept item count up."""

    @staticmethod
    def assert_rows_end(search: _Search) -> None:
        n_kept = search.all_items.bit_length()
        assert search.all_items == (1 << n_kept) - 1
        assert all(row >> n_kept == 0 for row in search.coverage)

    def test_the_union_of_the_roots(self):
        inst = build_instance(np.asarray(family("hypercube", 6).distances.dist))
        roots = _orbital_roots(inst, root_symmetries(inst, greedy_cover(inst)))
        search = _Search(inst, budget=600, lower_stop=0, roots=roots)
        assert not search.per_root and search.closed  # a gathered union
        self.assert_rows_end(search)
        self.assert_rows_end(every_item_search(inst))

    def test_each_root_of_q8(self):
        inst = build_instance(np.asarray(family("hypercube", 8).distances.dist))
        roots = _orbital_roots(inst, root_symmetries(inst, greedy_cover(inst)))
        search = _Search(inst, budget=600, lower_stop=0, roots=roots)
        assert search.per_root
        for root in roots:
            search._load(_open_items(inst, [root]))
            assert search.closed
            self.assert_rows_end(search)


class ReferenceSearch(_Search):
    """The node that the empty-start cut and the ancestor-count scan
    replaced, over every item: each scan walks the static chooser order,
    and each candidate's count is taken at its own node."""

    def __init__(self, inst, budget, lower_stop, roots):
        # one set of layers over every item, for all roots
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cover, "_open_items", lambda inst, roots: None)
            m.setattr(cover, "PER_ROOT_ITEMS", inst.n_items)
            super().__init__(inst, budget, lower_stop, roots)

    def run(self, seed) -> CoverResult:
        self.best = list(seed)
        try:
            for start, banned in self.roots:
                covered = 0
                for v in start:
                    covered |= self.coverage[v]
                self._search(list(start), covered, banned)
        except cover._Stop:
            pass
        return CoverResult(tuple(sorted(self.best)), self.nodes, self.exhausted)

    def _search(self, chosen, covered, banned):
        if self.nodes == self.budget:
            self.exhausted = False
            raise cover._Stop
        self.nodes += 1
        uncovered = self.all_items & ~covered
        if not uncovered:
            if len(chosen) < len(self.best):
                self.best = list(chosen)
                if len(self.best) <= self.lower_stop:
                    raise cover._Stop
            return
        slack = len(self.best) - 1 - len(chosen)
        if slack <= 0:
            return
        unc_cnt = uncovered.bit_count()
        threshold = -(-unc_cnt // slack)
        if threshold == unc_cnt:
            if not self._completable(uncovered, banned):
                return
        elif not self._coverage_reachable(uncovered, banned, threshold):
            return
        pivot_resolvers = self._pick_pivot(uncovered, banned)
        if pivot_resolvers == 0:
            return
        coverage = self.coverage
        cands = sorted(
            iter_bits(pivot_resolvers), key=lambda v: -(coverage[v] & uncovered).bit_count()
        )
        tried = 0
        for v in cands:
            chosen.append(v)
            self._search(chosen, covered | coverage[v], banned | tried)
            chosen.pop()
            tried |= 1 << v
            if len(self.best) - 1 - len(chosen) <= 0:
                return

    def _coverage_reachable(self, uncovered, banned, threshold):
        coverage = self.coverage
        for v in self.chooser_order:
            if banned >> v & 1:
                continue
            if self.cov_counts[v] < threshold:
                return False
            if (coverage[v] & uncovered).bit_count() >= threshold:
                return True
        return False


def reference_min_cover(inst: PairCoverInstance, **kwargs) -> CoverResult:
    """min_cover with ReferenceSearch as its search."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cover, "_Search", ReferenceSearch)
        return min_cover(inst, **kwargs)


def random_bipartite_distances(rng, n: int) -> np.ndarray:
    """The distance matrix of a seeded connected random bipartite graph on
    n vertices, sides split at random."""
    side = rng.integers(0, 2, size=n)
    side[:2] = 0, 1
    while True:
        g = Graph.from_edges(n, [(u, w) for u, w in combinations(range(n), 2)
                                 if side[u] != side[w] and rng.random() < 0.4])
        if g.distances.connected:
            return np.asarray(g.distances.dist)


@pytest.mark.usefixtures("never_empty")
class TestMatchesTheReferenceSearch:
    """min_cover and ReferenceSearch give the same chosen set, node count,
    optimality and generators: the closed items that an empty start hands
    to its top node, and the counts that a node hands to its subtree's
    scans, leave the tree as it is."""

    @staticmethod
    def check(inst: PairCoverInstance, **kwargs) -> CoverResult:
        got = min_cover(inst, **kwargs)
        want = reference_min_cover(inst, **kwargs)
        assert (got.chosen, got.nodes, got.optimal, got.generators) == (
            want.chosen, want.nodes, want.optimal, want.generators)
        return got

    @pytest.mark.parametrize("q,budget", [(2, cover.DEFAULT_BUDGET), (3, cover.DEFAULT_BUDGET),
                                          (5, 2_000)])
    def test_relabelled_plane_incidence(self, q, budget):
        # with symmetries=(), and on PG(2,5) where the finder finds none,
        # the one root's start is empty and closes the point-line pairs
        dist = np.asarray(incidence_graph(pg2(q)).distances.dist)
        for seed in range(3):
            inst = relabelled_instance(dist, seed)
            assert len(_open_items(inst, WHOLE)) == inst.n_items - (q * q + q + 1) ** 2
            got = self.check(inst, budget=budget)
            assert bool(got.generators) == (q < 5)
            self.check(inst, budget=budget, symmetries=())

    def test_a_budgeted_relabelled_pg25_solve(self):
        dist = np.asarray(incidence_graph(pg2(5)).distances.dist)
        got = self.check(relabelled_instance(dist, 0), budget=5_000)
        assert (len(got.chosen), got.nodes, got.optimal) == (15, 5_000, False)

    @pytest.mark.parametrize("side", ["points", "blocks"])
    def test_plane_semi_sides(self, side):
        got = self.check(semi_cover_instance(pg2(3), side), symmetries=())
        assert got.optimal and got.nodes > 1

    def test_solvable_zoo_graphs(self):
        # with the symmetries found, and with none, so that the bipartite
        # graphs search under an empty start
        for name in sorted(SOLVABLE):
            dist = np.asarray(ZOO[name]().distances.dist)
            if len(dist) > 70:
                continue
            inst = build_instance(dist)
            self.check(inst)
            self.check(inst, symmetries=(), budget=3_000)

    def test_random_square_instances(self):
        # random bipartite distance matrices, whose cross pairs every
        # chooser separates, circulants, and plain random matrices
        rng = np.random.default_rng(38)
        hidden = 0
        for k in range(90):
            n = int(rng.integers(4, 16))
            if k % 3 == 0:
                inst = build_instance(random_bipartite_distances(rng, n))
            elif k % 3 == 1:
                inst = TestRootSymmetry.circulant(rng, n)
            else:
                inst = build_instance(rng.integers(0, 3, size=(n, n)))
            if brute_minimum(inst) is None:
                continue
            items = _open_items(inst, WHOLE)
            hidden += 0 if items is None else inst.n_items - len(items)
            self.check(inst)
            self.check(inst, symmetries=())
            self.check(inst, forced=[int(rng.integers(n))])
        assert hidden


@pytest.mark.usefixtures("never_empty")
class TestPerRootMatchesTheReferenceSearch:
    """With PER_ROOT_ITEMS 0, every search of two or more roots loads each
    root's own open items as it enters it, empty starts included, and
    min_cover still matches ReferenceSearch, which keeps one set of layers
    over every item."""

    check = staticmethod(TestMatchesTheReferenceSearch.check)

    @pytest.fixture(autouse=True)
    def every_search_per_root(self, monkeypatch):
        monkeypatch.setattr(cover, "PER_ROOT_ITEMS", 0)

    def test_solvable_zoo_graphs(self, made_searches):
        for name in sorted(SOLVABLE):
            dist = np.asarray(ZOO[name]().distances.dist)
            if len(dist) <= 70:
                self.check(build_instance(dist))
        assert sum(search.per_root for search in made_searches) >= 10

    def test_random_square_instances(self, made_searches):
        # as in TestMatchesTheReferenceSearch; an empty start sits beside
        # other roots when the orbit of chooser 0 is not every chooser
        rng = np.random.default_rng(38)
        for k in range(90):
            n = int(rng.integers(4, 16))
            if k % 3 == 0:
                inst = build_instance(random_bipartite_distances(rng, n))
            elif k % 3 == 1:
                inst = TestRootSymmetry.circulant(rng, n)
            else:
                inst = build_instance(rng.integers(0, 3, size=(n, n)))
            if brute_minimum(inst) is None:
                continue
            self.check(inst)
            self.check(inst, forced=[int(rng.integers(n))])
        per_root = [search for search in made_searches if search.per_root]
        assert len(per_root) >= 10
        assert any(not search.roots[-1][0] for search in per_root)


@pytest.mark.usefixtures("never_empty")
class TestOnlyClosedItemsLeft:
    """An instance whose every pair every chooser separates: an empty start
    closes every item, so the search keeps every item, as when nothing is
    closed.  Its top node then branches on an open item, the least unbanned
    chooser finishes, and no node reads an empty uncovered set."""

    @staticmethod
    def universal(n: int) -> PairCoverInstance:
        # every row is a permutation of range(n)
        return build_instance(np.array([[(j - i) % n for j in range(n)] for i in range(n)]))

    @pytest.mark.parametrize("kwargs,generators", [
        ({}, ((1, 0),)), ({"symmetries": ()}, ()), ({"budget": 1}, ((1, 0),)),
        ({"symmetries": (), "budget": 1}, ()),
    ], ids=["found", "none", "budget-1", "none-budget-1"])
    def test_two_entities(self, kwargs, generators):
        inst = build_instance(np.array([[0, 1], [1, 0]]))
        assert _open_items(inst, WHOLE).tolist() == []
        got = min_cover(inst, **kwargs)
        assert (got.chosen, got.nodes, got.optimal, got.generators) == ((0,), 1, True, generators)
        assert got == reference_min_cover(inst, **kwargs)

    @pytest.mark.parametrize("n", [2, 7])
    def test_a_larger_seed_is_cut_to_one_chooser(self, n):
        # the least unbanned chooser, in one more node; every chooser banned
        # leaves the seed; lower_stop 1 stops at the first leaf
        inst = self.universal(n)
        seed = list(range(n))
        for roots, lower_stop in (([([], 0)], 0), ([([], 0b1)], 0), ([([], (1 << n) - 1)], 0),
                                  ([([], 0b1), ([], 0)], 0), ([([], 0)], 1)):
            got = _Search(inst, 100, lower_stop, roots).run(seed)
            want = ReferenceSearch(inst, 100, lower_stop, roots).run(seed)
            assert got == want
        assert got == CoverResult((0,), 2, True)


@pytest.mark.usefixtures("never_empty")
class TestAnEmptyStartCountsItsHiddenItems:
    """The top node of a root with an empty start adds the closed items,
    which every chooser covers, to its scan threshold.  Here that count
    alone lets the node branch: the node matches ReferenceSearch, which
    keeps every item, and a search that dropped the hidden count would
    prune it and make one node fewer."""

    # columns 0-5 take the values 0-2 and column 6 the values 3-5 in every
    # row, so every chooser separates the 6 pairs (x, 6); choosers 1, 2, 3
    # and 5 single out one of columns 0-5 and separate 5 of the other 15
    # pairs each, and chooser 6 separates nothing more
    MATRIX = np.array([[1, 0, 0, 2, 0, 0, 5], [0, 0, 1, 0, 0, 0, 3], [0, 1, 0, 0, 0, 0, 3],
                       [1, 0, 0, 0, 0, 0, 3], [0, 0, 0, 0, 1, 2, 5], [0, 0, 0, 0, 1, 0, 3],
                       [0, 0, 0, 0, 0, 0, 3]])
    SYMMETRY = (4, 2, 1, 5, 0, 3, 6)  # (0 4)(1 2)(3 5)

    @pytest.mark.parametrize("per_root_items", [cover.PER_ROOT_ITEMS, 0],
                             ids=["union", "per-root"])
    def test_the_hidden_items_let_the_last_root_branch(self, monkeypatch, made_searches,
                                                      per_root_items):
        monkeypatch.setattr(cover, "PER_ROOT_ITEMS", per_root_items)
        inst = build_instance(self.MATRIX)
        # (open items uncovered, hidden items, slack, most open items that an
        # unbanned chooser covers) at each top node with nothing chosen
        tops = []
        search_node = cover._Search._search

        def spy(search, chosen, covered, banned, order, counts):
            if not chosen:
                uncovered = search.all_items & ~covered
                most = max((row & uncovered).bit_count()
                           for v, row in enumerate(search.coverage) if not banned >> v & 1)
                tops.append((uncovered.bit_count(), search.closed, len(search.best) - 1, most))
            return search_node(search, chosen, covered, banned, order, counts)

        monkeypatch.setattr(cover._Search, "_search", spy)
        kwargs = {"symmetries": [self.SYMMETRY]}
        got = min_cover(inst, **kwargs)
        want = reference_min_cover(inst, **kwargs)
        assert (got.chosen, got.nodes, got.optimal, got.generators) == (
            want.chosen, want.nodes, want.optimal, want.generators)
        assert (got.chosen, got.nodes, got.optimal) == ((0, 1, 4), 3, True)
        assert len(got.chosen) == brute_minimum(inst)
        (search,) = made_searches
        assert search.per_root == (per_root_items == 0)
        # the last root bans the orbit {0, 4} of chooser 0 and starts empty
        assert search.roots == [([0], 0), ([], 0b10001)]
        # its top node: 5 + 6 >= ceil((15 + 6) / 2) branches, 5 < ceil(15 / 2) would not
        assert tops == [(15, 6, 2, 5)]
        n_open, hidden, slack, most = tops[0]
        assert most + hidden >= -(-(n_open + hidden) // slack) and most < -(-n_open // slack)


def bit_counts(coverage, uncovered: int) -> tuple[list[int], list[int]]:
    """Each chooser's count of the uncovered items, and the choosers by
    descending count, ties by ascending id."""
    counts = [(row & uncovered).bit_count() for row in coverage]
    return counts, sorted(range(len(counts)), key=lambda v: (-counts[v], v))


class TestAncestorCounts:
    def test_a_scan_by_an_ancestor_s_counts_is_exact(self):
        # counts taken at a superset of the uncovered items bound each
        # chooser's count from above; the scan still answers whether some
        # unbanned chooser covers threshold of them, also when the chooser
        # that reaches it has an ancestor count of exactly threshold
        seen = {"reached": 0, "at_the_bound": 0, "missed": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            inst = build_instance(rng.integers(0, 3, size=(int(rng.integers(2, 12)), 9)))
            search = every_item_search(inst)
            coverage = word_rows(inst)
            all_items = (1 << inst.n_items) - 1
            for _ in range(30):
                ancestor = random_subset(rng, all_items) if rng.random() < 0.7 else all_items
                uncovered = random_subset(rng, ancestor) if rng.random() < 0.7 else ancestor
                if not uncovered:
                    continue
                banned = random_subset(rng, (1 << inst.n_choosers) - 1)
                counts, order = bit_counts(coverage, ancestor)
                now = [(row & uncovered).bit_count() for row in coverage]
                if rng.random() < 0.5:
                    threshold = max(1, counts[int(rng.integers(inst.n_choosers))])
                else:
                    threshold = int(rng.integers(1, uncovered.bit_count() + 2))
                want = [v for v in range(inst.n_choosers)
                        if not banned >> v & 1 and now[v] >= threshold]
                got = search._coverage_reachable(uncovered, banned, threshold, order, counts)
                assert got == bool(want)
                if want and all(counts[v] == threshold for v in want):
                    seen["at_the_bound"] += 1
                seen["reached" if want else "missed"] += 1
        assert all(seen.values()), seen
