"""Metric dimension: the exact solver, greedy and exhaustive baselines,
certificates, twin forcing, bounds, and design-side semi-resolving sets."""

import copy
import math
import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from mdimlab import (
    BadParameters,
    CoverResult,
    Graph,
    HypothesisFailure,
    LiftVerificationError,
    MdimlabError,
    SymmetricDesign,
    babai_bounds,
    bipartite_double,
    bfs_distances,
    certify,
    design_complement,
    exhaustive_mdim,
    family,
    first_unresolved_pair,
    first_unseparated_pair,
    fold,
    incidence_graph,
    is_distance_regular,
    is_primitive,
    is_resolving,
    is_semi_resolving_for_blocks,
    lower_bound_nd,
    mdim_exact,
    mdim_greedy,
    min_cover,
    min_semi_resolving,
    pair_cover_instance,
    pg2,
    split_mdim,
    taylor,
    twin_classes,
    twin_forced_choices,
)
from mdimlab import cover, mdim, verify
from mdimlab.cover import is_symmetry
from mdimlab.zoo import ZOO, graph


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [
        (u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_components(sizes: tuple[int, ...], p: float, seed: int) -> Graph:
    """Random graphs on consecutive vertex blocks of the given sizes, with
    no edge between blocks; a block of size 1 is an isolated vertex."""
    rng = np.random.default_rng(seed)
    edges = []
    start = 0
    for size in sizes:
        block = range(start, start + size)
        edges += [e for e in combinations(block, 2) if rng.random() < p]
        start += size
    return Graph.from_edges(start, edges)


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

    def test_rejects_non_integer_arguments(self):
        # 2.5 used to give 3, the bound for d = 3
        for n, d in [(10, 2.5), (10.0, 2), (True, 2)]:
            with pytest.raises(BadParameters, match="must be integers"):
                lower_bound_nd(n, d)


def networkx_structure(g: Graph) -> str | None:
    """Which of the root bound's two structures g has, read from networkx
    distances: "bipartite" (bipartite of diameter 3), "fibre" (diameter 3,
    "equal or at distance 3" an equivalence of classes of one size t >= 2,
    at most one neighbour in every other class), both joined by "+", or None."""
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    if not nx.is_connected(h) or nx.diameter(h) != 3:
        return None
    dist = dict(nx.all_pairs_shortest_path_length(h))
    found = []
    if nx.is_bipartite(h):
        found.append("bipartite")
    cls = {v: frozenset(u for u in h if dist[v][u] in (0, 3)) for v in h}
    classes = set(cls.values())
    if (
        all(cls[u] == cls[v] for v in h for u in cls[v])
        and len({len(c) for c in classes}) == 1
        and len(cls[0]) >= 2
        and all(len(set(h[v]) & c) <= 1 for v in h for c in classes if v not in c)
    ):
        found.append("fibre")
    return "+".join(found) or None


def random_bipartite_diameter_3(rng: random.Random) -> Graph:
    """A random connected bipartite graph of diameter 3 with sides of 2-7
    vertices, in random labels."""
    while True:
        a, b = rng.randint(2, 7), rng.randint(2, 7)
        p = rng.uniform(0.3, 0.85)
        g = Graph.from_edges(a + b, [
            (u, a + w) for u in range(a) for w in range(b) if rng.random() < p
        ])
        if g.distances.diameter == 3:
            return relabel(g, rng.randrange(10**9))


def brute_subsets_total(k: int, m: int) -> float:
    """Least total size over every choice of m distinct nonempty subsets of
    a k-set, or inf if it has fewer than m."""
    subsets = [c for size in range(1, k + 1) for c in combinations(range(k), size)]
    if m > len(subsets):
        return math.inf
    return min(sum(map(len, pick)) for pick in combinations(subsets, max(m, 0)))


class TestRootLowerBound:
    """mdim._root_lower_bound: the largest of lower_bound_nd, the antipodal
    fibre bound and the bipartite diameter-3 bound.  mdim_exact stops at
    it, so its certificates cannot check it: every reference value here is
    an exhaustive minimum, a golden value, a verified resolving set or a
    brute-force count."""

    # (graph, the structure it has, its root bound)
    PINNED = [
        pytest.param(lambda: ZOO["heawood"](), "bipartite", 5, id="heawood"),
        *(pytest.param(lambda q=q: incidence_graph(pg2(q)), "bipartite", bound, id=f"pg2_{q}")
          for q, bound in [(3, 8), (5, 14), (7, 20)]),
        pytest.param(lambda: ZOO["biplane_incidence"](), "bipartite", 8, id="biplane"),
        pytest.param(lambda: ZOO["Q_3"](), "bipartite+fibre", 3, id="Q_3"),
        pytest.param(lambda: ZOO["icosahedron"](), "fibre", 3, id="taylor_C_5"),
        *(pytest.param(lambda q=q: taylor(family("paley", q)), "fibre", bound,
                       id=f"taylor_paley_{q}")
          for q, bound in [(13, 5), (17, 5), (29, 6), (37, 6), (41, 7), (61, 7)]),
    ]

    @pytest.mark.parametrize("build, structure, bound", PINNED)
    def test_pinned_values_in_any_labels(self, build, structure, bound):
        g = build()
        assert networkx_structure(g) == structure
        for seed in range(3):
            assert mdim._root_lower_bound(relabel(g, seed)) == bound

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ZOO["Q_3"](),
            lambda: family("cycle", 6),
            lambda: ZOO["icosahedron"](),
            lambda: ZOO["taylor_paley_13"](),
            lambda: ZOO["heawood"](),
            *(lambda n=n: bipartite_double(family("complete", n)) for n in (4, 5, 6)),
        ],
        ids=["Q_3", "C_6", "icosahedron", "taylor_paley_13", "heawood",
             "K44_minus_matching", "K55_minus_matching", "K66_minus_matching"],
    )
    def test_at_most_the_exhaustive_minimum_in_any_labels(self, build):
        g = build()
        assert networkx_structure(g) is not None
        mu = exhaustive_mdim(relabel(g, 0)).mu
        bounds = {mdim._root_lower_bound(relabel(g, seed)) for seed in range(4)}
        assert len(bounds) == 1 and bounds.pop() <= mu

    def test_at_most_the_exhaustive_minimum_on_random_bipartite_graphs(self):
        rng = random.Random(20261020)
        tight = 0
        for _ in range(400):
            g = random_bipartite_diameter_3(rng)
            bound = mdim._bipartite_bound(g.distances.dist)
            mu = exhaustive_mdim(g).mu
            assert 0 < bound <= mdim._root_lower_bound(g) <= mu, g.adj
            tight += bound == mu
        assert tight >= 90  # 108 with this seed

    def test_at_most_every_golden_metric_dimension(self):
        checked = 0
        for row in verify.load_golden():
            if row.check == "mdim_zoo":
                pairs = [(row.args, row.expected)]
            elif row.check == "mdim_list":
                pairs = list(zip(row.args["graphs"], row.expected))
            elif row.check == "biplane_mu":
                pairs = [(row.args["graph"], row.expected["mu"])]
            else:
                continue
            for spec, mu in pairs:
                assert mdim._root_lower_bound(graph(spec)) <= mu, spec
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("q", [29, 37, 41, 61])
    def test_at_most_a_verified_resolving_set(self, q):
        # Taylor(P37): greedy's 6-set, so counting (n_f - h)t sets, not
        # (n_f - h)t - 1, would give 7 here
        g = taylor(family("paley", q))
        assert mdim._root_lower_bound(g) <= mdim_greedy(g).mu

    def test_exactly_lower_bound_nd_where_neither_structure_is(self):
        graphs = [ZOO[name]() for name in sorted(ZOO) if name != "Q_8"]
        graphs += [random_graph(n, p, seed) for n in (6, 8, 10, 12)
                   for p in (0.2, 0.3, 0.5) for seed in range(15)]
        neither = 0
        for g in graphs:
            dm = g.distances
            if not dm.connected or networkx_structure(g) is not None:
                continue
            assert mdim._root_lower_bound(g) == lower_bound_nd(g.n, dm.diameter), g.adj
            neither += dm.diameter == 3
        assert neither >= 10

    def test_the_subset_count_matches_brute_force(self):
        for k in range(5):
            for m in range(-1, 2**k + 1):
                assert mdim._subsets_total(k, m) == brute_subsets_total(k, m), (k, m)

    def test_the_fibre_count_matches_brute_force(self):
        def fits(n_f, t, k):
            return any(brute_subsets_total(k, (n_f - h) * t - 1) <= k * (n_f - h)
                       for h in range(min(k, n_f) + 1))

        for n_f in range(1, 9):
            for t in range(2, 5):
                least = next((k for k in range(5) if fits(n_f, t, k)), None)
                bound = mdim._fibre_count_bound(n_f, t)
                assert bound == least if least is not None else bound > 4, (n_f, t)

    def test_the_bipartite_count_matches_every_split(self):
        for n_x in range(1, 13):
            for n_y in range(1, 13):
                for lam_x in range(4):
                    for lam_y in range(4):
                        least = min(
                            a + b for a in range(n_x + 1) for b in range(n_y + 1)
                            if n_y - b <= mdim._told_apart(a, lam_x)
                            and n_x - a <= mdim._told_apart(b, lam_y)
                        )
                        bound = mdim._bipartite_count_bound(n_x, n_y, lam_x, lam_y)
                        assert bound == least, (n_x, n_y, lam_x, lam_y)


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
        assert dm.dist[0, u] == dm.dist[0, w] and dm.dist[3, u] == dm.dist[3, w]

    def test_duplicates_collapse(self):
        cert = certify(family("cycle", 6), [0, 0, 1, 1])
        assert cert.set == (0, 1)

    @pytest.mark.parametrize("s", ["10", [1.5], [0, "1"]])
    def test_non_integer_vertices_are_rejected(self, s):
        # int() would read "10" as {1, 0} and 1.5 as 1
        with pytest.raises(BadParameters, match="must be integers"):
            certify(family("cycle", 12), s)

    def test_numpy_integers_are_accepted(self):
        cert = certify(family("cycle", 6), np.array([1, 0]))
        assert cert.set == (0, 1) and type(cert.set[0]) is int

    @pytest.mark.parametrize(
        "mask",
        [[True, False, False, True], np.array([True, False, False, True]), [0, True]],
        ids=["bools", "numpy-bools", "mixed"],
    )
    def test_boolean_masks_are_rejected(self, mask):
        # bool is an int subclass: read as ids, the mask would certify (0, 1)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(BadParameters, match="must be integers"):
            certify(g, mask)
        with pytest.raises(BadParameters, match="must be integers"):
            is_resolving(g.distances, mask)
        with pytest.raises(BadParameters, match="must be integers"):
            min_cover(pair_cover_instance(g.distances), forced=mask)

    def test_generators_are_accepted(self):
        cert = certify(family("cycle", 6), (v for v in (1, 0)))
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

    @pytest.mark.parametrize("budget", [0.5, 3.5, 3.0, None, True, False, "3"])
    def test_a_budget_that_is_not_an_int_is_rejected(self, budget):
        with pytest.raises(BadParameters):
            mdim_exact(ZOO["heawood"](), budget=budget)

    # GQ(2,2) incidence: its greedy seed stays above its root bound, so a
    # budget decides the status
    def test_a_numpy_integer_budget_counts_as_an_int(self):
        cert = mdim_exact(ZOO["gq22_incidence"](), budget=np.int64(3))
        assert (cert.nodes_explored, cert.status) == (3, "verified-resolving")
        assert cert == mdim_exact(ZOO["gq22_incidence"](), budget=3)

    def test_spent_budget_downgrades_the_status(self):
        cert = mdim_exact(ZOO["gq22_incidence"](), budget=0)
        assert cert.status == "verified-resolving"
        assert is_resolving(bfs_distances(ZOO["gq22_incidence"]()), cert.set)

    @pytest.mark.parametrize("budget", [0, 5])
    def test_a_spent_budget_counts_exactly_its_nodes(self, budget):
        cert = mdim_exact(family("hypercube", 6), budget=budget)
        assert (cert.nodes_explored, cert.status) == (budget, "verified-resolving")

    def test_the_environment_sets_no_budget(self, monkeypatch):
        g = ZOO["heawood"]()
        monkeypatch.setenv("MDIMLAB_BUDGET", "0")
        cert = mdim_exact(g)
        assert cert == mdim_exact(g, budget=cover.DEFAULT_BUDGET)
        assert cert.status == "minimum"

    # Node counts of the search without an orbit, the path mdim_exact takes
    # when min_cover finds no automorphism moving vertex 0.  Every tie-break is
    # deterministic, so a change that only speeds the search up leaves them
    # as they are.
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
        g = ZOO[name]()
        inst = pair_cover_instance(g.distances)
        lb = lower_bound_nd(g.n, g.distances.diameter)
        res = min_cover(inst, forced=twin_forced_choices(g), lower_stop=lb, symmetries=())
        assert res.optimal
        assert res.nodes == nodes

    # Node counts of mdim_exact in constructor labels: the symmetric path,
    # with orbital branching over the stabiliser orbits of vertex 0, unless
    # the greedy seed meets the root lower bound (Taylor(P17), whose fibre
    # bound is 5), so that neither the finder nor a search runs: no node.
    @pytest.mark.parametrize(
        "name,nodes",
        [
            ("Q_6", 102),
            ("johnson_8_4", 72),
            ("doubled_odd_4", 131),
            ("taylor_paley_17", 0),
            ("gq22_incidence", 215),
            pytest.param("biplane_incidence", 312, marks=pytest.mark.slow),
        ],
    )
    def test_symmetric_node_counts_are_pinned(self, name, nodes):
        cert = mdim_exact(ZOO[name]())
        assert cert.status == "minimum"
        assert cert.method == ("exact-bnb-sym" if nodes else "exact-bnb")
        assert cert.nodes_explored == nodes

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "build, nodes",
        [
            (lambda: family("hypercube", 7), 8726),
            (lambda: family("johnson", 9, 4), 6190),
            (lambda: fold(family("hypercube", 7))[0], 1742),
        ],
        ids=["Q_7", "johnson_9_4", "folded_Q_7"],
    )
    def test_root_symmetry_proves_the_larger_graphs(self, build, nodes):
        cert = mdim_exact(build())
        assert cert.status == "minimum"
        assert cert.mu == 6
        assert cert.nodes_explored == nodes

    @pytest.mark.slow
    def test_orbital_branching_proves_q8(self):
        # the root orbit alone needed 862k nodes
        g = family("hypercube", 8)
        cert = mdim_exact(g)
        assert cert.status == "minimum" and cert.method == "exact-bnb-sym"
        assert cert.mu == 6 and is_resolving(g.distances, cert.set)
        assert cert.nodes_explored == 39909

    # the two proofs whose search keeps the fewest of its pairs: every
    # root holds vertex 0, so only the pairs it leaves unseparated stay
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "build, nodes",
        [
            (lambda: bipartite_double(family("odd", 5)), 40404),
            (lambda: family("johnson", 10, 5), 28024),
        ],
        ids=["doubled_odd_5", "johnson_10_5"],
    )
    def test_orbital_branching_proves_the_open_pair_searches(self, build, nodes):
        g = build()
        cert = mdim_exact(g)
        assert cert.status == "minimum" and cert.method == "exact-bnb-sym"
        assert cert.mu == 6 and is_resolving(g.distances, cert.set)
        assert cert.nodes_explored == nodes


def relabel(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def random_symmetric_graph(rng: random.Random) -> Graph:
    """A random graph on 5-10 vertices whose edge set is a random union of
    edge orbits of a permutation pi, in random labels.  pi is an n-cycle
    (a circulant), a random permutation or the identity (a plain random
    graph), so full, partial and trivial orbits of vertex 0 all occur."""
    n = rng.randint(5, 10)
    pi = list(range(n))
    kind = rng.random()
    if kind < 0.2:
        pi = pi[1:] + pi[:1]
    elif kind < 0.6:
        rng.shuffle(pi)
    p = rng.choice((0.25, 0.4, 0.55))
    edges: set[tuple[int, int]] = set()
    seen: set[tuple[int, int]] = set()
    for u, w in combinations(range(n), 2):
        orbit = []
        while (u, w) not in seen:
            seen.add((u, w))
            orbit.append((u, w))
            u, w = sorted((pi[u], pi[w]))
        if orbit and rng.random() < p:
            edges.update(orbit)
    return relabel(Graph.from_edges(n, edges), rng.randrange(10**9))


def orbit_of_zero(n: int, generators) -> set[int]:
    orbit, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for p in generators:
            if p[x] not in orbit:
                orbit.add(p[x])
                todo.append(p[x])
    return orbit


def keeps_edges(g: Graph, p) -> bool:
    """Reference automorphism test on the edge set."""
    edges = set(g.edges())
    return sorted(p) == list(range(g.n)) and all(
        tuple(sorted((p[u], p[w]))) in edges for u, w in edges
    )


def networkx_oracle(g: Graph) -> tuple[int, ...]:
    """The first subset, in size then lexicographic order, whose distance
    vectors differ, with distances from networkx and unreachable read as
    -1."""
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    dist = dict(nx.all_pairs_shortest_path_length(h))
    return next(
        s for size in range(g.n + 1) for s in combinations(range(g.n), size)
        if len({tuple(dist[v].get(u, -1) for u in s) for v in range(g.n)}) == g.n
    )


class TestExhaustiveOracle:
    def test_matches_a_networkx_enumeration(self):
        self.check_random_graphs()

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_chunk_boundaries_keep_the_first_set(self, chunk, monkeypatch):
        # chunks of 1 and 3 subsets put the answer at every place in a chunk
        # and on either side of a chunk boundary
        monkeypatch.setattr(mdim, "_CHUNK", chunk)
        self.check_random_graphs()

    @staticmethod
    def check_random_graphs():
        rng = random.Random(5)
        seen = set()
        for _ in range(100):
            n = rng.randint(1, 8)
            p = rng.uniform(0.1, 0.7)
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            cert = exhaustive_mdim(g)
            assert (cert.set, cert.status) == (networkx_oracle(g), "minimum"), g.adj
            seen.add("one vertex" if n == 1 else g.distances.connected)
        assert seen == {"one vertex", True, False}

    def test_shares_no_code_with_the_solver_or_the_pair_check(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called code that it cross-checks")

        for name in ("build_instance", "min_cover", "greedy_cover"):
            monkeypatch.setattr(cover, name, refuse)
            monkeypatch.setattr(mdim, name, refuse)
        monkeypatch.setattr(mdim, "_first_unseparated", refuse)
        for name in ("petersen", "heawood", "K_3x4", "Q_4", "2K_3", "icosahedron"):
            g = ZOO[name]()
            assert exhaustive_mdim(g).set == networkx_oracle(g), name

    @pytest.mark.parametrize("n,size", [(4, 0), (4, 2), (7, 3), (10, 5)])
    def test_the_subset_table_is_built_once_and_read_only(self, n, size):
        # the oracle reads it for each size that fits in one chunk, and
        # random_soundness for its undersized subsets
        subsets = mdim._subsets(n, size)
        assert subsets.shape == (math.comb(n, size), size)
        assert list(map(tuple, subsets.tolist())) == list(combinations(range(n), size))
        assert mdim._subsets(n, size) is subsets
        with pytest.raises(ValueError, match="read-only"):
            subsets[:] = 0

    @pytest.mark.parametrize("name", ["petersen", "K_3x4", "icosahedron", "2K_3"])
    def test_streamed_chunks_find_the_set_of_the_table(self, name, monkeypatch):
        g = ZOO[name]()
        kept = exhaustive_mdim(g)
        size = kept.mu
        assert math.comb(g.n, size) <= mdim._CHUNK  # the table answered
        for chunk in (1, 7, math.comb(g.n, size) - 1):
            monkeypatch.setattr(mdim, "_CHUNK", chunk)
            streamed = list(mdim._chunks(g.n, size))
            assert all(part.shape[0] <= chunk for part in streamed)
            assert np.concatenate(streamed).tolist() == mdim._subsets(g.n, size).tolist()
            assert exhaustive_mdim(g) == kept, chunk


# the oracle's sort of distance rows and the pair check that judges the
# sampled subsets of random-soundness, each against is_resolving
@pytest.mark.parametrize(
    "resolving", [mdim._resolving_rows, verify._separating_rows], ids=["sort", "pairs"]
)
class TestResolvingRows:
    def test_matches_is_resolving_on_every_subset(self, resolving):
        seen = set()
        for n in range(1, 8):
            for seed in range(8):
                g = random_graph(n, 0.1 + 0.08 * seed, seed)
                dm = g.distances
                for size in range(n + 1):
                    subsets = list(combinations(range(n), size))
                    rows = np.array(subsets, dtype=np.intp).reshape(len(subsets), size)
                    got = resolving(dm.dist, rows).tolist()
                    assert got == [is_resolving(dm, s) for s in subsets], (g.adj, size)
                seen.add("one vertex" if n == 1 else dm.connected)
        assert seen == {"one vertex", True, False}

    def test_long_rows_with_unreachable_entries_compare_exactly(self, resolving):
        # rows of up to 40 bytes, most of them UNREACHABLE: the sort reads
        # them as up to five uint64 words and must compare every word
        rng = random.Random(11)
        for seed in range(6):
            g = random_components((9, 1, 12, 2, 16), 0.3, seed)
            dm = g.distances
            for size in (1, 16, 24, 32, 40):
                subsets = [rng.sample(range(g.n), size) for _ in range(30)]
                got = resolving(dm.dist, np.array(subsets, dtype=np.intp))
                assert got.tolist() == [is_resolving(dm, s) for s in subsets]

    @pytest.mark.parametrize("m", [7, 8, 9, 16, 17])
    def test_rows_on_either_side_of_a_word_boundary(self, resolving, m):
        # the sort pads m distances to whole uint64 words; in sorted subsets
        # the first 8 columns lie in the first blocks, so vertices of the last
        # block agree on the first word and differ, if at all, in later ones
        rng = random.Random(m)
        seen = set()
        for seed in range(8):
            g = random_components((3, 1, 2, 6, 7), 0.5, seed)
            dm = g.distances
            subsets = [sorted(rng.sample(range(g.n), m)) for _ in range(40)]
            subsets += [rng.sample(range(g.n), m) for _ in range(40)]
            got = resolving(dm.dist, np.array(subsets, dtype=np.intp)).tolist()
            assert got == [is_resolving(dm, s) for s in subsets], (seed, m)
            seen.update(got)
        assert seen == {True, False}


class TestRootSymmetry:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: family("cycle", 9),
            ZOO["petersen"],
            ZOO["Q_4"],
            ZOO["paley_13"],
            ZOO["heawood"],
            ZOO["shrikhande"],
            ZOO["icosahedron"],
        ],
        ids=["C_9", "petersen", "Q_4", "paley_13", "heawood", "shrikhande",
             "icosahedron"],
    )
    def test_vertex_transitive_graphs_match_the_oracle(self, build):
        g0 = build()
        mu = exhaustive_mdim(g0).mu
        for seed in range(3):
            g = relabel(g0, seed)
            cert = mdim_exact(g)
            assert cert.status == "minimum" and cert.mu == mu
            assert is_resolving(g.distances, cert.set)
            if cert.method == "exact-bnb-sym":
                assert all(keeps_edges(g, p) for p in cert.generators)
                assert orbit_of_zero(g.n, cert.generators) == set(range(g.n))

    def test_random_graphs_with_full_and_partial_orbits_match_the_oracle(self):
        rng = random.Random(20261018)
        kinds = {"full": 0, "partial": 0}
        checked = 0
        while checked < 300:
            g = random_symmetric_graph(rng)
            if not g.distances.connected:
                continue
            checked += 1
            cert = mdim_exact(g)
            assert cert.status == "minimum"
            assert cert.mu == exhaustive_mdim(g).mu, g.adj
            if cert.generators:
                assert cert.method == "exact-bnb-sym"
                assert all(keeps_edges(g, p) for p in cert.generators)
                full = orbit_of_zero(g.n, cert.generators) == set(range(g.n))
                kinds["full" if full else "partial"] += 1
        assert kinds["full"] >= 5 and kinds["partial"] >= 5, kinds

    def test_disconnected_twin_free_graphs_match_the_oracle(self):
        # the finder reads the distance instance alone, unreachable entries
        # included, so disconnected graphs take the symmetric path too
        rng = random.Random(20261019)
        methods = {"exact-bnb": 0, "exact-bnb-sym": 0}
        checked = 0
        while checked < 200:
            g = random_symmetric_graph(rng)
            if g.distances.connected or twin_classes(g):
                continue
            checked += 1
            cert = mdim_exact(g)
            assert cert.status == "minimum"
            assert cert.mu == exhaustive_mdim(g).mu, g.adj
            assert all(keeps_edges(g, p) for p in cert.generators)
            methods[cert.method] += 1
        assert min(methods.values()) >= 5, methods

    def test_the_check_rejects_a_transposition(self):
        g = ZOO["petersen"]()
        swap = list(range(g.n))
        swap[0], swap[1] = 1, 0
        assert not keeps_edges(g, swap)
        inst = pair_cover_instance(g.distances)
        assert not is_symmetry(inst, swap)
        assert is_symmetry(inst, range(g.n))

    def test_the_check_rejects_a_non_permutation(self):
        inst = pair_cover_instance(ZOO["petersen"]().distances)
        assert not is_symmetry(inst, [0] * 10)
        assert not is_symmetry(inst, range(9))

    def test_generators_appear_in_json_only_on_the_symmetric_path(self):
        sym = mdim_exact(ZOO["Q_6"]())
        assert sym.method == "exact-bnb-sym"
        payload = sym.to_json()
        assert [tuple(p) for p in payload["generators"]] == list(sym.generators)
        plain = mdim_exact(ZOO["petersen"]())  # greedy meets the lower bound
        assert plain.method == "exact-bnb" and plain.generators == ()
        assert "generators" not in plain.to_json()

    def test_spent_finder_work_leaves_the_plain_search(self, monkeypatch):
        monkeypatch.setattr(cover, "FINDER_WORK", 0)
        cert = mdim_exact(ZOO["gq22_incidence"]())
        assert cert.method == "exact-bnb" and cert.nodes_explored == 6169

    def test_one_greedy_seed_per_solve(self, monkeypatch):
        # min_cover computes the seed that gates and feeds the finder
        calls = []
        greedy = cover.greedy_cover

        def counted(*args, **kwargs):
            calls.append(args)
            return greedy(*args, **kwargs)

        # mdim holds its own binding of the name, for mdim_greedy
        monkeypatch.setattr(cover, "greedy_cover", counted)
        monkeypatch.setattr(mdim, "greedy_cover", counted)
        cert = mdim_exact(ZOO["Q_6"]())
        assert cert.method == "exact-bnb-sym" and cert.nodes_explored == 102
        assert len(calls) == 1


class TestSelfChecks:
    """The package checks the sets its own solvers return before it
    reports them: a solver that returns a set that fails is an error."""

    def test_an_exact_set_that_fails_raises(self, monkeypatch):
        monkeypatch.setattr(mdim, "min_cover", lambda *args, **kwargs: CoverResult((0,), 0, True))
        with pytest.raises(LiftVerificationError,
                           match=r"^exact-bnb left pair \(1, 2\) unseparated$"):
            mdim_exact(ZOO["petersen"]())
        with pytest.raises(LiftVerificationError,
                           match=r"^exact-bnb-semi-blocks left pair \(0, 2\) unseparated$"):
            min_semi_resolving(pg2(2))

    def test_a_greedy_set_that_fails_raises(self, monkeypatch):
        monkeypatch.setattr(mdim, "greedy_cover", lambda inst: [0])
        with pytest.raises(LiftVerificationError,
                           match=r"^greedy produced a set that fails to resolve pair \(1, 2\)$"):
            mdim_greedy(ZOO["petersen"]())


class TestMdimGreedy:
    def test_result_resolves_and_bounds_the_optimum(self):
        for name in ("petersen", "heawood", "icosahedron"):
            g = ZOO[name]()
            greedy = mdim_greedy(g)
            assert greedy.status == "verified-resolving"
            assert is_resolving(bfs_distances(g), greedy.set)
            assert len(greedy.set) >= len(mdim_exact(g).set)


class TestKeptInstance:
    """A graph keeps its distance instance (mdim._instance): mdim_greedy and
    mdim_exact on one graph build it once, and answer as solves that each
    build their own."""

    def test_greedy_and_exact_on_one_graph_build_one_instance(self, monkeypatch):
        built = []
        build = mdim.build_instance

        def keep(matrix):
            built.append(build(matrix))
            return built[-1]

        monkeypatch.setattr(mdim, "build_instance", keep)
        g = family("hypercube", 5)
        mdim_greedy(g)
        mdim_exact(g)
        mdim_exact(g, budget=0)
        assert len(built) == 1 and mdim._instance(g) is built[0]
        mdim_greedy(copy.copy(g))  # a copy holds n and adj only, so it builds its own
        assert len(built) == 2 and built[1] is not built[0]

    def test_the_kept_instance_is_the_built_one(self):
        g = ZOO["petersen"]()
        inst = mdim._instance(g)
        fresh = pair_cover_instance(g.distances)
        assert inst.matrix is g.distances.dist and not inst.words.flags.writeable
        assert (inst.n_choosers, inst.n_entities) == (fresh.n_choosers, fresh.n_entities)
        assert np.array_equal(inst.words, fresh.words)

    @pytest.mark.parametrize("name", ["petersen", "heawood", "Q_4", "johnson_5_2", "desargues"])
    def test_shared_solves_answer_as_fresh_ones(self, name):
        def solves(make):
            certs = (mdim_greedy(make()), mdim_exact(make()), mdim_exact(make(), budget=3))
            return [(c.to_json(), c.generators) for c in certs]

        g = ZOO[name]()
        assert solves(lambda: g) == solves(ZOO[name])


def _union_find_twins(inst) -> list[tuple[int, ...]]:
    """Union-find reference for twin_classes."""
    parent = list(range(inst.n_choosers))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    m = inst.matrix
    for u, w in combinations(range(inst.n_entities), 2):
        # the choosers that separate u and w are u and w alone
        if np.flatnonzero(m[:, u] != m[:, w]).tolist() == [u, w]:
            ru, rw = find(u), find(w)
            parent[max(ru, rw)] = min(ru, rw)
    groups: dict[int, list[int]] = {}
    for v in range(inst.n_choosers):
        groups.setdefault(find(v), []).append(v)
    return [tuple(g) for g in sorted(groups.values()) if len(g) > 1]


class TestTwins:
    def test_complete_graph_is_one_twin_class(self):
        g = family("complete", 4)
        assert twin_classes(g) == [(0, 1, 2, 3)]
        assert twin_forced_choices(g) == [0, 1, 2]

    def test_square_has_two_antipodal_twin_pairs(self):
        g = family("cycle", 4)
        assert twin_classes(g) == [(0, 2), (1, 3)]
        assert twin_forced_choices(g) == [0, 1]

    def test_twin_free_graph_forces_nothing(self):
        g = ZOO["petersen"]()
        assert twin_classes(g) == []
        assert twin_forced_choices(g) == []

    def test_matches_a_union_find_reference(self):
        graphs = [family("complete", 5), family("complete_multipartite", 3, 4)]
        graphs += [random_graph(n, p, seed) for n in (4, 6, 9)
                   for p in (0.2, 0.5, 0.8) for seed in range(6)]
        # several components, isolated vertices among them: the distance
        # instance separates a cross-component pair by both components
        graphs += [random_components(sizes, p, seed)
                   for sizes in ((1, 1), (1, 3), (2, 1, 1, 3), (3, 3, 1), (4, 1, 4))
                   for p in (0.3, 0.7) for seed in range(4)]
        graphs += [ZOO[name]() for name in ZOO]
        classes = []
        for g in graphs:
            expected = _union_find_twins(pair_cover_instance(bfs_distances(g)))
            assert twin_classes(g) == expected, g.adj
            classes += expected
        assert max(map(len, classes)) >= 4
        assert sum(len(c) >= 3 for c in classes) >= 5
        isolated = [g for g in graphs if sum(row == 0 for row in g.adj) >= 2]
        assert len(isolated) >= 10
        assert all(twin_classes(g) for g in isolated)

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

    def test_max_class_matches_a_sphere_scan(self):
        checked = 0
        for name, build in ZOO.items():
            g = build()
            if not is_distance_regular(g) or g.n < 2 or not is_primitive(g):
                continue
            dm = g.distances
            want = max(s.bit_count() for u in range(g.n) for s in dm.spheres(u)[1:])
            assert babai_bounds(g).max_class == want, name
            checked += 1
        assert checked >= 8

    def test_srg_bound_only_at_diameter_two(self):
        rep = babai_bounds(ZOO["odd_4"]())
        assert rep.d == 3 and rep.srg is None

    def test_one_vertex_graph_is_a_typed_error(self):
        with pytest.raises(MdimlabError):
            babai_bounds(Graph.from_edges(1, []))

    def test_imprimitive_input_is_rejected(self):
        with pytest.raises(HypothesisFailure, match="stated for primitive graphs"):
            babai_bounds(family("hypercube", 3))  # bipartite and antipodal
        with pytest.raises(HypothesisFailure, match="stated for primitive graphs"):
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

    @pytest.mark.parametrize("side", ["blocks", "points"])
    def test_node_counts_are_pinned(self, side):
        # semi-resolving searches ask for no symmetries, so the plain
        # search runs in constructor labels
        cert = min_semi_resolving(pg2(3), side=side)
        assert cert.status == "minimum" and cert.mu == 6
        assert cert.method == f"exact-bnb-semi-{side}"
        assert cert.nodes_explored == 291 and cert.generators == ()

    def test_split_dimension_rejects_blocks_of_v_minus_1_points(self):
        # the (3, 2, 1) design: each block misses one point
        d = SymmetricDesign(v=3, k=2, lam=1, inc=1 - np.eye(3, dtype=int))
        with pytest.raises(BadParameters, match="split dimension needs 1 < k < v-1"):
            split_mdim(d)

    def test_negative_budget_is_rejected(self):
        with pytest.raises(BadParameters):
            min_semi_resolving(pg2(2), budget=-1)
        with pytest.raises(BadParameters):
            split_mdim(pg2(2), budget=-1)

    @pytest.mark.parametrize("v, k", [(2, 2), (3, 0)])
    def test_degenerate_design_raises_bad_parameters(self, v, k):
        # every block is the same (all points, or none), so no pair on
        # either side has a separator
        d = SymmetricDesign(v=v, k=k, lam=k, inc=np.full((v, v), int(k > 0)))
        for side in ("blocks", "points"):
            with pytest.raises(BadParameters, match="infeasible"):
                min_semi_resolving(d, side=side)


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
