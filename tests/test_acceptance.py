"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Each test restates a quantitative guarantee the package ships with: exact
closed-form values, equality and bound transfers between related graphs,
design-side values, classifier coverage, solver soundness against the
exhaustive oracle, and the bound chain.  Every test also enforces the time
budget the guarantee is promised under.
"""

import time

import numpy as np
import pytest

from mdimlab import (
    babai_bounds,
    bfs_distances,
    bipartite_double,
    classify_ah,
    design_complement,
    design_from_graph,
    exhaustive_mdim,
    family,
    incidence_graph,
    induced_neighborhood,
    is_double_blocking,
    is_primitive,
    is_resolving,
    is_semi_resolving_for_blocks,
    lift_folded,
    lift_halved,
    lower_bound_nd,
    mdim_exact,
    mdim_greedy,
    pg2,
    taylor,
    taylor_lift,
    three_lines_2blocking,
)
from mdimlab import halve as halve_graph
from mdimlab.verify import CHECKS, load_golden
from mdimlab.zoo import SOLVABLE, ZOO


def _golden_args(row_id: str) -> dict:
    (row,) = [r for r in load_golden() if r.id == row_id]
    return row.args


def test_criterion_01_cycle_complete_and_clique_union_formulas():
    start = time.monotonic()
    for n in range(5, 13):
        assert mdim_exact(family("cycle", n)).mu == 2
    for n in range(3, 9):
        assert mdim_exact(family("complete", n)).mu == n - 1
    for s in (2, 3):
        for t in (2, 3, 4):
            assert mdim_exact(family("disjoint_cliques", s, t)).mu == s * (t - 1)
    assert time.monotonic() - start < 1.0


def test_criterion_02_complete_bipartite_minus_matching_formula():
    start = time.monotonic()
    for v in (3, 4, 5, 6):
        g = bipartite_double(family("complete", v))
        assert mdim_exact(g).mu == v - 1
    assert time.monotonic() - start < 1.0


def test_criterion_03_doubling_preserves_the_dimension():
    start = time.monotonic()
    for build in (
        lambda: family("complete", 4),
        lambda: ZOO["petersen"](),
        lambda: ZOO["odd_4"](),
    ):
        g = build()
        doubled = bipartite_double(g)
        assert mdim_exact(doubled).mu == mdim_exact(g).mu
    # the smallest odd graph: both sides equal and within twice valency
    # minus two
    small = family("odd", 3)
    mu = mdim_exact(small).mu
    assert mu == mdim_exact(bipartite_double(small)).mu <= 4
    assert time.monotonic() - start < 60.0


def test_criterion_04_halved_and_folded_lifts():
    start = time.monotonic()
    # halving: the lift has exactly the sum of the two halves' dimensions
    for build in (
        lambda: family("hypercube", 3),
        lambda: family("hypercube", 4),
        lambda: family("complete_multipartite", 2, 4),
    ):
        g = build()
        plus, minus, _, _ = halve_graph(g)
        r_plus = mdim_exact(plus).set
        r_minus = mdim_exact(minus).set
        cert = lift_halved(g, r_plus, r_minus)
        assert cert.status == "verified-resolving"
        assert len(cert.set) == len(r_plus) + len(r_minus)
    # folding, far-vertex case: complete multipartite covers of complete
    # graphs hit the s*(t-1) size
    for s, t in ((2, 3), (3, 4)):
        g = family("complete_multipartite", s, t)
        folded_mu = s - 1
        out = lift_folded(g, tuple(range(folded_mu)))
        assert out.case == "iii"
        assert len(out.certificate.set) == s * (t - 1)
    # folding, plain case
    for build, r_bar in (
        (lambda: taylor(family("cycle", 5)), (0, 1, 2, 3, 4)),
        (lambda: family("hypercube", 3), (0, 1, 2)),
    ):
        out = lift_folded(build(), r_bar)
        assert out.case == "ii"
        assert out.certificate.status == "verified-resolving"
    assert time.monotonic() - start < 10.0


def test_criterion_05_two_fold_covers_add_exactly_one():
    start = time.monotonic()
    for name, params in (("cycle", (5,)), ("paley", (13,)), ("paley", (17,))):
        base = family(name, *params)
        cover = taylor(base)
        base_mu = mdim_exact(base).mu
        assert mdim_exact(cover).mu == base_mu + 1
        # the constructive transfer achieves that size
        lifted = taylor_lift(cover, mdim_exact(base).set)
        assert len(lifted.set) == base_mu + 1
    # every local graph of the 28-vertex cover stays within one of the base
    cover = taylor(family("paley", 13))
    base_mu = 4
    for w in range(cover.n):
        local, _ = induced_neighborhood(cover, w)
        assert mdim_exact(local).mu in (base_mu, base_mu + 1)
    assert time.monotonic() - start < 300.0


@pytest.mark.slow
def test_criterion_06_biplane_value_and_complement_invariance():
    start = time.monotonic()
    rook = family("rook", 4, 4)
    biplane = design_from_graph(bipartite_double(rook))
    assert (biplane.v, biplane.k, biplane.lam) == (16, 6, 2)
    mu = mdim_exact(incidence_graph(biplane)).mu
    assert mu == 8
    assert mu <= 2 * mdim_exact(rook).mu
    # complementing the smallest plane does not move the dimension
    fano = pg2(2)
    mu_fano = mdim_exact(incidence_graph(fano)).mu
    mu_comp = mdim_exact(incidence_graph(design_complement(fano))).mu
    assert mu_fano == mu_comp
    assert time.monotonic() - start < 1800.0


def test_criterion_07_three_line_unions_semi_resolve_after_any_deletion():
    start = time.monotonic()
    for q in (2, 3, 5):
        plane = pg2(q)
        _, union = three_lines_2blocking(plane)
        assert len(union) == 3 * q
        assert is_double_blocking(plane, union)
        for drop in union:
            remaining = tuple(x for x in union if x != drop)
            assert is_semi_resolving_for_blocks(plane, remaining)
    assert time.monotonic() - start < 10.0


def test_criterion_08_thirteen_structure_classes():
    start = time.monotonic()
    expected = {
        "petersen": "AH1",
        "C_7": "AH2",
        "K_6": "AH3",
        "K_3x4": "AH4",
        "Q_3": "AH5",
        "heawood": "AH6",
        "icosahedron": "AH7",
        "Q_4": "AH8",
        "Q_6": "AH9",
        "johnson_8_4": "AH10",
        "gq22_incidence": "AH11",
        "desargues": "AH12",
        "Q_8": "AH13",
    }
    assert sorted(set(expected.values())) == sorted(
        f"AH{i}" for i in range(1, 14)
    )
    for name, label in expected.items():
        result = classify_ah(ZOO[name]())
        assert result.label == label, name
        assert all(ok for _, ok in result.subclaims), name
    assert time.monotonic() - start < 120.0


def test_criterion_09_solver_agrees_with_the_exhaustive_oracle():
    start = time.monotonic()
    # 200 seeded random connected graphs, certificates re-verified, and
    # every undersized subset rejected per instance
    args = _golden_args("random-soundness")
    outcome = CHECKS["random_soundness"](args)
    assert outcome == {"mismatches": 0, "undersized_successes": 0}
    # every library graph small enough to enumerate exhaustively
    rng = np.random.default_rng(20260817)
    for name, build in ZOO.items():
        g = build()
        if g.n > 12:
            continue
        cert = mdim_exact(g)
        oracle = exhaustive_mdim(g)
        assert cert.mu == oracle.mu, name
        dm = bfs_distances(g)
        assert is_resolving(dm, cert.set)
        if cert.mu > 0:
            for _ in range(50):
                sub = rng.choice(g.n, size=cert.mu - 1, replace=False)
                assert not is_resolving(dm, sub.tolist())
    assert time.monotonic() - start < 600.0


def test_criterion_10_bound_chain_on_every_library_graph():
    start = time.monotonic()
    for name, build in ZOO.items():
        g = build()
        dm = bfs_distances(g)
        # the distance-alphabet counting bound needs a finite diameter
        lb = lower_bound_nd(g.n, dm.diameter) if dm.connected else 0
        greedy_mu = mdim_greedy(g).mu
        assert lb <= greedy_mu, name
        if name in SOLVABLE:
            mu = mdim_exact(g).mu
            assert lb <= mu <= greedy_mu, name
            if dm.connected and is_primitive(g):
                report = babai_bounds(g)
                assert mu <= report.general
                assert mu <= report.distance_class
                if report.srg is not None:
                    assert mu <= report.srg
    assert time.monotonic() - start < 60.0
