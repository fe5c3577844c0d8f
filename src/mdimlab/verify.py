"""Golden-value regression suite.

Every quantitative claim the library stands behind lives in data/golden.json
as one row: an id, a human-readable claim, a provenance label ("formula",
"computed", or "literature"), the name of a registered check, its
arguments, and the frozen expected value.  Running the suite recomputes each
row that names a check and compares; a row with no check ("recorded") is a
literature value with no constructor in this package and is reported
without being recomputed.

A check reads its graphs and designs from its row's arguments as the specs
that zoo.graph and zoo.design read: graphs {"name"}, {"family", "params"},
{"double"}, {"taylor"} and {"incidence"}, designs {"plane"}, {"complement"}
and {"of"}.  A check of one graph or design takes its spec as its arguments
(taylor_plus_one and descendant_values that of the cover's base); mdim_list
takes {"graphs": [...]}, a one-graph list included, biplane_mu {"graph",
"base"}, ah_zoo {"names": [ZOO name, ...]} and semi_resolving {"design",
"side"}; random_soundness takes {"count", "max_n", "seed"}, and
bounds_chain and babai_cross take {}.
Arguments of any other keys, or a graphs or names that is no list, raise
BadParameters naming the check.

Within one run_suite call the rows share their inputs and answers: each
distinct spec is built once and each distinct labelled graph solved once.
zoo's one run memo keeps both, and it ends with the run, so a check called
directly builds and solves anew.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable

import numpy as np

from .designs import is_double_blocking, three_lines_2blocking
from .errors import BadParameters, BudgetExceeded, LiftVerificationError
from .graphs import Graph, as_ints, induced_neighborhood, intersection_array, is_primitive
from .imprimitivity import classify_ah, fold, halve
from .lifting import lift_folded, lift_halved, taylor_lift
from .mdim import (
    ResolvingCertificate,
    _root_lower_bound,
    _subsets,
    babai_bounds,
    exhaustive_mdim,
    is_resolving,
    is_semi_resolving_for_blocks,
    mdim_exact,
    mdim_greedy,
    min_semi_resolving,
    split_mdim,
)
from .zoo import _RUN, SOLVABLE, ZOO, _built, _form, design, graph


@dataclass(frozen=True)
class GoldenRow:
    id: str
    claim: str
    source: str
    check: str | None
    args: dict[str, Any]
    expected: Any


@dataclass(frozen=True)
class RowResult:
    row: GoldenRow
    computed: Any
    ok: bool | None  # None: recorded, not run

    @property
    def ran(self) -> bool:
        return self.ok is not None


@dataclass(frozen=True)
class Report:
    results: tuple[RowResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results if r.ran)

    @property
    def counts(self) -> dict[str, int]:
        ran = [r for r in self.results if r.ran]
        return {
            "passed": sum(1 for r in ran if r.ok),
            "failed": sum(1 for r in ran if not r.ok),
            "recorded": sum(1 for r in self.results if not r.ran),
        }

    def render(self) -> str:
        lines = []
        width = max((len(r.row.id) for r in self.results), default=10) + 2
        for r in self.results:
            if not r.ran:
                status = "recorded"
                detail = f"literature value {_shorten(r.row.expected)}"
            elif r.ok:
                status = "pass"
                detail = _shorten(r.computed)
            else:
                status = "FAIL"
                detail = (
                    f"expected {_shorten(r.row.expected)}, "
                    f"computed {_shorten(r.computed)}"
                )
            lines.append(f"{r.row.id:<{width}} {status:<9} {detail}")
        c = self.counts
        lines.append(
            f"{c['passed']} passed, {c['failed']} failed, "
            f"{c['recorded']} recorded"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "counts": self.counts,
            "rows": [
                {
                    "id": r.row.id,
                    "claim": r.row.claim,
                    "source": r.row.source,
                    "expected": r.row.expected,
                    "computed": r.computed,
                    "pass": r.ok,
                }
                for r in self.results
            ],
        }


def _shorten(value: Any) -> str:
    text = json.dumps(value, sort_keys=True) if not isinstance(value, str) else value
    return text if len(text) <= 64 else text[:61] + "..."


def load_golden() -> list[GoldenRow]:
    raw = resources.files("mdimlab.data").joinpath("golden.json").read_text()
    data = json.loads(raw)
    return [GoldenRow(**entry) for entry in data["entries"]]


# ---------------------------------------------------------------------------
# check implementations; each returns a JSON-comparable value


def _minimum(cert: ResolvingCertificate) -> ResolvingCertificate:
    """cert, or BudgetExceeded if its search proved no minimum."""
    if cert.status != "minimum":
        raise BudgetExceeded(cert.nodes_explored)
    return cert


def _solve(g: Graph) -> ResolvingCertificate:
    """mdim_exact(g), or inside run_suite the certificate of the run's first
    solve of the same labelled graph; BudgetExceeded if it is no minimum."""
    return _built(("solve", g.n, g.adj), lambda: _minimum(mdim_exact(g)))


def _check_mdim(args: dict[str, Any]) -> int:
    return _solve(graph(args)).mu


def _listed(args: dict[str, Any], key: str, check: str) -> list:
    """args[key], or BadParameters naming check and key if it is no list."""
    value = args[key]
    if not isinstance(value, list):
        raise BadParameters(f"{check} needs a list as {key}, got {value!r}")
    return value


def _check_mdim_list(args: dict[str, Any]) -> list[int]:
    _form(args, {"mdim_list": {"graphs"}}, "mdim_list")
    return [_solve(graph(spec)).mu for spec in _listed(args, "graphs", "mdim_list")]


def _check_halved_lift_size(args: dict[str, Any]) -> int:
    g = graph(args)
    gp, gm, _, _ = halve(g)
    r_plus = _solve(gp).set
    r_minus = _solve(gm).set
    lifted = lift_halved(g, r_plus, r_minus)
    return len(lifted.set)


def _check_folded_lift(args: dict[str, Any]) -> dict[str, Any]:
    g = graph(args)
    folded, _ = fold(g)
    r_bar = _solve(folded).set
    result = lift_folded(g, r_bar)
    return {"case": result.case, "size": len(result.certificate.set)}


def _check_taylor_plus_one(args: dict[str, Any]) -> list[int]:
    base = graph(args)
    cover = graph({"taylor": args})
    base_set = _solve(base).set
    mu_cover = _solve(cover).mu
    # the lift must also land at mu_base + 1 and verify
    lifted = taylor_lift(cover, base_set)
    if len(lifted.set) != len(base_set) + 1:
        raise LiftVerificationError(
            f"taylor lift has size {len(lifted.set)}, not {len(base_set) + 1}"
        )
    return [len(base_set), mu_cover]


def _check_descendant_values(args: dict[str, Any]) -> list[int]:
    cover = graph({"taylor": args})
    values = set()
    for w in range(cover.n):
        local, _ = induced_neighborhood(cover, w)
        values.add(_solve(local).mu)
    return sorted(values)


def _check_biplane_mu(args: dict[str, Any]) -> dict[str, Any]:
    _form(args, {"biplane_mu": {"graph", "base"}}, "biplane_mu")
    mu = _solve(graph(args["graph"])).mu
    mu_base = _solve(graph(args["base"])).mu
    return {"mu": mu, "at_most_twice_base": mu <= 2 * mu_base}


def _check_blocking_triple(args: dict[str, Any]) -> dict[str, Any]:
    plane = design(args)
    _, points = three_lines_2blocking(plane)
    survives = all(
        is_semi_resolving_for_blocks(plane, tuple(p for p in points if p != x))
        for x in points
    )
    return {
        "size": len(points),
        "double_blocking": is_double_blocking(plane, points),
        "survives_point_removal": survives,
    }


def _check_ah_zoo(args: dict[str, Any]) -> dict[str, str]:
    _form(args, {"ah_zoo": {"names"}}, "ah_zoo")
    return {name: classify_ah(graph({"name": name})).label
            for name in _listed(args, "names", "ah_zoo")}


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), the vertex pairs u < w, built once per n and
    read-only."""
    u, w = np.triu_indices(n, 1)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _separating_rows(dist: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """For each row of subsets, a (k, m) array of vertex ids, whether every
    pair of vertices differs in its distance to some vertex of the row.

    Each of the n(n - 1)/2 pairs is compared entry by entry, as the
    definition of resolving reads.  exhaustive_mdim sorts distance rows
    instead, so the subsets that test its minimum are judged by code it
    does not share.
    """
    u, w = _pairs(dist.shape[0])
    cols = dist[:, subsets]
    return (cols[u] != cols[w]).any(axis=2).all(axis=0)


def _check_random_soundness(args: dict[str, Any]) -> dict[str, int]:
    _form(args, {"random_soundness": {"count", "max_n", "seed"}}, "random_soundness")
    count, max_n = as_ints((args["count"], args["max_n"]), "count and max_n")
    (seed,) = as_ints((args["seed"],), "seed")
    if max_n < 4:
        raise BadParameters(f"max_n is {max_n}; the graphs drawn have 4 to max_n vertices")
    if count < 0:
        raise BadParameters(f"count is {count}; it counts the graphs drawn")
    rng = random.Random(seed)
    mismatches = 0
    undersized = 0
    for _ in range(count):
        n = rng.randint(4, max_n)
        p = rng.uniform(0.25, 0.75)
        while True:
            edges = [
                (u, w)
                for u in range(n)
                for w in range(u + 1, n)
                if rng.random() < p
            ]
            g = Graph.from_edges(n, edges)
            dm = g.distances
            if dm.connected:
                break
        exact = _solve(g)
        oracle = exhaustive_mdim(g)
        if exact.mu != oracle.mu or not is_resolving(dm, exact.set):
            mismatches += 1
            continue
        # every subset one vertex short of the minimum, judged in one pass
        if exact.mu >= 1 and _separating_rows(dm.dist, _subsets(n, exact.mu - 1)).any():
            undersized += 1
    return {"mismatches": mismatches, "undersized_successes": undersized}


def _check_bounds_chain(args: dict[str, Any]) -> dict[str, Any]:
    _form(args, {"bounds_chain": set()}, "bounds_chain")
    violations = []
    for name in sorted(ZOO):
        g = ZOO[name]()
        greedy = len(mdim_greedy(g).set)
        lb = _root_lower_bound(g)
        if name in SOLVABLE:
            mu = _solve(g).mu
            if not lb <= mu <= greedy:
                violations.append(name)
        elif lb > greedy:
            violations.append(name)
    return {"violations": violations}


def _check_babai_cross(args: dict[str, Any]) -> dict[str, Any]:
    _form(args, {"babai_cross": set()}, "babai_cross")
    violations = []
    for name in sorted(SOLVABLE):
        g = ZOO[name]()
        if g.n < 2 or not g.distances.connected or not is_primitive(g):
            continue
        mu = _solve(g).mu
        report = babai_bounds(g)
        for label, bound in (
            ("general", report.general),
            ("srg", report.srg),
            ("distance_class", report.distance_class),
        ):
            if bound is not None and bound <= mu:
                violations.append(f"{name}:{label}")
    return {"violations": violations}


def _check_semi_resolving(args: dict[str, Any]) -> int:
    _form(args, {"semi_resolving": {"design", "side"}}, "semi_resolving")
    return _minimum(min_semi_resolving(design(args["design"]), side=args["side"])).mu


def _check_split_value(args: dict[str, Any]) -> int:
    split = split_mdim(design(args))
    return sum(_minimum(part).mu for part in (split.points_part, split.blocks_part))


def _check_intersection_array(args: dict[str, Any]) -> str:
    return intersection_array(graph(args)).standard_notation()


CHECKS: dict[str, Callable[[dict[str, Any]], Any]] = {
    "mdim_zoo": _check_mdim,
    "mdim_list": _check_mdim_list,
    "halved_lift_size": _check_halved_lift_size,
    "folded_lift": _check_folded_lift,
    "taylor_plus_one": _check_taylor_plus_one,
    "descendant_values": _check_descendant_values,
    "biplane_mu": _check_biplane_mu,
    "blocking_triple": _check_blocking_triple,
    "ah_zoo": _check_ah_zoo,
    "random_soundness": _check_random_soundness,
    "bounds_chain": _check_bounds_chain,
    "babai_cross": _check_babai_cross,
    "semi_resolving": _check_semi_resolving,
    "split_value": _check_split_value,
    "intersection_array": _check_intersection_array,
}


def run_suite(
    include_slow: bool = False,
    only: set[str] | None = None,
) -> Report:
    """Run the golden rows and compare against frozen expectations.

    only restricts to the given row ids (recorded rows still render); an id
    that names no row raises BadParameters.  Each distinct graph or design
    spec is built once per call and each distinct labelled graph solved
    once, in zoo's run memo, and later rows reuse the first graph and
    certificate; a check called directly, outside run_suite, builds and
    solves anew.  A row whose search proves no minimum fails, with the
    BudgetExceeded message as its computed value.
    """
    # include_slow is ignored but stays: perfbench/workloads.py, kept fixed
    # so that benchmark runs compare, passes it
    rows = load_golden()
    if only is not None:
        unknown = sorted(only - {row.id for row in rows})
        if unknown:
            raise BadParameters(f"unknown row ids: {', '.join(map(repr, unknown))}")
    results = []
    memo = _RUN.set({})
    try:
        for row in rows:
            if only is not None and row.id not in only:
                continue
            if row.check is None:
                results.append(RowResult(row=row, computed=None, ok=None))
                continue
            try:
                computed = CHECKS[row.check](row.args)
            except BudgetExceeded as exc:
                computed = str(exc)
            results.append(
                RowResult(row=row, computed=computed, ok=computed == row.expected)
            )
    finally:
        _RUN.reset(memo)
    return Report(results=tuple(results))


def oracle_rows(max_n: int = 32) -> list[tuple[str, Any, Any, bool]]:
    """Recompute the metric dimension rows (mdim_zoo and mdim_list) with
    the exhaustive oracle where every graph of the row is small enough.

    Returns (id, frozen expected, oracle value, agree) tuples; a row with a
    graph of more than max_n vertices is skipped, with value None.  This is
    the bootstrap that justified the frozen values in the first place.
    """
    out = []
    for row in load_golden():
        if row.check not in ("mdim_zoo", "mdim_list"):
            continue
        listed = row.check == "mdim_list"
        graphs = [graph(spec) for spec in (row.args["graphs"] if listed else [row.args])]
        if max(g.n for g in graphs) > max_n:
            out.append((row.id, row.expected, None, True))
            continue
        values = [exhaustive_mdim(g).mu for g in graphs]
        value = values if listed else values[0]
        out.append((row.id, row.expected, value, value == row.expected))
    return out
