"""The three workloads: set-up (inputs built before timing), the timed items,
and the independent check of every answer.

A run is split into batches, one fresh process each (see worker.py).  The
batch count is fixed by --seconds, so both sides of a comparison do the
same items.  Relabelings come only from (workload, seed, batch).

exact-zoo     exact `mdim_exact` solves of the hard SOLVABLE zoo graphs; batch
              0 solves each once in constructor labels, every other item is
              a fresh seeded relabeling, so no labelled graph repeats within a
              process.  Branch and bound dominates the time.
golden-suite  `verify.run_suite(include_slow=True)`, as `mdimlab verify
              --include-slow` runs it; one item is one golden row.  Many tiny
              repeated solves; the seed is ignored.
large-n       one pipeline per graph on n = 114..256, timed as two items: the
              structure stage (classify_ah, greedy, halve/fold with the lifts
              of greedy sets, taylor_lift) and a budgeted mdim_exact; plus
              budgeted semi-resolving sets of a relabeled PG(2,7), both
              sides, as one item.  The n^2-bit layers dominate.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from math import ceil, log2
from time import perf_counter
from typing import Any, Callable

import check

# one batch is one round: the four graphs with tens of thousands of nodes per
# solve twice, the two small ones once (so the median item is a J(8,4) solve,
# not the gap between two graphs)
EXACT_ZOO_HARD = ("Q_6", "johnson_8_4", "doubled_odd_4", "biplane_incidence")
EXACT_ZOO_SMALL = ("taylor_paley_17", "gq22_incidence")
EXACT_ZOO_ROUND = EXACT_ZOO_HARD + EXACT_ZOO_SMALL + EXACT_ZOO_HARD

# node budget of the large-n searches: the search is then about a third of
# large-n item time
LARGE_N_BUDGET = 600

# AH classes of the large-n graphs that have no golden row, from their
# structure: Q_7 and the doubled odd graph O_5 are bipartite and antipodal of
# odd diameter (7, 9); J(9,4) is primitive; a projective plane's incidence
# graph is bipartite of diameter 3 and not antipodal; a Taylor cover is
# antipodal of diameter 3 and not bipartite.  Q_8's label is read from the
# golden classification row.
LARGE_N_LABELS = {
    "Q_7": "AH12",
    "johnson_9_4": "AH1",
    "doubled_odd_5": "AH12",
    "pg27_incidence": "AH6",
    "taylor_paley_61": "AH7",
}

# about what one batch takes on a 2-core VM with Python 3.11 (measured 2.0,
# 3.3 and 2.6 s on an idle host, up to twice that on a busy one); the batch
# count is round(seconds / this)
NOMINAL_BATCH_S = {"exact-zoo": 2.2, "golden-suite": 3.3, "large-n": 3.3}


def batch_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_BATCH_S[workload]))


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right
    graph: Any = None  # the labelled input graph, if the item has one


@dataclass
class Outcome:
    name: str
    seconds: float
    error: str | None  # exception raised by the program, or a failed check
    label: str = ""
    size: int | None = None  # size of the returned set(s)


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def _relabel(mdimlab, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return mdimlab.Graph.from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def _digest(g) -> str:
    return hashlib.sha1(repr((g.n, g.adj)).encode()).hexdigest()[:12]


class _GraphFacts:
    """The benchmark's own distances of one input graph, computed when first
    checked, after timing."""

    def __init__(self, g):
        self.g = g

    @functools.cached_property
    def dist(self):
        return check.distances(self.g.n, self.g.adj)


def _errors(*pairs) -> str | None:
    for ok, reason in pairs:
        if not ok:
            return reason
    return None


# -- exact-zoo -------------------------------------------------------------


def setup_exact_zoo(mdimlab, root, seed: int, batch: int) -> list[Item]:
    from mdimlab.zoo import ZOO

    expected = check.golden_mu(root)
    rng = _rng("exact-zoo", seed, batch)
    base = {name: ZOO[name]() for name in EXACT_ZOO_ROUND}
    unrelabeled = set(base) if batch == 0 else set()  # once each, in batch 0
    items = []
    for name in EXACT_ZOO_ROUND:
        if name in unrelabeled:
            unrelabeled.remove(name)
            g = base[name]
        else:
            g = _relabel(mdimlab, base[name], rng)
        items.append(_exact_item(mdimlab, name, g, expected[name]))
    return items


def _exact_item(mdimlab, name, g, mu) -> Item:
    facts = _GraphFacts(g)

    def judge(cert) -> str | None:
        return _errors(
            (cert.status == "minimum", f"status {cert.status!r}"),
            (len(cert.set) == mu, f"size {len(cert.set)}, golden mu {mu}"),
            (check.resolves(facts.dist, cert.set), "set does not resolve"),
        )

    return Item(name, lambda: mdimlab.mdim_exact(g), judge, g)


# -- large-n ---------------------------------------------------------------


def setup_large_n(mdimlab, root, seed: int, batch: int) -> list[Item]:
    labels = dict(LARGE_N_LABELS, Q_8=check.golden_ah_labels(root)["Q_8"])
    rng = _rng("large-n", seed, batch)
    plane = mdimlab.pg2(7)
    paley = mdimlab.family("paley", 61)
    built = {
        "Q_7": mdimlab.family("hypercube", 7),
        "Q_8": mdimlab.family("hypercube", 8),
        "johnson_9_4": mdimlab.family("johnson", 9, 4),
        "doubled_odd_5": mdimlab.bipartite_double(mdimlab.family("odd", 5)).graph,
        "pg27_incidence": mdimlab.incidence_graph(plane).graph,
    }
    items = []
    for name, g in built.items():
        items += _pipeline_items(mdimlab, name, _relabel(mdimlab, g, rng), labels[name])
    cover = mdimlab.taylor(paley)  # taylor_lift needs the constructor's tags
    items += _pipeline_items(mdimlab, "taylor_paley_61", cover.graph,
                             labels["taylor_paley_61"], cover=cover, base=paley)
    items.append(_semi_item(mdimlab, _relabel_design(mdimlab, plane, rng)))
    return items


def _relabel_design(mdimlab, d, rng: random.Random):
    points = list(range(d.v))
    blocks = list(range(d.v))
    rng.shuffle(points)
    rng.shuffle(blocks)
    inc = d.inc[points][:, blocks]
    return mdimlab.SymmetricDesign(v=d.v, k=d.k, lam=d.lam, inc=inc)


def _pipeline_items(mdimlab, name, g, label, cover=None, base=None) -> list[Item]:
    """One graph's pipeline as two items: the structure stage (classify,
    greedy, halve/fold/taylor lifts of greedy sets) and the budgeted search."""
    facts = _GraphFacts(g)
    greedy: list = []  # the structure stage's greedy set, for the search check

    def structure():
        out = {"class": mdimlab.classify_ah(g)}
        out["greedy"] = mdimlab.mdim_greedy(g).set
        greedy.append(out["greedy"])
        lifted = []
        if out["class"].bipartite:
            plus, minus, _, _ = mdimlab.halve(g)
            lifted.append(mdimlab.lift_halved(
                g, mdimlab.mdim_greedy(plus).set, mdimlab.mdim_greedy(minus).set
            ).set)
        if out["class"].antipodal:
            structure = mdimlab.antipodal_structure(g)
            folded, _ = mdimlab.fold(g, structure)
            lifted.append(mdimlab.lift_folded(
                g, mdimlab.mdim_greedy(folded).set, structure
            ).certificate.set)
        if cover is not None:
            lifted.append(mdimlab.taylor_lift(cover, mdimlab.mdim_greedy(base).set).set)
        out["lifted"] = lifted
        return out

    def judge_structure(out) -> str | None:
        cls = out["class"]
        d = check.diameter(facts.dist)
        return _errors(
            (cls.label == label, f"class {cls.label}, expected {label}"),
            (cls.d == d, f"diameter {cls.d}, measured {d}"),
            (cls.bipartite == check.is_bipartite(g.adj, facts.dist), "bipartite flag"),
            (cls.antipodal == check.is_antipodal(facts.dist), "antipodal flag"),
            (len(out["lifted"]) == cls.bipartite + cls.antipodal + (cover is not None),
             "missing lift"),
            (check.resolves(facts.dist, out["greedy"]), "greedy set does not resolve"),
            (all(check.resolves(facts.dist, s) for s in out["lifted"]),
             "lifted set does not resolve"),
        )

    def judge_search(cert) -> str | None:
        lower = check.lower_bound_nd(g.n, check.diameter(facts.dist))
        return _errors(
            (bool(greedy), "no greedy set from the structure stage"),
            (check.resolves(facts.dist, cert.set), "budgeted set does not resolve"),
            (bool(greedy) and len(greedy[0]) >= len(cert.set) >= lower,
             f"sizes: greedy {len(greedy[0]) if greedy else None} >= budgeted "
             f"{len(cert.set)} >= bound {lower} fails"),
        )

    return [
        Item(f"{name}.structure", structure, judge_structure, g),
        Item(f"{name}.search", lambda: mdimlab.mdim_exact(g, budget=LARGE_N_BUDGET),
             judge_search, g),
    ]


def _semi_item(mdimlab, design) -> Item:
    lower = ceil(log2(design.v))  # distinct 0/1 vectors for v columns

    def run():
        return [
            mdimlab.min_semi_resolving(design, side, budget=LARGE_N_BUDGET)
            for side in ("blocks", "points")
        ]

    def judge(certs) -> str | None:
        inc = design.inc.tolist()
        blocks = [tuple(row[j] for row in inc) for j in range(design.v)]
        points = [tuple(row) for row in inc]
        # side "blocks": points (rows) separate the blocks, and vice versa
        return _errors(
            (check.separates(blocks, certs[0].set), "points do not separate blocks"),
            (check.separates(points, certs[1].set), "blocks do not separate points"),
            (min(len(c.set) for c in certs) >= lower, f"a set is below {lower}"),
        )

    return Item("pg27_semi", run, judge)


def run_items(items: list[Item], tracer, pause) -> tuple[list[Outcome], list]:
    """Time each item; an exception is a failed item, not a crash.  `pause`
    runs before every item and once at the end."""
    outcomes = []
    answers = []
    for i, item in enumerate(items):
        pause()
        if tracer is not None:
            tracer.item = i
        t = perf_counter()
        try:
            answers.append(item.run())
            error = None
        except Exception as exc:
            answers.append(None)
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(item.name, perf_counter() - t, error))
    pause()
    if tracer is not None:
        tracer.item = None
    return outcomes, answers


def judge_items(items: list[Item], answers: list, outcomes: list[Outcome]) -> None:
    for item, answer, outcome in zip(items, answers, outcomes):
        if item.graph is not None:
            outcome.label = _digest(item.graph)
        if outcome.error is None:
            outcome.error = item.check(answer)
            outcome.size = _size(answer)


def _size(answer) -> int | None:
    if isinstance(answer, dict):
        return len(answer["greedy"])
    if isinstance(answer, list):
        return sum(len(c.set) for c in answer)
    return len(answer.set)


# -- golden-suite ----------------------------------------------------------


def run_golden(mdimlab, root, tracer, pause) -> list[Outcome]:
    """One `run_suite(include_slow=True)` call; each check call is timed as
    one row, in table order, and its value compared with the golden file.
    `pause` runs before every row and once at the end."""
    from mdimlab import verify

    rows = [r for r in check.golden_rows(root) if r["check"] is not None]
    times: list[float] = []

    def timed(fn):
        def call(*args, **kwargs):
            pause()
            if tracer is not None:
                tracer.item = len(times)
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(perf_counter() - t)

        return call

    saved = dict(verify.CHECKS)
    verify.CHECKS.update({name: timed(fn) for name, fn in saved.items()})
    try:
        report = verify.run_suite(include_slow=True)
        computed = [(r.row.id, r.computed) for r in report.results if r.ran]
        error = None
    except Exception as exc:
        computed = []
        error = f"{type(exc).__name__}: {exc}"
    finally:
        pause()
        verify.CHECKS.update(saved)
        if tracer is not None:
            tracer.item = None
    outcomes = []
    for i, row in enumerate(rows):
        seconds = times[i] if i < len(times) else 0.0
        if i >= len(computed):
            reason = error or "row did not run"
        elif computed[i][0] != row["id"]:
            reason = f"row order: got {computed[i][0]}"
        elif computed[i][1] != row["expected"]:
            reason = f"computed {computed[i][1]!r}, golden {row['expected']!r}"
        else:
            reason = None
        outcomes.append(Outcome(row["id"], seconds, reason))
    return outcomes
