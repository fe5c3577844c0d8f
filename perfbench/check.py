"""Answer checks that share no code with mdimlab.

Every set the benchmark gets back is checked here with a plain-Python BFS
and distance signatures, never with mdimlab's own `first_unresolved_pair`
or `is_resolving`.  Expected values are read straight from the golden
table file, not through `mdimlab.verify.load_golden`.  Nothing here
imports numpy, so importing this module does not count towards set-up
time.
"""

from __future__ import annotations

import json
from numbers import Integral
from pathlib import Path

GOLDEN = Path("src") / "mdimlab" / "data" / "golden.json"


def distances(n: int, rows) -> list[list[int]]:
    """All-pairs distances from one adjacency bitset per vertex, by one
    frontier-at-a-time BFS per source; -1 marks unreachable."""
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        seen = frontier = 1 << s
        d = 0
        while frontier:
            d += 1
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
            new = frontier
            while new:
                low = new & -new
                dist[low.bit_length() - 1] = d
                new ^= low
        out.append(dist)
    return out


def resolves(dist: list[list[int]], chosen) -> bool:
    """True iff every vertex has its own vector of distances to `chosen`."""
    n = len(dist)
    chosen = list(chosen)
    if any(not (isinstance(v, Integral) and 0 <= v < n) for v in chosen):
        return False
    rows = [dist[v] for v in chosen]
    return len({tuple(r[u] for r in rows) for u in range(n)}) == n


def separates(columns: list[tuple[int, ...]], chosen) -> bool:
    """True iff the 0/1 columns restricted to the rows in `chosen` are
    pairwise distinct (a semi-resolving set for the column side)."""
    rows = list(chosen)
    if any(not (isinstance(x, Integral) and 0 <= x < len(columns[0])) for x in rows):
        return False
    return len({tuple(col[x] for x in rows) for col in columns}) == len(columns)


def diameter(dist: list[list[int]]) -> int | None:
    flat = [d for row in dist for d in row]
    return None if min(flat) < 0 else max(flat)


def is_bipartite(rows, dist: list[list[int]]) -> bool:
    """Connected graph: bipartite iff no edge joins two vertices at the same
    distance from vertex 0."""
    return all(
        dist[0][u] != dist[0][w]
        for u in range(len(dist)) for w in range(len(dist)) if rows[u] >> w & 1
    )


def is_antipodal(dist: list[list[int]]) -> bool:
    """Being equal or at maximal distance is an equivalence relation, and
    some pair is at maximal distance (diameter at least 2)."""
    d = diameter(dist)
    if d is None or d < 2:
        return False
    n = len(dist)
    classes = [frozenset(w for w in range(n) if w == v or dist[v][w] == d) for v in range(n)]
    return all(classes[w] == classes[v] for v in range(n) for w in classes[v])


def lower_bound_nd(n: int, d: int) -> int:
    """Least k with k + d**k >= n: the vertices outside a resolving set of
    size k need distinct vectors with entries in 1..d."""
    k = 0
    while k + d**k < n:
        k += 1
    return k


def golden_rows(root: Path) -> list[dict]:
    return json.loads((root / GOLDEN).read_text())["entries"]


def golden_mu(root: Path) -> dict[str, int]:
    """Frozen metric dimension of each zoo graph that has a golden row."""
    out = {}
    for row in golden_rows(root):
        if row["check"] == "mdim_zoo":
            out[row["args"]["name"]] = row["expected"]
        elif row["check"] == "biplane_mu":
            out["biplane_incidence"] = row["expected"]["mu"]
    return out


def golden_ah_labels(root: Path) -> dict[str, str]:
    for row in golden_rows(root):
        if row["check"] == "ah_zoo":
            return dict(row["expected"])
    return {}
