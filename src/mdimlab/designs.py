"""Symmetric 2-designs, their incidence graphs, and polarity machinery.

A symmetric design is stored as a dense 0/1 incidence matrix with rows
indexed by points and columns by blocks.  Constructors validate the full
parameter identity, not just shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import (
    BadParameters,
    BudgetExceeded,
    DegenerateComplement,
    MdimlabError,
    NotBijection,
    NotBipartiteDiameter3,
    NotNullPolarity,
    NotPrime,
    NoSuchTriple,
    ParameterFailure,
)
from .families import LabeledCover, is_prime
from .graphs import Graph, SrgParams, intersection_array


@dataclass(frozen=True)
class SymmetricDesign:
    """A symmetric 2-(v, k, lambda) design.

    inc is a read-only (v, v) uint8 matrix, inc[x, j] = 1 iff point x lies
    on block j.
    """

    v: int
    k: int
    lam: int
    inc: np.ndarray = field(compare=False)

    def __post_init__(self):
        if self.v < 1:
            raise BadParameters(f"a design needs at least one point, got v = {self.v}")
        inc = np.ascontiguousarray(self.inc, dtype=np.uint8)
        if inc.shape != (self.v, self.v):
            raise BadParameters("incidence matrix must be v x v")
        if not np.isin(inc, (0, 1)).all():
            raise BadParameters("incidence entries must be 0 or 1")
        if self.lam * (self.v - 1) != self.k * (self.k - 1):
            raise BadParameters(
                f"inadmissible parameters ({self.v}, {self.k}, {self.lam})"
            )
        gram = inc.astype(np.int64) @ inc.astype(np.int64).T
        want = np.full((self.v, self.v), self.lam, dtype=np.int64)
        np.fill_diagonal(want, self.k)
        if not (gram == want).all():
            raise BadParameters("rows do not meet the (k, lambda) intersection law")
        gram_b = inc.astype(np.int64).T @ inc.astype(np.int64)
        if not (gram_b == want).all():
            raise BadParameters("columns do not meet the (k, lambda) intersection law")
        inc.setflags(write=False)
        object.__setattr__(self, "inc", inc)

    def block_points(self, j: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.inc[:, j]))

    def point_blocks(self, x: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.inc[x]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymmetricDesign)
            and (self.v, self.k, self.lam) == (other.v, other.k, other.lam)
            and bool((self.inc == other.inc).all())
        )

    def __repr__(self) -> str:
        return f"SymmetricDesign(v={self.v}, k={self.k}, lam={self.lam})"


def design_dual(d: SymmetricDesign) -> SymmetricDesign:
    """Swap the roles of points and blocks (transpose the incidence matrix)."""
    return SymmetricDesign(v=d.v, k=d.k, lam=d.lam, inc=d.inc.T.copy())


def design_complement(d: SymmetricDesign) -> SymmetricDesign:
    """Replace every block by its complementary point set."""
    lam2 = d.v - 2 * d.k + d.lam
    if lam2 <= 0:
        raise DegenerateComplement(
            f"complement of ({d.v}, {d.k}, {d.lam}) would have lambda = {lam2}"
        )
    return SymmetricDesign(v=d.v, k=d.v - d.k, lam=lam2, inc=(1 - d.inc))


def pg2(q: int) -> SymmetricDesign:
    """Desarguesian projective plane of prime order q as a (q^2+q+1, q+1, 1) design.

    Points are the homogeneous triples over GF(q) normalized so the first
    nonzero coordinate is 1, sorted lexicographically; block j is the null
    space of point j's triple.
    """
    if not is_prime(q):
        raise NotPrime(f"pg2 needs a prime order, got {q}")
    pts = [(0, 0, 1)]
    pts += [(0, 1, z) for z in range(q)]
    pts += [(1, y, z) for y in range(q) for z in range(q)]
    pts.sort()
    v = len(pts)
    inc = np.zeros((v, v), dtype=np.uint8)
    for x, (a, b, c) in enumerate(pts):
        for j, (d_, e, f) in enumerate(pts):
            if (a * d_ + b * e + c * f) % q == 0:
                inc[x, j] = 1
    return SymmetricDesign(v=v, k=q + 1, lam=1, inc=inc)


def incidence_graph(d: SymmetricDesign) -> LabeledCover:
    """Bipartite point-block incidence graph; points first, then blocks.

    For 1 < k < v-1 the result is verified to be distance-regular with
    diameter 3.
    """
    v = d.v
    edges = []
    for x in range(v):
        for j in d.point_blocks(x):
            edges.append((x, v + j))
    g = Graph.from_edges(2 * v, edges)
    tags = tuple(f"p{x}" for x in range(v)) + tuple(f"B{j}" for j in range(v))
    if 1 < d.k < d.v - 1:
        ia = intersection_array(g)
        if ia.d != 3:
            raise NotBipartiteDiameter3(
                "incidence graph failed its diameter-3 verification"
            )
    return LabeledCover(graph=g, tags=tags)


def design_from_graph(g: Graph) -> SymmetricDesign:
    """Recover the design whose incidence graph is g.

    g must be a connected bipartite distance-regular graph of diameter 3
    with equal sides; points are taken from the side of vertex 0, in
    ascending vertex order.
    """
    from .imprimitivity import bipartition  # local import to avoid a cycle

    try:
        ia = intersection_array(g)
        plus, minus = bipartition(g)
    except MdimlabError as exc:
        raise NotBipartiteDiameter3(str(exc)) from exc
    if ia.d != 3:
        raise NotBipartiteDiameter3(f"diameter is {ia.d}, not 3")
    if len(plus) != len(minus):
        raise NotBipartiteDiameter3("sides have different sizes")
    v = len(plus)
    k = ia.k
    lam = ia.c[1]  # two blocks meet in c_2 common points
    inc = np.zeros((v, v), dtype=np.uint8)
    pos = {p: i for i, p in enumerate(minus)}
    for i, x in enumerate(plus):
        for w in g.neighbors(x):
            inc[i, pos[w]] = 1
    try:
        return SymmetricDesign(v=v, k=k, lam=lam, inc=inc)
    except BadParameters as exc:
        raise NotBipartiteDiameter3(str(exc)) from exc


def is_null_polarity(d: SymmetricDesign, sigma: list[int] | tuple[int, ...]) -> bool:
    """Check that sigma is an incidence-preserving point-to-block bijection
    of order two with no absolute points.

    Raises NotBijection if sigma is not a bijection; structural failures
    (an absolute point, or broken incidence symmetry) return False.
    """
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != d.v or sorted(sigma) != list(range(d.v)):
        raise NotBijection("sigma must be a bijection from points onto blocks")
    inc = d.inc
    for x in range(d.v):
        if inc[x, sigma[x]]:
            return False  # absolute point
    for x in range(d.v):
        for y in range(x + 1, d.v):
            if inc[x, sigma[y]] != inc[y, sigma[x]]:
                return False
    return True


def find_null_polarity(
    d: SymmetricDesign, budget: int = 10**7
) -> tuple[int, ...] | None:
    """Backtracking search for a null polarity; None if none exists.

    The budget counts assignment attempts; BudgetExceeded is raised when it
    runs out before the search space is exhausted.
    """
    v = d.v
    inc = d.inc
    sigma: list[int] = []
    used = [False] * v
    nodes = 0

    def feasible(x: int, b: int) -> bool:
        if inc[x, b]:
            return False
        for y, by in enumerate(sigma):
            if inc[y, b] != inc[x, by]:
                return False
        return True

    def rec() -> bool:
        nonlocal nodes
        x = len(sigma)
        if x == v:
            return True
        for b in range(v):
            if used[b]:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            if feasible(x, b):
                used[b] = True
                sigma.append(b)
                if rec():
                    return True
                sigma.pop()
                used[b] = False
        return False

    if rec():
        out = tuple(sigma)
        if not is_null_polarity(d, out):
            raise NotNullPolarity(f"search returned {out}, which is not a null polarity")
        return out
    return None


def srg_from_null_polarity(
    d: SymmetricDesign, sigma: list[int] | tuple[int, ...]
) -> Graph:
    """Graph on the points with x ~ y iff x lies on sigma(y).

    The polarity makes the relation symmetric and loop-free; the result is
    verified strongly regular with parameters (v, k, lam, lam).
    """
    if not is_null_polarity(d, sigma):
        raise NotNullPolarity("sigma is not a null polarity of the design")
    sigma = tuple(int(s) for s in sigma)
    rows = []
    for x in range(d.v):
        mask = 0
        for y in range(d.v):
            if d.inc[x, sigma[y]]:
                mask |= 1 << y
        rows.append(mask)
    g = Graph(d.v, rows)
    ia = intersection_array(g)
    params = ia.srg_params(d.v)
    if params is None or params != SrgParams(n=d.v, k=d.k, a=d.lam, c=d.lam):
        raise ParameterFailure(
            f"polarity graph is not strongly regular ({d.v}, {d.k}, {d.lam}, {d.lam})"
        )
    return g


def three_lines_2blocking(p: SymmetricDesign) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """Union of the lexicographically first three pairwise non-concurrent lines
    of a projective plane.

    Returns (the line triple, the union as a sorted point tuple).  The union
    has 3q points and meets every line at least twice.
    """
    if p.lam != 1:
        raise BadParameters("double blocking sets are defined for projective planes")
    cols = [set(p.block_points(j)) for j in range(p.v)]
    for i, j, k in combinations(range(p.v), 3):
        pij = cols[i] & cols[j]
        pik = cols[i] & cols[k]
        pjk = cols[j] & cols[k]
        meets = {next(iter(pij)), next(iter(pik)), next(iter(pjk))}
        if len(meets) == 3:
            union = tuple(sorted(cols[i] | cols[j] | cols[k]))
            return (i, j, k), union
    raise NoSuchTriple("no three pairwise non-concurrent lines found")


def is_double_blocking(p: SymmetricDesign, s: Iterable[int]) -> bool:
    """True iff every line of the projective plane contains >= 2 points of s."""
    if p.lam != 1:
        raise BadParameters("double blocking sets are defined for projective planes")
    chosen = set(int(x) for x in s)
    for j in range(p.v):
        if len(chosen.intersection(p.block_points(j))) < 2:
            return False
    return True


def design_text(d: SymmetricDesign) -> str:
    """Serialize: first line "v k lambda", then v rows of v 0/1 characters."""
    lines = [f"{d.v} {d.k} {d.lam}"]
    for x in range(d.v):
        lines.append("".join(str(int(b)) for b in d.inc[x]))
    return "\n".join(lines) + "\n"


def design_from_text(text: str) -> SymmetricDesign:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadParameters("empty design file")
    head = lines[0].split()
    if len(head) != 3:
        raise BadParameters("first line must be: v k lambda")
    try:
        v, k, lam = (int(x) for x in head)
    except ValueError as exc:
        raise BadParameters(f"first line must be decimal 'v k lambda': {lines[0]!r}") from exc
    if len(lines) != v + 1:
        raise BadParameters(f"expected {v} incidence rows, got {len(lines) - 1}")
    inc = np.zeros((v, v), dtype=np.uint8)
    for x, ln in enumerate(lines[1:]):
        row = ln.strip()
        if len(row) != v or set(row) - {"0", "1"}:
            raise BadParameters(f"row {x} must be {v} characters of 0/1")
        inc[x] = [int(ch) for ch in row]
    return SymmetricDesign(v=v, k=k, lam=lam, inc=inc)
