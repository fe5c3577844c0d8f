"""Symmetric 2-designs, their incidence graphs, and double blocking sets.

A symmetric design is stored as a dense 0/1 incidence matrix with rows
indexed by points and columns by blocks.  Constructors validate the full
parameter identity, not just shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import BadParameters, HypothesisFailure
from .families import is_prime
from .graphs import (
    Graph,
    _bit_matrix,
    _bit_rows,
    _gram,
    as_decimal,
    as_ids,
    as_ints,
    ascii_lines,
    bipartition,
    intersection_array,
)


@dataclass(frozen=True)
class SymmetricDesign:
    """A symmetric 2-(v, k, lambda) design.

    inc is a read-only (v, v) uint8 matrix, inc[x, j] = 1 iff point x lies
    on block j.

    Construction raises BadParameters unless the parameters are integers
    with v >= 1 and lam (v - 1) = k (k - 1), inc is v x v with entries 0
    and 1 only, and any two points lie on lam common blocks and each point
    on k, counted by one graphs._gram of the rows.  The blocks' law, any
    two blocks meeting in lam points, follows from the points' law and is
    not counted again (see __post_init__).
    """

    v: int
    k: int
    lam: int
    inc: np.ndarray = field(compare=False)

    def __post_init__(self):
        as_ints((self.v, self.k, self.lam), "the design parameters")
        if self.v < 1:
            raise BadParameters(f"a design needs at least one point, got v = {self.v}")
        raw = np.asarray(self.inc)
        if raw.shape != (self.v, self.v):
            raise BadParameters("incidence matrix must be v x v")
        # checked before the cast, which would turn 0.4 into 0 and 257 into 1
        if not np.isin(raw, (0, 1)).all():
            raise BadParameters("incidence entries must be 0 or 1")
        inc = np.ascontiguousarray(raw, dtype=np.uint8)
        if self.lam * (self.v - 1) != self.k * (self.k - 1):
            raise BadParameters(
                f"inadmissible parameters ({self.v}, {self.k}, {self.lam})"
            )
        # The law of the rows of N = inc is the whole check: the law of the
        # columns follows.  For v = 1, N N^T = N^T N.  Otherwise the rows
        # sum to k <= v, so N J = k J and, as lam (v - 1) = k (k - 1),
        # N N^T J = k^2 J.  For k > lam, N N^T = (k - lam) I + lam J is
        # invertible, so is N, N^T J = k J, and N^T N = N^-1 (N N^T) N =
        # (k - lam) I + lam J.  k = lam forces k = 0 or k = v, so N = 0 or
        # N = J (Ryser 1950), and k < lam would need k > v.
        want = np.full((self.v, self.v), self.lam)
        np.fill_diagonal(want, self.k)
        if not (_gram(inc) == want).all():
            raise BadParameters("rows do not meet the (k, lambda) intersection law")
        inc.setflags(write=False)
        object.__setattr__(self, "inc", inc)

    def block_points(self, j: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.inc[:, j]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymmetricDesign)
            and (self.v, self.k, self.lam) == (other.v, other.k, other.lam)
            and bool((self.inc == other.inc).all())
        )

    def __repr__(self) -> str:
        return f"SymmetricDesign(v={self.v}, k={self.k}, lam={self.lam})"


def design_complement(d: SymmetricDesign) -> SymmetricDesign:
    """Replace every block by its complementary point set."""
    lam2 = d.v - 2 * d.k + d.lam
    if lam2 <= 0:
        raise BadParameters(
            f"complement of ({d.v}, {d.k}, {d.lam}) would have lambda = {lam2}"
        )
    return SymmetricDesign(v=d.v, k=d.v - d.k, lam=lam2, inc=(1 - d.inc))


def pg2(q: int) -> SymmetricDesign:
    """Desarguesian projective plane of prime order q as a (q^2+q+1, q+1, 1) design.

    Points are the homogeneous triples over GF(q) normalized so the first
    nonzero coordinate is 1, sorted lexicographically; block j is the null
    space of point j's triple.
    """
    (q,) = as_ints((q,), "the order")
    if not is_prime(q):
        raise BadParameters(f"pg2 needs a prime order, got {q}")
    p = np.array([(0, 0, 1)] + [(0, 1, z) for z in range(q)]  # already in lexicographic order
                 + [(1, y, z) for y in range(q) for z in range(q)])
    return SymmetricDesign(v=len(p), k=q + 1, lam=1, inc=p @ p.T % q == 0)


def incidence_graph(d: SymmetricDesign) -> Graph:
    """Bipartite point-block incidence graph: point x is vertex x and block j
    is vertex v + j.

    For 1 < k < v-1 the result is verified to be distance-regular with
    diameter 3.
    """
    v = d.v
    g = Graph(2 * v, [r << v for r in _bit_rows(d.inc == 1)] + list(_bit_rows(d.inc.T == 1)))
    if 1 < d.k < d.v - 1:
        ia = intersection_array(g)
        if ia.d != 3:
            raise HypothesisFailure(
                "incidence graph failed its diameter-3 verification"
            )
    return g


def design_from_graph(g: Graph) -> SymmetricDesign:
    """Recover the design whose incidence graph is g.

    g must be a connected bipartite distance-regular graph of diameter 3
    with equal sides; points are taken from the side of vertex 0, in
    ascending vertex order.
    """
    ia = intersection_array(g)
    plus, minus = bipartition(g)
    if ia.d != 3:
        raise HypothesisFailure(f"diameter is {ia.d}, not 3")
    if len(plus) != len(minus):
        raise HypothesisFailure("sides have different sizes")
    v = len(plus)
    k = ia.k
    lam = ia.c[1]  # two blocks meet in c_2 common points
    inc = _bit_matrix([g.adj[x] for x in plus], g.n)[:, minus]
    try:
        return SymmetricDesign(v=v, k=k, lam=lam, inc=inc)
    except BadParameters as exc:
        raise HypothesisFailure(str(exc)) from exc


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
    raise BadParameters("no three pairwise non-concurrent lines found")


def is_double_blocking(p: SymmetricDesign, s: Iterable[int]) -> bool:
    """True iff every line of the projective plane contains >= 2 points of s."""
    if p.lam != 1:
        raise BadParameters("double blocking sets are defined for projective planes")
    chosen = set(as_ids(s, p.v, "points"))
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
    lines = ascii_lines(text, "design text")
    if not lines:
        raise BadParameters("empty design file")
    head = lines[0].split()
    if len(head) != 3:
        raise BadParameters("first line must be: v k lambda")
    v, k, lam = (as_decimal(x, "'v k lambda'") for x in head)
    if len(lines) != v + 1:
        raise BadParameters(f"expected {v} incidence rows, got {len(lines) - 1}")
    inc = np.zeros((v, v), dtype=np.uint8)
    for x, row in enumerate(lines[1:]):
        if len(row) != v or set(row) - {"0", "1"}:
            raise BadParameters(f"row {x} must be {v} characters of 0/1")
        inc[x] = [int(ch) for ch in row]
    return SymmetricDesign(v=v, k=k, lam=lam, inc=inc)
