"""Minimum pair-separation set cover by branch and bound over bitsets.

The reduction shared by metric dimension and semi-resolving sets: a matrix
row per chooser, a column per entity, and chooser v separates the entity
pair (i, j) iff its row differs at columns i and j.  A cover is a chooser
set separating every pair.

Layout: item p is the p-th pair of combinations(range(n_entities), 2), so
no pair table is kept.  An instance stores one form, the matrix and words,
its chooser-by-item bits packed along each chooser's row, and greedy_cover
reads nothing else.  The items (i, j) with j > i are one contiguous block
per entity i.  _pair_chunks fills a bool buffer of PACK_BYTES, or of one
word of items per chooser if that is more, with these blocks in one pass
over word-aligned chunks of items, splitting a block where it crosses a
chunk edge, and hands each chunk over to be packed.  build_instance packs
a chunk straight into its uint64 columns of words, so a build needs words
plus that buffer, not the whole chooser-by-item bool block (eight times
words); a bool block that fits in PACK_BYTES is one chunk.  A search
builds every other layer from words alone when it is made, and never
reads the matrix.  It is given its roots then, and keeps only the open
items, those that some root's start leaves unseparated (_open_items):
every node below a root holds its start, so an item that every start
separates is covered everywhere in the tree (_Search says why the tree
is the same).  When the orbit of chooser 0 is every chooser, every
orbital root child (below) holds chooser 0, so the pairs that chooser 0
separates go.  A root with an empty start closes the items that every
chooser separates, such as the pairs across the two sides of a bipartite
graph: its first choice covers them, and its top node, the one node that
leaves them uncovered and the one with nothing chosen, adds their count
back.  When the starts leave no item open, the search keeps every item,
as when every item is open, so that top node always has an open item.
The open items keep their order, and "item" below means an open one.
When more than PER_ROOT_ITEMS items stay open and there are two or more
roots, each root keeps its own open items instead, those that its own
start leaves unseparated, by the same rules: the search gathers them when
it enters the root, so a root that the budget never reaches gathers
nothing.  On Q_8 each orbital root that forces 0 and one more chooser
keeps 2,322 to 3,304 items of the 6,307 that the union of the roots
keeps, and every node below it pays ints that much narrower.  Fewer open
items keep the one union set: a gather costs a few numpy calls per root,
more than the narrower ints save on the graphs of the exact zoo
(_Search).
When every item is kept the search reads words itself; otherwise
_open_words gathers the open columns of words into words of their own,
a chunk of items at a time under the same bound.  From those words come
coverage[v] (over items), the int of row v; the static separator count
of each item, a column sum unpacked a chunk of items at a time under the
same bound, for the item groups; and resolvers[p] (over choosers), bit p
of every row packed into an int, made when the search first reads item p.
min_cover makes a search only when there is a tree to search, so a greedy
answer builds nothing past words.

The solver branches on an uncovered pair with few remaining separators,
trying its separators in decreasing marginal-coverage order; each branch
bans the separators already tried at that node, so the subtrees partition
the solution space.  The pair is picked among the first uncovered items in
order of static separator count: one item mask per count, read through
uncovered & mask, so covered items cost nothing.  Pruning uses chosen +
ceil(remaining / best possible marginal coverage) against the incumbent,
plus an optional external lower bound that stops the search as soon as it
is met.  The scan for that coverage walks the choosers by descending
upper bounds on their counts and stops at the first bound below the
threshold.  The top node of a root reads the static counts.  A node with
slack three or more that branches counts every chooser over its uncovered
items in one pass, sorts its candidates by those counts, and hands them to
its subtree: uncovered only shrinks down the tree, so they bound every
count below it, and more tightly than the static ones.  All tie-breaks are
by ascending id, so results are fully deterministic.

When that bound asks one chooser to cover every uncovered pair (slack one,
or a single pair left), a completion test answers it instead of the
marginal-coverage scan, and slack one counts nothing: the chooser must
separate each uncovered pair, so the candidates are the unbanned members
of the separator sets, chooser-wide ints, of the uncovered pairs among
the COMPLETION_WINDOW items from the lowest, and each survivor gets one
subset test.  Both tests give the same answer, so the tree and its node
count do not depend on which one runs.

Orbital branching at the root: given symmetries of the instance, chooser
and entity permutations that map its matrix onto itself (min_cover checks
this, and takes them only when nothing is forced), let G be the group they
generate and H the stabiliser of chooser 0 in G.  The root's children share
one incumbent and one node budget (Ostrowski, Linderoth, Rossi & Smriglio
2011, "Orbital branching", Math. Program. 126):

1. for each orbit O_i of H with two or more members, in ascending order of
   least member m_i: force 0 and m_i, and ban O_1 to O_(i-1);
2. force 0, and ban every orbit of step 1;
3. unless the orbit of 0 is every chooser: ban that orbit.

No optimum is lost.  Each s in G carries covers to covers of the same
size.  An optimal cover that meets the orbit of 0, at s(0), is carried by
the inverse of s to one that contains 0.  If that cover meets an orbit of
step 1, take the first, O_i, and h in H that sends one of its members there
to m_i: h fixes 0 and keeps every orbit of H, so its image of the cover
lies in child i.  If it meets none, it lies in child 2, whose other members
all sit in one-point orbits; this also holds 0 alone.  An optimal cover
that misses the orbit of 0 lies in child 3.  The argument only needs h to
fix 0 and to lie in G, so any subgroup of the stabiliser is sound: a
smaller one splits the choosers into more, smaller orbits, which costs
nodes but never an optimum.  When H fixes every chooser, the children are
2 and 3: force 0, then ban its orbit.

H comes from Schreier's lemma (Seress 2003, "Permutation Group
Algorithms"; _stabiliser_orbits).  Its generators are products of the
checked ones, so they need no check of their own, and its orbits, so the
root children, depend on G alone, not on how the transversal is chosen.

Finding symmetries (root_symmetries): on a square instance whose matrix
entries are small non-negative integers, backtrack over the images of a
base, chooser 0 followed by a cover.  Mapping base[:i] to images c[:i]
gives every entity x a code, its entries in rows base[:i], and every
entity y an image code, its entries in rows c[:i].  A symmetry extending
the map sends x to a y of the same code, so the two codes must have equal
multisets; cells number the codes.  The base side of a level depends on
the level alone, so it is refined once per call, down to the first level
where every code is unique; a candidate image refines only its own side.
Once the base is a cover every code is unique and names a single
permutation, which must still pass is_symmetry's check.  The targets, in
ascending order, are the choosers outside the orbit of 0 under the
symmetries found so far, a mask closed under them after each one.  For a
distance matrix the symmetries are graph automorphisms, and the labels are
never read.  min_cover owns the decision to look (its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import BadParameters
from .graphs import _bit_matrix, _bit_rows, _packed_int, _packed_ints, as_ids, as_ints

DEFAULT_BUDGET = 10**8
FINDER_WORK = 16  # candidate images per chooser, over all targets of one root_symmetries
SCHREIER_BLOCK = 16  # orbit points whose Schreier generators are joined at once
PACK_BYTES = 1 << 18  # bool buffer through which the pair bits are packed
# open items of all roots past which each root keeps its own: loads per
# root made full solves of the exact zoo's graphs (at most 870 open items)
# up to 40% slower, broke even on the Q_7 proof (1,652) and made budget-600
# searches of Q_7, Q_8, J(9,4), doubled O_5 and Taylor(P61) (1,652 to
# 6,307) 9-17% faster (in process, 2 cores)
PER_ROOT_ITEMS = 1_000
_BIT_MASKS = np.left_shift(1, np.arange(8)).astype(np.uint8)  # the bit of each place in a byte


def _chunk_width(n_choosers: int, n_items: int) -> int:
    """Items per chunk: whole words, as many as PACK_BYTES of bools holds
    over all choosers but no more than the items fill, and at least one."""
    return 64 * max(1, min(-(-n_items // 64), PACK_BYTES // (64 * max(n_choosers, 1))))


def _pair_chunks(matrix: np.ndarray, sep: np.ndarray) -> Iterator[tuple[int, int]]:
    """Fill sep, a chooser-by-item bool buffer, with the items of matrix a
    chunk at a time ("Layout").

    Yields (a, k) once sep[:, :k] holds items a..a+k-1: after each full
    chunk, as wide as sep, and after the last one; the caller packs it
    before the next step.  The items (i, j), j > i, of entity i are one
    block, split where it crosses a chunk edge.
    """
    n_cols = matrix.shape[1]
    width = sep.shape[1]
    a = 0  # first item of the chunk
    s = 0  # items of the chunk filled; entity i fills sep[:, s:e] from column n_cols - e + s
    for i in range(n_cols - 1):
        e = s + n_cols - 1 - i
        while e > width:  # the block crosses the chunk edge: fill to it
            np.not_equal(matrix[:, i, None], matrix[:, n_cols - e + s:n_cols - e + width],
                         out=sep[:, s:])
            yield a, width
            a += width
            e -= width
            s = 0
        np.not_equal(matrix[:, i, None], matrix[:, n_cols - e + s:], out=sep[:, s:e])
        s = e
    yield a, s


@dataclass(frozen=True, eq=False)
class PairCoverInstance:
    """Pair-separation instance in one form ("Layout"): matrix, the
    chooser-by-entity matrix, which is_symmetry and root_symmetries read,
    and words, whose row v holds the items that chooser v separates as
    read-only uint64 bits, zero past the last item; seeds holds
    greedy_cover's answers.  Equality is identity.
    """

    n_choosers: int
    n_entities: int
    matrix: np.ndarray = field(repr=False)
    words: np.ndarray = field(repr=False)
    seeds: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_items(self) -> int:
        return self.n_entities * (self.n_entities - 1) // 2


def build_instance(matrix: np.ndarray) -> PairCoverInstance:
    """Instance whose choosers are the matrix rows and whose items are all
    unordered column pairs; only words is built here, a chunk of items at
    a time, so the build needs words plus one chunk buffer ("Layout").
    words is read-only, so every search of an instance that is shared,
    as mdim keeps one per graph, reads the same bits.  A matrix that is
    not a 2-D numpy array of ints or bools raises BadParameters."""
    if not isinstance(matrix, np.ndarray) or matrix.ndim != 2 or matrix.dtype.kind not in "biu":
        raise BadParameters("a cover matrix must be a 2-D numpy array of ints or bools")
    n_choosers, n_cols = matrix.shape
    n_items = n_cols * (n_cols - 1) // 2
    words = np.zeros((n_choosers, -(-n_items // 64)), dtype=np.uint64)
    packed = words.view(np.uint8)
    sep = np.empty((n_choosers, _chunk_width(n_choosers, n_items)), dtype=bool)
    # packbits zero-pads the last byte of a chunk, and words is zero past it
    for a, k in _pair_chunks(matrix, sep):
        packed[:, a // 8:a // 8 + -(-k // 8)] = np.packbits(sep[:, :k], axis=1, bitorder="little")
    words.setflags(write=False)
    return PairCoverInstance(n_choosers, n_cols, matrix, words)


def _is_symmetry(m: np.ndarray, p: np.ndarray) -> bool:
    """The check of is_symmetry, on an intp array p."""
    n = len(p)
    return (m.shape == (n, n) and np.array_equal(np.sort(p), np.arange(n))
            and np.array_equal(m.take(p, axis=0).take(p, axis=1), m))


def is_symmetry(inst: PairCoverInstance, perm: Sequence[int]) -> bool:
    """True iff perm (x to perm[x], on choosers and entities alike) permutes
    a square instance's matrix onto itself.

    Then chooser v separates (i, j) iff perm[v] separates (perm[i],
    perm[j]), so perm carries covers to covers of the same size.  For a
    distance matrix these are exactly the graph automorphisms.  perm is
    read with as_ints, so a non-integer entry raises BadParameters rather
    than being truncated.
    """
    return _is_symmetry(inst.matrix, np.asarray(as_ints(perm, "a permutation"), dtype=np.intp))


def orbit_partition(perms: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    """Each point's least orbit-mate under the group that the rows of perms
    generate.

    labels, if given, is this function's answer for other permutations of
    the same points; the answer then joins both, at the cost of perms alone.
    Union-find over the edges x - p[x]: every round points each point at its
    root, then hooks the larger root of each edge whose roots differ under
    the smaller, so a root is always the least member of its class.  Where
    several edges hook one root, one write wins and the other edges wait
    for a later round.
    """
    parent = np.arange(perms.shape[1]) if labels is None else labels.copy()
    while True:
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        a = np.broadcast_to(parent, perms.shape)
        b = parent[perms]
        apart = a != b
        if not apart.any():
            return parent
        a, b = a[apart], b[apart]
        parent[np.maximum(a, b)] = np.minimum(a, b)


def root_symmetries(
    inst: PairCoverInstance, seed: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Symmetries moving chooser 0, each passing is_symmetry, enough to
    reach its orbit as far as the finder gets.

    seed must be a cover; the base is 0 followed by seed (module
    docstring, "Finding symmetries").  Each candidate image costs one unit
    of a work cap of FINDER_WORK per chooser; any set of symmetries is
    sound, so running out only leaves the orbit smaller, and matrix
    entries outside the integers 0..255 give none.
    """
    m = inst.matrix
    n = inst.n_choosers
    if n < 2 or m.shape != (n, n) or m.dtype.kind not in "iu" or m.min() < 0 or m.max() > 255:
        return ()
    base = [0, *(v for v in seed if v != 0)]
    width = int(m.max()) + 1
    # the base side of each level i, the map on base[:i + 1], to the first
    # with unique codes: its key count, code counts as bytes, ids and cells
    levels, cells, size = [], np.zeros(n, dtype=np.intp), width
    for b in base:
        keys = cells * width + m[b]
        counts = np.bincount(keys, minlength=size)
        ids = np.cumsum(counts > 0) - 1
        cells = ids[keys]
        levels.append((size, counts.tobytes(), ids, cells))
        size = (int(ids[-1]) + 1) * width  # the next keys, cell * width + entry, lie below
        if ids[-1] == n - 1:
            break
    unique = ids[-1] == n - 1  # else seed was no cover, and no leaf is reached
    work = FINDER_WORK * n
    gens: list[tuple[int, ...]] = []
    in_orbit = [True] + [False] * (n - 1)
    for v in range(1, n):
        if in_orbit[v]:
            continue
        # depth first; a frame holds i, the image cells of the map on
        # base[:i] times width, and the candidate images of base[i] left
        stack = [(0, np.zeros(n, dtype=np.intp), iter([v]))]
        while stack:
            i, image_base, cands = stack[-1]
            c = next(cands, None)
            if c is None:
                stack.pop()
                continue
            work -= 1
            if work < 0:
                return tuple(gens)
            size, counts, ids, refined = levels[i]
            image_keys = image_base + m[c]
            if np.bincount(image_keys, minlength=size).tobytes() != counts:
                continue
            image_refined = ids[image_keys]
            if i < len(levels) - 1:
                nxt = (image_refined == refined[base[i + 1]]).nonzero()[0]
                stack.append((i + 1, image_refined * width, iter(nxt.tolist())))
            elif unique:
                perm = np.argsort(image_refined)[refined]  # image_refined is a permutation
                if _is_symmetry(m, perm):
                    gens.append(tuple(perm.tolist()))
                    _close_orbit(in_orbit, gens)
                    break
    return tuple(gens)


def _close_orbit(in_orbit: list[bool], gens: list[tuple[int, ...]]) -> None:
    """Grow in_orbit, a mask closed under gens[:-1], to its closure under
    gens: the last one moves the old members, and all move the new ones."""
    todo = [gens[-1][x] for x, inside in enumerate(in_orbit) if inside]
    while todo:
        y = todo.pop()
        if not in_orbit[y]:
            in_orbit[y] = True
            todo += [g[y] for g in gens]


def _stabiliser_orbits(gens: np.ndarray, row0: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The orbit of 0 under the group G that the rows of gens generate, and
    each point's least orbit-mate under the stabiliser H of 0 in G.

    A transversal t[v] in G with t[v](0) = v comes from a breadth-first
    search over the orbit, its points in plain ints, and the rows of a
    layer in one gather: g t[u] for the u and g that first reached v.  By
    Schreier's lemma the products t[g(v)]^-1 g t[v], over every orbit
    point v and generator g, fix 0 and generate H.  They are joined
    SCHREIER_BLOCK orbit points at a time, and the join stops once its
    classes off 0 are those of equal entries of row0: when G keeps row 0 of
    a matrix, as symmetries of an instance do, H keeps its entries, so no
    orbit of H is coarser.
    """
    n = gens.shape[1]
    where, orbit = [0] + [-1] * (n - 1), [0]  # the position of each point in the orbit
    rows = gens.tolist()
    layer, trans = [0], [np.arange(n)[None, :]]  # the orbit points and transversal rows by layer
    while True:
        reached = []  # (v, the layer position of u, the generator) for each new v = g(u)
        for k, u in enumerate(layer):
            for j, g in enumerate(rows):
                if where[g[u]] < 0:
                    where[g[u]] = len(orbit)
                    orbit.append(g[u])
                    reached.append((g[u], k, j))
        if not reached:
            break
        layer, parent, via = zip(*reached)
        trans.append(gens[np.array(via)[:, None], trans[-1][list(parent)]])
    t = np.concatenate(trans)
    where, points = np.array(where), np.array(orbit)
    inv = np.empty_like(t)
    np.put_along_axis(inv, t, np.broadcast_to(np.arange(n), t.shape), axis=1)
    _, first, cls = np.unique(row0, return_index=True, return_inverse=True)
    coarsest = first[cls]
    labels = None
    for g in gens:
        up = where[g[points]]  # position of g(v) for each orbit point v
        for s in range(0, len(orbit), SCHREIER_BLOCK):
            block = slice(s, s + SCHREIER_BLOCK)
            labels = orbit_partition(inv[up[block, None], g[t[block]]], labels)
            if np.array_equal(labels[1:], coarsest[1:]):
                return orbit, labels
    return orbit, labels


@dataclass(frozen=True)
class CoverResult:
    """A cover and how it was reached.  generators, left out of equality,
    are the checked symmetries the search was given: those root_symmetries
    found when min_cover was asked to look (symmetries None), else the
    ones passed in; () when it had none."""

    chosen: tuple[int, ...]
    nodes: int
    optimal: bool
    generators: tuple[tuple[int, ...], ...] = field(default=(), compare=False)


def greedy_cover(inst: PairCoverInstance, forced: Sequence[int] = ()) -> list[int]:
    """Maximum-marginal-coverage greedy, seeded with the forced choosers,
    as a fresh list.

    Gains are counted by a popcount over inst.words, the only layer read,
    and the first maximum wins, so ties break toward the lowest id.  What
    it adds depends on the forced set alone and is kept in inst.seeds
    under that set, so mdim_exact after mdim_greedy on one graph adds it
    once.  An item that no chooser separates, or a forced entry that is no
    chooser id, raises BadParameters, and nothing is kept.
    """
    chosen = list(as_ids(forced, inst.n_choosers, "forced choosers"))
    key = frozenset(chosen)
    if key in inst.seeds:
        return chosen + list(inst.seeds[key])
    covered = np.bitwise_or.reduce(inst.words[chosen], axis=0)
    left = inst.n_items - int(np.bitwise_count(covered).sum())
    if left and not inst.n_choosers:
        raise BadParameters("instance is infeasible: it has pairs but no chooser")
    added = []
    while left:
        gains = np.add.reduce(np.bitwise_count(inst.words & ~covered), axis=1)
        v = int(gains.argmax())
        gain = int(gains[v])
        if not gain:
            raise BadParameters("instance is infeasible: some pair has no separator")
        added.append(v)
        covered |= inst.words[v]
        left -= gain
    inst.seeds[key] = tuple(added)
    return chosen + added


def _open_items(
    inst: PairCoverInstance, roots: Sequence[tuple[Sequence[int], int]]
) -> np.ndarray | None:
    """The items that some root's start leaves unseparated, as ascending
    ids, or None when that is every item ("Layout").

    The closed items are the AND over roots of the OR of each start's rows
    of words.  A root with an empty start closes the items that every
    chooser separates, the AND of all rows: its first choice covers them.
    """
    packed = inst.words.view(np.uint8)
    rows = {v: _packed_int(packed[v]) for start, _ in roots for v in start}
    every = 0
    if not all(len(start) for start, _ in roots):
        every = _packed_int(np.bitwise_and.reduce(inst.words, axis=0).view(np.uint8))
    closed = None
    for start, _ in roots:
        row = 0 if len(start) else every
        for v in start:
            row |= rows[v]
        closed = row if closed is None else closed & row
    if not closed:
        return None
    return np.flatnonzero(_bit_matrix([closed], inst.n_items)[0] == 0)


def _open_words(words: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The columns items of words, in their order, packed as words of their
    own: gathered a chunk of items at a time under the build's bound, each
    item's byte of every row masked to its bit."""
    packed = words.view(np.uint8)
    n_choosers, n_items = len(words), len(items)
    out = np.zeros((n_choosers, -(-n_items // 64)), dtype=np.uint64)
    cut = out.view(np.uint8)
    byte, mask = items >> 3, _BIT_MASKS[items & 7]
    width = _chunk_width(n_choosers, n_items)
    for a in range(0, n_items, width):
        bits = np.take(packed, byte[a:a + width], axis=1)
        bits &= mask[a:a + width]
        # packbits zero-pads the last byte, and out is zero past it
        chunk = np.packbits(bits, axis=1, bitorder="little")
        cut[:, a // 8:a // 8 + chunk.shape[1]] = chunk
    return out


class _Stop(Exception):
    pass


class _Search:
    """Branch and bound state over the open items of roots, built from
    inst.words alone ("Layout"); entry p of resolvers is None until the
    search first reads item p.

    Keeping only the open items leaves the tree and its node count as
    they are.  A closed item is covered at every node, so uncovered and
    every dynamic count are unchanged.  The open items keep their order
    and their static separator counts, so _pick_pivot and _completable
    meet the same items in the same order; the COMPLETION_WINDOW of
    _completable counts kept positions, but only sets how much of its
    exact test runs on chooser-wide ints.  Static chooser counts over
    the open items still bound the dynamic ones from above, so
    _coverage_reachable gives the same answers.  Chooser ids do not
    change.

    The same holds root by root, since every node below a root holds its
    start: an item that the start separates is covered at each of them.
    So when per_root is set, more than PER_ROOT_ITEMS items open and two
    or more roots, run loads the layers of each root from its own open
    items as it enters it (_load), and drops those of the root before.
    Each kept item keeps its order and static separator count; the static
    chooser counts shrink, and bound the dynamic ones all the same.  The
    hidden count of an empty start is that root's own.  Otherwise the
    layers over the open items of all roots are loaded once, here: below
    that width a load per root costs more than its narrower ints save.

    The top node of a root with an empty start, the one node with nothing
    chosen, is the exception: there the closed items, those that every
    chooser separates, are still uncovered.  Every chooser covers all of
    them, so each static and dynamic count is short by the same number,
    hidden, which the uncovered count and the scan's threshold add back;
    and with every chooser as separators they formed the last item group
    alone, so the pivot walk meets an open item first.  When no item is
    left open, the search keeps every item, as when nothing is closed, and
    nothing is hidden.  So a top node with hidden items always has an open
    item too: its leaf test needs no hidden count, and _completable and
    _pick_pivot never see an empty uncovered set.

    Scanning by an ancestor's counts leaves the tree as it is too: they
    bound the dynamic counts from above as the static ones do, and the
    scan's answer, whether some unbanned chooser reaches the threshold,
    does not depend on the bound that ends it.  A node's own counts are
    its dynamic counts, so its candidates keep their order.
    """

    PIVOT_WINDOW = 8  # uncovered items examined per node when picking a pivot
    COMPLETION_WINDOW = 128  # items from the lowest uncovered one that _completable intersects
    BITS = tuple(_BIT_MASKS)  # _resolver's masks as scalars, built once

    def __init__(
        self,
        inst: PairCoverInstance,
        budget: int,
        lower_stop: int,
        roots: Sequence[tuple[Sequence[int], int]],
    ):
        self.inst = inst
        self.budget = budget
        self.lower_stop = lower_stop
        self.roots = roots
        self.nodes = 0
        self.exhausted = True
        self.best: list[int] = []
        items = _open_items(inst, roots)
        n_open = inst.n_items if items is None else len(items)
        self.per_root = len(roots) > 1 and n_open > PER_ROOT_ITEMS
        if not self.per_root:
            self._load(items)

    def _load(self, items: np.ndarray | None) -> None:
        """The layers over items, the open ones of _open_items; when that
        is None or empty, over every item."""
        inst = self.inst
        if items is None or not len(items):  # nothing closed, or nothing open: keep every item
            words, n_items = inst.words, inst.n_items
        else:
            words, n_items = _open_words(inst.words, items), len(items)
        self.closed = inst.n_items - n_items  # under an empty start, every chooser covers them
        self.all_items = (1 << n_items) - 1
        self.packed = packed = words.view(np.uint8)
        self.coverage = _packed_ints(packed)
        # the static separator count of each item is a column sum of words,
        # unpacked a chunk of items at a time under the build's bound
        n_choosers = inst.n_choosers
        counts = np.zeros(n_items, dtype=np.min_scalar_type(n_choosers))
        width = _chunk_width(n_choosers, n_items)
        for a in range(0, n_items, width):
            bits = np.unpackbits(packed[:, a // 8:(a + width) // 8], axis=1, bitorder="little")
            np.add.reduce(bits[:, :n_items - a], axis=0, out=counts[a:a + width])
        self.resolvers: list[int | None] = [None] * n_items
        # one item mask per static separator count, in ascending count order
        # sorted(set()): a plain np.unique imports numpy.ma (~16 ms) on its first call
        self.item_groups = _bit_rows(counts == np.array(sorted(set(counts.tolist())))[:, None])
        # choosers by descending static coverage, then id (stable sort), for bound scans
        cov_counts = np.add.reduce(np.bitwise_count(words), axis=1).tolist()
        self.chooser_order = sorted(range(inst.n_choosers), key=lambda v: -cov_counts[v])
        self.cov_counts = cov_counts

    def _resolver(self, p: int) -> int:
        """resolvers[p], bit p of every row of words, packed and kept."""
        column = self.packed[:, p >> 3] & self.BITS[p & 7]
        r = self.resolvers[p] = _packed_int(np.packbits(column, bitorder="little"))
        return r

    def run(self, seed: Sequence[int]) -> CoverResult:
        """Search below each root (start, banned) in turn, for the covers
        that contain start and avoid banned, with one incumbent and one
        budget."""
        self.best = list(seed)
        try:
            for start, banned in self.roots:
                if self.per_root:
                    self._load(_open_items(self.inst, [(start, banned)]))
                covered = 0
                for v in start:
                    covered |= self.coverage[v]
                self._search(list(start), covered, banned, self.chooser_order, self.cov_counts)
        except _Stop:
            pass
        return CoverResult(
            chosen=tuple(sorted(self.best)),
            nodes=self.nodes,
            optimal=self.exhausted,
        )

    def _search(
        self, chosen: list[int], covered: int, banned: int,
        order: list[int], counts: list[int],
    ) -> None:
        """One node: counts[v] bounds chooser v's coverage of the uncovered
        items from above, and order ranks the choosers by it.  With nothing
        chosen, at the top node of a root with an empty start, the closed
        items are uncovered too, and every chooser covers them."""
        if self.nodes == self.budget:
            self.exhausted = False
            raise _Stop
        self.nodes += 1
        uncovered = self.all_items ^ covered  # every coverage row is zero past all_items
        if not uncovered:
            if len(chosen) < len(self.best):
                self.best = list(chosen)
                if len(self.best) <= self.lower_stop:
                    raise _Stop
            return
        slack = len(self.best) - 1 - len(chosen)
        if slack <= 0:
            return
        coverage = self.coverage
        hidden = 0 if chosen else self.closed
        # prune: even `slack` more choosers at the best possible marginal
        # coverage cannot finish; at slack one it is the whole count, untaken
        unc_cnt = uncovered.bit_count() + hidden if slack > 1 else 0
        threshold = -(-unc_cnt // slack)  # ceil
        if threshold == unc_cnt:
            if not self._completable(uncovered, banned):
                return
        elif not self._coverage_reachable(uncovered, banned, threshold - hidden, order, counts):
            return
        pivot_resolvers = self._pick_pivot(uncovered, banned)
        if pivot_resolvers == 0:
            return  # some pair lost all its separators
        cands = []  # ascending ids, and the sorts below are stable
        while pivot_resolvers:
            low = pivot_resolvers & -pivot_resolvers
            cands.append(low.bit_length() - 1)
            pivot_resolvers ^= low
        if slack >= 3:
            # the subtree's scans read these counts: uncovered only shrinks
            counts = list(map(int.bit_count, map(uncovered.__and__, coverage)))
            order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
            cands.sort(key=counts.__getitem__, reverse=True)
        else:
            cands.sort(key=lambda v: -(coverage[v] & uncovered).bit_count())
        tried = 0
        for v in cands:
            chosen.append(v)
            self._search(chosen, covered | coverage[v], banned | tried, order, counts)
            chosen.pop()
            tried |= 1 << v
            if len(self.best) - 1 - len(chosen) <= 0:
                return  # incumbent improved enough to close this node

    def _coverage_reachable(
        self, uncovered: int, banned: int, threshold: int, order: list[int], counts: list[int]
    ) -> bool:
        """True iff some unbanned chooser covers >= threshold uncovered
        items, where counts[v] bounds chooser v's count from above and
        order ranks the choosers by it, ties by ascending id."""
        coverage = self.coverage
        for v in order:
            if banned >> v & 1:
                continue
            if counts[v] < threshold:
                return False  # no later chooser can reach it
            if (coverage[v] & uncovered).bit_count() >= threshold:
                return True
        return False

    def _completable(self, uncovered: int, banned: int) -> bool:
        """True iff some unbanned chooser covers every uncovered item.

        Equals _coverage_reachable(uncovered, banned, uncovered.bit_count()).
        Such a chooser separates every uncovered pair, so it lies in the
        separator set, a chooser-wide int, of each uncovered item among the
        COMPLETION_WINDOW positions from the lowest one; only the candidates
        left get the subset test against uncovered.
        """
        resolvers = self.resolvers
        cands = ~banned
        first = (uncovered & -uncovered).bit_length() - 1
        window = uncovered >> first & (1 << self.COMPLETION_WINDOW) - 1
        while window:
            low = window & -window
            p = first + low.bit_length() - 1
            r = resolvers[p]
            if r is None:
                r = self._resolver(p)
            cands &= r
            if not cands:
                return False
            window ^= low
        coverage = self.coverage
        while cands:
            low = cands & -cands
            if coverage[low.bit_length() - 1] & uncovered == uncovered:
                return True
            cands ^= low
        return False

    def _pick_pivot(self, uncovered: int, banned: int) -> int:
        """Separator set of the branching pair.

        Walks uncovered items by static separator count (item_groups), then
        index, and takes the dynamic minimum among the first PIVOT_WINDOW.
        """
        resolvers = self.resolvers
        best_bits = 0
        best_cnt = 1 << 62
        seen = 0
        for group in self.item_groups:
            rest = uncovered & group
            while rest:
                low = rest & -rest
                p = low.bit_length() - 1
                rest ^= low
                r = resolvers[p]
                if r is None:
                    r = self._resolver(p)
                avail = r & ~banned
                cnt = avail.bit_count()
                if cnt == 0:
                    return 0
                if cnt < best_cnt:
                    best_cnt, best_bits = cnt, avail
                    if cnt == 1:
                        return best_bits
                seen += 1
                if seen >= self.PIVOT_WINDOW:
                    return best_bits
        return best_bits


def min_cover(
    inst: PairCoverInstance,
    forced: Sequence[int] = (),
    budget: int = DEFAULT_BUDGET,
    lower_stop: int = 0,
    symmetries: Sequence[Sequence[int]] | None = None,
) -> CoverResult:
    """Minimum cover containing the forced choosers.

    lower_stop is an external lower bound on the optimum: any incumbent of
    that size is accepted as optimal without exhausting the tree.  A spent
    budget downgrades the result to a verified upper bound
    (optimal=False).  Budget 0 returns the greedy seed, optimal only when
    it meets lower_stop.  A budget that is negative or no int (as_ints), a
    lower_stop that is no int, or a forced entry that is not a chooser id,
    raises BadParameters.

    symmetries None (the default) means find them: when nothing is forced,
    the budget is positive and the greedy seed is above lower_stop,
    root_symmetries looks for them from that seed, on a square instance
    only.  symmetries passed in are permutations that must pass
    is_symmetry; a permutation that fails it, or whose entries are not
    ints, raises BadParameters, and so do symmetries given together with
    forced choosers.  () means none.  With symmetries the search runs the
    orbital root children of the module docstring, from the orbit of
    chooser 0 and the orbits of its stabiliser, and the result carries
    them as generators.
    """
    (budget,) = as_ints((budget,), "the node budget")
    (lower_stop,) = as_ints((lower_stop,), "lower_stop")
    if budget < 0:
        raise BadParameters(f"node budget must be non-negative, got {budget}")
    forced = sorted(set(as_ids(forced, inst.n_choosers, "forced choosers")))
    lower_stop = max(lower_stop, len(forced))
    seed = greedy_cover(inst, forced)
    if symmetries is not None:
        symmetries = tuple(as_ints(p, "a symmetry") for p in symmetries)
        if symmetries and forced:
            raise BadParameters("symmetries are taken only when no chooser is forced")
        if not all(_is_symmetry(inst.matrix, np.asarray(p, dtype=np.intp)) for p in symmetries):
            raise BadParameters("a symmetry must map the instance onto itself")
    if budget == 0 or len(seed) <= lower_stop:
        return CoverResult(tuple(sorted(seed)), 0, len(seed) <= lower_stop, symmetries or ())
    if symmetries is None:
        symmetries = () if forced else root_symmetries(inst, seed)
    roots = _orbital_roots(inst, symmetries) if symmetries else [(forced, 0)]
    res = _Search(inst, budget, lower_stop, roots).run(seed)
    return replace(res, generators=symmetries)


def _orbital_roots(
    inst: PairCoverInstance, symmetries: Sequence[Sequence[int]]
) -> list[tuple[list[int], int]]:
    """The root children (start, banned) of the module docstring."""
    orbit, labels = _stabiliser_orbits(np.asarray(symmetries, dtype=np.intp), inst.matrix[0])
    least, sizes = np.unique(labels, return_counts=True)
    roots = []
    banned = 0
    for r in least[sizes > 1].tolist():
        roots.append(([0, r], banned))
        banned |= sum(1 << v for v in np.flatnonzero(labels == r).tolist())
    roots.append(([0], banned))
    if len(orbit) < inst.n_choosers:
        roots.append(([], sum(1 << v for v in orbit)))
    return roots

