"""Exception types shared across the package.

Every error the package raises on purpose is a MdimlabError, so callers
(and the CLI, which exits 1 on one) can separate user errors from bugs.
They come in three families:

- BadParameters: an argument is outside the domain of the routine (a
  modulus that is not prime, an id out of range, a malformed file).
- HypothesisFailure: a graph or set does not meet a structural hypothesis
  of the routine (connected, distance-regular, bipartite, antipodal with
  classes of size 2, strongly regular with k = 2c or a = c, a resolving or
  minimum set).  Its subclasses DisconnectedGraph, NotDistanceRegular,
  NotBipartite, NotAntipodal and InputNotResolving name the common ones,
  and those that carry a witness expose it as an attribute.
- ClassificationContradiction and LiftVerificationError: a result failed
  its own re-verification, which indicates a bug.

BudgetExceeded stands apart: a golden row proved no minimum in its budget.
"""

from __future__ import annotations


class MdimlabError(Exception):
    """Base class for all package errors."""


class BadParameters(MdimlabError, ValueError):
    """A routine was called with parameters outside its domain."""


class HypothesisFailure(MdimlabError, ValueError):
    """A structural hypothesis of a routine does not hold."""


class DisconnectedGraph(HypothesisFailure):
    """An operation that needs a connected graph got a disconnected one."""


class NotDistanceRegular(HypothesisFailure):
    """Neighbour counts are not constant over some distance class.

    Attributes:
        witness: first offending (u, w, i) triple in lexicographic order.
    """

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        u, w, i = witness
        super().__init__(
            f"not distance-regular: counts differ at pair ({u}, {w}) in distance class {i}"
        )


class NotBipartite(HypothesisFailure):
    """2-colouring failed.

    Attributes:
        witness: vertex sequence of an odd closed walk.
    """

    def __init__(self, witness: tuple[int, ...]):
        self.witness = tuple(witness)
        super().__init__(f"not bipartite: odd closed walk {list(self.witness)}")


class NotAntipodal(HypothesisFailure):
    """The distance-d graph is not a disjoint union of equal cliques of size >= 2."""


class InputNotResolving(HypothesisFailure):
    """A set handed to a transfer routine failed its resolving-set check.

    Attributes:
        pair: first unresolved pair.
    """

    def __init__(self, pair: tuple[int, int], where: str = "input"):
        self.pair = pair
        super().__init__(f"{where} set is not resolving: pair {pair} unresolved")


class BudgetExceeded(MdimlabError, RuntimeError):
    """A golden row's solve spent its node budget and proved no minimum.

    The searches never raise it: a spent budget only marks their result
    as not proved optimal (status "verified-resolving").
    """

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exceeded after {nodes} nodes")


class ClassificationContradiction(MdimlabError, RuntimeError):
    """A classification sub-claim failed verification; indicates a bug upstream."""


class LiftVerificationError(MdimlabError, RuntimeError):
    """A transfer produced a set that fails re-verification; indicates a bug."""
