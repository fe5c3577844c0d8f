"""Exception types shared across the package.

Every precondition failure raises a subclass of MdimlabError so callers (and
the CLI) can separate user errors from genuine bugs.  Errors that carry a
witness expose it as an attribute.
"""

from __future__ import annotations


class MdimlabError(Exception):
    """Base class for all package errors."""


class BadParameters(MdimlabError, ValueError):
    """A constructor was called with parameters outside its domain."""


class NotPrime(BadParameters):
    """A field-based constructor needs a prime modulus."""


class DisconnectedGraph(MdimlabError, ValueError):
    """An operation that needs a connected graph got a disconnected one."""


class NotDistanceRegular(MdimlabError, ValueError):
    """Neighbour counts are not constant over some distance class.

    Attributes:
        witness: first offending (u, w, i) triple in lexicographic order.
    """

    def __init__(self, witness: tuple[int, int, int], message: str = ""):
        self.witness = witness
        u, w, i = witness
        super().__init__(
            message
            or f"not distance-regular: counts differ at pair ({u}, {w}) in distance class {i}"
        )


class NotBipartite(MdimlabError, ValueError):
    """2-colouring failed.

    Attributes:
        witness: vertex sequence of an odd closed walk.
    """

    def __init__(self, witness: tuple[int, ...]):
        self.witness = tuple(witness)
        super().__init__(f"not bipartite: odd closed walk {list(self.witness)}")


class NotAntipodal(MdimlabError, ValueError):
    """The distance-d graph is not a disjoint union of equal cliques of size >= 2."""


class NotTwoAntipodal(MdimlabError, ValueError):
    """A 2-antipodal partition was required but the graph or partition is not one."""


class NotSrgKEquals2c(MdimlabError, ValueError):
    """Input must be strongly regular with valency k = 2c."""


class DegenerateComplement(MdimlabError, ValueError):
    """Design complement would have lambda <= 0."""


class NotBipartiteDiameter3(MdimlabError, ValueError):
    """Graph is not a bipartite distance-regular graph of diameter 3."""


class NotNullPolarity(MdimlabError, ValueError):
    """A map supplied or found as a null polarity is not an
    incidence-preserving fixed-point-free polarity."""


class NotBijection(MdimlabError, ValueError):
    """The supplied point-to-block map is not a bijection."""


class NoSuchTriple(MdimlabError, ValueError):
    """No three pairwise non-concurrent lines exist (cannot happen for q >= 2)."""


class BudgetExceeded(MdimlabError, RuntimeError):
    """A bounded search ran out of its node budget before finishing."""

    def __init__(self, nodes: int, message: str = ""):
        self.nodes = nodes
        super().__init__(message or f"search budget exceeded after {nodes} nodes")


class InputNotResolving(MdimlabError, ValueError):
    """A set handed to a transfer routine failed its resolving-set check.

    Attributes:
        pair: first unresolved pair.
    """

    def __init__(self, pair: tuple[int, int], where: str = "input"):
        self.pair = pair
        super().__init__(f"{where} set is not resolving: pair {pair} unresolved")


class HypothesisFailure(MdimlabError, ValueError):
    """A structural hypothesis of a transfer routine does not hold."""


class ParameterFailure(MdimlabError, ValueError):
    """Graph parameters do not match what the routine requires."""


class NormalizationFailure(MdimlabError, RuntimeError):
    """Pushing a set into one part of a 2-antipodal partition changed its size."""


class ClassificationContradiction(MdimlabError, RuntimeError):
    """A classification sub-claim failed verification; indicates a bug upstream."""


class LiftVerificationError(MdimlabError, RuntimeError):
    """A transfer produced a set that fails re-verification; indicates a bug."""
