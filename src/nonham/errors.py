"""Exception types shared across the package.

Exit-code conventions for the command line live in cli.py; the split there
is: malformed input (2), Hamiltonian input where a refutation was requested
(3), and verification failures on structurally plausible artifacts (4).
"""

from __future__ import annotations


class NonhamError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(NonhamError):
    """Raised when graph text cannot be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CapExceededError(NonhamError):
    """Raised when a brute-force operation is asked to exceed its size cap."""


class FormulaSyntaxError(NonhamError):
    """Raised when formula text cannot be tokenized or parsed."""


class UnboundVariableError(NonhamError):
    """Raised when evaluation meets a variable missing from the assignment."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"assignment does not bind variable {name.name}")


class GraphIsHamiltonianError(NonhamError):
    """Raised when a refutation is requested for a graph that has a Hamiltonian path."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"graph has a Hamiltonian path: {list(self.witness)}")


class NoViolationError(NonhamError):
    """Raised when a leaf refutation is requested for a violation-free sequence."""


class IllFormedProofError(NonhamError):
    """A tree proof node fails a local rule check.

    ``path`` is the premise-index path from the root to the offending node.
    """

    def __init__(self, path, reason: str):
        self.path = tuple(path)
        self.reason = reason
        where = "root" if not self.path else "node " + "/".join(map(str, self.path))
        super().__init__(f"ill-formed proof at {where}: {reason}")


class ProofFormatError(NonhamError):
    """Raised when proof or dag JSON violates the serialization schema."""


class WrongOpenSetError(NonhamError):
    """Raised when a proof's open assumptions differ from the expected set."""

    def __init__(self, open_set, expected):
        self.open_set = frozenset(open_set)
        self.expected = frozenset(expected)
        super().__init__(
            f"open assumptions mismatch: got {len(self.open_set)} formulas, "
            f"expected {len(self.expected)}"
        )


class ShapeMismatchError(NonhamError):
    """Raised when a transform meets a proof shape it cannot rewrite."""


class UnsupportedRuleError(NonhamError):
    """Raised when a transform meets a rule outside its supported fragment."""


class NoCoherentChoiceError(NonhamError):
    """Raised when no source thread through some separation node survives
    the collapse to a repetition (or the node has no premises at all)."""


class OpenAssumptionsError(NonhamError):
    """Raised when a dag proof that must be closed has open assumptions."""

    def __init__(self, open_set):
        from .formulas import to_text  # formulas imports this module

        self.open_set = frozenset(open_set)
        # sorted before the cut: a frozenset's order changes from run to run
        names = ", ".join(sorted(to_text(f, limit=72) for f in self.open_set)[:4])
        more = "" if len(self.open_set) <= 4 else ", ..."
        super().__init__(f"dag proof has open assumptions: {names}{more}")


class IllFormedDagError(NonhamError):
    """A dag proof node fails a structural or local rule check."""

    def __init__(self, node_id, reason: str):
        self.node_id = node_id
        super().__init__(f"ill-formed dag at node {node_id}: {reason}")
