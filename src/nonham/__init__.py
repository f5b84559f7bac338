"""Refutation proofs of non-Hamiltonicity.

Pipeline: a digraph is encoded as a propositional formula satisfiable
exactly when a Hamiltonian path exists; for non-Hamiltonian graphs a
normal natural-deduction refutation of the encoding is built mechanically,
translated into purely implicational minimal logic, and horizontally
compressed into a dag proof that an independent checker re-verifies.
"""

__version__ = "0.1.0"
