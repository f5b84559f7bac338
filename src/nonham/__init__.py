"""Refutation proofs of non-Hamiltonicity.

Pipeline: a digraph is encoded as a propositional formula satisfiable
exactly when a Hamiltonian path exists; for non-Hamiltonian graphs a
normal natural-deduction refutation of the encoding is built mechanically,
translated into purely implicational minimal logic, and horizontally
compressed into a dag proof that an independent checker re-verifies.
"""

from .builder import BuildReport, build_case_tower, build_refutation, finalize_negation
from .dagproof import (
    Compression,
    DagNode,
    DagProof,
    OriginMap,
    cleanse,
    coherence_failures,
    compress_and_verify,
    compress_horizontal,
    dumps_dag,
    loads_dag,
    verify_dag,
)
from .encoding import PathEncoding, encode_graph, satisfiable
from .formulas import (
    Formula,
    QVar,
    XVar,
    bot,
    conj,
    disj,
    formulas_from_table,
    formulas_to_table,
    imp,
    to_text,
    var,
    weight,
    x_var,
)
from .graphs import (
    Graph,
    MissingEdge,
    Repeat,
    enumerate_graphs,
    find_violation,
    is_hamiltonian,
    parse_graph,
)
from .implicational import Translation, translate_formula, translate_proof, used_axioms
from .prooftree import (
    Metrics,
    ProofTree,
    check_tree,
    dumps_proof,
    is_normal,
    loads_proof,
    subformula_ok,
)

__version__ = "0.1.0"

__all__ = [
    "BuildReport",
    "Compression",
    "DagNode",
    "DagProof",
    "Formula",
    "Graph",
    "Metrics",
    "MissingEdge",
    "OriginMap",
    "PathEncoding",
    "ProofTree",
    "QVar",
    "Repeat",
    "Translation",
    "XVar",
    "bot",
    "build_case_tower",
    "build_refutation",
    "check_tree",
    "cleanse",
    "coherence_failures",
    "compress_and_verify",
    "compress_horizontal",
    "conj",
    "disj",
    "dumps_dag",
    "dumps_proof",
    "encode_graph",
    "enumerate_graphs",
    "finalize_negation",
    "find_violation",
    "formulas_from_table",
    "formulas_to_table",
    "imp",
    "is_hamiltonian",
    "is_normal",
    "loads_dag",
    "loads_proof",
    "parse_graph",
    "satisfiable",
    "subformula_ok",
    "to_text",
    "translate_formula",
    "translate_proof",
    "used_axioms",
    "var",
    "verify_dag",
    "weight",
    "x_var",
]
