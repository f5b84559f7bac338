"""Reference implementations the tests compare the package against.

They are the plain versions of what `nonham` does faster: the full truth
table and the n^n vertex-sequence table as bool and int rows, a formula's
truth value under one assignment, a graph rebuilt from its id and written
as text, the Hamiltonian path search as a scan over every permutation, the
translated goal's axiom fold built formula by formula, a tree proof
embedded as a dag with one node per occurrence, documents and formula
tables as the parsed JSON values the writers' text stands for, and bool
columns packed into the kernel's int columns through numpy's bit packing.
One helper is no reference: `eval_rows` runs a compiled program over bool
rows through the package's own word kernel.
"""

import itertools
import json
from typing import Mapping

import numpy as np

from nonham.dagproof import DagNode, DagProof, dumps_dag
from nonham.errors import NonhamError, UnsupportedRuleError
from nonham.formulas import AND, BOT, OR, VAR, Formula, VarName, imp, subformulas, table_id
from nonham.graphs import Graph, ordered_pairs
from nonham.implicational import Translation
from nonham.kernels import Program, eval_words
from nonham.prooftree import IMPLICATIONAL_RULES, ProofTree, dumps_proof


def step_vertex_block(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the n^n table of vertex sequences.

    Row r is the base-n expansion of r (step 1 most significant), shifted to
    vertices 1..n; column j holds the vertex visited at step j+1.
    """
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        idx, out[:, pos] = np.divmod(idx, n)
    return out + 1


def bit_block(nvars: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the 2^nvars truth table (variable 0 most significant)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, nvars), dtype=bool)
    for pos in range(nvars):
        out[:, pos] = (idx >> (nvars - 1 - pos)) & 1
    return out


def pack_columns(bits: np.ndarray) -> list[int]:
    """Each row of a (columns, rows) bool matrix as one int: bit r is entry r."""
    return [int.from_bytes(np.packbits(b, bitorder="little").tobytes(), "little")
            for b in np.asarray(bits, dtype=bool)]


def unpack_column(word: int, rows: int) -> np.ndarray:
    """Bits 0..rows-1 of an int column as a bool vector; any other bit raises."""
    if word < 0 or word >> rows:
        raise ValueError(f"column has bits outside 0..{rows - 1}")
    raw = np.frombuffer(word.to_bytes(-(-rows // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=rows, bitorder="little").view(bool)


def eval_rows(prog: Program, rows: np.ndarray) -> np.ndarray:
    """prog's truth on each row of a (rows, nvars) bool matrix: the matrix's
    columns packed into ints, prog's one root evaluated by the word kernel,
    and its column unpacked, with any bit outside the rows refused."""
    [root] = eval_words(prog, pack_columns(rows.T), rows.shape[0])
    return unpack_column(root, rows.shape[0])


def graph_from_id(n: int, graph_id: int) -> Graph:
    """The graph whose `graph_id` is graph_id: bit i set iff pair i of
    `ordered_pairs(n)` is an edge."""
    pairs = ordered_pairs(n)
    if not 0 <= graph_id < (1 << len(pairs)):
        raise ValueError(f"graph id {graph_id} out of range for n={n}")
    return Graph(n, frozenset(p for i, p in enumerate(pairs) if graph_id >> i & 1))


def graph_to_text(g: Graph) -> str:
    """The `n m` edge-list text that `parse_graph` reads, edges sorted."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def brute_force_path(g: Graph):
    """First Hamiltonian path in lexicographic order, trying every permutation."""
    for perm in itertools.permutations(range(1, g.n + 1)):
        if all((perm[i], perm[i + 1]) in g.edges for i in range(g.n - 1)):
            return perm
    return None


def rho_star(t: Translation, axioms: list[Formula] | None = None) -> Formula:
    """The translated goal with the axioms (all of them by default) folded
    in front as antecedents, last axiom innermost."""
    if t.star_root is None:
        raise ValueError("translation not initialized")
    out = t.star_root
    for ax in reversed(t.axioms if axioms is None else list(axioms)):
        out = imp(ax, out)
    return out


class UnboundVariableError(NonhamError):
    """Raised when evaluation meets a variable missing from the assignment."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"assignment does not bind variable {name.name}")


def eval_formula(f: Formula, assignment: Mapping[VarName, bool]) -> bool:
    """Classical truth value under the assignment; iterative, memoized per node."""
    memo: dict[Formula, bool] = {}
    for node in subformulas(f, memo):
        k = node.kind
        if k == BOT:
            memo[node] = False
        elif k == VAR:
            try:
                memo[node] = bool(assignment[node.var])
            except KeyError:
                raise UnboundVariableError(node.var) from None
        elif k == AND:
            memo[node] = memo[node.left] and memo[node.right]
        elif k == OR:
            memo[node] = memo[node.left] or memo[node.right]
        else:
            memo[node] = (not memo[node.left]) or memo[node.right]
    return memo[f]


def tree_to_dag(p: ProofTree) -> DagProof:
    """Embed a tree proof as a dag without merging: one node per occurrence,
    numbered breadth-first, so level by level and, within a level, in
    preorder."""
    occurrences = [(p, 0)]
    nodes: list[DagNode] = []
    for node, level in occurrences:
        if node.rule not in IMPLICATIONAL_RULES:
            raise UnsupportedRuleError(f"implicational proofs only, got {node.rule}")
        first = len(occurrences)
        occurrences += [(ch, level + 1) for ch in node.premises]
        nodes.append(DagNode(node.conclusion, node.rule,
                             tuple(range(first, len(occurrences))), level))
    weight = sum(n.formula.weight for n in nodes)
    return DagProof(nodes=nodes, root=0, source_tree_weight=weight,
                    had_duplicates=False)


def proof_to_json(p: ProofTree) -> dict:
    """The tree document of `p` as a JSON value."""
    return json.loads(dumps_proof(p))


def dag_to_json(d: DagProof) -> dict:
    """The dag document of `d` as a JSON value."""
    return json.loads(dumps_dag(d))


def formulas_to_table(roots) -> tuple[list[list], dict[Formula, int]]:
    """The formula table a writer naming `roots` in turn builds, as a JSON
    value, plus each formula's id in it."""
    index: dict[Formula, int] = {}
    entries: list[str] = []
    for root in roots:
        table_id(root, index, entries)
    return json.loads("[" + ",".join(entries) + "]"), index
