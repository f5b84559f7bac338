"""Propositional encoding of Hamiltonian-path existence.

`encode_graph` builds, for a digraph g on n vertices, a formula over the
position variables X_i_v ("step i visits vertex v") that is classically
satisfiable exactly when g has a Hamiltonian path. It is the conjunction of
up to five parts, each itself a conjunction block:

* coverage       - every vertex is visited at some step;
* repeat_ban     - no vertex is visited at two steps;
* step_occupied  - every step visits some vertex;
* step_unique    - no step visits two vertices;
* edge_ban       - consecutive steps never use a missing edge (v != w).

Parts whose index range is empty (n = 1, or no missing edges) are absent.
Shapes are fixed for determinism and proof size: conjunction blocks are
balanced trees, disjunctions are right-nested chains, and the top level is
a left fold over the present parts in the order above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .formulas import (
    Formula,
    XVar,
    balanced_conj,
    balanced_path,
    bot,
    chain_disj,
    conj,
    imp,
    x_var,
)
from .graphs import Graph, ordered_pairs
from .kernels import Program, compile_program, eval_words, pack_columns, unpack_rows

PART_TAGS = ("coverage", "repeat_ban", "step_occupied", "step_unique", "edge_ban")

SAT_CAP = 7
# `nonham encode` refuses larger graphs: the encoding has about n^3
# conjuncts, and encoding and printing an empty n=27 graph (2 MB of text)
# takes about a second on a 2-core Xeon VM
ENCODE_CAP = 27

# rows per block of the SAT scan: a block is the n^k rows that share their
# leading n-k steps, with k as large as this budget allows
_BLOCK = 1 << 17


@dataclass
class PathEncoding:
    n: int
    parts: dict[str, Formula | None]
    conjuncts: dict[str, list[Formula]]
    formula: Formula
    # conjunct positions: repeat_pos[(v, i, j)], edge_pos[(v, w, i)]
    repeat_pos: dict[tuple[int, int, int], int]
    edge_pos: dict[tuple[int, int, int], int]

    @property
    def present(self) -> list[str]:
        return [tag for tag in PART_TAGS if self.parts[tag] is not None]


def encode_graph(g: Graph) -> PathEncoding:
    n = g.n
    steps = range(1, n + 1)
    verts = range(1, n + 1)

    conjuncts: dict[str, list[Formula]] = {tag: [] for tag in PART_TAGS}
    repeat_pos: dict[tuple[int, int, int], int] = {}

    conjuncts["coverage"] = coverage(n)

    for v in verts:
        for i in steps:
            for j in steps:
                if j == i:
                    continue
                c = imp(x_var(i, v), imp(x_var(j, v), bot()))
                repeat_pos[(v, i, j)] = len(conjuncts["repeat_ban"])
                conjuncts["repeat_ban"].append(c)

    for i in steps:
        c = chain_disj([x_var(i, v) for v in verts])
        conjuncts["step_occupied"].append(c)

    for v, w in ordered_pairs(n):
        for i in steps:
            c = imp(x_var(i, v), imp(x_var(i, w), bot()))
            conjuncts["step_unique"].append(c)

    bans = edge_bans(g)
    conjuncts["edge_ban"] = list(bans.values())
    edge_pos = {key: pos for pos, key in enumerate(bans)}

    parts = {tag: conjunction(items) for tag, items in conjuncts.items()}
    present = [parts[tag] for tag in PART_TAGS if parts[tag] is not None]
    formula = present[0]
    for p in present[1:]:
        formula = conj(formula, p)

    return PathEncoding(
        n=n,
        parts=parts,
        conjuncts=conjuncts,
        formula=formula,
        repeat_pos=repeat_pos,
        edge_pos=edge_pos,
    )


def coverage(n: int) -> list[Formula]:
    """coverage's conjuncts in conjunct order: for each vertex v, some step visits v."""
    return [chain_disj([x_var(i, v) for i in range(1, n + 1)]) for v in range(1, n + 1)]


def edge_bans(g: Graph) -> dict[tuple[int, int, int], Formula]:
    """edge_ban's conjuncts in conjunct order, keyed by (v, w, i): step i
    visits v and step i+1 visits w, for each missing pair (v, w)."""
    return {(v, w, i): imp(x_var(i, v), imp(x_var(i + 1, w), bot()))
            for v, w in g.missing_pairs() for i in range(1, g.n)}


def conjunction(items: list[Formula]) -> Formula | None:
    """A part from its conjuncts: their balanced conjunction, or None if there are none."""
    return balanced_conj(items) if items else None


def part_path(enc: PathEncoding, tag: str) -> list[str]:
    """L/R descent from the top-level formula to the given part."""
    present = enc.present
    if tag not in present:
        raise KeyError(f"part {tag!r} absent from this encoding")
    k = present.index(tag)
    last = len(present) - 1
    path = ["L"] * (last - k)
    if k > 0:
        path.append("R")
    return path


def conjunct_path(enc: PathEncoding, tag: str, pos: int) -> list[str]:
    """L/R descent from the top-level formula to conjunct `pos` of a part."""
    return part_path(enc, tag) + balanced_path(len(enc.conjuncts[tag]), pos)


def check_sat_cap(n: int, cap: int = SAT_CAP) -> None:
    """Refuse a satisfiability scan of n^n rows above the cap."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds sat cap {cap}")


def check_encode_cap(n: int) -> None:
    """Refuse to encode and print a graph above ENCODE_CAP."""
    if n > ENCODE_CAP:
        raise CapExceededError(f"n={n} exceeds encode cap {ENCODE_CAP}")


def _holds(prog: Program, seqs: np.ndarray) -> np.ndarray:
    """Truth of prog on each column of a step-major (n, rows) vertex block."""
    bits = np.empty((len(prog.var_slots), seqs.shape[1]), dtype=bool)
    for slot, name in enumerate(prog.var_slots):
        np.equal(seqs[name.step - 1], name.vertex, out=bits[slot])
    return unpack_rows(eval_words(prog, pack_columns(bits)), seqs.shape[1])


def _block_steps(n: int) -> int:
    """k, the number of low steps a block varies: largest with n^k <= _BLOCK, at most n."""
    k = 0
    while k < n and n ** (k + 1) <= _BLOCK:
        k += 1
    return k


def _low_columns(n: int, k: int) -> np.ndarray:
    """Packed columns of X_{n-k+j+1, v} over one block's n^k rows, row j*n + v - 1.

    A block's offset o spells steps n-k+1..n in base n, most significant
    first, so these columns are the same for every block and every graph.
    """
    low = np.empty((k * n, -(-(n**k) // 64)), dtype=np.uint64)
    for j in range(k):
        digit = np.repeat(np.arange(n), n ** (k - 1 - j))
        for v in range(n):
            # one column at a time: the bool rows of all k*n would take 64x the words
            low[j * n + v] = pack_columns(np.tile(digit == v, n**j)[None])[0]
    return low


def _prefix(n: int, k: int, block: int) -> list[int]:
    """Vertices of steps 1..n-k in every row of a block: the base-n digits
    of `block`, step 1 most significant."""
    lead = n - k
    return [block // n ** (lead - step) % n + 1 for step in range(1, lead + 1)]


def _block_columns(prog: Program, low: np.ndarray, n: int, k: int, block: int) -> np.ndarray:
    """prog's packed columns over rows block*n^k .. (block+1)*n^k - 1, given
    `low`, the `_low_columns(n, k)`.

    Steps 1..n-k do not change inside the block, so their columns are
    constant words: all ones up to the block's last row, or zeros.
    """
    rows = n**k
    ones = np.full(low.shape[1], np.uint64(0xFFFF_FFFF_FFFF_FFFF))
    if rows % 64:
        ones[-1] = np.uint64((1 << rows % 64) - 1)
    prefix = _prefix(n, k, block)
    cols = np.zeros((len(prog.var_slots), low.shape[1]), dtype=np.uint64)
    for slot, name in enumerate(prog.var_slots):
        if name.step > len(prefix):
            cols[slot] = low[(name.step - len(prefix) - 1) * n + name.vertex - 1]
        elif prefix[name.step - 1] == name.vertex:
            cols[slot] = ones
    return cols


def _block_rows(n: int, k: int, block: int, offsets: np.ndarray) -> np.ndarray:
    """Step-major (n, len(offsets)) uint8 vertex sequences of rows block*n^k + offsets."""
    seqs = np.empty((n, offsets.shape[0]), dtype=np.uint8)
    seqs[: n - k] = np.asarray(_prefix(n, k, block), dtype=np.uint8)[:, None]
    for step in range(n - k + 1, n + 1):
        seqs[step - 1] = offsets // n ** (n - step) % n + 1
    return seqs


def _compile_xvars(part: Formula) -> Program:
    prog = compile_program(part)
    for name in prog.var_slots:
        if not isinstance(name, XVar):
            raise AssertionError(f"unexpected variable in encoding: {name}")
    return prog


# n -> coverage's hits, stored by `_rows_of` once the scan is complete and
# kept for the life of the process
_rows: dict[int, np.ndarray] = {}


def _rows_of(n: int) -> np.ndarray:
    """The functional rows that satisfy coverage, which are the n! permutations,
    as one step-major (n, n!) uint8 array in base-n order; scanned on the
    first call for n.

    A permutation satisfies repeat_ban, step_occupied and step_unique too,
    so the encoding holds on a functional row exactly when coverage and
    edge_ban do. Each block's hits are decoded into vertex sequences and
    concatenated once the last block is done.
    """
    rows = _rows.get(n)
    if rows is not None:
        return rows
    prog = _compile_xvars(conjunction(coverage(n)))
    k = _block_steps(n)
    low = _low_columns(n, k)
    hits = []
    for block in range(n ** (n - k)):
        root = eval_words(prog, _block_columns(prog, low, n, k, block))
        hits.append(_block_rows(n, k, block, np.flatnonzero(unpack_rows(root, n**k))))
    rows = _rows[n] = np.concatenate(hits, axis=1)
    return rows


def satisfiable(g: Graph, cap: int = SAT_CAP) -> bool:
    """Brute-force satisfiability of the encoding of g.

    Only functional assignments (exactly one vertex per step) are scanned:
    step_occupied and step_unique force any satisfying assignment to be
    functional, so the restriction loses nothing. The formula is the
    conjunction of its present parts, so a row satisfies it exactly when it
    satisfies every part; on a functional row that is exactly when coverage
    and edge_ban hold, since every functional row that satisfies coverage
    is a permutation and satisfies repeat_ban, step_occupied and
    step_unique as well.

    Coverage depends on n alone, so its rows are the same for every graph
    of that n: the first graph of each n scans for them (`_rows_of`) and
    they are kept for the life of the process. The n^n rows are scanned
    once, in base-n order, in blocks of n^k consecutive rows (k set by
    `_BLOCK`). Inside a block steps 1..n-k are fixed, so their columns are
    constant words; the columns of the low k steps are the same for every
    block and are packed once per scan. Coverage is evaluated on each block
    64 rows per word. A scan cut short keeps nothing.

    This call builds only g's edge_ban part, compiles it without keeping
    it, and evaluates it over the kept rows. With no missing edge there is
    no edge_ban, and any kept row is a witness.
    """
    check_sat_cap(g.n, cap)
    rows = _rows_of(g.n)
    part = conjunction(list(edge_bans(g).values()))
    if part is None:
        return bool(rows.shape[1])
    return bool(_holds(_compile_xvars(part), rows).any())
