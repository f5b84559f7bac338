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

_CHUNK = 1 << 14
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

    for v in verts:
        c = chain_disj([x_var(i, v) for i in steps])
        conjuncts["coverage"].append(c)

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


# n -> its scan's chunks, stored by `_chunks_of` once the scan is complete
# and kept for the life of the process
_chunks: dict[int, list[np.ndarray]] = {}


def _chunks_of(n: int) -> list[np.ndarray]:
    """The functional rows that satisfy every part depending on n alone, as
    step-major (n, rows) uint8 vertex sequences in base-n order, split into
    nonempty chunks; scanned on the first call for n.

    The first part is evaluated on each block and its hits are buffered;
    the buffer is narrowed through the other parts when it holds `_CHUNK`
    rows or the scan ends, and what survives is a chunk.
    """
    chunks = _chunks.get(n)
    if chunks is not None:
        return chunks
    # the complete digraph's encoding is exactly the parts that depend on n alone
    parts = encode_graph(Graph(n, frozenset(ordered_pairs(n)))).parts
    first, *rest = [_compile_xvars(parts[tag]) for tag in PART_TAGS if parts[tag] is not None]
    k = _block_steps(n)
    low = _low_columns(n, k)
    blocks = n ** (n - k)
    chunks, held, count = [], [], 0
    for block in range(blocks):
        root = eval_words(first, _block_columns(first, low, n, k, block))
        offsets = np.flatnonzero(unpack_rows(root, n**k))
        if offsets.shape[0]:
            held.append(_block_rows(n, k, block, offsets))
            count += offsets.shape[0]
        if count and (count >= _CHUNK or block == blocks - 1):
            rows = np.concatenate(held, axis=1)
            for prog in rest:
                rows = rows[:, _holds(prog, rows)]
            if rows.shape[1]:
                chunks.append(rows)
            held, count = [], 0
    _chunks[n] = chunks
    return chunks


def satisfiable(g: Graph, cap: int = SAT_CAP) -> bool:
    """Brute-force satisfiability of the encoding of g.

    Only functional assignments (exactly one vertex per step) are scanned:
    step_occupied and step_unique force any satisfying assignment to be
    functional, so the restriction loses nothing. The formula is the
    conjunction of its present parts, so a row satisfies it exactly when it
    satisfies every part.

    Four parts depend on n alone, so the rows that satisfy them are the
    same for every graph of that n: the first graph of each n scans for
    them (`_chunks_of`) and they are kept for the life of the process. The
    n^n rows are scanned once, in base-n order, in blocks of n^k
    consecutive rows (k set by `_BLOCK`). Inside a block steps 1..n-k are
    fixed, so their columns are constant words; the columns of the low k
    steps are the same for every block and are packed once per scan. The
    first part (coverage, true only on the n! permutations) is evaluated
    on each block 64 rows per word; its hits are decoded into vertex
    sequences, buffered, and narrowed through the other n-only parts
    whenever the buffer holds `_CHUNK` rows or the scan ends. A scan cut
    short keeps nothing.

    This call builds only g's edge_ban part, compiles it without keeping
    it, and evaluates it over the kept chunks. With no missing edge there
    is no edge_ban, and any kept row is a witness.
    """
    check_sat_cap(g.n, cap)
    chunks = _chunks_of(g.n)
    part = conjunction(list(edge_bans(g).values()))
    if part is None:
        return bool(chunks)
    prog = _compile_xvars(part)
    return any(_holds(prog, rows).any() for rows in chunks)
