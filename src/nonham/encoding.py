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

`satisfiable` decides the encoding by brute force through the word kernel.
Only the functional rows (one vertex per step) need a look, and on those
the encoding holds exactly when coverage and edge_ban do; coverage holds
on a functional row exactly when it is a permutation. Every graph on n
vertices picks its edge_ban clauses from the n(n-1)^2 of the empty graph.
So the first call for an n evaluates every possible clause over the n!
permutations in one program and keeps each clause's column; a graph then
ANDs its own clauses' columns and builds no formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter

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
from .kernels import Program, compile_program, eval_words

PART_TAGS = ("coverage", "repeat_ban", "step_occupied", "step_unique", "edge_ban")

SAT_CAP = 7
# `nonham encode` refuses larger graphs: the encoding has about n^3
# conjuncts, and encoding and printing an empty n=27 graph (2 MB of text)
# takes about a second on a 2-core Xeon VM
ENCODE_CAP = 27


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
    """Refuse a satisfiability check, over n! rows, above the cap."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds sat cap {cap}")


def check_encode_cap(n: int) -> None:
    """Refuse to encode and print a graph above ENCODE_CAP."""
    if n > ENCODE_CAP:
        raise CapExceededError(f"n={n} exceeds encode cap {ENCODE_CAP}")


def _column(seq: bytes, vertex: int) -> int:
    """The int whose bit r is set exactly when seq[r] is `vertex`."""
    return int(seq.translate(b"0" * vertex + b"1" + b"0" * (255 - vertex))[::-1], 2)


def _compile_xvars(*parts: Formula) -> Program:
    prog = compile_program(*parts)
    for name in prog.var_slots:
        if not isinstance(name, XVar):
            raise AssertionError(f"unexpected variable in encoding: {name}")
    return prog


def _rows_of(n: int) -> tuple[bytes, ...]:
    """The functional rows that satisfy coverage, which are the n!
    permutations, in base-n order and step-major: item i-1 holds each row's
    vertex at step i. Lexicographic order of the permutations is base-n
    order of their rows."""
    return tuple(bytes(map(itemgetter(i), permutations(range(1, n + 1)))) for i in range(n))


# n -> (full, columns): one bit per row `_rows_of(n)` keeps, and edge_ban
# clause (v, w, i)'s column over them by key; kept for the life of the process
_clauses: dict[int, tuple[int, dict[tuple[int, int, int], int]]] = {}


def _clauses_of(n: int) -> tuple[int, dict[tuple[int, int, int], int]]:
    """The `_clauses` entry for n, made on the first call for n: edge_ban's
    clauses on the empty graph compiled as one program and evaluated once
    over the rows `_rows_of(n)` keeps."""
    cached = _clauses.get(n)
    if cached is None:
        rows = _rows_of(n)
        bans = edge_bans(Graph(n, frozenset()))
        prog = _compile_xvars(*bans.values())
        count = len(rows[0])
        cols = [_column(rows[name.step - 1], name.vertex) for name in prog.var_slots]
        cached = (1 << count) - 1, dict(zip(bans, eval_words(prog, cols, count)))
        _clauses[n] = cached
    return cached


def satisfiable(g: Graph, cap: int = SAT_CAP) -> bool:
    """Brute-force satisfiability of the encoding of g.

    Only functional assignments (exactly one vertex per step) are checked:
    step_occupied and step_unique force any satisfying assignment to be
    functional, so the restriction loses nothing. The formula is the
    conjunction of its present parts; on a functional row that holds
    exactly when coverage and edge_ban do, since every functional row that
    satisfies coverage is a permutation and satisfies repeat_ban,
    step_occupied and step_unique as well.

    The first graph of each n pays for the clause columns over the
    permutations (`_clauses_of`); a clause pass cut short keeps nothing,
    and the next call starts it again. This call ANDs the kept columns of
    g's clauses, those of its missing pairs at every step. With no missing
    edge there is no edge_ban, and any kept row is a witness.
    """
    check_sat_cap(g.n, cap)
    holds, columns = _clauses_of(g.n)
    for v, w in g.missing_pairs():
        for i in range(1, g.n):
            holds &= columns[(v, w, i)]
    return bool(holds)
