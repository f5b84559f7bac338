"""Word-parallel truth-evaluation kernel.

`compile_program` compiles a formula, in the postorder `subformulas`
yields, into flat arrays (kind, arg0, arg1) plus a variable-slot table,
and keeps nothing. `eval_words` evaluates it bit-sliced: each variable's
column over a batch of assignments is packed 64 assignments per uint64
word (`pack_columns`), so every node of the program is one word-wise
operation (falsum is 0, AND is ``&``, OR is ``|``, implication is
``~x | y``) that decides 64 rows, in one pass over the nodes;
`unpack_rows` reads the root's words back as bool rows. Every evaluation
goes through these three. The kernel is differentially tested against the
scalar evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import AND, BOT, OR, VAR, Formula, VarName, subformulas


@dataclass(frozen=True)
class Program:
    """Flattened formula: postorder node arrays, root last.

    ``kinds[i]`` is the formula kind; for VAR nodes ``arg0`` is a slot into
    ``var_slots``, otherwise ``arg0``/``arg1`` index earlier nodes.
    """

    kinds: np.ndarray
    arg0: np.ndarray
    arg1: np.ndarray
    var_slots: tuple[VarName, ...]

    @property
    def node_count(self) -> int:
        return int(self.kinds.shape[0])


def compile_program(f: Formula) -> Program:
    """Compile a formula into flat evaluation arrays; nothing is kept."""
    index: dict[Formula, int] = {}
    kinds: list[int] = []
    arg0: list[int] = []
    arg1: list[int] = []
    slots: dict[VarName, int] = {}
    for node in subformulas(f, index):
        k = node.kind
        if k == VAR:
            a, b = slots.setdefault(node.var, len(slots)), -1
        elif k == BOT:
            a, b = -1, -1
        else:
            a, b = index[node.left], index[node.right]
        index[node] = len(kinds)
        kinds.append(k)
        arg0.append(a)
        arg1.append(b)
    return Program(
        kinds=np.asarray(kinds, dtype=np.uint8),
        arg0=np.asarray(arg0, dtype=np.int32),
        arg1=np.asarray(arg1, dtype=np.int32),
        var_slots=tuple(sorted(slots, key=slots.get)),
    )


def pack_columns(bits: np.ndarray) -> np.ndarray:
    """Pack a (columns, rows) bool matrix into (columns, ceil(rows / 64)) words.

    Row r is bit r % 64 of word r // 64; bits past the last row are zero.
    """
    b = np.asarray(bits, dtype=bool)
    words = -(-b.shape[1] // 64)
    out = np.zeros((b.shape[0], 8 * words), dtype=np.uint8)
    out[:, : -(-b.shape[1] // 8)] = np.packbits(b, axis=1, bitorder="little")
    return out.view("<u8")


def unpack_rows(words: np.ndarray, rows: int) -> np.ndarray:
    """The first `rows` bits of a word vector as a bool vector; later bits are ignored."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, count=rows, bitorder="little").view(bool)


def eval_words(prog: Program, cols: np.ndarray) -> np.ndarray:
    """Evaluate over (nvars, words) packed columns; returns the root's (words,) vector.

    Bits past the caller's row count come out as the program's value on
    whatever those bits hold, so read the result with `unpack_rows`.
    """
    c = np.asarray(cols, dtype=np.uint64)
    if c.ndim != 2 or c.shape[0] != len(prog.var_slots):
        raise ValueError(f"word columns must be ({len(prog.var_slots)}, words)")
    zero = np.zeros(c.shape[1], dtype=np.uint64)
    vals: list[np.ndarray] = []
    for k, x, y in zip(prog.kinds.tolist(), prog.arg0.tolist(), prog.arg1.tolist()):
        if k == VAR:
            vals.append(c[x])
        elif k == AND:
            vals.append(vals[x] & vals[y])
        elif k == OR:
            vals.append(vals[x] | vals[y])
        elif k == BOT:
            vals.append(zero)
        else:
            # implication: left -> right  ==  ~left | right
            vals.append(~vals[x] | vals[y])
    return np.array(vals[-1])

