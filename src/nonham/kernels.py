"""Word-parallel truth-evaluation kernel.

`compile_program` flattens formulas, in the postorder `subformulas`
yields, into node tuples (kind, arg0, arg1), a variable-slot table and the
roots' positions, and keeps nothing. `eval_words` evaluates the program
bit-sliced, after Biham's DES in software (FSE 1997): a column is one
Python int whose bit r is row r, so each node is one integer operation over
all rows (falsum 0, AND ``&``, OR ``|``, implication ``(x ^ full) | y``,
`full` being the rows' bits). Every evaluation takes this path; it is
differentially tested against the scalar evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import AND, BOT, OR, VAR, Formula, VarName, subformulas


@dataclass(frozen=True)
class Program:
    """Flattened formulas: postorder node tuples, each root after its parts.

    ``kinds[i]`` is the formula kind; for VAR nodes ``arg0`` is a slot into
    ``var_slots``, otherwise ``arg0``/``arg1`` index earlier nodes.
    ``roots`` holds the node index of each compiled formula, in call order.
    """

    kinds: tuple[int, ...]
    arg0: tuple[int, ...]
    arg1: tuple[int, ...]
    var_slots: tuple[VarName, ...]
    roots: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.kinds)


def compile_program(*roots: Formula) -> Program:
    """Compile formulas into one flat program; a subformula they share is one
    node. Nothing is kept."""
    index: dict[Formula, int] = {}
    kinds: list[int] = []
    arg0: list[int] = []
    arg1: list[int] = []
    slots: dict[VarName, int] = {}
    for root in roots:
        for node in subformulas(root, index):
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
        kinds=tuple(kinds),
        arg0=tuple(arg0),
        arg1=tuple(arg1),
        var_slots=tuple(sorted(slots, key=slots.get)),
        roots=tuple(index[root] for root in roots),
    )


def eval_words(prog: Program, cols, rows: int) -> list[int]:
    """Each root's column over `rows` rows, in `prog.roots` order.

    `cols` holds one int per variable slot, bit r holding the variable's
    value in row r; a column with a bit at or past `rows` is refused.
    """
    if len(cols) != len(prog.var_slots):
        raise ValueError(f"expected {len(prog.var_slots)} word columns, got {len(cols)}")
    full = (1 << rows) - 1
    if cols and (min(cols) < 0 or max(cols) > full):
        raise ValueError(f"word columns must hold only bits 0..{rows - 1}")
    vals: list[int] = []
    for k, x, y in zip(prog.kinds, prog.arg0, prog.arg1):
        if k == VAR:
            vals.append(cols[x])
        elif k == AND:
            vals.append(vals[x] & vals[y])
        elif k == OR:
            vals.append(vals[x] | vals[y])
        elif k == BOT:
            vals.append(0)
        else:
            # implication: left -> right  ==  not left | right, within the rows
            vals.append((vals[x] ^ full) | vals[y])
    return [vals[r] for r in prog.roots]
