"""Propositional formulas with hash-consing.

Formulas over falsum, variables, conjunction, disjunction and implication.
Construction goes through the module factories (`bot`, `var`, `conj`,
`disj`, `imp`), which intern every formula in a process-global table:
structurally equal formulas are always the *same object*, so equality and
hashing are identity operations and never walk the term. The table grows
monotonically for the lifetime of the process, which keeps `id()`-based
keys stable. Construction is not thread-safe; build formulas on one thread,
read them from anywhere.

Proof objects downstream get large (antecedent chains nest thousands deep),
so no walk here recurses. `subformulas` is the package's one walk over a
formula: it visits each distinct subformula once, children first, and table
conversion, evaluation, kernel compilation and the implicational translation
all run on it. `to_text` is a different walk: it visits every occurrence,
not every distinct formula, and stops at its limit.

Artifacts store formulas as a table (`formulas_to_table`,
`formulas_from_table`) that keeps the in-memory sharing: one entry per
distinct formula, children before parents, each entry naming its children
by table index. Text (`to_text`) is only written, for reports and
messages; nothing parses it back. The sharing follows Filliâtre &
Conchon, "Type-safe modular hash-consing" (2006).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, Union

from .errors import ProofFormatError, UnboundVariableError

BOT, VAR, AND, OR, IMP = range(5)

_OP_TEXT = {AND: " & ", OR: " | ", IMP: " -> "}


@dataclass(frozen=True)
class XVar:
    """Position variable: the path visits `vertex` at step `step` (both 1-based)."""

    step: int
    vertex: int

    def __post_init__(self):
        if self.step < 1 or self.vertex < 1:
            raise ValueError(f"variable indices must be positive: {self}")

    @property
    def name(self) -> str:
        return f"X_{self.step}_{self.vertex}"


@dataclass(frozen=True)
class QVar:
    """Fresh marker variable introduced by the implicational translation."""

    key: str

    def __post_init__(self):
        if not re.fullmatch(r"[A-Za-z0-9]+", self.key):
            raise ValueError(f"bad marker key: {self.key!r}")

    @property
    def name(self) -> str:
        return f"Q_{self.key}"


VarName = Union[XVar, QVar]


class Formula:
    """Interned formula node. Do not instantiate directly; use the factories."""

    __slots__ = ("kind", "var", "left", "right", "weight")

    kind: int
    var: VarName | None
    left: "Formula | None"
    right: "Formula | None"
    weight: int

    def __repr__(self) -> str:
        return f"<{to_text(self, limit=72)}>"


_interned: dict = {}


def _mk(kind: int, var, left, right) -> Formula:
    if kind == VAR:
        key = (VAR, var)
    elif kind == BOT:
        key = (BOT,)
    else:
        key = (kind, id(left), id(right))
    f = _interned.get(key)
    if f is None:
        f = Formula.__new__(Formula)
        f.kind = kind
        f.var = var
        f.left = left
        f.right = right
        f.weight = 1 if kind in (BOT, VAR) else left.weight + right.weight + 1
        _interned[key] = f
    return f


def bot() -> Formula:
    return _mk(BOT, None, None, None)


def var(name: VarName) -> Formula:
    if not isinstance(name, (XVar, QVar)):
        raise TypeError(f"not a variable name: {name!r}")
    return _mk(VAR, name, None, None)


def x_var(step: int, vertex: int) -> Formula:
    return var(XVar(step, vertex))


def q_var(key) -> Formula:
    return var(QVar(str(key)))


def conj(left: Formula, right: Formula) -> Formula:
    return _mk(AND, None, left, right)


def disj(left: Formula, right: Formula) -> Formula:
    return _mk(OR, None, left, right)


def imp(left: Formula, right: Formula) -> Formula:
    return _mk(IMP, None, left, right)


def weight(f: Formula) -> int:
    """Total symbol count: one per variable or falsum occurrence, one per connective."""
    return f.weight


def is_implicational(f: Formula) -> bool:
    """True when the formula uses only variables and implication."""
    return all(g.kind in (VAR, IMP) for g in subformulas(f))


def subformulas(f: Formula, done: Container[Formula] | None = None) -> Iterator[Formula]:
    """Distinct subformulas of `f` in left-to-right postorder: each part
    before its parent, the left part before the right one.

    Nothing in `done` is yielded or descended into. With `done=None` the
    walk keeps its own visited set. A memoizing caller passes its memo (any
    container of formulas) as `done` instead, and must record each yielded
    formula in it before asking for the next one, or the walk never ends; it
    then keeps no set of its own and makes about one membership test per
    edge. The stack is explicit, so chains of any depth walk without
    recursion.
    """
    own = done is None
    if own:
        done = set()
    if f in done:
        return
    stack = [f]
    while stack:
        g = stack[-1]
        if g.left is not None:
            if g.left not in done:
                stack.append(g.left)
                continue
            if g.right not in done:
                stack.append(g.right)
                continue
        stack.pop()
        if own:
            done.add(g)
        yield g


def to_text(f: Formula, limit: int | None = None) -> str:
    """Render in the exchange syntax: `&`, `|`, `->`, `false`, full parens.

    With a `limit`, text longer than `limit` characters comes back as its
    first `limit` characters plus "...", and the walk stops there. Shared
    subformulas are written out at every occurrence, so the full text can be
    exponentially longer than the formula's table; reports and messages
    about formulas read from a file pass a limit.
    """
    out: list[str] = []
    size = 0
    stack: list = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            piece = item
        elif item.kind == BOT:
            piece = "false"
        elif item.kind == VAR:
            piece = item.var.name
        else:
            piece = "("
            stack.append(")")
            stack.append(item.right)
            stack.append(_OP_TEXT[item.kind])
            stack.append(item.left)
        out.append(piece)
        size += len(piece)
        if limit is not None and size > limit:
            return "".join(out)[:limit] + "..."
    return "".join(out)


_X_NAME = re.compile(r"X_(\d+)_(\d+)")


def parse_var_name(text: str) -> VarName:
    """The variable a table entry names; ValueError when the name is bad."""
    m = _X_NAME.fullmatch(text)
    if m:
        return XVar(int(m.group(1)), int(m.group(2)))
    if text.startswith("Q_"):
        return QVar(text[2:])
    raise ValueError(f"bad variable name: {text!r}")


# Largest weight a table entry may have. A table shares subformulas, so a few
# entries can name a formula of exponential weight; refusing weights past
# 2**40 (a terabyte written out, far beyond any proof this package builds)
# keeps every weight a small integer.
MAX_TABLE_WEIGHT = 2**40

_TABLE_TAG = {AND: "&", OR: "|", IMP: "->"}
_TAG_KIND = {tag: kind for kind, tag in _TABLE_TAG.items()}


def formulas_to_table(roots: Iterable[Formula]) -> tuple[list[list], dict[Formula, int]]:
    """Table entries for every distinct subformula of the roots, plus each
    formula's index in the table.

    Entries come in first-use order of a left-to-right postorder walk over
    the roots in turn, so children always precede parents: `["false"]`,
    `["var", name]`, or `[op, i, j]` with `op` one of `->`, `&`, `|` and
    `i`, `j` the indices of the left and right parts.
    """
    index: dict[Formula, int] = {}
    entries: list[list] = []
    for root in roots:
        for f in subformulas(root, index):
            k = f.kind
            if k == BOT:
                entry = ["false"]
            elif k == VAR:
                entry = ["var", f.var.name]
            else:
                entry = [_TABLE_TAG[k], index[f.left], index[f.right]]
            index[f] = len(entries)
            entries.append(entry)
    return entries, index


def formulas_from_table(entries) -> list[Formula]:
    """Intern every entry of a formula table once; the inverse of
    `formulas_to_table`. Each entry may only refer to earlier entries, and
    none may weigh more than MAX_TABLE_WEIGHT.

    Any malformed table raises ProofFormatError.
    """
    if not isinstance(entries, list):
        raise ProofFormatError("formula table must be a list")
    out: list[Formula] = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or not entry or type(entry[0]) is not str:
            raise ProofFormatError(f"formula {pos}: entry must be a list starting with a tag")
        tag, size = entry[0], len(entry)
        if tag == "false" and size == 1:
            out.append(bot())
        elif tag == "var" and size == 2 and type(entry[1]) is str:
            try:
                name = parse_var_name(entry[1])
            except ValueError as exc:
                raise ProofFormatError(f"formula {pos}: {exc}") from None
            out.append(_mk(VAR, name, None, None))
        elif tag in _TAG_KIND and size == 3:
            i, j = entry[1], entry[2]
            if not (type(i) is int and type(j) is int and 0 <= i < pos and 0 <= j < pos):
                raise ProofFormatError(f"formula {pos}: parts must be ids of earlier entries")
            left, right = out[i], out[j]
            if left.weight + right.weight + 1 > MAX_TABLE_WEIGHT:
                raise ProofFormatError(f"formula {pos}: weight exceeds {MAX_TABLE_WEIGHT}")
            out.append(_mk(_TAG_KIND[tag], None, left, right))
        else:
            raise ProofFormatError(f"formula {pos}: malformed {tag[:20]!r} entry")
    return out


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


def chain_disj(items: list[Formula]) -> Formula:
    """Right-nested disjunction chain a1 | (a2 | (... | ak))."""
    if not items:
        raise ValueError("empty disjunction")
    out = items[-1]
    for g in reversed(items[:-1]):
        out = disj(g, out)
    return out


def balanced_conj(items: list[Formula]) -> Formula:
    """Balanced conjunction tree; elimination paths to any conjunct are O(log k)."""
    if not items:
        raise ValueError("empty conjunction")

    def build(lo: int, hi: int) -> Formula:
        if hi - lo == 1:
            return items[lo]
        mid = (lo + hi + 1) // 2
        return conj(build(lo, mid), build(mid, hi))

    # recursion depth is log2(len), safe for any realistic size
    return build(0, len(items))


def balanced_path(count: int, index: int) -> list[str]:
    """L/R descent from the root of `balanced_conj` to conjunct `index`."""
    if not 0 <= index < count:
        raise ValueError(f"index {index} out of range for {count} conjuncts")
    path: list[str] = []
    lo, hi = 0, count
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        if index < mid:
            path.append("L")
            hi = mid
        else:
            path.append("R")
            lo = mid
    return path
