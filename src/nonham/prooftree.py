"""Tree-shaped natural deduction proofs and their checking kernel.

A proof node stores its conclusion, a rule tag, premise subproofs, and the
formulas discharged at this node. Assumption bookkeeping is set-based: an
open assumption is a formula, and discharging removes every open occurrence
of that formula below the discharging node. Discharge may be vacuous.

Rules (premise order is fixed and checked):

* Hyp                      - leaf; the conclusion is an open assumption
* ImpIntro(p; [a])         - concludes a -> c from p : c, discharging a
* ImpElim(maj, min)        - maj : a -> c, min : a, concludes c
* AndElimL / AndElimR(p)   - p : a & b, concludes a / b
* OrElimN(maj, c1..ck; [d1..dk]) - maj proves the right-nested chain
  d1 | (d2 | ... | dk), each case ci proves the common conclusion under di

`check_tree` is the kernel: it revalidates every node locally and returns
size metrics plus the open assumption set. Builders construct proofs
through the helper constructors below, which enforce the same shapes at
construction time; the kernel never trusts them.

Proofs share subtrees freely (the builders memoize aggressively), so every
walk here goes through `iter_nodes`, which visits each node object once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .artifact import dumps_document, formula_at, loads_document, open_document
from .errors import IllFormedProofError, ProofFormatError
from .formulas import (
    AND,
    IMP,
    Formula,
    chain_disj,
    formulas_to_table,
    subformulas,
    to_text,
)

HYP = "Hyp"
IMP_INTRO = "ImpIntro"
IMP_ELIM = "ImpElim"
AND_ELIM_L = "AndElimL"
AND_ELIM_R = "AndElimR"
OR_ELIM = "OrElimN"

RULES = (HYP, IMP_INTRO, IMP_ELIM, AND_ELIM_L, AND_ELIM_R, OR_ELIM)

_ELIM_RULES = frozenset({IMP_ELIM, AND_ELIM_L, AND_ELIM_R, OR_ELIM})

IMPLICATIONAL_RULES = frozenset({HYP, IMP_INTRO, IMP_ELIM})


class ProofTree:
    __slots__ = ("conclusion", "rule", "premises", "discharge")

    def __init__(self, conclusion: Formula, rule: str,
                 premises: tuple["ProofTree", ...] = (),
                 discharge: tuple[Formula, ...] = ()):
        self.conclusion = conclusion
        self.rule = rule
        self.premises = tuple(premises)
        self.discharge = tuple(discharge)

    def __repr__(self) -> str:
        return f"<{self.rule} : {to_text(self.conclusion, limit=60)}>"


def hyp(f: Formula) -> ProofTree:
    return ProofTree(f, HYP)


def imp_intro(premise: ProofTree, antecedent: Formula) -> ProofTree:
    from .formulas import imp

    return ProofTree(imp(antecedent, premise.conclusion), IMP_INTRO,
                     (premise,), (antecedent,))


def imp_elim(major: ProofTree, minor: ProofTree) -> ProofTree:
    mc = major.conclusion
    if mc.kind != IMP or mc.left is not minor.conclusion:
        raise IllFormedProofError((), "major premise does not apply to minor premise")
    return ProofTree(mc.right, IMP_ELIM, (major, minor))


def and_elim_l(premise: ProofTree) -> ProofTree:
    pc = premise.conclusion
    if pc.kind != AND:
        raise IllFormedProofError((), "premise of AndElimL is not a conjunction")
    return ProofTree(pc.left, AND_ELIM_L, (premise,))


def and_elim_r(premise: ProofTree) -> ProofTree:
    pc = premise.conclusion
    if pc.kind != AND:
        raise IllFormedProofError((), "premise of AndElimR is not a conjunction")
    return ProofTree(pc.right, AND_ELIM_R, (premise,))


def or_elim(major: ProofTree, cases: list[ProofTree],
            disjuncts: tuple[Formula, ...]) -> ProofTree:
    if len(cases) < 2 or len(cases) != len(disjuncts):
        raise IllFormedProofError((), "case count must be >= 2 and match disjuncts")
    if major.conclusion is not chain_disj(list(disjuncts)):
        raise IllFormedProofError((), "major premise is not the disjunction chain")
    concl = cases[0].conclusion
    for c in cases[1:]:
        if c.conclusion is not concl:
            raise IllFormedProofError((), "cases disagree on the conclusion")
    return ProofTree(concl, OR_ELIM, (major, *cases), tuple(disjuncts))


@dataclass(frozen=True)
class Metrics:
    """Sizes of a checked proof.

    `weight` sums formula weights over node *occurrences* (tree semantics:
    shared subproof objects count once per occurrence); `height` is the node
    count of the longest root-to-leaf branch; `distinct_formula_weight` sums
    weights over the distinct formulas labeling nodes.
    """

    height: int
    weight: int
    distinct_formula_weight: int
    open_assumptions: frozenset[Formula]


def _local_fault(node: ProofTree) -> str | None:
    """Why the node does not follow its rule, or None when it does."""
    r = node.rule
    prem = node.premises
    dis = node.discharge
    c = node.conclusion

    if r == HYP:
        if prem or dis:
            return "hypothesis must have no premises and no discharge"
    elif r == IMP_INTRO:
        if len(prem) != 1 or len(dis) != 1:
            return "ImpIntro needs one premise and one discharged formula"
        if c.kind != IMP or c.left is not dis[0] or c.right is not prem[0].conclusion:
            return "ImpIntro conclusion must be discharge -> premise"
    elif r == IMP_ELIM:
        if len(prem) != 2 or dis:
            return "ImpElim needs two premises and no discharge"
        mc = prem[0].conclusion
        if mc.kind != IMP or mc.left is not prem[1].conclusion or mc.right is not c:
            return "ImpElim premises do not fit the conclusion"
    elif r == AND_ELIM_L:
        if len(prem) != 1 or dis:
            return "AndElimL needs one premise and no discharge"
        pc = prem[0].conclusion
        if pc.kind != AND or pc.left is not c:
            return "AndElimL premise is not a conjunction with this left part"
    elif r == AND_ELIM_R:
        if len(prem) != 1 or dis:
            return "AndElimR needs one premise and no discharge"
        pc = prem[0].conclusion
        if pc.kind != AND or pc.right is not c:
            return "AndElimR premise is not a conjunction with this right part"
    elif r == OR_ELIM:
        k = len(prem) - 1
        if k < 2:
            return "OrElimN needs a major premise and at least two cases"
        if len(dis) != k:
            return "OrElimN discharge list must match the case count"
        if prem[0].conclusion is not chain_disj(list(dis)):
            return "OrElimN major premise is not the discharge chain"
        for case in prem[1:]:
            if case.conclusion is not c:
                return "OrElimN case conclusion differs from the node conclusion"
    else:
        return f"unknown rule {r!r}"
    return None


def _path_to(p: ProofTree, target: ProofTree) -> tuple[int, ...]:
    """Premise-index path from the root to `target`, by one breadth-first
    search over distinct nodes (a search over occurrences is exponential
    on shared proofs)."""
    parent: dict[int, tuple[ProofTree, int] | None] = {id(p): None}
    queue = deque([p])
    while queue:
        node = queue.popleft()
        if node is target:
            break
        for idx, ch in enumerate(node.premises):
            if isinstance(ch, ProofTree) and id(ch) not in parent:
                parent[id(ch)] = (node, idx)
                queue.append(ch)
    path: list[int] = []
    link = parent[id(target)]
    while link is not None:
        node, idx = link
        path.append(idx)
        link = parent[id(node)]
    return tuple(reversed(path))


def iter_nodes(p: ProofTree) -> Iterator[ProofTree]:
    """Distinct nodes, premises before conclusions (postorder).

    The package's one postorder walk. A premise that is not a proof object
    raises IllFormedProofError before anything above it is yielded.
    """
    seen: set[int] = set()
    stack: list[tuple[ProofTree, bool]] = [(p, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            yield node
            continue
        if not isinstance(node, ProofTree):
            raise IllFormedProofError((), f"premise is not a proof object: {node!r}")
        stack.append((node, True))
        for ch in reversed(node.premises):
            if id(ch) not in seen:
                stack.append((ch, False))


class HypothesisBits:
    """Open assumption sets as int bitmasks: each distinct hypothesis
    formula gets one bit when first seen. Checkers walk premises first, so
    a discharged formula without a bit has no open occurrence below (the
    discharge is vacuous)."""

    def __init__(self):
        self._bits: dict[Formula, int] = {}
        self._formulas: list[Formula] = []

    def bit(self, f: Formula) -> int:
        if f not in self._bits:
            self._bits[f] = 1 << len(self._formulas)
            self._formulas.append(f)
        return self._bits[f]

    def drop(self, mask: int, f: Formula) -> int:
        return mask & ~self._bits.get(f, 0)

    def formulas(self, mask: int) -> frozenset[Formula]:
        return frozenset(f for i, f in enumerate(self._formulas) if mask >> i & 1)


def check_tree(p: ProofTree) -> Metrics:
    """Revalidate every node and compute sizes. The one checker of record."""
    hyps = HypothesisBits()
    # per distinct node: (open mask, height, occurrence weight)
    info: dict[int, tuple[int, int, int]] = {}
    formulas_seen: set[Formula] = set()

    for node in iter_nodes(p):
        fault = _local_fault(node)
        if fault is not None:
            raise IllFormedProofError(_path_to(p, node), fault)
        f = node.conclusion
        formulas_seen.add(f)
        r = node.rule
        if r == HYP:
            info[id(node)] = (hyps.bit(f), 1, f.weight)
            continue
        subs = [info[id(q)] for q in node.premises]
        if r == IMP_INTRO:
            mask = hyps.drop(subs[0][0], node.discharge[0])
        elif r == OR_ELIM:
            mask = subs[0][0]
            for (case, _, _), d in zip(subs[1:], node.discharge):
                mask |= hyps.drop(case, d)
        else:
            mask = 0
            for m, _, _ in subs:
                mask |= m
        info[id(node)] = (mask, 1 + max(h for _, h, _ in subs),
                          f.weight + sum(w for _, _, w in subs))

    mask, height, weight = info[id(p)]
    return Metrics(
        height=height,
        weight=weight,
        distinct_formula_weight=sum(f.weight for f in formulas_seen),
        open_assumptions=hyps.formulas(mask),
    )


def is_normal(p: ProofTree) -> bool:
    """No elimination's major premise is an introduction (no detours)."""
    for node in iter_nodes(p):
        if node.rule in _ELIM_RULES and node.premises[0].rule == IMP_INTRO:
            return False
    return True


def subformula_ok(p: ProofTree, open_assumptions: frozenset[Formula] | None = None) -> bool:
    """Every node formula is a subformula of the conclusion, an open
    assumption, or a discharged assumption."""
    if open_assumptions is None:
        open_assumptions = check_tree(p).open_assumptions
    roots: set[Formula] = {p.conclusion}
    roots |= open_assumptions
    node_formulas: list[Formula] = []
    for node in iter_nodes(p):
        node_formulas.append(node.conclusion)
        roots.update(node.discharge)
    allowed: set[Formula] = set()
    for r in roots:
        allowed.update(subformulas(r, allowed))
    return all(f in allowed for f in node_formulas)


_TREE_FIELDS = frozenset({"id", "rule", "formula", "premises", "discharge"})


def proof_to_json(p: ProofTree) -> dict:
    """Tree document: the formula table, then the node array in dependency
    order; node ids are positions, the root is last, and `formula` and
    `discharge` hold table ids."""
    order = list(iter_nodes(p))
    table, fid = formulas_to_table(
        f for node in order for f in (node.conclusion, *node.discharge)
    )
    ids = {id(node): pos for pos, node in enumerate(order)}
    nodes = [
        {
            "id": pos,
            "rule": node.rule,
            "formula": fid[node.conclusion],
            "premises": [ids[id(q)] for q in node.premises],
            "discharge": [fid[d] for d in node.discharge],
        }
        for pos, node in enumerate(order)
    ]
    return {"kind": "tree", "formulas": table, "nodes": nodes}


def proof_from_json(data) -> ProofTree:
    """Rebuild a proof from a tree document; shared premises stay shared.

    Schema errors raise ProofFormatError. The result is *not* checked;
    run `check_tree` on it.
    """
    table, records = open_document(data, "tree", _TREE_FIELDS)
    built: list[ProofTree] = []
    for pos, rec in enumerate(records):
        rule = rec["rule"]
        if rule not in RULES:
            raise ProofFormatError(f"node {pos}: unknown rule {rule!r:.40}")
        prem_ids = rec["premises"]
        if not isinstance(prem_ids, list) or not all(
            type(i) is int and 0 <= i < pos for i in prem_ids
        ):
            raise ProofFormatError(f"node {pos}: premises must reference earlier ids")
        dis = rec["discharge"]
        if not isinstance(dis, list):
            raise ProofFormatError(f"node {pos}: discharge must be a list of formula ids")
        built.append(ProofTree(
            formula_at(table, rec["formula"], pos),
            rule,
            tuple(built[i] for i in prem_ids),
            tuple(formula_at(table, d, pos) for d in dis),
        ))
    return built[-1]


def dumps_proof(p: ProofTree) -> str:
    """Canonical JSON text of the tree document."""
    return dumps_document(proof_to_json(p))


def loads_proof(text: str) -> ProofTree:
    return proof_from_json(loads_document(text))
