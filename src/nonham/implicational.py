"""Translation into purely implicational minimal logic.

Every formula maps to an implicational one over the source's variables
plus fresh markers: variables map to themselves, falsum to the marker
Q_bot, implication maps structurally, and each conjunction or disjunction
subformula is replaced by a fresh marker variable whose meaning is pinned
by implicational axiom schemes:

* conjunction c = a & b, marker q:   q -> a*,  q -> b*,  a* -> (b* -> q)
* disjunction d = a | b, marker q:   a* -> q,  b* -> q, and per needed
  case target t the scheme (a* -> t) -> ((b* -> t) -> (q -> t))

The first two disjunction axioms are created eagerly with the marker; case
axioms only when a proof transformation needs that (disjunction, target)
pair. A proof in the {Hyp, ImpIntro, ImpElim, AndElimL/R, binary OrElimN}
fragment maps rule by rule to {Hyp, ImpIntro, ImpElim}: conjunction
eliminations become applications of projection axioms, binary case splits
become three ImpElims against a case axiom. The axioms used anywhere in
the result are finally discharged and folded in front of the conclusion,
ordered by first use in a preorder walk of the source proof, so the
translated proof is closed whenever the source is.

Size: the translated goal with its axiom antecedents stays within the cube
of the source weight; proof height grows by a constant factor plus one
antecedent fold per used axiom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnsupportedRuleError
from .formulas import (
    AND,
    BOT,
    IMP,
    OR,
    VAR,
    Formula,
    imp,
    q_var,
    subformulas,
    to_text,
    weight,
)
from .prooftree import (
    AND_ELIM_L,
    AND_ELIM_R,
    HYP,
    IMP_ELIM,
    IMP_INTRO,
    OR_ELIM,
    RULES,
    ProofTree,
    hyp,
    imp_elim,
    imp_intro,
    iter_nodes,
)


@dataclass
class Translation:
    """Translation state for one source formula (and proofs about it)."""

    source: Formula
    star_root: Formula | None = None
    axioms: list[Formula] = field(default_factory=list)
    # source and/or/bot subformula -> its marker variable, in creation order
    qmap: dict[Formula, Formula] = field(default_factory=dict)
    _star_memo: dict[Formula, Formula] = field(default_factory=dict)
    _case_axioms: dict[tuple[Formula, Formula], Formula] = field(default_factory=dict)
    _axiom_set: set[Formula] = field(default_factory=set)
    _next_key: int = 1

    def _add_axiom(self, ax: Formula):
        if ax not in self._axiom_set:
            self._axiom_set.add(ax)
            self.axioms.append(ax)

    def _fresh_marker(self, src: Formula) -> Formula:
        q = q_var(self._next_key)
        self._next_key += 1
        self.qmap[src] = q
        return q

    def star(self, f: Formula) -> Formula:
        """Implicational image of a formula; markers shared across calls and
        created in the order `subformulas` yields the formula's parts."""
        memo = self._star_memo
        for node in subformulas(f, memo):
            k = node.kind
            if k == VAR:
                memo[node] = node
                continue
            if k == BOT:
                q = q_var("bot")
                self.qmap.setdefault(node, q)
                memo[node] = q
                continue
            ls, rs = memo[node.left], memo[node.right]
            if k == IMP:
                memo[node] = imp(ls, rs)
            elif k == AND:
                q = self._fresh_marker(node)
                self._add_axiom(imp(q, ls))
                self._add_axiom(imp(q, rs))
                self._add_axiom(imp(ls, imp(rs, q)))
                memo[node] = q
            else:  # OR
                q = self._fresh_marker(node)
                self._add_axiom(imp(ls, q))
                self._add_axiom(imp(rs, q))
                memo[node] = q
        return memo[f]

    def case_axiom(self, disjunction: Formula, target_star: Formula) -> Formula:
        """Case-analysis axiom for eliminating `disjunction` toward a target."""
        if disjunction.kind != OR:
            raise ValueError("case axiom needs a disjunction")
        key = (disjunction, target_star)
        ax = self._case_axioms.get(key)
        if ax is None:
            a_s = self.star(disjunction.left)
            b_s = self.star(disjunction.right)
            q = self.star(disjunction)
            ax = imp(imp(a_s, target_star),
                     imp(imp(b_s, target_star), imp(q, target_star)))
            self._case_axioms[key] = ax
            self._add_axiom(ax)
        return ax

    def is_axiom(self, f: Formula) -> bool:
        return f in self._axiom_set

    def rho_star(self, axioms: list[Formula] | None = None) -> Formula:
        """The translated goal with axiom antecedents folded in front."""
        if self.star_root is None:
            raise ValueError("translation not initialized")
        out = self.star_root
        for ax in reversed(self.axioms if axioms is None else list(axioms)):
            out = imp(ax, out)
        return out


def translate_formula(gamma: Formula) -> Translation:
    """Translate a formula; markers and eager axioms are assigned in the
    postorder of `subformulas`. The folded goal stays within the cube of the
    source weight."""
    t = Translation(source=gamma)
    t.star_root = t.star(gamma)
    assert weight(t.rho_star()) <= weight(gamma) ** 3, "translation outgrew its cubic bound"
    return t


def used_axioms(p: ProofTree, t: Translation) -> list[Formula]:
    """Axioms the translated proof will use, ordered by first use in a
    preorder walk of the source. Creates case axioms on demand."""
    order: list[Formula] = []
    seen_ax: set[Formula] = set()
    seen: set[int] = set()

    def use(ax: Formula):
        if ax not in seen_ax:
            seen_ax.add(ax)
            order.append(ax)

    stack = [p]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        r = node.rule
        if r not in RULES:
            raise UnsupportedRuleError(f"cannot translate rule {r}")
        if r == AND_ELIM_L:
            src = node.premises[0].conclusion
            use(imp(t.star(src), t.star(src.left)))
        elif r == AND_ELIM_R:
            src = node.premises[0].conclusion
            use(imp(t.star(src), t.star(src.right)))
        elif r == OR_ELIM:
            if len(node.premises) != 3:
                raise UnsupportedRuleError("only binary case splits translate")
            use(t.case_axiom(node.premises[0].conclusion, t.star(node.conclusion)))
        for ch in reversed(node.premises):
            if id(ch) not in seen:
                stack.append(ch)
    return order


def translate_proof(p: ProofTree, t: Translation) -> ProofTree:
    """Rule-by-rule translation to {Hyp, ImpIntro, ImpElim}.

    The result's conclusion is the folded goal over the used axioms; open
    assumptions are the images of the source's open assumptions (none, for
    a closed source proof).
    """
    order = used_axioms(p, t)

    memo: dict[int, ProofTree] = {}
    for node in iter_nodes(p):
        r = node.rule
        prem = [memo[id(ch)] for ch in node.premises]
        if r == HYP:
            out = hyp(t.star(node.conclusion))
        elif r == IMP_INTRO:
            out = imp_intro(prem[0], t.star(node.discharge[0]))
        elif r == IMP_ELIM:
            out = imp_elim(prem[0], prem[1])
        elif r == AND_ELIM_L:
            src = node.premises[0].conclusion
            out = imp_elim(hyp(imp(t.star(src), t.star(src.left))), prem[0])
        elif r == AND_ELIM_R:
            src = node.premises[0].conclusion
            out = imp_elim(hyp(imp(t.star(src), t.star(src.right))), prem[0])
        else:  # binary OrElimN
            major, c1, c2 = prem
            d1, d2 = node.discharge
            ax = t.case_axiom(node.premises[0].conclusion, t.star(node.conclusion))
            w1 = imp_intro(c1, t.star(d1))
            w2 = imp_intro(c2, t.star(d2))
            out = imp_elim(imp_elim(imp_elim(hyp(ax), w1), w2), major)
        memo[id(node)] = out

    out = memo[id(p)]
    for ax in reversed(order):
        out = imp_intro(out, ax)
    return out


def translation_to_json(t: Translation, limit: int | None = None) -> dict:
    """The translation's formulas as text, each cut at `limit` characters
    (see `to_text`)."""

    def text(f: Formula) -> str:
        return to_text(f, limit=limit)

    return {
        "source": text(t.source),
        "star": text(t.star_root) if t.star_root is not None else None,
        "axioms": [text(a) for a in t.axioms],
        "markers": [[text(src), text(q)] for src, q in t.qmap.items()],
    }
