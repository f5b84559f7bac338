"""Mechanical construction of the refutation proof for a non-Hamiltonian graph.

Given a digraph g with no Hamiltonian path, `build_refutation` produces a
normal tree proof of (encoding of g) -> false whose only rules are Hyp,
ImpIntro, ImpElim, AndElimL/R and binary OrElimN. Stages:

1. leaf refutations: for each candidate vertex sequence, the least
   violation (repeat first, then missing edge) picks one banning conjunct;
   an elimination chain extracts it from the single open copy of the
   encoding, and two ImpElims against the violated position variables
   close the branch with `false`;
2. case tower: an n-ary case split per step over which vertex is visited,
   innermost step last; the major premise of each split extracts the
   step_occupied disjunction; in `pruned` mode a branch stops as soon as
   its prefix already contains a violation, in `faithful` mode all n^n
   full sequences get leaves;
3. `unfold_nary` rewrites every n-ary split into right-nested binary ones;
4. `finalize_negation` checks the only open assumption is the encoding and
   discharges it.

Leaf proofs and elimination chains are memoized, so the result is a tree
by occurrence but a small dag by object identity; the kernel and metrics
treat it as a tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CapExceededError,
    GraphIsHamiltonianError,
    NoViolationError,
    ShapeMismatchError,
    WrongOpenSetError,
)
from .encoding import PathEncoding, conjunct_path, encode_graph
from .formulas import Formula, chain_disj, x_var
from .graphs import (
    Graph,
    MissingEdge,
    Repeat,
    Violation,
    find_violation,
    prefix_violation,
)
from .prooftree import (
    OR_ELIM,
    Metrics,
    ProofTree,
    and_elim_l,
    and_elim_r,
    check_tree,
    hyp,
    imp_elim,
    imp_intro,
    iter_nodes,
    or_elim,
)

MODES = ("auto", "faithful", "pruned")

# auto switches to pruned above this n; faithful is n^n leaves
FAITHFUL_CAP = 4
# pruned towers stop at violated prefixes but still grow fast; guard runaway n
PRUNED_CAP = 6


def resolve_mode(mode: str, n: int) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "auto":
        return "faithful" if n <= FAITHFUL_CAP else "pruned"
    return mode


def check_builder_cap(n: int, mode: str = "auto", cap: int | None = None) -> str:
    """The mode `build_refutation` uses at n; refuses n above that mode's
    cap, or above `cap` when one is given."""
    used = resolve_mode(mode, n)
    limit = cap if cap is not None else (
        FAITHFUL_CAP if used == "faithful" else PRUNED_CAP)
    if n > limit:
        raise CapExceededError(
            f"n={n} exceeds the {used} builder cap {limit}; "
            f"pass cap={n} to run anyway")
    return used


def elim_chain(start: ProofTree, path: list[str]) -> ProofTree:
    """Apply AndElimL/AndElimR along an L/R descent path."""
    t = start
    for step in path:
        t = and_elim_l(t) if step == "L" else and_elim_r(t)
    return t


def leaf_from_violation(viol: Violation, enc: PathEncoding,
                        root_hyp: ProofTree | None = None) -> ProofTree:
    """Refute `false` from the two position variables a violation pins down.

    Open assumptions: the encoding (via `root_hyp`) and the two variables,
    which the surrounding case tower discharges. Violations only mention
    positions inside the sequence prefix that produced them, so every
    variable used here is discharged by an enclosing case split.
    """
    if root_hyp is None:
        root_hyp = hyp(enc.formula)
    if isinstance(viol, Repeat):
        pos = enc.repeat_pos[(viol.v, viol.i, viol.j)]
        path = conjunct_path(enc, "repeat_ban", pos)
        first = x_var(viol.i, viol.v)
        second = x_var(viol.j, viol.v)
    elif isinstance(viol, MissingEdge):
        pos = enc.edge_pos[(viol.v, viol.w, viol.i)]
        path = conjunct_path(enc, "edge_ban", pos)
        first = x_var(viol.i, viol.v)
        second = x_var(viol.i + 1, viol.w)
    else:
        raise TypeError(f"not a violation: {viol!r}")
    chain = elim_chain(root_hyp, path)
    return imp_elim(imp_elim(chain, hyp(first)), hyp(second))


def build_leaf(seq, g: Graph, enc: PathEncoding | None = None) -> ProofTree:
    """Leaf refutation for a full candidate sequence; its least violation
    picks the banning conjunct."""
    if enc is None:
        enc = encode_graph(g)
    viol = find_violation(seq, g)
    if viol is None:
        raise NoViolationError(f"{list(seq)} is a Hamiltonian path, nothing to refute")
    return leaf_from_violation(viol, enc)


def build_case_tower(g: Graph, enc: PathEncoding | None = None,
                     mode: str = "faithful") -> tuple[ProofTree, int]:
    """Case tower over vertex choices per step; returns (proof, leaf count).

    The proof concludes `false`; its open assumptions are exactly the
    encoding. Raises GraphIsHamiltonianError (with the witness) on the
    first violation-free full sequence.
    """
    if enc is None:
        enc = encode_graph(g)
    faithful = resolve_mode(mode, g.n) == "faithful"
    n = g.n
    root_hyp = hyp(enc.formula)
    verts = range(1, n + 1)

    leaf_cache: dict[Violation, ProofTree] = {}
    majors: dict[int, ProofTree] = {}
    leaf_count = 0

    def leaf(viol: Violation) -> ProofTree:
        nonlocal leaf_count
        leaf_count += 1
        t = leaf_cache.get(viol)
        if t is None:
            t = leaf_from_violation(viol, enc, root_hyp)
            leaf_cache[viol] = t
        return t

    def major(step: int) -> ProofTree:
        t = majors.get(step)
        if t is None:
            t = elim_chain(root_hyp, conjunct_path(enc, "step_occupied", step - 1))
            majors[step] = t
        return t

    def rec(prefix: tuple[int, ...]) -> ProofTree:
        if not faithful and len(prefix) >= 2:
            viol = prefix_violation(prefix, g)
            if viol is not None:
                return leaf(viol)
        if len(prefix) == n:
            viol = find_violation(prefix, g)
            if viol is None:
                raise GraphIsHamiltonianError(prefix)
            return leaf(viol)
        step = len(prefix) + 1
        cases = [rec(prefix + (v,)) for v in verts]
        return or_elim(major(step), cases, tuple(x_var(step, v) for v in verts))

    if n == 1:
        # the only candidate sequence is (1); a single-vertex graph always
        # has a Hamiltonian path
        raise GraphIsHamiltonianError((1,))
    proof = rec(())
    return proof, leaf_count


def unfold_nary(p: ProofTree) -> ProofTree:
    """Rewrite every n-ary case split into right-nested binary ones.

    The inner splits' majors are hypotheses for suffix chains, discharged
    by the step above; conclusions and the open assumption set are
    preserved. Shared subproofs are transformed once.
    """
    memo: dict[int, ProofTree] = {}
    for node in iter_nodes(p):
        prem = [memo[id(ch)] for ch in node.premises]
        if node.rule != OR_ELIM or len(prem) == 3:
            if all(a is b for a, b in zip(prem, node.premises)):
                memo[id(node)] = node
            else:
                memo[id(node)] = ProofTree(node.conclusion, node.rule, tuple(prem),
                                           node.discharge)
            continue
        major, *cases = prem
        ds = list(node.discharge)
        k = len(cases)
        if major.conclusion is not chain_disj(ds):
            raise ShapeMismatchError("case split major does not match its discharges")

        def suffix(m: int) -> Formula:
            return chain_disj(ds[m:])

        acc = cases[-1]
        for m in range(k - 2, -1, -1):
            maj_m = major if m == 0 else hyp(suffix(m))
            acc = or_elim(maj_m, [cases[m], acc], (ds[m], suffix(m + 1)))
        memo[id(node)] = acc
    return memo[id(p)]


def finalize_negation(p: ProofTree, enc: PathEncoding) -> ProofTree:
    """Discharge the encoding: from a proof of `false` open only in the
    encoding, conclude encoding -> false."""
    metrics = check_tree(p)
    expected = frozenset((enc.formula,))
    if metrics.open_assumptions != expected:
        raise WrongOpenSetError(metrics.open_assumptions, expected)
    return imp_intro(p, enc.formula)


@dataclass
class BuildReport:
    proof: ProofTree
    encoding: PathEncoding
    mode: str
    leaf_count: int
    tower_height: int
    metrics: Metrics

    def summary(self) -> dict:
        return {
            "n": self.encoding.n,
            "mode": self.mode,
            "leaf_count": self.leaf_count,
            "tower_height": self.tower_height,
            "height": self.metrics.height,
            "weight": self.metrics.weight,
            "distinct_formula_weight": self.metrics.distinct_formula_weight,
        }


def build_refutation(g: Graph, mode: str = "auto",
                     cap: int | None = None) -> BuildReport:
    """Full pipeline to the normal refutation of the encoding of g.

    The per-mode caps guard the n^n (faithful) and violated-prefix (pruned)
    enumerations; pass `cap` to raise them deliberately.
    """
    used = check_builder_cap(g.n, mode, cap)
    enc = encode_graph(g)
    tower, leaf_count = build_case_tower(g, enc, used)
    heights: dict[int, int] = {}
    for node in iter_nodes(tower):
        heights[id(node)] = 1 + max((heights[id(q)] for q in node.premises), default=0)
    tower_height = heights[id(tower)]
    unfolded = unfold_nary(tower)
    proof = finalize_negation(unfolded, enc)
    metrics = check_tree(proof)
    return BuildReport(
        proof=proof,
        encoding=enc,
        mode=used,
        leaf_count=leaf_count,
        tower_height=tower_height,
        metrics=metrics,
    )
