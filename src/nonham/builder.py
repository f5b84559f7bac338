"""Mechanical construction of the refutation proof for a non-Hamiltonian graph.

Given a digraph g with no Hamiltonian path, `build_refutation` produces a
normal tree proof of (encoding of g) -> false whose only rules are Hyp,
ImpIntro, ImpElim, AndElimL/R and binary OrElimN. Stages:

1. leaf refutations: for each candidate vertex sequence, the least
   violation (repeat first, then missing edge) picks one banning conjunct;
   an elimination chain extracts it from the single open copy of the
   encoding, and two ImpElims against the violated position variables
   close the branch with `false`;
2. case tower: a case split per step over which vertex is visited,
   innermost step last, written as right-nested binary splits; the major
   premise of the outermost one extracts the step_occupied disjunction,
   each inner one's major assumes the right disjunct of the major above
   it, and every split discharges the two disjuncts of its own major; in
   `pruned` mode a branch stops as soon as its prefix already contains a
   violation, in `faithful` mode all n^n full sequences get leaves;
3. `finalize_negation` discharges the encoding and checks, once, that the
   resulting proof of encoding -> false is closed.

Every node the case tower creates goes through one `NodeTable` per
`build_refutation` call, so equal subproofs (leaves, elimination chains,
case splits, the suffix hypotheses of inner splits) are one object: the
result is a tree by occurrence but a small dag by object identity, and the
kernel and metrics treat it as a tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, GraphIsHamiltonianError, WrongOpenSetError
from .encoding import PathEncoding, conjunct_path, encode_graph
from .formulas import x_var
from .graphs import (
    Graph,
    MissingEdge,
    Repeat,
    Violation,
    find_violation,
    prefix_violation,
)
from .prooftree import (
    Metrics,
    NodeTable,
    ProofTree,
    and_elim_l,
    and_elim_r,
    check_tree,
    hyp,
    imp_elim,
    imp_intro,
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


def builder_limit(mode: str = "auto", cap: int | None = None) -> int:
    """The largest n `build_refutation` takes in `mode`: `cap` when one is
    given, else the mode's cap (auto runs pruned above FAITHFUL_CAP, so its
    limit is PRUNED_CAP)."""
    if cap is not None:
        return cap
    return FAITHFUL_CAP if mode == "faithful" else PRUNED_CAP


def check_builder_cap(n: int, mode: str = "auto", cap: int | None = None) -> str:
    """The mode `build_refutation` uses at n; refuses n above that mode's
    cap, or above `cap` when one is given."""
    used = resolve_mode(mode, n)
    limit = builder_limit(used, cap)
    if n > limit:
        raise CapExceededError(
            f"n={n} exceeds the {used} builder cap {limit}; "
            f"pass cap={n} to run anyway")
    return used


def elim_chain(start: ProofTree, path: list[str], table: NodeTable) -> ProofTree:
    """Apply AndElimL/AndElimR along an L/R descent path."""
    t = start
    for step in path:
        t = table.share(and_elim_l(t) if step == "L" else and_elim_r(t))
    return t


def leaf_from_violation(viol: Violation, enc: PathEncoding,
                        table: NodeTable) -> tuple[ProofTree, int]:
    """Refute `false` from the two position variables a violation pins down;
    returns the proof and its height.

    Open assumptions: the encoding and the two variables, which the
    surrounding case tower discharges. Violations only mention positions
    inside the sequence prefix that produced them, so every variable used
    here is discharged by an enclosing case split. Nodes go through `table`.
    """
    share = table.share
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
    chain = elim_chain(share(hyp(enc.formula)), path, table)
    leaf = share(imp_elim(share(imp_elim(chain, share(hyp(first)))), share(hyp(second))))
    # the longest branch: two ImpElims, the chain, the encoding's Hyp
    return leaf, len(path) + 3


class _CaseTower:
    """The state of one `build_case_tower` call.

    Plain methods rather than closures that name themselves: a nested
    recursive function holds its own closure cell, so every call would
    leave a reference cycle (the function, the table and both caches) that
    only the cyclic collector frees.
    """

    def __init__(self, g: Graph, enc: PathEncoding, faithful: bool):
        self.g = g
        self.enc = enc
        self.faithful = faithful
        self.table = NodeTable()
        self.root_hyp = self.table.share(hyp(enc.formula))
        self.leaves: dict[Violation, tuple[ProofTree, int]] = {}
        self.steps: dict[int, tuple[list[ProofTree], int]] = {}
        self.leaf_count = 0

    def leaf(self, viol: Violation) -> tuple[ProofTree, int]:
        self.leaf_count += 1
        leaf = self.leaves.get(viol)
        if leaf is None:
            leaf = self.leaves[viol] = leaf_from_violation(viol, self.enc, self.table)
        return leaf

    def split(self, step: int) -> tuple[list[ProofTree], int]:
        """What every case split of `step` shares: the majors of its binary
        splits, outermost first, and the outermost major's height. Each
        inner major assumes the right disjunct of the one above it."""
        split = self.steps.get(step)
        if split is None:
            share = self.table.share
            path = conjunct_path(self.enc, "step_occupied", step - 1)
            majors = [elim_chain(self.root_hyp, path, self.table)]
            for _ in range(self.g.n - 2):
                majors.append(share(hyp(majors[-1].conclusion.right)))
            # the major's longest branch: the chain and the encoding's Hyp
            split = self.steps[step] = (majors, len(path) + 1)
        return split

    def tower(self, prefix: tuple[int, ...]) -> tuple[ProofTree, int]:
        """The refutation below `prefix` and its height with each step's
        split counted as one node."""
        g = self.g
        if not self.faithful and len(prefix) >= 2:
            viol = prefix_violation(prefix, g)
            if viol is not None:
                return self.leaf(viol)
        if len(prefix) == g.n:
            viol = find_violation(prefix, g)
            if viol is None:
                raise GraphIsHamiltonianError(prefix)
            return self.leaf(viol)
        majors, height = self.split(len(prefix) + 1)
        cases = []
        for v in range(1, g.n + 1):
            case, h = self.tower(prefix + (v,))
            cases.append(case)
            if h > height:
                height = h
        share = self.table.share
        acc = cases[-1]
        for m in range(g.n - 2, -1, -1):
            acc = share(or_elim(majors[m], cases[m], acc))
        return acc, height + 1


def build_case_tower(g: Graph, enc: PathEncoding, mode: str) -> tuple[ProofTree, int, int]:
    """Case tower over vertex choices per step; returns (proof, leaf count,
    tower height).

    The proof concludes `false`; its open assumptions are exactly the
    encoding. The tower height counts each step's case split as one node,
    however many binary splits it takes. Raises GraphIsHamiltonianError
    (with the witness) on the first violation-free full sequence. Nodes go
    through one `NodeTable`; each step's majors are built once.
    """
    faithful = resolve_mode(mode, g.n) == "faithful"
    if g.n == 1:
        # the only candidate sequence is (1); a single-vertex graph always
        # has a Hamiltonian path
        raise GraphIsHamiltonianError((1,))
    state = _CaseTower(g, enc, faithful)
    proof, height = state.tower(())
    return proof, state.leaf_count, height


def finalize_negation(p: ProofTree, enc: PathEncoding) -> tuple[ProofTree, Metrics]:
    """Discharge the encoding: from a proof of `false` open only in the
    encoding, conclude encoding -> false. Returns the proof and its metrics
    from the one check, which requires the discharged proof to be closed."""
    proof = imp_intro(p, enc.formula)
    metrics = check_tree(proof)
    if metrics.open_assumptions:
        raise WrongOpenSetError(metrics.open_assumptions, frozenset())
    return proof, metrics


@dataclass
class BuildReport:
    """The refutation of one graph. `tower_height` is the case tower's
    height with each step's split counted as one node, the quantity
    criterion 3 bounds by c*n^2; `metrics.height` counts every binary
    split."""

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
    tower, leaf_count, tower_height = build_case_tower(g, enc, used)
    proof, metrics = finalize_negation(tower, enc)
    return BuildReport(
        proof=proof,
        encoding=enc,
        mode=used,
        leaf_count=leaf_count,
        tower_height=tower_height,
        metrics=metrics,
    )
