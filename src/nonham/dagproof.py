"""Horizontal compression of implicational tree proofs into dag proofs.

`compress_horizontal` merges all tree nodes that sit at the same distance
from the root and carry the same formula into one dag node. When the
merged occurrences were derived in more than one way (different rule,
discharge, or premise classes), the dag node becomes a separation node
(rule "S"): its premises all carry the node's own formula, one
representative derivation per distinct way. Representatives sit a level
below the class and their premise edges point at nodes of that same level,
the one place the level-per-edge bookkeeping is slack; representatives are
also the one exception to "at most one node per (level, formula)", which
is why they carry an internal flag.

`cleanse` collapses every separation node to a repetition node (rule "R",
one premise, same formula), keeping the representative of the group that
contains the leftmost origin occurrence, then garbage-collects. The result
uses only {Hyp, ImpIntro, ImpElim, R} and is what `verify_dag` accepts:
an independent bottom-up check with memoized open-assumption sets, where R
is transparent and S is rejected.

An `OriginMap` records where every tree occurrence landed, which is what
the soundness tests replay against the source tree.

`compress_and_verify` is the one copy of the whole sequence: compress,
count incoherent separation nodes, cleanse, serialize, reload, and verify
the reloaded dag. The CLI, the bench and the acceptance tests all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .artifact import dumps_document, formula_at, loads_document, open_document
from .errors import (
    IllFormedDagError,
    NoCoherentChoiceError,
    OpenAssumptionsError,
    ProofFormatError,
    UnsupportedRuleError,
)
from .formulas import IMP, Formula, formulas_to_table
from .prooftree import (
    HYP,
    IMP_ELIM,
    IMP_INTRO,
    IMPLICATIONAL_RULES,
    Metrics,
    ProofTree,
)

SEP = "S"
REP = "R"

DAG_RULES = (HYP, IMP_INTRO, IMP_ELIM, SEP, REP)


@dataclass
class DagNode:
    formula: Formula
    rule: str
    premises: tuple[int, ...]
    level: int
    # representative derivation under a separation node (internal bookkeeping:
    # exempt from the one-node-per-(level, formula) rule, premise edges stay
    # on their own level)
    is_rep: bool = False


@dataclass
class DagProof:
    nodes: list[DagNode]
    root: int = 0
    # occurrence-summed weight of the source tree, for compression ratios
    source_tree_weight: int | None = None
    had_duplicates: bool = False

    @property
    def conclusion(self) -> Formula:
        return self.nodes[self.root].formula


@dataclass
class OriginMap:
    """Tree occurrence -> dag node, occurrences indexed in preorder.

    `group_of` records which derivation group of its merge class each
    occurrence fell into; group 0 is the one containing the class's first
    preorder occurrence, which is also the premise `cleanse` keeps.
    """

    node_of: list[int]
    parent_of: list[int]  # -1 for the root occurrence
    level_of: list[int]
    group_of: list[int]

    def __len__(self) -> int:
        return len(self.node_of)


def _occurrence_walk(p: ProofTree):
    """Preorder occurrence arrays for a tree proof."""
    occ_nodes: list[ProofTree] = []
    occ_parent: list[int] = []
    occ_level: list[int] = []
    occ_children: list[list[int]] = []
    stack: list[tuple[ProofTree, int]] = [(p, -1)]
    while stack:
        node, par = stack.pop()
        oid = len(occ_nodes)
        occ_nodes.append(node)
        occ_parent.append(par)
        occ_level.append(0 if par < 0 else occ_level[par] + 1)
        occ_children.append([])
        if par >= 0:
            occ_children[par].append(oid)
        for ch in reversed(node.premises):
            stack.append((ch, oid))
    return occ_nodes, occ_parent, occ_level, occ_children


def compress_horizontal(p: ProofTree) -> tuple[DagProof, OriginMap]:
    """Merge same-level same-formula occurrences of an implicational tree."""
    occ_nodes, occ_parent, occ_level, occ_children = _occurrence_walk(p)
    total = len(occ_nodes)

    tree_weight = 0
    for node in occ_nodes:
        tree_weight += node.conclusion.weight
        if node.rule not in IMPLICATIONAL_RULES:
            raise UnsupportedRuleError(
                f"horizontal compression handles implicational proofs only, got {node.rule}"
            )

    # merge classes keyed by (level, formula), in preorder of first occurrence
    class_ids: dict[tuple[int, Formula], int] = {}
    class_occs: list[list[int]] = []
    occ_class: list[int] = [0] * total
    for oid in range(total):
        key = (occ_level[oid], occ_nodes[oid].conclusion)
        cid = class_ids.get(key)
        if cid is None:
            cid = len(class_occs)
            class_ids[key] = cid
            class_occs.append([])
        class_occs[cid].append(oid)
        occ_class[oid] = cid

    had_duplicates = any(len(occs) > 1 for occs in class_occs)

    # derivation signature of an occurrence: how its class node gets concluded
    def signature(oid: int):
        node = occ_nodes[oid]
        return (
            node.rule,
            node.discharge,
            tuple(occ_class[c] for c in occ_children[oid]),
        )

    # records: (sort_key, formula, rule, level, is_rep, premise plan)
    # premise plans refer to class ids ("c", cid) or rep uids ("r", uid)
    records: list[dict] = []
    class_record: list[int] = []
    occ_group: list[int] = [0] * total
    for cid, occs in enumerate(class_occs):
        level = occ_level[occs[0]]
        formula = occ_nodes[occs[0]].conclusion
        groups: dict[tuple, int] = {}
        group_first: list[int] = []
        for oid in occs:
            sig = signature(oid)
            gi = groups.get(sig)
            if gi is None:
                gi = len(group_first)
                groups[sig] = gi
                group_first.append(oid)
            occ_group[oid] = gi
        first_origin = occs[0]
        if len(groups) == 1:
            node0 = occ_nodes[first_origin]
            class_record.append(len(records))
            records.append({
                "formula": formula,
                "rule": node0.rule,
                "level": level,
                "is_rep": False,
                "plan": [("c", occ_class[c]) for c in occ_children[first_origin]],
                "origin": first_origin,
            })
        else:
            rep_uids = []
            for gi, oid in enumerate(group_first):
                node0 = occ_nodes[oid]
                uid = ("rep", cid, gi)
                rep_uids.append(uid)
                records.append({
                    "formula": formula,
                    "rule": node0.rule,
                    "level": level + 1,
                    "is_rep": True,
                    "plan": [("c", occ_class[c]) for c in occ_children[oid]],
                    "origin": oid,
                    "uid": uid,
                })
            class_record.append(len(records))
            records.append({
                "formula": formula,
                "rule": SEP,
                "level": level,
                "is_rep": False,
                "plan": [("r", uid) for uid in rep_uids],
                "origin": first_origin,
            })

    # deterministic topological order: levels ascend, representatives come
    # just before their own level's plain nodes, ties by first origin
    order = sorted(range(len(records)),
                   key=lambda i: (2 * records[i]["level"] - (1 if records[i]["is_rep"] else 0),
                                  records[i]["origin"]))
    position = {ri: pos for pos, ri in enumerate(order)}
    rep_position = {records[ri]["uid"]: position[ri]
                    for ri in range(len(records)) if records[ri]["is_rep"]}

    nodes: list[DagNode] = []
    for ri in order:
        rec = records[ri]
        premises = tuple(
            position[class_record[ref]] if kind == "c" else rep_position[ref]
            for kind, ref in rec["plan"]
        )
        nodes.append(DagNode(rec["formula"], rec["rule"], premises,
                             rec["level"], rec["is_rep"]))

    root = position[class_record[occ_class[0]]]
    if root != 0:
        raise AssertionError("root class must sort first")

    dag = DagProof(nodes=nodes, root=0, source_tree_weight=tree_weight,
                   had_duplicates=had_duplicates)
    origin = OriginMap(
        node_of=[position[class_record[occ_class[oid]]] for oid in range(total)],
        parent_of=occ_parent,
        level_of=occ_level,
        group_of=occ_group,
    )
    return dag, origin


def coherence_failures(d: DagProof, om: OriginMap) -> list[int]:
    """Separation nodes through which no source thread survives the collapse.

    The collapse keeps, at every separation node, the derivation group of
    the class's leftmost occurrence (group 0). A source root-to-leaf thread
    survives when every occurrence on it fell into group 0 of its class.
    For each S node this scans for a surviving thread through its class;
    the returned ids signal compression-soundness failures and are never
    an implementation error.
    """
    total = len(om)
    group_of = om.group_of
    parent_of = om.parent_of
    children: list[list[int]] = [[] for _ in range(total)]
    for o in range(total):
        p = parent_of[o]
        if p >= 0:
            children[p].append(o)
    # occurrence ids are preorder, so parents precede children
    up_ok = [False] * total
    for o in range(total):
        p = parent_of[o]
        up_ok[o] = group_of[o] == 0 and (p < 0 or up_ok[p])
    down_ok = [False] * total
    for o in range(total - 1, -1, -1):
        if group_of[o] != 0:
            continue
        ch = children[o]
        down_ok[o] = (not ch) or any(down_ok[c] for c in ch)
    survivors = set()
    for o in range(total):
        if up_ok[o] and down_ok[o]:
            survivors.add(om.node_of[o])
    return [i for i, node in enumerate(d.nodes)
            if node.rule == SEP and i not in survivors]


def cleanse(d: DagProof, om: OriginMap | None = None, source=None,
            strict: bool = True) -> DagProof:
    """Collapse every separation node to a repetition keeping the premise
    of the group containing the leftmost origin occurrence, then drop
    unreachable nodes.

    With an origin map, separation nodes through which no source thread
    survives the collapse raise NoCoherentChoiceError (strict, the default)
    or are still collapsed deterministically (strict=False; the caller is
    expected to have recorded `coherence_failures` first). The failure is
    an experimental outcome of the compression, not a malfunction, and the
    collapsed dag still exists either way; `verify_dag` is the arbiter.
    """
    if source is not None and d.nodes[d.root].formula is not source.conclusion:
        raise ValueError("origin map does not belong to this source proof")
    if om is not None and strict:
        bad = coherence_failures(d, om)
        if bad:
            raise NoCoherentChoiceError(
                f"no source thread survives collapse at separation nodes {bad[:8]}"
                + ("..." if len(bad) > 8 else "")
            )
    replaced: list[DagNode] = []
    for i, node in enumerate(d.nodes):
        if node.rule == SEP:
            if not node.premises:
                raise NoCoherentChoiceError(f"separation node {i} has no premises")
            # group order is first-seen over preorder occurrences, so the
            # first premise is the leftmost-origin derivation
            replaced.append(DagNode(node.formula, REP, node.premises[:1],
                                    node.level, node.is_rep))
        else:
            replaced.append(node)

    reachable = set()
    stack = [d.root]
    while stack:
        i = stack.pop()
        if i in reachable:
            continue
        reachable.add(i)
        stack.extend(replaced[i].premises)

    keep = sorted(reachable)
    remap = {old: new for new, old in enumerate(keep)}
    nodes = [
        DagNode(replaced[i].formula, replaced[i].rule,
                tuple(remap[q] for q in replaced[i].premises),
                replaced[i].level, replaced[i].is_rep)
        for i in keep
    ]
    return DagProof(nodes=nodes, root=remap[d.root],
                    source_tree_weight=d.source_tree_weight,
                    had_duplicates=d.had_duplicates)


def _structure_check(d: DagProof):
    n = len(d.nodes)
    if n == 0:
        raise IllFormedDagError(-1, "empty dag")
    if not 0 <= d.root < n:
        raise IllFormedDagError(d.root, "root out of range")
    for i, node in enumerate(d.nodes):
        if node.rule not in DAG_RULES:
            raise IllFormedDagError(i, f"unknown rule {node.rule!r}")
        for q in node.premises:
            if not (isinstance(q, int) and 0 <= q < n):
                raise IllFormedDagError(i, f"premise id {q!r} out of range")
            if q <= i:
                raise IllFormedDagError(i, "premises must come after the node")


def verify_dag(d: DagProof) -> Metrics:
    """Independent bottom-up verification of a cleansed dag proof.

    Rejects separation nodes outright; repetition nodes are transparent for
    both the formula and the open-assumption set. Requires a closed proof.
    Premise ids must strictly follow the node (the serialized order), which
    makes acyclicity a local check. Open sets are memoized per node; on
    dags this is what makes verification feasible.
    """
    _structure_check(d)
    n = len(d.nodes)
    opens: list[frozenset[Formula] | None] = [None] * n
    heights: list[int] = [0] * n
    for i in range(n - 1, -1, -1):
        node = d.nodes[i]
        prem = node.premises
        f = node.formula
        if node.rule == SEP:
            raise IllFormedDagError(i, "separation node in a cleansed dag")
        if node.rule == HYP:
            if prem:
                raise IllFormedDagError(i, "hypothesis with premises")
            opens[i] = frozenset((f,))
            heights[i] = 1
            continue
        if node.rule == REP:
            if len(prem) != 1:
                raise IllFormedDagError(i, "repetition needs exactly one premise")
            q = prem[0]
            if d.nodes[q].formula is not f:
                raise IllFormedDagError(i, "repetition changes the formula")
            opens[i] = opens[q]
            heights[i] = heights[q] + 1
            continue
        if node.rule == IMP_INTRO:
            if len(prem) != 1:
                raise IllFormedDagError(i, "ImpIntro needs exactly one premise")
            if f.kind != IMP or d.nodes[prem[0]].formula is not f.right:
                raise IllFormedDagError(i, "ImpIntro conclusion does not fit its premise")
            opens[i] = opens[prem[0]] - {f.left}
            heights[i] = heights[prem[0]] + 1
            continue
        # ImpElim
        if len(prem) != 2:
            raise IllFormedDagError(i, "ImpElim needs exactly two premises")
        maj, mn = prem
        mf = d.nodes[maj].formula
        if mf.kind != IMP or mf.left is not d.nodes[mn].formula or mf.right is not f:
            raise IllFormedDagError(i, "ImpElim premises do not fit the conclusion")
        opens[i] = opens[maj] | opens[mn]
        heights[i] = 1 + max(heights[maj], heights[mn])

    if opens[d.root]:
        raise OpenAssumptionsError(opens[d.root])
    formulas = {node.formula for node in d.nodes}
    return Metrics(
        height=heights[d.root],
        weight=sum(node.formula.weight for node in d.nodes),
        distinct_formula_weight=sum(f.weight for f in formulas),
        open_assumptions=frozenset(),
    )


def dag_height(d: DagProof) -> int:
    """Longest root-to-leaf path length in nodes (no verification)."""
    _structure_check(d)
    n = len(d.nodes)
    heights = [0] * n
    for i in range(n - 1, -1, -1):
        prem = d.nodes[i].premises
        heights[i] = 1 + max((heights[q] for q in prem), default=0)
    return heights[d.root]


def tree_to_dag(p: ProofTree) -> DagProof:
    """Embed a tree proof as a dag without merging (one node per occurrence)."""
    occ_nodes, occ_parent, occ_level, occ_children = _occurrence_walk(p)
    total = len(occ_nodes)
    for node in occ_nodes:
        if node.rule not in IMPLICATIONAL_RULES:
            raise UnsupportedRuleError(f"implicational proofs only, got {node.rule}")
    order = sorted(range(total), key=lambda oid: (occ_level[oid], oid))
    position = {oid: pos for pos, oid in enumerate(order)}
    nodes = [
        DagNode(
            occ_nodes[oid].conclusion,
            occ_nodes[oid].rule,
            tuple(position[c] for c in occ_children[oid]),
            occ_level[oid],
        )
        for oid in order
    ]
    weight = sum(n.formula.weight for n in nodes)
    return DagProof(nodes=nodes, root=position[0], source_tree_weight=weight,
                    had_duplicates=False)


_DAG_FIELDS = frozenset({"id", "rule", "formula", "premises", "level"})


def dag_to_json(d: DagProof) -> dict:
    """Dag document: the formula table, the node array (`formula` holds a
    table id), the root and the source tree's weight."""
    table, fid = formulas_to_table(node.formula for node in d.nodes)
    return {
        "kind": "dag",
        "formulas": table,
        "nodes": [
            {
                "id": i,
                "rule": node.rule,
                "formula": fid[node.formula],
                "premises": list(node.premises),
                "level": node.level,
            }
            for i, node in enumerate(d.nodes)
        ],
        "root": d.root,
        "source_tree_weight": d.source_tree_weight,
        "had_duplicates": d.had_duplicates,
    }


def dag_from_json(data) -> DagProof:
    """Rebuild a dag from its document. Schema errors raise ProofFormatError;
    premise ranges are left to `verify_dag`."""
    table, records = open_document(data, "dag", _DAG_FIELDS)
    nodes: list[DagNode] = []
    for pos, rec in enumerate(records):
        if rec["rule"] not in DAG_RULES:
            raise ProofFormatError(f"dag node {pos}: unknown rule {rec['rule']!r:.40}")
        prem = rec["premises"]
        if not isinstance(prem, list) or not all(type(q) is int for q in prem):
            raise ProofFormatError(f"dag node {pos}: premises must be integer ids")
        if type(rec["level"]) is not int:
            raise ProofFormatError(f"dag node {pos}: level must be an integer")
        nodes.append(DagNode(formula_at(table, rec["formula"], pos), rec["rule"],
                             tuple(prem), rec["level"]))
    root = data.get("root")
    if not (type(root) is int and 0 <= root < len(nodes)):
        raise ProofFormatError("dag root must be a node id")
    stw = data.get("source_tree_weight")
    if stw is not None and type(stw) is not int:
        raise ProofFormatError("source_tree_weight must be an integer or null")
    had_duplicates = data.get("had_duplicates")
    if type(had_duplicates) is not bool:
        raise ProofFormatError("had_duplicates must be true or false")
    return DagProof(nodes=nodes, root=root, source_tree_weight=stw,
                    had_duplicates=had_duplicates)


def dumps_dag(d: DagProof) -> str:
    """Canonical JSON text of the dag document."""
    return dumps_document(dag_to_json(d))


def loads_dag(text: str) -> DagProof:
    return dag_from_json(loads_document(text))


@dataclass
class Compression:
    """Outcome of compressing one closed implicational tree proof.

    `dag` is the compression before the collapse; `cleansed` is the
    collapsed dag as reloaded from `text`, its canonical JSON. `weight` and
    `height` are the cleansed dag's, and `open_set` holds the assumptions
    the verifier found open (empty when it accepted the dag).
    """

    dag: DagProof
    cleansed: DagProof
    text: str
    incoherent: int
    weight: int
    height: int
    open_set: frozenset[Formula]

    @property
    def verified(self) -> bool:
        return not self.open_set

    @property
    def verdict(self) -> str:
        return "verified" if self.verified else f"open_assumptions[{len(self.open_set)}]"


def compress_and_verify(p: ProofTree) -> Compression:
    """Compress `p`, collapse its separation nodes, and verify the dag as
    reloaded from its JSON.

    Open assumptions in the cleansed dag are an experimental outcome of the
    compression and are recorded, not raised; any other verifier rejection
    raises, and so does a reloaded conclusion that is not `p`'s.
    """
    dag, origin = compress_horizontal(p)
    incoherent = len(coherence_failures(dag, origin))
    text = dumps_dag(cleanse(dag, origin, source=p, strict=False))
    cleansed = loads_dag(text)
    if cleansed.conclusion is not p.conclusion:
        raise IllFormedDagError(cleansed.root, "conclusion drifted from the source proof")
    try:
        metrics = verify_dag(cleansed)
        weight, height, open_set = metrics.weight, metrics.height, frozenset()
    except OpenAssumptionsError as exc:
        weight = sum(node.formula.weight for node in cleansed.nodes)
        height = dag_height(cleansed)
        open_set = exc.open_set
    return Compression(dag, cleansed, text, incoherent, weight, height, open_set)
