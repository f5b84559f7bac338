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

All occurrences of one proof object at one level share formula, child
classes and derivation, so compression and the coherence count work once
per such (node, level) *site*, not per tree occurrence. An `OriginMap`
records where every site landed and how many occurrences it stands for.

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
    HypothesisBits,
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
    """Sites -> dag nodes. A site is one proof object at one level; sites
    are indexed in preorder of their first occurrence (site 0 is the root).

    `children_of` lists a site's premise sites in premise order, `mult`
    counts its tree occurrences, and `group_of` records which derivation
    group of its merge class it fell into; group 0 is the one containing
    the class's first preorder occurrence, which is also the premise
    `cleanse` keeps.
    """

    node_of: list[int]
    level_of: list[int]
    group_of: list[int]
    children_of: list[list[int]]
    mult: list[int]

    def __len__(self) -> int:
        """Tree occurrences, summed over sites."""
        return sum(self.mult)


def _walk(p: ProofTree, sites: bool):
    """Preorder walk of a tree proof: node, level and child ids per visit.

    Without `sites` every occurrence is visited. With it, an object met
    again at a level is not walked again: its first occurrence there came
    earlier in preorder (it is no ancestor) with all its subtree, so sites
    come out in the order of their first occurrences."""
    nodes: list[ProofTree] = []
    levels: list[int] = []
    children: list[list[int]] = []
    seen: list[dict[int, int]] = []  # per level: id(node) -> visit id
    stack: list[tuple[ProofTree, int, int]] = [(p, 0, -1)]
    while stack:
        node, level, par = stack.pop()
        if level == len(seen):
            seen.append({})
        idx = seen[level].get(id(node)) if sites else None
        if idx is None:
            idx = len(nodes)
            if sites:
                seen[level][id(node)] = idx
            nodes.append(node)
            levels.append(level)
            children.append([])
            for ch in reversed(node.premises):
                stack.append((ch, level + 1, idx))
        if par >= 0:
            children[par].append(idx)
    return nodes, levels, children


def compress_horizontal(p: ProofTree) -> tuple[DagProof, OriginMap]:
    """Merge same-level same-formula occurrences of an implicational tree,
    working once per site (see the module docstring)."""
    site_nodes, site_level, site_children = _walk(p, sites=True)
    total = len(site_nodes)

    # merge classes keyed by (level, formula), in order of first occurrence
    class_ids: dict[tuple[int, Formula], int] = {}
    class_sites: list[list[int]] = []
    site_class: list[int] = []
    for s, node in enumerate(site_nodes):
        if node.rule not in IMPLICATIONAL_RULES:
            raise UnsupportedRuleError(
                f"horizontal compression handles implicational proofs only, got {node.rule}"
            )
        cid = class_ids.setdefault((site_level[s], node.conclusion), len(class_sites))
        if cid == len(class_sites):
            class_sites.append([])
        class_sites[cid].append(s)
        site_class.append(cid)

    # occurrence counts, pushed from each level to the next
    mult = [0] * total
    mult[0] = 1
    for s in sorted(range(total), key=site_level.__getitem__):
        for c in site_children[s]:
            mult[c] += mult[s]
    occurrences = sum(mult)
    tree_weight = sum(m * node.conclusion.weight for m, node in zip(mult, site_nodes))

    # records: (sort key, formula, rule, level, is_rep, premise plan); a
    # plan lists class ids, except a separation node's, which lists the
    # record ids of its representatives. Levels ascend, representatives
    # come just before their own level's plain nodes, ties go by first
    # occurrence (site ids are in that order).
    records: list[tuple] = []
    class_record = [0] * len(class_sites)
    group_of = [0] * total
    for cid, sites in enumerate(class_sites):
        first = sites[0]
        level = site_level[first]
        formula = site_nodes[first].conclusion
        group_first = [first]
        if len(sites) > 1:  # a lone site is group 0 of its class
            groups: dict[tuple, int] = {}
            for s in sites:
                node = site_nodes[s]
                sig = (node.rule, node.discharge, tuple([site_class[c] for c in site_children[s]]))
                gi = group_of[s] = groups.setdefault(sig, len(groups))
                if gi == len(group_first):
                    group_first.append(s)
        if len(group_first) == 1:
            class_record[cid] = len(records)
            records.append((2 * level * total + first, formula, site_nodes[first].rule,
                            level, False, [site_class[c] for c in site_children[first]]))
        else:
            reps = []
            for s in group_first:
                reps.append(len(records))
                records.append(((2 * level + 1) * total + s, formula, site_nodes[s].rule,
                                level + 1, True, [site_class[c] for c in site_children[s]]))
            class_record[cid] = len(records)
            records.append((2 * level * total + first, formula, SEP, level, False, reps))

    order = sorted(range(len(records)), key=lambda ri: records[ri][0])
    position = [0] * len(records)
    for pos, ri in enumerate(order):
        position[ri] = pos
    class_node = [position[ri] for ri in class_record]
    if class_node[0] != 0:
        raise AssertionError("root class must sort first")

    nodes: list[DagNode] = []
    for ri in order:
        _, formula, rule, level, is_rep, plan = records[ri]
        refs = position if rule == SEP else class_node
        nodes.append(DagNode(formula, rule, tuple([refs[x] for x in plan]), level, is_rep))
    dag = DagProof(nodes=nodes, root=0, source_tree_weight=tree_weight,
                   had_duplicates=len(class_sites) < occurrences)
    origin = OriginMap(node_of=[class_node[cid] for cid in site_class], level_of=site_level,
                       group_of=group_of, children_of=site_children, mult=mult)
    return dag, origin


def coherence_failures(d: DagProof, om: OriginMap) -> list[int]:
    """Separation nodes through which no source thread survives the collapse.

    The collapse keeps, at every separation node, the derivation group of
    the class's leftmost occurrence (group 0). A source root-to-leaf thread
    survives when every occurrence on it fell into group 0 of its class.
    For each S node this scans for a surviving thread through its class;
    the returned ids signal compression-soundness failures and are never
    an implementation error. The scan runs over sites: some occurrence of
    a site is on a surviving path from the root when some parent site's
    is, and a surviving path down depends on the site's subtree only.
    """
    group_of = om.group_of
    children_of = om.children_of
    total = len(group_of)
    order = sorted(range(total), key=om.level_of.__getitem__)
    up = [False] * total
    up[0] = True
    for s in order:
        up[s] = up[s] and group_of[s] == 0
        if up[s]:
            for c in children_of[s]:
                up[c] = True
    down = [False] * total
    for s in reversed(order):
        ch = children_of[s]
        down[s] = group_of[s] == 0 and (not ch or any(down[c] for c in ch))
    survivors = {om.node_of[s] for s in range(total) if up[s] and down[s]}
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
    makes acyclicity a local check. Open sets are memoized per node, as
    `HypothesisBits` masks; on dags this is what makes verification
    feasible.
    """
    _structure_check(d)
    n = len(d.nodes)
    hyps = HypothesisBits()
    opens = [0] * n
    heights = [0] * n
    for i in range(n - 1, -1, -1):
        node = d.nodes[i]
        prem = node.premises
        f = node.formula
        if node.rule == SEP:
            raise IllFormedDagError(i, "separation node in a cleansed dag")
        if node.rule == HYP:
            if prem:
                raise IllFormedDagError(i, "hypothesis with premises")
            opens[i] = hyps.bit(f)
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
            opens[i] = hyps.drop(opens[prem[0]], f.left)
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
        raise OpenAssumptionsError(hyps.formulas(opens[d.root]))
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
    occ_nodes, occ_level, occ_children = _walk(p, sites=False)
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
