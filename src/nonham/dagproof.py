"""Horizontal compression of implicational tree proofs into dag proofs.

`compress_horizontal` merges all tree nodes that sit at the same distance
from the root and carry the same formula into one dag node. When the
merged occurrences were derived in more than one way (different rule,
discharge, or premise classes), the dag node becomes a separation node
(rule "S"): its premises all carry the node's own formula, one
representative derivation per distinct way. Representatives sit a level
below the class and their premise edges point at nodes of that same level,
the one place the level-per-edge bookkeeping is slack; representatives are
also the one exception to "at most one node per (level, formula)".

`cleanse` collapses every separation node to a repetition node (rule "R",
one premise, same formula), keeping the representative of the group that
contains the leftmost origin occurrence, then garbage-collects. The result
uses only {Hyp, ImpIntro, ImpElim, R} and is what `verify_dag` accepts:
an independent bottom-up check with memoized open-assumption sets, where R
is transparent and S is rejected.

All occurrences of one proof object at one level share formula, child
classes and derivation, so compression and the coherence count work once
per such (node, level) *site*, not per tree occurrence. Compression is one
level pass: reading a level in site order numbers the next level's sites
and merge classes as they are first met, pushes occurrence counts down,
and keys the level's derivation groups; then the level's nodes are
emitted. Every site of a level is met while the level above is read, so
its class is complete before it is read itself. Sites therefore run level
by level, and within a level in order of first preorder occurrence; a
site's premise sites always come after it, and every later pass runs in
index order: forward for anything pushed from parents to children,
backward for anything gathered from children. An `OriginMap` records where
every site landed and how many occurrences it stands for. The pass makes
no reference cycles, and neither does reading a document back
(`TestNoReferenceCycles` guards the whole pipeline, the tree document's
round trip included), so `compress_horizontal` and `loads_dag` both pause
the cyclic collector, whose runs would find nothing.

`compress_and_verify` is the one copy of the compression sequence:
compress, cleanse, serialize, reload, and verify the reloaded dag. `nonham
compress` calls it, and so does `bench.run_pipeline`, the stage sequence
the bench and the acceptance tests share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .artifact import (
    collector_paused,
    encode,
    id_error,
    loads_document,
    open_document,
    record_error,
    reference_error,
)
from .errors import (
    IllFormedDagError,
    NoCoherentChoiceError,
    OpenAssumptionsError,
    ProofFormatError,
    UnsupportedRuleError,
)
from .formulas import IMP, Formula, table_id
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


@dataclass(slots=True)
class DagNode:
    formula: Formula
    rule: str
    premises: tuple[int, ...]
    level: int


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
    """Sites -> dag nodes. A site is one proof object at one level, keyed
    by the object itself. Sites are numbered in the order compression's
    level pass first meets them: level by level, and within a level in
    preorder of first occurrence (site 0 is the root), so the levels of the
    sites' nodes never decrease.

    `children_of` lists a site's premise sites in premise order, `mult`
    counts its tree occurrences, and `group_of` records which derivation
    group of its merge class it fell into; group 0 is the one containing
    the class's first preorder occurrence, which is also the premise
    `cleanse` keeps.
    """

    node_of: list[int]
    group_of: list[int]
    children_of: list[list[int]]
    mult: list[int]

    def __len__(self) -> int:
        """Tree occurrences, summed over sites."""
        return sum(self.mult)


@collector_paused
def compress_horizontal(p: ProofTree) -> tuple[DagProof, OriginMap]:
    """Merge same-level same-formula occurrences of an implicational tree in
    one level pass over its sites (see the module docstring). The cyclic
    collector is paused for the pass, which makes no reference cycles, and
    left as it was found."""
    sites = [p]  # proof object of each site
    mult = [1]
    children_of: list[list[int]] = []
    node_of: list[int] = []
    group_of: list[int] = []
    # merge classes keyed by (level, formula); ids run level by level, in
    # order of first site
    site_class = [0]
    class_first = [0]
    class_size = [1]
    group_count = [0]
    nodes: list[DagNode] = []
    tree_weight = 0
    level = lo = cls_lo = offset = 0
    while lo < len(sites):
        hi, cls_hi = len(sites), len(class_first)
        # Read the level in site order. Each node's premises are numbered as
        # the next level's sites and classes when first met, and take their
        # share of its occurrences; every site of this level was met on the
        # level above, so its class size is final and its group is keyed now.
        next_site: dict[ProofTree, int] = {}
        next_class: dict[Formula, int] = {}
        groups: dict[tuple, int] = {}
        firsts: list[int] = []  # first sites of groups, in site order
        for s in range(lo, hi):
            node = sites[s]
            if node.rule not in IMPLICATIONAL_RULES:
                raise UnsupportedRuleError(
                    f"horizontal compression handles implicational proofs only, got {node.rule}")
            m = mult[s]
            tree_weight += m * node.conclusion.weight
            ch = []
            for c in node.premises:
                t = next_site.get(c)
                if t is None:
                    t = next_site[c] = len(sites)
                    sites.append(c)
                    mult.append(m)
                    cid = next_class.get(c.conclusion)
                    if cid is None:
                        cid = next_class[c.conclusion] = len(class_first)
                        class_first.append(t)
                        class_size.append(1)
                        group_count.append(0)
                    else:
                        class_size[cid] += 1
                    site_class.append(cid)
                else:
                    mult[t] += m
                ch.append(t)
            children_of.append(ch)
            cid = site_class[s]
            node_of.append(cid + offset)
            gi = 0  # a lone site is group 0 of its class
            if class_size[cid] > 1:
                # child sites are read by count: implicational rules take at
                # most two premises, and the last branch keeps any other count
                if not ch:
                    key = (cid, node.rule, node.discharge)
                elif len(ch) == 1:
                    key = (cid, node.rule, node.discharge, site_class[ch[0]])
                elif len(ch) == 2:
                    key = (cid, node.rule, node.discharge, site_class[ch[0]], site_class[ch[1]])
                else:
                    key = (cid, node.rule, node.discharge, *[site_class[c] for c in ch])
                gi = groups.get(key)
                if gi is None:
                    gi = groups[key] = group_count[cid]
                    group_count[cid] += 1
                    firsts.append(s)
            group_of.append(gi)
        reps = [s for s in firsts if group_count[site_class[s]] > 1]
        below = offset + len(reps)  # offset of the next level's classes

        # Emit the level's classes (a lone derivation or a separation node),
        # then the representatives of its separation nodes one level below,
        # by first site of their group. A class's node sits at its id plus
        # the representatives of the levels above it.
        classes = class_first[cls_lo:cls_hi]
        sep_premises: dict[int, list[int]] = {}
        for k, s in enumerate(classes + reps):
            node = sites[s]
            cid = site_class[s]
            rep = k >= len(classes)
            if not rep and group_count[cid] > 1:
                sep_premises[cid] = []
                nodes.append(DagNode(node.conclusion, SEP, (), level))
                continue
            ch = children_of[s]
            if not ch:
                premises = ()
            elif len(ch) == 1:
                premises = (site_class[ch[0]] + below,)
            elif len(ch) == 2:
                premises = (site_class[ch[0]] + below, site_class[ch[1]] + below)
            else:
                premises = tuple([site_class[c] + below for c in ch])
            if rep:
                sep_premises[cid].append(len(nodes))
                nodes.append(DagNode(node.conclusion, node.rule, premises, level + 1))
            else:
                nodes.append(DagNode(node.conclusion, node.rule, premises, level))
        for cid, premises in sep_premises.items():
            nodes[cid + offset].premises = tuple(premises)
        level, lo, cls_lo, offset = level + 1, hi, cls_hi, below

    dag = DagProof(nodes=nodes, root=0, source_tree_weight=tree_weight,
                   had_duplicates=len(class_first) < sum(mult))
    origin = OriginMap(node_of=node_of, group_of=group_of,
                       children_of=children_of, mult=mult)
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
    is, and a surviving path down depends on the site's subtree only. Sites
    follow their parents, so the up pass runs forward and the down pass
    backward.
    """
    group_of = om.group_of
    children_of = om.children_of
    node_of = om.node_of
    total = len(group_of)
    up = [False] * total
    up[0] = True
    for s in range(total):
        if up[s]:
            if group_of[s]:
                up[s] = False
            else:
                for c in children_of[s]:
                    up[c] = True
    down = [False] * total
    survivors = set()
    for s in range(total - 1, -1, -1):
        if group_of[s]:
            continue
        ch = children_of[s]
        reaches = not ch
        for c in ch:
            if down[c]:
                reaches = True
                break
        if reaches:
            down[s] = True
            if up[s]:
                survivors.add(node_of[s])
    return [i for i, node in enumerate(d.nodes)
            if node.rule == SEP and i not in survivors]


def cleanse(d: DagProof, om: OriginMap | None = None, source=None,
            strict: bool = True) -> DagProof:
    """Collapse every separation node to a repetition keeping the premise
    of the group containing the leftmost origin occurrence, then drop
    unreachable nodes.

    With an origin map, separation nodes through which no source thread
    survives the collapse raise NoCoherentChoiceError (strict, the default)
    or are still collapsed deterministically (strict=False). Without an
    origin map nothing is checked, and the collapse is the same. The
    failure is an experimental outcome of the compression, not a
    malfunction, and the collapsed dag still exists either way;
    `verify_dag` is the arbiter.

    Premise ids must follow their node, as in every dag `compress_horizontal`
    builds and every serialized one; any other id raises IllFormedDagError.
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
    # premises follow their node, so one forward pass from the root marks
    # every reachable node before it is read; remap holds -1 for a node not
    # reached and then the node's new id
    n = len(d.nodes)
    remap = [-1] * n
    remap[d.root] = 0
    kept: list[DagNode] = []
    for i in range(d.root, n):
        if remap[i] < 0:
            continue
        node = d.nodes[i]
        if node.rule == SEP:
            if not node.premises:
                raise NoCoherentChoiceError(f"separation node {i} has no premises")
            # group order is first-seen over preorder occurrences, so the
            # first premise is the leftmost-origin derivation
            node = DagNode(node.formula, REP, node.premises[:1], node.level)
        for q in node.premises:
            if not i < q < n:
                raise IllFormedDagError(i, "premises must come after the node")
            remap[q] = 0
        remap[i] = len(kept)
        kept.append(node)
    nodes: list[DagNode] = []
    for node in kept:
        prem = node.premises
        if len(prem) == 1:
            prem = (remap[prem[0]],)
        elif len(prem) == 2:
            prem = (remap[prem[0]], remap[prem[1]])
        elif prem:
            prem = tuple([remap[q] for q in prem])
        nodes.append(DagNode(node.formula, node.rule, prem, node.level))
    return DagProof(nodes=nodes, root=0,
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
            if not (type(q) is int and 0 <= q < n):
                raise IllFormedDagError(i, f"premise id {q!r} out of range")
            if q <= i:
                raise IllFormedDagError(i, "premises must come after the node")


def _measure(d: DagProof) -> Metrics:
    """Independent bottom-up check of a cleansed dag proof, in one backward
    pass that also measures it; `open_assumptions` is the root's open set.

    Rejects separation nodes outright; repetition nodes are transparent for
    both the formula and the open-assumption set. Premise ids must strictly
    follow the node (the serialized order), which makes acyclicity a local
    check. Open sets are memoized per node, as `HypothesisBits` masks; on
    dags this is what makes verification feasible.
    """
    _structure_check(d)
    n = len(d.nodes)
    hyps = HypothesisBits()
    opens = [0] * n
    heights = [0] * n
    weight = 0
    formulas: set[Formula] = set()
    for i in range(n - 1, -1, -1):
        node = d.nodes[i]
        prem = node.premises
        f = node.formula
        weight += f.weight
        formulas.add(f)
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

    return Metrics(
        height=heights[d.root],
        weight=weight,
        distinct_formula_weight=sum(f.weight for f in formulas),
        open_assumptions=hyps.formulas(opens[d.root]),
    )


def verify_dag(d: DagProof) -> Metrics:
    """Independent verification of a cleansed dag proof by `_measure`'s
    rules; an open root raises OpenAssumptionsError with its open set."""
    metrics = _measure(d)
    if metrics.open_assumptions:
        raise OpenAssumptionsError(metrics.open_assumptions)
    return metrics


def dag_height(d: DagProof) -> int:
    """Longest root-to-leaf path length in nodes (no verification)."""
    _structure_check(d)
    n = len(d.nodes)
    heights = [0] * n
    for i in range(n - 1, -1, -1):
        h = 0
        for q in d.nodes[i].premises:
            if heights[q] > h:
                h = heights[q]
        heights[i] = h + 1
    return heights[d.root]


_DAG_FIELDS = frozenset({"id", "rule", "formula", "premises", "level"})


def dumps_dag(d: DagProof) -> str:
    """Canonical JSON text of the dag document: the formula table, the node
    array (`formula` holds a table id), the root and the source tree's
    weight."""
    index: dict[Formula, int] = {}
    table: list[str] = []
    rules: dict[str, str] = {}
    records: list[str] = []
    for i, node in enumerate(d.nodes):
        fi = index.get(node.formula)
        if fi is None:
            fi = table_id(node.formula, index, table)
        rule = rules.get(node.rule)
        if rule is None:
            rule = rules[node.rule] = encode(node.rule)
        records.append(f'{{"formula":{fi},"id":{i},"level":{node.level},'
                       f'"premises":[{",".join(map(str, node.premises))}],"rule":{rule}}}')
    return (f'{{"formulas":[{",".join(table)}],"had_duplicates":{encode(d.had_duplicates)},'
            f'"kind":"dag","nodes":[{",".join(records)}],"root":{encode(d.root)},'
            f'"source_tree_weight":{encode(d.source_tree_weight)}}}\n')


def dag_from_json(data) -> DagProof:
    """Rebuild a dag from its document. Schema errors raise ProofFormatError;
    premise ranges are left to `verify_dag`."""
    table, records = open_document(data, "dag")
    size = len(table)
    nodes: list[DagNode] = []
    for pos, rec in enumerate(records):
        try:
            rid, rule, ref = rec["id"], rec["rule"], rec["formula"]
            prem, level = rec["premises"], rec["level"]
        except (KeyError, TypeError):
            raise record_error(rec, pos, _DAG_FIELDS) from None
        if type(rid) is not int or rid != pos:
            raise id_error(pos)
        if rule not in DAG_RULES:
            raise ProofFormatError(f"dag node {pos}: unknown rule {rule!r:.40}")
        if not isinstance(prem, list):
            raise ProofFormatError(f"dag node {pos}: premises must be integer ids")
        for q in prem:
            if type(q) is not int:
                raise ProofFormatError(f"dag node {pos}: premises must be integer ids")
        if type(level) is not int:
            raise ProofFormatError(f"dag node {pos}: level must be an integer")
        if type(ref) is not int or not 0 <= ref < size:
            raise reference_error(pos)
        nodes.append(DagNode(table[ref], rule, tuple(prem), level))
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


@collector_paused
def loads_dag(text: str) -> DagProof:
    """Read a dag document with the cyclic collector paused."""
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
    dag = compress_horizontal(p)[0]
    text = dumps_dag(cleanse(dag))
    cleansed = loads_dag(text)
    if cleansed.conclusion is not p.conclusion:
        raise IllFormedDagError(cleansed.root, "conclusion drifted from the source proof")
    m = _measure(cleansed)
    return Compression(dag, cleansed, text, m.weight, m.height, m.open_assumptions)
