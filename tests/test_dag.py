"""Tests for horizontal compression, cleansing, and dag verification."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from nonham.bench import chain_graph
from nonham.builder import build_refutation
from nonham import dagproof
from nonham.dagproof import (
    DagNode,
    DagProof,
    cleanse,
    coherence_failures,
    compress_and_verify,
    compress_horizontal,
    dag_from_json,
    dag_height,
    dag_to_json,
    dumps_dag,
    loads_dag,
    tree_to_dag,
    verify_dag,
)
from nonham.errors import (
    IllFormedDagError,
    NoCoherentChoiceError,
    OpenAssumptionsError,
    ProofFormatError,
    UnsupportedRuleError,
)
from nonham.formulas import IMP, bot, conj, imp, q_var, x_var
from nonham.graphs import Graph, enumerate_graphs, is_hamiltonian
from nonham.implicational import translate_formula, translate_proof
from nonham.prooftree import (
    and_elim_l,
    check_tree,
    dumps_proof,
    hyp,
    imp_elim,
    imp_intro,
    loads_proof,
    proof_to_json,
)

A, B, C, R = (q_var(name) for name in "abcr")


def two_derivations_proof():
    """A closed proof holding two distinct same-level derivations of B.

    One branch proves B as a hypothesis, the other by ImpElim; both sit at
    the same depth, so compression merges them into one separation node
    with two representative groups.
    """
    d1 = hyp(B)
    d2 = imp_elim(hyp(imp(A, B)), hyp(A))
    mid1 = imp_elim(hyp(imp(B, imp(C, R))), d1)
    mid2 = imp_elim(hyp(imp(B, C)), d2)
    top = imp_elim(mid1, mid2)
    p = top
    for f in (B, A, imp(A, B), imp(B, C), imp(B, imp(C, R))):
        p = imp_intro(p, f)
    return p


def doubling_proof(k):
    """A closed proof of A -> A with 2k + 2 distinct nodes and 2^(k+2) - 2
    occurrences: each round applies (p.conclusion -> p.conclusion) to p,
    both through the same object p."""
    p = imp_intro(hyp(A), A)
    for _ in range(k):
        p = imp_elim(imp_intro(p, p.conclusion), p)
    return p


def pipeline(g):
    """Refute g, translate the refutation, and compress the translation."""
    report = build_refutation(g)
    t = translate_formula(report.proof.conclusion)
    q = translate_proof(report.proof, t)
    return q, check_tree(q), compress_and_verify(q)


def sep_ids(d):
    return [i for i, node in enumerate(d.nodes) if node.rule == "S"]


def table_bytes_per_item(text):
    """Serialized bytes per node record plus formula table entry."""
    doc = json.loads(text)
    return len(text.encode("utf-8")) / (len(doc["nodes"]) + len(doc["formulas"]))


def edit_node(doc, pos, **fields):
    """Copy of a dag document with node `pos` updated by `fields`."""
    nodes = list(doc["nodes"])
    nodes[pos] = dict(nodes[pos], **fields)
    return dict(doc, nodes=nodes)


class TestTreeToDag:
    def test_closed_tree_verifies_with_equal_metrics(self):
        p = imp_intro(imp_elim(hyp(imp(A, B)), hyp(A)), A)
        p = imp_intro(p, imp(A, B))
        tm = check_tree(p)
        d = tree_to_dag(p)
        dm = verify_dag(d)
        assert (dm.height, dm.weight) == (tm.height, tm.weight)
        assert dm.distinct_formula_weight == tm.distinct_formula_weight
        assert d.conclusion is p.conclusion
        assert not d.had_duplicates

    def test_open_tree_reports_the_open_set(self):
        p = imp_elim(hyp(imp(A, B)), hyp(A))
        with pytest.raises(OpenAssumptionsError) as err:
            verify_dag(tree_to_dag(p))
        assert err.value.open_set == check_tree(p).open_assumptions

    def test_rejects_non_implicational_rules(self):
        with pytest.raises(UnsupportedRuleError):
            tree_to_dag(and_elim_l(hyp(conj(A, B))))
        with pytest.raises(UnsupportedRuleError):
            compress_horizontal(and_elim_l(hyp(conj(A, B))))


class TestCompression:
    def test_duplicate_free_proofs_produce_no_separation(self):
        p = imp_intro(hyp(A), A)
        d, om = compress_horizontal(p)
        assert not d.had_duplicates
        assert sep_ids(d) == []
        assert len(om) == 2
        star = cleanse(d, om, source=p)
        assert verify_dag(star).weight == check_tree(p).weight

    def test_two_derivation_merge_is_coherent_and_verifies(self):
        p = two_derivations_proof()
        assert check_tree(p).open_assumptions == frozenset()
        d, om = compress_horizontal(p)
        seps = sep_ids(d)
        assert len(seps) == 1
        assert d.nodes[seps[0]].formula is B
        assert len(d.nodes[seps[0]].premises) == 2
        assert d.had_duplicates
        assert coherence_failures(d, om) == []
        star = cleanse(d, om, source=p)
        assert sep_ids(star) == []
        m = verify_dag(star)
        assert star.conclusion is p.conclusion
        assert m.weight < check_tree(p).weight

    def test_merge_drops_the_unchosen_derivation(self):
        p = two_derivations_proof()
        d, om = compress_horizontal(p)
        star = cleanse(d, om, source=p)
        formulas = {node.formula for node in star.nodes}
        # the ImpElim derivation of B and its hypotheses are unreachable
        # after the collapse keeps the leftmost (hypothesis) group
        assert A not in formulas
        assert imp(A, B) not in formulas

    def test_cleanse_checks_the_source_conclusion(self):
        p = two_derivations_proof()
        d, om = compress_horizontal(p)
        with pytest.raises(ValueError):
            cleanse(d, om, source=hyp(A))

    def test_origin_map_is_total_and_level_true(self):
        for p in (two_derivations_proof(), doubling_proof(4)):
            d, om = compress_horizontal(p)
            occurrences = 0
            stack = [p]
            while stack:
                node = stack.pop()
                occurrences += 1
                stack.extend(node.premises)
            assert len(om) == sum(om.mult) == occurrences
            assert om.level_of[0] == 0 and om.mult[0] == 1 and om.group_of[0] == 0
            for s in range(len(om.mult)):
                assert d.nodes[om.node_of[s]].level == om.level_of[s]
                assert om.group_of[s] >= 0 and om.mult[s] >= 1
                assert all(om.level_of[c] == om.level_of[s] + 1 for c in om.children_of[s])


class TestPipelineOutcomes:
    def test_n2_collapse_is_coherent_but_opens_assumptions(self):
        # the (level, formula) merge on the smallest refutation produces one
        # separation node whose collapse has a surviving source thread yet
        # strands two case hypotheses: the dag verifier is the arbiter
        q, _, c = pipeline(Graph(2, frozenset()))
        assert c.dag.had_duplicates
        assert len(sep_ids(c.dag)) == 1
        assert c.incoherent == 0
        assert c.open_set == frozenset({x_var(1, 1), x_var(2, 2)})
        assert c.verdict == "open_assumptions[2]"
        # a coherent collapse passes the strict cleanse to the same verdict
        d, om = compress_horizontal(q)
        with pytest.raises(OpenAssumptionsError) as err:
            verify_dag(cleanse(d, om, source=q))
        assert err.value.open_set == c.open_set

    def test_n3_collapse_has_no_coherent_choice(self):
        q, _, c = pipeline(Graph(3, frozenset()))
        assert c.incoherent > 0
        assert sep_ids(c.cleansed) == []
        assert not c.verified
        d, om = compress_horizontal(q)
        assert len(coherence_failures(d, om)) == c.incoherent
        with pytest.raises(NoCoherentChoiceError):
            cleanse(d, om, source=q)

    def test_compressed_weight_never_exceeds_tree_weight(self):
        for n in (2, 3):
            for g in enumerate_graphs(n):
                if is_hamiltonian(g) is not None:
                    continue
                q, tm, c = pipeline(g)
                assert c.weight == sum(node.formula.weight for node in c.cleansed.nodes)
                assert c.weight <= tm.weight
                assert c.dag.source_tree_weight == tm.weight
                assert c.cleansed.conclusion is q.conclusion
                assert c.height == dag_height(c.cleansed) >= 1

    def test_compression_reports_the_reloaded_dag(self):
        p = two_derivations_proof()
        c = compress_and_verify(p)
        d, om = compress_horizontal(p)
        assert c.text == dumps_dag(cleanse(d, om, source=p))
        assert dumps_dag(c.cleansed) == c.text
        assert c.dag.had_duplicates and c.incoherent == 0
        m = verify_dag(c.cleansed)
        assert c.verified and c.verdict == "verified" and c.open_set == frozenset()
        assert (c.weight, c.height) == (m.weight, m.height)

    def test_conclusion_drift_is_a_dag_error(self, monkeypatch):
        monkeypatch.setattr(dagproof, "loads_dag", lambda text: tree_to_dag(hyp(A)))
        with pytest.raises(IllFormedDagError, match="drifted"):
            compress_and_verify(two_derivations_proof())


class TestVerifyRejections:
    def test_separation_nodes_are_rejected(self):
        _, _, c = pipeline(Graph(2, frozenset()))
        with pytest.raises(IllFormedDagError) as err:
            verify_dag(c.dag)
        assert "separation" in str(err.value)

    def test_structural_rejections(self):
        a = q_var("a")
        with pytest.raises(IllFormedDagError):
            verify_dag(DagProof(nodes=[], root=0))
        with pytest.raises(IllFormedDagError):
            verify_dag(DagProof(nodes=[DagNode(a, "Hyp", (), 0)], root=3))
        backward = DagProof(
            nodes=[
                DagNode(a, "R", (0,), 0),
            ],
            root=0,
        )
        with pytest.raises(IllFormedDagError):
            verify_dag(backward)
        with pytest.raises(IllFormedDagError):
            verify_dag(DagProof(nodes=[DagNode(a, "Cut", (), 0)], root=0))

    def test_local_rule_rejections(self):
        a, b = q_var("a"), q_var("b")
        rep_changes = DagProof(
            nodes=[DagNode(a, "R", (1,), 0), DagNode(b, "Hyp", (), 1)], root=0
        )
        with pytest.raises(IllFormedDagError):
            verify_dag(rep_changes)
        bad_intro = DagProof(
            nodes=[DagNode(imp(a, b), "ImpIntro", (1,), 0), DagNode(a, "Hyp", (), 1)],
            root=0,
        )
        with pytest.raises(IllFormedDagError):
            verify_dag(bad_intro)
        bad_elim = DagProof(
            nodes=[
                DagNode(b, "ImpElim", (1, 2), 0),
                DagNode(imp(a, b), "Hyp", (), 1),
                DagNode(b, "Hyp", (), 1),
            ],
            root=0,
        )
        with pytest.raises(IllFormedDagError):
            verify_dag(bad_elim)
        hyp_with_premises = DagProof(
            nodes=[DagNode(a, "Hyp", (1,), 0), DagNode(a, "Hyp", (), 1)], root=0
        )
        with pytest.raises(IllFormedDagError):
            verify_dag(hyp_with_premises)

    def test_open_single_hypothesis(self):
        with pytest.raises(OpenAssumptionsError):
            verify_dag(tree_to_dag(hyp(q_var("a"))))


class TestDagJson:
    def test_round_trip_is_byte_stable(self):
        p = two_derivations_proof()
        d, om = compress_horizontal(p)
        star = cleanse(d, om, source=p)
        text = dumps_dag(star)
        again = loads_dag(text)
        assert dumps_dag(again) == text
        assert verify_dag(again) == verify_dag(star)
        assert again.source_tree_weight == star.source_tree_weight
        assert again.had_duplicates == star.had_duplicates
        assert again.root == star.root

    def test_uncleansed_dag_round_trips_too(self):
        p = two_derivations_proof()
        d, _ = compress_horizontal(p)
        again = loads_dag(dumps_dag(d))
        assert sep_ids(again) == sep_ids(d)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: [],
            lambda doc: {"kind": "dag", "root": 0},
            lambda doc: dict(doc, nodes=[]),
            lambda doc: dict(doc, nodes=[dict(doc["nodes"][0], id=9)] + doc["nodes"][1:]),
            lambda doc: dict(doc, nodes=[dict(doc["nodes"][0], rule="Cut")] + doc["nodes"][1:]),
            lambda doc: dict(doc, nodes=[dict(doc["nodes"][0], premises=["1"])] + doc["nodes"][1:]),
            lambda doc: dict(doc, nodes=[dict(doc["nodes"][0], level="top")] + doc["nodes"][1:]),
            lambda doc: dict(doc, nodes=[dict(doc["nodes"][0], formula="((")] + doc["nodes"][1:]),
            lambda doc: dict(doc, root=99),
            lambda doc: dict(doc, source_tree_weight="big"),
        ],
    )
    def test_corrupted_documents_rejected(self, mutate):
        p = imp_intro(hyp(q_var("a")), q_var("a"))
        doc = dag_to_json(tree_to_dag(p))
        with pytest.raises(ProofFormatError):
            dag_from_json(mutate(doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "kind"},
                         id="no-kind"),
            pytest.param(lambda doc: dict(doc, kind="tree"), id="tree-kind"),
            pytest.param(lambda doc: dict(doc, nodes="all"), id="nodes-not-a-list"),
            pytest.param(lambda doc: dict(doc, nodes=[7]), id="node-not-an-object"),
            pytest.param(lambda doc: dict(doc, nodes=[{"id": 0}]), id="missing-fields"),
            pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "formulas"},
                         id="no-table"),
            pytest.param(lambda doc: dict(doc, formulas="Q_a"), id="table-not-a-list"),
            pytest.param(lambda doc: dict(doc, formulas=[["->", 0, 1], ["var", "Q_a"]]),
                         id="forward-formula-reference"),
            pytest.param(lambda doc: dict(doc, formulas=[["->", 0, 0]]),
                         id="self-formula-reference"),
            pytest.param(lambda doc: dict(doc, formulas=[["var", "Q_a"], ["->", 0, 0, 0]]),
                         id="wrong-arity"),
            pytest.param(lambda doc: dict(doc, formulas=[["var", "Q_a"], ["=>", 0, 0]]),
                         id="unknown-tag"),
            pytest.param(lambda doc: dict(doc, formulas=[["var", "X_1"], ["->", 0, 0]]),
                         id="bad-variable-name"),
            pytest.param(lambda doc: edit_node(doc, 0, formula=5),
                         id="formula-id-out-of-range"),
            pytest.param(lambda doc: edit_node(doc, 0, formula=None), id="formula-id-null"),
            pytest.param(lambda doc: edit_node(doc, 0, premises=1), id="premises-not-a-list"),
            pytest.param(lambda doc: edit_node(doc, 0, id=True), id="boolean-node-id"),
            pytest.param(lambda doc: edit_node(doc, 0, premises=[True]), id="boolean-premise"),
            pytest.param(lambda doc: edit_node(doc, 0, level=False), id="boolean-level"),
            pytest.param(lambda doc: edit_node(doc, 0, formula=True),
                         id="boolean-formula-ref"),
            pytest.param(lambda doc: dict(doc, root=False), id="boolean-root"),
            pytest.param(lambda doc: dict(doc, root=-1), id="negative-root"),
            pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "root"},
                         id="no-root"),
            pytest.param(lambda doc: dict(doc, source_tree_weight=True),
                         id="boolean-source-weight"),
            pytest.param(lambda doc: dict(doc, had_duplicates="no"), id="string-duplicates"),
            pytest.param(lambda doc: dict(doc, had_duplicates=0), id="integer-duplicates"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        p = imp_intro(hyp(q_var("a")), q_var("a"))
        doc = dag_to_json(tree_to_dag(p))
        dag_from_json(doc)
        with pytest.raises(ProofFormatError):
            dag_from_json(mutate(doc))

    def test_document_layout(self):
        p = imp_intro(hyp(q_var("a")), q_var("a"))
        doc = dag_to_json(tree_to_dag(p))
        assert doc == {
            "kind": "dag",
            "formulas": [["var", "Q_a"], ["->", 0, 0]],
            "nodes": [
                {"id": 0, "rule": "ImpIntro", "formula": 1, "premises": [1], "level": 0},
                {"id": 1, "rule": "Hyp", "formula": 0, "premises": [], "level": 1},
            ],
            "root": 0,
            "source_tree_weight": 4,
            "had_duplicates": False,
        }

    def test_artifacts_grow_linearly(self):
        # Each formula is written once in the table, so a node costs a
        # bounded number of bytes. Formula text on every node, quadratic
        # along the axiom-fold spine, took 430 bytes a node in this proof
        # and 780 in its dag.
        report = build_refutation(chain_graph(5), mode="pruned")
        q = translate_proof(report.proof, translate_formula(report.proof.conclusion))
        assert table_bytes_per_item(dumps_proof(q)) <= 100
        assert table_bytes_per_item(compress_and_verify(q).text) <= 100

    def test_bad_json_text(self):
        with pytest.raises(ProofFormatError):
            loads_dag("]{")
        with pytest.raises(ProofFormatError):
            loads_dag("{" * 100_000)
        with pytest.raises(ProofFormatError):
            loads_dag('{"a":' * 100_000 + "0" + "}" * 100_000)


ATOMS = [q_var(name) for name in "abc"] + [q_var("bot")]


@st.composite
def implicational_proofs(draw, depth=0):
    if depth >= 4 or draw(st.booleans()):
        return hyp(draw(st.sampled_from(ATOMS)))
    sub = draw(implicational_proofs(depth=depth + 1))
    if draw(st.booleans()):
        return imp_intro(sub, draw(st.sampled_from(ATOMS)))
    target = draw(st.sampled_from(ATOMS))
    return imp_elim(hyp(imp(sub.conclusion, target)), sub)


WIDE_ATOMS = [q_var(f"w{i}") for i in range(80)]


@st.composite
def shared_proofs(draw, atoms=ATOMS):
    """Implicational proofs built from a pool of earlier proofs, reusing
    the pool's objects: one object can sit at several levels and under
    several parents, so sites and occurrences differ."""
    pick = st.sampled_from(atoms)
    pool = [hyp(draw(pick))]
    for _ in range(draw(st.integers(1, 16))):
        sub = draw(st.sampled_from(pool))
        step = draw(st.sampled_from(("intro", "elim", "apply", "double", "pair")))
        c = sub.conclusion
        if step == "intro":
            new = imp_intro(sub, draw(pick))
        elif step == "elim":
            new = imp_elim(hyp(imp(c, draw(pick))), sub)
        elif step == "double":
            new = imp_elim(imp_intro(sub, c), sub)
        elif step == "pair":
            # `sub` and `other` (possibly `sub` again) at the same level
            other = draw(st.sampled_from(pool))
            d, e = draw(pick), draw(pick)
            new = imp_elim(imp_elim(hyp(imp(c, imp(d, e))), sub),
                           imp_elim(hyp(imp(other.conclusion, d)), other))
        else:
            pairs = [(q, r) for q in pool for r in pool
                     if q.conclusion.kind == IMP and q.conclusion.left is r.conclusion]
            new = imp_elim(*draw(st.sampled_from(pairs))) if pairs else hyp(draw(pick))
        pool.append(new)
    return pool[-1]


class TestEmbeddingAgreement:
    @given(st.one_of(implicational_proofs(), shared_proofs(atoms=WIDE_ATOMS)))
    @settings(max_examples=160)
    def test_verify_dag_matches_check_tree_on_embeddings(self, p):
        tm = check_tree(p)
        d = tree_to_dag(p)
        if tm.open_assumptions:
            with pytest.raises(OpenAssumptionsError) as err:
                verify_dag(d)
            assert err.value.open_set == tm.open_assumptions
        else:
            dm = verify_dag(d)
            assert (dm.height, dm.weight) == (tm.height, tm.weight)

    @given(implicational_proofs())
    @settings(max_examples=80)
    def test_serialization_is_a_fixed_point(self, p):
        for d in (tree_to_dag(p), compress_horizontal(p)[0]):
            text = dumps_dag(d)
            again = loads_dag(text)
            assert dumps_dag(again) == text
            assert again.conclusion is p.conclusion


def reference_compress(p):
    """Horizontal compression run once per tree occurrence, as the
    definition reads: the reference the per-site compressor must match.

    Returns the dag and, per preorder occurrence, the dag node it landed
    on, its parent occurrence (-1 for the root) and its derivation group.
    """
    occ_nodes, occ_parent, occ_level, occ_children = [], [], [], []
    stack = [(p, -1)]
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
    total = len(occ_nodes)
    tree_weight = sum(node.conclusion.weight for node in occ_nodes)

    class_ids, class_occs, occ_class = {}, [], [0] * total
    for oid in range(total):
        key = (occ_level[oid], occ_nodes[oid].conclusion)
        if key not in class_ids:
            class_ids[key] = len(class_occs)
            class_occs.append([])
        occ_class[oid] = class_ids[key]
        class_occs[occ_class[oid]].append(oid)

    def signature(oid):
        node = occ_nodes[oid]
        return (node.rule, node.discharge, tuple(occ_class[c] for c in occ_children[oid]))

    records, class_record, occ_group = [], [], [0] * total
    for cid, occs in enumerate(class_occs):
        level, formula = occ_level[occs[0]], occ_nodes[occs[0]].conclusion
        groups, group_first = {}, []
        for oid in occs:
            sig = signature(oid)
            if sig not in groups:
                groups[sig] = len(group_first)
                group_first.append(oid)
            occ_group[oid] = groups[sig]
        plan = lambda oid: [("c", occ_class[c]) for c in occ_children[oid]]  # noqa: E731
        if len(groups) == 1:
            class_record.append(len(records))
            records.append(dict(formula=formula, rule=occ_nodes[occs[0]].rule, level=level,
                                is_rep=False, plan=plan(occs[0]), origin=occs[0]))
        else:
            rep_uids = []
            for gi, oid in enumerate(group_first):
                rep_uids.append((cid, gi))
                records.append(dict(formula=formula, rule=occ_nodes[oid].rule, level=level + 1,
                                    is_rep=True, plan=plan(oid), origin=oid, uid=(cid, gi)))
            class_record.append(len(records))
            records.append(dict(formula=formula, rule="S", level=level, is_rep=False,
                                plan=[("r", uid) for uid in rep_uids], origin=occs[0]))

    order = sorted(range(len(records)),
                   key=lambda i: (2 * records[i]["level"] - records[i]["is_rep"],
                                  records[i]["origin"]))
    position = {ri: pos for pos, ri in enumerate(order)}
    rep_position = {records[ri]["uid"]: position[ri]
                    for ri in range(len(records)) if records[ri]["is_rep"]}
    nodes = []
    for ri in order:
        rec = records[ri]
        premises = tuple(position[class_record[ref]] if kind == "c" else rep_position[ref]
                         for kind, ref in rec["plan"])
        nodes.append(DagNode(rec["formula"], rec["rule"], premises, rec["level"], rec["is_rep"]))
    dag = DagProof(nodes=nodes, root=0, source_tree_weight=tree_weight,
                   had_duplicates=any(len(occs) > 1 for occs in class_occs))
    node_of = [position[class_record[occ_class[oid]]] for oid in range(total)]
    return dag, (node_of, occ_parent, occ_group)


def reference_coherence_failures(d, occurrences):
    """`coherence_failures` run once per tree occurrence."""
    node_of, parent_of, group_of = occurrences
    total = len(node_of)
    children = [[] for _ in range(total)]
    for o in range(1, total):
        children[parent_of[o]].append(o)
    up_ok = [False] * total
    for o in range(total):
        up_ok[o] = group_of[o] == 0 and (parent_of[o] < 0 or up_ok[parent_of[o]])
    down_ok = [False] * total
    for o in range(total - 1, -1, -1):
        if group_of[o] == 0:
            down_ok[o] = not children[o] or any(down_ok[c] for c in children[o])
    survivors = {node_of[o] for o in range(total) if up_ok[o] and down_ok[o]}
    return [i for i, node in enumerate(d.nodes) if node.rule == "S" and i not in survivors]


def assert_matches_reference(p):
    d, om = compress_horizontal(p)
    ref, occurrences = reference_compress(p)
    assert dumps_dag(d) == dumps_dag(ref)
    assert [(n.level, n.is_rep) for n in d.nodes] == [(n.level, n.is_rep) for n in ref.nodes]
    assert (d.source_tree_weight, d.had_duplicates) == (ref.source_tree_weight, ref.had_duplicates)
    assert len(om) == len(occurrences[0])
    assert coherence_failures(d, om) == reference_coherence_failures(ref, occurrences)
    assert (dumps_dag(cleanse(d, om, source=p, strict=False))
            == dumps_dag(cleanse(ref, source=p, strict=False)))
    return d, om


class TestSiteCompression:
    @given(shared_proofs(atoms=ATOMS[:2]))
    @settings(max_examples=300)
    def test_shared_proofs_match_the_per_occurrence_definition(self, p):
        assert_matches_reference(p)

    @given(implicational_proofs())
    @settings(max_examples=50)
    def test_unshared_proofs_match_the_per_occurrence_definition(self, p):
        assert_matches_reference(p)

    def test_pipeline_proofs_match_the_per_occurrence_definition(self):
        for g in (Graph(2, frozenset()), Graph(3, frozenset()), chain_graph(3)):
            q, _, _ = pipeline(g)
            d, om = assert_matches_reference(q)
            assert len(om.mult) < len(om)
        _, _, c = pipeline(Graph(3, frozenset()))
        assert c.incoherent > 0

    def test_sites_grow_with_distinct_nodes_not_occurrences(self):
        for k in (1, 2, 5):
            assert_matches_reference(doubling_proof(k))
        d, om = compress_horizontal(doubling_proof(60))
        assert len(om) == 2**62 - 2
        assert len(om.mult) < 4000
        assert d.source_tree_weight == check_tree(doubling_proof(60)).weight


def word_passing_proof():
    """An open proof of w69 from w0 through 69 implication hypotheses: 70
    distinct hypothesis formulas, more bits than a machine word."""
    p = hyp(WIDE_ATOMS[0])
    for q in WIDE_ATOMS[1:70]:
        p = imp_elim(hyp(imp(p.conclusion, q)), p)
    return p


class TestOpenSetMasks:
    def test_more_hypotheses_than_a_machine_word(self):
        p = word_passing_proof()
        steps = [imp(a, b) for a, b in zip(WIDE_ATOMS[:69], WIDE_ATOMS[1:70])]
        # discharge the first and the last hypothesis the walk numbers
        q = imp_intro(imp_intro(p, steps[-1]), WIDE_ATOMS[0])
        with pytest.raises(OpenAssumptionsError) as err:
            verify_dag(tree_to_dag(q))
        assert err.value.open_set == check_tree(q).open_assumptions == frozenset(steps[:-1])
        for f in reversed(steps[:-1]):
            q = imp_intro(q, f)
        assert verify_dag(tree_to_dag(q)).weight == check_tree(q).weight

    def test_vacuous_discharge_keeps_the_mask(self):
        # B is discharged above A only, and assumed in the other premise
        p = imp_elim(imp_intro(hyp(A), B), hyp(B))
        with pytest.raises(OpenAssumptionsError) as err:
            verify_dag(tree_to_dag(p))
        assert err.value.open_set == check_tree(p).open_assumptions == frozenset({A, B})

    def test_open_set_keeps_formula_identities(self):
        p = imp_elim(hyp(imp(A, B)), hyp(A))
        with pytest.raises(OpenAssumptionsError) as err:
            verify_dag(tree_to_dag(p))
        assert {id(f) for f in err.value.open_set} == {id(imp(A, B)), id(A)}

    def test_error_text_is_sorted_before_the_cut(self):
        names = [q_var(f"e{i:02d}") for i in (7, 3, 11, 0, 9, 5, 2, 10, 1, 8, 4, 6)]
        first = OpenAssumptionsError(frozenset(names))
        again = set()
        for f in reversed(names):
            again.add(f)
        second = OpenAssumptionsError(again)
        assert str(first) == str(second) == (
            "dag proof has open assumptions: Q_e00, Q_e01, Q_e02, Q_e03, ...")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["tree", "dag", "var", "->", "Hyp", "X_1_1"]),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(st.text(max_size=4), sub, max_size=3),
    max_leaves=12,
)


def mutate(draw, value):
    """`value` with one sub-value, chosen by descending at random, replaced."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        copy = list(value) if isinstance(value, list) else dict(value)
        key = draw(st.sampled_from(range(len(copy)) if isinstance(copy, list) else sorted(copy)))
        copy[key] = mutate(draw, copy[key])
        return copy
    return draw(JSON_VALUES)


class TestLoaderFuzz:
    @given(implicational_proofs(), st.data())
    @settings(max_examples=100)
    def test_mutated_documents_fail_only_with_format_errors(self, p, data):
        for doc, load in ((proof_to_json(p), loads_proof),
                          (dag_to_json(compress_horizontal(p)[0]), loads_dag)):
            text = json.dumps(mutate(data.draw, doc))
            try:
                load(text)
            except ProofFormatError:
                pass
