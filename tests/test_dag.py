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
from nonham.formulas import bot, conj, imp, q_var, x_var
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
        p = two_derivations_proof()
        d, om = compress_horizontal(p)
        occurrences = 0
        stack = [p]
        while stack:
            node = stack.pop()
            occurrences += 1
            stack.extend(node.premises)
        assert len(om) == occurrences
        assert om.parent_of[0] == -1 and om.level_of[0] == 0
        for o in range(len(om)):
            node = d.nodes[om.node_of[o]]
            assert node.level == om.level_of[o]
            assert om.group_of[o] >= 0
        assert om.group_of[0] == 0


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


class TestEmbeddingAgreement:
    @given(implicational_proofs())
    @settings(max_examples=80)
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
