"""Tests for proof trees: constructors, the checker of record, and JSON."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from nonham.errors import IllFormedProofError, ProofFormatError
from nonham.formulas import bot, chain_disj, conj, disj, imp, q_var
from nonham.prooftree import (
    ProofTree,
    and_elim_l,
    and_elim_r,
    check_tree,
    dumps_proof,
    hyp,
    imp_elim,
    imp_intro,
    is_normal,
    iter_nodes,
    loads_proof,
    or_elim,
    proof_from_json,
    subformula_ok,
)
from references import proof_to_json

A, B, C, D = (q_var(name) for name in "abcd")


def identity_proof(f):
    return imp_intro(hyp(f), f)


class TestConstructorsAndChecker:
    def test_single_hypothesis(self):
        m = check_tree(hyp(A))
        assert m.open_assumptions == frozenset({A})
        assert (m.height, m.weight, m.distinct_formula_weight) == (1, 1, 1)

    def test_identity_is_closed(self):
        m = check_tree(identity_proof(A))
        assert m.open_assumptions == frozenset()
        assert m.height == 2
        assert m.weight == 1 + imp(A, A).weight

    def test_k_combinator_vacuous_discharge(self):
        p = imp_intro(imp_intro(hyp(A), B), A)
        assert p.conclusion is imp(A, imp(B, A))
        assert check_tree(p).open_assumptions == frozenset()

    def test_and_elims(self):
        both = hyp(conj(A, B))
        assert and_elim_l(both).conclusion is A
        assert and_elim_r(both).conclusion is B
        m = check_tree(imp_intro(and_elim_l(both), conj(A, B)))
        assert m.open_assumptions == frozenset()

    def test_binary_or_elim(self):
        major = hyp(disj(A, A))
        p = imp_intro(or_elim(major, hyp(A), hyp(A)), disj(A, A))
        m = check_tree(p)
        assert p.conclusion is imp(disj(A, A), A)
        assert m.open_assumptions == frozenset()

    def test_three_case_or_elim(self):
        # a k-way split over a chain is not a rule: splits are binary
        chain = chain_disj([A, B, C])
        cases = [imp_elim(hyp(imp(x, D)), hyp(x)) for x in (A, B, C)]
        p = ProofTree(D, "OrElimN", (hyp(chain), *cases), (A, B, C))
        with pytest.raises(IllFormedProofError, match="two cases") as err:
            check_tree(p)
        assert err.value.path == ()

    def test_shared_subproof_counts_per_occurrence(self):
        leaf = hyp(A)
        p = or_elim(hyp(disj(A, A)), leaf, leaf)
        m = check_tree(p)
        assert m.weight == disj(A, A).weight + 3 * A.weight
        assert m.distinct_formula_weight == disj(A, A).weight + A.weight
        assert sum(1 for _ in iter_nodes(p)) == 3

    def test_heights_count_nodes(self):
        p = imp_intro(imp_intro(imp_intro(hyp(A), A), B), C)
        assert check_tree(p).height == 4


class TestFactoryRejections:
    def test_imp_elim_mismatch(self):
        with pytest.raises(IllFormedProofError):
            imp_elim(hyp(imp(A, B)), hyp(B))
        with pytest.raises(IllFormedProofError):
            imp_elim(hyp(A), hyp(A))

    def test_and_elim_needs_conjunction(self):
        with pytest.raises(IllFormedProofError):
            and_elim_l(hyp(A))
        with pytest.raises(IllFormedProofError):
            and_elim_r(hyp(imp(A, B)))

    def test_or_elim_validations(self):
        with pytest.raises(IllFormedProofError, match="not a disjunction"):
            or_elim(hyp(conj(A, B)), hyp(C), hyp(C))
        with pytest.raises(IllFormedProofError, match="disagree"):
            or_elim(hyp(disj(A, B)), hyp(A), hyp(B))
        p = or_elim(hyp(disj(A, B)), hyp(C), hyp(C))
        assert p.discharge == (A, B)
        assert check_tree(p).open_assumptions == frozenset({disj(A, B), C})


class TestCheckerRejections:
    def test_bad_imp_elim_at_root(self):
        bad = ProofTree(B, "ImpElim", (hyp(A), hyp(A)), ())
        with pytest.raises(IllFormedProofError) as err:
            check_tree(bad)
        assert err.value.path == ()
        assert "do not fit" in err.value.reason

    def test_path_points_at_the_bad_node(self):
        bad = ProofTree(B, "ImpElim", (hyp(A), hyp(A)), ())
        with pytest.raises(IllFormedProofError) as err:
            check_tree(imp_intro(bad, C))
        assert err.value.path == (0,)

    def test_hypothesis_with_premises(self):
        with pytest.raises(IllFormedProofError):
            check_tree(ProofTree(A, "Hyp", (hyp(A),), ()))

    def test_unknown_rule(self):
        with pytest.raises(IllFormedProofError) as err:
            check_tree(ProofTree(A, "Cut", (), ()))
        assert "unknown rule" in err.value.reason

    def test_imp_intro_wrong_discharge(self):
        bad = ProofTree(imp(B, A), "ImpIntro", (hyp(A),), (A,))
        with pytest.raises(IllFormedProofError):
            check_tree(bad)

    def test_or_elim_major_must_match_discharge_chain(self):
        bad = ProofTree(C, "OrElimN", (hyp(disj(A, B)), hyp(C), hyp(C)), (A, C))
        with pytest.raises(IllFormedProofError):
            check_tree(bad)

    def test_non_proof_premise(self):
        bad = ProofTree(B, "ImpElim", (hyp(imp(A, B)), "junk"), ())
        with pytest.raises(IllFormedProofError):
            check_tree(bad)
        with pytest.raises(IllFormedProofError):
            check_tree("junk")

    def test_walker_rejects_a_non_proof_premise(self):
        bad = ProofTree(A, "AndElimL", (7,), ())
        with pytest.raises(IllFormedProofError, match="not a proof object: 7"):
            list(iter_nodes(imp_intro(bad, B)))

    def test_path_on_a_shared_proof_reaches_the_bad_node(self):
        # the bad node sits under a subproof shared by both cases of a
        # split, 2^depth occurrences below the root
        bad = ProofTree(B, "ImpElim", (hyp(imp(A, B)), hyp(B)), ())
        p = imp_intro(bad, A)
        for _ in range(30):
            p = imp_intro(or_elim(hyp(disj(C, C)), p, p), disj(C, C))
        with pytest.raises(IllFormedProofError) as err:
            check_tree(p)
        node = p
        for idx in err.value.path:
            node = node.premises[idx]
        assert node is bad
        assert len(err.value.path) == 2 * 30 + 1


class TestNormality:
    def test_normal_proofs(self):
        assert is_normal(identity_proof(A))
        assert is_normal(and_elim_l(hyp(conj(A, B))))

    def test_imp_detour(self):
        p = imp_elim(identity_proof(A), hyp(A))
        check_tree(p)
        assert not is_normal(p)
        assert not subformula_ok(p, check_tree(p).open_assumptions)

    def test_subformula_property_of_normal_proof(self):
        p = imp_intro(and_elim_l(hyp(conj(A, B))), conj(A, B))
        assert subformula_ok(p, check_tree(p).open_assumptions)
        assert subformula_ok(p, frozenset())

    def test_open_assumptions_extend_allowed_set(self):
        p = imp_elim(hyp(imp(A, B)), hyp(A))
        assert subformula_ok(p, check_tree(p).open_assumptions)


def edit_node(doc, pos, **fields):
    """Copy of a document with node `pos` updated by `fields`."""
    nodes = list(doc["nodes"])
    nodes[pos] = dict(nodes[pos], **fields)
    return dict(doc, nodes=nodes)


class TestJson:
    def test_round_trip_preserves_check(self):
        p = imp_intro(or_elim(hyp(disj(A, A)), hyp(A), hyp(A)), disj(A, A))
        text = dumps_proof(p)
        q = loads_proof(text)
        assert q.conclusion is p.conclusion
        assert check_tree(q) == check_tree(p)
        assert dumps_proof(q) == text

    def test_canonical_layout(self):
        text = dumps_proof(identity_proof(A))
        assert text.endswith("\n")
        assert ": " not in text and ", " not in text
        data = json.loads(text)
        assert data["kind"] == "tree"
        assert data["formulas"] == [["var", "Q_a"], ["->", 0, 0]]
        assert [rec["id"] for rec in data["nodes"]] == [0, 1]
        assert data["nodes"][0] == {"id": 0, "rule": "Hyp", "formula": 0,
                                    "premises": [], "discharge": []}
        assert data["nodes"][-1] == {"id": 1, "rule": "ImpIntro", "formula": 1,
                                     "premises": [0], "discharge": [0]}

    def test_each_formula_is_written_once(self):
        p = hyp(imp(A, B))
        for _ in range(30):
            p = imp_intro(p, imp(A, B))
        data = proof_to_json(p)
        assert len(data["formulas"]) == 33
        assert data["formulas"].count(["var", "Q_a"]) == 1

    def test_shared_premises_stay_shared(self):
        leaf = hyp(A)
        data = proof_to_json(or_elim(hyp(disj(A, A)), leaf, leaf))
        assert len(data["nodes"]) == 3
        rebuilt = proof_from_json(data)
        assert rebuilt.premises[1] is rebuilt.premises[2]

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(lambda d: [],
                         'tree document must be an object with "kind" "tree"', id="not-an-object"),
            pytest.param(lambda d: d["nodes"],
                         'tree document must be an object with "kind" "tree"',
                         id="bare-node-array"),
            pytest.param(lambda d: edit_node(d, 0, id=7),
                         "node 0: id must be the integer 0", id="wrong-node-id"),
            pytest.param(lambda d: dict(d, nodes=[{k: v for k, v in d["nodes"][0].items()
                                                   if k != "rule"}] + d["nodes"][1:]),
                         "node 0: missing fields ['rule']", id="missing-rule"),
            pytest.param(lambda d: edit_node(d, 0, rule="Cut"),
                         "node 0: unknown rule 'Cut'", id="unknown-rule"),
            pytest.param(lambda d: edit_node(d, 1, premises=[5]),
                         "node 1: premises must reference earlier ids", id="later-premise"),
            pytest.param(lambda d: edit_node(d, 1, premises=["0"]),
                         "node 1: premises must reference earlier ids", id="string-premise"),
            pytest.param(lambda d: edit_node(d, 1, discharge=["Q_a"]),
                         "node 1: formula reference must be a table id", id="discharge-text"),
            pytest.param(lambda d: edit_node(d, 0, formula="(p ->"),
                         "node 0: formula reference must be a table id", id="formula-text"),
        ],
    )
    def test_corrupted_documents_rejected(self, mutate, message):
        data = proof_to_json(identity_proof(A))
        with pytest.raises(ProofFormatError, match=f"^{re.escape(message)}$"):
            proof_from_json(mutate(data))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(lambda d: {k: v for k, v in d.items() if k != "kind"},
                         'tree document must be an object with "kind" "tree"', id="no-kind"),
            pytest.param(lambda d: dict(d, kind="dag"),
                         'tree document must be an object with "kind" "tree"', id="dag-kind"),
            pytest.param(lambda d: dict(d, kind=["tree"]),
                         'tree document must be an object with "kind" "tree"',
                         id="unhashable-kind"),
            pytest.param(lambda d: dict(d, nodes=[]),
                         "tree document must hold a nonempty node array", id="no-nodes"),
            pytest.param(lambda d: dict(d, nodes={"0": d["nodes"][0]}),
                         "tree document must hold a nonempty node array", id="nodes-not-a-list"),
            pytest.param(lambda d: dict(d, nodes=[0, 1]),
                         "node 0: not an object", id="node-not-an-object"),
            pytest.param(lambda d: {k: v for k, v in d.items() if k != "formulas"},
                         "formula table must be a list", id="no-table"),
            pytest.param(lambda d: dict(d, formulas={"0": ["var", "Q_a"]}),
                         "formula table must be a list", id="table-not-a-list"),
            pytest.param(lambda d: dict(d, formulas=[["->", 1, 1], ["var", "Q_a"]]),
                         "formula 0: parts must be ids of earlier entries",
                         id="forward-formula-reference"),
            pytest.param(lambda d: dict(d, formulas=[["var", "Q_a"], ["->", 0, 1]]),
                         "formula 1: parts must be ids of earlier entries",
                         id="self-formula-reference"),
            pytest.param(lambda d: dict(d, formulas=[["var", "Q_a"], ["->", 0]]),
                         "formula 1: malformed '->' entry", id="wrong-arity"),
            pytest.param(lambda d: dict(d, formulas=[["var", "Q_a"], ["<-", 0, 0]]),
                         "formula 1: malformed '<-' entry", id="unknown-tag"),
            pytest.param(lambda d: dict(d, formulas=[["var", "p"], ["->", 0, 0]]),
                         "formula 0: bad variable name: 'p'", id="bad-variable-name"),
            pytest.param(lambda d: edit_node(d, 1, formula=2),
                         "node 1: formula reference must be a table id",
                         id="formula-id-out-of-range"),
            pytest.param(lambda d: edit_node(d, 1, formula=-1),
                         "node 1: formula reference must be a table id", id="formula-id-negative"),
            pytest.param(lambda d: edit_node(d, 1, discharge=[9]),
                         "node 1: formula reference must be a table id",
                         id="discharge-id-out-of-range"),
            pytest.param(lambda d: edit_node(d, 1, discharge=0),
                         "node 1: discharge must be a list of formula ids",
                         id="discharge-not-a-list"),
            pytest.param(lambda d: edit_node(d, 1, premises=0),
                         "node 1: premises must reference earlier ids", id="premises-not-a-list"),
            pytest.param(lambda d: edit_node(d, 1, premises=[1]),
                         "node 1: premises must reference earlier ids", id="self-premise"),
            pytest.param(lambda d: edit_node(d, 0, id=False),
                         "node 0: id must be the integer 0", id="boolean-node-id"),
            pytest.param(lambda d: edit_node(d, 1, premises=[False]),
                         "node 1: premises must reference earlier ids", id="boolean-premise"),
            pytest.param(lambda d: edit_node(d, 1, formula=True),
                         "node 1: formula reference must be a table id", id="boolean-formula-ref"),
            pytest.param(lambda d: edit_node(d, 1, discharge=[False]),
                         "node 1: formula reference must be a table id",
                         id="boolean-discharge-ref"),
            pytest.param(lambda d: edit_node(d, 1, formula=1.0),
                         "node 1: formula reference must be a table id", id="float-formula-ref"),
            pytest.param(lambda d: edit_node(d, 1, rule="AndIntro"),
                         "node 1: unknown rule 'AndIntro'", id="intro-rule-removed"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate, message):
        data = proof_to_json(identity_proof(A))
        proof_from_json(data)
        with pytest.raises(ProofFormatError, match=f"^{re.escape(message)}$"):
            proof_from_json(mutate(data))

    def test_bad_json_text(self):
        with pytest.raises(ProofFormatError):
            loads_proof("{not json")
        with pytest.raises(ProofFormatError):
            loads_proof("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ProofFormatError):
            loads_proof('{"kind": "tree", "nodes": [' + "9" * 5000 + "]}")

    def test_rebuilt_proofs_are_unchecked(self):
        data = {
            "kind": "tree",
            "formulas": [["var", "Q_a"], ["var", "Q_b"]],
            "nodes": [
                {"id": 0, "rule": "Hyp", "formula": 0, "premises": [], "discharge": []},
                {"id": 1, "rule": "ImpElim", "formula": 1, "premises": [0, 0],
                 "discharge": []},
            ],
        }
        p = proof_from_json(data)
        with pytest.raises(IllFormedProofError):
            check_tree(p)


ATOM_POOL = [A, B, C, D, bot()]


@st.composite
def implicational_proofs(draw, depth=0):
    if depth >= 4 or draw(st.booleans()):
        return hyp(draw(st.sampled_from(ATOM_POOL)))
    sub = draw(implicational_proofs(depth=depth + 1))
    if draw(st.booleans()):
        return imp_intro(sub, draw(st.sampled_from(ATOM_POOL)))
    target = draw(st.sampled_from(ATOM_POOL))
    return imp_elim(hyp(imp(sub.conclusion, target)), sub)


class TestRandomProofs:
    @given(implicational_proofs())
    @settings(max_examples=80)
    def test_constructed_proofs_check_and_round_trip(self, p):
        m = check_tree(p)
        assert m.height >= 1
        for f in m.open_assumptions:
            assert f.weight >= 1
        text = dumps_proof(p)
        q = loads_proof(text)
        assert dumps_proof(q) == text
        assert q.conclusion is p.conclusion

    @given(implicational_proofs())
    @settings(max_examples=40)
    def test_open_assumptions_are_hypothesis_leaves(self, p):
        leaves = {n.conclusion for n in iter_nodes(p) if n.rule == "Hyp"}
        assert check_tree(p).open_assumptions <= leaves


WIDE_POOL = [q_var(f"w{i}") for i in range(70)]


def reference_sizes(p):
    """Height, weight and distinct formula weight by a walk over every
    occurrence, with nothing memoized: `Metrics` read as the definitions."""
    height = weight = 0
    formulas = set()
    stack = [(p, 1)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        weight += node.conclusion.weight
        formulas.add(node.conclusion)
        stack.extend((q, depth + 1) for q in node.premises)
    return height, weight, sum(f.weight for f in formulas)


def reference_open_set(p):
    """Open assumptions by frozenset arithmetic over distinct nodes."""
    opens = {}
    for node in iter_nodes(p):
        sub = [opens[id(q)] for q in node.premises]
        if node.rule == "Hyp":
            opens[id(node)] = frozenset({node.conclusion})
        elif node.rule == "ImpIntro":
            opens[id(node)] = sub[0] - {node.discharge[0]}
        elif node.rule == "OrElimN":
            opens[id(node)] = sub[0].union(
                *(case - {d} for case, d in zip(sub[1:], node.discharge)))
        else:
            opens[id(node)] = frozenset().union(*sub)
    return opens[id(p)]


@st.composite
def wide_proofs(draw):
    """Proofs over 70 atoms that reuse earlier subproofs and split cases
    two ways, with discharges that are often vacuous."""
    atoms = st.sampled_from(WIDE_POOL)
    pool = [hyp(draw(atoms)) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 12))):
        sub = draw(st.sampled_from(pool))
        step = draw(st.integers(0, 2))
        if step == 0:
            new = imp_intro(sub, draw(st.sampled_from([*WIDE_POOL[:3], *(
                n.conclusion for n in iter_nodes(sub) if n.rule == "Hyp")])))
        elif step == 1:
            new = imp_elim(hyp(imp(sub.conclusion, draw(atoms))), sub)
        else:
            other = draw(st.sampled_from(pool))
            d1, d2 = draw(atoms), draw(atoms)
            case2 = imp_elim(hyp(imp(other.conclusion, sub.conclusion)), other)
            new = or_elim(hyp(disj(d1, d2)), sub, case2)
        pool.append(new)
    return pool[-1]


class TestOpenSetMasks:
    def test_more_hypotheses_than_a_machine_word(self):
        p = hyp(WIDE_POOL[0])
        for q in WIDE_POOL[1:]:
            p = imp_elim(hyp(imp(p.conclusion, q)), p)
        steps = [imp(a, b) for a, b in zip(WIDE_POOL, WIDE_POOL[1:])]
        assert check_tree(p).open_assumptions == frozenset([WIDE_POOL[0], *steps])
        # the walk numbers the outermost step 0 and the innermost leaf 69
        q = imp_intro(imp_intro(p, steps[-1]), WIDE_POOL[0])
        assert check_tree(q).open_assumptions == frozenset(steps[:-1])
        for f in steps[:-1]:
            q = imp_intro(q, f)
        assert check_tree(q).open_assumptions == frozenset()

    def test_vacuous_discharge_of_a_formula_assumed_elsewhere(self):
        # discharged before the walk meets its hypothesis in the minor
        p = imp_elim(imp_intro(hyp(A), B), hyp(B))
        assert check_tree(p).open_assumptions == frozenset({A, B})
        # discharged after the walk met its hypothesis in the major
        q = imp_elim(imp_elim(hyp(imp(B, imp(imp(B, C), D))), hyp(B)), imp_intro(hyp(C), B))
        assert check_tree(q).open_assumptions == frozenset({imp(B, imp(imp(B, C), D)), B, C})

    def test_or_elim_discharges_per_case(self):
        case_b = imp_elim(hyp(imp(B, C)), hyp(B))
        p = or_elim(hyp(disj(A, B)), imp_elim(hyp(imp(A, C)), hyp(A)), case_b)
        assert check_tree(p).open_assumptions == frozenset({disj(A, B), imp(A, C), imp(B, C)})
        # a case's discharge leaves the major and the other cases alone
        major = imp_elim(imp_elim(hyp(imp(A, imp(B, disj(A, B)))), hyp(A)), hyp(B))
        case_a = imp_elim(imp_elim(hyp(imp(A, imp(B, C))), hyp(A)), hyp(B))
        q = or_elim(major, case_a, case_b)
        assert check_tree(q).open_assumptions == frozenset(
            {imp(A, imp(B, disj(A, B))), A, B, imp(A, imp(B, C)), imp(B, C)})

    def test_open_set_keeps_formula_identities(self):
        m = check_tree(imp_elim(hyp(imp(A, B)), hyp(A)))
        assert {id(f) for f in m.open_assumptions} == {id(imp(A, B)), id(A)}

    @given(wide_proofs())
    @settings(max_examples=150)
    def test_masks_match_frozenset_bookkeeping(self, p):
        assert check_tree(p).open_assumptions == reference_open_set(p)

    @given(wide_proofs())
    @settings(max_examples=150)
    def test_sizes_match_the_occurrence_walk(self, p):
        m = check_tree(p)
        assert (m.height, m.weight, m.distinct_formula_weight) == reference_sizes(p)
