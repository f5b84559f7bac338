"""Tests for the translation into purely implicational minimal logic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import nonham_graphs
from nonham import formulas
from nonham.builder import build_refutation
from nonham.errors import UnsupportedRuleError
from nonham.formulas import (
    QVar,
    bot,
    chain_disj,
    conj,
    disj,
    imp,
    is_implicational,
    q_var,
    subformulas,
    weight,
)
from nonham.graphs import Graph, enumerate_graphs, is_hamiltonian
from nonham.implicational import (
    translate_formula,
    translate_proof,
    translation_to_json,
    used_axioms,
)
from nonham.kernels import compile_program
from references import bit_block, eval_formula, eval_rows, rho_star
from nonham.prooftree import (
    ProofTree,
    and_elim_l,
    check_tree,
    hyp,
    imp_elim,
    imp_intro,
    is_normal,
    iter_nodes,
    or_elim,
)

A, B, C = q_var("a"), q_var("b"), q_var("c")

CONNECTIVE_AXIOM_COUNT = {2: 3, 3: 2}  # AND -> 3 axioms, OR -> 2 eager axioms


def atoms_st():
    return st.sampled_from([A, B, C, bot()])


def formulas_st():
    return st.recursive(
        atoms_st(),
        lambda sub: st.tuples(st.sampled_from([conj, disj, imp]), sub, sub).map(
            lambda t: t[0](t[1], t[2])
        ),
        max_leaves=16,
    )


def marker_env(t, env):
    """Extend a source-variable assignment to the markers: each marker gets
    the truth value of the subformula it stands for, Q_bot gets false."""
    full = dict(env)
    for src, q in t.qmap.items():
        full[q.var] = False if src is bot() else eval_formula(src, env)
    return full


def source_envs(f):
    names = sorted(
        {g.var for g in subformulas(f) if g.var is not None and not isinstance(g.var, QVar)}
        | {g.var for g in subformulas(f) if isinstance(g.var, QVar)},
        key=str,
    )
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


class TestStar:
    def test_implications_map_structurally(self):
        t = translate_formula(imp(A, imp(B, A)))
        assert t.star_root is imp(A, imp(B, A))
        assert t.axioms == []

    def test_conjunction_marker_and_axiom_triple(self):
        t = translate_formula(conj(A, B))
        q = t.qmap[conj(A, B)]
        assert t.star_root is q
        assert t.axioms == [imp(q, A), imp(q, B), imp(A, imp(B, q))]

    def test_disjunction_eager_axiom_pair(self):
        t = translate_formula(disj(A, B))
        q = t.qmap[disj(A, B)]
        assert t.axioms == [imp(A, q), imp(B, q)]

    def test_falsum_becomes_its_marker(self):
        t = translate_formula(imp(A, bot()))
        assert t.star_root is imp(A, q_var("bot"))
        assert is_implicational(t.star_root)

    def test_shared_subformulas_share_markers(self):
        both = conj(A, B)
        t = translate_formula(imp(both, both))
        q = t.qmap[both]
        assert t.star_root is imp(q, q)
        assert len(t.axioms) == 3

    def test_case_axiom_shape_and_reuse(self):
        d = disj(A, B)
        t = translate_formula(d)
        q = t.qmap[d]
        ax = t.case_axiom(d, C)
        assert ax is imp(imp(A, C), imp(imp(B, C), imp(q, C)))
        assert t.case_axiom(d, C) is ax
        assert t.axioms.count(ax) == 1
        with pytest.raises(ValueError):
            t.case_axiom(conj(A, B), C)

    def test_rho_star_folds_axioms_in_front(self):
        t = translate_formula(conj(A, B))
        rho = rho_star(t)
        want = t.star_root
        for ax in reversed(t.axioms):
            want = imp(ax, want)
        assert rho is want
        assert rho_star(t, []) is t.star_root

    def test_folded_weight_of_refutation_goals_n2(self):
        for g in nonham_graphs(2):
            t = translate_formula(build_refutation(g).proof.conclusion)
            assert t.folded_weight() == weight(rho_star(t))

    @given(formulas_st())
    @settings(max_examples=80)
    def test_star_is_implicational_and_cubic(self, f):
        t = translate_formula(f)
        assert is_implicational(rho_star(t))
        assert weight(rho_star(t)) <= weight(f) ** 3
        assert t.folded_weight() == weight(rho_star(t))

    @given(formulas_st())
    @settings(max_examples=50)
    def test_markers_pin_the_source_semantics(self, f):
        t = translate_formula(f)
        for env in source_envs(f):
            full = marker_env(t, env)
            assert all(eval_formula(ax, full) for ax in t.axioms)
            assert eval_formula(t.star_root, full) == eval_formula(f, env)

    def test_case_axioms_hold_under_marker_semantics(self):
        d = disj(A, B)
        t = translate_formula(d)
        for target in (A, B, C, q_var("bot")):
            ax = t.case_axiom(d, target)
            for env in source_envs(imp(d, C)):
                full = marker_env(t, env)
                full.setdefault(q_var("bot").var, False)
                assert eval_formula(ax, full)


class TestProofTranslation:
    def test_identity_proof_needs_no_axioms(self):
        p = imp_intro(hyp(A), A)
        t = translate_formula(p.conclusion)
        q = translate_proof(p, t)
        assert q.conclusion is imp(A, A)
        assert check_tree(q).open_assumptions == frozenset()
        assert used_axioms(p, t) == []

    def test_and_elim_becomes_projection_application(self):
        src = conj(A, B)
        p = imp_intro(and_elim_l(hyp(src)), src)
        t = translate_formula(p.conclusion)
        q = translate_proof(p, t)
        marker = t.qmap[src]
        proj = imp(marker, A)
        assert used_axioms(p, t) == [proj]
        assert q.conclusion is imp(proj, imp(marker, A))
        m = check_tree(q)
        assert m.open_assumptions == frozenset()
        assert is_normal(q)
        assert all(n.rule in ("Hyp", "ImpIntro", "ImpElim") for n in iter_nodes(q))

    def test_binary_case_split_translates(self):
        d = disj(A, A)
        p = imp_intro(or_elim(hyp(d), hyp(A), hyp(A)), d)
        t = translate_formula(p.conclusion)
        q = translate_proof(p, t)
        m = check_tree(q)
        assert m.open_assumptions == frozenset()
        assert is_normal(q)
        assert is_implicational(q.conclusion)
        order = used_axioms(p, t)
        assert len(order) == 1 and order[0] is t.case_axiom(d, A)

    def test_open_proofs_stay_open_on_marker_images(self):
        src = conj(A, B)
        q = translate_proof(hyp(src), translate_formula(src))
        assert check_tree(q).open_assumptions == frozenset({q_var(1)})

    def test_used_axioms_is_deterministic(self):
        src = conj(conj(A, B), C)
        p = imp_intro(and_elim_l(and_elim_l(hyp(src))), src)
        t = translate_formula(p.conclusion)
        first = used_axioms(p, t)
        assert first == used_axioms(p, t)
        assert len(first) == 2

    @pytest.mark.parametrize(
        "proof",
        [
            # nodes built by hand under rule names the calculus does not have
            ProofTree(conj(A, B), "AndIntro", (hyp(A), hyp(B))),
            ProofTree(disj(A, B), "OrIntroL", (hyp(A),)),
            ProofTree(
                C,
                "OrElimN",
                (hyp(chain_disj([A, B, C])),
                 *[imp_elim(hyp(imp(x, C)), hyp(x)) for x in (A, B, C)]),
                (A, B, C),
            ),
        ],
    )
    def test_unsupported_rules_are_rejected(self, proof):
        t = translate_formula(proof.conclusion)
        with pytest.raises(UnsupportedRuleError):
            translate_proof(proof, t)

    def test_translation_json_shape(self):
        t = translate_formula(conj(A, B))
        doc = translation_to_json(t)
        assert doc["source"] == "(Q_a & Q_b)"
        assert doc["star"] == "Q_1"
        assert len(doc["axioms"]) == 3
        assert ["(Q_a & Q_b)", "Q_1"] in doc["markers"]


class TestRefutationTranslation:
    def test_exhaustive_n2_classical_tautology(self):
        # every translated goal rho* is a classical tautology: check all
        # 2^16 assignments over its 16 variables on the batch kernel
        for g in enumerate_graphs(2):
            if is_hamiltonian(g) is not None:
                continue
            report = build_refutation(g)
            t = translate_formula(report.proof.conclusion)
            q = translate_proof(report.proof, t)
            prog = compile_program(q.conclusion)
            nvars = len(prog.var_slots)
            assert nvars == 16
            rows = bit_block(nvars, 0, 2**nvars)
            assert bool(eval_rows(prog, rows).all())

    def test_n3_spot_tautology_on_sampled_valuations(self):
        # 49 variables rule out exhaustion; fix each of the 512 X parts and
        # sample the Q parts from a seeded stream
        g = Graph(3, frozenset())
        assert is_hamiltonian(g) is None
        report = build_refutation(g)
        t = translate_formula(report.proof.conclusion)
        q = translate_proof(report.proof, t)
        prog = compile_program(q.conclusion)
        slots = prog.var_slots
        x_cols = [i for i, name in enumerate(slots) if not isinstance(name, QVar)]
        q_cols = [i for i, name in enumerate(slots) if isinstance(name, QVar)]
        assert len(slots) == 49 and len(x_cols) == 9
        rng = np.random.default_rng(20260815)
        per_x = 256
        xs = bit_block(9, 0, 512)
        block = np.empty((512 * per_x, len(slots)), dtype=bool)
        for r in range(512):
            chunk = np.zeros((per_x, len(slots)), dtype=bool)
            chunk[:, x_cols] = xs[r]
            chunk[:, q_cols] = rng.random((per_x, len(q_cols))) < 0.5
            block[r * per_x : (r + 1) * per_x] = chunk
        assert bool(eval_rows(prog, block).all())

    def test_translated_refutations_check_out_n2(self):
        for g in enumerate_graphs(2):
            if is_hamiltonian(g) is not None:
                continue
            report = build_refutation(g)
            t = translate_formula(report.proof.conclusion)
            q = translate_proof(report.proof, t)
            m = check_tree(q)
            assert m.open_assumptions == frozenset()
            assert is_normal(q)
            assert q.conclusion is rho_star(t, used_axioms(report.proof, t))
            assert all(is_implicational(n.conclusion) for n in iter_nodes(q))


class TestNoDeadFormulas:
    def test_every_interned_formula_is_named_by_an_output(self, monkeypatch):
        # the intern table keeps what it holds for the life of the process,
        # so build -> translate may intern only parts of what its outputs
        # name; each graph runs against empty tables, so nothing earlier
        # in the process hides a formula from the check
        graphs = [*nonham_graphs(2), *nonham_graphs(3), Graph(4, frozenset())]
        assert len(graphs) == 18
        for g in graphs:
            monkeypatch.setattr(formulas, "_interned", {})
            monkeypatch.setattr(formulas, "_x_vars", {})
            report = build_refutation(g)
            t = translate_formula(report.proof.conclusion)
            q = translate_proof(report.proof, t)
            roots = [report.encoding.formula, t.star_root, *t.axioms, *t.qmap.values()]
            for node in (*iter_nodes(report.proof), *iter_nodes(q)):
                roots += [node.conclusion, *node.discharge]
            named: set = set()
            for root in roots:
                for f in subformulas(root, named):
                    named.add(f)
            dead = [f for f in formulas._interned.values() if f not in named]
            assert not dead, f"graph {g.graph_id}: {len(dead)} formulas no output names"
