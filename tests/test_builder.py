"""Tests for the mechanical refutation builder."""

import gc
import hashlib
from random import Random

import pytest

import nonham.bench
import nonham.builder
from nonham.bench import chain_graph, empty_graph, rows_to_csv, run_bench, run_pipeline
from nonham.builder import (
    FAITHFUL_CAP,
    PRUNED_CAP,
    build_case_tower,
    build_refutation,
    finalize_negation,
    leaf_from_violation,
    resolve_mode,
)
from nonham.dagproof import (
    cleanse,
    coherence_failures,
    compress_and_verify,
    compress_horizontal,
    dumps_dag,
)
from nonham.encoding import encode_graph
from nonham.errors import (
    CapExceededError,
    GraphIsHamiltonianError,
    WrongOpenSetError,
)
from nonham.formulas import bot, imp, x_var
from nonham.graphs import Graph, enumerate_graphs, find_violation, is_hamiltonian
from nonham.implicational import translate_formula, translate_proof
from nonham.prooftree import (
    NodeTable,
    ProofTree,
    check_tree,
    dumps_proof,
    hyp,
    is_normal,
    iter_nodes,
    loads_proof,
    subformula_ok,
)

ALLOWED_RULES = {"Hyp", "ImpIntro", "ImpElim", "AndElimL", "AndElimR", "OrElimN"}


def empty(n):
    return Graph(n, frozenset())


class TestLeaves:
    def test_repeat_leaf_open_set(self):
        g = empty(2)
        enc = encode_graph(g)
        leaf, height = leaf_from_violation(find_violation([1, 1], g), enc, NodeTable())
        m = check_tree(leaf)
        assert m.height == height
        assert leaf.conclusion is bot()
        assert m.open_assumptions == frozenset(
            {enc.formula, x_var(1, 1), x_var(2, 1)}
        )

    def test_missing_edge_leaf_open_set(self):
        g = Graph(2, frozenset({(2, 1)}))
        enc = encode_graph(g)
        leaf, height = leaf_from_violation(find_violation([1, 2], g), enc, NodeTable())
        m = check_tree(leaf)
        assert m.height == height
        assert m.open_assumptions == frozenset(
            {enc.formula, x_var(1, 1), x_var(2, 2)}
        )

    def test_leaves_are_normal(self):
        g = empty(3)
        enc = encode_graph(g)
        for seq in ([1, 1, 1], [1, 2, 3], [3, 2, 2]):
            leaf, _ = leaf_from_violation(find_violation(seq, g), enc, NodeTable())
            assert is_normal(leaf)
            assert leaf.conclusion is bot()


class TestCaseTower:
    def test_faithful_leaf_count_is_n_to_the_n(self):
        for n in (2, 3):
            g = empty(n)
            tower, leaves, _ = build_case_tower(g, encode_graph(g), mode="faithful")
            assert leaves == n**n
            m = check_tree(tower)
            assert m.open_assumptions == frozenset({encode_graph(empty(n)).formula})
            assert tower.conclusion is bot()

    def test_single_vertex_graph_is_hamiltonian(self):
        with pytest.raises(GraphIsHamiltonianError) as err:
            build_case_tower(empty(1), encode_graph(empty(1)), mode="faithful")
        assert err.value.witness == (1,)

    def test_hamiltonian_graph_raises_with_valid_witness(self):
        g = Graph(3, frozenset({(1, 2), (2, 3)}))
        with pytest.raises(GraphIsHamiltonianError) as err:
            build_case_tower(g, encode_graph(g), mode="faithful")
        assert find_violation(err.value.witness, g) is None

    def test_pruned_tower_is_smaller_but_equivalent(self):
        g = empty(3)
        faithful, fl, _ = build_case_tower(g, encode_graph(g), mode="faithful")
        pruned, pl, _ = build_case_tower(g, encode_graph(g), mode="pruned")
        assert pl < fl
        mf, mp = check_tree(faithful), check_tree(pruned)
        assert mf.open_assumptions == mp.open_assumptions
        assert pruned.conclusion is faithful.conclusion
        assert mp.weight < mf.weight


    @pytest.mark.parametrize("g, mode", [(empty(2), "faithful"), (empty(3), "faithful"),
                                         (chain_graph(5), "pruned")],
                             ids=["empty2", "empty3", "chain5"])
    def test_every_split_is_binary(self, g, mode):
        tower = build_case_tower(g, encode_graph(g), mode=mode)[0]
        for p in (tower, build_refutation(g, mode=mode).proof):
            splits = [node for node in iter_nodes(p) if node.rule == "OrElimN"]
            assert splits
            assert all(len(node.premises) == 3 for node in splits)


class TestFinalize:
    def test_discharges_the_encoding(self):
        g = empty(2)
        enc = encode_graph(g)
        tower, _, _ = build_case_tower(g, enc, mode="faithful")
        p, m = finalize_negation(tower, enc)
        assert p.conclusion is imp(enc.formula, bot())
        assert m.open_assumptions == frozenset()
        assert m == check_tree(p)

    def test_rejects_wrong_open_set(self):
        enc = encode_graph(empty(2))
        with pytest.raises(WrongOpenSetError) as err:
            finalize_negation(hyp(bot()), enc)
        assert err.value.expected == frozenset()
        assert bot() in err.value.open_set

    @pytest.mark.parametrize("g, mode", [(empty(3), "faithful"), (chain_graph(5), "pruned")],
                             ids=["empty3", "chain5"])
    def test_build_checks_the_proof_once(self, g, mode, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return check_tree(p)

        monkeypatch.setattr(nonham.builder, "check_tree", counting)
        report = build_refutation(g)
        assert report.mode == mode
        assert len(calls) == 1
        assert report.metrics == check_tree(report.proof)


class TestModesAndCaps:
    def test_auto_mode_switches_at_the_faithful_cap(self):
        assert resolve_mode("auto", FAITHFUL_CAP) == "faithful"
        assert resolve_mode("auto", FAITHFUL_CAP + 1) == "pruned"
        assert resolve_mode("pruned", 2) == "pruned"
        with pytest.raises(ValueError):
            resolve_mode("eager", 3)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            build_refutation(empty(FAITHFUL_CAP + 1), mode="faithful")
        with pytest.raises(CapExceededError):
            build_refutation(empty(PRUNED_CAP + 1), mode="pruned")

    def test_cap_override_is_honored(self):
        with pytest.raises(CapExceededError):
            build_refutation(empty(3), cap=2)
        report = build_refutation(empty(3), mode="pruned", cap=3)
        assert report.mode == "pruned"


class TestBuildRefutation:
    def test_report_summary_fields(self):
        report = build_refutation(empty(2))
        s = report.summary()
        assert s["n"] == 2
        assert s["mode"] == "faithful"
        assert s["leaf_count"] == 4
        assert s["height"] == report.metrics.height
        assert s["tower_height"] <= s["height"]

    def test_exhaustive_small_graphs(self):
        checked = 0
        for n in (2, 3):
            for g in enumerate_graphs(n):
                if is_hamiltonian(g) is not None:
                    with pytest.raises(GraphIsHamiltonianError):
                        build_refutation(g)
                    continue
                report = build_refutation(g)
                enc = report.encoding
                m = report.metrics
                assert report.proof.conclusion is imp(enc.formula, bot())
                assert m.open_assumptions == frozenset()
                assert is_normal(report.proof)
                assert subformula_ok(report.proof, m.open_assumptions)
                for node in iter_nodes(report.proof):
                    assert node.rule in ALLOWED_RULES
                    if node.rule == "OrElimN":
                        assert len(node.premises) == 3
                checked += 1
        assert checked == 1 + 16

    # recorded at 882e6f3, before the tower emitted binary splits itself
    PINNED = [
        ("empty", 2, "auto", None, "e52f0e8778023df6fbfddd9cb57da62a29b3373bca5ac1cccd00851986aeb9ea", 11, 4),
        ("empty", 3, "auto", None, "5bb288151eaa5c269b489b6f354966a707cd14f071894d8a47b6f321a040a81d", 15, 27),
        ("empty", 4, "auto", None, "5f68af39895b2bc30f6b7533d61187b2886310911044b246a0fbfcc8cac15621", 17, 256),
        ("empty", 5, "auto", None, "b3c2d238e5a9d7bd0813b80ac35921434674936cae85a2da2293a41f795b2efc", 16, 25),
        ("chain", 2, "auto", None, "e52f0e8778023df6fbfddd9cb57da62a29b3373bca5ac1cccd00851986aeb9ea", 11, 4),
        ("chain", 3, "auto", None, "db3b95289b602b85b173a5eaf377ef1bc4fd817ef42a85640146b06ff64169b0", 15, 27),
        ("chain", 4, "auto", None, "a9497f24224db714a60e86c8c9656475f9ce598f8a8af89364e05bc8447effd2", 17, 256),
        ("chain", 5, "auto", None, "2cd913a1f9ef45d39a4c9e32deb0de974e8a1d7909b96b701b9c2565fcb2f586", 19, 49),
        ("chain", 7, "pruned", 7, "fb6bbb3f0e0a15ec0d3ea7b6d014bb259ed192451cd62b3177cda80e69b2c905", 23, 139),
        ("empty", 8, "pruned", 8, "6d2dcc6564d9609b24f551eb9e6a946877fb372293730c60696185d57c35cfb6", 18, 64),
    ]

    @pytest.mark.parametrize("family, n, mode, cap, digest, tower_height, leaf_count", PINNED,
                             ids=[f"{row[0]}{row[1]}-{row[2]}" for row in PINNED])
    def test_proof_bytes_match_the_recorded_digest(self, family, n, mode, cap, digest,
                                                   tower_height, leaf_count):
        g = (empty_graph if family == "empty" else chain_graph)(n)
        report = build_refutation(g, mode=mode, cap=cap)
        assert hashlib.sha256(dumps_proof(report.proof).encode()).hexdigest() == digest
        assert (report.tower_height, report.leaf_count) == (tower_height, leaf_count)

    @pytest.mark.parametrize("family, n, mode, cap", [row[:4] for row in PINNED],
                             ids=[f"{row[0]}{row[1]}-{row[2]}" for row in PINNED])
    def test_pinned_proofs_reload_to_the_same_bytes(self, family, n, mode, cap):
        g = (empty_graph if family == "empty" else chain_graph)(n)
        report, q = refute_and_translate(g, mode=mode, cap=cap)
        for p in (report.proof, q):
            text = dumps_proof(p)
            assert dumps_proof(loads_proof(text)) == text

    # recorded at be897ae, for the translations of the PINNED proofs: the
    # uncollapsed dag with its S nodes, its collapse, the occurrences the
    # origin map stands for and the incoherent S nodes
    PINNED_DAGS = [
        ("0d9e88fa6953df6aa9cfbdb7edc20da427eb2d6baca747ed3d9cedbf2724c7e0",
         "02b6e92601c7a4db8b4e3b25a9b35a33e91ad7be770f8e6db257db0376f0d0af", 114, 0),
        ("5ada65011e1064662b439fded5d10661fac678c7ac848ddc735fb9e2d06a0d53",
         "da93bcb44530f93c799460538e45cdda9e144595e55426366b83366b49a167e0", 892, 18),
        ("9f4d64c6c8b9de8f90a6d0dbc6aae107622d50823c072e6c81b45a170643dfdf",
         "6dbdfcd12e03866ddc79a86dd16e7a73236890c6aadc8fe521012dba97d6ca93", 8816, 104),
        ("a45912f4887ef9d4c9720e7a33d223741f08e95560573188620404fa794cde5b",
         "87b48c220e4459b79680417d42f11d4f3f7e44f2910ea01598c3d14a0eef1f34", 896, 13),
        ("0d9e88fa6953df6aa9cfbdb7edc20da427eb2d6baca747ed3d9cedbf2724c7e0",
         "02b6e92601c7a4db8b4e3b25a9b35a33e91ad7be770f8e6db257db0376f0d0af", 114, 0),
        ("8be6e9eeaabb27b0b30dcb8b6ee878b974b1659cae3777b3742d877af0ee839e",
         "dfb3ed41be9808760928a4a0b840333623a980975772922b093f73f03086d1a7", 888, 18),
        ("0f5b7e7e0d8c634443dacafcc6738ca99ea757b1ed9ad30dc0b2d8bb680aaa38",
         "510ea344b41cbf42c68b7f259e968654bf852d4a928443fdd80814f2018757ff", 8798, 106),
        ("3eb3ad3e8478ef090363e223d4e094f1851f90d5599c92a678c840b8afbcc698",
         "c9483b363e36419215eac1c8c61d5e6c4bcb4ee2d394a3bcc58c175e722bf2a0", 1757, 12),
        ("b5fba4cfa9dc6cbaec06ecca525049ffe7a1490eb64fec385297d1f5250b9820",
         "c65e5d52503ea8d105d3391d31faee9faa29a3e643f8ad7c46335257f70cb32a", 5259, 25),
        ("a567ace5ea5357631fdceed9fcf2ba5e026b862137d57855796bcb9e3f99577b",
         "ab988101ffcd1b543f57d1afc627b1d289d2fa3ad00ec0a94917506b917027d7", 2522, 25),
    ]

    @pytest.mark.parametrize("pinned, dag_digest, cleansed_digest, occurrences, incoherent",
                             [(row[:4], *dags) for row, dags in zip(PINNED, PINNED_DAGS)],
                             ids=[f"{row[0]}{row[1]}-{row[2]}" for row in PINNED])
    def test_compression_bytes_match_the_recorded_digests(self, pinned, dag_digest,
                                                          cleansed_digest, occurrences,
                                                          incoherent):
        family, n, mode, cap = pinned
        g = (empty_graph if family == "empty" else chain_graph)(n)
        r = run_pipeline(g, mode=mode, cap=cap)
        dag, origin = compress_horizontal(r.proof)
        cleansed = cleanse(dag, origin, source=r.proof, strict=False)
        assert hashlib.sha256(dumps_dag(dag).encode()).hexdigest() == dag_digest
        assert hashlib.sha256(dumps_dag(cleansed).encode()).hexdigest() == cleansed_digest
        assert hashlib.sha256(r.compression.text.encode()).hexdigest() == cleansed_digest
        assert (len(origin), len(coherence_failures(dag, origin))) == (occurrences, incoherent)

    def test_pruned_pipeline_on_a_mid_size_graph(self):
        g = Graph(5, frozenset({(1, 2), (2, 3), (3, 4)}))
        report = build_refutation(g)
        assert report.mode == "pruned"
        assert report.metrics.open_assumptions == frozenset()
        assert is_normal(report.proof)


def unshared(p):
    """A copy of `p` with one object per occurrence."""
    return ProofTree(p.conclusion, p.rule, tuple(unshared(q) for q in p.premises),
                     p.discharge)


def distinct_nodes(p) -> int:
    return sum(1 for _ in iter_nodes(p))


def refute_and_translate(g, mode="auto", cap=None):
    report = build_refutation(g, mode=mode, cap=cap)
    return report, translate_proof(report.proof, translate_formula(report.proof.conclusion))


SMALL_FAMILIES = [make(n) for make in (empty_graph, chain_graph) for n in range(2, 6)]
N4_SAMPLE = Random(4).sample(
    [g for g in enumerate_graphs(4) if is_hamiltonian(g) is None], 8)


class TestSharing:
    @pytest.mark.parametrize("g", SMALL_FAMILIES + N4_SAMPLE,
                             ids=lambda g: f"n{g.n}-{g.graph_id}")
    def test_built_and_translated_proofs_are_maximally_shared(self, g):
        report, q = refute_and_translate(g)
        for p in (report.proof, q):
            keys = [(node.rule, node.conclusion, node.discharge, *map(id, node.premises))
                    for node in iter_nodes(p)]
            assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("g", SMALL_FAMILIES, ids=lambda g: f"n{g.n}-{g.graph_id}")
    def test_sharing_changes_no_size_or_artifact(self, g, monkeypatch):
        r = run_pipeline(g)
        copy_p, copy_q = unshared(r.report.proof), unshared(r.proof)
        assert distinct_nodes(copy_p) > distinct_nodes(r.report.proof)
        assert check_tree(copy_p) == r.report.metrics
        assert check_tree(copy_q) == r.metrics
        assert compress_and_verify(copy_q).text == r.compression.text

        monkeypatch.setattr(NodeTable, "share", lambda self, node: node)
        plain = run_pipeline(g)
        assert distinct_nodes(plain.report.proof) > distinct_nodes(r.report.proof)
        assert plain.report.summary() == r.report.summary()
        assert plain.metrics == r.metrics
        assert plain.compression.text == r.compression.text

    def test_bench_csv_matches_unshared_copies(self, monkeypatch):
        def run():
            rows = run_bench("empty", range(2, 6)) + run_bench("chain", range(2, 6))
            return rows_to_csv(rows, timing=False)

        shared = run()
        monkeypatch.setattr(nonham.bench, "translate_proof",
                            lambda p, t: unshared(translate_proof(unshared(p), t)))
        assert run() == shared

    @pytest.mark.parametrize("g", [empty_graph(3), chain_graph(5)], ids=["empty3", "chain5"])
    def test_reload_keeps_the_distinct_node_count(self, g):
        report, q = refute_and_translate(g)
        for p in (report.proof, q):
            assert distinct_nodes(loads_proof(dumps_proof(p))) == distinct_nodes(p)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("g", [empty_graph(3), empty_graph(4), chain_graph(5)],
                             ids=["empty3", "empty4", "chain5"])
    def test_pipeline_leaves_nothing_for_the_cyclic_collector(self, g):
        # one run first, so module-level caches filled on first use are not
        # counted; then every object a run creates must be freed by its
        # reference count alone
        run_pipeline(g)
        gc.collect()
        gc.disable()
        try:
            run_pipeline(g)
            assert gc.collect() == 0
        finally:
            gc.enable()
