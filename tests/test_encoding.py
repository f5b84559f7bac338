"""Tests for the path encoding: component counts, positions, and satisfiability."""

import os
import subprocess
import sys
from functools import reduce
from itertools import permutations
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonham import encoding
from nonham.encoding import (
    PART_TAGS,
    SAT_CAP,
    conjunct_path,
    conjunction,
    coverage,
    edge_bans,
    encode_graph,
    part_path,
    satisfiable,
)
from nonham.errors import CapExceededError
from nonham.formulas import AND, XVar, bot, conj, disj, imp, x_var
from nonham.graphs import Graph, enumerate_graphs, is_hamiltonian, ordered_pairs, random_graph
from nonham.kernels import compile_program
from references import (
    bit_block,
    eval_formula,
    eval_rows,
    graph_from_id,
    pack_columns,
    step_vertex_block,
)


def descend(f, path):
    for step in path:
        assert f.kind == AND
        f = f.left if step == "L" else f.right
    return f


def holds_on(f, seqs: np.ndarray) -> np.ndarray:
    """Truth of f on each of the (rows, n) vertex sequences."""
    prog = compile_program(f)
    rows = np.empty((seqs.shape[0], len(prog.var_slots)), dtype=bool)
    for slot, name in enumerate(prog.var_slots):
        rows[:, slot] = seqs[:, name.step - 1] == name.vertex
    return eval_rows(prog, rows)


def whole_formula_verdict(g: Graph, seqs: np.ndarray) -> bool:
    """Whether the whole encoding of g holds on any of the (rows, n) vertex sequences."""
    return bool(holds_on(encode_graph(g).formula, seqs).any())


def expected_counts(g: Graph) -> dict[str, int]:
    n = g.n
    missing = sum(1 for _ in g.missing_pairs())
    return {
        "coverage": n,
        "repeat_ban": n * n * (n - 1),
        "step_occupied": n,
        "step_unique": n * n * (n - 1),
        "edge_ban": missing * (n - 1),
    }


class TestComponentCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_graph_counts(self, n):
        enc = encode_graph(Graph(n, frozenset()))
        for tag in PART_TAGS:
            assert len(enc.conjuncts[tag]) == expected_counts(Graph(n, frozenset()))[tag]

    def test_exhaustive_n3_counts(self):
        for g in enumerate_graphs(3):
            enc = encode_graph(g)
            want = expected_counts(g)
            for tag in PART_TAGS:
                assert len(enc.conjuncts[tag]) == want[tag]

    @given(st.integers(0, 2**12 - 1))
    def test_random_n4_counts(self, gid):
        g = graph_from_id(4, gid)
        enc = encode_graph(g)
        want = expected_counts(g)
        for tag in PART_TAGS:
            assert len(enc.conjuncts[tag]) == want[tag]

    def test_complete_digraph_drops_edge_ban(self):
        edges = frozenset((v, w) for v, w in ordered_pairs(2))
        enc = encode_graph(Graph(2, edges))
        assert enc.parts["edge_ban"] is None
        assert enc.conjuncts["edge_ban"] == []
        assert enc.present == ["coverage", "repeat_ban", "step_occupied", "step_unique"]

    def test_params_cover_every_conjunct(self):
        g = Graph(3, frozenset({(1, 2), (2, 3)}))
        enc = encode_graph(g)
        total = sum(len(enc.conjuncts[tag]) for tag in PART_TAGS)
        assert len({c for tag in PART_TAGS for c in enc.conjuncts[tag]}) == total


class TestPositions:
    def test_repeat_pos_keys_and_values(self):
        n = 3
        enc = encode_graph(Graph(n, frozenset()))
        want_keys = {
            (v, i, j)
            for v in range(1, n + 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        }
        assert set(enc.repeat_pos) == want_keys
        for (v, i, j), pos in enc.repeat_pos.items():
            c = enc.conjuncts["repeat_ban"][pos]
            assert c is imp(x_var(i, v), imp(x_var(j, v), bot()))

    def test_edge_pos_keys_and_values(self):
        g = Graph(3, frozenset({(1, 2)}))
        enc = encode_graph(g)
        missing = set(g.missing_pairs())
        want_keys = {(v, w, i) for v, w in missing for i in (1, 2)}
        assert set(enc.edge_pos) == want_keys
        for (v, w, i), pos in enc.edge_pos.items():
            c = enc.conjuncts["edge_ban"][pos]
            assert c is imp(x_var(i, v), imp(x_var(i + 1, w), bot()))


class TestPaths:
    def test_part_path_reaches_each_part(self):
        enc = encode_graph(Graph(3, frozenset({(1, 2)})))
        for tag in enc.present:
            assert descend(enc.formula, part_path(enc, tag)) is enc.parts[tag]

    def test_part_path_absent_tag_raises(self):
        edges = frozenset((v, w) for v, w in ordered_pairs(2))
        enc = encode_graph(Graph(2, edges))
        with pytest.raises(KeyError):
            part_path(enc, "edge_ban")

    def test_conjunct_path_reaches_every_conjunct(self):
        enc = encode_graph(Graph(3, frozenset({(2, 1), (3, 2)})))
        for tag in enc.present:
            for pos, c in enumerate(enc.conjuncts[tag]):
                assert descend(enc.formula, conjunct_path(enc, tag, pos)) is c


class TestSatisfiability:
    def test_exhaustive_n2_and_n3_matches_path_oracle(self):
        for n in (2, 3):
            for g in enumerate_graphs(n):
                assert satisfiable(g) == (is_hamiltonian(g) is not None)

    def test_single_vertex_is_satisfiable(self):
        g = Graph(1, frozenset())
        assert is_hamiltonian(g) == (1,)
        assert satisfiable(g)

    def test_witness_assignment_satisfies_formula(self):
        for g in enumerate_graphs(3):
            path = is_hamiltonian(g)
            if path is None:
                continue
            enc = encode_graph(g)
            env = {
                XVar(i, v): path[i - 1] == v
                for i in range(1, 4)
                for v in range(1, 4)
            }
            assert eval_formula(enc.formula, env)

    def test_functional_restriction_agrees_with_full_space(self):
        # step_occupied and step_unique force one vertex per step, so scanning
        # only functional assignments must give the same answer as scanning
        # all 2^(n*n) assignments.
        for n in (2, 3):
            for g in enumerate_graphs(n):
                enc = encode_graph(g)
                prog = compile_program(enc.formula)
                nvars = len(prog.var_slots)
                rows = bit_block(nvars, 0, 2**nvars)
                full = bool(eval_rows(prog, rows).any())
                assert satisfiable(g) == full

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            satisfiable(Graph(SAT_CAP + 1, frozenset()))
        with pytest.raises(CapExceededError):
            satisfiable(Graph(4, frozenset()), cap=3)

    def test_formula_is_the_left_fold_of_its_present_parts(self):
        # the part-by-part scan is exact only because of this shape
        graphs = [Graph(1, frozenset()), Graph(2, frozenset({(1, 2), (2, 1)}))]
        graphs += list(enumerate_graphs(3))
        graphs += [random_graph(Random(seed), 4) for seed in range(4)]
        for g in graphs:
            enc = encode_graph(g)
            parts = [enc.parts[tag] for tag in enc.present]
            assert reduce(conj, parts) is enc.formula

    @pytest.mark.parametrize("n, seeds", [
        (4, range(8)), (5, range(8)), (5, range(8, 16)), (6, range(4)),
        (6, range(4, 8))])
    def test_part_scan_matches_whole_formula_over_functional_rows(
            self, monkeypatch, n, seeds):
        monkeypatch.setattr(encoding, "_clauses", {})
        seqs = step_vertex_block(n, 0, n**n)
        verdicts = set()
        for seed in seeds:
            g = random_graph(Random(seed), n, edge_prob=0.3)
            want = whole_formula_verdict(g, seqs)
            assert satisfiable(g) == want
            assert want == (is_hamiltonian(g) is not None)
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_scan_keeps_exactly_the_rows_of_the_n_only_parts(self, n):
        # the kept rows, the permutations, are the rows of the base-n table
        # on which every present one of coverage, repeat_ban, step_occupied
        # and step_unique holds, in table order
        seqs = step_vertex_block(n, 0, n**n)
        parts = encode_graph(Graph(n, frozenset())).parts
        keep = np.ones(n**n, dtype=bool)
        for tag in PART_TAGS[:4]:
            if parts[tag] is not None:
                keep &= holds_on(parts[tag], seqs)
        kept = [list(step) for step in encoding._rows_of(n)]
        assert np.array_equal(np.array(kept), seqs[keep].T)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kept_rows_are_the_permutations_in_order(self, n):
        rows = encoding._rows_of(n)
        assert len(rows) == n and all(type(step) is bytes for step in rows)
        assert list(zip(*rows)) == list(permutations(range(1, n + 1)))

    def test_an_interrupted_scan_caches_nothing(self, monkeypatch):
        # a clause pass that raises keeps no columns; the next call runs
        # the pass for n=5 again, and the one after reads the cache
        monkeypatch.setattr(encoding, "_clauses", {})
        calls = []
        eval_words = encoding.eval_words

        def interrupt_first(*args):
            calls.append(args[-1])
            if len(calls) == 1:
                raise RuntimeError("interrupted")
            return eval_words(*args)

        monkeypatch.setattr(encoding, "eval_words", interrupt_first)
        ham, nonham = (random_graph(Random(seed), 5, edge_prob=0.3) for seed in (1, 0))
        assert is_hamiltonian(ham) is not None and is_hamiltonian(nonham) is None
        with pytest.raises(RuntimeError, match="interrupted"):
            satisfiable(ham)
        assert encoding._clauses == {}
        assert satisfiable(ham) and not satisfiable(nonham)
        assert calls == [120, 120]
        assert list(encoding._clauses) == [5]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_columns_are_the_packed_rows(self, n):
        # every vertex's column at every step, against numpy's packing of
        # the same step's vertices
        rows = encoding._rows_of(n)
        for row in rows:
            for v in range(1, n + 1):
                [want] = pack_columns([np.frombuffer(row, np.uint8) == v])
                assert encoding._column(row, v) == want

    def test_scans_cache_no_program_per_graph(self, monkeypatch):
        # only the clause columns over the rows that satisfy the n-only
        # parts are kept, once per n; no graph compiles a program
        monkeypatch.setattr(encoding, "_clauses", {})
        satisfiable(Graph(5, frozenset()))
        kept = encoding._clauses[5]
        verdicts = set()
        for seed in range(20):
            g = random_graph(Random(seed), 5, edge_prob=0.4)
            want = is_hamiltonian(g) is not None
            assert satisfiable(g) == want
            verdicts.add(want)
        assert list(encoding._clauses) == [5]
        assert encoding._clauses[5] is kept
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n, seeds", [
        (5, range(8)), (5, range(8, 16)), (6, range(4)), (6, range(4, 8))])
    def test_cold_and_warm_scans_match_whole_formula(self, monkeypatch, n, seeds):
        # each graph alone on an empty cache, then all of them twice in one
        # cache: the first graph fills the cache, every later one reads it
        seqs = step_vertex_block(n, 0, n**n)
        graphs = [random_graph(Random(seed), n, edge_prob=0.3) for seed in seeds]
        wants = [whole_formula_verdict(g, seqs) for g in graphs]
        assert wants == [is_hamiltonian(g) is not None for g in graphs]
        assert set(wants) == {True, False}
        for g, want in zip(graphs, wants):
            monkeypatch.setattr(encoding, "_clauses", {})
            assert satisfiable(g) == want
        monkeypatch.setattr(encoding, "_clauses", {})
        for g, want in zip(graphs + graphs, wants + wants):
            assert satisfiable(g) == want

    @staticmethod
    def run_fresh(code: str) -> None:
        """Run code in a fresh interpreter that imports this checkout's package."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(encoding.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_import_does_no_scan(self):
        # the scan fills on the first oracle call, never at import
        self.run_fresh("import nonham.cli, nonham.encoding as e\n"
                       "assert e._clauses == {}, e._clauses\n")

    def test_scan_interns_the_clauses_only(self):
        # the first call at n=5 interns exactly the subformulas of the 80
        # edge_ban clauses of the empty graph; later graphs, Hamiltonian or
        # not, intern nothing
        self.run_fresh(
            "from random import Random\n"
            "from nonham import formulas as f\n"
            "from nonham.encoding import edge_bans, satisfiable\n"
            "from nonham.graphs import Graph, is_hamiltonian, ordered_pairs, random_graph\n"
            "before = set(f._interned.values())\n"
            "assert satisfiable(Graph(5, frozenset(ordered_pairs(5))))\n"
            "after = set(f._interned.values())\n"
            "clauses = list(edge_bans(Graph(5, frozenset())).values())\n"
            "assert len(clauses) == 80\n"
            "want = {s for root in clauses for s in f.subformulas(root)}\n"
            "assert after - before == want - before, len(after - before)\n"
            "assert set(f._interned.values()) == after\n"
            "verdicts = set()\n"
            "for seed in range(20):\n"
            "    g = random_graph(Random(seed), 5, edge_prob=0.4)\n"
            "    assert satisfiable(g) == (is_hamiltonian(g) is not None)\n"
            "    verdicts.add(satisfiable(g))\n"
            "assert verdicts == {True, False}\n"
            "assert set(f._interned.values()) == after\n")

    @pytest.mark.parametrize("seed, hamiltonian", [(0, True), (2, False)])
    def test_cold_n8_scan_under_a_raised_cap_matches_path_search(
            self, monkeypatch, seed, hamiltonian):
        # above SAT_CAP only a raised cap admits n=8, with its 40,320
        # permutations
        monkeypatch.setattr(encoding, "_clauses", {})
        g = random_graph(Random(seed), 8, edge_prob=0.3)
        assert (is_hamiltonian(g) is not None) == hamiltonian
        with pytest.raises(CapExceededError):
            satisfiable(g)
        assert satisfiable(g, cap=8) == hamiltonian
        assert list(encoding._clauses) == [8]

    def test_n7_scan_matches_path_search(self):
        rng = Random(7)
        verdicts = set()
        for p in (0.2, 0.3, 0.3, 0.5):
            g = random_graph(rng, 7, edge_prob=p)
            want = is_hamiltonian(g) is not None
            assert satisfiable(g) == want
            verdicts.add(want)
        assert verdicts == {True, False}


class TestEdgeBans:
    @staticmethod
    def graphs():
        for n in (1, 2, 3):
            yield from enumerate_graphs(n)
        for n in range(4, 8):
            for seed in range(3):
                yield random_graph(Random(seed), n, edge_prob=0.2 + 0.2 * seed)
            yield Graph(n, frozenset(ordered_pairs(n)))

    def test_helper_conjunction_is_the_encodings_part(self):
        for g in self.graphs():
            enc = encode_graph(g)
            bans = edge_bans(g)
            assert conjunction(coverage(g.n)) is enc.parts["coverage"]
            assert coverage(g.n) == enc.conjuncts["coverage"]
            assert conjunction(list(bans.values())) is enc.parts["edge_ban"]
            assert list(bans.values()) == enc.conjuncts["edge_ban"]
            assert {key: pos for pos, key in enumerate(bans)} == enc.edge_pos
            if not g.missing_pairs():
                assert conjunction(list(bans.values())) is None


class TestPinnedShapes:
    def test_n2_empty_graph_part_sizes(self):
        enc = encode_graph(Graph(2, frozenset()))
        sizes = {tag: len(enc.conjuncts[tag]) for tag in PART_TAGS}
        assert sizes == {
            "coverage": 2,
            "repeat_ban": 4,
            "step_occupied": 2,
            "step_unique": 4,
            "edge_ban": 2,
        }

    def test_first_coverage_conjunct(self):
        enc = encode_graph(Graph(2, frozenset()))
        assert enc.conjuncts["coverage"][0] is disj(x_var(1, 1), x_var(2, 1))

    def test_distinct_conjuncts_across_tags(self):
        enc = encode_graph(Graph(3, frozenset()))
        seen = set()
        for tag in PART_TAGS:
            for c in enc.conjuncts[tag]:
                assert id(c) not in seen
                seen.add(id(c))
