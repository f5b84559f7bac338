"""End-to-end command line tests driving main() with temp files."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from types import ModuleType

import pytest

import nonham
import nonham.bench
from nonham.cli import REPORT_TEXT_LIMIT, main
from nonham.dagproof import compress_and_verify, compress_horizontal
from nonham.encoding import ENCODE_CAP
from nonham.errors import NonhamError
from nonham.formulas import chain_disj, imp, q_var
from nonham.graphs import is_hamiltonian, random_graph
from nonham.prooftree import (
    ProofTree,
    check_tree,
    dumps_proof,
    hyp,
    imp_elim,
    imp_intro,
    loads_proof,
)


def write_graph(path, n, edges):
    lines = [f"{n} {len(edges)}"] + [f"{v} {w}" for v, w in sorted(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def empty2(tmp_path):
    return write_graph(tmp_path / "empty2.graph", 2, [])


@pytest.fixture
def chain3(tmp_path):
    return write_graph(tmp_path / "chain3.graph", 3, [(1, 2), (2, 3)])


class TestOracle:
    def test_non_hamiltonian_graph(self, empty2, capsys):
        assert main(["oracle", empty2]) == 0
        out = capsys.readouterr().out
        assert "hamiltonian: False" in out
        assert "encoding_satisfiable: False" in out

    def test_hamiltonian_graph_json(self, chain3, capsys):
        assert main(["oracle", chain3, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hamiltonian"] is True
        assert payload["witness"] == [1, 2, 3]
        assert payload["encoding_satisfiable"] is True

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n1\n", encoding="utf-8")
        assert main(["oracle", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["oracle", str(tmp_path / "nope.graph")]) == 2

    def test_sat_cap_guard(self, chain3, capsys):
        assert main(["oracle", chain3, "--sat-cap", "2"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, hamiltonian", [(0, True), (2, False)])
    def test_sat_cap_admits_n8(self, tmp_path, capsys, seed, hamiltonian):
        g = random_graph(Random(seed), 8, edge_prob=0.3)
        path = write_graph(tmp_path / "g8.graph", 8, g.edges)
        assert main(["oracle", path]) == 2
        assert "sat cap" in capsys.readouterr().err
        assert main(["oracle", path, "--sat-cap", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        witness = is_hamiltonian(g)
        assert (witness is not None) == hamiltonian
        assert payload["witness"] == (list(witness) if hamiltonian else None)
        assert payload["hamiltonian"] is payload["encoding_satisfiable"] is hamiltonian

    def test_oversized_graph_is_refused_before_path_search(self, tmp_path, capsys):
        g = write_graph(tmp_path / "empty50.graph", 50, [])
        start = time.perf_counter()
        assert main(["oracle", g]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sat cap" in err


class TestEncode:
    def test_encode_reports_part_counts(self, empty2, tmp_path, capsys):
        out = tmp_path / "enc.txt"
        assert main(["encode", empty2, "--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parts"] == {
            "coverage": 2,
            "repeat_ban": 4,
            "step_occupied": 2,
            "step_unique": 4,
            "edge_ban": 2,
        }
        text = out.read_text(encoding="utf-8")
        assert text.count("X_1_1") >= 1 and text.endswith("\n")

    @pytest.mark.parametrize("n", [ENCODE_CAP + 1, 1_000_000])
    def test_oversized_graph_is_refused_before_encoding(self, tmp_path, capsys, n):
        g = write_graph(tmp_path / "empty.graph", n, [])
        start = time.perf_counter()
        assert main(["encode", g]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "encode cap" in err


class TestProve:
    def test_prove_writes_a_checkable_proof(self, empty2, tmp_path, capsys):
        out = tmp_path / "proof.json"
        assert main(["prove", empty2, "--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "faithful"
        assert payload["leaf_count"] == 4
        proof = loads_proof(out.read_text(encoding="utf-8"))
        assert check_tree(proof).open_assumptions == frozenset()

    def test_hamiltonian_graph_exits_3(self, chain3, capsys):
        assert main(["prove", chain3]) == 3
        assert "Hamiltonian path: [1, 2, 3]" in capsys.readouterr().err

    def test_faithful_cap_exits_2(self, tmp_path, capsys):
        g = write_graph(tmp_path / "big.graph", 5, [])
        assert main(["prove", g, "--mode", "faithful"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_oversized_graph_is_refused_before_encoding(self, tmp_path, capsys):
        g = write_graph(tmp_path / "empty50.graph", 50, [])
        start = time.perf_counter()
        assert main(["prove", g]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "builder cap" in err


class TestPipelineChain:
    def run_chain(self, graph_path, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        implication = tmp_path / "imp.json"
        dag = tmp_path / "dag.json"
        assert main(["prove", graph_path, "--out", str(tree)]) == 0
        assert main(["translate", str(tree), "--out", str(implication)]) == 0
        assert main(["compress", str(implication), "--out", str(dag), "--json"]) == 0
        return tree, implication, dag, json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_full_chain_on_the_smallest_graph(self, empty2, tmp_path, capsys):
        tree, implication, dag, payload = self.run_chain(empty2, tmp_path, capsys)
        assert payload.keys() == {"weight", "height", "node_count", "conclusion_weight",
                                  "compression_ratio", "verdict"}
        assert payload["verdict"] == "open_assumptions[2]"
        assert payload["compression_ratio"] > 1.0

        assert main(["verify", str(tree)]) == 0
        out = capsys.readouterr().out
        assert "normal: True" in out and "closed: True" in out

        assert main(["verify", str(implication)]) == 0

        assert main(["verify", str(dag)]) == 4
        assert "open assumptions" in capsys.readouterr().err

    def test_verify_accepts_a_coherent_dag(self, tmp_path, capsys):
        a, b, c, r = (q_var(s) for s in "abcr")
        d1, d2 = hyp(b), imp_elim(hyp(imp(a, b)), hyp(a))
        mid1 = imp_elim(hyp(imp(b, imp(c, r))), d1)
        mid2 = imp_elim(hyp(imp(b, c)), d2)
        p = imp_elim(mid1, mid2)
        for f in (b, a, imp(a, b), imp(b, c), imp(b, imp(c, r))):
            p = imp_intro(p, f)
        path = tmp_path / "good.json"
        path.write_text(compress_and_verify(p).text, encoding="utf-8")
        assert main(["verify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "dag" and payload["closed"] is True

    def test_verify_open_tree_exits_4(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        path.write_text(dumps_proof(hyp(q_var("a"))), encoding="utf-8")
        assert main(["verify", str(path)]) == 4
        assert "open assumptions" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "translate"])
    def test_three_case_split_exits_4(self, command, tmp_path, capsys):
        # the calculus has binary splits only; the kernel refuses a k-way
        # one before any command reads the proof further
        a, b, c, d = (q_var(name) for name in "abcd")
        chain = chain_disj([a, b, c])
        cases = [imp_elim(hyp(imp(x, d)), hyp(x)) for x in (a, b, c)]
        split = ProofTree(d, "OrElimN", (hyp(chain), *cases), (a, b, c))
        path = tmp_path / "split3.json"
        path.write_text(dumps_proof(split), encoding="utf-8")
        assert main([command, str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "two cases" in captured.err

    def test_verify_corrupted_artifact_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('[{"id": 0}]', encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        path.write_text("{oops", encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"formulas": [], "nodes": []},
            {"kind": "graph", "formulas": [], "nodes": []},
            {"kind": None},
            [{"kind": "tree"}],
        ],
    )
    def test_verify_needs_a_known_kind(self, tmp_path, capsys, doc):
        path = tmp_path / "kindless.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert '"kind"' in capsys.readouterr().err

    def test_verify_dispatches_on_kind(self, tmp_path, capsys):
        tree = json.loads(dumps_proof(imp_intro(hyp(q_var("a")), q_var("a"))))
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(dict(tree, kind="dag")), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        path.write_text(json.dumps(tree), encoding="utf-8")
        assert main(["verify", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "tree"

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"a":' * 100_000])
    def test_verify_deeply_nested_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @staticmethod
    def doubling_proof(entries):
        """A closed proof of f -> f, where table entry k is (g -> g) for
        entry k - 1: the text of f doubles with each entry."""
        table = [["var", "Q_a"]] + [["->", i, i] for i in range(entries - 1)]
        f = len(table) - 1
        table.append(["->", f, f])
        return {"kind": "tree", "formulas": table, "nodes": [
            {"id": 0, "rule": "Hyp", "formula": f, "premises": [], "discharge": []},
            {"id": 1, "rule": "ImpIntro", "formula": f + 1, "premises": [0], "discharge": [f]},
        ]}

    def test_exponential_formula_is_refused(self, tmp_path, capsys):
        path = tmp_path / "doubling.json"
        path.write_text(json.dumps(self.doubling_proof(64)), encoding="utf-8")
        for command in ("verify", "translate", "compress"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: formula 40: weight exceeds") and err.count("\n") == 1

    def test_reports_cut_long_formula_text(self, tmp_path, capsys):
        path = tmp_path / "doubling.json"
        path.write_text(json.dumps(self.doubling_proof(39)), encoding="utf-8")
        assert main(["verify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conclusion_weight"] == 2**40 - 1
        assert len(payload["conclusion"]) == REPORT_TEXT_LIMIT + 3
        assert payload["conclusion"].endswith("...")
        assert main(["translate", str(path), "--out", str(tmp_path / "imp.json"), "--json"]) == 0
        translation = json.loads(capsys.readouterr().out)["translation"]
        texts = [translation["source"], translation["star"], *translation["axioms"]]
        texts += [t for pair in translation["markers"] for t in pair]
        assert max(map(len, texts)) == REPORT_TEXT_LIMIT + 3

    def test_compress_works_per_site_on_shared_proofs(self, tmp_path, capsys):
        # 122 distinct nodes, 2^62 - 2 occurrences: each round applies
        # (p.conclusion -> p.conclusion) to p through the same object p
        a = q_var("a")
        p = imp_intro(hyp(a), a)
        for _ in range(60):
            p = imp_elim(imp_intro(p, p.conclusion), p)
        path = tmp_path / "shared.json"
        path.write_text(dumps_proof(p), encoding="utf-8")
        start = time.perf_counter()
        assert main(["compress", str(path), "--out", str(tmp_path / "dag.json"), "--json"]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["verdict"] == "verified"
        _, origin = compress_horizontal(loads_proof(path.read_text(encoding="utf-8")))
        assert len(origin) == 2**62 - 2

    def test_compress_rejects_open_or_nonimplicational_input(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        path.write_text(dumps_proof(hyp(q_var("a"))), encoding="utf-8")
        assert main(["compress", str(path)]) == 2
        assert "closed" in capsys.readouterr().err


class TestBench:
    def test_csv_and_fit_output(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main([
            "bench", "--family", "empty", "--n-min", "2", "--n-max", "4",
            "--out", str(out), "--no-timing",
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("n,graph_id,rho_weight")
        assert len(lines) == 4
        assert all(line.endswith(",0") for line in lines[1:])
        assert captured.err == ""
        assert "fitted exponent" in captured.out

    def test_json_payload(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main([
            "bench", "--family", "chain", "--n-min", "2", "--n-max", "4",
            "--out", str(out), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.keys() == {"family", "rows", "dag_verified", "fit"}
        assert payload["fit"].keys() == {"exponent", "ci_low", "ci_high", "points"}
        assert (payload["family"], payload["rows"], payload["dag_verified"]) == ("chain", 3, 0)
        assert payload["fit"]["points"] == 3
        assert payload["fit"]["ci_low"] <= payload["fit"]["exponent"] <= payload["fit"]["ci_high"]

    def test_no_surviving_rows_exits_4(self, monkeypatch, capsys):
        def fail(g, mode, cap):
            raise NonhamError("row failed")

        monkeypatch.setattr(nonham.bench, "pipeline_row", fail)
        code = main(["bench", "--family", "empty", "--n-min", "2", "--n-max", "3"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "bench: n=2 graph_id=0: row failed",
            "bench: n=3 graph_id=0: row failed",
            "error: no benchmark rows survived",
        ]

    def test_range_over_the_builder_cap_exits_2(self, capsys):
        code = main([
            "bench", "--family", "empty", "--n-min", "7", "--n-max", "8",
            "--mode", "pruned",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n=7 exceeds the pruned builder cap 6; pass cap=7 to run anyway\n"
        )

    def test_wide_range_refuses_its_suffix_in_one_line(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main([
            "bench", "--family", "empty", "--n-min", "5", "--n-max", "1000000000",
            "--out", str(tmp_path / "rows.csv"), "--json",
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rows"] == 2
        assert captured.err == (
            "bench: n=7..1000000000 skipped: above the builder cap 6\n"
        )

    def test_wide_range_over_the_builder_cap_exits_2(self, capsys):
        start = time.perf_counter()
        code = main([
            "bench", "--family", "empty", "--n-min", "7", "--n-max", "1000000000",
            "--mode", "pruned",
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n=7 exceeds the pruned builder cap 6; pass cap=7 to run anyway\n"
        )

    @pytest.mark.parametrize("args, message", [
        (["--family", "empty", "--n-min", "5", "--n-max", "2"], "empty n range"),
        (["--family", "random", "--count", "0"], "count must be at least 1, got 0"),
        (["--family", "random", "--n-min", "1", "--n-max", "1"], "family 'random' needs n >= 2"),
    ], ids=["empty-range", "zero-count", "random-n1"])
    def test_bad_ranges_exit_2(self, args, message, capsys):
        assert main(["bench", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "nonham" in capsys.readouterr().out

    def test_package_namespace_holds_only_its_modules(self):
        # the package re-exports nothing: every stage is imported from its module
        for info in pkgutil.iter_modules(nonham.__path__):
            importlib.import_module(f"nonham.{info.name}")
        public = [name for name in vars(nonham) if not name.startswith("_")]
        assert public
        for name in public:
            value = getattr(nonham, name)
            assert isinstance(value, ModuleType), name
            assert value.__name__ == f"nonham.{name}"
        assert isinstance(nonham.__version__, str)

    def test_import_leaves_scipy_stats_unloaded(self):
        # numpy and scipy serve `bench --fit` alone: neither the command line
        # nor any module the benchmark's stages import may load them
        src = Path(nonham.__file__).resolve().parent.parent
        stages = src.parent / "perfbench" / "stages.py"
        modules = {node.module for node in ast.walk(ast.parse(stages.read_text("utf-8")))
                   if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nonham.")}
        assert "nonham.encoding" in modules and "nonham.kernels" in modules
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (f"import sys, nonham.cli; import {', '.join(sorted(modules))}\n"
                "print(sorted(m for m in ('numpy', 'scipy', 'scipy.stats') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
