"""Tests for the pipeline benchmark: families, rows, CSV, growth fit."""

import io
import math
import time

import pytest

from nonham import bench
from nonham.bench import (
    CSV_FIELDS,
    chain_graph,
    empty_graph,
    family_graphs,
    fit_exponent,
    fit_rows,
    pipeline_row,
    rows_to_csv,
    run_bench,
    verdict_summary,
)
from nonham.errors import CapExceededError, NonhamError
from nonham.formulas import q_var
from nonham.graphs import is_hamiltonian
from nonham.prooftree import hyp, imp_intro

PINNED_HEADER = (
    "n,graph_id,rho_weight,tree_height,tree_weight,tree_distinct_weight,"
    "dag_weight,dag_height,compression_ratio,wall_time_ms"
)


class TestFamilies:
    def test_empty_family(self):
        got = family_graphs("empty", [2, 3, 4])
        assert [n for n, _ in got] == [2, 3, 4]
        assert all(not g.edges for _, g in got)

    def test_chain_family_stops_one_edge_short(self):
        assert chain_graph(4).edges == frozenset({(1, 2), (2, 3)})
        assert chain_graph(2).edges == frozenset()
        assert all(is_hamiltonian(g) is None for _, g in family_graphs("chain", [2, 3, 4]))

    def test_random_family_is_seeded_and_non_hamiltonian(self):
        a = family_graphs("random", [3, 4], seed=7, count=2)
        b = family_graphs("random", [3, 4], seed=7, count=2)
        assert [(n, g.graph_id) for n, g in a] == [(n, g.graph_id) for n, g in b]
        assert len(a) == 4
        assert all(is_hamiltonian(g) is None for _, g in a)
        c = family_graphs("random", [3, 4], seed=8, count=2)
        assert [g.graph_id for _, g in a] != [g.graph_id for _, g in c]

    def test_family_validation(self):
        with pytest.raises(ValueError):
            family_graphs("clique", [2])
        with pytest.raises(ValueError):
            family_graphs("empty", [1])


class TestRows:
    def test_pipeline_row_on_the_smallest_graph(self):
        row = pipeline_row(empty_graph(2))
        assert (row.n, row.graph_id) == (2, 0)
        assert row.tree_weight > row.dag_weight > 0
        assert row.compression_ratio == pytest.approx(row.tree_weight / row.dag_weight)
        assert row.tree_height <= row.tree_weight
        assert row.incoherent_s == 0
        assert not row.dag_verified

    def test_csv_header_is_pinned(self):
        assert ",".join(CSV_FIELDS) == PINNED_HEADER
        assert rows_to_csv([]) == PINNED_HEADER + "\n"

    def test_csv_rows_and_timing_switch(self):
        row = pipeline_row(empty_graph(2))
        text = rows_to_csv([row], timing=False)
        lines = text.strip().split("\n")
        assert lines[0] == PINNED_HEADER
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_FIELDS)
        assert fields[0] == "2"
        assert fields[-1] == "0"
        assert fields[8] == f"{row.compression_ratio:.6f}"
        timed = rows_to_csv([row], timing=True).strip().split("\n")[1].split(",")
        assert timed[-1] == str(row.wall_time_ms)

    def test_verdict_fields_stay_out_of_the_csv(self):
        row = pipeline_row(empty_graph(2))
        assert "open_assumptions" not in rows_to_csv([row])


class TestFit:
    def test_recovers_a_synthetic_exponent(self):
        xs = [10, 20, 40, 80, 160]
        ys = [x**2.5 for x in xs]
        fit = fit_exponent(xs, ys)
        assert fit.slope == pytest.approx(2.5, abs=1e-9)
        assert fit.ci_low <= 2.5 <= fit.ci_high
        assert fit.points == 5
        assert "fitted exponent 2.500" in fit.summary()

    def test_recovers_a_noisy_exponent_roughly(self):
        xs = [10.0, 25.0, 60.0, 150.0, 400.0, 1000.0]
        ys = [1.1 * x**1.8 * (1.05 if i % 2 else 0.95) for i, x in enumerate(xs)]
        fit = fit_exponent(xs, ys)
        assert fit.ci_low <= 1.8 <= fit.ci_high
        assert math.isfinite(fit.ci_low) and math.isfinite(fit.ci_high)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            fit_exponent([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_exponent([5, 5, 5], [1, 2, 3])

    def test_fit_rows_needs_spread(self):
        rows = [pipeline_row(empty_graph(2))] * 3
        assert fit_rows(rows) is None
        assert fit_rows(rows[:2]) is None


class TestRunBench:
    def test_rows_come_back_in_family_order(self):
        rows = run_bench("empty", [2, 3, 4])
        assert [r.n for r in rows] == [2, 3, 4]
        weights = [r.rho_weight for r in rows]
        assert weights == sorted(weights) and weights[0] < weights[-1]
        fit = fit_rows(rows)
        assert fit is not None and fit.points == 3

    def test_unbuildable_graphs_are_logged_and_skipped(self):
        log = io.StringIO()
        rows = run_bench("empty", [2, 7], mode="pruned", log=log)
        assert [r.n for r in rows] == [2]
        assert "n=7" in log.getvalue()
        assert "cap" in log.getvalue()

    def test_oversized_n_is_skipped_before_drawing_graphs(self):
        # drawing a non-Hamiltonian random graph at n=12 runs a 12! path
        # search per candidate; the builder cap refuses n=12 first
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="n=12 exceeds the .* builder cap"):
            run_bench("random", [12])
        assert time.perf_counter() - start < 1.0

    def test_open_translated_proof_is_refused(self, monkeypatch):
        monkeypatch.setattr(bench, "translate_proof", lambda p, t: hyp(q_var("open")))
        with pytest.raises(NonhamError, match="translated proof is not closed"):
            pipeline_row(empty_graph(2))
        log = io.StringIO()
        assert run_bench("empty", [2, 3], log=log) == []
        assert log.getvalue().splitlines() == [
            f"bench: n={n} graph_id=0: translated proof is not closed" for n in (2, 3)
        ]

    def test_tree_that_does_not_replay_is_refused(self, monkeypatch):
        a = q_var("a")
        monkeypatch.setattr(bench, "loads_proof", lambda text: imp_intro(hyp(a), a))
        with pytest.raises(NonhamError, match="does not replay from its serialization"):
            pipeline_row(empty_graph(2))
        log = io.StringIO()
        assert run_bench("empty", [2], log=log) == []
        assert log.getvalue() == (
            "bench: n=2 graph_id=0: tree proof does not replay from its serialization\n"
        )

    def test_verdict_summary_counts(self):
        rows = run_bench("empty", [2, 3])
        assert verdict_summary(rows) == (
            "dag verdicts: 0/2 verified, 1/2 with a coherent collapse choice"
        )
