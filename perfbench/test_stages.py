"""The prove-large stage sequence must report what `bench.pipeline_row` does.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_stages.py
"""

import pytest

import stages
from nonham.bench import chain_graph, empty_graph, pipeline_row

ROW_FIELDS = ("rho_weight", "tree_weight", "tree_distinct_weight", "dag_weight",
              "dag_height", "compression_ratio")


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("make", [empty_graph, chain_graph])
def test_prove_large_mirrors_pipeline_row(make, n, traced):
    g = make(n)
    expected = pipeline_row(g, mode="pruned", cap=n)
    got = stages.prove_graph(g, stages.Tracer(traced), "pruned", n, round_trip=True)
    assert got["row"] == {field: getattr(expected, field) for field in ROW_FIELDS}
