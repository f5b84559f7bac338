"""Graph layer: parsing, enumeration, the path oracle, least violations."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nonham.errors import CapExceededError, GraphFormatError
from nonham.graphs import (
    Graph,
    MissingEdge,
    Repeat,
    enumerate_graphs,
    find_violation,
    is_hamiltonian,
    ordered_pairs,
    parse_graph,
    prefix_violation,
    random_graph,
)
from references import brute_force_path, graph_from_id, graph_to_text


class TestParsing:
    def test_round_trip(self):
        g = Graph(3, frozenset({(1, 2), (2, 3)}))
        assert parse_graph(graph_to_text(g)) == g

    def test_header_and_edges(self):
        g = parse_graph("3 2\n1 2\n2 3\n")
        assert g.n == 3 and g.edges == frozenset({(1, 2), (2, 3)})

    @pytest.mark.parametrize("text", [
        "",                      # missing header
        "3\n",                   # header needs two counts
        "3 1\n1 1\n",            # self loop
        "3 1\n1 4\n",            # vertex out of range
        "3 2\n1 2\n",            # fewer edges than declared
        "3 1\n1 2\n2 3\n",       # more edges than declared
        "3 2\n1 2\n1 2\n",       # duplicate edge
        "0 0\n",                 # empty vertex set
        "3 1\nx y\n",            # non-numeric edge
    ])
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("3 2\n1 2\n1 1\n")

    @pytest.mark.parametrize("text,line", [
        ("3 1\n1 \u00b2\n", 2),           # superscript two: isdigit() but not int()
        ("3 1\n1 \u0663\n", 2),           # Arabic-Indic three: int() would take it
        ("9" * 5000 + " 0\n", 1),         # beyond int()'s digit limit
        ("# c\n--3 0\n", 2),
    ])
    def test_only_ascii_decimal_integers(self, text, line):
        with pytest.raises(GraphFormatError, match=f"line {line}"):
            parse_graph(text)


NUMERIC_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.text(st.characters(categories=("Nd", "No")), min_size=1, max_size=2),
    st.integers(4290, 4310).map("7".__mul__),
)


@st.composite
def mutated_graph_texts(draw):
    """A valid graph's text with a few of its tokens replaced."""
    g = random_graph(Random(draw(st.integers(0, 999))), draw(st.integers(1, 5)), 0.4)
    rows = [line.split() for line in graph_to_text(g).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 1))] = draw(NUMERIC_TOKENS | st.text(max_size=3))
    return "\n".join(" ".join(row) for row in rows)


class TestParserFuzz:
    @given(st.text() | mutated_graph_texts())
    @settings(max_examples=300)
    def test_only_graph_format_errors_escape(self, text):
        try:
            parse_graph(text)
        except GraphFormatError:
            pass


class TestEnumeration:
    def test_counts_match_edge_slots(self):
        # 2^(n(n-1)) digraphs without self loops
        assert len(list(enumerate_graphs(1))) == 1
        assert len(list(enumerate_graphs(2))) == 4
        assert len(list(enumerate_graphs(3))) == 64

    def test_graph_id_bijection(self):
        seen = set()
        for g in enumerate_graphs(3):
            assert graph_from_id(3, g.graph_id) == g
            seen.add(g.graph_id)
        assert seen == set(range(64))

    def test_ordered_pairs_is_the_id_basis(self):
        pairs = ordered_pairs(3)
        assert len(pairs) == 6
        assert all(v != w for v, w in pairs)
        g = Graph(3, frozenset({pairs[0], pairs[5]}))
        assert g.graph_id == (1 << 0) | (1 << 5)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            list(enumerate_graphs(5))
        assert sum(1 for _ in enumerate_graphs(5, cap=5)) == 2 ** 20


class TestHamiltonianOracle:
    def test_chain_has_the_obvious_path(self):
        g = Graph(3, frozenset({(1, 2), (2, 3)}))
        assert is_hamiltonian(g) == (1, 2, 3)

    def test_empty_graph_has_none(self):
        assert is_hamiltonian(Graph(3, frozenset())) is None

    def test_single_vertex_is_trivially_hamiltonian(self):
        assert is_hamiltonian(Graph(1, frozenset())) == (1,)

    def test_agrees_with_permutation_oracle_exhaustively(self):
        # the same witness, not just the same verdict: `nonham oracle`
        # prints it
        for n in (1, 2, 3, 4):
            for g in enumerate_graphs(n):
                witness = is_hamiltonian(g)
                assert witness == brute_force_path(g)
                if witness is not None:
                    # any returned witness must actually be a spanning path
                    assert sorted(witness) == list(range(1, n + 1))
                    assert all((witness[i], witness[i + 1]) in g.edges
                               for i in range(n - 1))

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("p", [0.2, 0.3, 0.5, 0.8])
    def test_same_witness_as_permutation_oracle_on_random_graphs(self, n, p):
        rng = Random(1000 * n + int(100 * p))
        verdicts = set()
        for _ in range(12):
            g = random_graph(rng, n, edge_prob=p)
            witness = is_hamiltonian(g)
            assert witness == brute_force_path(g)
            verdicts.add(witness is None)
        if p == 0.3:
            assert verdicts == {True, False}


class TestViolations:
    def test_repeat_beats_missing_edge(self):
        g = Graph(2, frozenset())
        assert find_violation([1, 1], g) == Repeat(i=1, j=2, v=1)

    def test_least_repeat_is_lexicographic_in_positions(self):
        g = Graph(3, frozenset())
        # (1,3) repeat of 2 comes before (2,3) repeat would; and any repeat
        # beats the missing edge at step 1
        assert find_violation([2, 1, 2], g) == Repeat(i=1, j=3, v=2)

    def test_least_missing_edge(self):
        g = Graph(3, frozenset({(1, 2)}))
        assert find_violation([1, 2, 3], g) == MissingEdge(i=2, v=2, w=3)

    def test_no_violation_iff_hamiltonian_path(self):
        for g in enumerate_graphs(3):
            for seq in itertools.product((1, 2, 3), repeat=3):
                v = find_violation(seq, g)
                is_path = (sorted(seq) == [1, 2, 3]
                           and all((seq[i], seq[i + 1]) in g.edges
                                   for i in range(2)))
                assert (v is None) == is_path

    @given(st.integers(2, 4), st.data())
    def test_prefix_violation_mentions_prefix_positions_only(self, n, data):
        rng = Random(data.draw(st.integers(0, 10 ** 6)))
        g = random_graph(rng, n, edge_prob=0.4)
        k = data.draw(st.integers(1, n))
        prefix = [data.draw(st.integers(1, n)) for _ in range(k)]
        v = prefix_violation(prefix, g)
        if v is None:
            return
        if isinstance(v, Repeat):
            assert 1 <= v.i < v.j <= k
            assert prefix[v.i - 1] == prefix[v.j - 1] == v.v
        else:
            assert 1 <= v.i < k
            assert (prefix[v.i - 1], prefix[v.i]) == (v.v, v.w)
            assert (v.v, v.w) not in g.edges


class TestRandomGraph:
    def test_deterministic_per_seed(self):
        a = random_graph(Random(7), 5, edge_prob=0.3)
        b = random_graph(Random(7), 5, edge_prob=0.3)
        assert a == b

    def test_probability_extremes(self):
        assert random_graph(Random(0), 4, edge_prob=0.0).edges == frozenset()
        assert len(random_graph(Random(0), 4, edge_prob=1.0).edges) == 12
