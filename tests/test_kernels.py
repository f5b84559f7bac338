"""Tests for the word-parallel evaluation kernel and the reference assignment tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonham.formulas import (
    bot,
    conj,
    disj,
    imp,
    q_var,
    subformulas,
    x_var,
)
from nonham.kernels import compile_program, eval_words
from references import bit_block, eval_formula, pack_columns, step_vertex_block, unpack_column

ATOMS = [q_var(name) for name in "abcdef"]


def small_formulas():
    atom = st.sampled_from(ATOMS + [bot()])
    return st.recursive(
        atom,
        lambda sub: st.tuples(st.sampled_from([conj, disj, imp]), sub, sub).map(
            lambda t: t[0](t[1], t[2])
        ),
        max_leaves=24,
    )


def full_table(prog):
    nvars = len(prog.var_slots)
    return bit_block(nvars, 0, 2**nvars)


class TestCompile:
    def test_node_count_matches_distinct_subformulas(self):
        f = imp(conj(q_var("a"), q_var("b")), disj(q_var("a"), bot()))
        prog = compile_program(f)
        assert prog.node_count == len(set(subformulas(f)))

    def test_root_is_last(self):
        f = conj(q_var("a"), imp(q_var("b"), bot()))
        prog = compile_program(f)
        assert int(prog.kinds[-1]) == f.kind

    def test_compiles_keep_nothing(self):
        f = disj(x_var(3, 1), imp(x_var(1, 3), conj(x_var(3, 1), bot())))
        prog, again = compile_program(f), compile_program(f)
        assert prog is not again and prog == again

    def test_var_slots_are_distinct_names(self):
        f = conj(conj(q_var("a"), q_var("b")), conj(q_var("a"), q_var("c")))
        prog = compile_program(f)
        assert len(prog.var_slots) == len(set(prog.var_slots)) == 3

    @given(small_formulas())
    def test_shared_subterms_compile_once(self, f):
        prog = compile_program(f)
        assert prog.node_count == len(set(subformulas(f)))
        assert prog.roots == (prog.node_count - 1,)

    @given(st.lists(small_formulas(), min_size=0, max_size=4))
    def test_roots_share_their_subterms(self, fs):
        prog = compile_program(*fs)
        assert prog.node_count == len({g for f in fs for g in subformulas(f)})
        assert len(prog.roots) == len(fs)
        for f, r in zip(fs, prog.roots):
            assert prog.kinds[r] == f.kind


class TestWordEval:
    @pytest.mark.parametrize("rows", [0, 3, 70])
    def test_constant_programs(self, rows):
        assert eval_words(compile_program(bot()), [], rows) == [0]
        assert eval_words(compile_program(imp(bot(), bot())), [], rows) == [2**rows - 1]

    @given(small_formulas(), st.data())
    @settings(max_examples=60)
    def test_agrees_with_scalar_evaluator(self, f, data):
        # a prefix of the truth table, so most row counts are not a
        # multiple of 64; unpack_column refuses any bit past the rows
        prog = compile_program(f)
        table = full_table(prog)
        rows = data.draw(st.integers(0, len(table)))
        [root] = eval_words(prog, pack_columns(table[:rows].T), rows)
        got = unpack_column(root, rows)
        for row, value in zip(table[:rows], got):
            env = dict(zip(prog.var_slots, (bool(b) for b in row)))
            assert eval_formula(f, env) == bool(value)

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 130, 256])
    def test_agrees_with_scalar_evaluator_over_words(self, rows):
        names = [q_var(f"w{i}") for i in range(8)]
        f = imp(conj(disj(names[0], names[7]), imp(names[3], names[5])),
                disj(conj(names[1], names[2]), imp(names[4], names[6])))
        prog = compile_program(f)
        table = full_table(prog)[:rows]
        [root] = eval_words(prog, pack_columns(table.T), rows)
        want = [eval_formula(f, dict(zip(prog.var_slots, map(bool, row)))) for row in table]
        assert unpack_column(root, rows).tolist() == want

    @given(st.lists(small_formulas(), min_size=1, max_size=4), st.data())
    @settings(max_examples=40)
    def test_each_root_as_if_compiled_alone(self, fs, data):
        prog = compile_program(*fs)
        table = full_table(prog)
        rows = data.draw(st.integers(0, len(table)))
        cols = dict(zip(prog.var_slots, pack_columns(table[:rows].T)))
        for f, got in zip(fs, eval_words(prog, list(cols.values()), rows)):
            alone = compile_program(f)
            assert eval_words(alone, [cols[name] for name in alone.var_slots], rows) == [got]

    @pytest.mark.parametrize("rows", [1, 5, 63, 65, 130])
    def test_true_on_all_false_row_sets_no_bit_past_the_count(self, rows):
        # negation complements within the rows only
        prog = compile_program(imp(q_var("a"), bot()))
        assert eval_words(prog, [0], rows) == [2**rows - 1]

    def test_pack_columns_layout(self):
        bits = np.zeros((2, 70), dtype=bool)
        bits[0] = True
        bits[1, [0, 3, 64, 69]] = True
        words = pack_columns(bits)
        assert words == [2**70 - 1, 0b1001 | 0b100001 << 64]
        assert np.array_equal(unpack_column(words[1], 70), bits[1])

    def test_rejects_wrong_columns(self):
        prog = compile_program(conj(q_var("a"), q_var("b")))
        with pytest.raises(ValueError):
            eval_words(prog, [1], 4)
        with pytest.raises(ValueError):
            eval_words(prog, [1, 2, 3], 4)
        with pytest.raises(ValueError):
            eval_words(prog, [1, 16], 4)
        with pytest.raises(ValueError):
            eval_words(prog, [-1, 1], 4)


class TestAssignmentBlocks:
    def test_step_vertex_block_n2(self):
        rows = step_vertex_block(2, 0, 4)
        assert rows.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_step_vertex_block_base_n_order(self):
        rows = step_vertex_block(3, 0, 27)
        assert rows[0].tolist() == [1, 1, 1]
        assert rows[5].tolist() == [1, 2, 3]
        assert rows[26].tolist() == [3, 3, 3]

    def test_step_vertex_chunks_concatenate(self):
        whole = step_vertex_block(3, 0, 27)
        parts = np.vstack([step_vertex_block(3, 0, 10), step_vertex_block(3, 10, 27)])
        assert np.array_equal(whole, parts)

    def test_bit_block_first_variable_most_significant(self):
        rows = bit_block(3, 0, 8)
        assert rows[0].tolist() == [False, False, False]
        assert rows[5].tolist() == [True, False, True]
        assert rows[7].tolist() == [True, True, True]

    def test_bit_chunks_concatenate(self):
        whole = bit_block(4, 0, 16)
        parts = np.vstack([bit_block(4, 0, 7), bit_block(4, 7, 16)])
        assert np.array_equal(whole, parts)
