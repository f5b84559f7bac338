"""Tests for the flat evaluation kernel and the assignment blocks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonham.formulas import (
    bot,
    conj,
    disj,
    imp,
    eval_formula,
    q_var,
    subformulas,
    x_var,
)
from nonham.kernels import (
    bit_block,
    compile_program,
    eval_batch_numpy,
    step_vertex_block,
)

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

    def test_programs_are_cached(self):
        f = disj(x_var(1, 1), x_var(2, 2))
        assert compile_program(f) is compile_program(f)

    def test_var_slots_are_distinct_names(self):
        f = conj(conj(q_var("a"), q_var("b")), conj(q_var("a"), q_var("c")))
        prog = compile_program(f)
        assert len(prog.var_slots) == len(set(prog.var_slots)) == 3

    @given(small_formulas())
    def test_shared_subterms_compile_once(self, f):
        prog = compile_program(f)
        assert prog.node_count == len(set(subformulas(f)))


class TestNumpyEval:
    @given(small_formulas())
    @settings(max_examples=60)
    def test_agrees_with_scalar_evaluator(self, f):
        prog = compile_program(f)
        rows = full_table(prog)
        got = eval_batch_numpy(prog, rows)
        for row, value in zip(rows, got):
            env = dict(zip(prog.var_slots, (bool(b) for b in row)))
            assert eval_formula(f, env) == bool(value)
        # the SAT scan passes the transpose of a step-major matrix
        assert np.array_equal(eval_batch_numpy(prog, np.ascontiguousarray(rows.T).T), got)

    def test_constant_programs(self):
        false_prog = compile_program(bot())
        true_prog = compile_program(imp(bot(), bot()))
        batch = np.zeros((3, 0), dtype=bool)
        assert not eval_batch_numpy(false_prog, batch).any()
        assert eval_batch_numpy(true_prog, batch).all()

    def test_rejects_wrong_shapes(self):
        prog = compile_program(conj(q_var("a"), q_var("b")))
        with pytest.raises(ValueError):
            eval_batch_numpy(prog, np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            eval_batch_numpy(prog, np.zeros((4, 3), dtype=bool))

    def test_accepts_int_matrix(self):
        prog = compile_program(imp(q_var("a"), q_var("b")))
        rows = np.array([[1, 0], [0, 0]])
        got = eval_batch_numpy(prog, rows)
        assert got.tolist() == [False, True]


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
