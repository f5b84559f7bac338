"""Formula layer: interning, text rendering, table round trips, evaluation, shape builders."""

import math

import pytest
from hypothesis import given, strategies as st

from nonham.errors import ProofFormatError, UnboundVariableError
from nonham.formulas import (
    AND,
    BOT,
    IMP,
    MAX_TABLE_WEIGHT,
    OR,
    VAR,
    Formula,
    QVar,
    XVar,
    balanced_conj,
    balanced_path,
    bot,
    chain_disj,
    conj,
    disj,
    eval_formula,
    formulas_from_table,
    formulas_to_table,
    imp,
    is_implicational,
    parse_var_name,
    q_var,
    subformulas,
    to_text,
    var,
    weight,
    x_var,
)

A = q_var("a")
B = q_var("b")
C = q_var("c")
X11 = x_var(1, 1)


def atoms():
    return st.sampled_from([A, B, C, X11, x_var(2, 3), q_var("z9"), bot()])


def formulas(max_leaves=24):
    return st.recursive(
        atoms(),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: conj(*t)),
            st.tuples(sub, sub).map(lambda t: disj(*t)),
            st.tuples(sub, sub).map(lambda t: imp(*t)),
        ),
        max_leaves=max_leaves,
    )


class TestInterning:
    def test_structural_equality_is_identity(self):
        assert conj(A, B) is conj(A, B)
        assert imp(A, imp(B, A)) is imp(A, imp(B, A))
        assert bot() is bot()
        assert x_var(1, 1) is X11

    def test_distinct_structures_distinct_objects(self):
        assert conj(A, B) is not conj(B, A)
        assert conj(A, B) is not disj(A, B)

    def test_weight_cached_on_node(self):
        f = imp(conj(A, B), bot())
        # hand count: 2 atoms + 1 conj + 1 bot + 1 imp
        assert f.weight == 5
        assert weight(f) == 5


class TestVariables:
    def test_var_rejects_strings(self):
        with pytest.raises(TypeError):
            var("a")

    def test_xvar_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError):
            XVar(0, 1)
        with pytest.raises(ValueError):
            XVar(1, -2)

    def test_qvar_key_charset(self):
        with pytest.raises(ValueError):
            QVar("no spaces")

    def test_parse_var_name_round_trip(self):
        assert parse_var_name("X_3_7") == XVar(3, 7)
        assert parse_var_name("Q_bot") == QVar("bot")
        for bad in ("Y_1", "X_0_1", "Q_", "Q_a b"):
            with pytest.raises(ValueError):
                parse_var_name(bad)


class TestText:
    def test_rendering_fixed_points(self):
        # full parenthesisation, one space around operators
        assert to_text(imp(A, B)) == "(Q_a -> Q_b)"
        assert to_text(conj(A, disj(B, bot()))) == "(Q_a & (Q_b | false))"
        assert to_text(X11) == "X_1_1"

    def test_limit_cuts_long_text(self):
        f = conj(A, disj(B, bot()))
        assert to_text(f, limit=21) == to_text(f) == "(Q_a & (Q_b | false))"
        assert to_text(f, limit=20) == "(Q_a & (Q_b | false)..."
        assert to_text(f, limit=0) == "..."

    def test_limit_bounds_shared_formulas(self):
        f = A
        for _ in range(200):
            f = imp(f, f)
        text = to_text(f, limit=100)
        assert len(text) == 103 and text.startswith("((((") and text.endswith("...")
        assert len(repr(f)) <= 77


class TestTable:
    def test_entries_are_hash_consed_children_first(self):
        f = imp(conj(A, B), imp(conj(A, B), bot()))
        table, index = formulas_to_table([f, A])
        assert table == [
            ["var", "Q_a"],
            ["var", "Q_b"],
            ["&", 0, 1],
            ["false"],
            ["->", 2, 3],
            ["->", 2, 4],
        ]
        assert index[f] == 5 and index[A] == 0 and len(index) == len(table)

    def test_first_use_order_follows_the_roots(self):
        table, index = formulas_to_table([B, imp(A, B), disj(X11, B)])
        assert table == [["var", "Q_b"], ["var", "Q_a"], ["->", 1, 0],
                         ["var", "X_1_1"], ["|", 3, 0]]
        assert index[disj(X11, B)] == 4

    @given(st.lists(formulas(), min_size=1, max_size=4))
    def test_round_trip_interns_the_same_objects(self, fs):
        table, index = formulas_to_table(fs)
        rebuilt = formulas_from_table(table)
        for f in fs:
            assert rebuilt[index[f]] is f
        assert len(set(rebuilt)) == len(rebuilt)

    def test_deep_chain_does_not_recurse(self):
        f = A
        for _ in range(20000):
            f = imp(B, f)
        table, index = formulas_to_table([f])
        assert len(table) == 20002
        assert formulas_from_table(table)[index[f]] is f

    def test_weight_is_capped(self):
        doubling = [["var", "Q_a"]] + [["->", i, i] for i in range(39)]
        assert formulas_from_table(doubling)[-1].weight == MAX_TABLE_WEIGHT - 1
        with pytest.raises(ProofFormatError, match="weight"):
            formulas_from_table(doubling + [["&", 39, 0]])

    @pytest.mark.parametrize(
        "table",
        [
            {"0": ["false"]},
            "false",
            None,
            [["->", 0, 0]],
            [["false"], ["->", 0, 2], ["false"]],
            [["false"], ["->", 0, 1]],
            [["false"], ["->", 0, -1]],
            [["false"], ["->", 0]],
            [["false"], ["&", 0, 0, 0]],
            [["false", 0]],
            [["var"]],
            [["var", "Q_a", "Q_b"]],
            [["not", 0]],
            [[]],
            ["false"],
            [[3, 0, 0]],
            [["var", "p"]],
            [["var", "X_0_1"]],
            [["var", "X_" + "9" * 5000 + "_1"]],
            [["var", 7]],
            [["false"], ["->", False, False]],
            [["false"], ["|", 0, True]],
            [["false"], ["->", 0.0, 0]],
        ],
    )
    def test_malformed_tables_rejected(self, table):
        with pytest.raises(ProofFormatError):
            formulas_from_table(table)


class TestEvaluation:
    def test_connective_truth_tables(self):
        xa, xb = XVar(1, 1), XVar(1, 2)
        a, b = var(xa), var(xb)
        rows = [(False, False), (False, True), (True, False), (True, True)]
        for va, vb in rows:
            env = {xa: va, xb: vb}
            assert eval_formula(conj(a, b), env) == (va and vb)
            assert eval_formula(disj(a, b), env) == (va or vb)
            assert eval_formula(imp(a, b), env) == ((not va) or vb)
            assert eval_formula(bot(), env) is False

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariableError):
            eval_formula(A, {})

    @given(formulas(), st.booleans(), st.booleans())
    def test_agrees_with_recursive_reference(self, f, v1, v2):
        env = {name: (v1 if hash(name) % 2 == 0 else v2)
               for name in {g.var for g in subformulas(f) if g.kind == VAR}}

        def ref(g):
            if g.kind == BOT:
                return False
            if g.kind == VAR:
                return env[g.var]
            lo, hi = ref(g.left), ref(g.right)
            if g.kind == AND:
                return lo and hi
            if g.kind == OR:
                return lo or hi
            return (not lo) or hi

        assert eval_formula(f, env) == ref(f)


class TestShapeBuilders:
    @pytest.mark.parametrize("k", list(range(1, 21)))
    def test_balanced_path_descends_to_each_leaf(self, k):
        leaves = [q_var(f"v{i}") for i in range(k)]
        tree = balanced_conj(leaves)
        for i, leaf in enumerate(leaves):
            node = tree
            for step in balanced_path(k, i):
                node = node.left if step == "L" else node.right
            assert node is leaf

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 15, 16, 17, 40])
    def test_balanced_depth_logarithmic(self, k):
        depth = max(len(balanced_path(k, i)) for i in range(k))
        bound = 0 if k == 1 else math.ceil(math.log2(k)) + 1
        assert depth <= bound

    def test_chain_disj_right_nested(self):
        assert chain_disj([A]) is A
        assert chain_disj([A, B, C]) is disj(A, disj(B, C))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            balanced_conj([])
        with pytest.raises(ValueError):
            chain_disj([])


class TestQueries:
    def test_subformulas_and_vars(self):
        f = imp(conj(A, B), A)
        subs = set(subformulas(f))
        assert subs == {f, conj(A, B), A, B}
        assert {g.var for g in subs if g.kind == VAR} == {QVar("a"), QVar("b")}

    @given(formulas())
    def test_subformulas_walk_children_first_like_the_table(self, f):
        def parts(g):
            if g.kind in (BOT, VAR):
                return {g}
            return {g} | parts(g.left) | parts(g.right)

        walk = list(subformulas(f))
        assert len(walk) == len(set(walk))
        assert set(walk) == parts(f)
        pos = {g: i for i, g in enumerate(walk)}
        for g in walk:
            if g.kind not in (BOT, VAR):
                assert pos[g.left] < pos[g] and pos[g.right] < pos[g]
        table, index = formulas_to_table([f])
        assert walk == sorted(index, key=index.get)

    def test_done_stops_the_walk(self):
        inner = imp(conj(A, B), C)
        f = disj(inner, imp(B, X11))
        done, walk = {inner}, []
        for g in subformulas(f, done):
            done.add(g)
            walk.append(g)
        assert walk == [B, X11, imp(B, X11), f]
        assert list(subformulas(f, {f})) == []

    def test_deep_chain_walks_without_recursion(self):
        f = A
        for _ in range(100_000):
            f = imp(B, f)
        walk = list(subformulas(f))
        assert len(walk) == 100_002
        assert walk[0] is B and walk[1] is A and walk[-1] is f

    def test_doubling_formula_walks_once_per_distinct_part(self):
        f = A
        for _ in range(60):
            f = imp(f, f)
        assert f.weight == 2**61 - 1
        assert len(list(subformulas(f))) == 61
        assert is_implicational(f)
        assert not is_implicational(conj(f, f))

    def test_is_implicational(self):
        assert is_implicational(imp(A, imp(B, A)))
        assert not is_implicational(conj(A, B))
        assert not is_implicational(imp(A, disj(A, B)))
        # falsum is excluded: translated formulas mark it with a Q variable
        assert not is_implicational(imp(A, bot()))
