"""Batch truth-evaluation kernel.

A formula is compiled once into flat postorder arrays (kind, arg0, arg1)
plus a variable-slot table, then evaluated over a whole matrix of
assignments at once by numpy, vectorized over the assignment axis with one
pass over the nodes. The kernel is differentially tested against the scalar
evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import AND, BOT, OR, VAR, Formula, VarName


@dataclass(frozen=True)
class Program:
    """Flattened formula: postorder node arrays, root last.

    ``kinds[i]`` is the formula kind; for VAR nodes ``arg0`` is a slot into
    ``var_slots``, otherwise ``arg0``/``arg1`` index earlier nodes.
    """

    kinds: np.ndarray
    arg0: np.ndarray
    arg1: np.ndarray
    var_slots: tuple[VarName, ...]

    @property
    def node_count(self) -> int:
        return int(self.kinds.shape[0])


_program_cache: dict[Formula, Program] = {}


def compile_program(f: Formula) -> Program:
    """Compile (and cache) a formula into flat evaluation arrays."""
    cached = _program_cache.get(f)
    if cached is not None:
        return cached
    index: dict[Formula, int] = {}
    kinds: list[int] = []
    arg0: list[int] = []
    arg1: list[int] = []
    slots: dict[VarName, int] = {}
    stack = [f]
    while stack:
        node = stack[-1]
        if node in index:
            stack.pop()
            continue
        k = node.kind
        if k in (BOT, VAR):
            slot = -1
            if k == VAR:
                slot = slots.setdefault(node.var, len(slots))
            index[node] = len(kinds)
            kinds.append(k)
            arg0.append(slot)
            arg1.append(-1)
            stack.pop()
            continue
        li = index.get(node.left)
        if li is None:
            stack.append(node.left)
            continue
        ri = index.get(node.right)
        if ri is None:
            stack.append(node.right)
            continue
        index[node] = len(kinds)
        kinds.append(k)
        arg0.append(li)
        arg1.append(ri)
        stack.pop()
    prog = Program(
        kinds=np.asarray(kinds, dtype=np.uint8),
        arg0=np.asarray(arg0, dtype=np.int32),
        arg1=np.asarray(arg1, dtype=np.int32),
        var_slots=tuple(sorted(slots, key=slots.get)),
    )
    _program_cache[f] = prog
    return prog


def eval_batch_numpy(prog: Program, assigns: np.ndarray) -> np.ndarray:
    """Evaluate over a (batch, nvars) bool matrix; returns a (batch,) bool vector.

    Each variable reads one column of the matrix, so a matrix whose columns
    are contiguous (the transpose of a step-major (nvars, batch) array) is
    evaluated without a copy.
    """
    a = np.asarray(assigns, dtype=bool)
    if a.ndim != 2 or a.shape[1] != len(prog.var_slots):
        raise ValueError(f"assignment matrix must be (batch, {len(prog.var_slots)})")
    vals = np.empty((prog.node_count, a.shape[0]), dtype=bool)
    nodes = zip(prog.kinds.tolist(), prog.arg0.tolist(), prog.arg1.tolist())
    for i, (k, x, y) in enumerate(nodes):
        if k == BOT:
            vals[i] = False
        elif k == VAR:
            vals[i] = a[:, x]
        elif k == AND:
            np.logical_and(vals[x], vals[y], out=vals[i])
        elif k == OR:
            np.logical_or(vals[x], vals[y], out=vals[i])
        else:
            # implication: left -> right  ==  right >= left on booleans
            np.greater_equal(vals[y], vals[x], out=vals[i])
    return vals[-1].copy()


def step_vertex_block(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the n^n table of vertex sequences.

    Row r is the base-n expansion of r (step 1 most significant), shifted to
    vertices 1..n; column j holds the vertex visited at step j+1. Columns
    are contiguous, so the transpose is a step-major (n, rows) array.
    """
    idx = np.arange(lo, hi, dtype=np.int64)
    quot = np.empty_like(idx)
    out = np.empty((hi - lo, n), dtype=np.int64, order="F")
    for pos in range(n - 1, -1, -1):
        # one division per digit: idx % n == idx - n * (idx // n)
        np.floor_divide(idx, n, out=quot)
        np.subtract(idx, quot * n, out=out[:, pos])
        out[:, pos] += 1
        idx, quot = quot, idx
    return out


def bit_block(nvars: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the 2^nvars truth table (variable 0 most significant)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, nvars), dtype=bool)
    for pos in range(nvars):
        out[:, pos] = (idx >> (nvars - 1 - pos)) & 1
    return out
