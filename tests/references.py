"""Reference implementations the tests compare the package against.

They are the plain versions of what `nonham` does faster: the full truth
table and the n^n vertex-sequence table as bool and int rows, the
Hamiltonian path search as a scan over every permutation, and the
translated goal's axiom fold built formula by formula.
"""

import itertools

import numpy as np

from nonham.formulas import Formula, imp
from nonham.graphs import Graph
from nonham.implicational import Translation


def step_vertex_block(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the n^n table of vertex sequences.

    Row r is the base-n expansion of r (step 1 most significant), shifted to
    vertices 1..n; column j holds the vertex visited at step j+1.
    """
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        idx, out[:, pos] = np.divmod(idx, n)
    return out + 1


def bit_block(nvars: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the 2^nvars truth table (variable 0 most significant)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, nvars), dtype=bool)
    for pos in range(nvars):
        out[:, pos] = (idx >> (nvars - 1 - pos)) & 1
    return out


def brute_force_path(g: Graph):
    """First Hamiltonian path in lexicographic order, trying every permutation."""
    for perm in itertools.permutations(range(1, g.n + 1)):
        if all((perm[i], perm[i + 1]) in g.edges for i in range(g.n - 1)):
            return perm
    return None


def rho_star(t: Translation, axioms: list[Formula] | None = None) -> Formula:
    """The translated goal with the axioms (all of them by default) folded
    in front as antecedents, last axiom innermost."""
    if t.star_root is None:
        raise ValueError("translation not initialized")
    out = t.star_root
    for ax in reversed(t.axioms if axioms is None else list(axioms)):
        out = imp(ax, out)
    return out
