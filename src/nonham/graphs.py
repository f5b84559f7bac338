"""Directed graphs, the text format, and the backtracking path oracle.

Vertices are 1..n. Edges are ordered pairs without self-loops. The text
format is a header line ``n m`` followed by m lines ``u v``; blank lines
and ``#`` comments are allowed anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random
from typing import Iterator, Sequence

from .errors import CapExceededError, GraphFormatError


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered vertex pairs (u, v) with u != v, lexicographic."""
    return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer: {self.n!r}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValueError(f"edge must be a pair: {e!r}")
            u, v = e
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge endpoint out of range: {e!r}")
            if u == v:
                raise ValueError(f"self-loop not allowed: {e!r}")

    def missing_pairs(self) -> list[tuple[int, int]]:
        """Ordered pairs (v, w), v != w, that are not edges, lexicographic."""
        return [p for p in ordered_pairs(self.n) if p not in self.edges]

    @property
    def graph_id(self) -> int:
        """Bitmask over `ordered_pairs(n)`: bit i set iff pair i is an edge."""
        gid = 0
        for i, p in enumerate(ordered_pairs(self.n)):
            if p in self.edges:
                gid |= 1 << i
        return gid


_INTEGER = re.compile(r"-?[0-9]+")


def parse_graph(text: str) -> Graph:
    """Parse the ``n m`` edge-list format with 1-based line numbers in errors."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    header: tuple[int, int] | None = None
    edges: set[tuple[int, int]] = set()
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or not all(_INTEGER.fullmatch(f) for f in fields):
            raise GraphFormatError(f"expected two integers, got {raw.strip()!r:.80}", lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:  # more digits than int() converts
            raise GraphFormatError("integer too long", lineno) from None
        if header is None:
            if a < 1:
                raise GraphFormatError(f"vertex count must be positive, got {a}", lineno)
            if b < 0:
                raise GraphFormatError(f"edge count must be nonnegative, got {b}", lineno)
            header = (a, b)
            n, m = header
            continue
        if len(edges) >= m:
            raise GraphFormatError("more edge lines than the declared edge count", lineno)
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphFormatError(f"edge endpoint out of range 1..{n}: {a} {b}", lineno)
        if a == b:
            raise GraphFormatError(f"self-loop not allowed: {a} {b}", lineno)
        if (a, b) in edges:
            raise GraphFormatError(f"duplicate edge: {a} {b}", lineno)
        edges.add((a, b))
    if header is None:
        raise GraphFormatError("missing header line 'n m'")
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges but found {len(edges)}")
    return Graph(n, frozenset(edges))


@dataclass(frozen=True)
class Repeat:
    """Positions i < j (1-based) both visit vertex v."""

    i: int
    j: int
    v: int


@dataclass(frozen=True)
class MissingEdge:
    """Step i goes from v to w but (v, w) is not an edge."""

    i: int
    v: int
    w: int


Violation = Repeat | MissingEdge


def _check_entries(seq: Sequence[int], n: int):
    for v in seq:
        if not (isinstance(v, int) and 1 <= v <= n):
            raise ValueError(f"sequence entry out of range 1..{n}: {v!r}")


def _least_violation(seq: Sequence[int], g: Graph) -> Violation | None:
    m = len(seq)
    for i in range(m):
        for j in range(i + 1, m):
            if seq[i] == seq[j]:
                return Repeat(i + 1, j + 1, seq[i])
    for i in range(m - 1):
        if (seq[i], seq[i + 1]) not in g.edges:
            return MissingEdge(i + 1, seq[i], seq[i + 1])
    return None


def find_violation(seq: Sequence[int], g: Graph) -> Violation | None:
    """Least witness that a full vertex sequence is not a Hamiltonian path.

    Repeats come first, ordered lexicographically by (i, j); then missing
    edges ordered by step. Returns None exactly when `seq` is a Hamiltonian
    path of g.
    """
    if len(seq) != g.n:
        raise ValueError(f"sequence length {len(seq)} != vertex count {g.n}")
    _check_entries(seq, g.n)
    return _least_violation(seq, g)


def prefix_violation(prefix: Sequence[int], g: Graph) -> Violation | None:
    """Least violation visible inside a prefix of a candidate sequence."""
    if len(prefix) > g.n:
        raise ValueError(f"prefix longer than vertex count {g.n}")
    _check_entries(prefix, g.n)
    return _least_violation(prefix, g)


def is_hamiltonian(g: Graph) -> tuple[int, ...] | None:
    """First Hamiltonian path in lexicographic order, or None.

    Depth-first search with an explicit stack: start vertices and
    successors are tried in ascending order, so the first full path found
    is the lexicographically least, and a prefix that cannot be extended
    is abandoned with every permutation that starts with it.
    """
    n = g.n
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in sorted(g.edges):
        succ[u].append(v)
    used = [False] * (n + 1)
    path: list[int] = []
    stack = [iter(range(1, n + 1))]
    while stack:
        for v in stack[-1]:
            if not used[v]:
                used[v] = True
                path.append(v)
                if len(path) == n:
                    return tuple(path)
                stack.append(iter(succ[v]))
                break
        else:
            stack.pop()
            if path:
                used[path.pop()] = False
    return None


def enumerate_graphs(n: int, cap: int = 4) -> Iterator[Graph]:
    """All digraphs on n vertices in graph_id order; refuses n beyond the cap."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds enumeration cap {cap}")
    pairs = ordered_pairs(n)

    def gen():
        for gid in range(1 << len(pairs)):
            yield Graph(n, frozenset(p for i, p in enumerate(pairs) if gid >> i & 1))

    return gen()


def random_graph(rng: Random, n: int, edge_prob: float = 0.5) -> Graph:
    """Each ordered pair independently an edge with probability `edge_prob`."""
    edges = frozenset(p for p in ordered_pairs(n) if rng.random() < edge_prob)
    return Graph(n, edges)
