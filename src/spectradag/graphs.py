"""DAG representation, the random-DAG generation protocol, and structural
queries (parents, ancestors, non-descendants, ancestral sets).

Nodes are integers 0..p-1 and double as matrix row/column indices in the
spectral modules. Edges are ordered pairs (j, i) meaning j -> i.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ConfigError
from .seeding import rng_from


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over nodes 0..p-1 with a topological order.

    Construction validates everything: edge endpoints in range, no self
    loops, and `order` a permutation consistent with every edge. Positions
    in `order` then rise along every path, so no cycle can pass.
    """

    p: int
    edges: frozenset[tuple[int, int]]
    order: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError(f"node count must be >= 1, got {self.p}")
        if sorted(self.order) != list(range(self.p)):
            raise ConfigError("order is not a permutation of 0..p-1")
        pos = {node: idx for idx, node in enumerate(self.order)}
        for j, i in self.edges:
            if not (0 <= j < self.p and 0 <= i < self.p):
                raise ConfigError(f"edge ({j}, {i}) out of range for p={self.p}")
            if j == i:
                raise ConfigError(f"self loop on node {j}")
            if pos[j] >= pos[i]:
                raise ConfigError(f"order violates edge {j} -> {i}")


@dataclass(frozen=True)
class ParentSetQuery:
    """Structural neighborhoods of one node, as plain sets."""

    node: int
    parents: frozenset[int]
    ancestors: frozenset[int]
    non_descendants: frozenset[int]


def random_dag(p: int, q: int, seed) -> Dag:
    """Random DAG from the capped-in-degree family.

    A uniform random permutation fixes the order; the node at position j
    then receives exactly min(q, j) parents drawn uniformly without
    replacement from its predecessors. Deterministic given `seed`.
    """
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if not (0 <= q <= p - 1):
        raise ConfigError(f"q must satisfy 0 <= q <= p-1, got q={q} for p={p}")
    rng = rng_from(seed)
    order = tuple(int(v) for v in rng.permutation(p))
    edges = set()
    for j in range(1, p):
        k = min(q, j)
        if k == 0:
            continue
        parents = rng.choice(order[:j], size=k, replace=False)
        child = order[j]
        for par in parents:
            edges.add((int(par), child))
    return Dag(p=p, edges=frozenset(edges), order=order)


def _parent_map(g: Dag) -> dict[int, set[int]]:
    parents: dict[int, set[int]] = {v: set() for v in range(g.p)}
    for j, i in g.edges:
        parents[i].add(j)
    return parents


def _child_map(g: Dag) -> dict[int, set[int]]:
    children: dict[int, set[int]] = {v: set() for v in range(g.p)}
    for j, i in g.edges:
        children[j].add(i)
    return children


def _reachable(adjacency: dict[int, set[int]], start: int) -> set[int]:
    seen: set[int] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def structural_queries(g: Dag, node: int) -> ParentSetQuery:
    """Parents, ancestors, and non-descendants of `node` by graph traversal."""
    if not (0 <= node < g.p):
        raise ConfigError(f"node {node} out of range for p={g.p}")
    parent_map = _parent_map(g)
    parents = parent_map[node]
    ancestors = _reachable(parent_map, node)
    descendants = _reachable(_child_map(g), node)
    non_desc = set(range(g.p)) - descendants - {node}
    return ParentSetQuery(
        node=node,
        parents=frozenset(parents),
        ancestors=frozenset(ancestors),
        non_descendants=frozenset(non_desc),
    )


def is_ancestral(g: Dag, c) -> bool:
    """True iff every member's parents are inside the set (closed under parents)."""
    members = set(c)
    parents = _parent_map(g)
    return all(parents[v] <= members for v in members)


def source_nodes(g: Dag) -> frozenset[int]:
    """Nodes with no parents."""
    parents = _parent_map(g)
    return frozenset(v for v in range(g.p) if not parents[v])


def max_in_degree(g: Dag) -> int:
    parents = _parent_map(g)
    return max((len(s) for s in parents.values()), default=0)


def graph_equal(g1: Dag, g2: Dag) -> bool:
    """Exact edge-set equality; the order fields are ignored."""
    if g1.p != g2.p:
        raise ConfigError(f"node counts differ: {g1.p} vs {g2.p}")
    return g1.edges == g2.edges


def structural_hamming(g1: Dag, g2: Dag) -> int:
    """Directed edge-set symmetric difference size (a reversed edge counts twice)."""
    if g1.p != g2.p:
        raise ConfigError(f"node counts differ: {g1.p} vs {g2.p}")
    return len(g1.edges ^ g2.edges)


def canonical_order(p: int, edges) -> tuple[int, ...]:
    """Lexicographically smallest topological order (Kahn with a min-heap)."""
    parents_left = {v: 0 for v in range(p)}
    children: dict[int, list[int]] = {v: [] for v in range(p)}
    for j, i in edges:
        parents_left[i] += 1
        children[j].append(i)
    heap = [v for v in range(p) if parents_left[v] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        out.append(v)
        for c in children[v]:
            parents_left[c] -= 1
            if parents_left[c] == 0:
                heapq.heappush(heap, c)
    if len(out) != p:
        raise ConfigError("graph contains a cycle")
    return tuple(out)


def dag_to_edgelist(g: Dag) -> str:
    """Text serialization: header ``p=<int>``, then one ``j i`` pair per line."""
    lines = [f"p={g.p}"]
    lines.extend(f"{j} {i}" for j, i in sorted(g.edges))
    return "\n".join(lines) + "\n"


def dag_from_edgelist(text: str) -> Dag:
    """Parse the edge-list format; the order is recomputed canonically."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p="):
        raise ConfigError("edge list must start with a 'p=<int>' header")
    try:
        p = int(lines[0][2:])
    except ValueError as exc:
        raise ConfigError(f"bad node count in header: {lines[0]!r}") from exc
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ConfigError(f"bad edge line: {ln!r}")
        try:
            j, i = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad edge line: {ln!r}") from exc
        if not (0 <= j < p and 0 <= i < p):
            raise ConfigError(f"edge ({j}, {i}) out of range for p={p}")
        edges.add((j, i))
    order = canonical_order(p, edges)  # raises on cycles
    return Dag(p=p, edges=frozenset(edges), order=order)
