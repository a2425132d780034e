"""DAG recovery from a single-frequency PSDM.

Two phases, both driven by the conditional PSD f(i, C, omega):

1. Ordering: starting from an empty sequence S, repeatedly pick the
   (node j not in S, set C subseteq S) minimizing f, and append j. On the
   population PSDM the minimizer always has its parents covered by S, so S
   comes out topologically sorted. The search uses subsets of exact size
   min(|S|, q): f is monotone nonincreasing in C, so nothing smaller can
   win (the tests check that equivalence against a scan of all subsets).
2. Parent identification: for each node, a candidate parent is kept when
   removing it from the conditioning set, the full ordered prefix, raises
   f by at least gamma.

The ordering reads one `cpsd_fs` f array per conditioning set, so its
values and exact-float ties are the bits an external `cpsd_fs`/`cpsd_f`
audit computes. Ties in the argmin are broken by (f value, node id,
lexicographic C), making results reproducible across runs. The parent
scan reads f given each prefix, and given each prefix minus one
candidate, off one Cholesky factor of Phi in the recovered order and its
inverse. Its f values and drops match `cpsd_f` up to rounding, and a
ridge rescue there is decided once, on the whole ordered matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cpsd import PsdmEstimate, cpsd_fs
from .cpsd import cpsd_f  # noqa: F401  (bench/tracing.py patches reconstruct.cpsd_f)
from .errors import ConfigError, as_int
from .graphs import Dag
from .linalg import hermitian_factor, require_hermitian


@dataclass(frozen=True)
class ReconstructionParams:
    """Search cardinality cap q, parent threshold gamma, and the frequency."""

    q: int
    gamma: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "q", as_int("q", self.q))
        if self.q < 0:
            raise ConfigError(f"q must be >= 0, got {self.q}")
        if not 0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and > 0, got {self.gamma}")
        if not np.isfinite(self.omega):
            raise ConfigError(f"omega must be finite, got {self.omega}")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    opt_sets: tuple[frozenset[int], ...]
    graph: Dag
    f_values: tuple[tuple[int, frozenset[int], float], ...]
    drops: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if len(self.opt_sets) != self.graph.p:
            raise ConfigError("one minimizing set per ordered position required")

    @property
    def order(self) -> tuple[int, ...]:
        """The recovered order, which the graph carries."""
        return self.graph.order


def _matrix_of(psdm, params: ReconstructionParams) -> np.ndarray:
    if isinstance(psdm, PsdmEstimate):
        if abs(psdm.omega - params.omega) > 1e-12:
            raise ConfigError(
                f"params.omega={params.omega} does not match the estimate's "
                f"omega={psdm.omega}"
            )
        return psdm.matrix
    m = np.asarray(psdm, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"PSDM must be square, got shape {m.shape}")
    require_hermitian(m, "reconstruction PSDM")
    return m


def _check_q(params: ReconstructionParams, p: int) -> None:
    if params.q > p - 1:
        raise ConfigError(f"q={params.q} must be <= p-1={p - 1}")


def _ordering_scan(matrix, params):
    order: list[int] = []
    trail: list[tuple[int, frozenset[int], float]] = []
    remaining = list(range(matrix.shape[0]))
    best: dict[int, tuple[float, int, tuple[int, ...]]] = {}  # node -> least (f, node, C)
    while remaining:
        k = min(len(order), params.q)
        if k == len(order):
            best = {}  # the set size grew, so no earlier set counts
        # f(j, C) never changes, so only the sets holding the node placed last are new
        fresh = [c for c in combinations(sorted(order), k) if k == len(order) or order[-1] in c]
        for c in fresh:
            for j, f in zip(remaining, cpsd_fs(matrix, remaining, c)[0].tolist()):
                key = (f, j, c)
                best[j] = min(best.get(j, key), key)
        v, j, c = min(best.values())
        del best[j]
        order.append(j)
        trail.append((j, frozenset(c), v))
        remaining.remove(j)
    return tuple(order), tuple(s for _, s, _ in trail), tuple(trail)


def _parent_scan(matrix, order, params):
    # L is the Cholesky factor of Phi[order, order] and W = L^-1; the leading
    # blocks of W invert those of L. So f(order[k] | prefix) = |L_kk|^2, and
    # without order[j] it is |L_kk|^2 / (1 - |W_kj|^2 / S_kj) = |L_kk|^2 *
    # S_kj / S_(k-1)j, where S holds the running sums of |W|^2 down each column.
    chol, _ = hermitian_factor(matrix[np.ix_(order, order)])
    col_sums = np.cumsum(np.abs(np.tril(np.linalg.solve(chol, np.eye(len(order))))) ** 2, axis=0)
    pivots = chol.diagonal().real ** 2
    edges = set()
    fvals: list[tuple[int, frozenset[int], float]] = []
    drops: list[tuple[int, int, float]] = []
    for pos, node in enumerate(order[1:], start=1):
        cset = frozenset(order[:pos])
        f_full = float(pivots[pos])
        f_minus_all = pivots[pos] * col_sums[pos, :pos] / col_sums[pos - 1, :pos]
        fvals.append((node, cset, f_full))
        cands = []
        for k in sorted(range(pos), key=order.__getitem__):  # candidates by node id
            j, f_minus = order[k], float(f_minus_all[k])
            fvals.append((node, cset - {j}, f_minus))
            d = abs(f_full - f_minus)
            drops.append((node, j, d))
            if d >= params.gamma:
                cands.append((d, j))
        if len(cands) > params.q:
            # sampling noise can push more than q drops over gamma; keep the
            # q strongest, ties to the smaller node id
            cands.sort(key=lambda t: (-t[0], t[1]))
            cands = cands[: params.q]
        edges.update((j, node) for _, j in cands)
    return frozenset(edges), tuple(fvals), tuple(drops)


def order_nodes(psdm, params: ReconstructionParams, *, search: str = "fixed_size"):
    """Iterative CPSD-minimizing ordering; returns (order, minimizing sets).

    ``search`` accepts only "fixed_size"; it stays so that callers that
    still pass it, such as the benchmark's tracer, keep working.
    """
    if search != "fixed_size":
        raise ConfigError(f"search must be 'fixed_size', got {search!r}")
    matrix = _matrix_of(psdm, params)
    _check_q(params, matrix.shape[0])
    order, optsets, _ = _ordering_scan(matrix, params)
    return order, optsets


def identify_parents(psdm, order, optsets, params: ReconstructionParams) -> Dag:
    """Thresholded-drop parent sets along a given ordering, as a Dag.

    The conditioning sets are the ordered prefixes, so ``optsets`` is no
    longer read. It is still taken, and its length still checked, so that
    callers written against the ``order_nodes`` -> ``identify_parents``
    pair keep working unchanged.
    """
    matrix = _matrix_of(psdm, params)
    p = matrix.shape[0]
    _check_q(params, p)
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(p)):
        raise ConfigError("order is not a permutation of 0..p-1")
    if len(tuple(optsets)) != p:
        raise ConfigError("one minimizing set per ordered position required")
    edges, _, _ = _parent_scan(matrix, order, params)
    return Dag(p=p, edges=edges, order=order)


def reconstruct(psdm, params: ReconstructionParams):
    """Full pipeline: ordering, then parent identification, with audit trail."""
    matrix = _matrix_of(psdm, params)
    _check_q(params, matrix.shape[0])
    order, optsets, trail = _ordering_scan(matrix, params)
    edges, fvals, drops = _parent_scan(matrix, order, params)
    graph = Dag(p=matrix.shape[0], edges=edges, order=order)
    return ReconstructionResult(
        opt_sets=optsets,
        graph=graph,
        f_values=trail + fvals,
        drops=drops,
    )


def audit_json(result: ReconstructionResult) -> str:
    """Serializable audit record: order, minimizing sets, drops, f trail."""
    doc = {
        "order": list(result.order),
        "opt_sets": [sorted(s) for s in result.opt_sets],
        "edges": sorted([j, i] for j, i in result.graph.edges),
        "drops": [
            {"child": child, "candidate": cand, "drop": d}
            for child, cand, d in result.drops
        ],
        "f_values": [
            {"node": node, "cond": sorted(s), "f": v} for node, s, v in result.f_values
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
