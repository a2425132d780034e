"""Ordering-and-thresholding reconstruction over population and sample PSDMs.

The ordering oracle below rescans every (node, subset) pair with scalar
`cpsd_f` evaluations and python tuple comparison for the tie-break, so the
incremental scan, which scores only new subsets and factors each one once
through `cpsd_fs`, must reproduce it exactly, including ties. With
``fixed_size=False`` the oracle also scans every smaller subset; it is the
reference for the claim that subsets of size exactly min(|S|, q) suffice.
"""

import json
from dataclasses import replace
from functools import lru_cache
from itertools import chain, combinations

import numpy as np
import pytest

from spectradag.cpsd import (
    CpsdValue,
    PsdmEstimate,
    cpsd_deficit,
    cpsd_f,
    default_gamma,
    estimate_psdm,
    sample_psdm,
)
from spectradag.errors import ConfigError, NumericalError
from spectradag.graphs import (
    Dag,
    dag_from_edgelist,
    dag_to_edgelist,
    graph_equal,
    max_in_degree,
    random_dag,
)
from spectradag.linalg import hermitian_factor
from spectradag.models import NoiseSpec, build_model, exact_psdm
from spectradag.reconstruct import (
    ReconstructionParams,
    ReconstructionResult,
    audit_json,
    identify_parents,
    order_nodes,
    reconstruct,
)
from spectradag.simulate import simulate

IID = NoiseSpec("iid", sigma_w=0.5)
AR1 = NoiseSpec("ar1", sigma_w=0.5, alpha=0.5)
GRID8 = 2.0 * np.pi * np.arange(8) / 8.0


def order_oracle(matrix, q, omega, fixed_size=True):
    """Scalar re-derivation of the iterative ordering, tie-break included."""
    p = matrix.shape[0]
    order, optsets = [], []
    while len(order) < p:
        k_full = min(len(order), q)
        sizes = [k_full] if fixed_size else list(range(k_full + 1))
        best = None
        for j in sorted(set(range(p)) - set(order)):
            for k in sizes:
                for c in combinations(sorted(order), k):
                    v = cpsd_f(matrix, j, c, omega).value
                    key = (v, j, c)
                    if best is None or key < best:
                        best = key
        order.append(best[1])
        optsets.append(frozenset(best[2]))
    return tuple(order), tuple(optsets)


def parent_scan_oracle(matrix, order, q, gamma, omega):
    """Scalar parent scan: every drop from two `cpsd_f` Schur solves."""
    drops, edges = [], set()
    for pos, node in enumerate(order):
        prefix = frozenset(order[:pos])
        if not prefix:
            continue
        f_full = cpsd_f(matrix, node, prefix, omega).value
        cands = []
        for k in sorted(prefix):
            d = abs(f_full - cpsd_f(matrix, node, prefix - {k}, omega).value)
            drops.append((node, k, d))
            if d >= gamma:
                cands.append((-d, k))
        edges.update((k, node) for _, k in sorted(cands)[:q])
    return tuple(drops), frozenset(edges)


def is_topological_for(dag, order):
    pos = {v: k for k, v in enumerate(order)}
    return all(pos[j] < pos[i] for j, i in dag.edges)


class TestParams:
    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigError):
            ReconstructionParams(q=2, gamma=0.0, omega=0.5)
        with pytest.raises(ConfigError):
            ReconstructionParams(q=2, gamma=-1.0, omega=0.5)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ConfigError):
            ReconstructionParams(q=2, gamma=gamma, omega=0.5)

    def test_rejects_bad_q(self):
        with pytest.raises(ConfigError):
            ReconstructionParams(q=-1, gamma=0.1, omega=0.5)

    @pytest.mark.parametrize("q", [1.5, 2.0, "2", None])
    def test_rejects_non_integer_q(self, q):
        with pytest.raises(ConfigError):
            ReconstructionParams(q=q, gamma=0.1, omega=0.5)

    def test_numpy_integer_q_accepted(self):
        assert ReconstructionParams(q=np.int64(2), gamma=0.1, omega=0.5).q == 2

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_omega(self, omega):
        with pytest.raises(ConfigError):
            ReconstructionParams(q=1, gamma=0.1, omega=omega)

    def test_q_exceeding_dimension_rejected_at_use(self):
        params = ReconstructionParams(q=3, gamma=0.1, omega=0.5)
        with pytest.raises(ConfigError):
            order_nodes(np.eye(3, dtype=complex), params)

    def test_only_fixed_size_search_accepted(self):
        params = ReconstructionParams(q=1, gamma=0.1, omega=0.5)
        with pytest.raises(ConfigError):
            order_nodes(np.eye(3, dtype=complex), params, search="all_subsets")

    def test_omega_mismatch_with_estimate_rejected(self):
        model = build_model(random_dag(3, 1, seed=1), IID, seed=1)
        est = estimate_psdm(simulate(model, "restart_record", 20, 16, seed=1), 0.5)
        params = ReconstructionParams(q=1, gamma=0.1, omega=0.7)
        with pytest.raises(ConfigError):
            reconstruct(est, params)


class TestOrdering:
    def test_single_node(self):
        params = ReconstructionParams(q=0, gamma=0.1, omega=0.0)
        order, optsets = order_nodes(np.array([[0.5 + 0j]]), params)
        assert order == (0,)
        assert optsets == (frozenset(),)

    @pytest.mark.parametrize("q", [1, 2])
    def test_three_chain(self, q):
        dag = Dag(p=3, edges=frozenset({(0, 1), (1, 2)}), order=(0, 1, 2))
        model = build_model(dag, IID, seed=5)
        w = GRID8[3]
        params = ReconstructionParams(q=q, gamma=0.1, omega=w)
        order, optsets = order_nodes(exact_psdm(model, w), params)
        assert order == (0, 1, 2)
        assert optsets[1] == frozenset({0})
        assert 1 in optsets[2]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        for k in range(20):
            noise = IID if k % 2 else AR1
            p = 4 + k % 4
            q = 1 + k % 3
            model = build_model(random_dag(p, min(q, p - 1), seed=2000 + k), noise, seed=2100 + k)
            w = float(rng.uniform(0, 2 * np.pi))
            phi = exact_psdm(model, w)
            params = ReconstructionParams(q=q, gamma=0.1, omega=w)
            got = order_nodes(phi, params)
            assert got == order_oracle(phi, q, w)

    def test_oracle_agreement_on_estimates(self):
        # sampled PSDMs exercise ties and clamping differently from population
        for k in range(6):
            model = build_model(random_dag(5, 2, seed=2200 + k), AR1, seed=2300 + k)
            w = GRID8[5]
            est = estimate_psdm(simulate(model, "restart_record", 200, 32, seed=k), w)
            params = ReconstructionParams(q=2, gamma=0.1, omega=w)
            assert order_nodes(est, params) == order_oracle(est.matrix, 2, w)

    def test_ordering_builds_no_cpsd_value(self, monkeypatch):
        # the scan reads f as arrays, with no per-(node, set) result objects
        import spectradag.cpsd as cpsd_module

        built = []

        def counting(*args, **kwargs):
            built.append(kwargs)
            return CpsdValue(*args, **kwargs)

        monkeypatch.setattr(cpsd_module, "CpsdValue", counting)
        model = build_model(random_dag(8, 2, seed=2450), AR1, seed=2450)
        w = float(GRID8[3])
        phi = exact_psdm(model, w)
        order, _ = order_nodes(phi, ReconstructionParams(q=2, gamma=0.1, omega=w))
        assert built == []
        assert cpsd_module.cpsd_f(phi, order[1], {order[0]}, w).value > 0
        assert len(built) == 1

    def test_topologically_valid_on_population(self):
        for k in range(50):
            noise = IID if k % 2 else AR1
            p = 4 + k % 7
            q = 1 + k % 2
            model = build_model(random_dag(p, q, seed=2400 + k), noise, seed=2500 + k)
            w = GRID8[k % 8]
            params = ReconstructionParams(q=q, gamma=0.1, omega=w)
            order, _ = order_nodes(exact_psdm(model, w), params)
            assert is_topological_for(model.dag, order)

    def test_fixed_size_equals_all_subsets_search(self):
        for k in range(20):
            p = 4 + k % 4
            q = 1 + k % 3
            model = build_model(
                random_dag(p, min(q, p - 1), seed=2600 + k), IID, seed=2700 + k
            )
            w = GRID8[(3 * k) % 8]
            phi = exact_psdm(model, w)
            params = ReconstructionParams(q=q, gamma=0.1, omega=w)
            fixed, _ = order_nodes(phi, params)
            full, _ = order_oracle(phi, q, w, fixed_size=False)
            assert fixed == full


class TestParents:
    def test_two_chain_exact_threshold(self):
        dag = Dag(p=2, edges=frozenset({(0, 1)}), order=(0, 1))
        model = build_model(dag, IID, seed=7)
        b = model.b[1, 0]
        w = GRID8[1]
        phi = exact_psdm(model, w)
        params = ReconstructionParams(q=1, gamma=0.5 * IID.sigma_w * b**2, omega=w)
        order, optsets = order_nodes(phi, params)
        got = identify_parents(phi, order, optsets, params)
        assert graph_equal(got, dag)

    def test_huge_gamma_empty_graph(self):
        model = build_model(random_dag(5, 2, seed=31), IID, seed=31)
        w = GRID8[4]
        phi = exact_psdm(model, w)
        params = ReconstructionParams(q=2, gamma=1e6, omega=w)
        order, optsets = order_nodes(phi, params)
        assert identify_parents(phi, order, optsets, params).edges == frozenset()

    def test_parent_count_capped_at_q(self):
        # true in-degree 3 but search budget q=1: keep only the largest drop
        for k in range(10):
            model = build_model(random_dag(6, 3, seed=3200 + k), IID, seed=3300 + k)
            w = GRID8[6]
            params = ReconstructionParams(q=1, gamma=1e-6, omega=w)
            result = reconstruct(exact_psdm(model, w), params)
            assert max_in_degree(result.graph) <= 1


class TestParentScanReference:
    """The parent scan, read off one Cholesky factor of Phi in the recovered
    order, against `parent_scan_oracle`.

    Drops agree to a relative 1e-9 of trace(Phi)/p and the edge sets are
    equal, on population PSDMs and on sample PSDMs at n=500 and n=8000.
    """

    @staticmethod
    def _cases():
        for k in range(12):
            p, q = 8 + k % 7, 1 + k % 3
            noise = IID if k % 2 else AR1
            model = build_model(random_dag(p, q, seed=4100 + k), noise, seed=4200 + k)
            w = float(GRID8[1 + k % 7])
            gamma = default_gamma(model, [w])
            yield f"population-{k}", exact_psdm(model, w), q, gamma, w
            for n in (500, 8000):
                est = sample_psdm(model, "restart_record", n, 16, w, seed=4300 + k)
                yield f"n{n}-{k}", est.matrix, q, gamma, w

    def test_drops_and_edges_match_scalar_oracle(self):
        for name, matrix, q, gamma, w in self._cases():
            scale = np.trace(matrix).real / matrix.shape[0]
            result = reconstruct(matrix, ReconstructionParams(q=q, gamma=gamma, omega=w))
            drops, edges = parent_scan_oracle(matrix, result.order, q, gamma, w)
            assert [d[:2] for d in result.drops] == [d[:2] for d in drops], name
            got = np.array([d[2] for d in result.drops])
            want = np.array([d[2] for d in drops])
            assert np.max(np.abs(got - want)) <= 1e-9 * scale, name
            assert result.graph.edges == edges, name

    def test_rank_deficient_sample_psdm(self):
        # n < p trajectories leave Phi singular, so the ridge rescue engages;
        # it is decided once on the whole ordered Phi here and on each prefix
        # alone in the oracle, so the drops differ by more than rounding (up
        # to ~3.1e-8 of trace(Phi)/p on these cases) while the graphs stay equal
        for n in range(4, 10):
            model = build_model(random_dag(10, 2, seed=4400 + n), IID, seed=4500 + n)
            w = float(GRID8[3])
            est = sample_psdm(model, "restart_record", n, 16, w, seed=4600 + n)
            gamma = default_gamma(model, [w])
            result = reconstruct(est, ReconstructionParams(q=2, gamma=gamma, omega=w))
            drops, edges = parent_scan_oracle(est.matrix, result.order, 2, gamma, w)
            scale = np.trace(est.matrix).real / 10
            got = np.array([d[2] for d in result.drops])
            want = np.array([d[2] for d in drops])
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-6 * scale, n
            assert result.graph.edges == edges, n

    def test_parent_scan_calls_no_schur_solve(self, monkeypatch):
        import spectradag.reconstruct as rec

        model = build_model(random_dag(8, 2, seed=4700), IID, seed=4700)
        w = float(GRID8[2])
        phi = exact_psdm(model, w)
        params = ReconstructionParams(q=2, gamma=default_gamma(model, [w]), omega=w)
        order, optsets = order_nodes(phi, params)

        def forbidden(*args, **kwargs):
            raise AssertionError("the parent scan called a Schur solve")

        monkeypatch.setattr(rec, "cpsd_f", forbidden)
        monkeypatch.setattr(rec, "cpsd_fs", forbidden)
        assert graph_equal(identify_parents(phi, order, optsets, params), model.dag)

    def test_parent_scan_factors_once(self, monkeypatch):
        import spectradag.reconstruct as rec

        model = build_model(random_dag(10, 2, seed=4800), AR1, seed=4800)
        w = float(GRID8[3])
        phi = exact_psdm(model, w)
        params = ReconstructionParams(q=2, gamma=default_gamma(model, [w]), omega=w)
        order, optsets = order_nodes(phi, params)
        calls = []

        def counting(a):
            calls.append(np.shape(a))
            return hermitian_factor(a)

        monkeypatch.setattr(rec, "hermitian_factor", counting)
        assert graph_equal(identify_parents(phi, order, optsets, params), model.dag)
        assert calls == [(10, 10)]


class TestReconstruct:
    def test_identity_psdm_empty_graph(self):
        params = ReconstructionParams(q=2, gamma=1e-6, omega=0.0)
        result = reconstruct(0.5 * np.eye(4, dtype=complex), params)
        assert result.graph.edges == frozenset()
        assert sorted(result.order) == [0, 1, 2, 3]

    def test_population_exactness_with_default_gamma(self):
        for k in range(30):
            noise = IID if k % 2 else AR1
            p = 5 + k % 6
            q = 1 + k % 3
            model = build_model(random_dag(p, q, seed=3400 + k), noise, seed=3500 + k)
            gamma = default_gamma(model, GRID8)
            for w in GRID8[:: 3]:
                params = ReconstructionParams(q=q, gamma=gamma, omega=float(w))
                result = reconstruct(exact_psdm(model, float(w)), params)
                assert graph_equal(result.graph, model.dag)

    def test_seven_node_demo_graph(self):
        edges = {(0, 1), (1, 2), (2, 3), (3, 6), (4, 5), (5, 6)}
        dag = Dag(p=7, edges=frozenset(edges), order=(0, 1, 2, 3, 4, 5, 6))
        model = build_model(dag, IID, seed=77)
        gamma = default_gamma(model, GRID8)
        w = GRID8[2]
        params = ReconstructionParams(q=2, gamma=gamma, omega=float(w))
        result = reconstruct(exact_psdm(model, float(w)), params)
        assert graph_equal(result.graph, dag)

    def test_perturbation_robustness(self):
        # any PSDM whose induced f-error stays below deficit/4 on the
        # evaluated sets still yields the exact graph
        rng = np.random.default_rng(41)
        for k in range(10):
            model = build_model(random_dag(6, 2, seed=3800 + k), IID, seed=3900 + k)
            delta = cpsd_deficit(model, GRID8)
            w = float(GRID8[3])
            phi = exact_psdm(model, w)
            raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            noise_h = (raw + raw.conj().T) / 2
            pert = phi + (delta / 100) * noise_h / np.linalg.norm(noise_h, 2)
            params = ReconstructionParams(q=2, gamma=delta / 2, omega=w)
            result = reconstruct(pert, params)
            # verify the precondition held on every audited evaluation
            for node, cond, fhat in result.f_values:
                ftrue = cpsd_f(phi, node, cond, w).value
                assert abs(fhat - ftrue) < delta / 4
            assert graph_equal(result.graph, model.dag)

    def test_large_scale_sample_recovery(self):
        # f tolerances are relative to the PSDM scale: at sigma_w = 1e10 the
        # rounding residue of f is far above any absolute tolerance
        noise = NoiseSpec("iid", sigma_w=1e10)
        w = 2 * np.pi * 17 / 64
        for seed in range(5):
            model = build_model(random_dag(10, 2, seed=seed), noise, seed=seed)
            est = sample_psdm(model, "restart_record", 4000, 64, w, seed=seed)
            params = ReconstructionParams(q=2, gamma=default_gamma(model, [w]), omega=w)
            assert graph_equal(reconstruct(est, params).graph, model.dag)

    def test_estimate_input_is_wellformed_even_at_tiny_n(self):
        model = build_model(random_dag(6, 2, seed=43), AR1, seed=43)
        w = float(GRID8[2])
        est = estimate_psdm(simulate(model, "restart_record", 8, 16, seed=3), w)
        params = ReconstructionParams(q=2, gamma=default_gamma(model, GRID8), omega=w)
        result = reconstruct(est, params)
        assert sorted(result.order) == list(range(6))
        assert result.graph.order == result.order
        assert max_in_degree(result.graph) <= 2

    @pytest.mark.parametrize("as_estimate", [False, True], ids=["bare", "estimate"])
    def test_nan_psdm_rejected(self, as_estimate):
        # this once returned a graph with NaN drops
        m = np.eye(3, dtype=complex)
        m[0, 2] = m[2, 0] = np.nan
        params = ReconstructionParams(q=1, gamma=0.1, omega=0.5)
        with pytest.raises(NumericalError):
            if as_estimate:
                m = PsdmEstimate(omega=0.5, matrix=m, n=10, num_samples=8)
            reconstruct(m, params)

    def test_result_validation(self):
        # the order is the graph's, which Dag checks; one set per position remains
        g = Dag(p=2, edges=frozenset(), order=(1, 0))
        result = ReconstructionResult(
            opt_sets=(frozenset(), frozenset()), graph=g, f_values=(), drops=()
        )
        assert result.order == (1, 0)
        with pytest.raises(ConfigError, match="one minimizing set"):
            ReconstructionResult(opt_sets=(frozenset(),), graph=g, f_values=(), drops=())


# Property cases: restart-record estimates, which carry no exact population
# ties, of 30 models over p in {6, 10, 14} and both noises.
W17 = 2 * np.pi * 17 / 64
PROPERTY_CASES = [
    (p, kind, seed) for p in (6, 10, 14) for kind in ("iid", "ar1") for seed in range(5)
]


@lru_cache(maxsize=None)
def property_case(p, kind, seed):
    """(estimate, params) for one property case, drawn once per session."""
    noise = IID if kind == "iid" else AR1
    model = build_model(random_dag(p, 2, seed=(p, seed)), noise, seed=seed)
    est = sample_psdm(model, "restart_record", 2000, 64, W17, seed=(p, seed))
    return est, ReconstructionParams(q=2, gamma=default_gamma(model, [W17]), omega=W17)


@pytest.mark.parametrize("case", PROPERTY_CASES, ids=lambda c: "p{}-{}-{}".format(*c))
class TestInvariance:
    @pytest.mark.parametrize("s", [1e-12, 1e12])
    def test_unit_of_the_data(self, case, s):
        est, params = property_case(*case)
        want = reconstruct(est, params).graph
        got = reconstruct(
            replace(est, matrix=s * est.matrix), replace(params, gamma=s * params.gamma)
        ).graph
        assert got.order == want.order
        assert got.edges == want.edges

    def test_relabelling(self, case):
        est, params = property_case(*case)
        pi = np.random.default_rng(case[2]).permutation(case[0])
        inv = np.argsort(pi)  # node v of the relabelled matrix was node inv[v]
        want = reconstruct(est, params).graph
        got = reconstruct(replace(est, matrix=est.matrix[np.ix_(inv, inv)]), params).graph
        assert got.order == tuple(int(pi[v]) for v in want.order)
        assert got.edges == {(int(pi[j]), int(pi[i])) for j, i in want.edges}

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_non_hermitian_rejected(self, case, s):
        est, params = property_case(*case)
        m = s * est.matrix
        m[0, -1] += 1e-6 * np.max(np.abs(m))
        with pytest.raises(NumericalError, match="not a finite Hermitian"):
            reconstruct(m, params)


class TestAudit:
    def test_audit_json_structure(self):
        model = build_model(random_dag(4, 2, seed=51), IID, seed=51)
        w = float(GRID8[1])
        params = ReconstructionParams(q=2, gamma=default_gamma(model, GRID8), omega=w)
        result = reconstruct(exact_psdm(model, w), params)
        doc = json.loads(audit_json(result))
        assert doc["order"] == list(result.order)
        assert len(doc["opt_sets"]) == 4
        assert all(sorted(s) == s for s in doc["opt_sets"])
        assert set(map(tuple, doc["edges"])) == set(result.graph.edges)
        assert all(
            set(d) == {"child", "candidate", "drop"} for d in doc["drops"]
        )
        recovered = {(d["candidate"], d["child"]) for d in doc["drops"] if d["drop"] >= params.gamma}
        assert recovered == set(result.graph.edges)

    def test_f_values_start_with_ordering_trail(self):
        model = build_model(random_dag(3, 1, seed=52), IID, seed=52)
        w = float(GRID8[1])
        params = ReconstructionParams(q=1, gamma=default_gamma(model, GRID8), omega=w)
        result = reconstruct(exact_psdm(model, w), params)
        node, cond, val = result.f_values[0]
        assert node == result.order[0]
        assert cond == frozenset()
        assert val >= 0

    def test_edge_list_round_trip(self):
        model = build_model(random_dag(5, 2, seed=53), IID, seed=53)
        w = float(GRID8[0])
        params = ReconstructionParams(q=2, gamma=default_gamma(model, GRID8), omega=w)
        result = reconstruct(exact_psdm(model, w), params)
        text = dag_to_edgelist(result.graph)
        assert graph_equal(dag_from_edgelist(text), result.graph)
