"""DAG representation, random generation protocol, and structural queries."""

from __future__ import annotations

import numpy as np
import pytest

from spectradag.errors import ConfigError
from spectradag.graphs import (
    Dag,
    dag_from_edgelist,
    dag_to_edgelist,
    graph_equal,
    is_ancestral,
    max_in_degree,
    random_dag,
    source_nodes,
    structural_hamming,
    structural_queries,
)

# Seven-node demo graph: a four-node chain and a two-node chain merging at
# the sink. Used repeatedly because every query type has a nontrivial answer.
DEMO_EDGES = {(0, 1), (1, 2), (2, 3), (3, 6), (4, 5), (5, 6)}
DEMO = Dag(p=7, edges=frozenset(DEMO_EDGES), order=(0, 1, 2, 3, 4, 5, 6))


class TestDagValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            Dag(p=2, edges=frozenset({(1, 1)}), order=(0, 1))

    def test_order_must_be_topological(self):
        with pytest.raises(ConfigError):
            Dag(p=2, edges=frozenset({(1, 0)}), order=(0, 1))

    def test_order_must_be_permutation(self):
        with pytest.raises(ConfigError):
            Dag(p=3, edges=frozenset(), order=(0, 1, 1))

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Dag(p=2, edges=frozenset({(0, 2)}), order=(0, 1))

    def test_cycle_rejected_under_any_order(self):
        cycle = frozenset({(0, 1), (1, 2), (2, 0)})
        for order in ((0, 1, 2), (1, 2, 0), (2, 1, 0)):
            with pytest.raises(ConfigError):
                Dag(p=3, edges=cycle, order=order)

    def test_valid_graph_accepted(self):
        g = Dag(p=3, edges=frozenset({(0, 1), (1, 2)}), order=(0, 1, 2))
        assert g.p == 3


class TestRandomDag:
    def test_single_node(self):
        g = random_dag(1, 0, seed=0)
        assert g.p == 1 and len(g.edges) == 0

    def test_complete_when_q_saturates(self):
        # position j in the order gets min(q, j) parents; q = p-1 makes the
        # graph complete under its order: 0+1+2+3+4 = 10 edges
        g = random_dag(5, 4, seed=3)
        assert len(g.edges) == 10
        for pos, node in enumerate(g.order):
            assert len(structural_queries(g, node).parents) == pos

    def test_in_degree_sequence_along_order(self):
        g = random_dag(10, 2, seed=42)
        degs = [len(structural_queries(g, node).parents) for node in g.order]
        assert degs == [0, 1, 2, 2, 2, 2, 2, 2, 2, 2]

    def test_seed_deterministic(self):
        a = random_dag(12, 3, seed=77)
        b = random_dag(12, 3, seed=77)
        assert a.edges == b.edges and a.order == b.order

    def test_q_at_least_p_rejected(self):
        with pytest.raises(ConfigError):
            random_dag(4, 4, seed=0)
        with pytest.raises(ConfigError):
            random_dag(4, -1, seed=0)

    @pytest.mark.parametrize("p,q", [(5, 1), (10, 2), (20, 3)])
    def test_many_draws_always_valid(self, p, q):
        # constructor runs the acyclicity/topology checks; in-degree checked here
        for seed in range(1000):
            g = random_dag(p, q, seed=seed)
            assert max_in_degree(g) <= q
            for pos, node in enumerate(g.order):
                assert len(structural_queries(g, node).parents) == min(q, pos)

    def test_prefix_of_order_is_ancestral(self):
        for seed in range(50):
            g = random_dag(8, 2, seed=seed)
            for cut in range(g.p + 1):
                assert is_ancestral(g, set(g.order[:cut]))


class TestStructuralQueries:
    def test_demo_graph_mid_node(self):
        res = structural_queries(DEMO, 2)
        assert res.parents == {1}
        assert res.ancestors == {0, 1}
        assert res.non_descendants == {0, 1, 4, 5}

    def test_isolated_node(self):
        g = Dag(p=4, edges=frozenset({(0, 1)}), order=(0, 1, 2, 3))
        res = structural_queries(g, 3)
        assert res.parents == set()
        assert res.ancestors == set()
        assert res.non_descendants == {0, 1, 2}

    def test_three_chain_sink(self):
        g = Dag(p=3, edges=frozenset({(0, 1), (1, 2)}), order=(0, 1, 2))
        res = structural_queries(g, 2)
        assert res.parents == {1}
        assert res.ancestors == {0, 1}

    def test_query_invariants_on_random_graphs(self):
        for seed in range(30):
            g = random_dag(9, 3, seed=seed)
            for node in range(g.p):
                res = structural_queries(g, node)
                assert res.parents <= res.ancestors <= res.non_descendants
                assert node not in res.non_descendants
                assert node not in res.parents

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            structural_queries(DEMO, 7)
        with pytest.raises(ConfigError):
            structural_queries(DEMO, -1)


class TestIsAncestral:
    def test_empty_set(self):
        assert is_ancestral(DEMO, set())

    def test_full_node_set(self):
        assert is_ancestral(DEMO, set(range(7)))

    def test_demo_cases(self):
        assert is_ancestral(DEMO, {0, 1, 4})
        assert not is_ancestral(DEMO, {1, 4})


class TestGraphComparison:
    def test_graph_vs_itself(self):
        assert graph_equal(DEMO, DEMO)
        assert structural_hamming(DEMO, DEMO) == 0

    def test_reversed_edge_counts_twice(self):
        a = Dag(p=2, edges=frozenset({(0, 1)}), order=(0, 1))
        b = Dag(p=2, edges=frozenset({(1, 0)}), order=(1, 0))
        assert not graph_equal(a, b)
        assert structural_hamming(a, b) == 2

    def test_one_extra_edge(self):
        chain = Dag(p=3, edges=frozenset({(0, 1), (1, 2)}), order=(0, 1, 2))
        extra = Dag(p=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}), order=(0, 1, 2))
        assert structural_hamming(chain, extra) == 1

    def test_mismatched_p_rejected(self):
        small = Dag(p=2, edges=frozenset(), order=(0, 1))
        with pytest.raises(ConfigError):
            graph_equal(DEMO, small)
        with pytest.raises(ConfigError):
            structural_hamming(DEMO, small)

    def test_order_field_ignored(self):
        a = Dag(p=3, edges=frozenset({(0, 2)}), order=(0, 1, 2))
        b = Dag(p=3, edges=frozenset({(0, 2)}), order=(1, 0, 2))
        assert graph_equal(a, b)


class TestSerialization:
    def test_round_trip(self):
        text = dag_to_edgelist(DEMO)
        assert text.splitlines()[0] == "p=7"
        back = dag_from_edgelist(text)
        assert graph_equal(DEMO, back)

    def test_round_trip_random(self):
        for seed in range(20):
            g = random_dag(11, 3, seed=seed)
            assert graph_equal(g, dag_from_edgelist(dag_to_edgelist(g)))

    def test_edgeless(self):
        g = Dag(p=3, edges=frozenset(), order=(2, 0, 1))
        back = dag_from_edgelist(dag_to_edgelist(g))
        assert back.p == 3 and len(back.edges) == 0

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            dag_from_edgelist("no header\n0 1\n")
        with pytest.raises(ConfigError):
            dag_from_edgelist("p=2\n0 1 2\n")
        with pytest.raises(ConfigError):
            dag_from_edgelist("p=2\n0 1\n1 0\n")  # cycle

    @pytest.mark.parametrize("text", ["p=3\n0 9\n", "p=3\n0 -1\n", "p=3\n3 0\n"])
    def test_out_of_range_endpoint_rejected(self, text):
        with pytest.raises(ConfigError):
            dag_from_edgelist(text)


class TestSources:
    def test_demo_sources(self):
        assert source_nodes(DEMO) == {0, 4}

    def test_random_sources_have_no_parents(self):
        g = random_dag(10, 2, seed=5)
        for node in source_nodes(g):
            assert not structural_queries(g, node).parents
