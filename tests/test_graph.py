import numpy as np
import pytest

from satsync import (
    AgentModel,
    Network,
    expanded_laplacian,
    in_rooted_family,
    laplacian,
    random_rooted_network,
    target_dynamics_stable,
)
from satsync.graph import NetworkError


def chain(n, weights=None):
    """Directed chain 1 → 2 → ... → n with unit weights."""
    adj = np.zeros((n, n))
    for i in range(1, n):
        adj[i, i - 1] = 1.0 if weights is None else weights[i - 1]
    return adj


class TestNetwork:
    def test_input_adjacency_stays_the_callers(self):
        adj = chain(3)
        net = Network(adjacency=adj, root_set=frozenset([0]))
        assert adj.flags.writeable and not net.adjacency.flags.writeable
        adj[2, 0] = 7.0
        np.testing.assert_array_equal(net.adjacency, chain(3))

    def test_self_loop_rejected(self):
        adj = np.zeros((2, 2))
        adj[0, 0] = 1.0
        with pytest.raises(NetworkError):
            Network(adjacency=adj, root_set=frozenset([0]))

    def test_negative_weight_rejected(self):
        adj = np.zeros((2, 2))
        adj[1, 0] = -0.5
        with pytest.raises(NetworkError):
            Network(adjacency=adj, root_set=frozenset([0]))

    def test_nonfinite_weight_rejected(self):
        adj = np.zeros((2, 2))
        adj[1, 0] = np.inf
        with pytest.raises(NetworkError, match="non-finite"):
            Network(adjacency=adj, root_set=frozenset([0]))

    def test_root_index_that_is_not_an_integer_rejected(self):
        # int() would read each as agent 1; the loader refuses them too
        for root in (True, 1.5, "1", np.bool_(True)):
            with pytest.raises(NetworkError, match="integer"):
                Network(adjacency=chain(2), root_set=frozenset([root]))
        net = Network(adjacency=chain(2), root_set=frozenset([np.int64(1)]))
        assert net.root_set == {1} and type(next(iter(net.root_set))) is int

    def test_indicator(self):
        net = Network(adjacency=chain(3), root_set=frozenset([0, 2]))
        np.testing.assert_array_equal(net.indicator, [1, 0, 1])


class TestLaplacian:
    def test_single_edge(self):
        net = Network(adjacency=chain(2), root_set=frozenset([0]))
        np.testing.assert_array_equal(laplacian(net), [[0, 0], [-1, 1]])

    def test_empty_graph(self):
        net = Network(adjacency=np.zeros((3, 3)), root_set=frozenset([0]))
        np.testing.assert_array_equal(laplacian(net), np.zeros((3, 3)))

    def test_unit_cycle(self):
        adj = np.zeros((3, 3))
        adj[0, 2] = adj[1, 0] = adj[2, 1] = 1.0
        net = Network(adjacency=adj, root_set=frozenset([0]))
        expected = [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]
        np.testing.assert_array_equal(laplacian(net), expected)

    def test_row_sums_zero_random(self, rng):
        for _ in range(20):
            N = int(rng.integers(2, 10))
            adj = rng.uniform(0, 2, size=(N, N))
            np.fill_diagonal(adj, 0.0)
            net = Network(adjacency=adj, root_set=frozenset([0]))
            np.testing.assert_allclose(
                laplacian(net).sum(axis=1), 0, atol=1e-12
            )


class TestExpandedLaplacian:
    def test_single_edge_rooted(self):
        net = Network(adjacency=chain(2), root_set=frozenset([0]))
        el = expanded_laplacian(net)
        np.testing.assert_array_equal(el.matrix, [[1, 0], [-1, 1]])
        np.testing.assert_allclose(np.sort(el.spectrum.real), [1, 1])

    def test_single_node(self):
        net = Network(adjacency=np.zeros((1, 1)), root_set=frozenset([0]))
        el = expanded_laplacian(net)
        np.testing.assert_array_equal(el.matrix, [[1.0]])
        np.testing.assert_allclose(el.spectrum, [1.0])

    def test_disconnected_fails_positivity(self):
        net = Network(adjacency=np.zeros((2, 2)), root_set=frozenset([0]))
        el = expanded_laplacian(net)
        np.testing.assert_array_equal(el.matrix, [[1, 0], [0, 0]])
        assert not el.positive_real_parts

    def test_row_sums_equal_indicator(self, rng):
        for _ in range(10):
            net = random_rooted_network(rng, int(rng.integers(2, 8)))
            el = expanded_laplacian(net)
            np.testing.assert_allclose(
                el.matrix.sum(axis=1), net.indicator, atol=1e-12
            )

    def test_agrees_with_laplacian_plus_diag(self, rng):
        net = random_rooted_network(rng, 6)
        el = expanded_laplacian(net)
        np.testing.assert_array_equal(
            el.matrix, laplacian(net) + np.diag(net.indicator)
        )


class TestRootedFamily:
    def test_chain_rooted_at_head(self):
        net = Network(adjacency=chain(3), root_set=frozenset([0]))
        assert in_rooted_family(net)

    def test_chain_rooted_at_tail(self):
        net = Network(adjacency=chain(3), root_set=frozenset([2]))
        assert not in_rooted_family(net)

    def test_full_root_set(self, rng):
        adj = rng.uniform(0, 1, size=(4, 4))
        np.fill_diagonal(adj, 0.0)
        net = Network(adjacency=adj, root_set=frozenset(range(4)))
        assert in_rooted_family(net)

    def test_empty_root_set(self):
        net = Network(adjacency=chain(3), root_set=frozenset())
        assert not in_rooted_family(net)

    def test_rooted_implies_positive_spectrum(self, rng):
        for _ in range(100):
            net = random_rooted_network(rng, int(rng.integers(2, 11)))
            assert in_rooted_family(net)
            assert expanded_laplacian(net).spectrum.real.min() > 1e-9

    def test_unreachable_component_gives_zero_eigenvalue(self):
        # node 2 isolated: structural zero eigenvalue of the expanded Laplacian
        adj = np.zeros((3, 3))
        adj[1, 0] = 1.0
        net = Network(adjacency=adj, root_set=frozenset([0]))
        assert not in_rooted_family(net)
        assert abs(expanded_laplacian(net).spectrum.real).min() < 1e-12


class TestTargetDynamicsStable:
    def test_triple_integrator_chain(self, triple):
        net = Network(adjacency=chain(3), root_set=frozenset([0]))
        assert target_dynamics_stable(net, triple)
        M = np.kron(np.eye(3), triple.A) - np.kron(
            expanded_laplacian(net).matrix, np.eye(triple.n)
        )
        assert np.linalg.eigvals(M).real.max() < -1e-9

    def test_unrooted_graph_unstable(self, triple):
        net = Network(adjacency=np.zeros((2, 2)), root_set=frozenset([0]))
        assert not target_dynamics_stable(net, triple)

    def test_hurwitz_model_always_stable(self):
        model = AgentModel(-np.eye(2), np.eye(2), np.eye(2))
        net = Network(adjacency=np.zeros((2, 2)), root_set=frozenset([0]))
        assert target_dynamics_stable(net, model)
