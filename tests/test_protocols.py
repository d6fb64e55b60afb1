import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_net, integrator_chain, random_admissible_model
from satsync import (
    AgentModel,
    Network,
    PCache,
    ProtocolKind,
    StateLayout,
    design_observer_gain,
    global_full,
    global_partial,
    laplacian,
    random_rooted_network,
    semiglobal_full,
    semiglobal_partial,
    solve_lowgain_are,
)
from satsync.protocols import ClosedLoopField, ProtocolError


@pytest.fixture(scope="module")
def double():
    return AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])


@pytest.fixture(scope="module")
def double_cache(double):
    return PCache(double)


class TestProtocolKind:
    def test_names(self, double, double_cache):
        assert global_full(double, double_cache).name == "global-full"
        assert semiglobal_partial(double, 0.5).name == "semiglobal-partial"

    def test_semiglobal_requires_epsilon(self):
        with pytest.raises(ProtocolError):
            ProtocolKind("semiglobal", "full")

    def test_global_requires_cache(self):
        with pytest.raises(ProtocolError):
            ProtocolKind("global", "full")

    def test_partial_requires_observer_gain(self):
        with pytest.raises(ProtocolError):
            ProtocolKind("semiglobal", "partial", epsilon=0.5)

    def test_unknown_family_rejected(self, double_cache):
        with pytest.raises(ProtocolError):
            ProtocolKind("local", "full", cache=double_cache)

    def test_unknown_coupling_rejected(self, double_cache):
        with pytest.raises(ProtocolError, match="unknown coupling"):
            ProtocolKind("global", "output", cache=double_cache)

    def test_partial_kind_hashes_by_identity(self, double, double_cache):
        kind = global_partial(double, double_cache)
        other = global_partial(double, double_cache)
        assert kind == kind
        assert kind != other
        assert hash(kind) == hash(kind)
        assert {kind, other, kind} == {kind, other}


class TestStateLayout:
    def test_dims(self):
        assert StateLayout(3, 2, partial=False).dim == 14  # (2N+1)n
        assert StateLayout(3, 2, partial=True).dim == 20  # (3N+1)n

    def test_pack_split_round_trip(self, rng):
        layout = StateLayout(4, 3, partial=True)
        x = rng.standard_normal((4, 3))
        x_r = rng.standard_normal(3)
        chi = rng.standard_normal((4, 3))
        xhat = rng.standard_normal((4, 3))
        x2, xr2, chi2, xhat2 = layout.split(layout.pack(x, x_r, chi, xhat))
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(xr2, x_r)
        np.testing.assert_array_equal(chi2, chi)
        np.testing.assert_array_equal(xhat2, xhat)

    @pytest.mark.parametrize("N, n", [(2, 3), (1, 1)])
    def test_pack_checks_its_blocks(self, N, n):
        # x̂ is not filled in for a partial layout, and a block of the wrong
        # size fails the size check
        layout = StateLayout(N, n, partial=True)
        x, x_r = np.zeros((N, n)), np.zeros(n)
        with pytest.raises(ProtocolError, match="needs x̂"):
            layout.pack(x, x_r, x)
        with pytest.raises(ProtocolError, match=f"expected {layout.dim}"):
            layout.pack(x, x_r, x, np.zeros(N * n + 1))


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(N=st.integers(1, 6), n=st.integers(1, 4), partial=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_pack_split_round_trip_property(N, n, partial, seed):
    rng = np.random.default_rng(seed)
    layout = StateLayout(N, n, partial)
    x, chi = rng.standard_normal((N, n)), rng.standard_normal((N, n))
    x_r = rng.standard_normal(n)
    xhat = rng.standard_normal((N, n)) if partial else None
    z = layout.pack(x, x_r, chi, xhat)
    assert z.shape == (layout.dim,)
    x2, xr2, chi2, xhat2 = layout.split(z)
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(xr2, x_r)
    np.testing.assert_array_equal(chi2, chi)
    if partial:
        np.testing.assert_array_equal(xhat2, xhat)
    else:
        assert xhat2 is None


class TestClosedLoopField:
    def test_synchronized_start_is_invariant(self, double, double_cache, rng):
        """With x_i = x_r and chi_i = 0, controls vanish and the protocol
        states stay at zero; only the shared drift remains."""
        net = chain_net(3)
        kind = global_full(double, double_cache)
        field = ClosedLoopField(double, net, kind)
        x_r = rng.standard_normal(2)
        z = field.layout.pack(np.tile(x_r, (3, 1)), x_r, np.zeros((3, 2)))
        U, eps = field.control_info(0.0, z)
        np.testing.assert_allclose(U, 0, atol=1e-14)
        np.testing.assert_array_equal(eps, 1.0)
        dx, dx_r, dchi, _ = field.layout.split(field(0.0, z))
        np.testing.assert_allclose(dchi, 0, atol=1e-14)
        np.testing.assert_allclose(dx, np.tile(dx_r, (3, 1)), atol=1e-14)

    def test_single_agent_full_hand_oracle(self, double, double_cache):
        net = Network(adjacency=np.zeros((1, 1)), root_set=frozenset([0]))
        kind = global_full(double, double_cache)
        field = ClosedLoopField(double, net, kind)
        x = np.array([0.3, -0.2])
        x_r = np.array([0.1, 0.4])
        chi = np.array([0.05, -0.1])
        z = field.layout.pack(x[None, :], x_r, chi[None, :])
        from satsync import epsilon_of_state, saturate

        eps = epsilon_of_state(chi, double_cache)
        u = -(double.B.T @ double_cache.solution(eps).P @ chi)
        dz = field(0.0, z)
        dx, dx_r, dchi, _ = field.layout.split(dz)
        np.testing.assert_allclose(dx[0], double.A @ x + double.B @ saturate(u))
        np.testing.assert_allclose(dx_r, double.A @ x_r)
        # single rooted agent: zeta_bar = x - x_r, zeta_hat = 0, iota = 1
        expected_dchi = double.A @ chi + double.B @ u + (x - x_r) - chi
        np.testing.assert_allclose(dchi[0], expected_dchi, atol=1e-12)

    @pytest.mark.parametrize("family", ["global", "semiglobal"])
    def test_partial_field_termwise_oracle(self, family, rng):
        """Brute-force per-agent assembly of the output-feedback protocol."""
        model = integrator_chain(3)
        gain = design_observer_gain(model)
        net = chain_net(4)
        if family == "global":
            kind = global_partial(model, PCache(model), gain)
        else:
            kind = semiglobal_partial(model, 0.5, gain)
        field = ClosedLoopField(model, net, kind)
        z = 0.5 * rng.standard_normal(field.layout.dim)
        x, x_r, chi, xhat = field.layout.split(z)
        U, _ = field.controls(chi)
        from satsync import saturate

        L = laplacian(net)
        iota = net.indicator
        A, B, C, K = model.A, model.B, model.C, gain
        y_r = C @ x_r
        dz = field(0.0, z)
        dx, dx_r, dchi, dxhat = field.layout.split(dz)
        np.testing.assert_allclose(dx_r, A @ x_r, atol=1e-12)
        for i in range(4):
            np.testing.assert_allclose(
                dx[i], A @ x[i] + B @ saturate(U[i]), atol=1e-12
            )
            zbar_i = sum(
                net.adjacency[i, j] * (C @ x[i] - C @ x[j]) for j in range(4)
            ) + iota[i] * (C @ x[i] - y_r)
            zhat1_i = sum(
                net.adjacency[i, j] * (chi[i] - chi[j]) for j in range(4)
            )
            zhat2_i = sum(
                net.adjacency[i, j] * (U[i] - U[j]) for j in range(4)
            )
            expected_dxhat = (
                A @ xhat[i]
                + B @ zhat2_i
                + K @ (zbar_i - C @ xhat[i])
                + iota[i] * (B @ U[i])
            )
            np.testing.assert_allclose(dxhat[i], expected_dxhat, atol=1e-12)
            expected_dchi = (
                A @ chi[i] + B @ U[i] + xhat[i] - zhat1_i - iota[i] * chi[i]
            )
            np.testing.assert_allclose(dchi[i], expected_dchi, atol=1e-12)

    @pytest.mark.parametrize("family", ["global", "semiglobal"])
    def test_full_field_termwise_oracle(self, family, rng):
        """Brute-force per-agent assembly of the full-state protocol on a
        weighted digraph with two roots."""
        model = integrator_chain(3)
        N = 4
        adj = rng.uniform(0.2, 2.0, size=(N, N))
        np.fill_diagonal(adj, 0.0)
        net = Network(adjacency=adj, root_set=frozenset([0, 2]))
        if family == "global":
            kind = global_full(model, PCache(model))
        else:
            kind = semiglobal_full(model, 0.5)
        field = ClosedLoopField(model, net, kind)
        z = 2.0 * rng.standard_normal(field.layout.dim)
        x, x_r, chi, _ = field.layout.split(z)
        U, _ = field.controls(chi)
        from satsync import saturate

        iota = net.indicator
        A, B = model.A, model.B
        dx, dx_r, dchi, _ = field.layout.split(field(0.0, z))
        np.testing.assert_allclose(dx_r, A @ x_r, atol=1e-12)
        for i in range(N):
            np.testing.assert_allclose(
                dx[i], A @ x[i] + B @ saturate(U[i]), atol=1e-12
            )
            zbar_i = sum(
                adj[i, j] * (x[i] - x[j]) for j in range(N)
            ) + iota[i] * (x[i] - x_r)
            zhat1_i = sum(adj[i, j] * (chi[i] - chi[j]) for j in range(N))
            expected_dchi = (
                A @ chi[i] + B @ U[i] + zbar_i - zhat1_i - iota[i] * chi[i]
            )
            np.testing.assert_allclose(dchi[i], expected_dchi, atol=1e-12)

    def test_recorded_controls_match_recomputed(self, double, double_cache,
                                                rng):
        """Both integrators record the controls of all accepted states in
        one call; they must equal those recomputed from each state alone."""
        from satsync import integrate

        net = chain_net(3)
        field = ClosedLoopField(double, net, global_full(double, double_cache))
        z0 = rng.uniform(-2.0, 2.0, size=field.layout.dim)
        for method in ("adaptive_rk45", "fixed_rk4"):
            traj = integrate(field, z0, (0.0, 5.0), method=method, dt=0.05,
                             rtol=1e-6, atol=1e-8)
            assert traj.stats.n_steps > 10
            for t, z, U, eps in zip(traj.times, traj.states, traj.controls,
                                    traj.realized_epsilon):
                U_ref, eps_ref = field.control_info(t, z)
                np.testing.assert_array_equal(U, U_ref)
                np.testing.assert_array_equal(eps, eps_ref)

    def test_recorded_semiglobal_controls_match_recomputed(self, double, rng):
        """The linear kernel calls the field once per accepted step, at the
        new state, and the stage loop at its last stage; the controls
        recorded either way must equal those recomputed from the recorded
        state.  This start saturates, so both kernels take steps."""
        from satsync import integrate

        field = ClosedLoopField(double, chain_net(3),
                                semiglobal_full(double, 0.25))
        z0 = rng.uniform(-2.0, 2.0, size=field.layout.dim)
        traj = integrate(field, z0, (0.0, 5.0), rtol=1e-6, atol=1e-8)
        assert 0 < traj.stats.n_linear_steps < traj.stats.n_steps
        assert traj.realized_epsilon is None
        for t, z, U in zip(traj.times, traj.states, traj.controls):
            U_ref, eps_ref = field.control_info(t, z)
            np.testing.assert_array_equal(U, U_ref)
            assert eps_ref is None

    @pytest.mark.parametrize("coupling", ["full", "partial"])
    def test_linear_part_is_the_unsaturated_field(self, double, double_cache,
                                                  coupling, rng):
        """Semiglobal kinds: F z = vec U, and f(t, z) = L z where ‖F z‖∞ ≤ 1.
        Global kinds declare no linear part."""
        net = chain_net(3)
        make = semiglobal_partial if coupling == "partial" else semiglobal_full
        field = ClosedLoopField(double, net, make(double, 0.5))
        L, F = field.linear_part
        z = rng.standard_normal(field.layout.dim)
        U, _ = field.controls(field.layout.split(z)[2])
        np.testing.assert_allclose(F @ z, U.ravel(), atol=1e-13)
        z *= 0.9 / np.abs(U).max()
        np.testing.assert_allclose(field(0.0, z), L @ z, atol=1e-12)
        kind = (global_partial(double, double_cache) if coupling == "partial"
                else global_full(double, double_cache))
        assert ClosedLoopField(double, net, kind).linear_part is None

    @pytest.mark.parametrize("family", ["global", "semiglobal"])
    def test_call_keeps_no_state(self, double, double_cache, family, rng):
        """A call changes no attribute of the field, so a state edited in
        place after a call gets the controls of its new value."""
        kind = (global_full(double, double_cache) if family == "global"
                else semiglobal_full(double, 0.5))
        field = ClosedLoopField(double, chain_net(3), kind)
        before = dict(vars(field))
        z = rng.uniform(-1.0, 1.0, size=field.layout.dim)
        field(0.0, z)
        assert vars(field).keys() == before.keys()
        assert all(vars(field)[k] is v for k, v in before.items())
        z[field.layout.slices()[2]] *= 0.5
        U, eps = field.control_info(0.0, z)
        U_ref, eps_ref = field.control_info(0.0, z.copy())
        np.testing.assert_array_equal(U, U_ref)
        np.testing.assert_array_equal(eps, eps_ref)

    @pytest.mark.parametrize("design", [
        "gain_n_plus_1_rows", "gain_n_minus_1_rows", "gain_1d",
        "gain_transposed", "cache_of_2B",
    ])
    def test_design_data_of_another_model_rejected(self, double, design):
        """The observer gain must be (n, q), and the scheduled-ARE cache must
        be of the field's A and B, compared by value."""
        n, q = double.n, double.q
        if design == "cache_of_2B":
            twin = AgentModel(double.A.copy(), double.B.copy(), double.C)
            ClosedLoopField(double, chain_net(2),
                            global_full(double, PCache(twin)))
            doubled = AgentModel(double.A, 2.0 * double.B, double.C)
            kind = global_full(double, PCache(doubled))
        else:
            shape = {"gain_n_plus_1_rows": (n + 1, q),
                     "gain_n_minus_1_rows": (n - 1, q),
                     "gain_1d": (n,), "gain_transposed": (q, n)}[design]
            kind = semiglobal_partial(double, 0.5, np.ones(shape))
        with pytest.raises(ProtocolError):
            ClosedLoopField(double, chain_net(2), kind)

    def test_semiglobal_controls_are_fixed_gain(self, double, rng):
        net = chain_net(3)
        kind = semiglobal_full(double, 0.25)
        field = ClosedLoopField(double, net, kind)
        P = solve_lowgain_are(double, 0.25).P
        chi = rng.standard_normal((3, 2))
        U, eps = field.controls(chi)
        assert eps is None
        np.testing.assert_allclose(U, -(chi @ P @ double.B), atol=1e-12)

    def test_permutation_equivariance(self, double, rng):
        """Relabeling agents permutes the field blockwise."""
        N = 4
        adj = rng.uniform(0, 1, size=(N, N))
        np.fill_diagonal(adj, 0.0)
        perm = np.array([2, 0, 3, 1])
        net = Network(adjacency=adj, root_set=frozenset([0, 3]))
        net_p = Network(
            adjacency=adj[np.ix_(perm, perm)],
            root_set=frozenset(int(np.nonzero(perm == r)[0][0])
                               for r in net.root_set),
        )
        kind = semiglobal_full(double, 0.5)
        f = ClosedLoopField(double, net, kind)
        f_p = ClosedLoopField(double, net_p, kind)
        x = rng.standard_normal((N, 2))
        x_r = rng.standard_normal(2)
        chi = rng.standard_normal((N, 2))
        dz = f.layout.split(f(0.0, f.layout.pack(x, x_r, chi)))
        dz_p = f_p.layout.split(
            f_p(0.0, f_p.layout.pack(x[perm], x_r, chi[perm]))
        )
        np.testing.assert_allclose(dz_p[0], dz[0][perm], atol=1e-12)
        np.testing.assert_allclose(dz_p[1], dz[1], atol=1e-12)
        np.testing.assert_allclose(dz_p[2], dz[2][perm], atol=1e-12)


@settings(database=None, derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["global", "semiglobal"]),
       coupling=st.sampled_from(["full", "partial"]), T=st.integers(1, 40))
def test_control_info_of_a_stack_matches_each_state(seed, family, coupling,
                                                    T):
    """control_info on a stack of states (T, dim) gives, bit for bit, the
    controls and ε of each state on its own."""
    rng = np.random.default_rng(seed)
    model = random_admissible_model(rng, n_max=6)
    net = random_rooted_network(rng, int(rng.integers(1, 9)))
    gain = design_observer_gain(model) if coupling == "partial" else None
    if family == "global":
        kind = ProtocolKind(family, coupling, cache=PCache(model),
                            observer_gain=gain)
    else:
        kind = ProtocolKind(family, coupling, observer_gain=gain,
                            epsilon=float(2.0 ** -rng.integers(0, 21)))
    field = ClosedLoopField(model, net, kind)
    Z = rng.standard_normal((T, field.layout.dim)) * 10 ** rng.uniform(-2, 2)
    times = np.linspace(0.0, 1.0, T)
    rows = [field.control_info(t, z) for t, z in zip(times, Z)]
    U, eps = field.control_info(times, Z)
    U_rows = np.array([U_row for U_row, _ in rows])
    assert U.shape == (T, net.N, model.m)
    assert U.tobytes() == U_rows.tobytes()
    if family == "global":
        eps_rows = np.array([eps_row for _, eps_row in rows])
        assert eps.shape == (T, net.N)
        assert eps.tobytes() == eps_rows.tobytes()
    else:
        assert eps is None
