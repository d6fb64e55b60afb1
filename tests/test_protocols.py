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
    Scenario,
    StateLayout,
    design_observer_gain,
    global_full,
    global_partial,
    laplacian,
    random_rooted_network,
    run_protocol,
    solve_lowgain_are,
    solve_scheduled_are,
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
        gain = design_observer_gain(double)
        assert [ProtocolKind(**values).name for values in (
            dict(cache=double_cache),
            dict(cache=double_cache, observer_gain=gain),
            dict(epsilon=0.5), dict(epsilon=0.5, observer_gain=gain),
        )] == ["global-full", "global-partial", "semiglobal-full",
               "semiglobal-partial"]
        assert global_full(double, double_cache).name == "global-full"
        assert global_partial(double, double_cache).name == "global-partial"

    def test_semiglobal_requires_epsilon(self, double):
        # a kind without a cache is semiglobal, and needs an ε in (0, 1]
        gain = design_observer_gain(double)
        for values in (dict(), dict(observer_gain=gain), dict(epsilon=0.0),
                       dict(epsilon=1.5), dict(epsilon=float("nan"))):
            with pytest.raises(ProtocolError):
                ProtocolKind(**values)
        assert not ProtocolKind(epsilon=1.0).is_global

    def test_global_requires_cache(self, double, double_cache):
        # a kind is global when it holds a cache, and then holds no ε
        gain = design_observer_gain(double)
        assert ProtocolKind(cache=double_cache).is_global
        for values in (dict(epsilon=0.5, cache=double_cache),
                       dict(epsilon=0.5, cache=double_cache,
                            observer_gain=gain)):
            with pytest.raises(ProtocolError, match="exactly one"):
                ProtocolKind(**values)

    def test_partial_requires_observer_gain(self, double, double_cache):
        # the coupling is partial exactly when the kind holds a gain
        gain = design_observer_gain(double)
        for design in (dict(epsilon=0.5), dict(cache=double_cache)):
            full = ProtocolKind(**design)
            partial = ProtocolKind(**design, observer_gain=gain)
            assert (full.is_partial, full.coupling) == (False, "full")
            assert (partial.is_partial, partial.coupling) == (True, "partial")

    def test_fields_are_keyword_only(self):
        # a positional call, as when the kind held family and coupling
        # strings, would put "semiglobal" into epsilon
        with pytest.raises(TypeError):
            ProtocolKind("semiglobal", "full")
        with pytest.raises(TypeError):
            ProtocolKind(0.5)

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
            kind = ProtocolKind(epsilon=0.5, observer_gain=gain)
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
            kind = ProtocolKind(epsilon=0.5)
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
        for dt in (None, 0.05):  # RK45, then RK4
            traj = integrate(field, z0, (0.0, 5.0), dt=dt, rtol=1e-6,
                             atol=1e-8)
            assert traj.stats.n_steps > 10
            for t, z, U, eps in zip(traj.times, traj.states, traj.controls,
                                    traj.realized_epsilon):
                U_ref, eps_ref = field.control_info(t, z)
                np.testing.assert_array_equal(U, U_ref)
                np.testing.assert_array_equal(eps, eps_ref)

    def test_recorded_semiglobal_controls_match_recomputed(self, double, rng):
        """The Taylor kernel computes a step's end point from L alone, and
        the stage loop calls the field at its last stage; the controls
        recorded either way must equal those recomputed from the recorded
        state.  This start saturates, so both kernels take steps."""
        from satsync import integrate

        field = ClosedLoopField(double, chain_net(3),
                                ProtocolKind(epsilon=0.25))
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
        """Every kind has a linear part (L, inside), with F the block-diagonal
        −BᵀP on χ: in its cell F z = vec U and f(t, z) = L z, to 1e-12, and
        inside(z) = |F z|.  Semiglobal kinds: P at their ε, and the cell is
        ‖F z‖∞ ≤ 1.  Global kinds: P = P₁, and the cell is every agent at
        g(1, χᵢ) ≤ 1, where `controls` gives ε = 1 to every agent.  A state
        scaled 1e-9 past the edge reads as outside: |u| > 1, or inf across
        the state, alone and in a stack with one inside."""
        net = chain_net(3)
        gain = design_observer_gain(double) if coupling == "partial" else None
        for kind, P in (
                (ProtocolKind(epsilon=0.5, observer_gain=gain),
                 solve_lowgain_are(double, 0.5).P),
                (ProtocolKind(cache=double_cache, observer_gain=gain),
                 solve_scheduled_are(double, 1.0).P)):
            field = ClosedLoopField(double, net, kind)
            L, inside = field.linear_part
            F = field.F
            np.testing.assert_allclose(
                F[:, field.layout.slices()[2]],
                np.kron(np.eye(net.N), -double.B.T @ P), rtol=1e-12)
            z = rng.standard_normal(field.layout.dim)
            chi = field.layout.split(z)[2]
            if kind.is_global:  # the largest g(1, χᵢ) = χᵢᵀS₀χᵢ, to 0.9
                edge = np.sqrt(np.einsum("ij,jk,ik->i", chi,
                                         double_cache.S[0], chi).max())
            else:  # the largest |u| to 0.9
                edge = np.abs(F @ z).max()
            z_in, z_out = (0.9 / edge) * z, (1.0 + 1e-9) / edge * z
            U, eps = field.control_info(0.0, z_in)
            np.testing.assert_allclose(F @ z_in, U.ravel(), rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(field(0.0, z_in), L @ z_in, rtol=0,
                                       atol=1e-12)
            np.testing.assert_array_equal(inside(z_in), np.abs(z_in @ F.T))
            assert inside(z_in).max() <= 1.0
            assert inside(z_out).max() > 1.0
            both = inside(np.stack([z_in, z_out]))
            np.testing.assert_allclose(both[0], inside(z_in), rtol=1e-15)
            assert both[1].max() > 1.0
            if kind.is_global:
                assert (eps == 1.0).all()
                assert (both[1] == np.inf).all()
                assert field.control_info(0.0, z_out)[1].min() < 1.0

    @pytest.mark.parametrize("family", ["global", "semiglobal"])
    def test_call_keeps_no_state(self, double, double_cache, family, rng):
        """A call changes no attribute of the field, so a state edited in
        place after a call gets the controls of its new value."""
        kind = (global_full(double, double_cache) if family == "global"
                else ProtocolKind(epsilon=0.5))
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
            kind = ProtocolKind(epsilon=0.5, observer_gain=np.ones(shape))
        with pytest.raises(ProtocolError):
            ClosedLoopField(double, chain_net(2), kind)

    def test_semiglobal_controls_are_fixed_gain(self, double, rng):
        net = chain_net(3)
        kind = ProtocolKind(epsilon=0.25)
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
        kind = ProtocolKind(epsilon=0.5)
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


@pytest.mark.parametrize("coupling", ["full", "partial"])
def test_global_field_whose_full_gain_is_zero(coupling):
    """On A = [[−1]], A + I/2 is Hurwitz, so P₁ = 0 and the table's row 0
    has t = 0; by `schedule`'s rule τ = √max(t², tiny) the gain at ε = 1
    is 0.  The field builds without a warning, with F = 0 and a finite L,
    and a run stays in the cell, so RK45 takes every step from L."""
    model, net = AgentModel([[-1.0]], [[1.0]], [[1.0]]), chain_net(2)
    gain = design_observer_gain(model) if coupling == "partial" else None
    kind = ProtocolKind(cache=PCache(model), observer_gain=gain)
    field = ClosedLoopField(model, net, kind)
    assert (field.F == 0).all() and np.isfinite(field.linear_part[0]).all()
    scenario = Scenario(model=model, net=net, x0=[[0.4], [-0.3]], xr0=[0.2],
                        chi0=np.zeros((2, 1)), xhat0=np.zeros((2, 1)),
                        coupling=coupling)
    integrator = run_protocol(scenario, kind)[1].integrator
    assert integrator["n_linear_steps"] == integrator["n_steps"]


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
        kind = ProtocolKind(cache=PCache(model), observer_gain=gain)
    else:
        kind = ProtocolKind(observer_gain=gain,
                            epsilon=float(2.0 ** -rng.integers(0, 21)))
    assert kind.name == f"{family}-{coupling}"
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


@settings(database=None, derandomize=True, deadline=None, max_examples=16)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 6))
def test_linear_part_beyond_zero_one_inputs(seed, N):
    """L is placed term by term as P⊗(Q·gain), not as W's input columns
    times F, so on a general B (m ≥ 1) the two agree only to rounding:
    L = M + (G_u + G_sat) F to 1e-13 of max |L|, for every kind.  At a
    state scaled into the cell, f(t, z) = L z to 1e-12 of the largest sum
    |W|·|(z, vec U, vec sat U)| the field call rounds."""
    rng = np.random.default_rng(seed)
    model = random_admissible_model(rng)
    net = random_rooted_network(rng, N)
    cache, gain = PCache(model), design_observer_gain(model)
    for kind in (ProtocolKind(cache=cache),
                 ProtocolKind(cache=cache, observer_gain=gain),
                 ProtocolKind(epsilon=0.5),
                 ProtocolKind(epsilon=0.5, observer_gain=gain)):
        field = ClosedLoopField(model, net, kind)
        (L, inside), W, F = field.linear_part, field.W, field.F
        dim, Nm = field.layout.dim, N * model.m
        inputs = W[:, dim:dim + Nm] + W[:, dim + Nm:]
        np.testing.assert_allclose(L, W[:, :dim] + inputs @ F, rtol=0,
                                   atol=1e-13 * np.abs(L).max())
        z = rng.standard_normal(dim)
        if kind.is_global:  # the largest g(1, χᵢ), to 0.9
            chi = field.layout.split(z)[2]
            edge = np.sqrt(np.einsum("ij,jk,ik->i", chi, cache.S[0],
                                     chi).max())
        else:  # the largest |u|, to 0.9
            edge = np.abs(F @ z).max()
        z *= 0.9 / edge
        assert inside(z).max() <= 1.0
        U = field.controls(field.layout.split(z)[2])[0].ravel()
        terms = np.abs(W) @ np.abs(np.concatenate((z, U, U)))
        np.testing.assert_allclose(field(0.0, z), L @ z, rtol=0,
                                   atol=1e-12 * terms.max())
