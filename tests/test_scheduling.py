import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satsync import (
    AgentModel,
    CompactSetSpec,
    Network,
    PCache,
    StateLayout,
    epsilon_of_state,
    reproduce,
    select_semiglobal_epsilon,
    solve_scheduled_are,
    triple_integrator,
)
from satsync import scheduling
from satsync.scheduling import (
    BISECTION_DEPTH,
    GRID,
    RHO_MIN,
    ScheduleFloorError,
    lattice_rho,
    sample_box_vertices,
    schedule,
)


@pytest.fixture(scope="module")
def scalar_cache():
    # A = 0, B = 1: P_rho = rho, so g(rho, chi) = chi^2 rho^2
    return PCache(AgentModel([[0.0]], [[1.0]], [[1.0]]))


class TestPCache:
    def test_grid_solutions_match_closed_form(self, scalar_cache):
        # the residual certificate |P(rho - P)| <= tol only pins P down to
        # about tol/rho, so the check loosens as rho shrinks
        for rho in GRID:
            P = scalar_cache.solution(rho).P[0, 0]
            assert abs(P - rho) <= 2e-9 / rho

    def test_g_closed_form(self, scalar_cache):
        assert scalar_cache.g(0.5, np.array([3.0])) == pytest.approx(
            9 * 0.25, rel=1e-9
        )

    def test_g_nondecreasing_in_rho(self):
        cache = PCache(
            AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        )
        chi = np.array([1.0, -0.5])
        values = [cache.g(rho, chi) for rho in reversed(GRID)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_off_grid_solution_closed_form(self, scalar_cache):
        assert scalar_cache.solution(0.3).P[0, 0] == pytest.approx(0.3, rel=1e-9)

    def test_construction_solves_only_unit_rho(self, monkeypatch):
        # every other row is filled from the schedule's probes via solution()
        calls = []

        def counting(model, rho, **kwargs):
            calls.append(rho)
            return solve_scheduled_are(model, rho, **kwargs)

        monkeypatch.setattr(scheduling, "solve_scheduled_are", counting)
        cache = PCache(triple_integrator())
        assert calls == [1.0]
        cache.g(0.25, np.ones(3))
        assert calls == [1.0, 0.25]

    def test_solution_independent_of_cache_history(self):
        # every entry is a cold solve: the same bits as a direct solve,
        # whatever order the off-grid probes were requested in
        model = triple_integrator()
        probes = [0.3, 0.7, 0.31, 1.3 * 2.0**-15, 0.5, 2.0**-20]
        forward, backward = PCache(model), PCache(model)
        for rho in reversed(probes):
            backward.solution(rho)
        for rho in probes:
            P = solve_scheduled_are(model, rho).P
            np.testing.assert_array_equal(forward.solution(rho).P, P)
            np.testing.assert_array_equal(backward.solution(rho).P, P)


class TestEpsilonOfState:
    def test_small_state_gives_one(self, scalar_cache):
        # g(1, 0.5) = 0.25 <= 1
        assert epsilon_of_state([0.5], scalar_cache) == 1.0

    def test_origin_gives_one(self, scalar_cache):
        assert epsilon_of_state([0.0], scalar_cache) == 1.0

    def test_scalar_boundary(self, scalar_cache):
        # largest rho with (2 rho)^2 <= 1 is exactly 0.5
        eps = epsilon_of_state([2.0], scalar_cache)
        assert eps <= 0.5
        assert eps == pytest.approx(0.5, rel=2e-3)

    def test_never_saturates_by_construction(self, scalar_cache):
        model = scalar_cache.model
        for chi_val in (0.1, 1.0, 7.5, 300.0):
            chi = np.array([chi_val])
            eps = epsilon_of_state(chi, scalar_cache)
            P = scalar_cache.solution(eps).P
            assert np.linalg.norm(model.B.T @ P @ chi) <= 1.0 + 1e-12

    def test_monotone_along_ray(self, scalar_cache):
        values = [
            epsilon_of_state([s], scalar_cache) for s in (0.5, 2.0, 8.0, 64.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_floor_error_far_out(self, scalar_cache):
        # g(rho_min, chi) = (chi rho_min)^2 > 1 for chi > 2^20
        with pytest.raises(ScheduleFloorError):
            epsilon_of_state([2.0 / RHO_MIN], scalar_cache)

    def test_multivariate_boundary(self):
        cache = PCache(
            AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        )
        chi = np.array([5.0, -3.0])
        eps = epsilon_of_state(chi, cache)
        assert cache.g(eps, chi) <= 1.0
        # a grid-resolution step up must violate the constraint
        assert cache.g(min(1.0, eps * 2.01), chi) > 1.0


def reference_schedule(chi, model, solved):
    """One agent at a time: grid scan, then bisection, with g and
    u = −(BᵀP)χ from one cold `solve_scheduled_are` per probed ρ, kept in the
    dict solved; stops at the first agent past the floor."""
    B = model.B

    def P(rho):
        if rho not in solved:
            solved[rho] = solve_scheduled_are(model, rho)
        return solved[rho].P

    def g(rho, c):  # the association of PCache.g
        return float(c @ P(rho) @ c) * float(np.trace(B.T @ P(rho) @ B))

    eps, U = [], []
    for c in chi:
        k = next((k for k in range(len(GRID)) if g(GRID[k], c) <= 1.0), None)
        if k is None:
            raise ScheduleFloorError(float(np.linalg.norm(c)))
        rho = GRID[k]
        if k > 0:
            width = GRID[k - 1] - GRID[k]
            j_lo, j_hi = 0, 2**BISECTION_DEPTH
            for _ in range(BISECTION_DEPTH):
                j_mid = (j_lo + j_hi) // 2
                mid = GRID[k] + width * (j_mid / 2**BISECTION_DEPTH)
                if g(mid, c) <= 1.0:
                    j_lo = j_mid
                else:
                    j_hi = j_mid
            rho = GRID[k] + width * (j_lo / 2**BISECTION_DEPTH)
        eps.append(rho)
        U.append(-(B.T @ P(rho) @ c))
    return np.array(eps), np.array(U).reshape(len(chi), B.shape[1])


def floor_norm_or(fn, *args):
    """fn(*args), or the norm a ScheduleFloorError names."""
    try:
        return fn(*args)
    except ScheduleFloorError as err:
        return err.chi_norm


@settings(database=None, derandomize=True, deadline=None, max_examples=40)
@given(agents=st.integers(1, 40).flatmap(lambda N: st.lists(
    st.tuples(st.floats(-3.0, 7.0),
              st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)),
    min_size=N, max_size=N)))
def test_schedule_matches_one_agent_at_a_time(agents):
    """Same bits of ε and U, the same floor error and, on success, the same
    solved ρ as scheduling each agent alone, for log-uniform scales
    10⁻³ … 10⁷ (the floor is near 10⁶ along the last axis).  A floor error
    is raised once the grid scan fails, so exactly the grid is solved.
    Every filled row holds the bits of a direct solve."""
    chi = np.array([10.0**e * np.array(v) for e, v in agents])
    model = triple_integrator()
    cache, solved = PCache(model), {}
    got = floor_norm_or(schedule, chi, cache)
    want = floor_norm_or(reference_schedule, chi, model, solved)
    ids = np.flatnonzero(cache.filled)
    filled = set(lattice_rho(ids).tolist())
    if isinstance(want, float):
        assert got == want
        assert filled == set(GRID)
    else:
        assert filled == set(solved)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    B = model.B
    for i in ids:
        P = solved[float(lattice_rho(i))].P
        np.testing.assert_array_equal(cache.P[i], P)
        np.testing.assert_array_equal(cache.BtP[i], B.T @ P)
        assert cache.trace[i] == np.trace(B.T @ P @ B)


def test_floor_error_names_first_agent_past_floor(scalar_cache):
    # agents 1 and 2 are past the floor; agent 0 is scheduled first
    chi = np.array([[3.0], [4.0 / RHO_MIN], [3.0 / RHO_MIN]])
    with pytest.raises(ScheduleFloorError) as err:
        schedule(chi, scalar_cache)
    assert err.value.chi_norm == 4.0 / RHO_MIN


def test_out_of_order_grid_fill_changes_no_bits():
    """A grid row filled by a public `fill` ahead of the filled prefix is
    not read before the rows below it: ε and U equal a fresh cache's."""
    chi = np.array([[3.0, 2.0, 1.0]])
    cache = PCache(triple_integrator())
    cache.fill(np.array([3 * scheduling.OCTAVE]))
    got = schedule(chi, cache)
    want = schedule(chi, PCache(triple_integrator()))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_discarded_cache_is_freed_at_once():
    # no reference cycle: the last reference going frees the packed rows
    cache = PCache(triple_integrator())
    schedule(np.outer(10.0 ** np.arange(-2, 5), [1.0, -0.5, 0.25]), cache)
    ref = weakref.ref(cache)
    gc.disable()
    try:
        del cache
        assert ref() is None
    finally:
        gc.enable()


def test_filling_rows_allocates_nothing():
    # rows live in the table allocated at construction: filling 612 of
    # them keeps no per-row object or copy
    cache = PCache(triple_integrator())
    chi = np.outer(np.logspace(-2, 5, 100), [1.0, -0.5, 0.25])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        schedule(chi, cache)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.filled.sum() > 500
    assert grown < 16 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads resident memory from /proc")
def test_repeated_reproduce_keeps_memory_flat(tmp_path):
    def resident_mb():
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20

    rounds = []
    for _ in range(2):  # the first round also pays one-time allocations
        for case in (1, 2, 3):
            reproduce(case, tmp_path)
        rounds.append(resident_mb())
    assert rounds[1] - rounds[0] < 1.0


@pytest.fixture(scope="module")
def triple_cache():
    return PCache(triple_integrator())


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(chi=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
def test_scheduled_control_within_saturation_bound(triple_cache, chi):
    """g(ε(χ), χ) ≤ 1 keeps the scheduled control ‖BᵀP_ε χ‖ within 1."""
    chi = np.array(chi)
    eps = epsilon_of_state(chi, triple_cache)
    u = triple_cache.model.B.T @ triple_cache.solution(eps).P @ chi
    assert np.linalg.norm(u) <= 1.0 + 1e-12


class TestCompactSetSpec:
    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            CompactSetSpec(agent=-1.0, exo=1.0, protocol=1.0)

    def test_scalar_broadcast(self):
        sets = CompactSetSpec(agent=2.0, exo=0.5, protocol=0.0)
        assert sets.agent.shape == (1,)

    def test_half_width_length_must_be_one_or_n(self):
        layout = StateLayout(2, 3, False)
        sets = CompactSetSpec(agent=[1.0, 2.0], exo=0.5, protocol=0.0)
        with pytest.raises(ValueError, match="half-width length"):
            sets.halfwidths(layout)


class TestSampleBoxVertices:
    def test_zero_box_is_origin(self):
        samples = sample_box_vertices(np.zeros(4))
        np.testing.assert_array_equal(samples, np.zeros((1, 4)))

    def test_small_box_enumerates_vertices(self):
        samples = sample_box_vertices(np.array([1.0, 2.0]))
        assert samples.shape == (4, 2)
        expected = {(-1, -2), (-1, 2), (1, -2), (1, 2)}
        assert {tuple(row) for row in samples} == expected

    def test_inactive_dims_fixed_at_zero(self):
        samples = sample_box_vertices(np.array([1.0, 0.0, 3.0]))
        assert samples.shape == (4, 3)
        np.testing.assert_array_equal(samples[:, 1], 0.0)

    def test_small_box_enumerates_in_binary_order(self):
        # row v has +h_k on coordinate k exactly when bit k of v is set
        for d in range(9):
            h = np.arange(1.0, d + 1)
            expected = [[h[k] if (v >> k) & 1 else -h[k] for k in range(d)]
                        for v in range(2**d)]
            np.testing.assert_array_equal(
                sample_box_vertices(h), np.reshape(expected, (2**d, d))
            )

    @pytest.mark.parametrize("d", [9, 16, 21, 30, 64, 100, 300])
    def test_large_box_rows_distinct_and_not_antipodal(self, d):
        samples = sample_box_vertices(np.ones(d))
        assert samples.shape == (257, d)
        rows = {tuple(row) for row in samples}
        assert len(rows) == 257
        assert not any(tuple(-row) in rows for row in samples[:-1])
        np.testing.assert_array_equal(samples[-1], np.zeros(d))

    def test_large_box_uses_sign_patterns(self):
        h = np.ones(10)  # 1024 vertices > 256
        samples = sample_box_vertices(h)
        assert samples.shape == (257, 10)
        assert np.all(np.isin(samples, (-1.0, 0.0, 1.0)))
        np.testing.assert_array_equal(samples[-1], np.zeros(10))

    def test_deterministic(self):
        h = np.ones(12)
        np.testing.assert_array_equal(
            sample_box_vertices(h), sample_box_vertices(h)
        )


class TestSelectSemiglobalEpsilon:
    def test_scalar_pair_selects_unit_epsilon(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        adj = np.zeros((2, 2))
        adj[1, 0] = 1.0
        net = Network(adjacency=adj, root_set=frozenset([0]))
        sets = CompactSetSpec(agent=0.05, exo=0.05, protocol=0.0)
        report = select_semiglobal_epsilon(model, net, sets, "full")
        assert report.epsilon_star == 1.0
        assert report.trials[-1].passed
        assert report.trials[-1].max_control < 0.95

    def test_zero_sets_trivially_pass(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        net = Network(adjacency=np.zeros((1, 1)), root_set=frozenset([0]))
        sets = CompactSetSpec(agent=0.0, exo=0.0, protocol=0.0)
        report = select_semiglobal_epsilon(model, net, sets, "full")
        assert report.epsilon_star == 1.0
        assert report.n_samples == 1
        assert report.trials[-1].max_control == 0.0

    def test_report_round_trips_to_dict(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        net = Network(adjacency=np.zeros((1, 1)), root_set=frozenset([0]))
        sets = CompactSetSpec(agent=0.0, exo=0.0, protocol=0.0)
        report = select_semiglobal_epsilon(model, net, sets, "full")
        d = report.to_dict()
        assert d["epsilon_star"] == 1.0
        assert len(d["trials"]) == len(report.trials)

    def test_case3_unit_epsilon_steps_are_all_linear(self):
        """select-eps on case 3 at half-width 0.05 validates ε = 1 from 257
        samples.  That loop never saturates, so every accepted RK45 step
        must come from the linear kernel; a silent fallback to the stage
        loop would cost its 6 field calls per step again."""
        from satsync import ClosedLoopField, bundled_scenario, integrate
        from satsync.protocols import ProtocolKind
        from satsync.riccati import design_observer_gain

        scenario = bundled_scenario(3)
        kind = ProtocolKind("semiglobal", scenario.coupling, epsilon=1.0,
                            observer_gain=design_observer_gain(scenario.model))
        field = ClosedLoopField(scenario.model, scenario.net, kind)
        sets = CompactSetSpec(agent=0.05, exo=0.05, protocol=0.05)
        samples = sample_box_vertices(sets.halfwidths(field.layout))
        assert samples.shape[0] == 257
        for z0 in samples:
            traj = integrate(field, z0, (0.0, scheduling.T_VAL),
                             rtol=1e-6, atol=1e-8)
            assert traj.stats.n_linear_steps == traj.stats.n_steps > 0
