import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import chain_net, random_admissible_model
from satsync import (
    CompactSetSpec,
    StateLayout,
    Trajectory,
    integrate,
    random_rooted_network,
    saturation_events,
    select_semiglobal_epsilon,
    semiglobal_full,
    semiglobal_partial,
    sync_metrics,
    triple_integrator,
)
from satsync.protocols import ClosedLoopField
from satsync.sim import (
    DivergenceError,
    IntegratorStats,
    _field_stages,
    _linear_stages,
    _powers,
    sync_error_series,
)


def decay(t, z):
    return -z


class TestFixedRk4:
    def test_exponential_decay(self):
        traj = integrate(decay, [1.0], (0.0, 1.0), method="fixed_rk4", dt=1e-3)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-14)

    def test_constant_field_exact(self):
        traj = integrate(
            lambda t, z: np.array([2.0, -3.0]), [0.0, 1.0],
            (0.0, 2.5), method="fixed_rk4", dt=0.1,
        )
        np.testing.assert_allclose(traj.states[-1], [5.0, -6.5], atol=1e-12)

    def test_fourth_order_convergence(self):
        # logistic equation; halving dt must cut the error by about 2^4
        def logistic(t, z):
            return z * (1.0 - z)

        exact = 1.0 / (1.0 + 9.0 * np.exp(-2.0))

        def err(dt):
            traj = integrate(logistic, [0.1], (0.0, 2.0),
                             method="fixed_rk4", dt=dt)
            return abs(traj.states[-1, 0] - exact)

        ratio = err(0.02) / err(0.01)
        assert ratio == pytest.approx(16.0, rel=0.2)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate(decay, [1.0], (0.0, 1.0), method="fixed_rk4", dt=0.0)


class TestAdaptiveRk45:
    def test_harmonic_oscillator(self):
        def osc(t, z):
            return np.array([z[1], -z[0]])

        traj = integrate(osc, [1.0, 0.0], (0.0, 2 * np.pi))
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-6)
        assert traj.stats.n_steps == traj.times.size - 1

    def test_matches_matrix_exponential(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n)) - 2 * np.eye(n)
            z0 = rng.standard_normal(n)
            traj = integrate(lambda t, z: M @ z, z0, (0.0, 3.0))
            np.testing.assert_allclose(
                traj.states[-1], sla.expm(3.0 * M) @ z0, atol=1e-6
            )

    def test_tightening_tolerance_reduces_error(self):
        def osc(t, z):
            return np.array([z[1], -z[0]])

        def final_err(rtol):
            traj = integrate(osc, [1.0, 0.0], (0.0, 4 * np.pi),
                             rtol=rtol, atol=rtol * 1e-2)
            return np.linalg.norm(traj.states[-1] - [1.0, 0.0])

        assert final_err(1e-10) < final_err(1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_field_aborts(self):
        from satsync.sim import IntegrationError

        with pytest.raises(IntegrationError):
            integrate(lambda t, z: np.array([np.inf]), [1.0], (0.0, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_recovers_after_nonfinite_stage(self):
        # a stage that overshoots past 0 sees inf; the step is rejected with
        # factor 0.2 and integration carries on from the last accepted state
        def guarded_decay(t, z):
            return np.array([np.inf]) if z[0] < 0 else -3.0 * z

        traj = integrate(guarded_decay, [1.0], (0.0, 5.0), rtol=1e-3, atol=1e-6)
        assert traj.times[-1] == 5.0
        assert np.all(traj.states[:, 0] >= 0)
        assert (traj.stats.n_steps, traj.stats.n_rejected,
                traj.stats.n_field_evals) == (39, 22, 326)

    def test_retry_after_rejection_starts_from_the_field_at_z(self):
        # Duffing oscillator: many steps are rejected.  Each retry must start
        # from f(t, z), not from the field at the rejected attempt's end
        # point; that mix-up gave a final error of 2.6e-2 here, and about
        # four times as many rejections.
        def duffing(t, z):
            return np.array([z[1], -z[0] * (1.0 + z[0] ** 2)])

        traj = integrate(duffing, [3.0, 0.0], (0.0, 10.0), rtol=1e-6, atol=1e-8)
        ref = solve_ivp(duffing, (0.0, 10.0), [3.0, 0.0], method="DOP853",
                        rtol=1e-13, atol=1e-13)
        assert traj.stats.n_rejected > 10
        np.testing.assert_allclose(traj.states[-1], ref.y[:, -1], atol=1e-4)

    def test_overflowing_start_raises(self):
        # ‖z0‖ and ‖f(t0, z0)‖ overflow, so the initial step is inf/inf = nan;
        # the field gives up after 100 calls, so a nan step that never
        # advances t fails the test instead of hanging it
        calls = []

        def huge(t, z):
            calls.append(t)
            if len(calls) > 100:
                raise RuntimeError("integration did not stop")
            return np.full(1, 1e200)

        from satsync.sim import IntegrationError

        with np.errstate(all="ignore"), pytest.raises(IntegrationError):
            integrate(huge, [1e200], (0.0, 1.0))

    def test_divergence_detected_fixed_step(self):
        with pytest.raises(DivergenceError):
            integrate(
                lambda t, z: np.array([np.inf]), [1.0], (0.0, 1.0),
                method="fixed_rk4", dt=0.1,
            )

    def test_bad_span_rejected(self):
        """A span that is not finite and increasing, and an RK4 step or a
        tolerance that is not finite and positive, are rejected before any
        step; RK45 would never reach the end of an infinite span."""
        inf, nan = np.inf, np.nan
        bad = [
            ((1.0, 0.0), {}), ((0.0, inf), {}), ((0.0, nan), {}),
            ((nan, 1.0), {}), ((-inf, 1.0), {}),
            ((0.0, inf), {"method": "fixed_rk4"}),
            ((0.0, 1.0), {"method": "fixed_rk4", "dt": inf}),
            ((0.0, 1.0), {"method": "fixed_rk4", "dt": nan}),
            ((0.0, 1.0), {"method": "fixed_rk4", "dt": 0.0}),
            ((0.0, 1.0), {"atol": inf}), ((0.0, 1.0), {"rtol": inf}),
            ((0.0, 1.0), {"atol": nan}), ((0.0, 1.0), {"rtol": 0.0}),
        ]
        for span, options in bad:
            with pytest.raises(ValueError):
                integrate(decay, [1.0], span, **options)
        model = triple_integrator()
        sets = CompactSetSpec(agent=0.05, exo=0.05, protocol=0.05)
        with pytest.raises(ValueError):
            select_semiglobal_epsilon(model, chain_net(2), sets, "full",
                                      horizon=inf)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            integrate(decay, [1.0], (0.0, 1.0), method="euler")


class StageLoopOnly:
    """A protocol field without its linear part: RK45 then takes every step
    through the stage loop."""

    def __init__(self, field):
        self.field = field
        self.layout = field.layout
        self.control_info = field.control_info

    def __call__(self, t, z):
        return self.field(t, z)


class NonFiniteKernel:
    """ż = −z with a linear part whose Krylov block is not finite."""

    linear_part = (np.array([[np.nan]]), np.zeros((1, 1)))

    def __call__(self, t, z):
        return -z


class TestLinearKernel:
    T = 10.0

    def test_nonfinite_krylov_block_takes_the_stage_loop(self):
        L, F = NonFiniteKernel.linear_part
        z = np.array([1.0])
        assert _linear_stages(L, F, _powers(L), z, -z, 0.1) is None
        traj = integrate(NonFiniteKernel(), z, (0.0, 2.0))
        stages = integrate(decay, z, (0.0, 2.0))
        assert traj.stats.n_linear_steps == 0
        assert traj.stats.n_steps == stages.stats.n_steps > 0
        np.testing.assert_array_equal(traj.states, stages.states)

    @settings(database=None, derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), log2_eps=st.floats(-20.0, 0.0),
           partial=st.booleans())
    @example(seed=0, log2_eps=-20.0, partial=False)
    @example(seed=0, log2_eps=0.0, partial=True)
    def test_matches_stage_loop_and_exact_flow(self, seed, log2_eps, partial):
        """From a start whose exact flow keeps ‖u‖∞ ≤ 0.5 up to T, every
        step is linear, and the final state agrees with expm(T·L) z0 and
        with the stage loop's to the tolerance of the run."""
        rng = np.random.default_rng(seed)
        model = random_admissible_model(rng, n_max=6)
        net = random_rooted_network(rng, int(rng.integers(1, 7)))
        make = semiglobal_partial if partial else semiglobal_full
        field = ClosedLoopField(model, net, make(model, 2.0**log2_eps))
        L, F = field.linear_part
        z0 = rng.standard_normal(field.layout.dim)
        flow = [z0]  # the exact flow on a grid of 400 steps
        step = sla.expm(self.T / 400 * L)
        for _ in range(400):
            flow.append(step @ flow[-1])
        flow = np.array(flow)
        scale = 0.5 / np.abs(flow @ F.T).max()
        z0, flow = scale * z0, scale * flow
        exact = sla.expm(self.T * L) @ z0

        rtol, atol = 1e-8, 1e-10
        traj = integrate(field, z0, (0.0, self.T), rtol=rtol, atol=atol)
        stages = integrate(StageLoopOnly(field), z0, (0.0, self.T),
                           rtol=rtol, atol=atol)
        assert traj.stats.n_linear_steps == traj.stats.n_steps
        assert traj.stats.n_field_evals == 1  # at t0; the kernel calls none
        assert stages.stats.n_linear_steps == 0
        # global error within ten local tolerances (2.4 at most on 200 draws)
        tol = 10 * (atol + rtol * np.abs(flow).max())
        assert np.abs(traj.states[-1] - exact).max() <= tol
        assert np.abs(traj.states[-1] - stages.states[-1]).max() <= tol

    @settings(database=None, derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), log2_eps=st.floats(-20.0, 0.0),
           partial=st.booleans(), log10_hL=st.floats(-3.0, 0.0))
    def test_one_attempt_is_a_pure_function(self, seed, log2_eps, partial,
                                            log10_hL):
        """One attempt of either kernel on ż = L z from the same (z, L z, h),
        with ‖u‖∞ ≤ 0.5 at every stage point: both give the same z5, err
        and k_new to 1e-12 relative (err relative to h‖k1‖, the size of
        the slopes it sums).  Repeating an attempt after one at another h
        gives the same bits, and the arguments are read-only, so no
        attempt writes into its inputs or into what another returned."""
        rng = np.random.default_rng(seed)
        model = random_admissible_model(rng, n_max=6)
        net = random_rooted_network(rng, int(rng.integers(1, 7)))
        make = semiglobal_partial if partial else semiglobal_full
        field = ClosedLoopField(model, net, make(model, 2.0**log2_eps))
        L, F = field.linear_part
        h = 10.0**log10_hL / np.linalg.norm(L, 2)
        points = []

        def flow(t, y):
            points.append(y)
            return L @ y

        z = rng.standard_normal(L.shape[0])
        _field_stages(flow, 0.0, z, L @ z, h, IntegratorStats())
        z *= 0.5 / np.abs(np.vstack([z] + points) @ F.T).max()
        k1 = L @ z
        z.flags.writeable = k1.flags.writeable = False

        powers, stats = _powers(L), IntegratorStats()
        kernels = (lambda h: _linear_stages(L, F, powers, z, k1, h),
                   lambda h: _field_stages(flow, 0.0, z, k1, h, stats))
        linear, stages = (kernel(h) for kernel in kernels)
        assert linear is not None and stats.n_field_evals == 6
        z5, _, k_new = linear
        scales = (np.abs(z5).max(), h * np.linalg.norm(k1),
                  np.abs(k_new).max())
        for a, b, scale in zip(linear, stages, scales):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)
        for kernel, first in zip(kernels, (linear, stages)):
            bits = [np.copy(a) for a in first]
            kernel(h / 2)
            for a, b in zip(first, bits):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(kernel(h), bits):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("epsilon, half_width", [(0.25, 3.0), (0.5, 4.0)])
    def test_saturated_steps_take_the_stage_loop(self, epsilon, half_width):
        """A saturating start: both kernels run, the stage loop takes at
        least as many steps as start from a state with ‖u‖∞ > 1, and
        saturation_events reports the same excursions as a run that never
        takes the linear kernel."""
        model = triple_integrator()
        field = ClosedLoopField(model, chain_net(3),
                                semiglobal_full(model, epsilon))
        z0 = np.random.default_rng(1).uniform(
            -half_width, half_width, field.layout.dim)
        traj = integrate(field, z0, (0.0, 20.0), rtol=1e-6, atol=1e-8)
        stages = integrate(StageLoopOnly(field), z0, (0.0, 20.0),
                           rtol=1e-6, atol=1e-8)
        saturated = np.abs(traj.controls[:-1]).max(axis=(1, 2)) > 1.0
        assert saturated[0]
        assert 0 < traj.stats.n_linear_steps
        assert traj.stats.n_linear_steps <= traj.stats.n_steps - saturated.sum()

        events, reference = saturation_events(traj), saturation_events(stages)
        assert len(events) == len(reference) > 0
        assert [e[1:3] for e in events] == [e[1:3] for e in reference]
        np.testing.assert_allclose([(e[0], e[3]) for e in events],
                                   [(e[0], e[3]) for e in reference],
                                   rtol=1e-9)


def _make_traj(times, states, controls=None, layout=None):
    times = np.asarray(times, dtype=float)
    controls_arr = (
        np.asarray(controls, dtype=float)
        if controls is not None
        else np.empty((times.size, 0, 0))
    )
    return Trajectory(
        times=times,
        states=np.asarray(states, dtype=float),
        controls=controls_arr,
        realized_epsilon=None,
        layout=layout,
    )


class TestSaturationEvents:
    def test_no_events_within_unit_box(self):
        traj = _make_traj([0.0, 1.0], np.zeros((2, 1)),
                          controls=[[[0.5]], [[-1.0]]])
        assert saturation_events(traj) == []

    def test_events_reported_with_location(self):
        controls = np.zeros((3, 2, 1))
        controls[1, 0, 0] = 1.5
        controls[2, 1, 0] = -2.0
        traj = _make_traj([0.0, 0.5, 1.0], np.zeros((3, 1)), controls=controls)
        events = saturation_events(traj)
        assert events == [(0.5, 0, 0, 1.5), (1.0, 1, 0, 2.0)]

    def test_requires_recorded_controls(self):
        traj = _make_traj([0.0], np.zeros((1, 1)))
        with pytest.raises(ValueError):
            saturation_events(traj)


class TestSyncMetrics:
    def _decay_traj(self, e0=1.0, tmax=10.0, steps=1001):
        layout = StateLayout(1, 1, partial=False)
        times = np.linspace(0.0, tmax, steps)
        states = np.zeros((steps, 3))
        states[:, 0] = e0 * np.exp(-times)  # x; x_r = chi = 0
        return _make_traj(times, states, layout=layout), times

    def test_error_series_matches_decay(self):
        traj, times = self._decay_traj()
        np.testing.assert_allclose(
            sync_error_series(traj), np.exp(-times), atol=1e-12
        )

    def test_error_series_matches_per_row_loop(self, rng):
        layout = StateLayout(3, 2, partial=True)
        states = rng.standard_normal((50, layout.dim))
        traj = _make_traj(np.arange(50.0), states, layout=layout)
        expected = []
        for z in states:
            x, x_r, _, _ = layout.split(z)
            expected.append(np.linalg.norm(x - x_r[None, :], axis=1).max())
        np.testing.assert_array_equal(sync_error_series(traj), expected)

    def test_convergence_time_log_ratio(self):
        traj, times = self._decay_traj()
        metrics = sync_metrics(traj, 1e-2)
        # first grid time past ln(100)
        expected = times[np.searchsorted(times, np.log(100.0), side="right")]
        assert metrics.convergence_time == pytest.approx(expected, abs=1e-12)

    def test_transient_dip_not_counted(self):
        layout = StateLayout(1, 1, partial=False)
        times = np.array([0.0, 1.0, 2.0, 3.0])
        states = np.zeros((4, 3))
        states[:, 0] = [1.0, 0.001, 0.5, 0.001]  # dips below tol, then rises
        traj = _make_traj(times, states, layout=layout)
        metrics = sync_metrics(traj, 1e-2)
        assert metrics.convergence_time == 3.0

    def test_never_converges(self):
        traj, _ = self._decay_traj(e0=1.0, tmax=1.0)
        metrics = sync_metrics(traj, 1e-6)
        assert metrics.convergence_time is None

    def test_requires_layout(self):
        traj = _make_traj([0.0], np.zeros((1, 3)))
        with pytest.raises(ValueError):
            sync_error_series(traj)
