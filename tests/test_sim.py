import numpy as np
import pytest
import scipy.linalg as sla

from satsync import StateLayout, Trajectory, integrate, saturation_events, sync_metrics
from satsync.sim import DivergenceError, sync_error_series


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
                traj.stats.n_field_evals) == (46, 34, 433)

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
        with pytest.raises(ValueError):
            integrate(decay, [1.0], (1.0, 0.0))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            integrate(decay, [1.0], (0.0, 1.0), method="euler")


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
