import functools
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import chain_net, random_admissible_model
from satsync import (
    CompactSetSpec,
    ProtocolKind,
    StateLayout,
    Trajectory,
    design_observer_gain,
    integrate,
    random_rooted_network,
    saturation_events,
    select_semiglobal_epsilon,
    sync_metrics,
    triple_integrator,
)
from satsync.protocols import ClosedLoopField
from satsync import sim
from satsync.sim import (
    DivergenceError,
    IntegratorStats,
    _field_stages,
    _krylov,
    _taylor_step,
    sync_error_series,
)


def decay(t, z):
    return -z


def taylor_rows(V, h):
    """The Taylor kernel's product with the block V: rows 0–7 the check
    points θ = 1/8, …, 1, row 8 the first omitted term and row 9 the FSAL
    slope."""
    return (sim._TAYLOR_POLY * h**sim._TAYLOR_POWERS) @ V


def reach(V, rtol, atol):
    """The reach of the block V of z: the h at which (hL)¹⁷/17! z has norm
    0.9¹⁷ (atol + rtol‖z‖), and inf where L¹⁷ z = 0."""
    tol = atol + rtol * np.linalg.norm(V[0])
    last = np.linalg.norm(V[-1])
    return math.inf if last == 0 else 0.9 * (
        tol * math.factorial(17) / last) ** (1 / 17)


class TestFixedRk4:
    def test_exponential_decay(self):
        traj = integrate(decay, [1.0], (0.0, 1.0), dt=1e-3)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-14)

    def test_constant_field_exact(self):
        traj = integrate(
            lambda t, z: np.array([2.0, -3.0]), [0.0, 1.0],
            (0.0, 2.5), dt=0.1,
        )
        np.testing.assert_allclose(traj.states[-1], [5.0, -6.5], atol=1e-12)

    def test_fourth_order_convergence(self):
        # logistic equation; halving dt must cut the error by about 2^4
        def logistic(t, z):
            return z * (1.0 - z)

        exact = 1.0 / (1.0 + 9.0 * np.exp(-2.0))

        def err(dt):
            traj = integrate(logistic, [0.1], (0.0, 2.0), dt=dt)
            return abs(traj.states[-1, 0] - exact)

        ratio = err(0.02) / err(0.01)
        assert ratio == pytest.approx(16.0, rel=0.2)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate(decay, [1.0], (0.0, 1.0), dt=0.0)


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
        # factor 0.2 and integration carries on from the last accepted state.
        # The counts include the start step's probe of the field.
        def guarded_decay(t, z):
            return np.array([np.inf]) if z[0] < 0 else -3.0 * z

        traj = integrate(guarded_decay, [1.0], (0.0, 5.0), rtol=1e-3, atol=1e-6)
        assert traj.times[-1] == 5.0
        assert np.all(traj.states[:, 0] >= 0)
        assert (traj.stats.n_steps, traj.stats.n_rejected,
                traj.stats.n_field_evals) == (36, 24, 316)

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
        # ‖z0‖ overflows, so the run stops before the field sees z0 and
        # without a numpy warning, which the suite turns into an error; the
        # field gives up after 100 calls, so a run that never advances t
        # fails the test instead of hanging it
        calls = []

        def huge(t, z):
            calls.append(t)
            if len(calls) > 100:
                raise RuntimeError("integration did not stop")
            return np.full(1, 1e200)

        from satsync.sim import IntegrationError

        with pytest.raises(IntegrationError):
            integrate(huge, [1e200], (0.0, 1.0))
        assert calls == []

    def test_divergence_detected_adaptive(self):
        """ż = 10 from z0 = 1: the stage loop's error estimate is 0, so each
        step grows five-fold until z overflows near t = 3.5e307.  The
        accepted state is not finite, and the run raises DivergenceError,
        an IntegrationError, there."""
        from satsync.sim import IntegrationError

        assert issubclass(DivergenceError, IntegrationError)
        with pytest.raises(DivergenceError) as info:
            integrate(lambda t, z: np.array([10.0]), [1.0], (0.0, 1e308))
        assert 1e307 < info.value.t < 1e308
        assert not np.isfinite(info.value.z).all()

    def test_step_size_underflow_raises(self):
        """A field that is nan everywhere but at t = 0: every attempt is
        rejected, h shrinks five-fold each time, and the run stops at t = 0
        once h falls below DT_MIN."""
        from satsync.sim import IntegrationError

        def nan_after_start(t, z):
            return z if t == 0.0 else np.full_like(z, np.nan)

        with pytest.raises(IntegrationError,
                           match="step size underflow") as info:
            integrate(nan_after_start, [1.0], (0.0, 1.0))
        assert info.value.t == 0.0
        np.testing.assert_array_equal(info.value.z, [1.0])

    def test_divergence_detected_fixed_step(self):
        with pytest.raises(DivergenceError):
            integrate(
                lambda t, z: np.array([np.inf]), [1.0], (0.0, 1.0), dt=0.1,
            )

    def test_bad_span_rejected(self):
        """A span that is not finite and increasing, and an RK4 step or a
        tolerance that is not finite and positive, are rejected before any
        step; RK45 would never reach the end of an infinite span."""
        inf, nan = np.inf, np.nan
        bad = [
            ((1.0, 0.0), {}), ((0.0, inf), {}), ((0.0, nan), {}),
            ((nan, 1.0), {}), ((-inf, 1.0), {}),
            ((0.0, inf), {"dt": 0.01}),
            ((0.0, 1.0), {"dt": inf}), ((0.0, 1.0), {"dt": nan}),
            ((0.0, 1.0), {"dt": 0.0}),
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


def test_norm_rescales_only_where_the_square_overflows():
    """`sim._norm` is sqrt(v·v), bit for bit, wherever v·v is finite.  Where
    it overflows, inside a run whose overflow warnings are off, the norm of
    v scaled by its largest magnitude gives ‖v‖₂, and only a norm past the
    largest float, or an inf entry, reads as inf."""
    rng = np.random.default_rng(4)
    for v in (rng.standard_normal(7), 1e150 * rng.standard_normal(7)):
        assert sim._norm(v) == math.sqrt(v.dot(v))
    with np.errstate(over="ignore"):
        assert sim._norm(np.array([3e200, -4e200])) == pytest.approx(5e200)
        assert sim._norm(np.array([1.5e308, 1.5e308])) == math.inf
        assert sim._norm(np.array([1.0, -np.inf])) == math.inf
    assert math.isnan(sim._norm(np.array([1.0, np.nan])))


@functools.cache
def case3_field(family):
    """Case 3's partial-coupling field, semiglobal at ε = 1 or global on its
    own table."""
    from satsync import PCache, bundled_scenario

    scenario = bundled_scenario(3)
    gain = design_observer_gain(scenario.model)
    design = ({"epsilon": 1.0} if family == "semiglobal"
              else {"cache": PCache(scenario.model)})
    kind = ProtocolKind(**design, observer_gain=gain)
    return ClosedLoopField(scenario.model, scenario.net, kind)


@settings(database=None, derandomize=True, deadline=None, max_examples=40)
@given(k=st.integers(0, 308), family=st.sampled_from(["semiglobal",
                                                      "global"]),
       dt=st.sampled_from([None, 0.05]))
@example(k=152, family="semiglobal", dt=None)
@example(k=153, family="global", dt=None)
@example(k=307, family="semiglobal", dt=0.05)
@example(k=306, family="global", dt=0.05)
def test_huge_states_run_or_raise_without_a_warning(k, family, dt):
    """Case 3 from agents synchronized with the reference at ±10^k in every
    entry, with small χ and x̂, on [0, 20]: RK45, or RK4 at a given dt,
    returns a trajectory whose accepted states have finite norms, or raises
    IntegrationError (ScheduleFloorError for the global field once χ passes
    its floor).  No numpy warning leaks (tier-1 turns warnings into
    errors); a norm taken as sqrt(v·v) with overflow warnings on leaked one
    at k = 152 and 153, and RK4's stages leaked overflow warnings at
    k = 306 … 308."""
    from satsync.scheduling import ScheduleFloorError
    from satsync.sim import IntegrationError

    field = case3_field(family)
    layout = field.layout
    rng = np.random.default_rng(k)
    w = 10.0**k * rng.choice([-1.0, 1.0], layout.n)
    small = rng.uniform(-1.0, 1.0, (layout.N, layout.n))
    z0 = layout.pack(np.tile(w, (layout.N, 1)), w, small, small)
    try:
        traj = integrate(field, z0, (0.0, 20.0), dt=dt, rtol=1e-6,
                         atol=1e-8)
    except (IntegrationError, ScheduleFloorError):
        return
    with np.errstate(over="ignore"):
        assert all(math.isfinite(sim._norm(z)) for z in traj.states)


class StageLoopOnly:
    """A protocol field without its linear part: RK45 then takes every step
    through the stage loop."""

    def __init__(self, field):
        self.field = field
        self.layout = field.layout
        self.control_info = field.control_info

    def __call__(self, t, z):
        return self.field(t, z)


def never_saturated(Z):
    """The `inside` of a linear part whose one control F z = 0 never
    saturates: every state is in its cell."""
    return np.zeros(np.shape(Z)[:-1] + (1,))


class NonFiniteKernel:
    """ż = −z with a linear part whose Krylov block is not finite."""

    linear_part = (np.array([[np.nan]]), never_saturated)

    def __call__(self, t, z):
        return -z


class LinearDecay:
    """ż = −z with a linear part whose controls never saturate."""

    linear_part = (np.array([[-1.0]]), never_saturated)

    def __call__(self, t, z):
        return -z


class LinearField:
    """ż = L z with a linear part whose controls F z = 0 never saturate."""

    def __init__(self, L):
        self.linear_part = (L, never_saturated)

    def __call__(self, t, z):
        return self.linear_part[0] @ z


@pytest.mark.parametrize("field, z0, t_final, options, t_range", [
    # RK45's stage loop: the stage terms overflow to ±inf and cancel
    (lambda t, z: z, [1.0, 1.0], 800.0, {"rtol": 1e-6, "atol": 1e-8},
     (700.0, 720.0)),
    # the Taylor kernel: h¹⁷ overflows, times a zero coefficient
    (LinearField(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
                           [0.0, 0.0, 0.0]])),
     [0.0, 0.0, 9e153], 1e160, {}, (1e154, 2e154)),
    # RK4: the stage sum overflows
    (lambda t, z: z, [1.0], 800.0, {"dt": 1.0}, (700.0, 720.0)),
], ids=["stage_loop", "taylor", "rk4"])
def test_overflowing_run_raises_divergence_without_a_warning(
        field, z0, t_final, options, t_range):
    """A run whose state overflows raises DivergenceError where it does,
    and no numpy overflow or invalid-value warning leaks on the way
    (tier-1 turns warnings into errors)."""
    with pytest.raises(DivergenceError) as info:
        integrate(field, z0, (0.0, t_final), **options)
    assert t_range[0] < info.value.t < t_range[1]


class TestLinearKernel:
    T = 10.0

    def test_start_step_is_sized_to_the_tolerance(self):
        """On ż = −z from 1 at rtol 1e-6 the first accepted step is at
        least 1e-3; a tenth of a tolerance over the slope would give about
        1e-7.  A run whose steps are all linear calls the field twice: at
        t0 and for the start step's probe."""
        for field in (decay, LinearDecay()):
            traj = integrate(field, [1.0], (0.0, 1.0), rtol=1e-6)
            assert traj.times[1] - traj.times[0] >= 1e-3
        assert traj.stats.n_linear_steps == traj.stats.n_steps > 0
        assert traj.stats.n_field_evals == 2

    def test_start_step_takes_the_kernels_order(self):
        """The start step is Hairer's rule h1 = (0.01/d)^(1/order) for the
        kernel that takes the first attempt: order 17 on LinearDecay, whose
        first attempt is a Taylor one, and 5 on the same field without its
        linear part.  From z0 = 1 at rtol 1e-6 both probes give d = 1/s,
        s = atol + rtol, and the first step is accepted."""
        rtol, atol = 1e-6, sim.DEFAULT_ATOL
        scale = atol + rtol
        h0 = 0.01  # 0.01‖z0‖/‖k1‖
        d = max(1.0 / scale, abs(-(1.0 - h0) + 1.0) / (scale * h0))
        for field, order in ((LinearDecay(), 17), (decay, 5)):
            traj = integrate(field, [1.0], (0.0, 1.0), rtol=rtol, atol=atol)
            assert traj.times[1] - traj.times[0] == pytest.approx(
                (0.01 / d) ** (1 / order), rel=1e-14)

    def test_nonfinite_krylov_block_takes_the_stage_loop(self):
        """A non-finite block sets no reach: the kernel hands the stage loop
        the h it was asked for."""
        L, inside = NonFiniteKernel.linear_part
        z = np.array([1.0])
        assert _taylor_step(inside, _krylov(L, z, -z), 0.1,
                            1e-8) == (0.1, None)
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
        gain = design_observer_gain(model) if partial else None
        field = ClosedLoopField(model, net, ProtocolKind(
            epsilon=2.0**log2_eps, observer_gain=gain))
        L, F = field.linear_part[0], field.F
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
        # at t0 and the start step's probe; the kernel calls none
        assert traj.stats.n_field_evals == 2
        assert stages.stats.n_linear_steps == 0
        # global error within ten local tolerances
        tol = 10 * (atol + rtol * np.abs(flow).max())
        assert np.abs(traj.states[-1] - exact).max() <= tol
        assert np.abs(traj.states[-1] - stages.states[-1]).max() <= tol

    @settings(database=None, derandomize=True, deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), partial=st.booleans())
    @example(seed=0, partial=True)
    def test_global_matches_stage_loop_and_exact_flow(self, seed, partial):
        """A global kind from a start whose exact flow keeps every agent's
        g(1, χᵢ) ≤ 0.25 up to T, so ε = 1 throughout: every step is linear,
        and the final state agrees with expm(T·L₁) z0 and with the stage
        loop's to the tolerance of the run.  Every recorded ε is 1."""
        from satsync import PCache

        rng = np.random.default_rng(seed)
        model = random_admissible_model(rng, n_max=4)
        net = random_rooted_network(rng, int(rng.integers(1, 6)))
        gain = design_observer_gain(model) if partial else None
        cache = PCache(model)
        field = ClosedLoopField(model, net, ProtocolKind(
            cache=cache, observer_gain=gain))
        L = field.linear_part[0]
        z0 = rng.standard_normal(field.layout.dim)
        flow = [z0]  # the exact flow on a grid of 400 steps
        step = sla.expm(self.T / 400 * L)
        for _ in range(400):
            flow.append(step @ flow[-1])
        chi = field.layout.split(np.array(flow))[2]
        g = np.einsum("tij,jk,tik->ti", chi, cache.S[0], chi)
        scale = np.sqrt(0.25 / g.max())
        z0, flow = scale * z0, scale * np.array(flow)
        exact = sla.expm(self.T * L) @ z0

        rtol, atol = 1e-8, 1e-10
        traj = integrate(field, z0, (0.0, self.T), rtol=rtol, atol=atol)
        stages = integrate(StageLoopOnly(field), z0, (0.0, self.T),
                           rtol=rtol, atol=atol)
        assert traj.stats.n_linear_steps == traj.stats.n_steps > 0
        # at t0 and the start step's probe; the kernel calls none
        assert traj.stats.n_field_evals == 2
        assert stages.stats.n_linear_steps == 0
        assert (traj.realized_epsilon == 1.0).all()
        tol = 10 * (atol + rtol * np.abs(flow).max())
        assert np.abs(traj.states[-1] - exact).max() <= tol
        assert np.abs(traj.states[-1] - stages.states[-1]).max() <= tol

    @settings(database=None, derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), log2_eps=st.floats(-20.0, 0.0),
           partial=st.booleans(), log10_hL=st.floats(-3.0, 0.0))
    def test_one_attempt_is_a_pure_function(self, seed, log2_eps, partial,
                                            log10_hL):
        """One Taylor attempt on ż = L z from the Krylov block V of z and h,
        with ‖u‖∞ ≤ 0.5 at every check point: its check points and FSAL
        slope match expm(θhL) z, θ = 1/8, …, 1, and L expm(hL) z, and its
        error row (hL)¹⁷/17! z, each to 1e-12 relative.  At a tolerance
        whose reach exceeds h, the kernel takes h itself, and the step
        returns rows 7 and 9, the larger of row 8's norm and the rounding
        bound of row 7, and the check points' peak |F z(θh)|, with no
        saturating check point.  Repeating an attempt of either kernel
        after one at another h gives the same bits, and the arguments, the
        block among them, are read-only, so no attempt writes into its
        inputs or into what another returned."""
        rng = np.random.default_rng(seed)
        model = random_admissible_model(rng, n_max=6)
        net = random_rooted_network(rng, int(rng.integers(1, 7)))
        gain = design_observer_gain(model) if partial else None
        field = ClosedLoopField(model, net, ProtocolKind(
            epsilon=2.0**log2_eps, observer_gain=gain))
        (L, inside), F = field.linear_part, field.F
        h = 10.0**log10_hL / np.linalg.norm(L, 2)
        z = rng.standard_normal(L.shape[0])
        flow = np.array([sla.expm(theta * h * L) @ z
                         for theta in np.arange(1, 9) / 8])
        scale = 0.5 / np.abs(flow @ F.T).max()
        z, flow = scale * z, scale * flow
        k1 = L @ z
        weight = h**17 / math.factorial(17)
        last = weight * np.linalg.matrix_power(L, 17) @ z
        # the rounding scale of the error row: |L|¹⁷ |z| in place of L¹⁷ z
        last_scale = weight * (np.linalg.matrix_power(np.abs(L), 17)
                               @ np.abs(z)).max()
        V = _krylov(L, z, k1)
        for a in (z, k1, L, F, V):
            a.flags.writeable = False

        C = sim._TAYLOR_POLY * h**sim._TAYLOR_POWERS
        Z = C @ V
        assert Z.shape == (10, z.size)
        np.testing.assert_allclose(
            Z[:8], flow, rtol=0, atol=1e-12 * np.abs(flow).max())
        np.testing.assert_allclose(Z[8], last, rtol=0,
                                   atol=1e-12 * last_scale)
        np.testing.assert_allclose(
            Z[9], L @ flow[-1], rtol=0,
            atol=1e-12 * np.abs(L @ flow[-1]).max())
        # the reach at tol is 2^(1/17)·h: row 8 is 0.9¹⁷ tol / 2
        tol = 2 * np.linalg.norm(Z[8]) / 0.9**17
        assert h < reach(V, 0.0, tol)
        h_step, step = _taylor_step(inside, V, h, tol)
        assert h_step == h and step is not None
        z_h, err, k_new, order, peak = step
        np.testing.assert_array_equal(z_h, Z[7])
        np.testing.assert_array_equal(k_new, Z[9])
        # row 7 of C holds the weights hᵏ/k! of the terms of z(h)
        assert sim._ROUNDING == 17 * np.finfo(float).eps
        rounding = sim._ROUNDING * np.linalg.norm(C[7, :-1] @ np.abs(V[:-1]))
        assert (err, order) == (max(np.linalg.norm(Z[8]), rounding), 17)
        assert peak == np.abs(Z[:8] @ F.T).max()

        stats = IntegratorStats()
        kernels = (lambda h: _taylor_step(inside, V, h, tol)[1],
                   lambda h: _field_stages(lambda t, y: L @ y, 0.0, z, k1, h,
                                           stats))
        for kernel in kernels:
            first = kernel(h)
            bits = [np.copy(a) for a in first]
            kernel(h / 2)
            for a, b in zip(first, bits):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(kernel(h), bits):
                np.testing.assert_array_equal(a, b)
        assert stats.n_field_evals == 18

    # onsets: the run has a Taylor attempt that saturates at a check point
    # (in the first, every Taylor attempt keeps ‖u‖∞ ≤ 1)
    @pytest.mark.parametrize("epsilon, half_width, onsets", [
        pytest.param(0.25, 3.0, False, id="0.25-3.0"),
        pytest.param(0.5, 4.0, True, id="0.5-4.0"),
    ])
    def test_saturated_steps_take_the_stage_loop(self, epsilon, half_width,
                                                 onsets, monkeypatch):
        """A saturating start: both kernels run, and the stage loop takes at
        least as many steps as start from a state with ‖u‖∞ > 1.  Every
        Taylor attempt starts from a state with ‖u‖∞ ≤ 1, and every
        stage-loop attempt from such a state follows a Taylor attempt from
        it that failed.  Up to the first Taylor attempt the run is the
        stage loop's own, with the same states and the same
        saturation_events.  A Taylor attempt covers the asked h capped at
        its block's reach; where check point θ of it is the first to
        saturate, the kernel returns θ times that h, and the stage-loop
        attempt that follows takes it, so it ends there.  Every accepted
        Taylor step's check points z(θh) keep ‖u‖∞ ≤ 1, and the
        trajectory's check_control_peak is the largest of them."""
        model = triple_integrator()
        field = ClosedLoopField(model, chain_net(3),
                                ProtocolKind(epsilon=epsilon))
        F = field.F
        z0 = np.random.default_rng(1).uniform(
            -half_width, half_width, field.layout.dim)
        stages = integrate(StageLoopOnly(field), z0, (0.0, 20.0),
                           rtol=1e-6, atol=1e-8)
        # every attempt in order: (z, h, None) of the stage loop, and
        # (z, h, (V, step, h_asked)) of the Taylor kernel, h the one it
        # returned
        attempts = []

        def taylor_step(inside, V, h, tol):
            h_asked = h
            h, step = _taylor_step(inside, V, h, tol)
            attempts.append((V[0], h, (V, step, h_asked)))
            return h, step

        def field_stages(field_fn, t, z, k1, h, stats):
            attempts.append((z, h, None))
            return _field_stages(field_fn, t, z, k1, h, stats)

        monkeypatch.setattr(sim, "_taylor_step", taylor_step)
        monkeypatch.setattr(sim, "_field_stages", field_stages)
        traj = integrate(field, z0, (0.0, 20.0), rtol=1e-6, atol=1e-8)
        saturated = np.abs(traj.controls[:-1]).max(axis=(1, 2)) > 1.0
        assert saturated[0]
        assert 0 < traj.stats.n_linear_steps
        assert traj.stats.n_linear_steps <= traj.stats.n_steps - saturated.sum()

        peaks, n_onsets = [], 0  # peaks of the accepted Taylor steps
        for i, (z, h, taylor) in enumerate(attempts):
            if taylor is None:
                if np.abs(F @ z).max() <= 1.0:
                    z_t, h_t, (_, step, _) = attempts[i - 1]
                    assert (z_t == z).all() and step is None
                    assert h == h_t
                continue
            assert np.abs(F @ z).max() <= 1.0
            V, step, h_asked = taylor
            h_cap = min(h_asked, reach(V, 1e-6, 1e-8))
            Z = taylor_rows(V, h_cap)
            u = np.abs(Z[:8] @ F.T).max(axis=1)
            if step is not None:
                assert h == h_cap
                np.testing.assert_array_equal(Z[7], step[0])
                if (traj.states == step[0]).all(axis=1).any():
                    peaks.append(u.max())
                continue
            assert u.max() > 1.0
            assert h == (np.argmax(u > 1.0) + 1) / 8 * h_cap
            n_onsets += 1
        assert n_onsets > 0 or not onsets
        assert len(peaks) == traj.stats.n_linear_steps
        assert max(peaks) <= 1.0
        assert traj.check_control_peak == max(peaks)

        # the start of the first Taylor attempt
        z_first = next(z for z, _, taylor in attempts if taylor is not None)
        first = np.nonzero((traj.states == z_first).all(axis=1))[0][0]
        np.testing.assert_array_equal(traj.states[:first + 1],
                                      stages.states[:first + 1])
        t_first = traj.times[first]
        events = [e for e in saturation_events(traj) if e[0] <= t_first]
        reference = [e for e in saturation_events(stages) if e[0] <= t_first]
        assert events == reference
        assert len(events) > 0

    @pytest.mark.parametrize("rtol, atol", [(1e-6, 1e-8), (1e-10, 1e-12)])
    def test_cancelling_terms_shrink_the_step(self, rtol, atol, monkeypatch):
        """ż = L z with L = [[−1, 1e4], [0, −1]]: eigenvalues −1 and a
        strongly non-normal L.  From z0 = (−2e4, 1) the first component
        cancels to 0 at T = 2, so the Taylor terms of a step sum to a much
        smaller z(h).  The rounding bound of that sum, not the first omitted
        term, sets the error estimate of some attempts, and z(T) matches
        expm(T L) z0 to the run's local tolerance atol + rtol‖z(T)‖."""
        rounded = []  # attempts whose err exceeds the first omitted term

        def taylor_step(inside, V, h, tol):
            h, step = _taylor_step(inside, V, h, tol)
            if step is not None:
                omitted = np.linalg.norm(taylor_rows(V, h)[8])
                rounded.append(step[1] > omitted)
            return h, step

        monkeypatch.setattr(sim, "_taylor_step", taylor_step)
        L = np.array([[-1.0, 1e4], [0.0, -1.0]])
        z0, T = np.array([-2e4, 1.0]), 2.0
        traj = integrate(LinearField(L), z0, (0.0, T), rtol=rtol, atol=atol)
        exact = sla.expm(T * L) @ z0
        assert any(rounded)
        assert traj.stats.n_linear_steps == traj.stats.n_steps
        assert (np.linalg.norm(traj.states[-1] - exact)
                <= atol + rtol * np.linalg.norm(exact))

    def test_case3_vertices_reject_no_attempt(self, monkeypatch):
        """select-eps on case 3 at half-width 0.05 runs ε = 1 from 257 box
        vertices, every step a Taylor one.  On every 16th vertex no attempt
        is rejected, and every Taylor attempt takes the asked h capped at
        the reach of its block, where the first omitted term is 0.9¹⁷ of
        the tolerance."""
        from satsync import bundled_scenario
        from satsync.scheduling import T_VAL, sample_box_vertices

        scenario = bundled_scenario(3)
        kind = ProtocolKind(epsilon=1.0,
                            observer_gain=design_observer_gain(scenario.model))
        field = ClosedLoopField(scenario.model, scenario.net, kind)
        sets = CompactSetSpec(agent=0.05, exo=0.05, protocol=0.05)
        samples = sample_box_vertices(sets.halfwidths(field.layout))
        assert samples.shape[0] == 257
        rtol, atol = 1e-6, 1e-8
        attempts = []  # (V, asked h, returned h) of every Taylor attempt

        def taylor_step(inside, V, h, tol):
            h_step, step = _taylor_step(inside, V, h, tol)
            attempts.append((V, h, h_step))
            return h_step, step

        monkeypatch.setattr(sim, "_taylor_step", taylor_step)
        n_steps = 0
        for z0 in samples[::16]:
            traj = integrate(field, z0, (0.0, T_VAL), rtol=rtol, atol=atol)
            assert traj.stats.n_rejected == 0
            assert traj.stats.n_linear_steps == traj.stats.n_steps > 0
            n_steps += traj.stats.n_steps
        assert len(attempts) == n_steps
        for V, h, h_step in attempts:
            assert h_step == min(h, reach(V, rtol, atol))

    def test_retry_keeps_the_block(self, monkeypatch):
        """Only a state whose controls are unsaturated, ‖F z‖∞ ≤ 1, takes
        Taylor attempts, and the Krylov block depends on z alone.  So a run
        builds one block at each accepted state with ‖F z‖∞ ≤ 1 that
        attempts start from, in order, however many of them are rejected:
        the saturating run takes more Taylor attempts than it builds
        blocks, and builds none at its saturated states."""
        blocks, n_attempts = [], []

        def krylov(L, z, k1):
            blocks.append(z)
            return _krylov(L, z, k1)

        def taylor_step(inside, V, h, tol):
            n_attempts.append(h)
            return _taylor_step(inside, V, h, tol)

        monkeypatch.setattr(sim, "_krylov", krylov)
        monkeypatch.setattr(sim, "_taylor_step", taylor_step)
        model = triple_integrator()
        field = ClosedLoopField(model, chain_net(3),
                                ProtocolKind(epsilon=0.5))
        F = field.F
        z0 = np.random.default_rng(1).uniform(-4.0, 4.0, field.layout.dim)
        traj = integrate(field, z0, (0.0, 20.0), rtol=1e-6, atol=1e-8)
        starts = traj.states[:-1]
        unsaturated = [np.abs(F @ z).max() <= 1.0 for z in starts]
        assert traj.stats.n_rejected > 0
        assert 0 < len(blocks) < traj.stats.n_steps
        assert len(n_attempts) > len(blocks)
        np.testing.assert_array_equal(blocks, starts[unsaturated])

    def test_kernel_holds_no_power_of_L(self):
        """A dim-256 field whose steps are all linear: z(T) matches
        expm(T L) z0, and by tracemalloc the run allocates less than one
        dim² array.  The kernel builds its block from p products with L and
        holds O(dim) doubles besides the field's own L, where a stack
        [L; …; Lᵖ] would take 8 MiB."""
        import tracemalloc

        rng = np.random.default_rng(5)
        dim = 256
        L = rng.standard_normal((dim, dim)) / np.sqrt(dim) - 2 * np.eye(dim)
        z0 = rng.standard_normal(dim)
        field = LinearField(L)
        tracemalloc.start()
        try:
            traj = integrate(field, z0, (0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.stats.n_linear_steps == traj.stats.n_steps > 0
        np.testing.assert_allclose(traj.states[-1], sla.expm(L) @ z0, rtol=0,
                                   atol=1e-7 * np.abs(z0).max())
        assert peak < 8 * dim**2


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

    def test_error_series_rescales_where_the_squares_overflow(self, rng):
        """A row whose squares of x_i − x_r overflow reads as the norm of
        the difference scaled by its largest magnitude; a difference that
        overflows or holds inf reads as inf, and no warning escapes.  The
        other rows keep their bits in a stack with such rows."""
        layout = StateLayout(3, 2, partial=False)
        plain = rng.standard_normal((4, layout.dim))
        huge = np.zeros((3, layout.dim))
        huge[0, 0] = 1.5e308  # the squares overflow, ‖x_1 − x_r‖ does not
        huge[1, :2] = 1.5e308  # ‖x_1 − x_r‖ = 2.1e308 > the largest float
        huge[2, 0], huge[2, 6] = 1.5e308, -1.5e308  # x_1 − x_r overflows
        states = np.vstack((plain, 1e200 * plain, huge))
        traj = _make_traj(np.arange(len(states), dtype=float), states,
                          layout=layout)
        errors = sync_error_series(traj)
        expected = sync_error_series(_make_traj(np.arange(4.0), plain,
                                                layout=layout))
        np.testing.assert_array_equal(errors[:4], expected)
        np.testing.assert_allclose(errors[4:8], 1e200 * expected, rtol=1e-14)
        assert errors[8] == 1.5e308
        np.testing.assert_array_equal(errors[9:], np.inf)

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

    def test_max_control_reads_the_check_points(self):
        """max_control_inf_norm is the larger of the recorded controls' peak
        and the Taylor kernel's check-point peak."""
        layout = StateLayout(1, 1, partial=False)
        controls = np.array([[[0.5]], [[-0.25]]])
        traj = _make_traj([0.0, 1.0], np.zeros((2, 3)), controls, layout)
        assert sync_metrics(traj, 1e-2).max_control_inf_norm == 0.5
        traj.check_control_peak = 0.75
        assert sync_metrics(traj, 1e-2).max_control_inf_norm == 0.75
