"""End-to-end acceptance checks for the whole toolkit.

Each test covers one acceptance criterion and reports a single pass/fail
line (printed in the terminal summary) at the stated tolerances.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg as sla

import conftest
from conftest import integrator_chain, random_admissible_model
from satsync import (
    AgentModel,
    CompactSetSpec,
    Network,
    PCache,
    ProtocolKind,
    bundled_scenario,
    design_observer_gain,
    expanded_laplacian,
    global_full,
    global_partial,
    in_rooted_family,
    integrate,
    laplacian,
    random_rooted_network,
    reproduce,
    run_protocol,
    saturation_events,
    select_semiglobal_epsilon,
    solve_lowgain_are,
    solve_scheduled_are,
    target_dynamics_stable,
    triple_integrator,
    write_trajectory_csv,
)
from satsync.cli_io import Scenario
from satsync.protocols import ClosedLoopField
from satsync.riccati import residual_tolerance
from satsync.scheduling import RHO_MIN, SelectionError


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append(
            f"criterion {num} ({description}): FAIL"
        )
        raise
    conftest.ACCEPTANCE_RESULTS.append(
        f"criterion {num} ({description}): PASS"
    )


def make_scenario(model, net, x0, xr0, coupling="full"):
    N, n = net.N, model.n
    return Scenario(
        model=model,
        net=net,
        x0=np.asarray(x0, dtype=float).reshape(N, n),
        xr0=np.asarray(xr0, dtype=float).reshape(n),
        chi0=np.zeros((N, n)),
        xhat0=np.zeros((N, n)),
        coupling=coupling,
    )


def test_criterion_1_example_reproduction(tmp_path):
    with criterion(1, "example reproduction, 3 cases, err<1e-2 at T=50"):
        for case in (1, 2, 3):
            start = time.perf_counter()
            report = reproduce(case, tmp_path / f"case{case}")
            elapsed = time.perf_counter() - start
            assert report.protocol == "global-partial"  # one fixed config
            assert report.final_sync_error < 1e-2, f"case {case}"
            assert elapsed < 60.0, f"case {case} took {elapsed:.1f}s"


def test_criterion_2_are_certificates(rng):
    with criterion(2, "ARE certificates on 50 random models + closed forms"):
        scalar = AgentModel([[0.0]], [[1.0]], [[1.0]])
        for rho in (0.25, 0.5, 1.0):
            assert abs(solve_scheduled_are(scalar, rho).P[0, 0] - rho) < 1e-12
        for eps in (0.25, 0.5, 1.0):
            assert abs(
                solve_lowgain_are(scalar, eps).P[0, 0] - np.sqrt(eps)
            ) < 1e-12
        for _ in range(50):
            model = random_admissible_model(rng, n_max=6, io_max=2)
            for solve, shift in (
                (solve_scheduled_are, True),
                (solve_lowgain_are, False),
            ):
                param = float(rng.uniform(0.01, 1.0))
                sol = solve(model, param)
                assert sol.residual_norm <= residual_tolerance(sol.P)
                assert np.linalg.eigvalsh(sol.P).min() >= -1e-8
                Acl = model.A - model.B @ model.B.T @ sol.P
                if shift:
                    Acl = Acl + (param / 2) * np.eye(model.n)
                assert np.linalg.eigvals(Acl).real.max() < -1e-9


def test_criterion_3_monotonicity():
    with criterion(3, "P_rho monotone on integrator chains, vanishing norm"):
        for n in (1, 2, 3, 4):
            model = integrator_chain(n)
            grid = np.linspace(0.1, 1.0, 10)
            sols = [solve_scheduled_are(model, r).P for r in grid]
            for P_lo, P_hi in zip(sols, sols[1:]):
                assert np.linalg.eigvalsh(P_hi - P_lo).min() >= -1e-8
            P_small = solve_scheduled_are(model, RHO_MIN).P
            assert np.linalg.norm(P_small, 2) < 1e-3 * np.linalg.norm(
                sols[-1], 2
            )


def test_criterion_4_no_saturation_under_scheduling(rng):
    with criterion(4, "scheduled protocols never saturate, eps >= 2^-20"):
        model = triple_integrator()
        cache = PCache(model)
        gain = design_observer_gain(model)
        kinds = (global_full(model, cache), global_partial(model, cache, gain))
        for _ in range(20):
            N = int(rng.integers(2, 9))
            net = random_rooted_network(rng, N)
            x0 = rng.uniform(-10, 10, size=(N, 3))
            xr0 = rng.uniform(-10, 10, size=3)
            kind = kinds[int(rng.integers(2))]
            scenario = make_scenario(model, net, x0, xr0,
                                     coupling=kind.coupling)
            traj, _ = run_protocol(
                scenario, kind, t_final=5.0, rtol=1e-6, atol=1e-8
            )
            assert saturation_events(traj) == []
            assert traj.realized_epsilon.min() >= RHO_MIN


def test_criterion_5_transformed_dynamics_oracle(rng):
    with criterion(5, "error dynamics match linear oracles to 1e-6 on [0,10]"):
        model = triple_integrator()
        cache = PCache(model)
        gain = design_observer_gain(model)
        n = model.n
        for N in (2, 3, 4):
            net = random_rooted_network(rng, N)
            Ltilde = laplacian(net) + np.diag(net.indicator)
            # small boxes keep the schedule constant, so the extracted error
            # dynamics are integrated on a smooth field
            x0 = rng.uniform(-0.1, 0.1, size=(N, n))
            xr0 = rng.uniform(-0.1, 0.1, size=n)
            scenario = make_scenario(model, net, x0, xr0)

            # full coupling: e = (x - x_r) - chi obeys (I⊗A - L̃⊗I)e
            kind = global_full(model, cache)
            traj, _ = run_protocol(
                scenario, kind, t_final=10.0, rtol=1e-10, atol=1e-12
            )
            M = np.kron(np.eye(N), model.A) - np.kron(Ltilde, np.eye(n))
            e_series = np.array(
                [
                    ((lambda s: (s[0] - s[1][None, :]) - s[2])(
                        traj.layout.split(z)
                    )).reshape(-1)
                    for z in traj.states
                ]
            )
            worst = 0.0
            for t, e in zip(traj.times, e_series):
                oracle = sla.expm(t * M) @ e_series[0]
                worst = max(worst, np.abs(e - oracle).max())
            assert worst < 1e-6, f"full coupling, N={N}: {worst:.2e}"

            # partial coupling: ebar = (L̃⊗I)(x - x_r) - xhat obeys I⊗(A-KC)
            kind = global_partial(model, cache, gain)
            scenario_p = make_scenario(model, net, x0, xr0, coupling="partial")
            traj, _ = run_protocol(
                scenario_p, kind, t_final=10.0, rtol=1e-10, atol=1e-12
            )
            Mbar = np.kron(np.eye(N), model.A - gain @ model.C)
            ebar_series = []
            for z in traj.states:
                x, x_r, _, xhat = traj.layout.split(z)
                ebar_series.append(
                    (Ltilde @ (x - x_r[None, :]) - xhat).reshape(-1)
                )
            ebar_series = np.array(ebar_series)
            worst = 0.0
            for t, ebar in zip(traj.times, ebar_series):
                oracle = sla.expm(t * Mbar) @ ebar_series[0]
                worst = max(worst, np.abs(ebar - oracle).max())
            assert worst < 1e-6, f"partial coupling, N={N}: {worst:.2e}"


def test_criterion_6_expanded_laplacian_spectrum(rng, triple):
    with criterion(6, "rooted digraph spectra in open RHP, target stable"):
        for _ in range(100):
            net = random_rooted_network(rng, int(rng.integers(2, 11)))
            assert in_rooted_family(net)
            el = expanded_laplacian(net)
            assert el.spectrum.real.min() > 1e-9
            assert target_dynamics_stable(net, triple)


def test_criterion_7_semiglobal_selection():
    # The semi-global result is asymptotic: it gives an eps* for the box but
    # no error bound at a fixed time, and the low-gain loop slows as eps
    # shrinks.  While every |u| < 1 the closed loop is linear and matches the
    # saturated one, so a margin violation found on the linear flow (expm,
    # dt = 0.02, all 257 samples) is exact.  On this box the largest grid eps
    # keeping max|u| <= 0.95 is 2^-28 (max|u| = 0.921; 2^-27 gives 1.031).
    # There the slowest pole of A - BB'P_eps is -0.0197, a time constant of
    # 50.8 s, and the worst vertex first stays below 1e-2 at t ~ 663 s
    # (746 s at 2^-29).  So no eps validates at T_VAL = 50, and the search is
    # run at T = 800: about 2.7 time constants past 663 s, while longer
    # horizons cost wall time and raise the RK45 error floor of the
    # re-simulation (x_r has constant acceleration, so states grow like t^2).
    horizon = 800.0
    with criterion(
        7, f"semi-global eps* validated on half-width-5 boxes, T={horizon:g}"
    ):
        start = time.perf_counter()
        model = triple_integrator()
        adj = np.zeros((3, 3))
        adj[1, 0] = adj[2, 1] = 1.0
        net = Network(adjacency=adj, root_set=frozenset([0]))
        sets = CompactSetSpec(agent=5.0, exo=5.0, protocol=5.0)

        # the default horizon T_VAL cannot be met on this box
        with pytest.raises(SelectionError) as excinfo:
            select_semiglobal_epsilon(model, net, sets, "full")
        assert len(excinfo.value.trials) == 31

        report = select_semiglobal_epsilon(
            model, net, sets, "full", horizon=horizon
        )
        eps_star = report.epsilon_star
        assert eps_star == 2.0**-28

        # re-simulate at twice the validation horizon from every vertex
        from satsync.scheduling import sample_box_vertices
        from satsync import sync_metrics

        kind = ProtocolKind(epsilon=eps_star)
        field = ClosedLoopField(model, net, kind)
        for z0 in sample_box_vertices(sets.halfwidths(field.layout)):
            traj = integrate(
                field, z0, (0.0, 2 * report.horizon), rtol=1e-6, atol=1e-8
            )
            assert np.abs(traj.controls).max() <= 1.0 - 0.05
            metrics = sync_metrics(traj, 1e-2)
            assert metrics.error_series[-1] < 1e-2
        assert time.perf_counter() - start < 300.0


def test_criterion_8_integrator_order_and_determinism(tmp_path):
    with criterion(8, "rk4 order ratio 16±20%, byte-identical reruns"):
        def logistic(t, z):
            return z * (1.0 - z)

        exact = 1.0 / (1.0 + 9.0 * np.exp(-2.0))

        def err(dt):
            traj = integrate(logistic, [0.1], (0.0, 2.0), dt=dt)
            return abs(traj.states[-1, 0] - exact)

        ratio = err(0.02) / err(0.01)
        assert ratio == pytest.approx(16.0, rel=0.2)

        scenario = bundled_scenario(3)
        kind = global_partial(scenario.model)
        paths = []
        for tag in ("a", "b"):
            traj, _ = run_protocol(
                scenario, kind, t_final=2.0, rtol=1e-6, atol=1e-8
            )
            path = tmp_path / f"run_{tag}.csv"
            write_trajectory_csv(traj, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
