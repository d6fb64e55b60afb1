import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import integrator_chain, random_admissible_model
from satsync import (
    AgentModel,
    design_observer_gain,
    is_hurwitz,
    solve_lowgain_are,
    solve_scheduled_are,
)
from satsync.riccati import (
    PSD_TOL,
    ParameterError,
    RiccatiError,
    residual_tolerance,
)


def scheduled_residual(model, P, rho):
    G = model.B @ model.B.T
    return np.linalg.norm(
        model.A.T @ P + P @ model.A - P @ G @ P + rho * P, 2
    )


def lowgain_residual(model, P, eps):
    G = model.B @ model.B.T
    return np.linalg.norm(
        model.A.T @ P + P @ model.A - P @ G @ P + eps * np.eye(model.n), 2
    )


def newton_oracle(A, G, Q, P0, iters=60):
    """Independent Kleinman iteration from a stabilizing initializer."""
    P = P0
    for _ in range(iters):
        Acl = A - G @ P
        P = sla.solve_continuous_lyapunov(Acl.T, -(Q + P @ G @ P))
        P = (P + P.T) / 2
    return P


class TestIsHurwitz:
    def test_negative_scalar(self):
        assert is_hurwitz([[-1.0]])

    def test_nilpotent(self):
        assert not is_hurwitz([[0.0, 1.0], [0.0, 0.0]])

    def test_damped_oscillator(self):
        # roots of s^2 + s + 1
        assert is_hurwitz([[0.0, 1.0], [-1.0, -1.0]])


class TestScheduledAre:
    def test_scalar_closed_form(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        sol = solve_scheduled_are(model, 0.5)
        assert sol.P[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_scalar_stable_gives_zero(self):
        model = AgentModel([[-1.0]], [[1.0]], [[1.0]])
        sol = solve_scheduled_are(model, 0.5)
        assert sol.P[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_double_integrator_certificates(self):
        model = AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        sol = solve_scheduled_are(model, 1.0)
        assert sol.residual_norm < 1e-9
        assert np.linalg.eigvalsh(sol.P).min() > 0
        assert is_hurwitz(model.A + 0.5 * np.eye(2) - model.B @ model.B.T @ sol.P)
        # independent oracle: Newton iteration from a stabilizing initializer
        As = model.A + 0.5 * np.eye(2)
        G = model.B @ model.B.T
        P0 = sol.P + 0.1 * np.eye(2)
        P_oracle = newton_oracle(As, G, np.zeros((2, 2)), P0)
        np.testing.assert_allclose(sol.P, P_oracle, atol=1e-9)

    def test_parameter_range(self, triple):
        with pytest.raises(ParameterError):
            solve_scheduled_are(triple, 0.0)
        with pytest.raises(ParameterError):
            solve_scheduled_are(triple, 1.5)

    def test_monotone_in_rho(self):
        for n in (1, 2, 3, 4):
            model = integrator_chain(n)
            grid = np.linspace(0.05, 1.0, 10)
            sols = [solve_scheduled_are(model, r).P for r in grid]
            for P_lo, P_hi in zip(sols, sols[1:]):
                assert np.linalg.eigvalsh(P_hi - P_lo).min() >= -1e-8

    def test_norm_vanishes_as_rho_to_zero(self):
        for n in (2, 3, 4):
            model = integrator_chain(n)
            P1 = solve_scheduled_are(model, 1.0).P
            P_small = solve_scheduled_are(model, 2.0**-20).P
            assert np.linalg.norm(P_small, 2) < 1e-3 * np.linalg.norm(P1, 2)

    def test_eigenvalue_at_minus_half_rho_has_no_solution(self):
        # A + (ρ/2)I = diag(1/4, 0) is singular at ρ = 1/2: the Hamiltonian
        # has a double eigenvalue at 0, so no stabilizing solution exists
        model = AgentModel([[0.0, 0.0], [0.0, -0.25]], [[1.0], [1.0]],
                           [[1.0, 0.0]])
        with pytest.raises(RiccatiError, match="dimension 1, expected 2"):
            solve_scheduled_are(model, 0.5)
        assert solve_scheduled_are(model, 1.0).closed_loop_stable

    def test_random_models_certified(self, rng):
        for _ in range(15):
            model = random_admissible_model(rng, n_max=6)
            rho = float(rng.uniform(0.01, 1.0))
            sol = solve_scheduled_are(model, rho)
            assert scheduled_residual(model, sol.P, rho) <= residual_tolerance(sol.P)
            assert np.linalg.eigvalsh(sol.P).min() >= -1e-8
            assert sol.closed_loop_stable


class TestLowgainAre:
    def test_scalar_closed_form(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        sol = solve_lowgain_are(model, 0.25)
        assert sol.P[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_scalar_unit(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        sol = solve_lowgain_are(model, 1.0)
        assert sol.P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_triple_integrator_certificates(self, triple):
        sol = solve_lowgain_are(triple, 0.01)
        assert sol.residual_norm < 1e-9
        assert np.linalg.eigvalsh(sol.P).min() > 0
        assert is_hurwitz(triple.A - triple.B @ triple.B.T @ sol.P)

    def test_norm_monotone_and_vanishing(self, triple):
        norms = [
            np.linalg.norm(solve_lowgain_are(triple, 2.0**-k).P, 2)
            for k in range(0, 21, 2)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        # decay rate in ε is slow for an integrator chain; 2^-20 gives ~2.6%
        assert norms[-1] < 5e-2 * norms[0]

    def test_random_models_certified(self, rng):
        for _ in range(15):
            model = random_admissible_model(rng, n_max=6)
            eps = float(rng.uniform(0.01, 1.0))
            sol = solve_lowgain_are(model, eps)
            assert lowgain_residual(model, sol.P, eps) <= residual_tolerance(sol.P)
            assert np.linalg.eigvalsh(sol.P).min() >= -1e-8
            assert sol.closed_loop_stable


class TestObserverGain:
    def test_scalar_closed_form(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        K = design_observer_gain(model)
        assert K[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert not K.flags.writeable

    def test_stable_scalar(self):
        model = AgentModel([[-1.0]], [[1.0]], [[1.0]])
        K = design_observer_gain(model)
        assert K[0, 0] >= 0
        assert is_hurwitz(model.A - K @ model.C)

    def test_triple_integrator(self, triple):
        K = design_observer_gain(triple)
        eigs = np.linalg.eigvals(triple.A - K @ triple.C)
        assert eigs.real.max() < -1e-3

    def test_duality_with_state_feedback(self, triple):
        # the observer design equation is the unit-weight state-feedback ARE
        # of the transposed pair, so the gains must agree
        dual = AgentModel(triple.A.T, triple.C.T, triple.B.T)
        P_dual = solve_lowgain_are(dual, 1.0).P
        K = design_observer_gain(triple)
        np.testing.assert_allclose(K, P_dual @ triple.C.T, atol=1e-9)


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), log2_rho=st.floats(-20.0, 0.0),
       log2_eps=st.floats(-20.0, 0.0))
@example(seed=0, log2_rho=-20.0, log2_eps=-20.0)
def test_are_certificates_on_random_admissible_models(seed, log2_rho, log2_eps):
    """On an admissible model with n ≤ 6 and ρ, ε in [2⁻²⁰, 1], both AREs
    return a P within the residual tolerance, PSD to PSD_TOL, with a Hurwitz
    closed loop; each certificate is recomputed here, not read back."""
    model = random_admissible_model(np.random.default_rng(seed), n_max=6)
    rho, eps = 2.0**log2_rho, 2.0**log2_eps
    G = model.B @ model.B.T
    P = solve_scheduled_are(model, rho).P
    assert scheduled_residual(model, P, rho) <= residual_tolerance(P)
    assert np.linalg.eigvalsh(P).min() >= -PSD_TOL
    # the scheduled closed loop is Hurwitz with margin ρ/2
    assert is_hurwitz(model.A + (rho / 2) * np.eye(model.n) - G @ P)
    P = solve_lowgain_are(model, eps).P
    assert lowgain_residual(model, P, eps) <= residual_tolerance(P)
    assert np.linalg.eigvalsh(P).min() >= -PSD_TOL
    assert is_hurwitz(model.A - G @ P)
