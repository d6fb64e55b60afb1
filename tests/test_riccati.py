import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SKEWED_DOUBLE_INTEGRATOR,
    integrator_chain,
    random_admissible_model,
    random_axis_spectrum_model,
)
import satsync
from satsync import (
    AgentModel,
    PCache,
    design_observer_gain,
    is_hurwitz,
    riccati,
    solve_lowgain_are,
    solve_scheduled_are,
    triple_integrator,
)
from satsync.riccati import (
    PSD_TOL,
    ParameterError,
    RiccatiError,
    _care_schur,
    _certify,
    residual_tolerance,
    scheduled_lyapunov,
)
from satsync.scheduling import OCTAVE, lattice_rho


def scheduled_residual(model, P, rho):
    G = model.B @ model.B.T
    return np.linalg.norm(
        model.A.T @ P + P @ model.A - P @ G @ P + rho * P, 2
    )


def assert_scheduled_certificates(model, P, rho):
    """Residual, PSD and Hurwitz certificates, recomputed independently."""
    G = model.B @ model.B.T
    assert scheduled_residual(model, P, rho) <= residual_tolerance(P)
    assert np.linalg.eigvalsh(P).min() >= -PSD_TOL
    # the scheduled closed loop is Hurwitz with margin ρ/2
    assert is_hurwitz(model.A + (rho / 2) * np.eye(model.n) - G @ P)


def hamiltonian_reference(model, rho):
    """The certified Hamiltonian-Schur P_ρ, or None where it does not certify."""
    A = model.A + (rho / 2) * np.eye(model.n)
    G = model.B @ model.B.T
    Q = np.zeros_like(A)
    try:
        return _certify(A, G, Q, _care_schur(A, G, Q), "scheduled", rho).P
    except RiccatiError:
        return None


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

    def test_unseparable_hamiltonian_raises_riccati_error(self):
        # LAPACK's "could not be separated for reordering" is a RiccatiError
        model = AgentModel(**SKEWED_DOUBLE_INTEGRATOR)
        rho = 2.0**-20
        try:
            P = solve_scheduled_are(model, rho).P
        except RiccatiError:
            return
        assert_scheduled_certificates(model, P, rho)

    def test_triple_integrator_takes_the_lyapunov_path(self, triple,
                                                       monkeypatch):
        # a silent fallback to the Hamiltonian solve would lose the fast
        # path: each octave's rows certify in one stack, octave 20 whole
        # (ρ down to 2⁻²⁰), and a stack of one gives the same bits
        A, G = triple.A, triple.B @ triple.B.T
        Q = np.zeros((3, 3))
        stacks = [lattice_rho(np.arange(k * OCTAVE, (k + 1) * OCTAVE,
                                        1 if k == 20 else 31))
                  for k in range(1, 21)] + [np.array([1.0])]
        reference = [[_care_schur(A + (rho / 2) * np.eye(3), G, Q)
                      for rho in stack] for stack in stacks]

        def no_hamiltonian(*args):
            raise AssertionError("Hamiltonian solve called")

        monkeypatch.setattr(riccati, "_care_schur", no_hamiltonian)
        for stack, refs in zip(stacks, reference):
            P, _, certified = scheduled_lyapunov(triple, stack)
            assert certified.all()
            for rho, P_row, P_ref in zip(stack, P, refs):
                # both are round-off away from a 40-digit reference: on
                # octaves 1, 10 and 20 the stacked P is within 2.6e-15 of
                # it, the Hamiltonian one within 6.9e-16
                assert (np.linalg.norm(P_row - P_ref)
                        <= 1e-14 * np.linalg.norm(P_ref))
            for rho, P_row in zip(stack[::8], P[::8]):
                np.testing.assert_array_equal(
                    solve_scheduled_are(triple, float(rho)).P, P_row)

    def test_stacked_rows_with_complex_schur_blocks(self):
        # three 2×2 Schur blocks (rotations on the axis): each stacked row
        # that certifies has the bits of its stack of one and agrees with
        # the Hamiltonian solve
        model = random_axis_spectrum_model(np.random.default_rng(0))
        T, _ = model.schur
        assert (np.diagonal(T, -1) != 0).sum() == 3
        rho = lattice_rho(np.arange(3 * OCTAVE, 4 * OCTAVE))
        P, _, certified = scheduled_lyapunov(model, rho)
        assert certified.sum() > OCTAVE // 2
        G, Q = model.B @ model.B.T, np.zeros((model.n, model.n))
        for r, P_row in zip(rho[certified][::64], P[::64]):
            np.testing.assert_array_equal(
                scheduled_lyapunov(model, np.array([r]))[0][0], P_row)
            P_ref = _care_schur(model.A + (r / 2) * np.eye(model.n), G, Q)
            assert (np.linalg.norm(P_row - P_ref)
                    <= 1e-6 * np.linalg.norm(P_ref))

    def test_rows_failing_gate_i_reach_no_solve(self, monkeypatch):
        # a stable mode at −0.3 fails gate (i) in rows j ≤ 204 of octave 1:
        # they are dropped before the linear solves, the rest certify
        model = AgentModel([[0.0, 0.0], [0.0, -0.3]], [[1.0], [1.0]],
                           [[1.0, 0.0]])
        rows, solve = [], np.linalg.solve

        def counting(K, b):
            # numpy 1.x reads a right-hand side of ndim K.ndim − 1 as a
            # stack of vectors, numpy 2 as one matrix
            assert b.ndim == K.ndim
            rows.append(len(K))
            return solve(K, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        rho = lattice_rho(np.arange(OCTAVE, 2 * OCTAVE))
        _, _, certified = scheduled_lyapunov(model, rho)
        monkeypatch.undo()
        assert rows == [OCTAVE - 205] * 2  # one solve per 1×1 Schur block
        assert not certified[:205].any() and certified[205:].all()

    @pytest.mark.parametrize("n, k", [(8, 5), (10, 1)])
    def test_octave_stack_memory_grows_as_n_squared(self, n, k):
        # a stack of r = 1,024 rows holds a few (r, n, n) arrays at a time,
        # never an n²×n² system per row (which would be 1,024·n⁴ doubles)
        model = integrator_chain(n)
        rho = lattice_rho(np.arange(k * OCTAVE, (k + 1) * OCTAVE))
        scheduled_lyapunov(model, rho[:1])  # the Schur form, computed once
        tracemalloc.start()
        try:
            scheduled_lyapunov(model, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * rho.size * n * n * 8

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


class TestAdmissibility:
    """Both solvers, and so a PCache build, refuse an inadmissible model;
    a model's admissibility is checked once."""

    @pytest.mark.parametrize("solve", [
        lambda model: solve_scheduled_are(model, 0.5),
        lambda model: solve_lowgain_are(model, 0.5),
        PCache,
    ])
    def test_inadmissible_model_raises(self, solve):
        # A = 1 lies in the open right half plane, yet both AREs have a
        # certified stabilizing solution for it
        model = AgentModel([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(RiccatiError, match="model fails admissibility"):
            solve(model)

    def test_checked_once_per_model(self, monkeypatch):
        calls, check = [], satsync.model.check_assumption

        def counting(model):
            calls.append(model)
            return check(model)

        monkeypatch.setattr(satsync.model, "check_assumption", counting)
        model = triple_integrator()
        cache = PCache(model)
        for rho in np.linspace(0.01, 1.0, 100):
            cache.solution(float(rho))
        solve_lowgain_are(model, 1.0)
        solve_lowgain_are(model, 0.25)
        assert len(calls) == 1 and calls[0] is model


class TestStacked:
    @pytest.mark.parametrize("fn, bad, rhs", [
        (np.linalg.cholesky, -np.eye(3), ()),  # not positive definite
        (np.linalg.solve, np.zeros((3, 3)), (np.ones((6, 3, 1)),)),  # singular
    ])
    def test_mixed_stack_keeps_the_rows_that_pass(self, fn, bad, rhs):
        # rows 1 and 4 fail: the mask marks the rest, and each kept row has
        # the bits of its stack of one
        M = np.random.default_rng(0).standard_normal((6, 3, 3))
        X = M @ np.swapaxes(M, -1, -2) + 3 * np.eye(3)
        X[[1, 4]] = bad
        args = (X, *rhs)
        out, ok = riccati._stacked(fn, *args)
        assert ok.tolist() == [True, False, True, True, False, True]
        assert len(out) == 4
        for row, i in zip(out, np.flatnonzero(ok)):
            np.testing.assert_array_equal(
                row, fn(*(x[i:i + 1] for x in args))[0])


class TestCertify:
    # scheduled ARE of A = 0, B = 1 at ρ = 1: 2·(1/2)·P − P² = 0, solved by
    # P = 1 (closed loop −1/2) and by P = 0 (closed loop +1/2)
    A, G, Q = np.array([[0.5]]), np.array([[1.0]]), np.zeros((1, 1))

    @pytest.mark.parametrize("P, match", [
        (-1.0, "not positive semidefinite"),
        (0.5, "residual .* exceeds tolerance"),
        (0.0, "closed loop not Hurwitz"),
    ])
    def test_failed_certificate_raises(self, P, match):
        with pytest.raises(RiccatiError, match=match):
            _certify(self.A, self.G, self.Q, np.array([[P]]), "scheduled", 1.0)


class TestObserverGain:
    def test_undetectable_pair_raises(self):
        # the mode at 0 is invisible through C = 0
        model = AgentModel([[0.0]], [[1.0]], [[0.0]])
        with pytest.raises(RiccatiError, match="not detectable"):
            design_observer_gain(model)

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
    assert_scheduled_certificates(model, solve_scheduled_are(model, rho).P, rho)
    P = solve_lowgain_are(model, eps).P
    assert lowgain_residual(model, P, eps) <= residual_tolerance(P)
    assert np.linalg.eigvalsh(P).min() >= -PSD_TOL
    assert is_hurwitz(model.A - G @ P)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), log2_rho=st.floats(-20.0, 0.0))
@example(seed=0, log2_rho=-20.0)
@example(seed=55, log2_rho=-19.684209788723443)  # Hamiltonian cannot reorder
# the Lyapunov P, 3e-6 off the Hamiltonian one, fails the absolute tolerance
@example(seed=0, log2_rho=-12.0)
@example(seed=1, log2_rho=-19.0)  # gate (iii) alone rejects a P 7.7e-4 off
def test_scheduled_are_on_axis_spectrum_models(seed, log2_rho):
    """With the whole spectrum of A on the axis, A + (ρ/2)I is antistable and
    the Lyapunov path is tried.  Every returned P is certified; wherever the
    Hamiltonian solve certifies, a P is returned; where the Lyapunov path
    was taken, the two agree."""
    model = random_axis_spectrum_model(np.random.default_rng(seed))
    rho = 2.0**log2_rho
    reference = hamiltonian_reference(model, rho)
    try:
        P = solve_scheduled_are(model, rho).P
    except RiccatiError:
        assert reference is None
        return
    assert_scheduled_certificates(model, P, rho)
    fast, _, certified = scheduled_lyapunov(model, np.array([rho]))
    if certified[0]:
        # the Lyapunov path was taken: its stack of one is the result
        np.testing.assert_array_equal(P, fast[0])
    if certified[0] and reference is not None:
        # the problem's conditioning, not either solver, sets the gap: up to
        # about 1e-8 relative on these models, each P about 5e-9 from a
        # 60-digit reference there
        assert np.linalg.norm(P - reference) <= 1e-6 * np.linalg.norm(reference)
