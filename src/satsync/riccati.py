"""Stabilizing ARE solutions, observer gain design, and Hurwitz testing.

Two continuous AREs are used downstream:

  scheduled:  AᵀP + PA - PBBᵀP + ρP = 0,   ρ ∈ (0,1]
  lowgain:    AᵀP + PA - PBBᵀP + εI = 0,   ε ∈ (0,1]

The scheduled equation reduces exactly to a zero-state-weight standard ARE
for the shifted matrix A_s = A + (ρ/2)I.  With no state weight its solution
is P_ρ = W⁻¹, where W solves the Lyapunov equation A_sW + WA_sᵀ = BBᵀ,
whenever A_s is antistable (Zhou, Duan & Lin, IEEE TAC 2008): then A_s - BBᵀP
= -WA_sᵀW⁻¹ has spectrum -spec(A_s).  So the scheduled ARE is solved first on
the model's cached real Schur form A = UTUᵀ: one triangular Sylvester solve
for T + (ρ/2)I, a Cholesky factor W = ULLᵀUᵀ and P = UL⁻ᵀL⁻¹Uᵀ.  That P is
kept only when

  (i)   min Re λ(A) + ρ/2 > HURWITZ_TOL, read off the Schur diagonal;
  (ii)  the Sylvester solve needs no perturbation and the Cholesky
        factorization succeeds;
  (iii) it passes the certificates every returned P passes, with the
        residual bound tightened to rounding level relative to the terms,
        ‖R‖_F ≤ 512·ε_mach·(2‖A_sᵀP‖_F + ‖PBBᵀP‖_F), which the absolute
        tolerance below does not enforce when ‖P‖ ≪ 1.

Otherwise, and for the low-gain ARE, the equation is solved cold by the
Hamiltonian stable-invariant-subspace (Schur) method.  Every returned P
carries its certificates: the Frobenius norm of the residual (never below
its 2-norm) within 1e-9·(1 + ‖P‖₂²), P PSD to PSD_TOL, and a Hurwitz closed
loop.  The observer gain comes from the unit-weight low-gain ARE of the dual
pair (Aᵀ, Cᵀ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .model import AgentModel, check_assumption

HURWITZ_TOL = 1e-9
PSD_TOL = 1e-8
# gate (iii): a Lyapunov P must meet the ARE to this multiple of its terms
ROUNDING_RTOL = 512 * np.finfo(float).eps


class RiccatiError(RuntimeError):
    pass


class ParameterError(ValueError):
    pass


def is_hurwitz(M) -> bool:
    """True iff every eigenvalue of M has real part < -1e-9."""
    M = np.asarray(M, dtype=float)
    return bool(np.linalg.eigvals(M).real.max() < -HURWITZ_TOL)


def residual_tolerance(P: np.ndarray) -> float:
    """Acceptable ARE residual: 1e-9·(1 + ‖P‖₂²)."""
    return _tolerance_for_norm(np.linalg.norm(P, 2))


def _tolerance_for_norm(p_norm: float) -> float:
    return 1e-9 * (1.0 + p_norm**2)


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing solution of one of the two AREs, with certificates."""

    P: np.ndarray
    kind: str  # "scheduled" or "lowgain"
    parameter: float  # ρ or ε
    residual_norm: float  # Frobenius norm of the ARE residual
    closed_loop_stable: bool


def _care_schur(A, G, Q):
    """Stabilizing solution of AᵀP + PA - PGP + Q = 0 via Hamiltonian Schur."""
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = -G
    H[n:, :n] = -Q
    H[n:, n:] = -A.T
    try:
        _, Z, sdim = sla.schur(H, sort=lambda x: x.real < 0.0)
    except np.linalg.LinAlgError as exc:
        # LAPACK could not reorder close eigenvalues across the axis
        raise RiccatiError(f"Hamiltonian Schur form failed: {exc}") from exc
    if sdim != n:
        raise RiccatiError(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    cond = np.linalg.cond(U1)
    if not np.isfinite(cond) or cond > 1e13:
        raise RiccatiError(f"subspace extraction ill-conditioned (cond={cond:.2e})")
    P = np.linalg.solve(U1.T, U2.T).T
    return (P + P.T) / 2


def _care_lyapunov(G, T, U):
    """Stabilizing solution of AᵀP + PA - PGP = 0 as P = W⁻¹, AW + WAᵀ = G,
    from the real Schur form A = UTUᵀ; None unless gates (i)-(ii) of the
    module docstring hold.  `_certify` with rounding applies gate (iii)."""
    if T.diagonal().min() <= HURWITZ_TOL:
        return None
    X, scale, info = lapack.dtrsyl(T, T, U.T @ G @ U, tranb="T")
    if info != 0:
        return None
    L, info = lapack.dpotrf(X / scale, lower=1)
    if info != 0:
        return None
    M = lapack.dtrtri(L, lower=1)[0] @ U.T
    return M.T @ M


def _certify(A, G, Q, P, kind, parameter, rounding=False):
    """Wrap P as a RiccatiSolution once AᵀP + PA - PGP + Q = 0 is met to
    tolerance, P is PSD and A - GP is Hurwitz; raise RiccatiError otherwise.
    With rounding, the residual must also meet gate (iii)'s bound."""
    eig_P = np.linalg.eigvalsh(P)  # ascending
    eig_min, eig_max = eig_P[0], eig_P[-1]
    if eig_min < -PSD_TOL:
        raise RiccatiError(
            f"{kind} ARE solution not positive semidefinite "
            f"(min eig {eig_min:.2e})"
        )
    AP, PGP = A.T @ P, P @ G @ P
    # the Frobenius norm bounds the 2-norm from above
    residual = np.linalg.norm(AP + AP.T - PGP + Q)
    # P is symmetric, so ‖P‖₂ = max|λ(P)|
    bound = _tolerance_for_norm(max(-eig_min, eig_max))
    if rounding:
        bound = min(bound, ROUNDING_RTOL
                    * (2 * np.linalg.norm(AP) + np.linalg.norm(PGP)))
    if residual > bound:
        raise RiccatiError(
            f"{kind} ARE residual {residual:.2e} exceeds tolerance"
        )
    if not is_hurwitz(A - G @ P):
        raise RiccatiError(f"{kind} ARE closed loop not Hurwitz")
    P.setflags(write=False)
    return RiccatiSolution(P=P, kind=kind, parameter=parameter,
                           residual_norm=residual, closed_loop_stable=True)


def _check_model(model):
    report = check_assumption(model)
    if not report.passed:
        raise RiccatiError(
            "model fails admissibility: "
            f"max Re eig(A)={report.max_real_part:.2e}, "
            f"stabilizable={report.stabilizable}, detectable={report.detectable}"
        )


def _solve(model, kind, name, parameter, shift, weight, validate_model):
    """Certified solution of (A + sI)ᵀP + P(A + sI) - PBBᵀP + wI = 0: from
    the Lyapunov form when w = 0 and it certifies, else Hamiltonian Schur."""
    if not (0.0 < parameter <= 1.0):
        raise ParameterError(f"{name} must be in (0, 1], got {parameter}")
    if validate_model:
        _check_model(model)
    I = np.eye(model.n)
    A = model.A + shift * I
    G = model.B @ model.B.T
    Q = weight * I
    if weight == 0.0:
        T, U = model.schur
        P = _care_lyapunov(G, T + shift * I, U)
        if P is not None:
            try:
                return _certify(A, G, Q, P, kind, parameter, rounding=True)
            except RiccatiError:
                pass  # gate (iii) failed: the Hamiltonian solve decides
    return _certify(A, G, Q, _care_schur(A, G, Q), kind, parameter)


def solve_scheduled_are(
    model: AgentModel, rho: float, *, validate_model: bool = True
) -> RiccatiSolution:
    """Stabilizing psd solution of AᵀP + PA - PBBᵀP + ρP = 0.

    Solved via the exact shift A → A + (ρ/2)I, which reduces it to a
    standard zero-state-weight ARE, from its Lyapunov form when that is
    certified and by the Hamiltonian method otherwise (module docstring).
    The result depends on (model, ρ) only.
    Raises RiccatiError when no certified stabilizing solution exists, for
    instance when A has an eigenvalue at exactly -ρ/2.
    """
    return _solve(model, "scheduled", "rho", rho, rho / 2, 0.0, validate_model)


def solve_lowgain_are(
    model: AgentModel, eps: float, *, validate_model: bool = True
) -> RiccatiSolution:
    """Stabilizing solution of AᵀP + PA - PBBᵀP + εI = 0."""
    return _solve(model, "lowgain", "eps", eps, 0.0, eps, validate_model)


def design_observer_gain(model: AgentModel) -> np.ndarray:
    """Read-only gain K = P_o Cᵀ, with A - KC Hurwitz, from the dual ARE
    AP_o + P_oAᵀ - P_oCᵀCP_o + I = 0.

    This is the unit-weight low-gain ARE of the dual model (Aᵀ, Cᵀ, Bᵀ);
    its Hurwitz certificate for Aᵀ - CᵀKᵀ is one for A - KC.
    """
    report = check_assumption(model)
    if not report.detectable:
        raise RiccatiError("(A, C) not detectable; cannot design observer gain")
    dual = AgentModel(model.A.T, model.C.T, model.B.T)
    K = solve_lowgain_are(dual, 1.0, validate_model=False).P @ model.C.T
    K.setflags(write=False)
    return K
