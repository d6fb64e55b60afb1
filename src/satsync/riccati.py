"""Stabilizing ARE solutions, observer gain design, and Hurwitz testing.

Two continuous AREs are used downstream:

  scheduled:  AᵀP + PA - PBBᵀP + ρP = 0,   ρ ∈ (0,1]
  lowgain:    AᵀP + PA - PBBᵀP + εI = 0,   ε ∈ (0,1]

The scheduled equation reduces exactly to a zero-state-weight standard ARE
for the shifted matrix A_s = A + (ρ/2)I.  With no state weight its solution
is P_ρ = W⁻¹, where W solves the Lyapunov equation A_sW + WA_sᵀ = BBᵀ,
whenever A_s is antistable (Zhou, Duan & Lin, IEEE TAC 2008): then A_s - BBᵀP
= -WA_sᵀW⁻¹ has spectrum -spec(A_s).  So the scheduled ARE is solved first on
the model's cached real Schur form A = UTUᵀ, for a whole stack of ρ at once
(`scheduled_lyapunov`): W in Schur coordinates solves TW + WTᵀ + ρW =
UᵀBBᵀU, block row by block row of W as T's 1×1 and 2×2 diagonal blocks
split it (Bartels–Stewart), one batched solve over the stack per block,
then W = LLᵀ and P = UL⁻ᵀL⁻¹Uᵀ.  A row's P is kept only when

  (i)   min Re λ(A) + ρ/2 > HURWITZ_TOL, read off the Schur diagonal;
  (ii)  the linear solve and the Cholesky factorization succeed and P is
        finite;
  (iii) it passes the certificates every returned P passes, with the
        residual bound tightened to rounding level relative to the terms,
        ‖R‖_F ≤ 512·ε_mach·(2‖A_sᵀP‖_F + ‖PBBᵀP‖_F), which the absolute
        tolerance below does not enforce when ‖P‖ ≪ 1.

The gates apply to each row on its own, and a row that fails one reaches no
later stage.  `solve_scheduled_are` is the stack of one, and each stage
makes one LAPACK call per row, so it gives a row the bits a larger stack
gives it.

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

# riccati.check_assumption stays resolvable: perfbench's tracer wraps it
from .model import AgentModel, check_assumption  # noqa: F401

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
    return bool(_hurwitz(np.asarray(M, dtype=float)))


def _hurwitz(M):
    """is_hurwitz of each matrix in the stack M (…, n, n)."""
    return np.linalg.eigvals(M).real.max(axis=-1) < -HURWITZ_TOL


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


def _stacked(fn, *X):
    """fn over the stacks X, and the mask of rows where it succeeds.  One
    failing row makes numpy raise for the whole stack, so only then are the
    rows tried one at a time; a row's bits do not depend on its stack."""
    try:
        return fn(*X), np.ones(len(X[0]), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.zeros(len(X[0]), dtype=bool)
        for i in range(len(ok)):
            try:
                fn(*(x[i:i + 1] for x in X))
            except np.linalg.LinAlgError:
                continue
            ok[i] = True
        return fn(*(x[ok] for x in X)), ok


def _certificates(A, G, Q, P, rounding=False):
    """Certificates of each P in the stack (r, n, n) as a solution of
    AᵀP + PA - PGP + Q = 0, for A of shape (n, n) or (r, n, n).

    Returns the Frobenius norm of each residual (never below its 2-norm),
    λmin(P) and the first certificate each row fails: 0 none, 1 PSD to
    PSD_TOL, 2 the residual tolerance (with rounding, also gate (iii)'s
    bound), 3 a Hurwitz closed loop.  Only rows that pass 1 and 2 reach the
    eigenvalues of A - GP.
    """
    eig_P = np.linalg.eigvalsh(P)  # ascending
    eig_min, eig_max = eig_P[:, 0], eig_P[:, -1]
    AP, PGP = np.swapaxes(A, -1, -2) @ P, P @ G @ P
    residual = _frobenius(AP + np.swapaxes(AP, -1, -2) - PGP + Q)
    # P is symmetric, so ‖P‖₂ = max|λ(P)|
    bound = _tolerance_for_norm(np.maximum(-eig_min, eig_max))
    if rounding:
        bound = np.minimum(bound, ROUNDING_RTOL
                           * (2 * _frobenius(AP) + _frobenius(PGP)))
    failed = np.where(eig_min < -PSD_TOL, 1, np.where(residual > bound, 2, 0))
    rest = failed == 0
    failed[rest] = np.where(_hurwitz((A - G @ P)[rest]), 0, 3)
    return residual, eig_min, failed


def _frobenius(M):
    return np.sqrt((M * M).sum(axis=(-2, -1)))


def _certify(A, G, Q, P, kind, parameter):
    """Wrap P as a RiccatiSolution once AᵀP + PA - PGP + Q = 0 is met to
    tolerance, P is PSD and A - GP is Hurwitz; raise RiccatiError otherwise."""
    residual, eig_min, failed = _certificates(A, G, Q, P[None])
    if failed[0]:
        reason = ("",
                  "solution not positive semidefinite "
                  f"(min eig {eig_min[0]:.2e})",
                  f"residual {residual[0]:.2e} exceeds tolerance",
                  "closed loop not Hurwitz")[failed[0]]
        raise RiccatiError(f"{kind} ARE {reason}")
    return _solution(P, kind, parameter, residual[0])


def _solution(P, kind, parameter, residual):
    """The RiccatiSolution of a certified P, which it makes read-only."""
    P.setflags(write=False)
    return RiccatiSolution(P=P, kind=kind, parameter=parameter,
                           residual_norm=float(residual),
                           closed_loop_stable=True)


def _check_inputs(model, name, parameter):
    """Raise unless the parameter is in (0, 1] and the model is admissible
    (`AgentModel.assumption`, checked once per model)."""
    if not (0.0 < parameter <= 1.0):
        raise ParameterError(f"{name} must be in (0, 1], got {parameter}")
    report = model.assumption
    if not report.passed:
        raise RiccatiError(
            "model fails admissibility: "
            f"max Re eig(A)={report.max_real_part:.2e}, "
            f"stabilizable={report.stabilizable}, detectable={report.detectable}"
        )


def _hamiltonian(model, kind, parameter, shift, weight):
    """Certified solution of (A + sI)ᵀP + P(A + sI) - PBBᵀP + wI = 0 by the
    Hamiltonian Schur method."""
    I = np.eye(model.n)
    A = model.A + shift * I
    G = model.B @ model.B.T
    Q = weight * I
    return _certify(A, G, Q, _care_schur(A, G, Q), kind, parameter)


def _schur_blocks(T):
    """(start, end) of each diagonal block, 1×1 or 2×2, of the real Schur
    form T, last block first."""
    starts = [i for i in range(len(T)) if i == 0 or T[i, i - 1] == 0.0]
    return list(zip(starts, starts[1:] + [len(T)]))[::-1]


def scheduled_lyapunov(model: AgentModel, rho: np.ndarray):
    """The scheduled ARE for each ρ of the stack rho (r,) from its Lyapunov
    form (module docstring), with stacked certificates.

    W solves TW + WTᵀ + ρW = C = UᵀBBᵀU on the Schur form A = UTUᵀ by
    Bartels–Stewart: T is block upper triangular, so the block rows W_I of
    W, last first, solve T_II·W_I + W_I·Tᵀ + ρW_I = C_I − Σ_{J>I} T_IJ·W_J,
    a system of size at most 2n for each row of the stack.  The stack holds
    O(r·n²) doubles and costs O(n⁴) per row.  Then P = UL⁻ᵀL⁻¹Uᵀ from
    W = LLᵀ.

    Returns (P, residual, certified): the mask (r,) marks the rows that
    pass gates (i)-(iii), and P and residual hold, in order, those rows' P
    and residual norm.  A row that fails a gate is left out of every later
    stage.  Each stage makes one LAPACK call per row, so a row's bits do not
    depend on the rest of the stack: `solve_scheduled_are` is this call on
    a stack of one.
    """
    rho = np.asarray(rho, dtype=float)
    n = model.n
    T, U = model.schur
    certified = T.diagonal().min() + rho / 2 > HURWITZ_TOL  # gate (i)
    if not certified.any():
        return np.empty((0, n, n)), np.empty(0), certified
    G = model.B @ model.B.T
    C = U.T @ G @ U
    I = np.eye(n)
    shift = rho[certified, None, None]
    W = np.empty((len(shift), n, n))
    for a, b in _schur_blocks(T):
        q = b - a
        # T_II⊗I + I⊗T on the rows I = [a, b) of W, indexed [(i, k), (j, l)]
        # as (T_II)ᵢⱼδₖₗ + δᵢⱼTₖₗ
        K = (T[a:b, None, a:b, None] * I[None, :, None, :]
             + np.eye(q)[:, None, :, None] * T[None, :, None, :])
        # the right-hand side keeps the stack's ndim, so numpy 1.x and 2.x
        # both read it as one column per row
        x, ok = _stacked(np.linalg.solve,
                         shift * np.eye(q * n) + K.reshape(q * n, q * n),
                         (C[a:b] - T[a:b, b:] @ W[:, b:]).reshape(-1, q * n, 1))
        if not ok.all():
            certified[certified] = ok
            shift, W = shift[ok], W[ok]
        W[:, a:b] = x.reshape(-1, q, n)
    L, ok = _stacked(np.linalg.cholesky, W)
    certified[certified] = ok
    M = np.linalg.inv(L) @ U.T
    P = np.swapaxes(M, -1, -2) @ M
    ok = np.isfinite(P).all(axis=(-2, -1))  # a W near singular overflows P
    certified[certified] = ok
    P = P[ok]
    A = model.A + (rho[certified] / 2)[:, None, None] * I
    residual, _, failed = _certificates(A, G, 0.0, P, rounding=True)
    ok = failed == 0
    certified[certified] = ok
    return P[ok], residual[ok], certified


def solve_scheduled_are(model: AgentModel, rho: float) -> RiccatiSolution:
    """Stabilizing psd solution of AᵀP + PA - PBBᵀP + ρP = 0.

    Solved via the exact shift A → A + (ρ/2)I, which reduces it to a
    standard zero-state-weight ARE, from its Lyapunov form when that is
    certified and by the Hamiltonian method otherwise (module docstring).
    The result depends on (model, ρ) only.
    Raises RiccatiError when no certified stabilizing solution exists, for
    instance when A has an eigenvalue at exactly -ρ/2.
    """
    _check_inputs(model, "rho", rho)
    P, residual, certified = scheduled_lyapunov(model, np.array([rho]))
    if not certified[0]:
        return _hamiltonian(model, "scheduled", rho, rho / 2, 0.0)
    return _solution(P[0], "scheduled", rho, residual[0])


def solve_lowgain_are(model: AgentModel, eps: float) -> RiccatiSolution:
    """Stabilizing solution of AᵀP + PA - PBBᵀP + εI = 0."""
    _check_inputs(model, "eps", eps)
    return _hamiltonian(model, "lowgain", eps, 0.0, eps)


def design_observer_gain(model: AgentModel) -> np.ndarray:
    """Read-only gain K = P_o Cᵀ, with A - KC Hurwitz, from the dual ARE
    AP_o + P_oAᵀ - P_oCᵀCP_o + I = 0.

    This is the unit-weight low-gain ARE of the dual model (Aᵀ, Cᵀ, Bᵀ),
    solved with no admissibility check of the dual: only detectability of
    (A, C) is needed.  Its Hurwitz certificate for Aᵀ - CᵀKᵀ is one for
    A - KC.
    """
    if not model.assumption.detectable:
        raise RiccatiError("(A, C) not detectable; cannot design observer gain")
    dual = AgentModel(model.A.T, model.C.T, model.B.T)
    K = _hamiltonian(dual, "lowgain", 1.0, 0.0, 1.0).P @ model.C.T
    K.setflags(write=False)
    return K
