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
        tolerance below does not enforce when ‖P‖ ≪ 1.  `_certificates`
        applies this bar to the rows it is given a Lyapunov candidate for,
        which are exactly these.

The gates apply to each row on its own, and a row that fails one reaches no
later stage.  `solve_scheduled_are` is the stack of one, and each stage
makes one LAPACK call per row, so it gives a row the bits a larger stack
gives it.

Otherwise, and for the low-gain ARE, the equation is solved cold by the
Hamiltonian stable-invariant-subspace (Schur) method.  Every returned P
carries its certificates: (1) P PSD to PSD_TOL, (2) the Frobenius norm of
the residual (never below its 2-norm) within 1e-9·(1 + ‖P‖₂²), and (3) a
closed loop A - BBᵀP (A_s - BBᵀP for the scheduled ARE) with every
eigenvalue below -HURWITZ_TOL.  Certificate 3 is proved by a Lyapunov bound
wherever the bound decides (`_certificates`): from X with (A_s - τI)X +
X(A_s - τI)ᵀ = I, one more Bartels–Stewart pass, for Lyapunov-path rows,
and from P itself for the low-gain ARE and the observer.  Elsewhere it is
checked on the computed eigenvalues (`_hurwitz`), which in the deepest
octaves of a defective A are evidence rather than proof.  The observer gain
comes from the unit-weight low-gain ARE of the dual pair (Aᵀ, Cᵀ).
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


def _care_schur(A, G, w):
    """Stabilizing solution of AᵀP + PA - PGP + wI = 0 by Hamiltonian Schur."""
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = -G
    H[n:, :n] = -w * np.eye(n)
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


def _certificates(A, G, w, P, candidate=None):
    """Certificates of each P in the stack (r, n, n) as a solution of
    AᵀP + PA - PGP + wI = 0, for A of shape (r, n, n) and the scalar state
    weight w ≥ 0.

    Returns the Frobenius norm of each residual (never below its 2-norm),
    λmin(P) and the first certificate each row fails: 0 none, 1 PSD to
    PSD_TOL, 2 the residual tolerance (and, for the rows given a Lyapunov
    candidate, gate (iii)'s bound), 3 a closed loop A - GP with every
    eigenvalue below -τ, τ = HURWITZ_TOL.  Rows that pass 1 and 2 get
    certificate 3 from a Lyapunov bound where it decides, and from the
    eigenvalues of A - GP (`_hurwitz`) only where it does not.

    The bound reads R = AᵀP + PA - PGP + wI, the exact residual of the
    stored P, and needs P ≻ 0 and P bitwise symmetric (a row whose P is not
    is left to `_hurwitz`; every P measured is).
      - Scheduled rows (w = 0) pass `candidate(rows)`, which gives a
        symmetric X with (A - τI)X + X(A - τI)ᵀ ≈ I for the rows of the
        mask, and the mask of rows where one was found.  With P⁻¹R = E,
        P(A - GP)P⁻¹ = RP⁻¹ - Aᵀ, so spec(A - GP) = -spec(A - E).  Let
        Z ≻ 0 and (A - τI)Z + Z(A - τI)ᵀ = I - Δ.  Then
        (A - τI - E)Z + Z(A - τI - E)ᵀ = I - Δ - EZ - ZEᵀ ≻ 0 whenever
        ‖Δ‖₂ + 2‖P⁻¹‖₂‖R‖₂‖Z‖₂ < 1, which proves A - τI - E antistable,
        so every eigenvalue of A - GP lies below -τ.  A row with
        2‖R‖₂ ≥ ‖G‖₂λmin(P)² gets no X, since it cannot pass: P⁻¹ solves
        AW + WAᵀ = G ⪯ ‖G‖₂I, so X ⪰ P⁻¹/‖G‖₂ and ‖X‖₂ ≥ 1/(‖G‖₂λmin(P)),
        up to the rounding of P.
      - Other rows: (A - GP + τI)ᵀP + P(A - GP + τI) = R - wI - PGP + 2τP
        ≺ 0 whenever λmax(R) + 2τλmax(P) < w, which proves the same with P
        as the Lyapunov function and no extra solve.

    Floating point.  A, G, w and P are taken as stored, and the bounds
    below hold to first order in u = ε_mach/2.  γ_k (`_gamma`) bounds the
    rounding of k operations relative to the magnitudes they combine, so
    for each product |fl(MN) - MN| ≤ γ_n·|M||N|, and ‖|M||N|‖_F ≤
    ‖M‖_F‖N‖_F; Frobenius norms are never below 2-norms.
      - λmin(P) ≥ λ̂min - e‖P‖₂ and λmax(P) ≤ λ̂max + e‖P‖₂ for the
        `eigvalsh` values λ̂ (Weyl, with the solver's backward error taken
        as at most e = (n + 2)²·ε_mach relative).
      - ‖R‖₂ ≤ (1 + γ_{n²+1})‖R̂‖_F + γ_{2n+3}(2‖A‖_F‖P‖_F + ‖G‖_F‖P‖_F²
        + w√n) for the computed residual R̂: AᵀP is one product, PGP two,
        and three sums join the terms.
      - Z = L̂L̂ᵀ, with L̂ the Cholesky factor of the computed X̂, is
        positive definite when the factorization succeeds, and ‖Z - X̂‖_F ≤
        γ_{n+1}‖L̂‖_F² ≤ 2γ_{n+1}√n‖X̂‖_F.  So ‖Z‖₂ ≤ (1 + c)‖X̂‖_F and
        ‖Δ‖₂ ≤ (1 + γ_{n²+1})‖Δ̂‖_F + γ_{n+4}(2‖A - τI‖_F‖X̂‖_F + √n) +
        2c‖A - τI‖_F‖X̂‖_F, c = 2γ_{n+1}√n, for the computed Δ̂ of X̂.
      - Each test multiplies its left side by 1 + e, for the terms of
        second order and its own arithmetic.
    So a decided row clears its test by at least e relative, 5.6e-15 for
    n = 3, beyond every rounding term.
    """
    n = P.shape[-1]
    e, root_n = (n + 2) ** 2 * np.finfo(float).eps, np.sqrt(n)
    tau = HURWITZ_TOL
    eig_P = np.linalg.eigvalsh(P)  # ascending
    eig_min, eig_max = eig_P[:, 0], eig_P[:, -1]
    AP, PGP = np.swapaxes(A, -1, -2) @ P, P @ G @ P
    residual = _frobenius(AP + np.swapaxes(AP, -1, -2) - PGP + w * np.eye(n))
    # P is symmetric, so ‖P‖₂ = max|λ(P)|
    p_norm = np.maximum(-eig_min, eig_max)
    bound = _tolerance_for_norm(p_norm)
    if candidate is not None:  # gate (iii): a Lyapunov-path row
        bound = np.minimum(bound, ROUNDING_RTOL
                           * (2 * _frobenius(AP) + _frobenius(PGP)))
    failed = np.where(eig_min < -PSD_TOL, 1, np.where(residual > bound, 2, 0))
    # bounds on λmin(P) and ‖R‖₂ of the stored P, as the docstring states;
    # p_low = 0 leaves a row that is not symmetric undecided
    symmetric = (P == np.swapaxes(P, -1, -2)).all(axis=(-2, -1))
    p_low = np.where(symmetric, eig_min - e * p_norm, 0.0)
    p_F, a_F = _frobenius(P), _frobenius(A)
    r_high = ((1 + _gamma(n * n + 1)) * residual + _gamma(2 * n + 3)
              * (2 * a_F * p_F + _frobenius(G) * p_F**2 + w * root_n))
    if candidate is None:
        proved = (p_low > 0) & ((1 + e) * (r_high + 2 * tau
                                           * (eig_max + e * p_norm)) < w)
    else:
        # the rows that get an X, narrowed to those it proves
        proved = (failed == 0) & (p_low > 0) & (2 * r_high
                                                < _frobenius(G) * p_low**2)
        if proved.any():
            X, ok = candidate(proved)  # X of the rows where ok
            proved[proved] = ok
            _, ok = _stacked(np.linalg.cholesky, X)
            proved[proved] = ok
            X = X[ok]
            AX, c = A[proved] @ X, 2 * _gamma(n + 1) * root_n
            m = a_F[proved] + tau * root_n  # ≥ ‖A - τI‖_F
            x = _frobenius(X)
            delta = ((1 + _gamma(n * n + 1))
                     * _frobenius(AX + np.swapaxes(AX, -1, -2) - 2 * tau * X
                                  - np.eye(n))
                     + _gamma(n + 4) * (2 * m * x + root_n) + 2 * c * m * x)
            p, r = p_low[proved], r_high[proved]
            proved[proved] = (1 + e) * (p * delta + 2 * r * (1 + c) * x) < p
    rest = (failed == 0) & ~proved
    failed[rest] = np.where(_hurwitz(A[rest] - G @ P[rest]), 0, 3)
    return residual, eig_min, failed


def _gamma(k):
    """γ_k = k·u/(1 - k·u), u = ε_mach/2: k floating-point operations in a
    sum or product err by at most γ_k relative to the magnitudes they
    combine (Higham, Accuracy and Stability of Numerical Algorithms, §3.1).
    """
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _frobenius(M):
    return np.sqrt((M * M).sum(axis=(-2, -1)))


def _certify(A, G, w, P, kind, parameter):
    """Wrap P as a RiccatiSolution once AᵀP + PA - PGP + wI = 0 is met to
    tolerance, P is PSD and A - GP is Hurwitz; raise RiccatiError otherwise."""
    residual, eig_min, failed = _certificates(A[None], G, w, P[None])
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


def _hamiltonian(A, B, kind, parameter, shift, weight):
    """Certified solution of (A + sI)ᵀP + P(A + sI) - PBBᵀP + wI = 0 by the
    Hamiltonian Schur method."""
    A = A + shift * np.eye(len(A))
    G = B @ B.T
    return _certify(A, G, weight, _care_schur(A, G, weight), kind, parameter)


def _schur_blocks(T):
    """(start, end) of each diagonal block, 1×1 or 2×2, of the real Schur
    form T, last block first."""
    starts = [i for i in range(len(T)) if i == 0 or T[i, i - 1] == 0.0]
    return list(zip(starts, starts[1:] + [len(T)]))[::-1]


def _bartels_stewart(T, shift, C):
    """W with TW + WTᵀ + sW = C for each shift s of the stack (r, 1, 1), on
    the real Schur form T, and the mask (r,) of rows whose solves succeed;
    W holds those rows, in order.

    T is block upper triangular, so the block rows W_I of W, last first,
    solve T_II·W_I + W_I·Tᵀ + sW_I = C_I − Σ_{J>I} T_IJ·W_J, a system of
    size at most 2n for each row of the stack: one batched
    `np.linalg.solve` per diagonal block of T, one LAPACK call per row.
    """
    n = len(T)
    I = np.eye(n)
    kept = np.ones(len(shift), dtype=bool)
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
            kept[kept] = ok
            shift, W = shift[ok], W[ok]
        W[:, a:b] = x.reshape(-1, q, n)
    return W, kept


def scheduled_lyapunov(model: AgentModel, rho: np.ndarray):
    """The scheduled ARE for each ρ of the stack rho (r,) from its Lyapunov
    form (module docstring), with stacked certificates.

    W solves TW + WTᵀ + ρW = UᵀBBᵀU on the Schur form A = UTUᵀ by
    Bartels–Stewart (`_bartels_stewart`), then P = UL⁻ᵀL⁻¹Uᵀ from W = LLᵀ.
    Certificate 3 takes, for each row that passes 1 and 2 and that the
    Lyapunov bound of `_certificates` can decide, one more Bartels–Stewart
    pass: X = UYUᵀ with TY + YTᵀ + (ρ - 2τ)Y = I, so that
    (A_s - τI)X + X(A_s - τI)ᵀ = I, τ = HURWITZ_TOL.  Each pass costs O(n⁴)
    per row, and the stack holds O(r·n²) doubles.

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
    W, ok = _bartels_stewart(T, rho[certified, None, None], U.T @ G @ U)
    certified[certified] = ok
    L, ok = _stacked(np.linalg.cholesky, W)
    certified[certified] = ok
    M = np.linalg.inv(L) @ U.T
    P = np.swapaxes(M, -1, -2) @ M
    ok = np.isfinite(P).all(axis=(-2, -1))  # a W near singular overflows P
    certified[certified] = ok
    P, rho = P[ok], rho[certified]
    I = np.eye(n)

    def candidate(rows):
        Y, ok = _bartels_stewart(
            T, (rho[rows] - 2 * HURWITZ_TOL)[:, None, None], I)
        X = U @ Y @ U.T
        return (X + np.swapaxes(X, -1, -2)) / 2, ok

    A = model.A + (rho / 2)[:, None, None] * I
    residual, _, failed = _certificates(A, G, 0.0, P, candidate)
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
        return scheduled_hamiltonian(model, rho)
    return _solution(P[0], "scheduled", rho, residual[0])


def scheduled_hamiltonian(model: AgentModel, rho: float) -> RiccatiSolution:
    """The scheduled ARE at ρ by the Hamiltonian method, which
    `solve_scheduled_are` falls back to where `scheduled_lyapunov` does not
    certify ρ.  It checks neither ρ nor the model; raises RiccatiError when
    the solve fails a certificate."""
    return _hamiltonian(model.A, model.B, "scheduled", rho, rho / 2, 0.0)


def solve_lowgain_are(model: AgentModel, eps: float) -> RiccatiSolution:
    """Stabilizing solution of AᵀP + PA - PBBᵀP + εI = 0."""
    _check_inputs(model, "eps", eps)
    return _hamiltonian(model.A, model.B, "lowgain", eps, 0.0, eps)


def design_observer_gain(model: AgentModel) -> np.ndarray:
    """Read-only gain K = P_o Cᵀ, with A - KC Hurwitz, from the dual ARE
    AP_o + P_oAᵀ - P_oCᵀCP_o + I = 0.

    This is the unit-weight low-gain ARE of the dual pair (Aᵀ, Cᵀ), solved
    with no admissibility check of the dual: only detectability of (A, C)
    is needed.  Its Hurwitz certificate for Aᵀ - CᵀKᵀ is one for A - KC.
    """
    if not model.assumption.detectable:
        raise RiccatiError("(A, C) not detectable; cannot design observer gain")
    K = _hamiltonian(model.A.T, model.C.T, "lowgain", 1.0, 0.0, 1.0).P @ model.C.T
    K.setflags(write=False)
    return K
