"""Agent/exosystem dynamics, input saturation, and model admissibility checks.

All agents share one (A, B, C) triple.  The reference trajectory is generated
by an input-free copy of the same dynamics.  Admissibility means: A has no
eigenvalue in the open right half plane, (A, B) is stabilizable, and (A, C)
is detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

# Tolerance for "closed left half plane" membership of eigenvalues of A.
# Floating-point eigenvalues of nilpotent matrices perturb at eps scale.
EIG_TOL = 1e-8

# PBH rank decisions use singular values relative to the matrix infinity norm.
PBH_RTOL = 1e-9


class ModelError(ValueError):
    """Raised for dimensionally inconsistent or inadmissible agent models."""

    def __init__(self, message, field_name=None):
        super().__init__(message)
        self.field_name = field_name


def _as_matrix(M, name):
    M = np.array(M, dtype=float)  # a copy: the model freezes it
    if M.ndim == 1:
        M = M.reshape(1, -1) if name == "C" else M.reshape(-1, 1)
    if M.ndim != 2:
        raise ModelError(f"{name} must be a 2-d array, got ndim={M.ndim}", name)
    return M


@dataclass(frozen=True)
class AgentModel:
    """Shared agent dynamics ẋ = Ax + Bσ(u), y = Cx."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        if A.shape[0] != A.shape[1]:
            raise ModelError(f"A must be square, got {A.shape}", "A")
        n = A.shape[0]
        if B.shape[0] != n:
            raise ModelError(f"B must have {n} rows, got {B.shape}", "B")
        if C.shape[1] != n:
            raise ModelError(f"C must have {n} columns, got {C.shape}", "C")
        for name, M in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(M)):
                raise ModelError(f"{name} contains non-finite entries", name)
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    @cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only real Schur form (T, U) of A, A = U T Uᵀ, computed once."""
        T, U = sla.schur(self.A, output="real")
        T.setflags(write=False)
        U.setflags(write=False)
        return T, U

    @cached_property
    def assumption(self) -> AssumptionReport:
        """`check_assumption` of this model, computed once."""
        return check_assumption(self)


@dataclass(frozen=True)
class AssumptionReport:
    """Result of the admissibility check on an agent model."""

    eig_A: np.ndarray
    max_real_part: float
    stabilizable: bool
    detectable: bool

    @property
    def passed(self) -> bool:
        return (
            self.max_real_part <= EIG_TOL and self.stabilizable and self.detectable
        )


def saturate(v):
    """Componentwise standard saturation sgn(v)·min(1, |v|)."""
    # same values as np.clip, at about half its cost on the field's small arrays
    return np.minimum(np.maximum(np.asarray(v, dtype=float), -1.0), 1.0)


def _pbh_rank_ok(A, M, eigs, stacked_vertically):
    """PBH test: full rank of [A-λI, M] (or stacked) at each given eigenvalue."""
    n = A.shape[0]
    for lam in eigs:
        shifted = A - lam * np.eye(n)
        if stacked_vertically:
            pencil = np.vstack([shifted, M.astype(complex)])
        else:
            pencil = np.hstack([shifted, M.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        scale = max(np.abs(pencil).sum(axis=1).max(), 1.0)
        if sv[n - 1] <= PBH_RTOL * scale:
            return False
    return True


def check_assumption(model: AgentModel) -> AssumptionReport:
    """Check the admissibility assumption on an agent model.

    Stabilizability and detectability are tested by the PBH rank test at
    every eigenvalue of A with real part ≥ -EIG_TOL; modes strictly inside
    the left half plane need no test.
    """
    eigs = np.linalg.eigvals(model.A)
    critical = [lam for lam in eigs if lam.real >= -EIG_TOL]
    stabilizable = _pbh_rank_ok(model.A, model.B, critical, stacked_vertically=False)
    detectable = _pbh_rank_ok(model.A, model.C, critical, stacked_vertically=True)
    return AssumptionReport(
        eig_A=eigs,
        max_real_part=float(eigs.real.max()) if eigs.size else 0.0,
        stabilizable=stabilizable,
        detectable=detectable,
    )


def triple_integrator() -> AgentModel:
    """The n=3 chain of integrators with scalar input and position output."""
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0], [0.0], [1.0]])
    C = np.array([[1.0, 0.0, 0.0]])
    return AgentModel(A, B, C)
