"""The four synchronization protocols and their closed-loop vector fields.

Kinds are the product {global, semiglobal} × {full, partial}.  Global kinds
schedule the feedback ARE parameter from the current protocol state; the
semiglobal kinds use one fixed ε.  Full-state coupling exchanges agent
states; partial-state coupling exchanges outputs and adds a shared observer
with an extra communicated pair (χ_j, u_j).

Stacked-state layout (fixed so CSV columns and oracles are deterministic):

    [x_1 … x_N | x_r | χ_1 … χ_N | x̂_1 … x̂_N (partial kinds only)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Network, laplacian
from .model import AgentModel, saturate
from .riccati import ObserverGain, design_observer_gain
from .scheduling import PCache, epsilon_of_state


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class ProtocolKind:
    """Protocol family/coupling selection plus its design parameters."""

    family: str  # "global" | "semiglobal"
    coupling: str  # "full" | "partial"
    epsilon: Optional[float] = None
    cache: Optional[PCache] = None
    observer_gain: Optional[ObserverGain] = None

    def __post_init__(self):
        if self.family not in ("global", "semiglobal"):
            raise ProtocolError(f"unknown family {self.family!r}")
        if self.coupling not in ("full", "partial"):
            raise ProtocolError(f"unknown coupling {self.coupling!r}")
        if self.family == "semiglobal":
            if self.epsilon is None or not (0.0 < self.epsilon <= 1.0):
                raise ProtocolError("semiglobal kinds need epsilon in (0, 1]")
        else:
            if self.cache is None:
                raise ProtocolError("global kinds need a scheduled-ARE cache")
        if self.coupling == "partial" and self.observer_gain is None:
            raise ProtocolError("partial kinds need an observer gain")

    @property
    def is_global(self) -> bool:
        return self.family == "global"

    @property
    def is_partial(self) -> bool:
        return self.coupling == "partial"

    @property
    def name(self) -> str:
        return f"{self.family}-{self.coupling}"


def global_full(model: AgentModel, cache: Optional[PCache] = None) -> ProtocolKind:
    return ProtocolKind("global", "full", cache=cache or PCache(model))


def global_partial(
    model: AgentModel,
    cache: Optional[PCache] = None,
    observer_gain: Optional[ObserverGain] = None,
) -> ProtocolKind:
    return ProtocolKind(
        "global", "partial",
        cache=cache or PCache(model),
        observer_gain=observer_gain or design_observer_gain(model),
    )


def semiglobal_full(model: AgentModel, epsilon: float) -> ProtocolKind:
    return ProtocolKind("semiglobal", "full", epsilon=epsilon)


def semiglobal_partial(
    model: AgentModel,
    epsilon: float,
    observer_gain: Optional[ObserverGain] = None,
) -> ProtocolKind:
    return ProtocolKind(
        "semiglobal", "partial", epsilon=epsilon,
        observer_gain=observer_gain or design_observer_gain(model),
    )


@dataclass(frozen=True)
class StateLayout:
    """Index arithmetic for the stacked state vector."""

    N: int
    n: int
    m: int
    partial: bool

    @property
    def dim(self) -> int:
        blocks = 2 * self.N + 1 + (self.N if self.partial else 0)
        return blocks * self.n

    def split(self, z: np.ndarray):
        """Return (x (N,n), x_r (n,), chi (N,n), xhat (N,n) or None)."""
        N, n = self.N, self.n
        x = z[: N * n].reshape(N, n)
        x_r = z[N * n : (N + 1) * n]
        chi = z[(N + 1) * n : (2 * N + 1) * n].reshape(N, n)
        xhat = None
        if self.partial:
            xhat = z[(2 * N + 1) * n :].reshape(N, n)
        return x, x_r, chi, xhat

    def pack(self, x, x_r, chi, xhat=None) -> np.ndarray:
        parts = [np.asarray(x).reshape(-1), np.asarray(x_r).reshape(-1),
                 np.asarray(chi).reshape(-1)]
        if self.partial:
            if xhat is None:
                xhat = np.zeros((self.N, self.n))
            parts.append(np.asarray(xhat).reshape(-1))
        z = np.concatenate(parts)
        if z.size != self.dim:
            raise ProtocolError(
                f"stacked state has size {z.size}, expected {self.dim}"
            )
        return z


def coupling_signal(outputs, y_r, net: Network) -> np.ndarray:
    """Network signal ζ̄_i = Σ_j a_ij(y_i - y_j) + ι_i(y_i - y_r), stacked.

    Equals (L̃ ⊗ I)·stack(y) - (ι ⊗ I)·y_r.  With C = I the same formula
    covers full-state coupling.
    """
    Y = np.asarray(outputs, dtype=float)
    y_r = np.asarray(y_r, dtype=float).reshape(-1)
    if Y.shape != (net.N, y_r.size):
        raise ProtocolError(
            f"outputs must be ({net.N}, {y_r.size}), got {Y.shape}"
        )
    Ltilde = laplacian(net) + np.diag(net.indicator)
    return (Ltilde @ Y - np.outer(net.indicator, y_r)).reshape(-1)


def additional_exchange(xi, net: Network) -> np.ndarray:
    """Exchange signal ζ̂_i = Σ_j a_ij(ξ_i - ξ_j) = (L ⊗ I)·stack(ξ)."""
    Xi = np.asarray(xi, dtype=float)
    if Xi.shape[0] != net.N:
        raise ProtocolError(f"expected {net.N} per-agent vectors")
    return (laplacian(net) @ Xi).reshape(-1)


class ClosedLoopField:
    """Vector field f(t, z) of one protocol kind on one network.

    Callable for integration; `control_info` exposes the pre-saturation
    controls and (for global kinds) the realized schedule values at a state.
    """

    def __init__(self, model: AgentModel, net: Network, kind: ProtocolKind):
        if kind.is_partial and model.q != kind.observer_gain.K.shape[1]:
            raise ProtocolError("observer gain shape inconsistent with C")
        self.model = model
        self.net = net
        self.kind = kind
        self.layout = StateLayout(net.N, model.n, model.m, kind.is_partial)
        self.L = laplacian(net)
        self.iota = net.indicator
        self.Ltilde = self.L + np.diag(self.iota)
        self.A = model.A
        self.B = model.B
        self.C = model.C
        self.K = kind.observer_gain.K if kind.is_partial else None
        if not kind.is_global:
            from .riccati import solve_lowgain_are

            self._P_fixed = solve_lowgain_are(model, kind.epsilon).P
            self._F_fixed = self.B.T @ self._P_fixed  # u = -F χ

    def controls(self, chi: np.ndarray):
        """Pre-saturation controls (N, m) and realized ε (N,) or None."""
        N, m = self.net.N, self.model.m
        if self.kind.is_global:
            eps = np.empty(N)
            U = np.empty((N, m))
            for i in range(N):
                eps[i] = epsilon_of_state(chi[i], self.kind.cache)
                P = self.kind.cache.solution(eps[i]).P
                U[i] = -(self.B.T @ P @ chi[i])
            return U, eps
        return -(chi @ self._F_fixed.T), None

    def control_info(self, t: float, z: np.ndarray):
        _, _, chi, _ = self.layout.split(z)
        return self.controls(chi)

    def __call__(self, t: float, z: np.ndarray) -> np.ndarray:
        x, x_r, chi, xhat = self.layout.split(z)
        U, _ = self.controls(chi)
        U_sat = saturate(U)
        dx = x @ self.A.T + U_sat @ self.B.T
        dx_r = self.A @ x_r
        zhat1 = self.L @ chi
        if self.kind.is_partial:
            Y = x @ self.C.T
            y_r = self.C @ x_r
            zbar = self.Ltilde @ Y - np.outer(self.iota, y_r)
            zhat2 = self.L @ U
            innov = zbar - xhat @ self.C.T
            dxhat = (
                xhat @ self.A.T
                + zhat2 @ self.B.T
                + innov @ self.K.T
                + self.iota[:, None] * (U @ self.B.T)
            )
            dchi = (
                chi @ self.A.T + U @ self.B.T + xhat - zhat1
                - self.iota[:, None] * chi
            )
            return self.layout.pack(dx, dx_r, dchi, dxhat)
        zbar = self.Ltilde @ x - np.outer(self.iota, x_r)
        dchi = (
            chi @ self.A.T + U @ self.B.T + zbar - zhat1
            - self.iota[:, None] * chi
        )
        return self.layout.pack(dx, dx_r, dchi)

