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

from . import riccati
from .graph import Network, laplacian
from .model import AgentModel, saturate
from .riccati import design_observer_gain
# protocols.epsilon_of_state stays resolvable: perfbench's tracer wraps it
from .scheduling import PCache, epsilon_of_state, schedule  # noqa: F401


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ProtocolKind:
    """Protocol family/coupling selection plus its design parameters.
    Kinds compare and hash by identity (an ndarray gain has no ==)."""

    family: str  # "global" | "semiglobal"
    coupling: str  # "full" | "partial"
    epsilon: Optional[float] = None
    cache: Optional[PCache] = None
    observer_gain: Optional[np.ndarray] = None  # K, with A - KC Hurwitz

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
    observer_gain: Optional[np.ndarray] = None,
) -> ProtocolKind:
    if observer_gain is None:
        observer_gain = design_observer_gain(model)
    return ProtocolKind(
        "global", "partial",
        cache=cache or PCache(model),
        observer_gain=observer_gain,
    )


def semiglobal_full(model: AgentModel, epsilon: float) -> ProtocolKind:
    return ProtocolKind("semiglobal", "full", epsilon=epsilon)


def semiglobal_partial(
    model: AgentModel,
    epsilon: float,
    observer_gain: Optional[np.ndarray] = None,
) -> ProtocolKind:
    if observer_gain is None:
        observer_gain = design_observer_gain(model)
    return ProtocolKind(
        "semiglobal", "partial", epsilon=epsilon, observer_gain=observer_gain,
    )


@dataclass(frozen=True)
class StateLayout:
    """Index arithmetic for the stacked state vector."""

    N: int
    n: int
    partial: bool

    @property
    def dim(self) -> int:
        blocks = 2 * self.N + 1 + (self.N if self.partial else 0)
        return blocks * self.n

    def slices(self):
        """Index ranges of the x, x_r, χ and x̂ blocks (x̂ empty when full)."""
        N, n = self.N, self.n
        return (slice(0, N * n), slice(N * n, (N + 1) * n),
                slice((N + 1) * n, (2 * N + 1) * n),
                slice((2 * N + 1) * n, self.dim))

    def split(self, z: np.ndarray):
        """Return (x (…,N,n), x_r (…,n), chi (…,N,n), xhat (…,N,n) or None).

        z is one stacked state (dim,) or a stack of them (…, dim).
        """
        sx, sr, sc, sh = self.slices()
        agents = z.shape[:-1] + (self.N, self.n)
        x = z[..., sx].reshape(agents)
        x_r = z[..., sr]
        chi = z[..., sc].reshape(agents)
        xhat = z[..., sh].reshape(agents) if self.partial else None
        return x, x_r, chi, xhat

    def pack(self, x, x_r, chi, xhat=None) -> np.ndarray:
        """The stacked state of the blocks; xhat is required for partial
        layouts and ignored for full ones."""
        parts = [np.asarray(x).reshape(-1), np.asarray(x_r).reshape(-1),
                 np.asarray(chi).reshape(-1)]
        if self.partial:
            if xhat is None:
                raise ProtocolError("a partial layout needs x̂")
            parts.append(np.asarray(xhat).reshape(-1))
        z = np.concatenate(parts)
        if z.size != self.dim:
            raise ProtocolError(
                f"stacked state has size {z.size}, expected {self.dim}"
            )
        return z


def _closed_loop_operator(model: AgentModel, net: Network, kind: ProtocolKind,
                          layout: StateLayout) -> np.ndarray:
    """W = [M | G_u | G_sat] with f(z) = W · (z, vec U, vec sat(U)).

    Kronecker form of the per-agent protocol equations, with L̃ = L + diag ι:

        ẋ   = (I⊗A) x + (I⊗B) sat(U)
        ẋ_r = A x_r
        χ̇   = (I⊗A − L̃⊗I) χ + (I⊗B) U + ζ̄                (full)
        χ̇   = (I⊗A − L̃⊗I) χ + (I⊗B) U + x̂                (partial)
        x̂̇   = (I⊗(A − KC)) x̂ + (L̃⊗B) U + (I⊗K) ζ̄        (partial)

    where ζ̄ = (L̃⊗C) x − (ι⊗C) x_r, with C = I for full-state coupling.
    """
    N, n, m = net.N, model.n, model.m
    A, B = model.A, model.B
    iota = net.indicator[:, None]
    Ltilde = laplacian(net) + np.diag(net.indicator)
    I_N = np.eye(N)
    x, r, c, h = layout.slices()
    dim = layout.dim
    u = slice(dim, dim + N * m)
    s = slice(dim + N * m, dim + 2 * N * m)
    W = np.zeros((dim, dim + 2 * N * m))
    W[x, x] = np.kron(I_N, A)
    W[x, s] = np.kron(I_N, B)
    W[r, r] = A
    W[c, c] = np.kron(I_N, A) - np.kron(Ltilde, np.eye(n))
    W[c, u] = np.kron(I_N, B)
    if kind.is_partial:
        KC = kind.observer_gain @ model.C
        W[c, h] = np.eye(N * n)
        W[h, x] = np.kron(Ltilde, KC)
        W[h, r] = -np.kron(iota, KC)
        W[h, h] = np.kron(I_N, A - KC)
        W[h, u] = np.kron(Ltilde, B)
    else:
        W[c, x] = np.kron(Ltilde, np.eye(n))
        W[c, r] = -np.kron(iota, np.eye(n))
    return W


class ClosedLoopField:
    """Vector field f(t, z) of one protocol kind on one network.

    Every protocol is linear in (z, u, sat(u)); only the saturation and the
    global kinds' schedule are not.  The constructor therefore assembles the
    whole closed loop once as one operator W, and a call evaluates the
    controls U at z and returns W · (z, vec U, vec sat(U)).

    The field keeps no per-call state: a call only evaluates f, and
    `control_info` recomputes the pre-saturation controls and (for global
    kinds) the realized schedule values from the states it is given, one
    state or a whole trajectory at once.

    `linear_part` is the pair of matrices (L, F) of a semiglobal kind,
    whose controls vec U = F z are linear in the state: f(t, z) = L z
    wherever ‖F z‖∞ ≤ 1, with L = M + (G_u + G_sat) F.  RK45 takes the
    steps that stay in that regime from L alone, without calling the field.
    Global kinds schedule their gain, so theirs is None.
    """

    def __init__(self, model: AgentModel, net: Network, kind: ProtocolKind):
        shape = np.shape(kind.observer_gain)
        if kind.is_partial and shape != (model.n, model.q):
            raise ProtocolError(f"observer gain has shape {shape}, "
                                f"expected (n, q) = {(model.n, model.q)}")
        if kind.is_global and not (
                np.array_equal(kind.cache.model.A, model.A)
                and np.array_equal(kind.cache.model.B, model.B)):
            raise ProtocolError("the ARE cache was built for another model")
        self.model = model
        self.net = net
        self.kind = kind
        self.layout = StateLayout(net.N, model.n, kind.is_partial)
        self.W = _closed_loop_operator(model, net, kind, self.layout)
        self._chi = self.layout.slices()[2]
        self.linear_part = None
        if not kind.is_global:
            P = riccati.solve_lowgain_are(model, kind.epsilon).P
            self._gain_T = -(model.B.T @ P).T  # U = χ·gain_T: u_i = −BᵀP χ_i
            dim, Nm = self.layout.dim, net.N * model.m
            F = np.zeros((Nm, dim))
            F[:, self._chi] = np.kron(np.eye(net.N), self._gain_T.T)
            M, G_u, G_sat = np.split(self.W, [dim, dim + Nm], axis=1)
            self.linear_part = (M + (G_u + G_sat) @ F, F)

    def controls(self, chi: np.ndarray):
        """Pre-saturation controls (…, N, m) and realized ε (…, N) or None
        of agent states chi (…, N, n)."""
        if self.kind.is_global:
            eps, U = schedule(chi.reshape(-1, self.model.n), self.kind.cache)
            agents = chi.shape[:-1]
            return U.reshape(agents + (self.model.m,)), eps.reshape(agents)
        return chi @ self._gain_T, None

    def control_info(self, t, z: np.ndarray):
        """`controls` of one stacked state (dim,) or a stack (…, dim)."""
        return self.controls(self.layout.split(z)[2])

    def __call__(self, t: float, z: np.ndarray) -> np.ndarray:
        U, _ = self.controls(z[self._chi].reshape(self.net.N, self.model.n))
        return self.W @ np.concatenate((z, U.ravel(), saturate(U).ravel()))
