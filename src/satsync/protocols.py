"""The four synchronization protocols and their closed-loop vector fields.

Kinds are the product {global, semiglobal} × {full, partial}.  Global kinds
schedule the feedback ARE parameter from the current protocol state; the
semiglobal kinds use one fixed ε.  Full-state coupling exchanges agent
states; partial-state coupling exchanges outputs and adds a shared observer
with an extra communicated pair (χ_j, u_j).

Stacked-state layout (fixed so CSV columns and oracles are deterministic):

    [x_1 … x_N | x_r | χ_1 … χ_N | x̂_1 … x̂_N (partial kinds only)]

The protocol equations are stated once, by `_closed_loop_terms`, as a list
of Kronecker terms (rows, cols, P, Q) over these blocks and the input
blocks vec U and vec sat(U).  `_place` adds each P⊗Q at its blocks: placing
every term gives the closed-loop operator W, and the linear part L is W's
state block plus P⊗(Q·gain) in the χ columns for each input term, by the
mixed-product rule (P⊗Q)(I⊗gain) = P⊗(Q·gain).
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
from .scheduling import (  # noqa: F401
    PCache, _schedule, at_full_gain, epsilon_of_state)


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True, eq=False, kw_only=True)
class ProtocolKind:
    """A protocol kind, held as its design values: a global kind schedules
    ε(χ) from its scheduled-ARE `cache`, a semiglobal kind fixes `epsilon`,
    and an observer gain makes the coupling partial.  The kind holds ε as a
    float, refusing a bool, and the gain as a read-only float copy, so a
    gain given as a list or changed later in place reaches no run.  Kinds
    compare and hash by identity (an ndarray gain has no ==)."""

    epsilon: Optional[float] = None  # the semiglobal low-gain ε, in (0, 1]
    cache: Optional[PCache] = None  # the global kinds' scheduled-ARE table
    observer_gain: Optional[np.ndarray] = None  # K, with A - KC Hurwitz

    def __post_init__(self):
        if (self.epsilon is None) == (self.cache is None):
            raise ProtocolError(
                "a kind holds exactly one of epsilon and cache")
        if self.cache is None:
            if (isinstance(self.epsilon, (bool, np.bool_))
                    or not 0.0 < self.epsilon <= 1.0):
                raise ProtocolError("semiglobal kinds need epsilon in (0, 1]")
            object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.observer_gain is not None:
            K = np.array(self.observer_gain, dtype=float)  # a copy: frozen
            K.setflags(write=False)
            object.__setattr__(self, "observer_gain", K)

    @property
    def is_global(self) -> bool:
        return self.cache is not None

    @property
    def is_partial(self) -> bool:
        return self.observer_gain is not None

    @property
    def coupling(self) -> str:
        return "partial" if self.is_partial else "full"

    @property
    def name(self) -> str:
        family = "global" if self.is_global else "semiglobal"
        return f"{family}-{self.coupling}"


def global_full(model: AgentModel, cache: Optional[PCache] = None) -> ProtocolKind:
    return ProtocolKind(cache=cache or PCache(model))


def global_partial(
    model: AgentModel,
    cache: Optional[PCache] = None,
    observer_gain: Optional[np.ndarray] = None,
) -> ProtocolKind:
    if observer_gain is None:
        observer_gain = design_observer_gain(model)
    return ProtocolKind(cache=cache or PCache(model),
                        observer_gain=observer_gain)


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


def _closed_loop_terms(model: AgentModel, net: Network, kind: ProtocolKind):
    """The closed loop as terms (rows, cols, P, Q): f gains P⊗Q from block
    cols of (z, vec U, vec sat(U)) in block rows, with blocks x, r (x_r),
    c (χ), h (x̂), u (vec U) and s (vec sat U).  Summed per block, they are
    the per-agent protocol equations, with L̃ = L + diag ι:

        ẋ   = (I⊗A) x + (I⊗B) sat(U)
        ẋ_r = A x_r
        χ̇   = (I⊗A − L̃⊗I) χ + (I⊗B) U + ζ̄                (full)
        χ̇   = (I⊗A − L̃⊗I) χ + (I⊗B) U + x̂                (partial)
        x̂̇   = (I⊗(A − KC)) x̂ + (L̃⊗B) U + (I⊗K) ζ̄        (partial)

    where ζ̄ = (L̃⊗C) x − (ι⊗C) x_r, with C = I for full-state coupling.
    """
    A, B, I_n, I_N = model.A, model.B, np.eye(model.n), np.eye(net.N)
    iota = net.indicator[:, None]
    Ltilde = laplacian(net) + np.diag(net.indicator)
    terms = [("x", "x", I_N, A), ("x", "s", I_N, B), ("r", "r", np.eye(1), A),
             ("c", "c", I_N, A), ("c", "c", -Ltilde, I_n), ("c", "u", I_N, B)]
    if not kind.is_partial:
        return terms + [("c", "x", Ltilde, I_n), ("c", "r", -iota, I_n)]
    KC = kind.observer_gain @ model.C
    return terms + [("c", "h", I_N, I_n), ("h", "x", Ltilde, KC),
                    ("h", "r", -iota, KC), ("h", "h", I_N, A - KC),
                    ("h", "u", Ltilde, B)]


def _place(out: np.ndarray, terms, blocks) -> np.ndarray:
    """Add each term's P⊗Q to `out` at its (rows, cols) blocks.  P⊗Q is
    formed as the products P[i, j]·Q[k, l] that np.kron forms, by one
    broadcast, which costs less than np.kron's own reshapes."""
    for rows, cols, P, Q in terms:
        PQ = P[:, None, :, None] * Q[:, None]  # PQ[i, k, j, l]
        out[blocks[rows], blocks[cols]] += PQ.reshape(len(P) * len(Q), -1)
    return out


class ClosedLoopField:
    """Vector field f(t, z) of one protocol kind on one network.

    Every protocol is linear in (z, u, sat(u)); only the saturation and the
    global kinds' schedule are not.  The constructor therefore places the
    whole closed loop once as one operator W from the Kronecker terms of
    `_closed_loop_terms`, and a call evaluates the controls U at z and
    returns W · (z, vec U, vec sat(U)).

    The field keeps no per-call state: a call only evaluates f, and
    `control_info` recomputes the pre-saturation controls and (for global
    kinds) the realized schedule values from the states it is given, one
    state or a whole trajectory at once.

    `linear_part` is the pair (L, inside) of every kind.  On a cell of
    states the controls are linear, vec U = F z with F = blockdiag(−BᵀP) on
    the χ blocks, and no control saturates, so f(t, z) = L z there, with
    L = M + (G_u + G_sat) F for W = [M | G_u | G_sat].  L is placed from
    the same terms as W: M, plus P⊗(Q·gain) in the χ columns for each input
    term (rows, u or s, P, Q), since (P⊗Q)(I⊗gain) = P⊗(Q·gain).  RK45 takes
    the steps that stay in the cell from L alone, without calling the
    field.
    - Semiglobal kinds: P is the low-gain solution at their ε, and the cell
      is ‖F z‖∞ ≤ 1.
    - Global kinds: −BᵀP is the table's `PCache.full_gain`, the gain that
      `schedule` gives every agent at ε = 1, and the cell is every agent
      at ε = 1 (`scheduling.at_full_gain`): there ‖uᵢ‖² ≤ g(1, χᵢ) ≤ 1.
    `inside(Z)` takes a state (dim,) or a stack of them (…, dim) and returns
    |F z| (…, N·m), set to inf across a global kind's state whose |u| are
    at most 1 but which is outside the cell, so a state is inside where
    all of its entries are at most 1.
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
        dim, Nm = self.layout.dim, net.N * model.m
        blocks = dict(zip("xrch", self.layout.slices()),
                      u=slice(dim, dim + Nm), s=slice(dim + Nm, dim + 2 * Nm))
        self._chi = c = blocks["c"]
        terms = _closed_loop_terms(model, net, kind)
        self.W = _place(np.zeros((dim, dim + 2 * Nm)), terms, blocks)
        gain = kind.cache.full_gain if kind.is_global else -(
            model.B.T @ riccati.solve_lowgain_are(model, kind.epsilon).P)
        self._gain_T = gain.T  # U = χ·gain_T: u_i = −BᵀP χ_i
        self.F = F = np.zeros((Nm, dim))
        F[:, c] = np.kron(np.eye(net.N), gain)
        # an input term's (P⊗Q)(I⊗gain) = P⊗(Q·gain) lands in the χ columns
        L = _place(self.W[:, :dim].copy(), [
            (rows, "c", P, Q @ gain) for rows, cols, P, Q in terms
            if cols in ("u", "s")], blocks)
        cache, agents = kind.cache, (net.N, model.n)

        # a closure, not a bound method, which would make the field that
        # holds it a reference cycle
        def inside(Z):
            U = np.abs(Z @ F.T)
            # a state with some |u| > 1 already reads as outside
            if cache is None or not (U.max(axis=-1) <= 1.0).any():
                return U
            chi = Z[..., c].reshape(Z.shape[:-1] + agents)
            full = at_full_gain(chi, cache).all(axis=-1)
            return np.where(full[..., None], U, np.inf)

        self.linear_part = (L, inside)

    def controls(self, chi: np.ndarray):
        """Pre-saturation controls (…, N, m) and realized ε (…, N) or None
        of agent states chi (…, N, n)."""
        if self.kind.is_global:
            eps, U = _schedule(chi.reshape(-1, self.model.n),
                               self.kind.cache)
            agents = chi.shape[:-1]
            return U.reshape(agents + (self.model.m,)), eps.reshape(agents)
        return chi @ self._gain_T, None

    def control_info(self, t, z: np.ndarray):
        """`controls` of one stacked state (dim,) or a stack (…, dim)."""
        return self.controls(self.layout.split(z)[2])

    def __call__(self, t: float, z: np.ndarray) -> np.ndarray:
        U, _ = self.controls(z[self._chi].reshape(self.net.N, self.model.n))
        return self.W @ np.concatenate((z, U.ravel(), saturate(U).ravel()))
