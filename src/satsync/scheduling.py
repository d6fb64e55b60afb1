"""State-dependent gain schedule ε(χ) and semi-global ε* selection.

The schedule picks the largest ρ ∈ (0,1] for which

    g(ρ, χ) = χᵀP_ρχ · trace(BᵀP_ρB) = χᵀS_ρχ = ⟨vec S_ρ, χ⊗χ⟩ ≤ 1,

which keeps ‖BᵀP_ρχ‖ ≤ 1 so the control never saturates.  g is nondecreasing
in ρ, so the maximizer is found by scanning a dyadic grid and bisecting the
bracketing interval.  Every ρ probed or returned lies on the dyadic lattice

    ρ(k, j) = 2⁻ᵏ + 2⁻ᵏ·j/2¹⁰,   octave k ∈ [0, 20], index j ∈ [0, 2¹⁰),

whose points are exact binary floats.  `PCache` holds one row per lattice
point, at its id k·2¹⁰ + j, filled by octave, so ARE solves are shared
across calls and all agents are scheduled together as array operations:
χ⊗χ is formed once per call, and each g is one inner product of it with a
table row read as vec S.  An octave whose stacked solve certified every row
is complete, and a bisection that stays in complete octaves makes no fill
check.

The semi-global ε* has no constructive formula; it is selected by validating
candidate ε values on closed-loop simulations from a deterministic sample of
the prescribed compact sets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import riccati
from .model import AgentModel
from .riccati import (
    ParameterError,
    RiccatiSolution,
    scheduled_lyapunov,
    solve_scheduled_are,
)

RHO_MIN = 2.0**-20
GRID = tuple(2.0**-k for k in range(21))  # 1, 1/2, ..., 2^-20
BISECTION_DEPTH = 10  # relative interval width 2^-10 < 1e-3
OCTAVE = 2**BISECTION_DEPTH  # lattice points per grid interval
GRID_IDS = np.arange(len(GRID)) * OCTAVE  # lattice ids k·2¹⁰ of the grid
# rows of one octave that, solved one at a time, cost about what one stacked
# solve of the whole octave costs (n = 3 to 6)
STACK_AFTER = 64

# Semi-global search parameters (validated by direct simulation, not by the
# existential constants of the convergence analysis).
EPS0 = 1.0
EPS_RATIO = 0.5
EPS_FLOOR = 2.0**-30
SAT_MARGIN = 0.05
T_VAL = 50.0  # synchronized: sync error < TOL_VAL at t = T_VAL, for every run
TOL_VAL = 1e-2
MAX_VERTEX_SAMPLES = 256


class ScheduleFloorError(RuntimeError):
    """g(ρ_min, χ) > 1: the state left the region the schedule can serve."""

    def __init__(self, chi_norm):
        super().__init__(
            f"gain schedule floor reached at state norm {chi_norm:.6g}"
        )
        self.chi_norm = chi_norm


class SelectionError(RuntimeError):
    """No ε on the search grid validated; carries the best candidate's record."""

    def __init__(self, trials):
        super().__init__("no epsilon candidate passed validation")
        self.trials = trials


# ρ of every lattice id k·2¹⁰ + j, evaluated once (168 KB)
_LATTICE_RHO = np.ldexp(1.0 + np.arange(OCTAVE) / OCTAVE,
                        -np.arange(len(GRID))[:, None]).ravel()
_LATTICE_RHO.setflags(write=False)


def lattice_rho(ids):
    """ρ(k, j) = ldexp(1 + j/2¹⁰, −k) of the lattice ids k·2¹⁰ + j, exactly,
    read from a table evaluated once.  ids must be lattice ids, integers in
    [0, 21·2¹⁰)."""
    return _LATTICE_RHO[ids]


class PCache:
    """Scheduled-ARE solutions in one table indexed by lattice id.

    Row i = k·2¹⁰ + j holds what the schedule reads of P at ρ =
    `lattice_rho(i)`: the quadratic form S = tr(BᵀPB)·P of g and the gain
    BᵀP, and `filled[i]` says whether it has been solved.  `complete[k]`
    says that octave k's stacked solve certified, and so filled, every row
    of it.  The arrays are allocated empty for the whole lattice, so only
    the pages of filled rows become resident.  Construction solves ρ = 1
    into row 0, which checks that the model is admissible.  The other rows
    are filled by `fill`, alone as they are asked for, and by octave, the
    slice [k·2¹⁰, (k+1)·2¹⁰) of octave k ≥ 1, from one stacked Lyapunov
    solve once STACK_AFTER of its rows have been asked for: a cache that
    probes an octave a few times pays a few solves, and one that probes it
    often pays at most about twice the stack.  Row 0 is octave 0's only ρ
    in (0, 1].  Every row holds exactly the bits that
    `solve_scheduled_are(model, ρ)` gives, whatever was filled before.
    """

    def __init__(self, model: AgentModel):
        self.model = model
        size, n, m = len(GRID) * OCTAVE, model.n, model.m
        self.S = np.empty((size, n, n))
        self.BtP = np.empty((size, m, n))
        self.filled = np.zeros(size, dtype=bool)
        self.complete = np.zeros(len(GRID), dtype=bool)
        self._asked = np.zeros(len(GRID), dtype=int)  # missing rows asked for
        self._fill(0, solve_scheduled_are(model, 1.0).P)

    def solution(self, rho: float) -> RiccatiSolution:
        """The certified solve at ρ, cold: the table is not consulted."""
        return solve_scheduled_are(self.model, rho)

    def g(self, rho: float, chi: np.ndarray) -> float:
        S, _ = _row(self.model.B, self.solution(rho).P)
        return float(_g(_kron(np.asarray(chi, dtype=float)), S.reshape(-1)))

    def fill(self, ids: np.ndarray) -> None:
        """Solve the rows of the lattice ids that are not filled yet.

        The missing ids are counted per octave.  An octave k ≥ 1 whose
        count reaches STACK_AFTER in this call gets one stacked Lyapunov
        solve (`riccati.scheduled_lyapunov`), which fills every row of it
        that the Lyapunov form certifies, and is complete if that is every
        row.  Every missing id left is then solved on its own, by the
        Hamiltonian method where the Lyapunov form does not certify; an
        octave's other rows stay unfilled until they are asked for.
        """
        missing = ~self.filled[ids]
        if not missing.any():
            return
        new = np.unique(ids[missing])
        asked = self._asked + np.bincount(new // OCTAVE, minlength=len(GRID))
        reached = (self._asked < STACK_AFTER) & (asked >= STACK_AFTER)
        self._asked = asked
        # octave 0's rows j > 0 lie above ρ = 1
        for k in np.flatnonzero(reached[1:]) + 1:
            rows = np.arange(k * OCTAVE, (k + 1) * OCTAVE)
            P, _, certified = scheduled_lyapunov(self.model,
                                                 lattice_rho(rows))
            self._fill(rows[certified], P)
            self.complete[k] = certified.all()
        new = new[~self.filled[new]]
        for i, rho in zip(new.tolist(), lattice_rho(new).tolist()):
            self._fill(i, self.solution(rho).P)

    def _fill(self, i, P):
        """Rows i from P: one row from (n, n), or rows from a stack."""
        self.S[i], self.BtP[i] = _row(self.model.B, P)
        self.filled[i] = True


def _row(B, P):
    """(S, BᵀP) with S = tr(BᵀPB)·P: the table rows of P (…, n, n)."""
    BtP = B.T @ P
    return np.trace(BtP @ B, axis1=-2, axis2=-1)[..., None, None] * P, BtP


def _kron(chi):
    """χ⊗χ of states chi (…, n), as (…, n²) in the order of vec S."""
    return (chi[..., :, None] * chi[..., None, :]).reshape(
        chi.shape[:-1] + (-1,))


def _g(kron, vec_S):
    """g = ⟨vec S, χ⊗χ⟩ over broadcast stacks of χ⊗χ (…, n²) and of table
    rows read as vec S (…, n²).

    `PCache.g` evaluates this same expression, so it and the schedule give
    the same bits."""
    return np.vecdot(kron, vec_S)


def _first_passing_level(kron, cache):
    """Per agent, the first grid level k with g(2⁻ᵏ, χ) ≤ 1, or -1 past the
    floor, from the agents' χ⊗χ (N, n²).

    The filled prefix of the grid is scanned at once, as one broadcast
    inner product of (N, 1, n²) against the scanned rows (levels, n²); a
    grid row that a public `PCache.fill` solved out of order is scanned
    only once the prefix reaches it.  While some agent fails every scanned
    level, the first unfilled level is filled and the scan repeated, so
    exactly the levels that scanning one agent at a time would probe get
    solved.  Each is a row asked for like any other, and counts toward its
    octave's stacked solve.
    """
    while True:
        levels = int(np.logical_and.accumulate(cache.filled[GRID_IDS]).sum())
        vec_S = cache.S[GRID_IDS[:levels]].reshape(levels, -1)
        ok = _g(kron[:, None, :], vec_S) <= 1.0
        passed = ok.any(axis=1)
        if passed.all() or levels == len(GRID):
            return np.where(passed, ok.argmax(axis=1), -1)
        cache.fill(GRID_IDS[levels:levels + 1])


def schedule(chi: np.ndarray, cache: PCache):
    """ε(χᵢ) and uᵢ = −BᵀP_ε χᵢ for the agent states chi (N, n).

    εᵢ is the largest ρ ∈ (0,1] with g(ρ, χᵢ) ≤ 1, to 1e-3 relative
    bisection width; returns (eps (N,), U (N, m)).  Raises
    ScheduleFloorError for the lowest-index agent past the floor.

    Each bisection step gathers one table row per agent and takes its inner
    product with χ⊗χ.  When every bisecting agent's octave is complete, the
    steps skip `cache.fill`, which would find every row filled.
    """
    chi = np.asarray(chi, dtype=float)
    kron = _kron(chi)
    k = _first_passing_level(kron, cache)
    past = np.flatnonzero(k < 0)
    if past.size:
        raise ScheduleFloorError(float(np.linalg.norm(chi[past[0]])))
    ids = k * OCTAVE
    b = np.flatnonzero(k)
    if b.size:  # bisect [2⁻ᵏ, 2⁻ᵏ⁺¹] on its lattice; ρ(k, lo) always passes
        lo, kron_b = ids[b], kron[b]
        vec_S = cache.S.reshape(len(cache.S), -1)
        complete = cache.complete[k[b]].all()
        for depth in range(1, BISECTION_DEPTH + 1):
            mid = lo + (OCTAVE >> depth)
            if not complete:
                cache.fill(mid)
            g = _g(kron_b, vec_S.take(mid, axis=0))
            np.copyto(lo, mid, where=g <= 1.0)
        ids[b] = lo
    U = -(cache.BtP.take(ids, axis=0) @ chi[:, :, None])[:, :, 0]
    return lattice_rho(ids), U


def epsilon_of_state(chi, cache: PCache) -> float:
    """Largest ρ ∈ (0,1] with g(ρ, χ) ≤ 1: `schedule` of the one state χ."""
    eps, _ = schedule(np.asarray(chi, dtype=float).reshape(1, -1), cache)
    return float(eps[0])


@dataclass(frozen=True)
class CompactSetSpec:
    """Axis-aligned boxes (half-widths around the origin) for initial states.

    agent/exo half-widths apply to each n-dimensional block; protocol
    half-widths apply to each protocol-state block.  Scalars broadcast.
    """

    agent: np.ndarray
    exo: np.ndarray
    protocol: np.ndarray

    def __post_init__(self):
        for name in ("agent", "exo", "protocol"):
            h = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(h) & (h >= 0)):
                raise ParameterError(
                    f"{name} half-widths must be finite and nonnegative"
                )
            h.setflags(write=False)
            object.__setattr__(self, name, h)

    def halfwidths(self, layout) -> np.ndarray:
        """Half-widths of the stacked state, in the order of `layout` (a
        protocols.StateLayout): agent for x_i, exo for x_r, protocol for χ_i
        and x̂_i."""

        def block(h, shape):
            if h.size not in (1, layout.n):
                raise ValueError(
                    "half-width length incompatible with state dimension"
                )
            return np.broadcast_to(h, shape)

        agents = (layout.N, layout.n)
        protocol = block(self.protocol, agents)
        return layout.pack(block(self.agent, agents),
                           block(self.exo, (layout.n,)), protocol, protocol)


@dataclass
class EpsilonTrial:
    """Outcome of validating one candidate ε.

    Validation stops at the first failing sample, so for a failed trial
    max_control and final_sync_error are the worst over the samples checked
    up to and including that one, not over the whole sample set; the true
    worst |u| over all samples can be far larger.
    """

    epsilon: float
    passed: bool
    max_control: float
    final_sync_error: float
    violation: Optional[str] = None


@dataclass
class SelectionReport:
    epsilon_star: Optional[float]
    n_samples: int = 0
    horizon: float = T_VAL
    margin: float = SAT_MARGIN
    tolerance: float = TOL_VAL
    method: str = "simulation-validated grid search"
    trials: list[EpsilonTrial] = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def sample_box_vertices(halfwidths: np.ndarray) -> np.ndarray:
    """Distinct box vertices: all 2^d of them for d ≤ 8 active coordinates,
    else 256 pairwise non-antipodal ones plus the origin.

    Vertex v < 2^b = min(2^d, MAX_VERTEX_SAMPLES) has sign
    2·parity(v & mask_k) − 1 on active coordinate k, with the unit masks
    first and then the other nonzero b-bit masks (3 = 1 ⊕ 2 next), cycled.
    """
    h = np.asarray(halfwidths, dtype=float)
    active = np.nonzero(h > 0)[0]
    d = active.size
    b = min(d, MAX_VERTEX_SAMPLES.bit_length() - 1)
    bits = (np.arange(2**b)[:, None] >> np.arange(b)) & 1  # row v: bits of v
    units = [1 << k for k in range(b)]
    masks = units + [v for v in range(1, 2**b) if v not in units]
    mask_bits = bits[[masks[k % len(masks)] for k in range(d)]]
    signs = 2.0 * ((bits @ mask_bits.T) % 2) - 1.0
    if d > b:
        signs = np.vstack([signs, np.zeros((1, d))])
    samples = np.zeros((signs.shape[0], h.size))
    samples[:, active] = signs * h[active]
    return samples


def select_semiglobal_epsilon(
    model: AgentModel,
    net,
    sets: CompactSetSpec,
    coupling: str,
    *,
    horizon: float = T_VAL,
) -> SelectionReport:
    """Largest grid ε whose closed loop, simulated from every sampled initial
    condition, stays strictly inside the saturation bound and synchronizes.

    coupling is "full" or "partial".  Returns a SelectionReport whose
    epsilon_star is the selected ε*.
    """
    from . import protocols  # late import: protocols depends on this module

    partial = coupling == "partial"
    observer_gain = riccati.design_observer_gain(model) if partial else None
    layout = protocols.StateLayout(net.N, model.n, partial)
    samples = sample_box_vertices(sets.halfwidths(layout))
    trials = []
    eps = EPS0
    while eps >= EPS_FLOOR:
        kind = protocols.ProtocolKind(
            "semiglobal", coupling, epsilon=eps, observer_gain=observer_gain,
        )
        trials.append(_validate_epsilon(model, net, kind, samples, horizon))
        if trials[-1].passed:
            return SelectionReport(
                epsilon_star=eps, n_samples=samples.shape[0], horizon=horizon,
                trials=trials,
            )
        eps *= EPS_RATIO
    raise SelectionError(trials)


def _validate_epsilon(model, net, kind, samples, horizon) -> EpsilonTrial:
    """Simulate the closed loop from each sample in order; stop at the first
    that breaks the control margin or is not synchronized at the horizon.

    The trial's two worst-case values cover only the samples simulated so
    far: all of them when it passes, those up to the first failure when it
    does not.
    """
    from . import protocols, sim

    field_fn = protocols.ClosedLoopField(model, net, kind)
    max_u = worst_err = 0.0
    for z0 in samples:
        traj = sim.integrate(
            field_fn, z0, (0.0, horizon), method="adaptive_rk45",
            rtol=1e-6, atol=1e-8,
        )
        metrics = sim.sync_metrics(traj, TOL_VAL)
        u_inf = metrics.max_control_inf_norm
        err = float(metrics.error_series[-1])
        max_u = max(max_u, u_inf)
        worst_err = max(worst_err, err)
        violation = None
        if u_inf > 1.0 - SAT_MARGIN:
            violation = (
                f"control bound violated: ‖u‖∞={u_inf:.4g} > {1.0 - SAT_MARGIN}"
            )
        elif err >= TOL_VAL:
            violation = f"sync error {err:.4g} ≥ {TOL_VAL} at t={horizon}"
        if violation is not None:
            return EpsilonTrial(kind.epsilon, False, max_u, worst_err, violation)
    return EpsilonTrial(kind.epsilon, True, max_u, worst_err)
