"""State-dependent gain schedule ε(χ) and semi-global ε* selection.

The schedule picks the largest ρ ∈ (0,1] for which

    g(ρ, χ) = χᵀP_ρχ · trace(BᵀP_ρB) ≤ 1,

which keeps ‖BᵀP_ρχ‖ ≤ 1 so the control never saturates.  g is nondecreasing
in ρ, so the maximizer is found by scanning a dyadic grid and bisecting the
bracketing interval.  Every ρ probed or returned lies on the dyadic lattice

    ρ(k, j) = 2⁻ᵏ + 2⁻ᵏ·j/2¹⁰,   octave k ∈ [0, 20], index j ∈ [0, 2¹⁰),

whose points are exact binary floats.  `PCache` holds one row per lattice
point, at its id k·2¹⁰ + j, filled on first probe, so ARE solves are shared
across calls and all agents are scheduled together as array operations.

The semi-global ε* has no constructive formula; it is selected by validating
candidate ε values on closed-loop simulations from a deterministic sample of
the prescribed compact sets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .model import AgentModel
from .riccati import ParameterError, RiccatiSolution, solve_scheduled_are

RHO_MIN = 2.0**-20
GRID = tuple(2.0**-k for k in range(21))  # 1, 1/2, ..., 2^-20
BISECTION_DEPTH = 10  # relative interval width 2^-10 < 1e-3
OCTAVE = 2**BISECTION_DEPTH  # lattice points per grid interval
GRID_IDS = np.arange(len(GRID)) * OCTAVE  # lattice ids k·2¹⁰ of the grid

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


def lattice_rho(ids):
    """ρ(k, j) = ldexp(1 + j/2¹⁰, −k) of the lattice ids k·2¹⁰ + j, exactly."""
    k, j = np.divmod(ids, OCTAVE)
    return np.ldexp(1.0 + j / OCTAVE, -k)


class PCache:
    """Scheduled-ARE solutions in one table indexed by lattice id.

    Row i = k·2¹⁰ + j holds P, BᵀP and tr(BᵀPB) of ρ = `lattice_rho(i)`, and
    `filled[i]` says whether it has been solved.  The arrays are allocated
    empty for the whole lattice, so only the pages of filled rows become
    resident.  Construction solves ρ = 1 into row 0, which validates the
    model; every other row is filled by `fill` when the schedule first
    probes it.  Each row is one cold solve, so it holds exactly the bits of
    `solve_scheduled_are(model, ρ)` whatever was filled before, and the
    rows of octave k are the slice [k·2¹⁰, (k+1)·2¹⁰).
    """

    def __init__(self, model: AgentModel):
        self.model = model
        size, n, m = len(GRID) * OCTAVE, model.n, model.m
        self.P = np.empty((size, n, n))
        self.BtP = np.empty((size, m, n))
        self.trace = np.empty(size)
        self.filled = np.zeros(size, dtype=bool)
        self._fill(0, solve_scheduled_are(model, 1.0))

    def solution(self, rho: float) -> RiccatiSolution:
        """The certified solve at ρ, cold: the table is not consulted."""
        return solve_scheduled_are(self.model, rho, validate_model=False)

    def g(self, rho: float, chi: np.ndarray) -> float:
        P, B = self.solution(rho).P, self.model.B
        return float(chi @ P @ chi) * float(np.trace(B.T @ P @ B))

    def fill(self, ids: np.ndarray) -> None:
        """Solve the rows of the lattice ids that are not filled yet."""
        missing = ~self.filled[ids]
        if missing.any():
            new = np.unique(ids[missing])
            for i, rho in zip(new.tolist(), lattice_rho(new).tolist()):
                self._fill(i, self.solution(rho))

    def _fill(self, i, sol):
        B = self.model.B
        self.P[i] = sol.P
        self.BtP[i] = B.T @ sol.P
        self.trace[i] = np.trace(self.BtP[i] @ B)
        self.filled[i] = True


def _g(chi_row, chi_col, P, trace):
    """g = (χ·P)·χ · trace over broadcast stacks of χ as rows (…, 1, n) and
    columns (…, n, 1) and of P (…, n, n).

    This association gives the same bits as `PCache.g`."""
    return ((chi_row @ P) @ chi_col)[..., 0, 0] * trace


def _first_passing_level(chi, cache):
    """Per agent, the first grid level k with g(2⁻ᵏ, χ) ≤ 1, or -1 past the
    floor.

    The filled prefix of the grid is scanned at once; a grid row that a
    public `PCache.fill` solved out of order is scanned only once the
    prefix reaches it.  While some agent fails every scanned level, the
    first unfilled level is filled and the scan repeated, so exactly the
    levels that scanning one agent at a time would probe get solved.
    """
    while True:
        levels = int(np.logical_and.accumulate(cache.filled[GRID_IDS]).sum())
        ids = GRID_IDS[:levels]
        ok = _g(chi[:, None, None, :], chi[:, None, :, None],
                cache.P[ids], cache.trace[ids]) <= 1.0
        passed = ok.any(axis=1)
        if passed.all() or levels == len(GRID):
            return np.where(passed, ok.argmax(axis=1), -1)
        cache.fill(GRID_IDS[levels:levels + 1])


def schedule(chi: np.ndarray, cache: PCache):
    """ε(χᵢ) and uᵢ = −BᵀP_ε χᵢ for the agent states chi (N, n).

    εᵢ is the largest ρ ∈ (0,1] with g(ρ, χᵢ) ≤ 1, to 1e-3 relative
    bisection width; returns (eps (N,), U (N, m)).  Raises
    ScheduleFloorError for the lowest-index agent past the floor.
    """
    chi = np.asarray(chi, dtype=float)
    k = _first_passing_level(chi, cache)
    past = np.flatnonzero(k < 0)
    if past.size:
        raise ScheduleFloorError(float(np.linalg.norm(chi[past[0]])))
    ids = k * OCTAVE
    b = np.flatnonzero(k)
    if b.size:  # bisect [2⁻ᵏ, 2⁻ᵏ⁺¹] on its lattice; ρ(k, lo) always passes
        lo, chi_row, chi_col = ids[b], chi[b, None, :], chi[b, :, None]
        for depth in range(1, BISECTION_DEPTH + 1):
            mid = lo + (OCTAVE >> depth)
            cache.fill(mid)
            g = _g(chi_row, chi_col, cache.P.take(mid, axis=0),
                   cache.trace.take(mid))
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
    observer_gain = None
    if partial:
        # late: read at call time, where perfbench's tracer wraps it; a
        # top-level import would hide this design from riccati.observer
        from .riccati import design_observer_gain

        observer_gain = design_observer_gain(model)
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
