"""State-dependent gain schedule ε(χ) and semi-global ε* selection.

The schedule picks the largest ρ ∈ (0,1] for which

    g(ρ, χ) = χᵀP_ρχ · trace(BᵀP_ρB) ≤ 1,

which keeps ‖BᵀP_ρχ‖ ≤ 1 so the control never saturates.  g is nondecreasing
in ρ, so the maximizer is found by scanning a dyadic grid and bisecting the
bracketing interval.  Every ρ probed or returned lies on the dyadic lattice

    ρ(k, j) = 2⁻ᵏ + 2⁻ᵏ·j/2¹⁰,   octave k ∈ [0, 20], index j ∈ [0, 2¹⁰),

whose points are exact binary floats, so on-demand ARE solves are shared
across calls and all agents are scheduled together as array operations.

The semi-global ε* has no constructive formula; it is selected by validating
candidate ε values on closed-loop simulations from a deterministic sample of
the prescribed compact sets.
"""

from __future__ import annotations

import math
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


class PCache:
    """Memo of scheduled-ARE solutions, keyed by ρ, with packed lattice rows.

    Construction solves ρ = 1 only, which validates the model; every other ρ
    the schedule probes is solved on first request and memoized.  Every
    entry is a cold solve, so `solution(ρ).P` is exactly
    `solve_scheduled_are(model, ρ).P` whatever was cached before.

    The schedule reads lattice points ids = k·2¹⁰ + j through `rows(ids)`.
    The first time a point is needed, ρ and the P, tr(BᵀPB) and BᵀP of
    `solution(ρ)` are copied into one row of the packed arrays `rho`, `P`,
    `trace` and `BtP`, which grow by doubling, so their memory follows the
    rows actually solved.
    """

    def __init__(self, model: AgentModel):
        self.model = model
        self._solutions: dict[float, RiccatiSolution] = {
            1.0: solve_scheduled_are(model, 1.0)
        }
        n, m = model.n, model.m
        self._row = np.full(len(GRID) * OCTAVE, -1, dtype=np.int32)
        self._n_rows = 0
        self.grid_levels = 0  # rows of the grid points 2⁻ᵏ, k < grid_levels
        self.rho = np.empty(1)
        self.P = np.empty((1, n, n))
        self.trace = np.empty(1)
        self.BtP = np.empty((1, m, n))

    def solution(self, rho: float) -> RiccatiSolution:
        sol = self._solutions.get(rho)
        if sol is None:
            sol = solve_scheduled_are(self.model, rho, validate_model=False)
            self._solutions[rho] = sol
        return sol

    def g(self, rho: float, chi: np.ndarray) -> float:
        P, B = self.solution(rho).P, self.model.B
        return float(chi @ P @ chi) * float(np.trace(B.T @ P @ B))

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Packed-row indices of the lattice points ids, filling each
        missing row from `solution`."""
        rows = self._row[ids]
        if rows.size and rows.min() < 0:
            for i in ids[rows < 0].tolist():
                if self._row[i] < 0:
                    self._fill(i)
            rows = self._row[ids]
        return rows

    def _fill(self, i):
        r = self._n_rows
        if r == len(self.trace):
            self.rho, self.P, self.trace, self.BtP = (
                np.concatenate((a, np.empty_like(a)))
                for a in (self.rho, self.P, self.trace, self.BtP)
            )
        k, j = divmod(i, OCTAVE)
        self.rho[r] = rho = math.ldexp(1.0 + j / OCTAVE, -k)
        P, B = self.solution(rho).P, self.model.B
        self.P[r] = P
        self.BtP[r] = B.T @ P
        self.trace[r] = np.trace(self.BtP[r] @ B)
        self._row[i] = r
        self._n_rows += 1
        if j == 0:  # the scan fills grid points in order k = 0, 1, …
            self.grid_levels += 1


def _g(chi_row, chi_col, P, trace):
    """g = (χ·P)·χ · trace over broadcast stacks of χ as rows (…, 1, n) and
    columns (…, n, 1) and of P (…, n, n).

    This association gives the same bits as `PCache.g`."""
    return ((chi_row @ P) @ chi_col)[..., 0, 0] * trace


def _first_passing_level(chi, cache):
    """Per agent, the first grid level k with g(2⁻ᵏ, χ) ≤ 1, or -1 past the
    floor.

    All filled levels are scanned at once; the next level is filled only
    when some agent fails every filled one, so exactly the levels that
    scanning one agent at a time would probe get solved.
    """
    levels = max(1, cache.grid_levels)
    r = cache.rows(GRID_IDS[:levels])
    ok = _g(chi[:, None, None, :], chi[:, None, :, None],
            cache.P.take(r, axis=0), cache.trace.take(r)) <= 1.0
    first = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
    todo = np.flatnonzero(first < 0)
    for k in range(levels, len(GRID)):
        if not todo.size:
            break
        r = cache.rows(GRID_IDS[k:k + 1])
        ok = _g(chi[todo, None, :], chi[todo, :, None],
                cache.P[r[0]], cache.trace[r[0]]) <= 1.0
        first[todo[ok]] = k
        todo = todo[~ok]
    return first


def schedule(chi: np.ndarray, cache: PCache):
    """ε(χᵢ) and uᵢ = −BᵀP_ε χᵢ for the agent states chi (N, n).

    εᵢ is the largest ρ ∈ (0,1] with g(ρ, χᵢ) ≤ 1, to 1e-3 relative
    bisection width; returns (eps (N,), U (N, m)).  Raises
    ScheduleFloorError for the lowest-index agent past the floor, after
    solving what scheduling the agents ahead of it one at a time would.
    """
    chi = np.asarray(chi, dtype=float)
    k = _first_passing_level(chi, cache)
    past = np.flatnonzero(k < 0)
    if past.size:
        schedule(chi[:past[0]], cache)
        raise ScheduleFloorError(float(np.linalg.norm(chi[past[0]])))
    ids = k * OCTAVE
    b = np.flatnonzero(k)
    if b.size:  # bisect [2⁻ᵏ, 2⁻ᵏ⁺¹] on its lattice; ρ(k, lo) always passes
        lo, chi_row, chi_col = ids[b], chi[b, None, :], chi[b, :, None]
        for depth in range(1, BISECTION_DEPTH + 1):
            mid = lo + (OCTAVE >> depth)
            r = cache.rows(mid)
            g = _g(chi_row, chi_col, cache.P.take(r, axis=0),
                   cache.trace.take(r))
            np.copyto(lo, mid, where=g <= 1.0)
        ids[b] = lo
    r = cache.rows(ids)
    U = -(cache.BtP.take(r, axis=0) @ chi[:, :, None])[:, :, 0]
    return cache.rho.take(r), U


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
