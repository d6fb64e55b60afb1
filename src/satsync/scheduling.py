"""State-dependent gain schedule ε(χ) and semi-global ε* selection.

The schedule picks the largest ρ ∈ (0,1] for which

    g(ρ, χ) = χᵀP_ρχ · trace(BᵀP_ρB) ≤ 1,

which keeps ‖BᵀP_ρχ‖ ≤ 1 so the control never saturates.  g is nondecreasing
in ρ, so the maximizer is found by scanning a dyadic grid and bisecting the
bracketing interval.  Bisection probes live on a fixed binary subdivision of
each grid interval so that on-demand ARE solves are shared across calls.

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
    """Memo of scheduled-ARE solutions, keyed by ρ.

    Construction solves ρ = 1 only, which validates the model; every other ρ
    the schedule probes is solved on first request and memoized.  Every
    entry is a cold solve, so `solution(ρ).P` is exactly
    `solve_scheduled_are(model, ρ).P` whatever was cached before.
    """

    def __init__(self, model: AgentModel):
        self.model = model
        self._solutions: dict[float, RiccatiSolution] = {}
        self._trace: dict[float, float] = {}
        self._store(1.0, solve_scheduled_are(model, 1.0))

    def _store(self, rho, sol):
        self._solutions[rho] = sol
        B = self.model.B
        self._trace[rho] = float(np.trace(B.T @ sol.P @ B))

    def solution(self, rho: float) -> RiccatiSolution:
        sol = self._solutions.get(rho)
        if sol is None:
            sol = solve_scheduled_are(self.model, rho, validate_model=False)
            self._store(rho, sol)
        return sol

    def g(self, rho: float, chi: np.ndarray) -> float:
        sol = self.solution(rho)
        return float(chi @ sol.P @ chi) * self._trace[rho]


def epsilon_of_state(chi, cache: PCache) -> float:
    """Largest ρ ∈ (0,1] with g(ρ, χ) ≤ 1, to 1e-3 relative bisection width."""
    chi = np.asarray(chi, dtype=float).reshape(-1)
    if cache.g(1.0, chi) <= 1.0:
        return 1.0
    lo = None
    for k in range(1, len(GRID)):
        if cache.g(GRID[k], chi) <= 1.0:
            lo, hi = k, k - 1
            break
    if lo is None:
        raise ScheduleFloorError(float(np.linalg.norm(chi)))
    # bisect on the fixed dyadic subdivision of [GRID[lo], GRID[hi]]
    rho_lo, rho_hi = GRID[lo], GRID[hi]
    width = rho_hi - rho_lo
    j_lo, j_hi = 0, 2**BISECTION_DEPTH  # j_lo passes, j_hi fails
    for _ in range(BISECTION_DEPTH):
        j_mid = (j_lo + j_hi) // 2
        rho_mid = rho_lo + width * (j_mid / 2**BISECTION_DEPTH)
        if cache.g(rho_mid, chi) <= 1.0:
            j_lo = j_mid
        else:
            j_hi = j_mid
    return rho_lo + width * (j_lo / 2**BISECTION_DEPTH)


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
