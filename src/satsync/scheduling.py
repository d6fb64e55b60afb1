"""State-dependent gain schedule ε(χ) and semi-global ε* selection.

The global protocols use ε(χ), the largest ρ ∈ (0,1] with

    g(ρ, χ) = χᵀP_ρχ · trace(BᵀP_ρB) = χᵀS_ρχ = ⟨vec S_ρ, χ⊗χ⟩ ≤ 1,

which keeps ‖BᵀP_ρχ‖ ≤ 1 so the control never saturates.  g is
nondecreasing in ρ, so ε(χ) is the root of g = 1 and moves continuously
with χ.  `PCache` solves the scheduled ARE at the 641 values of
`TABLE_RHO` when it is built: ρ = 1, then 32 rows per octave down to
2⁻²⁰.  `schedule` reads the whole table in one scan per call: it takes the
certified row of largest ρ with g ≤ 1 and interpolates the quadratic form S
toward the next larger row, to where g reaches 1 − 2⁻⁴⁰.  At 32 rows per
octave, ε on 3,000 random states of the triple integrator (scales 10⁻¹ …
10⁵) agrees with the largest g ≤ 1 point of a lattice of 2¹⁰ points per
octave, found by bisection, to −3.9e-4 … +9.1e-4 relative.  A row no
solver certifies holds NaN and reads as failing.

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
    RiccatiError,
    RiccatiSolution,
    scheduled_hamiltonian,
    scheduled_lyapunov,
    solve_scheduled_are,
)

RHO_MIN = 2.0**-20
ROWS_PER_OCTAVE = 32
# ρ of each table row, largest first: 1, then 2⁻ᵏ(1 + j/32) for octaves
# k = 1 … 20 and j = 31 … 0, all exact binary floats; row 32k is 2⁻ᵏ
TABLE_RHO = np.concatenate(([1.0], np.ldexp(
    1.0 + np.arange(ROWS_PER_OCTAVE - 1, -1, -1) / ROWS_PER_OCTAVE,
    -np.arange(1, 21)[:, None]).ravel()))
TABLE_RHO.setflags(write=False)
# the value of g the interpolation aims at: 2¹² ulps below 1, room for the
# rounding of g between two rows
ONE_MINUS = 1.0 - 2.0**-40
# states per scan: the scan's g array is then at most 128 × 641 doubles
_PART = 128
_TINY = np.finfo(float).tiny

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
    """g > 1 at every certified table row, ρ_min among them: the state left
    the region the schedule can serve."""

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
    """The scheduled ARE solved at every ρ of `TABLE_RHO`, when it is built.

    Row i holds what the schedule reads of P at ρ = TABLE_RHO[i]: the
    quadratic form S = t·P of g, with t = tr(BᵀPB), and the record
    (ρ, t², vec BᵀS) that the schedule interpolates, BᵀS = t·BᵀP.  Row 0
    is the checked `solve_scheduled_are(model, 1.0)`, which raises
    RiccatiError unless the model is admissible.  Rows 1–640 come from one
    stacked Lyapunov solve (`riccati.scheduled_lyapunov`).  A row it does
    not certify, which a lone Lyapunov solve would not certify either,
    comes from the Hamiltonian solve that `solve_scheduled_are` falls back
    to (`riccati.scheduled_hamiltonian`), or holds NaN where no solver
    certifies.  So every row is that of `solve_scheduled_are(model, ρ)`,
    bit for bit, or NaN.  On the triple integrator the stack certifies
    every row and a build takes about 10 ms; rows that fall to the
    Hamiltonian method cost about 0.3 ms each, so a table on a random test
    model takes 0.05–0.3 s.

    `table` holds vec S of every row as the columns of one (n², 641) array,
    the layout the schedule's scan reads, and `S` (641, n, n) is a view of
    it; `gain` holds the records as its rows (641, 2 + m·n).  `cell` (n², 1)
    is vec(S₀ + cI), the form `at_full_gain` tests, and `full_gain` (m, n)
    is the gain K₁ = −BᵀS₀/τ₀ that `schedule` gives a state in that cell,
    u = K₁χ, with its rule τ₀ = √max(t², tiny), so K₁ = 0 where P₁ = 0, as
    where A + I/2 is Hurwitz.
    """

    def __init__(self, model: AgentModel):
        self.model = model
        P = np.full((len(TABLE_RHO), model.n, model.n), np.nan)
        P[0] = solve_scheduled_are(model, 1.0).P
        stacked, _, certified = scheduled_lyapunov(model, TABLE_RHO[1:])
        P[1:][certified] = stacked
        for i in np.flatnonzero(~certified) + 1:
            try:
                P[i] = scheduled_hamiltonian(model, float(TABLE_RHO[i])).P
            except RiccatiError:  # no solver certifies the row: NaN
                pass
        S, BtS, t2 = _rows(model.B, P)
        self.table = np.ascontiguousarray(S.reshape(len(P), -1).T)
        self.S = self.table.T.reshape(S.shape)
        self.gain = np.column_stack((TABLE_RHO, t2, BtS.reshape(len(P), -1)))
        gamma = riccati._gamma(model.n**2)  # n² terms of ⟨vec S, χ⊗χ⟩
        cell = S[0] + 8.0 * gamma * np.linalg.norm(S[0]) * np.eye(model.n)
        self.cell = cell.reshape(-1, 1)
        self.full_gain = -BtS[0] / np.sqrt(max(t2[0], _TINY))

    def solution(self, rho: float) -> RiccatiSolution:
        """The certified solve at ρ, cold: the table is not consulted."""
        return solve_scheduled_are(self.model, rho)

    def g(self, rho: float, chi: np.ndarray) -> float:
        """g(ρ, χ) = ⟨vec S_ρ, χ⊗χ⟩ of a cold solve at ρ."""
        S = _rows(self.model.B, self.solution(rho).P)[0]
        kron = _kron(np.asarray(chi, dtype=float).reshape(1, -1))
        return float(_g(kron, S.reshape(-1, 1))[0, 0])


def _rows(B, P):
    """(S, BᵀS, t²) with t = tr(BᵀPB) and S = t·P: the table rows of P
    (…, n, n)."""
    BtP = B.T @ P
    t = np.trace(BtP @ B, axis1=-2, axis2=-1)
    return t[..., None, None] * P, t[..., None, None] * BtP, t * t


def _kron(chi):
    """χ⊗χ of states chi (N, n), as (N, n²) in the order of vec S."""
    return (chi[:, :, None] * chi[:, None, :]).reshape(len(chi), -1)


def _g(kron, table):
    """g = ⟨vec S, χ⊗χ⟩ of each χ⊗χ of kron (N, n²) with each column vec S
    of table (n², R): (N, R).  It is a stack of N one-row products, each
    made by the same BLAS call, so a state's g has the same bits whatever
    other states are in the call; one (N, n²) product would not."""
    return (kron[:, None, :] @ table)[:, 0]


def schedule(chi: np.ndarray, cache: PCache):
    """ε(χᵢ) and the controls uᵢ of the agent states chi (N, n); returns
    (eps (N,), U (N, m)).

    One scan takes g at every row of the table, and j is the certified row
    of largest ρ with g ≤ 1.  Raises ScheduleFloorError for the
    lowest-index state with g > 1 at every certified row.  The next larger
    row j⁺ has g > 1 or holds NaN.  S_λ = (1 − λ)S_j + λS_{j⁺} makes g
    linear in λ, so

        λ = (1⁻ − g_j)/(g_{j⁺} − g_j),  1⁻ = `ONE_MINUS`,

    clipped at 0, gives g_λ = 1⁻.  λ = 0 at row 0 and where row j⁺ holds
    NaN.  Then ε = ρ_j + λ(ρ_{j⁺} − ρ_j), at least ρ_j, and u = −BᵀP̃χ
    with P̃ = S_λ/τ and τ² = (1 − λ)t_j² + λt_{j⁺}².  P̃ is PSD and
    tr(BᵀP̃B) = τ, so g(P̃, χ) = χᵀS_λχ = g_λ ≤ 1, and Cauchy–Schwarz gives
    ‖u‖² ≤ χᵀP̃χ·tr(BᵀP̃B) ≤ 1.  P̃ is not itself an ARE solution, and
    neither is a table row's P at ε: no ARE is solved at ε, which is in
    general not a table row.

    A state's g and ε have the same bits whatever other states are in the
    call (`_g`).  Its u does per BLAS kernel: u is one stacked
    (m×n)·(n×1) product, whose bits under OpenBLAS's Prescott kernel can
    differ from a call on the state alone (ROADMAP item 24).

    States are scanned in parts of at most 128, so a call on a whole
    trajectory's states holds at most 128 × 641 values of g at once.  A
    state whose χ⊗χ overflows has g = inf or nan at every row, so it is
    past the floor; the scan runs with numpy's overflow and invalid-value
    warnings off, so it raises no warning on the way.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _schedule(chi, cache)


def _schedule(chi, cache):
    """`schedule` with numpy's warnings as the caller set them.  The
    closed-loop field calls it, and `sim.integrate` runs the field with
    them off; entering `np.errstate` would cost a warm call about 2 µs."""
    chi = np.asarray(chi, dtype=float)
    if len(chi) <= _PART:
        return _scan(chi, cache)
    eps, U = zip(*(_scan(chi[first:first + _PART], cache)
                   for first in range(0, len(chi), _PART)))
    return np.concatenate(eps), np.concatenate(U)


def at_full_gain(chi, cache: PCache):
    """Whether each agent state of chi (…, n) is in the cell where
    `schedule` gives it ε = 1.0 exactly: ⟨vec S₀⁺, χ⊗χ⟩ ≤ 1, with S₀⁺ =
    `cache.cell` = S₀ + cI, c = 8γ‖S₀‖_F and γ = n²u/(1 − n²u), u the unit
    roundoff.

    Any evaluation of a product ⟨s, κ⟩ of n² terms is within γ‖s‖‖κ‖ of its
    exact value (Higham, Accuracy and Stability of Numerical Algorithms,
    §3.1), whatever the order of its sum, and ‖χ⊗χ‖ ≤ (1 + 3u)·Σᵢ χᵢ², so
    the added c‖χ‖² exceeds the rounding of both products.  This test's g
    is then at least the scan's g at row 0, so a state it passes gets j = 0
    and λ = 0 there, however the BLAS orders either sum.  The cell is g ≤ 1
    shrunk by at most c/λ_min(S₀) relative, about 5e-13 on the triple
    integrator.  It is a stack of one-row products, as in `_g`, so a state
    reads the same whatever other states are in the call; a state whose
    χ⊗χ overflows reads as outside, with numpy's warnings as the caller
    set them."""
    g = _g(_kron(chi.reshape(-1, chi.shape[-1])), cache.cell)
    return (g <= 1.0).reshape(chi.shape[:-1])


def _scan(chi, cache):
    """`schedule` of at most `_PART` states."""
    g = _g(_kron(chi), cache.table)
    j = (g <= 1.0).argmax(axis=1)  # rows run from the largest ρ down
    agents = np.arange(len(chi))
    g_j = g[agents, j]
    passed = g_j <= 1.0
    # count_nonzero: on a few dozen agents, a third of the cost of .all()
    if np.count_nonzero(passed) < passed.size:
        from .sim import _norm  # rescaled where χ·χ overflows
        raise ScheduleFloorError(_norm(chi[passed.argmin()]))
    up = np.maximum(j - 1, 0)
    g_up = g[agents, up]
    toward = g_up > 1.0  # j > 0 and row j⁺ is certified
    up = np.where(toward, up, j)
    # λ = 0 where the rule does not interpolate: finite/inf, no 0/0
    lam = np.fmax((ONE_MINUS - g_j) / np.where(toward, g_up - g_j, np.inf),
                  0.0)
    row = cache.gain[j]  # (ρ, τ², vec BᵀS_λ) at λ, in place
    row += lam[:, None] * (cache.gain[up] - row)
    # τ² is 0 only where S_λ is, as on the rows P = 0 of a Hurwitz A: then
    # u = 0
    tau = np.sqrt(np.fmax(row[:, 1], _TINY))
    U = (row[:, 2:].reshape(chi.shape[0], -1, chi.shape[1])
         @ chi[:, :, None])[:, :, 0]
    U /= -tau[:, None]
    return row[:, 0], U


def epsilon_of_state(chi, cache: PCache) -> float:
    """ε(χ), the root of g(ρ, χ) = 1 in (0, 1] as `schedule` interpolates
    it, of the one state χ."""
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
            # a copy: the spec freezes it
            h = np.atleast_1d(np.array(getattr(self, name), dtype=float))
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

    max_control is |u| at the accepted states and at the check points of
    RK45's Taylor kernel, eight a step (`sim.SyncMetrics`), not over
    continuous time, so it moves with the step sequence; SAT_MARGIN is
    judged on that sampled peak.
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

    if coupling not in ("full", "partial"):
        raise protocols.ProtocolError(f"unknown coupling {coupling!r}")
    partial = coupling == "partial"
    observer_gain = riccati.design_observer_gain(model) if partial else None
    layout = protocols.StateLayout(net.N, model.n, partial)
    samples = sample_box_vertices(sets.halfwidths(layout))
    trials = []
    eps = EPS0
    while eps >= EPS_FLOOR:
        kind = protocols.ProtocolKind(epsilon=eps, observer_gain=observer_gain)
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
        traj = sim.integrate(field_fn, z0, (0.0, horizon), rtol=1e-6,
                             atol=1e-8)
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
