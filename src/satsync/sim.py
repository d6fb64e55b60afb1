"""ODE integration of closed-loop fields and trajectory diagnostics.

Two explicit Runge-Kutta methods, chosen by whether a step is given:
classic RK4 at a fixed step dt, and otherwise adaptive Dormand-Prince RK45
at the tolerances rtol and atol.  A field exposing a `control_info(t, z)`
method gets the pre-saturation controls (and realized schedule values,
when present) of every accepted state recorded.  The field must be a pure
function of the state, and `control_info` must accept a stack of states
(T, dim) with their times (T,): it is called once per run, on all
accepted states at once.

RK45 has one step-size controller and one accept path, and two kernels for
an attempted step.  An attempt is a pure function of (t, z, k1 = f(t, z),
h) and, for the Taylor kernel, of the Krylov block of z and the tolerance
at z.  The block is the loop's one Taylor state: the block of z when
attempts from z may be Taylor ones, and None otherwise.  They may when the
field has a `linear_part` (L, inside) and z is in its cell, where
ż = L z: `inside(z)` returns the magnitudes |u| of the linear controls,
or inf, and z is in the cell where they are all at most 1.  The loop
tests this at t0 and after each stage-loop step; a Taylor step ends at its
own last check point, which passed the same test.  It builds the block at
t0 and at each accepted state before tf that passes, and since the block
depends on z alone, a retry at the same z keeps it; the loop carries
nothing else between attempts.  Each kernel returns the order of its error
estimate, err = O(h^order), and the controller scales the attempted h by
0.9·(tol/err)^(1/order), within [0.2, 5].  The first step is sized by the
starting-step rule of Hairer, Nørsett & Wanner (Solving ODEs I, §II.4), in
the norm of the loop's error test, for the order of the kernel that takes
the first attempt: p + 1 = 17 when z0 may take Taylor attempts and its
block is finite, else 5.  The rule probes the field once, at t0 + h0 along
the slope at t0.

- the Taylor kernel, while the state stays in the cell: for the semiglobal
  protocols while their controls are unsaturated, and for the global ones
  while every agent is at ε = 1.  There z(t + h) = e^{hL} z, and the
  kernel sums its Taylor polynomial of degree p = 16 (Al-Mohy & Higham,
  "Computing the action of the matrix exponential", SIAM J. Sci. Comput.
  33, 2011).  One product of a 10-row polynomial matrix with the Krylov
  block of z, [z, k1, L k1, …, Lᵖ k1] = [Lᵏ z], k ≤ p + 1, gives rows 0–7
  the check points z(θh), θ = 1/8, …, 1 (row 7 the result z(h)), row 8 the
  first omitted term (hL)^(p+1)/(p+1)! z, whose norm is the error estimate
  (order p + 1 = 17), and row 9 the FSAL slope L z(h).  Every check point
  is tested with `inside`, and a finite product certifies the step: the
  kernel makes no field call.  The error estimate is at least a bound on
  the rounding of the sum z(h), so where the terms (hL)ᵏ/k! z cancel the
  step shrinks until that rounding fits the tolerance.  The kernel caps
  each attempt at the block's reach, the h at which the first omitted
  term, read from the block's last row L^(p+1) z, is 0.9^(p+1) of the
  tolerance at z, so the controller's growth does not overshoot the step
  that term allows, and returns the h it covers or hands on to the stage
  loop.  The block takes p products with L, so the kernel holds O(dim)
  doubles besides L.  `IntegratorStats.n_linear_steps` counts the
  kernel's steps.  They are long, so the controls recorded at accepted
  states sample |u| coarsely in time; `Trajectory.check_control_peak`
  keeps the largest |u| at the check points of the accepted kernel steps,
  and `sync_metrics` reads it.
- the Dormand-Prince 5(4) stage loop, one field call per stage, for every
  other attempt: a field with no linear part, a start point outside the
  cell, a check point outside it, or a product that is not finite.  After
  a failed Taylor attempt it runs at the h the kernel hands on, else at
  the controller's h.  Where check point θ is the first outside the cell,
  that h is θ times the attempt's capped h, so the step ends near the
  cell's edge: where the controls saturate, or where an agent's ε leaves
  1.  Its error estimate has order 5.  Apart from the call at t0 and the
  start-step probe, it is the only caller of the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DT_MIN = 1e-10  # adaptive step-size floor

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980), A zero-padded to 7×7.
# Its last row equals B5 (first same as last), so stage 7 is evaluated at the
# fifth-order solution itself and becomes stage 1 of the next step.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_DP_B5 = _DP_A[6]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4  # embedded error weights


# The Taylor kernel: degree p, and the check points z(θh), θ = 1/8, …, 1,
# whose controls must stay unsaturated for a step to be linear.
_P = 16
_N_CHECKS = 8
# Each entry of a sum of p + 1 terms loses at most (p + 1)·ε_mach times the
# sum of their magnitudes to rounding (Higham, Accuracy and Stability of
# Numerical Algorithms, §3.1).
_ROUNDING = (_P + 1) * np.finfo(float).eps
_FACT_ORDER = float(math.factorial(_P + 1))


def _taylor_polynomials():
    """One step of ż = L z as polynomials in x = hL, applied to z.

    Row j < 8 holds the check point z(θh) = Σ_{k≤p} (θx)ᵏ/k! z for
    θ = (j + 1)/8 (row 7 is the step's result z(h)); row 8 holds the first
    omitted term x^(p+1)/(p+1)! z, the error estimate, and row 9 the FSAL
    slope L z(h).  Column k holds the coefficient of Lᵏ z, and the powers
    table the power of h it carries: k, and k − 1 in row 9, whose extra L
    is not scaled by h.
    """
    k = np.arange(_P + 2)
    inv_fact = np.array([1.0 / math.factorial(j) for j in k])
    theta = np.arange(1, _N_CHECKS + 1) / _N_CHECKS
    poly = np.zeros((_N_CHECKS + 2, _P + 2))
    poly[:_N_CHECKS, :-1] = theta[:, None] ** k[:-1] * inv_fact[:-1]
    poly[-2, -1] = inv_fact[-1]
    poly[-1, 1:] = inv_fact[:-1]
    powers = np.tile(k.astype(float), (poly.shape[0], 1))
    powers[-1, 1:] -= 1.0
    return poly, powers


_TAYLOR_POLY, _TAYLOR_POWERS = _taylor_polynomials()


class IntegrationError(RuntimeError):
    """Step-size underflow, a non-finite step size, or a non-finite start
    state or slope, and, as `DivergenceError`, a state that is not finite
    or whose norm is not, where a step would accept it; carries the time
    and state where it happened."""

    def __init__(self, message, t, z):
        super().__init__(message)
        self.t = t
        self.z = z


class DivergenceError(IntegrationError):
    """A state, or its norm, that is not finite where a step ends."""


@dataclass
class IntegratorStats:
    n_steps: int = 0
    n_rejected: int = 0
    n_field_evals: int = 0
    n_linear_steps: int = 0  # accepted steps taken by the linear kernel


@dataclass
class Trajectory:
    """Time-indexed stacked-state record with the controls of each state."""

    times: np.ndarray
    states: np.ndarray  # (T, dim)
    controls: np.ndarray  # (T, N, m) pre-saturation; empty if not recorded
    realized_epsilon: Optional[np.ndarray]  # (T, N) for global kinds
    layout: object = None  # StateLayout when integrating a protocol field
    stats: IntegratorStats = field(default_factory=IntegratorStats)
    # the largest |u| at the Taylor kernel's check points of accepted
    # steps; 0 on a run with none
    check_control_peak: float = 0.0

    @property
    def has_controls(self) -> bool:
        return self.controls.size > 0


def _finish(field_fn, times, states, stats, check_control_peak=0.0):
    times, states = np.array(times), np.array(states)
    info = getattr(field_fn, "control_info", None)
    U, eps = ((np.empty((times.size, 0, 0)), None) if info is None
              else info(times, states))
    return Trajectory(
        times=times,
        states=states,
        controls=np.asarray(U, dtype=float),
        realized_epsilon=None if eps is None else np.asarray(eps, dtype=float),
        layout=getattr(field_fn, "layout", None),
        stats=stats,
        check_control_peak=float(check_control_peak),
    )


def _check_finite(t, z):
    if not np.isfinite(z).all():
        raise DivergenceError(f"non-finite state at t={t:.6g}", t, z)


def integrate(
    field_fn: Callable,
    z0,
    t_span,
    *,
    dt: Optional[float] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Integrate ż = field_fn(t, z) over t_span, recording accepted steps:
    by fixed-step RK4 at step dt when dt is given, else by adaptive RK45 at
    the tolerances rtol and atol, which RK4 does not read."""
    t0, tf = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 < tf < math.inf:  # also false for a nan
        raise ValueError("t_span must be finite and increasing")
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if dt is not None and not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    if dt is None and not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("tolerances must be finite and positive")
    # both loops run with numpy's overflow and invalid-value warnings off:
    # `_norm` rescales where v·v overflows, and a value that overflows, or
    # an inf − inf or 0 · inf that follows, reads as inf or nan, which the
    # loops reject or raise on like any other non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        if dt is not None:
            return _integrate_rk4(field_fn, z0, t0, tf, dt)
        return _integrate_rk45(field_fn, z0, t0, tf, rtol, atol)


def _integrate_rk4(field_fn, z0, t0, tf, dt):
    stats = IntegratorStats()
    times, states = [t0], [z0]
    t, z = t0, z0
    n_steps = int(np.ceil((tf - t0) / dt - 1e-12))
    for k in range(n_steps):
        h = min(dt, tf - t)
        k1 = field_fn(t, z)
        k2 = field_fn(t + h / 2, z + h / 2 * k1)
        k3 = field_fn(t + h / 2, z + h / 2 * k2)
        k4 = field_fn(t + h, z + h * k3)
        z = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + (k + 1) * dt if k + 1 < n_steps else tf
        _check_finite(t, z)
        stats.n_steps += 1
        stats.n_field_evals += 4
        times.append(t)
        states.append(z)
    return _finish(field_fn, times, states, stats)


def _integrate_rk45(field_fn, z0, t0, tf, rtol, atol):
    stats = IntegratorStats()
    times, states = [t0], [z0]
    t, z = t0, z0
    # a z0 whose squared norm overflows fails before the field sees it;
    # past it, `_norm` rescales, so a run that grows beyond 2⁵¹² goes on
    # until its norms themselves overflow
    if not math.isfinite(z.dot(z)):
        raise IntegrationError(
            f"non-finite initial state norm at t={t:.6g}", t, z)
    k1 = field_fn(t, z)
    stats.n_field_evals += 1
    linear = getattr(field_fn, "linear_part", None)  # (L, inside)

    def block(z, k1):  # the Krylov block of z if attempts from z may be Taylor
        in_cell = linear is not None and linear[1](z).max() <= 1.0
        return _krylov(linear[0], z, k1) if in_cell else None

    V = block(z, k1)
    # size the start for the Taylor kernel if z0 may take it and its block
    # is finite, and for the stage loop otherwise
    order = _P + 1 if V is not None and np.isfinite(V).all() else 5
    h = _initial_step(field_fn, t, z, k1, tf - t0, rtol, atol, stats, order)
    u_peak = 0.0  # the largest |u| that an accepted attempt tested
    while t < tf:
        h = min(h, tf - t)
        step = None
        if V is not None:  # a retry at the same z keeps the block
            h, step = _taylor_step(linear[1], V, h, atol + rtol * _norm(z))
        by_kernel = step is not None
        if not by_kernel:
            step = _field_stages(field_fn, t, z, k1, h, stats)
        z_new, err, k_new, order, peak = step
        q = 0.0  # tol/err; stays 0 (reject, h × 0.2) if err is non-finite
        if math.isfinite(err):
            tol = atol + rtol * _norm(z_new)
            if not math.isfinite(tol):  # z_new, or its norm, overflowed
                raise DivergenceError(
                    f"non-finite state norm at t={t + h:.6g}", t + h, z_new)
            q = tol / err if err > 0 else np.inf
        if q >= 1.0:
            # FSAL: k_new is the field at z_new, which is finite, and a
            # kernel step's end point z(h) is in the cell, by construction
            t, z, k1 = t + h, z_new, k_new
            if t < tf:
                V = _krylov(linear[0], z, k1) if by_kernel else block(z, k1)
            stats.n_steps += 1
            stats.n_linear_steps += by_kernel
            u_peak = max(u_peak, peak)
            times.append(t)
            states.append(z)
        else:
            stats.n_rejected += 1
        # err = O(h^order): aim the next attempt's err at 0.9^order · tol
        h *= min(max(0.9 * q ** (1.0 / order), 0.2), 5.0)
        if h < DT_MIN and t < tf:
            raise IntegrationError(
                f"step size underflow (h={h:.3g} < {DT_MIN}) at t={t:.6g}", t, z
            )
    return _finish(field_fn, times, states, stats, u_peak)


def _initial_step(field_fn, t, z, k1, span, rtol, atol, stats, order):
    """First step size by the rule of Hairer, Nørsett & Wanner (Solving
    ODEs I, §II.4), in the loop's norm with s = atol + rtol‖z‖, for a first
    attempt whose error estimate is O(h^order).

    A probe step h0 = 0.01‖z‖/‖k1‖ (1e-6 when either is below 1e-5·s)
    estimates the field's rate of change by d2 = ‖f(t + h0, z + h0 k1) − k1‖
    / (s h0), one counted field call.  The step is h1 = (0.01/d)^(1/order)
    with d = max(‖k1‖/s, d2), at most 100·h0 and the span, at least DT_MIN.
    """
    norm_z, norm_f = _norm(z), _norm(k1)
    scale = atol + rtol * norm_z
    d0, d1 = norm_z / scale, norm_f / scale
    # f(t0, z0) overflowed or holds a nan, or its norm overflows in the
    # tolerance's units
    if not math.isfinite(d1):
        raise IntegrationError(
            f"non-finite initial slope at t={t:.6g}", t, z)
    h0 = min(1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _norm(field_fn(t + h0, z + h0 * k1) - k1) / (scale * h0)
    stats.n_field_evals += 1
    d = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** (1.0 / order)
    return max(min(100 * h0, h1, span), DT_MIN)


def _field_stages(field_fn, t, z, k1, h, stats):
    """Stage loop: (z5, err, f(t + h, z5), 5, 0.0) of one step, with one
    field call per stage; err is nan once a stage is non-finite.  The
    embedded error estimate is O(h⁵), and the loop tests no controls."""
    K = np.empty((7, z.size))
    K[0] = k1
    hA = h * _DP_A
    for s in range(1, 7):
        z_s = z + hA[s, :s] @ K[:s]
        k_s = field_fn(t + _DP_C[s] * h, z_s)
        stats.n_field_evals += 1
        if not np.isfinite(k_s).all():
            return None, np.nan, None, 5, 0.0
        K[s] = k_s
    # the last stage point is the fifth-order solution, k_s the field there
    return z_s, h * _norm(_DP_E @ K), k_s, 5, 0.0


def _krylov(L, z, k1):
    """The Krylov block [z, k1, L k1, …, Lᵖ k1] = [Lᵏ z], k ≤ p + 1, (p + 2,
    dim), from p products with L: no power of L is formed."""
    V = np.empty((_P + 2, z.size))
    V[0], V[1] = z, k1
    prev = V[1]
    for row in V[2:]:  # iterating yields the row views without indexing
        L.dot(prev, out=row)  # half the call cost of np.matmul
        prev = row
    return V


def _taylor_step(inside, V, h, tol):
    """Taylor kernel: (h, step) of one attempt from the Krylov block V of a
    z in the linear part's cell, with no field call, from one product of
    the scaled polynomial matrix with V (rows as in `_taylor_polynomials`).

    The attempt takes at most the block's reach: the h at which the first
    omitted term (hL)^(p+1)/(p+1)! z, read from the block's last row
    L^(p+1) z, is 0.9^(p+1)·tol.  A last row whose norm is 0 or not finite
    sets no reach.  The returned h is the h the attempt covers: the capped
    h with a step, and with None the h that the stage loop takes in its
    place, θ times the capped h where check point θ is the first outside
    the cell, and the capped h where the product is not finite.
    Rows 7 and 9 carry every entry of the block with a nonzero
    coefficient, so a non-finite block gives a non-finite product, and it
    has no reach: the stage loop takes the h asked for.

    step is (z(h), err, L z(h), p + 1, peak), peak the largest |u| of the
    controls |F z(θh)| = inside(z(θh)) at the check points, or None if the
    product is not finite or a check point is outside the cell (z(h) among
    them).

    err is the larger of the norm of the first omitted term, O(h^(p+1)),
    and the bound `_ROUNDING`·‖Σₖ |hᵏ/k! Lᵏ z|‖ on the rounding of the sum
    z(h).  Where the terms cancel, as on a strongly non-normal L, that
    bound rejects the attempt until the step is short enough for the
    rounding to fit the tolerance.
    """
    last = _norm(V[-1])
    if 0.0 < last < math.inf:
        h = min(h, 0.9 * (tol * _FACT_ORDER / last) ** (1.0 / (_P + 1)))
    C = _TAYLOR_POLY * h**_TAYLOR_POWERS
    Z = C @ V
    if not np.isfinite(Z).all():
        return h, None
    U = inside(Z[:_N_CHECKS])
    peak = U.max()
    # the stage loop stops where z leaves the cell; a nan |u| reads as out
    if not peak <= 1.0:
        theta = (int(np.argmax(~(U.max(axis=1) <= 1.0))) + 1) / _N_CHECKS
        return theta * h, None
    # row θ = 1 of C holds the weights hᵏ/k! of the terms
    rounding = _ROUNDING * _norm(C[_N_CHECKS - 1, :-1] @ np.abs(V[:-1]))
    err = max(_norm(Z[_N_CHECKS]), rounding)
    # a copy: states keep z(h), not Z
    return h, (Z[_N_CHECKS - 1].copy(), err, Z[-1], _P + 1, peak)


def _norm(v):
    """‖v‖₂ as np.linalg.norm computes it, without its argument handling.

    Where v·v overflows, which RK45 runs without a numpy warning, the norm
    is taken of v scaled by its largest magnitude, so it reads as inf only
    when ‖v‖₂ itself passes the largest float or v holds an inf."""
    s = v.dot(v)
    if s == math.inf:
        a = np.abs(v).max()
        if a < math.inf:
            w = v / a
            return float(a) * math.sqrt(w.dot(w))
    return math.sqrt(s)


def saturation_events(traj: Trajectory) -> list[tuple[float, int, int, float]]:
    """All (t, agent, component, |u|) with pre-saturation |u| > 1 at the
    accepted states only, not over continuous time, so the list moves with
    the step sequence: an empty one says no accepted state saturated.
    """
    if not traj.has_controls:
        raise ValueError("trajectory has no recorded controls")
    events = []
    exceed = np.abs(traj.controls) > 1.0
    for k, i, c in zip(*np.nonzero(exceed)):
        events.append(
            (float(traj.times[k]), int(i), int(c),
             float(abs(traj.controls[k, i, c])))
        )
    return events


@dataclass
class SyncMetrics:
    """Per-time synchronization error and derived summary values.

    max_control_inf_norm is the peak pre-saturation |u| at the accepted
    states and at the Taylor kernel's check points of its accepted steps
    (`Trajectory.check_control_peak`), eight a step.  It is not taken over
    continuous time, so it moves with the step sequence; ε* selection
    judges SAT_MARGIN on this sampled peak."""

    error_series: np.ndarray  # max_i ‖x_i - x_r‖ at each accepted step
    convergence_time: Optional[float]
    max_control_inf_norm: float


def sync_error_series(traj: Trajectory) -> np.ndarray:
    if traj.layout is None:
        raise ValueError("trajectory has no stacked-state layout")
    x, x_r, _, _ = traj.layout.split(traj.states)
    with np.errstate(over="ignore"):
        d = x - x_r[:, None, :]
        e = np.linalg.norm(d, axis=2)
        for k, i in zip(*np.nonzero(e == math.inf)):  # the squares overflow
            e[k, i] = _norm(d[k, i])
    return e.max(axis=1)


def sync_metrics(traj: Trajectory, tol: float) -> SyncMetrics:
    """Sync error series and the first time it stays below tol to the end."""
    errors = sync_error_series(traj)
    below = errors < tol
    conv_time = None
    # first index from which the error stays below tol through the horizon
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(below)))
    hits = np.nonzero(suffix_ok)[0]
    if hits.size:
        conv_time = float(traj.times[hits[0]])
    max_u = float(np.abs(traj.controls).max()) if traj.has_controls else 0.0
    max_u = max(max_u, traj.check_control_peak)
    return SyncMetrics(
        error_series=errors,
        convergence_time=conv_time,
        max_control_inf_norm=max_u,
    )
