"""ODE integration of closed-loop fields and trajectory diagnostics.

Two explicit Runge-Kutta methods: classic fixed-step RK4 and adaptive
Dormand-Prince RK45.  A field exposing a `control_info(t, z)` method gets
the pre-saturation controls (and realized schedule values, when present) of
every accepted state recorded.  The field must be a pure function of the
state, and `control_info` must accept a stack of states (T, dim) with their
times (T,): it is called once per run, on all accepted states at once.

RK45 has one step-size controller and one accept path, and two kernels for
the stages of an attempted step.  An attempt is a pure function of
(t, z, k1 = f(t, z), h), and the loop carries nothing else between them.
The first step is sized by the starting-step rule of Hairer, Nørsett &
Wanner (Solving ODEs I, §II.4), in the norm of the loop's error test: it
probes the field once, at t0 + h0 along the slope at t0.

- the linear kernel, for a field that declares a `linear_part` (L, F) (the
  semiglobal protocols) while its controls stay unsaturated.  Each stage
  point is a fixed polynomial in hL applied to z, so one product of a 9-row
  polynomial matrix with the attempt's Krylov block
  [z, k1, L k1, …, L⁶ k1] = [Lᵏ z] gives all of them: rows 0–6 the stage
  points (row 6 the fifth-order solution z5), row 7 the error estimate and
  row 8 the FSAL slope L z5.  The powers stack [L; …; L⁶] is formed once
  per run.  z5 is a stage point, so its controls are checked with the rest,
  and a finite product certifies the step: the kernel makes no field call.
  `IntegratorStats.n_linear_steps` counts its steps.
- the stage loop, one field call per stage, for every other attempt: a
  field with no linear part (the global protocols), a stage point whose
  controls F z_s exceed 1 in magnitude (the start point among them), or a
  product that is not finite.  It runs at the same h.  Apart from the call
  at t0 and the start-step probe, it is the only caller of the field.
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


def _dp_polynomials():
    """One step of ż = L z as polynomials in x = hL, applied to z.

    Row s < 7 holds stage point s, z_s = z + x Σ_j a_sj z_j (row 6 is the
    fifth-order solution); row 7 holds the error estimate h Σ_s e_s L z_s,
    and row 8 the FSAL slope L z_6 = L z5.  Column k holds the coefficient of
    Lᵏ z, and the powers table the power of h it carries: k, and k − 1 in
    row 8, whose extra L is not scaled by h.
    """
    poly = np.zeros((9, 8))
    poly[:7, 0] = 1.0
    for s in range(1, 7):
        poly[s, 1:] = (_DP_A[s, :s] @ poly[:s])[:-1]
    poly[7, 1:] = (_DP_E @ poly[:7])[:-1]
    poly[8, 1:] = poly[6, :-1]
    powers = np.tile(np.arange(8.0), (9, 1))
    powers[8, 1:] -= 1.0
    return poly, powers


_DP_POLY, _DP_POWERS = _dp_polynomials()


class IntegrationError(RuntimeError):
    """Step-size underflow or a non-finite step size; carries the time and
    state where it happened."""

    def __init__(self, message, t, z):
        super().__init__(message)
        self.t = t
        self.z = z


class DivergenceError(RuntimeError):
    """Non-finite state encountered."""

    def __init__(self, message, t, z):
        super().__init__(message)
        self.t = t
        self.z = z


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

    @property
    def has_controls(self) -> bool:
        return self.controls.size > 0


def _finish(field_fn, times, states, stats):
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
    )


def _check_finite(t, z):
    if not np.isfinite(z).all():
        raise DivergenceError(f"non-finite state at t={t:.6g}", t, z)


def integrate(
    field_fn: Callable,
    z0,
    t_span,
    *,
    method: str = "adaptive_rk45",
    dt: float = 1e-2,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Integrate ż = field_fn(t, z) over t_span, recording accepted steps."""
    t0, tf = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 < tf < math.inf:  # also false for a nan
        raise ValueError("t_span must be finite and increasing")
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if method == "fixed_rk4":
        if not 0 < dt < math.inf:
            raise ValueError("dt must be finite and positive")
        return _integrate_rk4(field_fn, z0, t0, tf, dt)
    if method == "adaptive_rk45":
        if not (0 < rtol < math.inf and 0 < atol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        return _integrate_rk45(field_fn, z0, t0, tf, rtol, atol)
    raise ValueError(f"unknown method {method!r}")


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
    k1 = field_fn(t, z)
    stats.n_field_evals += 1
    h = _initial_step(field_fn, t, z, k1, tf - t0, rtol, atol, stats)
    linear = getattr(field_fn, "linear_part", None)
    if linear is not None:  # (Fᵀ, [L; …; L⁶])
        linear = (np.ascontiguousarray(linear[1].T), _powers(linear[0]))
    while t < tf:
        h = min(h, tf - t)
        step = None if linear is None else _linear_stages(*linear, z, k1, h)
        by_kernel = step is not None
        if not by_kernel:
            step = _field_stages(field_fn, t, z, k1, h, stats)
        z5, err, k_new = step
        q = 0.0  # tol/err; stays 0 (reject, h × 0.2) if anything is non-finite
        if math.isfinite(err):
            tol = atol + rtol * _norm(z5)
            q = tol / err if err > 0 else np.inf
        if q >= 1.0:
            t_new = t + h
            if not by_kernel:  # a kernel step is finite by construction
                _check_finite(t_new, z5)
            t, z, k1 = t_new, z5, k_new  # FSAL: k_new is the field at z5
            stats.n_steps += 1
            stats.n_linear_steps += by_kernel
            times.append(t)
            states.append(z)
        else:
            stats.n_rejected += 1
        h *= min(max(0.9 * q**0.2, 0.2), 5.0)
        if h < DT_MIN and t < tf:
            raise IntegrationError(
                f"step size underflow (h={h:.3g} < {DT_MIN}) at t={t:.6g}", t, z
            )
    return _finish(field_fn, times, states, stats)


def _initial_step(field_fn, t, z, k1, span, rtol, atol, stats):
    """First step size by the rule of Hairer, Nørsett & Wanner (Solving
    ODEs I, §II.4), in the loop's norm with s = atol + rtol‖z‖.

    A probe step h0 = 0.01‖z‖/‖k1‖ (1e-6 when either is below 1e-5·s)
    estimates the field's rate of change by d2 = ‖f(t + h0, z + h0 k1) − k1‖
    / (s h0), one counted field call.  The step is h1 = (0.01/d)^(1/5) with
    d = max(‖k1‖/s, d2), at most 100·h0 and the span, at least DT_MIN.
    """
    norm_z, norm_f = _norm(z), _norm(k1)
    if not (math.isfinite(norm_z) and math.isfinite(norm_f)):
        # z0 or f(t0, z0) overflowed or holds a nan
        raise IntegrationError(
            f"non-finite initial state or slope at t={t:.6g}", t, z)
    scale = atol + rtol * norm_z
    d0, d1 = norm_z / scale, norm_f / scale
    h0 = min(1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _norm(field_fn(t + h0, z + h0 * k1) - k1) / (scale * h0)
    stats.n_field_evals += 1
    d = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.2
    return max(min(100 * h0, h1, span), DT_MIN)


def _field_stages(field_fn, t, z, k1, h, stats):
    """Stage loop: (z5, err, f(t + h, z5)) of one step, with one field call
    per stage; err is nan once a stage is non-finite."""
    K = np.empty((7, z.size))
    K[0] = k1
    hA = h * _DP_A
    for s in range(1, 7):
        z_s = z + hA[s, :s] @ K[:s]
        k_s = field_fn(t + _DP_C[s] * h, z_s)
        stats.n_field_evals += 1
        if not np.isfinite(k_s).all():
            return None, np.nan, None
        K[s] = k_s
    # the last stage point is the fifth-order solution, k_s the field there
    return z_s, h * _norm(_DP_E @ K), k_s


def _powers(L):
    """[L; L²; …; L⁶], (6·dim, dim): one product with k1 = L z gives the
    rest of a step's Krylov block."""
    powers = np.empty((6, *L.shape))
    powers[0] = L
    for k in range(1, 6):
        np.matmul(L, powers[k - 1], out=powers[k])
    return powers.reshape(-1, L.shape[1])


def _linear_stages(FT, powers, z, k1, h):
    """Linear kernel: (z5, err, L z5) of one step, with no field call, as one
    product of the scaled polynomial matrix with the Krylov block
    [z, k1, L k1, …, L⁶ k1]; None if the product is not finite or the
    controls F z_s of a stage point (z and z5 among them) saturate.  Rows 6
    and 8 carry every entry of the block with a nonzero coefficient, so a
    non-finite block gives a non-finite product."""
    V = np.empty((8, z.size))
    V[0], V[1] = z, k1
    np.matmul(powers, k1, out=V[2:].reshape(-1))
    Z = (_DP_POLY * h**_DP_POWERS) @ V
    if not np.isfinite(Z).all() or np.abs(Z[:7] @ FT).max() > 1.0:
        return None
    return Z[6].copy(), _norm(Z[7]), Z[8]  # a copy: states keep z5, not Z


def _norm(v):
    """‖v‖₂ as np.linalg.norm computes it, without its argument handling."""
    return math.sqrt(v.dot(v))


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
    states only, not over continuous time, so it moves with the step
    sequence; ε* selection judges SAT_MARGIN on this sampled peak."""

    error_series: np.ndarray  # max_i ‖x_i - x_r‖ at each accepted step
    convergence_time: Optional[float]
    max_control_inf_norm: float


def sync_error_series(traj: Trajectory) -> np.ndarray:
    if traj.layout is None:
        raise ValueError("trajectory has no stacked-state layout")
    x, x_r, _, _ = traj.layout.split(traj.states)
    return np.linalg.norm(x - x_r[:, None, :], axis=2).max(axis=1)


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
    return SyncMetrics(
        error_series=errors,
        convergence_time=conv_time,
        max_control_inf_norm=max_u,
    )
