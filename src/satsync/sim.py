"""ODE integration of closed-loop fields and trajectory diagnostics.

Two explicit Runge-Kutta methods: classic fixed-step RK4 and adaptive
Dormand-Prince RK45.  Fields exposing a `control_info(t, z)` method get
their pre-saturation controls (and realized schedule values, when present)
recorded at every accepted step.

RK45 has one step-size controller, one accept path and one record path, and
two kernels for the stages of an attempted step:

- the linear kernel, for a field that declares a `linear_part` (L, F) (the
  semiglobal protocols) while its controls stay unsaturated.  Each stage
  point is a fixed polynomial in hL applied to z, so one Krylov block
  [z, Lz, …, L⁷z] per accepted point gives every attempted h by small
  matrix products, with no field call; the accepted step then calls the
  field once, at its new point.  `IntegratorStats.n_linear_steps` counts
  these steps.
- the stage loop, one field call per stage, for every other attempt: a
  field with no linear part (the global protocols), a stage point whose
  controls F z_s exceed 1 in magnitude (the start point among them), or a
  Krylov block that is not finite.  It runs at the same h.
"""

from __future__ import annotations

import functools
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
    fifth-order solution); row 7 holds the error estimate h Σ_s e_s L z_s.
    Column k holds the coefficient of xᵏ.
    """
    poly = np.zeros((8, 8))
    poly[:7, 0] = 1.0
    for s in range(1, 7):
        poly[s, 1:] = (_DP_A[s, :s] @ poly[:s])[:-1]
    poly[7, 1:] = (_DP_E @ poly[:7])[:-1]
    return poly


_DP_POLY = _dp_polynomials()
_DP_POWERS = np.arange(8.0)


class LinearPart:
    """A field's linear regime: f(t, z) = L z wherever ‖F z‖∞ ≤ 1.

    A field that declares one as its `linear_part` attribute gets RK45 steps
    that stay in the regime from one Krylov block of L per accepted step.
    """

    def __init__(self, L: np.ndarray, F: np.ndarray):
        self.L = L
        self.F = F

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """[L; L²; …; L⁶], (6·dim, dim): one product with k1 = L z gives the
        rest of a step's Krylov block."""
        powers = [self.L]
        for _ in range(5):
            powers.append(self.L @ powers[-1])
        return np.vstack(powers)


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
    """Time-indexed stacked-state record with per-step control extraction."""

    times: np.ndarray
    states: np.ndarray  # (T, dim)
    controls: np.ndarray  # (T, N, m) pre-saturation; empty if not recorded
    realized_epsilon: Optional[np.ndarray]  # (T, N) for global kinds
    layout: object = None  # StateLayout when integrating a protocol field
    stats: IntegratorStats = field(default_factory=IntegratorStats)

    @property
    def has_controls(self) -> bool:
        return self.controls.size > 0


def _record(field_fn, t, z, controls, eps_values):
    info = getattr(field_fn, "control_info", None)
    if info is None:
        return
    U, eps = info(t, z)
    controls.append(np.asarray(U, dtype=float))
    if eps is not None:
        eps_values.append(np.asarray(eps, dtype=float))


def _finish(field_fn, times, states, controls, eps_values, stats):
    controls_arr = (
        np.array(controls) if controls else np.empty((len(times), 0, 0))
    )
    eps_arr = np.array(eps_values) if eps_values else None
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        controls=controls_arr,
        realized_epsilon=eps_arr,
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
    if tf <= t0:
        raise ValueError("t_span must be increasing")
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if method == "fixed_rk4":
        return _integrate_rk4(field_fn, z0, t0, tf, dt)
    if method == "adaptive_rk45":
        return _integrate_rk45(field_fn, z0, t0, tf, rtol, atol)
    raise ValueError(f"unknown method {method!r}")


def _integrate_rk4(field_fn, z0, t0, tf, dt):
    if dt <= 0:
        raise ValueError("dt must be positive")
    stats = IntegratorStats()
    times, states, controls, eps_values = [t0], [z0], [], []
    _record(field_fn, t0, z0, controls, eps_values)
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
        _record(field_fn, t, z, controls, eps_values)
    return _finish(field_fn, times, states, controls, eps_values, stats)


def _integrate_rk45(field_fn, z0, t0, tf, rtol, atol):
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    stats = IntegratorStats()
    times, states, controls, eps_values = [t0], [z0], [], []
    t, z = t0, z0
    k1 = field_fn(t, z)
    stats.n_field_evals += 1
    _record(field_fn, t0, z0, controls, eps_values)  # reuses k1's controls
    # initial step from the field magnitude
    scale = atol + rtol * np.linalg.norm(z)
    h = min(0.1 * scale / max(np.linalg.norm(k1), 1e-10), tf - t0, 1.0)
    h = max(h, DT_MIN)
    if not np.isfinite(h):  # z0 or f(t0, z0) overflowed or holds a nan
        raise IntegrationError(f"non-finite initial step size at t={t:.6g}", t, z)
    linear = getattr(field_fn, "linear_part", None)
    V = V_at = None  # Krylov block of the linear kernel and the z it is of
    K = np.empty((7, z.size))
    while t < tf:
        h = min(h, tf - t)
        if linear is not None and V_at is not z:
            V, V_at = _krylov_block(linear, z, k1), z
        step = None if V is None else _linear_stages(V, linear.F, h)
        if step is None:
            step = _field_stages(field_fn, t, z, k1, h, K, stats)
        z5, err, k_new = step
        q = 0.0  # tol/err; stays 0 (reject, h × 0.2) if anything is non-finite
        if np.isfinite(err):
            tol = atol + rtol * _norm(z5)
            q = tol / err if err > 0 else np.inf
        if q >= 1.0:
            t_new = t + h
            _check_finite(t_new, z5)
            t, z = t_new, z5
            if k_new is None:  # linear kernel: the step's one field call
                k_new = field_fn(t, z)
                stats.n_field_evals += 1
                stats.n_linear_steps += 1
            k1 = k_new  # FSAL: evaluated at z5, whose controls the field keeps
            stats.n_steps += 1
            times.append(t)
            states.append(z)
            _record(field_fn, t, z, controls, eps_values)
        else:
            stats.n_rejected += 1
        h *= min(max(0.9 * q**0.2, 0.2), 5.0)
        if h < DT_MIN and t < tf:
            raise IntegrationError(
                f"step size underflow (h={h:.3g} < {DT_MIN}) at t={t:.6g}", t, z
            )
    return _finish(field_fn, times, states, controls, eps_values, stats)


def _field_stages(field_fn, t, z, k1, h, K, stats):
    """Stage loop: (z5, err, f(t + h, z5)) of one step, with one field call
    per stage; err is nan once a stage is non-finite."""
    K[0] = k1
    hA = h * _DP_A
    for s in range(1, 7):
        z_s = z + hA[s, :s] @ K[:s]
        k_s = field_fn(t + _DP_C[s] * h, z_s)
        stats.n_field_evals += 1
        if not np.isfinite(k_s).all():
            return None, np.nan, None
        K[s] = k_s
    # the last stage point is the fifth-order solution and k_s the field
    # there; k_s, not the row K[6], since a retry after a rejection
    # overwrites K but must start from the field at the accepted point
    return z_s, h * _norm(_DP_E @ K), k_s


def _krylov_block(linear, z, k1):
    """V = [z, k1, L k1, …, L⁶ k1] = [Lᵏ z], or None if V is not finite."""
    V = np.empty((8, z.size))
    V[0], V[1] = z, k1
    V[2:] = (linear.powers @ k1).reshape(6, z.size)
    return V if np.isfinite(V).all() else None


def _linear_stages(V, F, h):
    """Linear kernel: (z5, err, None) of one step from the Krylov block V,
    with no field call, or None if the controls F z_s of a stage point
    (the start z among them) saturate."""
    Z = (_DP_POLY * h**_DP_POWERS) @ V
    if np.abs(Z[:7] @ F.T).max() > 1.0:
        return None
    return Z[6].copy(), _norm(Z[7]), None  # a copy: states keep z5, not Z


def _norm(v):
    """‖v‖₂ as np.linalg.norm computes it, without its argument handling."""
    return math.sqrt(v.dot(v))


def saturation_events(traj: Trajectory) -> list[tuple[float, int, int, float]]:
    """All (t, agent, component, |u|) with pre-saturation |u| > 1.

    An empty list certifies the closed loop operated linearly throughout.
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
    """Per-time synchronization error and derived summary values."""

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
