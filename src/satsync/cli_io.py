"""Scenario files, trajectory/report serialization, and the command line.

Scenario JSON schema (matrices row-major, agent indices 1-based):

    {
      "model":   {"A": [[...]], "B": [[...]], "C": [[...]]},
      "network": {"adjacency": [[...]], "root_set": [1, ...]},
      "coupling": "full" | "partial",
      "x0":  [[...], ...],          # one n-vector per agent
      "xr0": [...],                 # exosystem initial state
      "chi0":  [[...], ...],        # optional, default zeros
      "xhat0": [[...], ...]         # optional (partial coupling), default zeros
    }

Exit codes: 0 success, 2 validation failure, 3 assertion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import protocols, scheduling, sim
from .graph import Network, NetworkError, expanded_laplacian, in_rooted_family
from .model import AgentModel, ModelError, check_assumption
from .riccati import (
    ParameterError,
    RiccatiError,
    solve_lowgain_are,
    solve_scheduled_are,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3


class ScenarioValidationError(ValueError):
    """All validation failures of one file, with JSON-pointer paths."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "\n".join(f"  {ptr}: {msg}" for ptr, msg in self.problems)
        super().__init__(f"invalid scenario:\n{lines}")


@dataclass(frozen=True)
class Scenario:
    model: AgentModel
    net: Network
    x0: np.ndarray  # (N, n)
    xr0: np.ndarray  # (n,)
    chi0: np.ndarray  # (N, n)
    xhat0: np.ndarray  # (N, n)
    coupling: str  # "full" | "partial"

    @property
    def N(self) -> int:
        return self.net.N

    def fingerprint(self) -> str:
        """SHA-256 of the validated scenario: number formatting, key order
        and omitted defaults in the file do not change it."""
        blob = json.dumps(_scenario_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _scenario_dict(sc: Scenario) -> dict:
    return {
        "model": {
            "A": sc.model.A.tolist(),
            "B": sc.model.B.tolist(),
            "C": sc.model.C.tolist(),
        },
        "network": {
            "adjacency": sc.net.adjacency.tolist(),
            "root_set": [i + 1 for i in sorted(sc.net.root_set)],
        },
        "coupling": sc.coupling,
        "x0": sc.x0.tolist(),
        "xr0": sc.xr0.tolist(),
        "chi0": sc.chi0.tolist(),
        "xhat0": sc.xhat0.tolist(),
    }


def scenario_from_dict(data: dict, source_name: str = "<dict>") -> Scenario:
    problems = []

    def matrix(ptr, value):
        try:
            M = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            problems.append((ptr, "not a numeric array"))
            return None
        except OverflowError:  # an integer beyond the float range
            problems.append((ptr, "contains non-finite entries"))
            return None
        if not np.all(np.isfinite(M)):
            problems.append((ptr, "contains non-finite entries"))
            return None
        return M

    model = None
    md = data.get("model")
    if not isinstance(md, dict):
        problems.append(("/model", "missing or not an object"))
    else:
        A = matrix("/model/A", md.get("A"))
        B = matrix("/model/B", md.get("B"))
        C = matrix("/model/C", md.get("C"))
        if A is not None and B is not None and C is not None:
            try:
                model = AgentModel(A, B, C)
            except ModelError as exc:
                problems.append((f"/model/{exc.field_name or ''}", str(exc)))

    net = None
    nd = data.get("network")
    if not isinstance(nd, dict):
        problems.append(("/network", "missing or not an object"))
    else:
        adj = matrix("/network/adjacency", nd.get("adjacency"))
        roots = nd.get("root_set", [])
        if not isinstance(roots, list) or not all(
            isinstance(r, int) and not isinstance(r, bool) for r in roots
        ):
            problems.append(("/network/root_set", "must be a list of integers"))
            roots = []
        if adj is not None:
            try:
                net = Network(
                    adjacency=adj,
                    root_set=frozenset(r - 1 for r in roots),
                )
            except NetworkError as exc:
                problems.append(("/network", str(exc)))

    coupling = data.get("coupling", "full")
    if coupling not in ("full", "partial"):
        problems.append(("/coupling", f"must be 'full' or 'partial', got {coupling!r}"))

    x0 = matrix("/x0", data.get("x0"))
    xr0 = matrix("/xr0", data.get("xr0"))
    chi0 = matrix("/chi0", data["chi0"]) if "chi0" in data else None
    xhat0 = matrix("/xhat0", data["xhat0"]) if "xhat0" in data else None

    if model is not None and net is not None:
        N, n = net.N, model.n
        if x0 is None or x0.shape != (N, n):
            problems.append(
                ("/x0", f"must be an {N}×{n} array of agent initial states")
            )
        if xr0 is None or xr0.reshape(-1).shape != (n,):
            problems.append(("/xr0", f"must be an {n}-vector"))
        for name, M in (("chi0", chi0), ("xhat0", xhat0)):
            if M is not None and M.shape != (N, n):
                problems.append((f"/{name}", f"must be an {N}×{n} array"))

    if problems:
        raise ScenarioValidationError(problems)

    if not in_rooted_family(net):
        warnings.warn(
            f"{source_name}: graph is not rooted from the root set; "
            "regulated synchronization is not guaranteed",
            stacklevel=2,
        )

    N, n = net.N, model.n
    return Scenario(
        model=model,
        net=net,
        x0=np.asarray(x0, dtype=float),
        xr0=np.asarray(xr0, dtype=float).reshape(-1),
        chi0=np.zeros((N, n)) if chi0 is None else chi0,
        xhat0=np.zeros((N, n)) if xhat0 is None else xhat0,
        coupling=coupling,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioValidationError([("/", f"cannot read file: {exc}")])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([("/", f"JSON parse error: {exc}")])
    if not isinstance(data, dict):
        raise ScenarioValidationError([("/", "top level must be an object")])
    return scenario_from_dict(data, source_name=str(path))


def bundled_scenario(case: int) -> Scenario:
    if case not in (1, 2, 3):
        raise ValueError("case must be 1, 2, or 3")
    text = resources.files("satsync.data").joinpath(f"case{case}.json").read_text()
    return scenario_from_dict(json.loads(text), source_name=f"case{case}.json")


# --- trajectory CSV ---------------------------------------------------------


def write_trajectory_csv(traj: sim.Trajectory, path) -> None:
    """One row per accepted step, values at 17 significant digits."""
    layout = traj.layout
    if layout is None:
        raise ValueError("trajectory has no stacked-state layout")
    N, n = layout.N, layout.n
    m = traj.controls.shape[2] if traj.has_controls else 0
    cols = ["t"]
    cols += [f"x[{i+1}][{k+1}]" for i in range(N) for k in range(n)]
    cols += [f"xr[{k+1}]" for k in range(n)]
    cols += [f"chi[{i+1}][{k+1}]" for i in range(N) for k in range(n)]
    if layout.partial:
        cols += [f"xhat[{i+1}][{k+1}]" for i in range(N) for k in range(n)]
    cols += [f"u[{i+1}][{k+1}]" for i in range(N) for k in range(m)]
    if traj.realized_epsilon is not None:
        cols += [f"eps[{i+1}]" for i in range(N)]
    cols += ["sync_error"]

    blocks = [traj.times, traj.states,
              traj.controls.reshape(traj.times.size, -1)]
    if traj.realized_epsilon is not None:
        blocks.append(traj.realized_epsilon)
    blocks.append(sim.sync_error_series(traj))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        np.savetxt(fh, np.column_stack(blocks), fmt="%.17g", delimiter=",")


def read_trajectory_csv(path):
    """Round-trip reader: (column names, data array)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


# --- run reports ------------------------------------------------------------


@dataclass
class RunReport:
    scenario_fingerprint: str
    protocol: str
    parameters: dict
    converged: bool
    convergence_time: Optional[float]
    final_sync_error: float
    max_control_inf_norm: float
    saturation_events: list
    wall_clock_seconds: float
    integrator: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _kind_parameters(kind: protocols.ProtocolKind) -> dict:
    params = {}
    if kind.is_global:
        params["rho_grid"] = [scheduling.GRID[0], scheduling.RHO_MIN]
    else:
        params["epsilon"] = kind.epsilon
    if kind.is_partial:
        params["observer_gain"] = kind.observer_gain.tolist()
    return params


def run_protocol(
    scenario: Scenario,
    kind: protocols.ProtocolKind,
    *,
    t_final: float = scheduling.T_VAL,
    method: str = "adaptive_rk45",
    dt: float = 1e-2,
    rtol: float = sim.DEFAULT_RTOL,
    atol: float = sim.DEFAULT_ATOL,
):
    """Simulate one protocol on a scenario; returns (Trajectory, RunReport).

    The run converged if its final sync error is below scheduling.TOL_VAL.
    """
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be positive and finite, got {value}")
    field_fn = protocols.ClosedLoopField(scenario.model, scenario.net, kind)
    z0 = field_fn.layout.pack(scenario.x0, scenario.xr0, scenario.chi0,
                              scenario.xhat0)
    start = time.perf_counter()
    traj = sim.integrate(
        field_fn, z0, (0.0, t_final), method=method, dt=dt, rtol=rtol, atol=atol
    )
    elapsed = time.perf_counter() - start
    metrics = sim.sync_metrics(traj, scheduling.TOL_VAL)
    events = sim.saturation_events(traj)
    report = RunReport(
        scenario_fingerprint=scenario.fingerprint(),
        protocol=kind.name,
        parameters=_kind_parameters(kind),
        converged=bool(metrics.error_series[-1] < scheduling.TOL_VAL),
        convergence_time=metrics.convergence_time,
        final_sync_error=float(metrics.error_series[-1]),
        max_control_inf_norm=metrics.max_control_inf_norm,
        saturation_events=[list(e) for e in events],
        wall_clock_seconds=elapsed,
        integrator={"method": method, **asdict(traj.stats),
                    "rtol": rtol, "atol": atol},
    )
    return traj, report


def reproduce(case: int, out_dir):
    """Run the scheduled output-feedback protocol on a bundled example case.

    One fixed protocol configuration serves all three cases; only the graph,
    the number of agents, and the initial conditions change.
    """
    scenario = bundled_scenario(case)
    kind = protocols.global_partial(scenario.model)
    traj, report = run_protocol(
        scenario, kind, t_final=scheduling.T_VAL, rtol=1e-6, atol=1e-8
    )
    _write_run(traj, report, out_dir, f"case{case}_")
    return report


def _write_run(traj, report, out_dir, prefix=""):
    """Write `{prefix}trajectory.csv` and `{prefix}report.json` to out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / f"{prefix}trajectory.csv")
    (out / f"{prefix}report.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n"
    )


# --- command line -----------------------------------------------------------


_PROTOCOL_CHOICES = (
    "global-full", "global-partial", "semiglobal-full", "semiglobal-partial"
)


def _build_kind(scenario: Scenario, name: str, epsilon: Optional[float]):
    family, coupling = name.split("-")
    if family == "semiglobal":
        if epsilon is None:
            raise ParameterError("--epsilon is required for semiglobal protocols")
        if coupling == "full":
            return protocols.semiglobal_full(scenario.model, epsilon)
        return protocols.semiglobal_partial(scenario.model, epsilon)
    if coupling == "full":
        return protocols.global_full(scenario.model)
    return protocols.global_partial(scenario.model)


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    kind = _build_kind(scenario, args.protocol, args.epsilon)
    method = "fixed_rk4" if args.method == "rk4" else "adaptive_rk45"
    traj, report = run_protocol(
        scenario, kind, t_final=args.t_final, method=method, dt=args.dt
    )
    _write_run(traj, report, args.out)
    print(
        f"{kind.name}: final sync error {report.final_sync_error:.3e}, "
        f"max ‖u‖∞ {report.max_control_inf_norm:.3f}, "
        f"{report.integrator['n_steps']} steps"
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    report = check_assumption(scenario.model)
    rooted = in_rooted_family(scenario.net)
    spec_ok = expanded_laplacian(scenario.net).positive_real_parts
    print(f"model admissible: {report.passed}")
    print(f"  max Re eig(A) = {report.max_real_part:.3e}")
    print(f"  stabilizable  = {report.stabilizable}")
    print(f"  detectable    = {report.detectable}")
    print(f"graph rooted from root set: {rooted}")
    print(f"expanded Laplacian spectrum in open RHP: {spec_ok}")
    return EXIT_OK if (report.passed and rooted) else EXIT_VALIDATION


def _cmd_riccati(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.kind == "scheduled":
        sol = solve_scheduled_are(scenario.model, args.param)
    else:
        sol = solve_lowgain_are(scenario.model, args.param)
    print(f"P ({sol.kind}, parameter={sol.parameter}):")
    print(np.array2string(sol.P, precision=12))
    print(f"residual norm: {sol.residual_norm:.3e}")
    print(f"closed loop stable: {sol.closed_loop_stable}")
    return EXIT_OK


def _cmd_select_eps(args) -> int:
    scenario = load_scenario(args.scenario)
    sets = scheduling.CompactSetSpec(
        agent=args.half_width, exo=args.half_width, protocol=args.half_width
    )
    report = scheduling.select_semiglobal_epsilon(
        scenario.model, scenario.net, sets, scenario.coupling
    )
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    report = reproduce(args.case, args.out)
    print(
        f"case {args.case}: converged={report.converged}, "
        f"final sync error {report.final_sync_error:.3e} "
        f"in {report.wall_clock_seconds:.1f}s"
    )
    return EXIT_OK if report.converged else EXIT_ASSERTION


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satsync",
        description="Regulated state synchronization of saturated "
        "linear multi-agent systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one protocol on a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--protocol", required=True, choices=_PROTOCOL_CHOICES)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--t-final", type=float, default=scheduling.T_VAL)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--method", choices=("rk4", "rk45"), default="rk45")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="validate a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("riccati", help="solve one of the design AREs")
    p.add_argument("--scenario", required=True)
    p.add_argument("--kind", required=True, choices=("scheduled", "lowgain"))
    p.add_argument("--param", required=True, type=float)
    p.set_defaults(func=_cmd_riccati)

    p = sub.add_parser("select-eps", help="search a validated semi-global epsilon")
    p.add_argument("--scenario", required=True)
    p.add_argument("--half-width", required=True, type=float)
    p.set_defaults(func=_cmd_select_eps)

    p = sub.add_parser("reproduce", help="run a bundled example case")
    p.add_argument("--case", required=True, type=int, choices=(1, 2, 3))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioValidationError, ModelError, NetworkError, ParameterError,
            protocols.ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RiccatiError, scheduling.SelectionError,
            scheduling.ScheduleFloorError, sim.IntegrationError,
            sim.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
