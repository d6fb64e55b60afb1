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

The scenario's "coupling" names what its network exchanges, states or
outputs, so it picks a kind's full or partial coupling; `simulate
--protocol` names only the family, global or semiglobal.

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


def _coupling_problems(coupling) -> list:
    """The loader's entry for a coupling other than "full" or "partial"."""
    return ([] if coupling in ("full", "partial") else
            [("/coupling", f"must be 'full' or 'partial', got {coupling!r}")])


@dataclass(frozen=True)
class Scenario:
    """One validated scenario.  Its start arrays are held as read-only
    float copies, so a scenario built in code from ints or lists hashes
    the same as the file it was read from.  A coupling other than "full"
    or "partial", a start array with a non-finite entry, or one of another
    shape than x0, chi0, xhat0 (N, n) and xr0 (n,) raises one
    ScenarioValidationError with the loader's entries: a scenario built in
    code passes the loader's checks."""

    model: AgentModel
    net: Network
    x0: np.ndarray  # (N, n)
    xr0: np.ndarray  # (n,)
    chi0: np.ndarray  # (N, n)
    xhat0: np.ndarray  # (N, n)
    coupling: str  # "full" | "partial"

    def __post_init__(self):
        problems = _coupling_problems(self.coupling)
        N, n = self.net.N, self.model.n
        agents = f"an {N}×{n} array"
        for name, shape, what in (
                ("x0", (N, n), f"{agents} of agent initial states"),
                ("xr0", (n,), f"an {n}-vector"),
                ("chi0", (N, n), agents), ("xhat0", (N, n), agents)):
            M = np.array(getattr(self, name), dtype=float)  # a copy: frozen
            if not np.all(np.isfinite(M)):
                problems.append((f"/{name}", "contains non-finite entries"))
            elif M.shape != shape:
                problems.append((f"/{name}", f"must be {what}"))
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        if problems:
            raise ScenarioValidationError(problems)

    @property
    def N(self) -> int:
        return self.net.N

    def fingerprint(self) -> str:
        """SHA-256 of the validated scenario: number formatting, key order
        and omitted defaults in the file do not change it.  It hashes the
        coupling, which every run on the scenario uses, so the fingerprint
        and the protocol family (with ε for a semiglobal one) identify a
        run."""
        blob = json.dumps(_scenario_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _scenario_dict(sc: Scenario) -> dict:
    def values(a):  # + 0.0 makes −0.0 the 0.0 that it equals
        return (a + 0.0).tolist()

    return {
        "model": {
            "A": values(sc.model.A),
            "B": values(sc.model.B),
            "C": values(sc.model.C),
        },
        "network": {
            "adjacency": values(sc.net.adjacency),
            "root_set": [i + 1 for i in sorted(sc.net.root_set)],
        },
        "coupling": sc.coupling,
        "x0": values(sc.x0),
        "xr0": values(sc.xr0),
        "chi0": values(sc.chi0),
        "xhat0": values(sc.xhat0),
    }


def scenario_from_dict(data: dict, source_name: str = "<dict>") -> Scenario:
    problems = []

    def matrix(ptr, parent, key):  # a JSON null reads as an absent key
        if parent.get(key) is None:
            problems.append((ptr, "missing"))
            return None
        try:
            M = np.asarray(parent[key], dtype=float)
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
        A = matrix("/model/A", md, "A")
        B = matrix("/model/B", md, "B")
        C = matrix("/model/C", md, "C")
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
        adj = matrix("/network/adjacency", nd, "adjacency")
        roots = [] if nd.get("root_set") is None else nd["root_set"]
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

    coupling = "full" if data.get("coupling") is None else data["coupling"]
    problems += _coupling_problems(coupling)

    x0 = matrix("/x0", data, "x0")
    xr0 = matrix("/xr0", data, "xr0")
    chi0, xhat0 = (None if data.get(key) is None else
                   matrix(f"/{key}", data, key) for key in ("chi0", "xhat0"))
    if model is not None and net is not None:
        # the Scenario checks the start arrays' shapes; zeros stand in for
        # the defaults and for an array that did not parse, listed already
        zeros = np.zeros((net.N, model.n))
        try:
            scenario = Scenario(
                model, net, zeros if x0 is None else x0,
                zeros[0] if xr0 is None else xr0.reshape(-1),
                zeros if chi0 is None else chi0,
                zeros if xhat0 is None else xhat0, coupling)
        except ScenarioValidationError as exc:
            # less the coupling entry, which is listed already
            problems += [p for p in exc.problems if p not in problems]
    if problems:
        raise ScenarioValidationError(problems)

    if not in_rooted_family(net):
        warnings.warn(
            f"{source_name}: graph is not rooted from the root set; "
            "regulated synchronization is not guaranteed",
            stacklevel=2,
        )
    return scenario


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
    agent = np.array([[f"[{i+1}][{k+1}]" for k in range(n)]
                      for i in range(N)], dtype=object)
    own = np.array([f"[{k+1}]" for k in range(n)], dtype=object)
    cols = ["t", *layout.pack("x" + agent, "xr" + own, "chi" + agent,
                              "xhat" + agent)]
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
        params["rho_grid"] = scheduling.TABLE_RHO[[0, -1]].tolist()
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
    dt: Optional[float] = None,
    rtol: float = sim.DEFAULT_RTOL,
    atol: float = sim.DEFAULT_ATOL,
):
    """Simulate one protocol on a scenario; returns (Trajectory, RunReport).

    The kind's coupling must be the scenario's, or ProtocolError is raised,
    so a report's fingerprint names the coupling its run used.  A given dt
    runs fixed-step RK4 at that step, and no dt runs adaptive
    RK45 at rtol and atol (`sim.integrate`).  The run converged if its
    final sync error is below scheduling.TOL_VAL.
    """
    if kind.coupling != scenario.coupling:
        raise protocols.ProtocolError(
            f"a {kind.name} kind cannot run on a scenario with "
            f"{scenario.coupling} coupling")
    for name, value in (("t_final", t_final), ("dt", dt)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be positive and finite, got {value}")
    field_fn = protocols.ClosedLoopField(scenario.model, scenario.net, kind)
    z0 = field_fn.layout.pack(scenario.x0, scenario.xr0, scenario.chi0,
                              scenario.xhat0)
    start = time.perf_counter()
    traj = sim.integrate(field_fn, z0, (0.0, t_final), dt=dt, rtol=rtol,
                         atol=atol)
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
        # the step options the run read: RK4's dt, RK45's tolerances
        integrator={"method": "adaptive_rk45" if dt is None else "fixed_rk4",
                    **asdict(traj.stats),
                    **({"rtol": rtol, "atol": atol} if dt is None
                       else {"dt": dt})},
    )
    return traj, report


def reproduce(case: int, out_dir):
    """Run the global protocol on a bundled example case to t = T_VAL,
    with the scenario's coupling (partial in all three cases), built as
    `simulate --protocol global` builds it.

    One fixed protocol configuration serves all three cases; only the graph,
    the number of agents, and the initial conditions change.
    """
    out = _out_dir(out_dir)
    scenario = bundled_scenario(case)
    kind = _build_kind(scenario, "global", None)
    traj, report = run_protocol(scenario, kind, rtol=1e-6, atol=1e-8)
    _write_run(traj, report, out, f"case{case}_")
    return report


def _out_dir(path) -> Path:
    """The output directory, created now so that one that cannot be created
    fails before the run rather than after it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory: {exc}") from None
    return out


def _write_run(traj, report, out: Path, prefix=""):
    """Write `{prefix}trajectory.csv` and `{prefix}report.json` to out."""
    write_trajectory_csv(traj, out / f"{prefix}trajectory.csv")
    (out / f"{prefix}report.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n"
    )


# --- command line -----------------------------------------------------------


def _build_kind(scenario: Scenario, family: str, epsilon: Optional[float]):
    """The kind of a protocol family on a scenario, built from its design
    values: a schedule table for "global" or the given ε for "semiglobal",
    and an observer gain exactly when the scenario's coupling is partial."""
    if family == "semiglobal":
        if epsilon is None:
            raise ParameterError("--epsilon is required for semiglobal protocols")
    elif epsilon is not None:
        raise ParameterError(
            "--epsilon applies to semiglobal protocols only; global ones "
            "schedule ε from the protocol state")
    return protocols.ProtocolKind(
        epsilon=epsilon,
        observer_gain=(protocols.design_observer_gain(scenario.model)
                       if scenario.coupling == "partial" else None),
        cache=scheduling.PCache(scenario.model) if family == "global" else None)


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    kind = _build_kind(scenario, args.protocol, args.epsilon)
    out = _out_dir(args.out)
    traj, report = run_protocol(scenario, kind, t_final=args.t_final,
                                dt=args.dt)
    _write_run(traj, report, out)
    print(
        f"{kind.name}: final sync error {report.final_sync_error:.3e}, "
        f"max ‖u‖∞ {report.max_control_inf_norm:.4g}, "
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
    print(f"residual Frobenius norm: {sol.residual_norm:.3e}")
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
    p.add_argument("--protocol", required=True,
                   choices=("global", "semiglobal"),
                   help="the protocol family; the scenario's coupling "
                   "picks full or partial")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--t-final", type=float, default=scheduling.T_VAL)
    # a step runs fixed-step RK4; without one the run is adaptive RK45
    p.add_argument("--dt", type=float, default=None)
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
            scheduling.ScheduleFloorError, sim.IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
