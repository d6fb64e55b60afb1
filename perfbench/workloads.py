"""The three benchmark workloads.

Each workload has `setup(run_task)` (everything before the timed phase; the
benchmark repeats it and keeps the last one) and `run_pass(run_task)`,
which runs one pass of tasks.  `run_task(fn)` calls `fn`, which returns a
deterministic fingerprint of the task's outputs or raises `CheckFailed`;
a raised error of any kind counts as a failed task.

PASS_S, the nominal time of one pass on the reference machine (a 2-core
x86 VM), sets how many passes fill a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """A task ran but its output is not what the program promises."""


def _run_cli(satsync, argv):
    """satsync's CLI entry point with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = satsync.cli_io.main(argv)
    return code, buf.getvalue()


class Reproduce:
    """`satsync reproduce` on the bundled cases 1-3, each with a cold cache."""

    CASES = (1, 2, 3)
    PASS_S = 7.5

    def __init__(self, satsync, seed, workdir: Path):
        self.satsync = satsync
        self.workdir = workdir

    def setup(self, run_task):
        pass

    def _case(self, case):
        with tempfile.TemporaryDirectory(dir=self.workdir) as out:
            code, _ = _run_cli(
                self.satsync,
                ["reproduce", "--case", str(case), "--out", out])
            if code != 0:
                raise CheckFailed(f"case {case}: exit code {code}")
            report = json.loads(
                (Path(out) / f"case{case}_report.json").read_text())
        if not report["converged"]:
            raise CheckFailed(f"case {case}: not converged")
        if report["saturation_events"]:
            raise CheckFailed(f"case {case}: saturation events")
        integ = report["integrator"]
        return {"steps": integ["n_steps"], "rejected": integ["n_rejected"],
                "field_evals": integ["n_field_evals"],
                "final_sync_error": report["final_sync_error"]}

    def run_pass(self, run_task):
        return [run_task(lambda c=c: self._case(c)) for c in self.CASES]


class SelectEps:
    """`satsync select-eps` on bundled case 3 with half-width 0.05."""

    HALF_WIDTH = "0.05"
    EPSILON_STAR = 1.0
    N_SAMPLES = 257
    PASS_S = 10.0

    def __init__(self, satsync, seed, workdir: Path):
        self.satsync = satsync
        self.scenario = Path(satsync.__file__).parent / "data" / "case3.json"

    def setup(self, run_task):
        pass

    def _select(self):
        code, out = _run_cli(
            self.satsync,
            ["select-eps", "--scenario", str(self.scenario),
             "--half-width", self.HALF_WIDTH])
        if code != 0:
            raise CheckFailed(f"select-eps: exit code {code}")
        report = json.loads(out)
        if report["epsilon_star"] != self.EPSILON_STAR:
            raise CheckFailed(f"epsilon_star {report['epsilon_star']}")
        if report["n_samples"] != self.N_SAMPLES:
            raise CheckFailed(f"n_samples {report['n_samples']}")
        return report

    def run_pass(self, run_task):
        return [run_task(self._select)]


class SchedBatch:
    """Random rooted digraphs sharing one warm PCache and observer gain.

    N_RANGE is cut into N_STRATA equal strata, and each stratum gets one
    `global_full` and one `global_partial` scenario, each drawing its own N
    uniformly from the stratum.  Every seed then covers small and large
    networks under both kinds alike, so pass time and latency percentiles
    vary little between seeds; the batch as a whole is still uniform over
    N_RANGE.
    """

    N_STRATA = 10
    PASS_S = 6.0
    N_RANGE = (2, 32)  # inclusive
    BOX = 10.0
    T_FINAL, RTOL, ATOL = 5.0, 1e-6, 1e-8

    def __init__(self, satsync, seed, workdir: Path):
        self.satsync = satsync
        self.seed = seed
        self.scenarios = []

    def setup(self, run_task):
        s = self.satsync
        rng = np.random.default_rng(self.seed)
        model = s.model.triple_integrator()
        cache = s.scheduling.PCache(model)
        gain = s.riccati.design_observer_gain(model)
        kinds = (s.protocols.global_full(model, cache),
                 s.protocols.global_partial(model, cache, gain))
        n = model.n
        lo, hi = self.N_RANGE
        strata = np.linspace(lo, hi + 1, self.N_STRATA + 1).astype(int)
        self.scenarios = []
        for i in range(2 * self.N_STRATA):
            N = int(rng.integers(strata[i // 2], strata[i // 2 + 1]))
            net = s.graph.random_rooted_network(rng, N)
            kind = kinds[i % 2]
            scenario = s.cli_io.Scenario(
                model=model, net=net,
                x0=rng.uniform(-self.BOX, self.BOX, size=(N, n)),
                xr0=rng.uniform(-self.BOX, self.BOX, size=n),
                chi0=np.zeros((N, n)), xhat0=np.zeros((N, n)),
                coupling=kind.coupling)
            self.scenarios.append((scenario, kind))
        # warm the shared cache: the timed passes then make no ARE solves
        self.run_pass(run_task)

    def _scenario(self, scenario, kind):
        traj, report = self.satsync.cli_io.run_protocol(
            scenario, kind, t_final=self.T_FINAL, rtol=self.RTOL,
            atol=self.ATOL)
        if report.saturation_events:
            raise CheckFailed(f"N={scenario.N}: saturation events")
        if traj.realized_epsilon.min() < self.satsync.scheduling.RHO_MIN:
            raise CheckFailed(f"N={scenario.N}: epsilon below RHO_MIN")
        integ = report.integrator
        return {"steps": integ["n_steps"], "rejected": integ["n_rejected"],
                "field_evals": integ["n_field_evals"],
                "final_sync_error": report.final_sync_error}

    def run_pass(self, run_task):
        return [run_task(lambda sc=sc, k=k: self._scenario(sc, k))
                for sc, k in self.scenarios]


WORKLOADS = {
    "reproduce": Reproduce,
    "select_eps": SelectEps,
    "sched_batch": SchedBatch,
}
