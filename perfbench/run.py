"""satsync benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 15

Run from the repository root.  The package is imported from `src/` of the
same checkout and nowhere else.  Workloads, metric names, units and the
reason each workload exists are declared in `BENCHMARK.json`; the last line
of standard output is the JSON result, the lines before it a readable
summary.  A JSON record of the run goes to `perfbench/out/`, and a traced
run also writes the spans of its first traced pass there.

`--trace 0`: set-up runs SETUP_REPEATS times, then round(seconds / PASS_S)
passes of the workload run, interleaved with a fixed calibration loop.
`--trace 1`: set-up runs once, then untraced and traced passes alternate
until `--seconds` are spent; counts must repeat exactly across traced
passes, and traced and untraced passes must produce identical outputs.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are at most 96 x 96, and extra threads only
# add scheduler noise on a small shared machine.  Set before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla

from tracer import Patched, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
CALIB_ITERS = 100
CALIB_EVERY_S = 0.1
CALIB_WINDOW_S = 0.5

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import satsync\n"
    "print(time.perf_counter() - t)\n"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_satsync():
    if not (SRC / "satsync" / "__init__.py").is_file():
        raise BenchmarkError(f"no satsync package under {SRC}")
    sys.path.insert(0, str(SRC))
    import satsync

    if Path(satsync.__file__).resolve().parent != SRC / "satsync":
        raise BenchmarkError(f"satsync imported from {satsync.__file__}")
    return satsync


def import_seconds():
    """Time of `import satsync` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def calibrate():
    """Fixed reference work: small dense numpy/scipy algebra plus a Python
    loop, no satsync code.  Host slowdowns stretch it and the workload
    alike, so their ratio drifts less than either."""
    t0 = time.perf_counter()
    A = np.arange(36.0).reshape(6, 6) % 7 - 3.0
    S = A[:3, :3] - 8.0 * np.eye(3)
    acc = 0.0
    for i in range(CALIB_ITERS):
        sla.schur(A, sort="lhp")
        acc += sla.solve_continuous_lyapunov(S, -np.eye(3))[0, 0]
        acc += np.linalg.eigvals(A).real.max()
        for x in A @ A[:, i % 6]:
            acc += 0.5 * float(x)
    if not math.isfinite(acc):
        raise BenchmarkError("calibration loop produced a non-finite value")
    return time.perf_counter() - t0


class Tally:
    """Counts tasks; an exception or failed check is a failure, not a crash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every error is a failed task
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail_percentile(n):
    """Highest whole percentile with TAIL_BEYOND samples beyond it, >= 50."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


class CalibratedClock:
    """Interleaves `calibrate()` with the workload and times simulations.

    Host speed on a shared machine changes within a second, so one
    calibration per pass tracks it poorly.  Instead the closed-loop field
    runs the calibration loop whenever CALIB_EVERY_S has passed since the
    last one, and every time figure excludes calibration time.  A timed
    interval is compared with the mean of the calibrations that ran within
    CALIB_WINDOW_S of it; one calibration alone is too noisy.
    """

    def __init__(self):
        self.calibs: list[float] = []
        self.calib_total = 0.0
        self.latencies: list[float] = []  # one per `sim.integrate` call
        self._calib_at: list[float] = []
        self._spans: list[tuple[float, float]] = []
        self._next = 0.0

    def calibrate(self):
        t0 = time.perf_counter()
        self.calibs.append(calibrate())
        self._calib_at.append(t0 + self.calibs[-1] / 2)
        self.calib_total += self.calibs[-1]
        self._next = time.perf_counter() + CALIB_EVERY_S

    def maybe_calibrate(self):
        if time.perf_counter() >= self._next:
            self.calibrate()

    def relative(self, seconds, start, end):
        """seconds ÷ mean calibration near the interval [start, end]."""
        at = np.asarray(self._calib_at)
        lo, hi = np.searchsorted(at, [start - CALIB_WINDOW_S,
                                      end + CALIB_WINDOW_S])
        if lo == hi:  # none in the window: take the nearest one
            lo = min(lo, len(at) - 1)
            hi = lo + 1
        return seconds / statistics.fmean(self.calibs[lo:hi])

    def relative_latencies(self):
        return [self.relative(dt, *span)
                for dt, span in zip(self.latencies, self._spans)]

    def patch(self, satsync):
        sim, field = satsync.sim, satsync.protocols.ClosedLoopField
        integrate, call = sim.__dict__["integrate"], field.__dict__["__call__"]

        def field_call(self_, t, z):
            self.maybe_calibrate()
            return call(self_, t, z)

        def timed(*args, **kwargs):
            calib0, t0 = self.calib_total, time.perf_counter()
            try:
                return integrate(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.latencies.append(t1 - t0 - (self.calib_total - calib0))
                self._spans.append((t0, t1))

        return Patched([(sim, "integrate", timed),
                        (field, "__call__", field_call)])


def measure_untraced(satsync, workload, tally, seconds):
    import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(tally.run)
        setup_s.append(time.perf_counter() - t0)

    # A fixed pass count (not a deadline) gives every commit the same
    # samples, so percentiles mean the same thing before and after a change.
    n_passes = max(MIN_PASSES, round(seconds / workload.PASS_S))
    clock = CalibratedClock()
    walls, spans, fingerprints = [], [], []
    with clock.patch(satsync):
        clock.calibrate()
        for _ in range(n_passes):
            calib0, t0 = clock.calib_total, time.perf_counter()
            fingerprints.append(workload.run_pass(tally.run))
            t1 = time.perf_counter()
            walls.append(t1 - t0 - (clock.calib_total - calib0))
            spans.append((t0, t1))
        clock.calibrate()
    rels = [clock.relative(w, *span) for w, span in zip(walls, spans)]
    relative = clock.relative_latencies()

    problems = []
    if any(fp != fingerprints[0] for fp in fingerprints):
        problems.append("passes gave different outputs")
    q = tail_percentile(len(clock.latencies))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_rel": (statistics.median(rels), "ratio"),
        "setup_s": (statistics.median(import_s) + statistics.median(setup_s),
                    "s"),
        "scenario_s.p50": (float(np.percentile(clock.latencies, 50)), "s"),
        "scenario_s.tail": (float(np.percentile(clock.latencies, q)), "s"),
        "scenario_rel.p50": (float(np.percentile(relative, 50)), "ratio"),
        "scenario_rel.tail": (float(np.percentile(relative, q)), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "passes": n_passes,
        "wall_s": walls,
        "wall_s_quartiles": quartiles(walls),
        "wall_rel": rels,
        "calib_s": clock.calibs,
        "import_s": import_s,
        "setup_inprocess_s": setup_s,
        "scenario_samples": len(clock.latencies),
        "scenario_tail_percentile": q,
        "scenario_s_quartiles": quartiles(clock.latencies),
    }
    return metrics, detail, problems, statistics.median(clock.calibs)


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass: (value, unit)."""
    spans, under = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    lookups = calls("scheduling.lookup")
    steps, rejected = counters["sim.steps"], counters["sim.rejected"]
    field_calls = calls("protocols.field")
    return {
        "riccati.scheduled.calls": (calls("riccati.scheduled"), "count"),
        "riccati.scheduled.self_s": (self_s("riccati.scheduled"), "s"),
        "riccati.lowgain.calls": (calls("riccati.lowgain"), "count"),
        "riccati.lowgain.self_s": (self_s("riccati.lowgain"), "s"),
        "riccati.observer.calls": (calls("riccati.observer"), "count"),
        "riccati.observer.self_s": (self_s("riccati.observer"), "s"),
        "riccati.errors": (
            sum(counters[f"riccati.{k}.errors"]
                for k in ("scheduled", "lowgain", "observer")), "count"),
        "scheduling.eps.calls": (calls("scheduling.eps"), "count"),
        "scheduling.g.calls": (calls("scheduling.g"), "count"),
        "scheduling.lookups": (lookups, "count"),
        "scheduling.self_s": (
            self_s("scheduling.eps", "scheduling.g", "scheduling.lookup",
                   "scheduling.cache_build"), "s"),
        "scheduling.probes_per_eps": (
            calls("scheduling.g") / max(calls("scheduling.eps"), 1), "count"),
        "scheduling.hit_ratio": (
            1.0 - under("riccati.scheduled", "scheduling.lookup")
            / max(lookups, 1), "ratio"),
        "scheduling.select.trials": (
            counters["scheduling.select.trials"], "count"),
        "scheduling.select.integrations": (
            under("sim.integrate", "scheduling.select"), "count"),
        "scheduling.select.self_s": (self_s("scheduling.select"), "s"),
        "protocols.field.calls": (field_calls, "count"),
        "protocols.field.self_s": (self_s("protocols.field"), "s"),
        "protocols.field.self_us_per_call": (
            1e6 * self_s("protocols.field") / max(field_calls, 1), "us"),
        "protocols.control_info.calls": (
            calls("protocols.control_info"), "count"),
        "protocols.control_info.self_s": (
            self_s("protocols.control_info"), "s"),
        "sim.integrate.calls": (calls("sim.integrate"), "count"),
        "sim.self_s": (
            self_s("sim.integrate", "sim.sync_metrics",
                   "sim.saturation_events"), "s"),
        "sim.sync_metrics.self_s": (self_s("sim.sync_metrics"), "s"),
        "sim.steps": (steps, "count"),
        "sim.rejected": (rejected, "count"),
        "sim.field_evals": (counters["sim.field_evals"], "count"),
        "sim.accept_ratio": (steps / max(steps + rejected, 1), "ratio"),
        "cli_io.run_protocol.calls": (calls("cli_io.run_protocol"), "count"),
        "cli_io.csv.self_s": (self_s("cli_io.csv"), "s"),
        "cli_io.csv.bytes": (counters["cli_io.csv.bytes"], "bytes"),
        "cli_io.load.self_s": (self_s("cli_io.load"), "s"),
        "model.check_assumption.calls": (
            calls("model.check_assumption"), "count"),
        "model.check_assumption.self_s": (
            self_s("model.check_assumption"), "s"),
        "graph.self_s": (self_s("graph"), "s"),
    }


def measure_traced(satsync, workload, tally, seconds, spans_path):
    workload.setup(tally.run)
    walls_u, walls_t, passes, problems = [], [], [], []
    first = None
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        fp_untraced = workload.run_pass(tally.run)
        walls_u.append(time.perf_counter() - t0)

        tracer = Tracer()
        with tracer.patches(satsync):
            t0 = time.perf_counter()
            fp_traced = workload.run_pass(
                lambda fn: tally.run(lambda: tracer.task(fn)))
            walls_t.append(time.perf_counter() - t0)
        passes.append(layer_metrics(tracer))
        if first is None:
            first = tracer

        if fp_traced != fp_untraced:
            problems.append("tracing changed the program's outputs")
        steps = [fp["steps"] for fp in fp_untraced
                 if isinstance(fp, dict) and "steps" in fp]
        if steps and sum(steps) != tracer.counters["sim.steps"]:
            problems.append(
                f"untraced sim.steps {sum(steps)} != traced "
                f"{tracer.counters['sim.steps']}")

    first.save(spans_path)
    counts = [{k: v for k, (v, unit) in p.items() if unit not in ("s", "us")}
              for p in passes]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    # counts repeat exactly; times are medians over traced passes
    metrics = {k: (statistics.median(p[k][0] for p in passes), unit)
               for k, (_, unit) in passes[0].items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(walls_t) / statistics.median(walls_u) - 1.0,
        "ratio")
    detail = {"traced_passes": len(walls_t), "wall_s_traced": walls_t,
              "wall_s_untraced": walls_u, "spans_file": str(spans_path)}
    return metrics, detail, problems


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    satsync = import_satsync()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](satsync, args.seed, OUT)
    tally = Tally()
    calib_s = None
    if args.trace:
        metrics, detail, problems = measure_traced(
            satsync, workload, tally, args.seconds, OUT / f"{stem}.spans.npz")
    else:
        metrics, detail, problems, calib_s = measure_untraced(
            satsync, workload, tally, args.seconds)

    names = [m["name"] for m in declared]
    for m in declared:
        if metrics.get(m["name"], (None, None))[1] != m["unit"]:
            raise BenchmarkError(
                f"{m['name']} is not measured in {m['unit']} as declared")

    failed_frac = tally.failed / max(tally.attempted, 1)
    correct = tally.failed == 0 and not problems
    record = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "calib_s": calib_s, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": failed_frac, "errors": tally.errors[:20],
        "problems": problems, "detail": detail,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# satsync benchmark {args.workload} seed={args.seed} "
          f"trace={args.trace} sha={record['git_sha']} "
          f"numpy={np.__version__} scipy={scipy.__version__} "
          f"nproc={os.cpu_count()} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
          f"calib_s={calib_s}")
    print(f"# why: {why}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {failed_frac:.6g} "
          f"({tally.failed}/{tally.attempted})"
          f"{'; ' + '; '.join(problems) if problems else ''}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
