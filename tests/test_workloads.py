"""The benchmark's library calls, run small enough for tier-1.

perfbench/workloads.py drives satsync through its factories, reports and
CLI; a changed signature or report key would otherwise show up only in a
benchmark run.  The workload source is read and executed, never imported
as a package, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

import satsync

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def run_task(fn):
    return fn()


def test_sched_batch_and_reproduce_pass_their_checks(tmp_path):
    workloads = load_workloads()
    batch = workloads.SchedBatch(satsync, 1, tmp_path)
    batch.N_STRATA = 1
    batch.T_FINAL = 0.5
    batch.setup(run_task)  # one global_full and one global_partial scenario
    results = batch.run_pass(run_task)
    assert len(results) == 2
    assert all(r["steps"] > 0 for r in results)
    result = workloads.Reproduce(satsync, 1, tmp_path)._case(3)
    assert result["final_sync_error"] < 1e-2


def test_select_eps_passes_its_check(tmp_path):
    # asserts eps* = 1.0 and n_samples = 257 on case 3, half-width 0.05
    report = load_workloads().SelectEps(satsync, 1, tmp_path)._select()
    assert report["trials"][-1]["passed"]
