import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satsync
from conftest import SKEWED_DOUBLE_INTEGRATOR
from satsync import (
    AgentModel,
    Network,
    Scenario,
    bundled_scenario,
    global_full,
    run_protocol,
    semiglobal_full,
    write_trajectory_csv,
)
from satsync.cli_io import (
    EXIT_ASSERTION,
    EXIT_OK,
    EXIT_VALIDATION,
    ScenarioValidationError,
    load_scenario,
    main,
    read_trajectory_csv,
    scenario_from_dict,
)

SCALAR_SCENARIO = {
    "model": {"A": [[0.0]], "B": [[1.0]], "C": [[1.0]]},
    "network": {"adjacency": [[0, 0], [1, 0]], "root_set": [1]},
    "coupling": "full",
    "x0": [[0.4], [-0.3]],
    "xr0": [0.2],
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestScenarioParsing:
    def test_minimal_scenario(self):
        sc = scenario_from_dict(SCALAR_SCENARIO)
        assert sc.N == 2
        assert sc.net.root_set == frozenset([0])  # 1-based in JSON
        np.testing.assert_array_equal(sc.chi0, np.zeros((2, 1)))

    def test_self_loop_reported_with_pointer(self):
        bad = json.loads(json.dumps(SCALAR_SCENARIO))
        bad["network"]["adjacency"] = [[1, 0], [1, 0]]
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(bad)
        assert any(ptr == "/network" for ptr, _ in exc.value.problems)

    def test_shape_mismatch_reported(self):
        bad = json.loads(json.dumps(SCALAR_SCENARIO))
        bad["x0"] = [[0.4]]
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(bad)
        assert any(ptr == "/x0" for ptr, _ in exc.value.problems)

    def test_multiple_problems_aggregated(self):
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict({})
        assert len(exc.value.problems) >= 2

    def test_unrooted_graph_warns(self):
        loose = json.loads(json.dumps(SCALAR_SCENARIO))
        loose["network"]["root_set"] = [2]  # root set cannot reach agent 1
        with pytest.warns(UserWarning, match="not rooted"):
            scenario_from_dict(loose)

    def test_boolean_root_set_entry_rejected(self):
        bad = json.loads(json.dumps(SCALAR_SCENARIO))
        bad["network"]["root_set"] = [True]  # would load as agent 1
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(bad)
        assert any(ptr == "/network/root_set" for ptr, _ in exc.value.problems)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioValidationError):
            load_scenario(path)

    def test_fingerprint_stable(self):
        a = scenario_from_dict(json.loads(json.dumps(SCALAR_SCENARIO)))
        b = scenario_from_dict(json.loads(json.dumps(SCALAR_SCENARIO)))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_hashes_the_validated_scenario(self, tmp_path):
        # integer literals, the same file with float literals, reordered
        # keys and a written-out default, and the Scenario built in code
        ints = {
            "model": {"A": [[0]], "B": [[1]], "C": [[1]]},
            "network": {"adjacency": [[0, 0], [1, 0]], "root_set": [1]},
            "coupling": "full",
            "x0": [[1], [-2]],
            "xr0": [0],
        }
        floats = {
            "xr0": [0.0],
            "x0": [[1.0], [-2.0]],
            "chi0": [[0.0], [0.0]],
            "coupling": "full",
            "network": {"root_set": [1],
                        "adjacency": [[0.0, 0.0], [1.0, 0.0]]},
            "model": {"C": [[1.0]], "B": [[1.0]], "A": [[0.0]]},
        }
        built = Scenario(
            model=AgentModel([[0.0]], [[1.0]], [[1.0]]),
            net=Network(adjacency=np.array([[0.0, 0.0], [1.0, 0.0]]),
                        root_set=frozenset([0])),
            x0=np.array([[1.0], [-2.0]]), xr0=np.array([0.0]),
            chi0=np.zeros((2, 1)), xhat0=np.zeros((2, 1)), coupling="full",
        )
        loaded = [load_scenario(write_scenario(tmp_path, d, f"{i}.json"))
                  for i, d in enumerate((ints, floats))]
        assert len({sc.fingerprint() for sc in loaded + [built]}) == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
# short lists of small integers and booleans reach valid root sets often
SMALL_LISTS = st.lists(st.integers(-1, 3) | st.booleans(), max_size=3)
SCENARIO_FIELDS = (
    ("model",), ("model", "A"), ("model", "B"), ("model", "C"),
    ("network",), ("network", "adjacency"), ("network", "root_set"),
    ("coupling",), ("x0",), ("xr0",), ("chi0",), ("xhat0",),
)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(path=st.sampled_from(SCENARIO_FIELDS), value=JSON_VALUES | SMALL_LISTS)
@example(path=("x0",), value=[[10**400], [0.0]])  # int beyond float range
def test_fuzzed_scenario_field_loads_or_is_rejected(path, value):
    """Any JSON in any one field either loads or raises the validation error."""
    data = json.loads(json.dumps(SCALAR_SCENARIO))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # unrooted graph
        try:
            sc = scenario_from_dict(data)
        except ScenarioValidationError:
            return
    roots = data["network"].get("root_set", [])
    assert all(type(r) is int for r in roots)  # bool is an int subclass
    assert sc.net.root_set == {r - 1 for r in roots}


class TestBundledScenarios:
    def test_case1_shape(self):
        sc = bundled_scenario(1)
        assert sc.N == 5
        assert sc.model.n == 3
        assert sc.coupling == "partial"

    def test_all_cases_admissible(self):
        from satsync import check_assumption, in_rooted_family

        for case in (1, 2, 3):
            sc = bundled_scenario(case)
            assert check_assumption(sc.model).passed
            assert in_rooted_family(sc.net)

    def test_bad_case_number(self):
        with pytest.raises(ValueError):
            bundled_scenario(4)


class TestTrajectoryCsv:
    def test_column_count_and_round_trip(self, tmp_path):
        sc = scenario_from_dict(SCALAR_SCENARIO)
        kind = global_full(sc.model)
        traj, _ = run_protocol(sc, kind, t_final=1.0, rtol=1e-6, atol=1e-8)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        header, data = read_trajectory_csv(path)
        N, n, m = 2, 1, 1
        # t | x | xr | chi | u | eps | sync_error
        assert len(header) == 1 + N * n + n + N * n + N * m + N + 1
        assert header[0] == "t"
        assert header[-1] == "sync_error"
        assert data.shape == (traj.times.size, len(header))
        np.testing.assert_allclose(data[:, 0], traj.times, rtol=1e-15)
        np.testing.assert_allclose(
            data[:, 1 : 1 + N * n], traj.states[:, : N * n], rtol=1e-15
        )

    def test_partial_layout_adds_observer_columns(self, tmp_path):
        sc = bundled_scenario(3)
        from satsync import global_partial

        kind = global_partial(sc.model)
        traj, _ = run_protocol(sc, kind, t_final=0.5, rtol=1e-6, atol=1e-8)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        header, data = read_trajectory_csv(path)
        N, n, m = 3, 3, 1
        assert len(header) == 1 + N * n + n + 2 * N * n + N * m + N + 1
        assert f"xhat[{N}][{n}]" in header


class TestRunProtocol:
    def test_scalar_pair_synchronizes(self):
        sc = scenario_from_dict(SCALAR_SCENARIO)
        kind = semiglobal_full(sc.model, 1.0)
        traj, report = run_protocol(sc, kind, t_final=20.0)
        assert report.converged
        assert report.final_sync_error < 1e-2
        assert report.max_control_inf_norm <= 1.0 + 1e-9
        assert report.protocol == "semiglobal-full"


class TestCommandLine:
    def test_check_ok(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        assert main(["check", "--scenario", str(path)]) == EXIT_OK
        assert "model admissible: True" in capsys.readouterr().out

    def test_check_unrooted_fails_validation(self, tmp_path):
        loose = json.loads(json.dumps(SCALAR_SCENARIO))
        loose["network"]["root_set"] = [2]
        path = write_scenario(tmp_path, loose)
        with pytest.warns(UserWarning):
            code = main(["check", "--scenario", str(path)])
        assert code == EXIT_VALIDATION

    def test_invalid_scenario_exit_code(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SCALAR_SCENARIO))
        del bad["model"]
        path = write_scenario(tmp_path, bad)
        assert main(["check", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_check_rejects_a_top_level_array(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([SCALAR_SCENARIO]))
        assert main(["check", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "top level must be an object" in capsys.readouterr().err

    def test_riccati_bad_parameter_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        code = main(
            ["riccati", "--scenario", str(path), "--kind", "scheduled",
             "--param", "2.0"]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("command", [
        ["check"],
        ["riccati", "--kind", "lowgain", "--param", "0.5"],
        ["select-eps", "--half-width", "0.1"],
        ["simulate", "--protocol", "semiglobal-full", "--epsilon", "1",
         "--out", "o"],
    ], ids=lambda c: c[0])
    def test_missing_scenario_file_exit_code(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.json")
        code = main(command[:1] + ["--scenario", missing] + command[1:])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "/: cannot read file" in err

    @pytest.mark.parametrize("arguments", [
        ["select-eps", "--half-width", "-1"],
        ["select-eps", "--half-width", "nan"],
        ["select-eps", "--half-width", "inf"],
        ["simulate", "--t-final", "0"],
        ["simulate", "--t-final", "inf"],
        ["simulate", "--method", "rk4", "--dt", "0"],
        ["simulate", "--dt", "nan"],
        ["simulate", "--protocol", "global-full"],
    ], ids=" ".join)
    def test_bad_numeric_argument_exit_code(self, tmp_path, capsys, arguments):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        extra = []
        if arguments[0] == "simulate":
            extra = ["--protocol", "semiglobal-full", "--epsilon", "1",
                     "--out", str(tmp_path / "o")]
        code = main(arguments[:1] + ["--scenario", str(path)] + extra
                    + arguments[1:])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reproduce", "simulate"])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys,
                                                 monkeypatch, command):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking --out")

        monkeypatch.setattr(satsync.cli_io, "run_protocol", no_run)
        if command == "reproduce":
            argv = ["reproduce", "--case", "1"]
        else:
            path = write_scenario(tmp_path, SCALAR_SCENARIO)
            argv = ["simulate", "--scenario", str(path),
                    "--protocol", "semiglobal-full", "--epsilon", "1"]
        regular_file = tmp_path / "file"
        regular_file.write_text("")
        code = main(argv + ["--out", str(regular_file / "out")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    def test_riccati_unseparable_hamiltonian_exit_code(self, tmp_path, capsys):
        # LAPACK's reordering failure is reported as an error, not a traceback
        data = dict(SCALAR_SCENARIO, model=SKEWED_DOUBLE_INTEGRATOR,
                    x0=[[0.4, 0.1], [-0.3, 0.2]], xr0=[0.2, 0.0])
        path = write_scenario(tmp_path, data)
        code = main(
            ["riccati", "--scenario", str(path), "--kind", "scheduled",
             "--param", "9.5367431640625e-07"]
        )
        captured = capsys.readouterr()
        if code == EXIT_OK:
            assert "closed loop stable: True" in captured.out
        else:
            assert code == EXIT_ASSERTION
            assert captured.err.startswith("error:")

    def test_riccati_prints_solution(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        code = main(
            ["riccati", "--scenario", str(path), "--kind", "lowgain",
             "--param", "0.25"]
        )
        assert code == EXIT_OK
        assert "closed loop stable: True" in capsys.readouterr().out

    def test_simulate_deterministic(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        argv = [
            "simulate", "--scenario", str(path),
            "--protocol", "semiglobal-full", "--epsilon", "1.0",
            "--t-final", "5.0",
        ]
        assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_OK
        capsys.readouterr()
        csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b

    @pytest.mark.parametrize("protocol, epsilon", [
        ("global-full", None),
        ("global-partial", None),
        ("semiglobal-partial", "1.0"),
    ])
    def test_simulate_protocol(self, tmp_path, capsys, protocol, epsilon):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        argv = ["simulate", "--scenario", str(path), "--protocol", protocol,
                "--t-final", "1.0", "--out", str(tmp_path / "o")]
        if epsilon is not None:
            argv += ["--epsilon", epsilon]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"{protocol}: ")
        header, _ = read_trajectory_csv(tmp_path / "o" / "trajectory.csv")
        assert ("xhat[1][1]" in header) == protocol.endswith("partial")
        assert ("eps[1]" in header) == protocol.startswith("global")
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["protocol"] == protocol

    def test_simulate_semiglobal_requires_epsilon(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        code = main(
            ["simulate", "--scenario", str(path),
             "--protocol", "semiglobal-full",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "epsilon" in capsys.readouterr().err

    def test_python_m_satsync_runs_without_warnings(self):
        src = str(Path(satsync.__file__).resolve().parents[1])
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "satsync", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "select-eps" in proc.stdout
