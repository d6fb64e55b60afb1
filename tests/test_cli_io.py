import dataclasses
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
    CompactSetSpec,
    Network,
    ProtocolKind,
    Scenario,
    bundled_scenario,
    design_observer_gain,
    global_full,
    global_partial,
    run_protocol,
    scheduling,
    write_trajectory_csv,
)
from satsync.cli_io import (
    EXIT_ASSERTION,
    EXIT_OK,
    EXIT_VALIDATION,
    ScenarioValidationError,
    _build_kind,
    _kind_parameters,
    load_scenario,
    main,
    read_trajectory_csv,
    scenario_from_dict,
)
from satsync.protocols import ProtocolError

SCALAR_SCENARIO = {
    "model": {"A": [[0.0]], "B": [[1.0]], "C": [[1.0]]},
    "network": {"adjacency": [[0, 0], [1, 0]], "root_set": [1]},
    "coupling": "full",
    "x0": [[0.4], [-0.3]],
    "xr0": [0.2],
}
KIND_PAIRS = [(family, coupling) for family in ("global", "semiglobal")
              for coupling in ("full", "partial")]


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

    @pytest.mark.parametrize("path", [
        ("model", "A"), ("model", "B"), ("model", "C"),
        ("network", "adjacency"), ("x0",), ("xr0",),
    ])
    def test_missing_field_reported_as_missing(self, path):
        """An absent field and one given as JSON null both read "missing"."""
        for null in (False, True):
            bad = json.loads(json.dumps(SCALAR_SCENARIO))
            parent = bad
            for key in path[:-1]:
                parent = parent[key]
            if null:
                parent[path[-1]] = None
            else:
                del parent[path[-1]]
            with pytest.raises(ScenarioValidationError) as exc:
                scenario_from_dict(bad)
            assert exc.value.problems == [("/" + "/".join(path), "missing")]

    @pytest.mark.parametrize("path", [
        ("chi0",), ("xhat0",), ("coupling",), ("network", "root_set"),
    ])
    def test_null_optional_field_takes_its_default(self, path):
        """An optional field given as JSON null loads as if it were absent."""
        null = json.loads(json.dumps(SCALAR_SCENARIO))
        parent = null
        for key in path[:-1]:
            parent = parent[key]
        parent.pop(path[-1], None)
        absent = json.loads(json.dumps(null))
        parent[path[-1]] = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # unrooted graph
            got, want = scenario_from_dict(null), scenario_from_dict(absent)
        assert got.fingerprint() == want.fingerprint()

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

    def test_three_dimensional_matrix_reported(self):
        bad = json.loads(json.dumps(SCALAR_SCENARIO))
        bad["model"]["A"] = [bad["model"]["A"]]
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(bad)
        assert exc.value.problems == [
            ("/model/A", "A must be a 2-d array, got ndim=3")]

    def test_unknown_coupling_refused_where_it_is_held(self):
        """A Scenario built in code refuses a coupling other than "full" or
        "partial" with the loader's entry, so no kind is built for it; a
        file still reports it together with its other problems."""
        entry = ("/coupling", "must be 'full' or 'partial', got 'Partial'")
        with pytest.raises(ScenarioValidationError) as exc:
            dataclasses.replace(bundled_scenario(3), coupling="Partial")
        assert exc.value.problems == [entry]
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(dict(SCALAR_SCENARIO, coupling="Partial",
                                    xr0=[0.0, 0.0]))
        assert exc.value.problems == [entry, ("/xr0", "must be an 1-vector")]

    @pytest.mark.parametrize("changes", [
        {"x0": [[0.4, -0.3]]},  # transposed: 2 agents of n = 1
        {"chi0": [0.0, 0.0]},  # flat
        {"xr0": [0.2, 0.0]},  # one entry too many
        {"x0": [[float("nan")], [-0.3]]},
        {"coupling": "Partial", "xhat0": [[0.0]], "x0": [[0.4, -0.3]]},
    ])
    def test_scenario_built_in_code_refused_as_its_file(self, changes):
        """A Scenario built in code refuses the start arrays the loader
        refuses, with the same entries, the coupling's among them."""
        with pytest.raises(ScenarioValidationError) as loaded:
            scenario_from_dict(dict(SCALAR_SCENARIO, **changes))
        with pytest.raises(ScenarioValidationError) as built:
            dataclasses.replace(scenario_from_dict(SCALAR_SCENARIO),
                                **changes)
        assert built.value.problems == loaded.value.problems
        assert [ptr for ptr, _ in built.value.problems] == [
            f"/{key}" for key in ("coupling", "x0", "xr0", "chi0", "xhat0")
            if key in changes]

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
        # keys and a written-out default, or with −0.0 for 0.0, and the
        # Scenario built in code, also from an integer array and from a list
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
                  for i, d in enumerate((ints, floats, dict(
                      floats, xr0=[-0.0], chi0=[[0.0], [-0.0]])))]
        built_from = [dataclasses.replace(built, x0=built.x0.astype(int)),
                      dataclasses.replace(built, xr0=[0.0])]
        assert len({sc.fingerprint()
                    for sc in loaded + [built] + built_from}) == 1


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
    roots = data["network"].get("root_set") or []  # null reads as absent
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

    def test_trajectory_without_layout_rejected(self, tmp_path):
        # a plain function field gives a trajectory with no stacked layout
        traj = satsync.integrate(lambda t, z: -z, [1.0], (0.0, 1.0))
        assert traj.layout is None
        with pytest.raises(ValueError, match="layout"):
            write_trajectory_csv(traj, tmp_path / "traj.csv")
        assert not (tmp_path / "traj.csv").exists()

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
        kind = ProtocolKind(epsilon=1.0)
        traj, report = run_protocol(sc, kind, t_final=20.0)
        assert report.converged
        assert report.final_sync_error < 1e-2
        assert report.max_control_inf_norm <= 1.0 + 1e-9
        assert report.protocol == "semiglobal-full"


    def test_report_records_the_step_options_of_its_method(self):
        """An RK4 run's report carries its dt and no tolerances; an RK45
        run's carries its tolerances, last, and no dt."""
        sc = scenario_from_dict(SCALAR_SCENARIO)
        kind = ProtocolKind(epsilon=1.0)
        _, rk4 = run_protocol(sc, kind, t_final=1.0, dt=0.01)
        assert rk4.integrator["method"] == "fixed_rk4"
        assert rk4.integrator["n_steps"] == 100
        assert rk4.integrator["dt"] == 0.01
        assert "rtol" not in rk4.integrator and "atol" not in rk4.integrator
        _, rk45 = run_protocol(sc, kind, t_final=1.0, rtol=1e-6, atol=1e-8)
        assert list(rk45.integrator)[-2:] == ["rtol", "atol"]
        assert rk45.integrator["rtol"] == 1e-6
        assert rk45.integrator["atol"] == 1e-8
        assert "dt" not in rk45.integrator

    @pytest.mark.parametrize("data, kind", [
        (dict(SCALAR_SCENARIO, coupling="partial"),
         lambda model: ProtocolKind(epsilon=1.0)),
        (SCALAR_SCENARIO, global_partial),
    ], ids=["full_kind_on_partial", "partial_kind_on_full"])
    def test_kind_of_another_coupling_rejected(self, data, kind):
        """A kind runs only on a scenario of its own coupling, so a
        report's fingerprint names the coupling its run used."""
        sc = scenario_from_dict(data)
        with pytest.raises(ProtocolError, match="coupling"):
            run_protocol(sc, kind(sc.model), t_final=1.0)

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_reproduce_keeps_its_work_budget(self, case, tmp_path):
        """A work budget for `reproduce`, in counts rather than times: each
        case takes some of its steps with every agent at ε = 1 from the
        Taylor kernel, and makes at most 600 field calls.  Cases 1–3 make
        524, 548 and 524 with numpy 2.4 on OpenBLAS; the bound leaves room
        for another numpy or BLAS.  Taking every step by the stage loop
        makes 680, 716 and 764."""
        report = satsync.reproduce(case, tmp_path)
        assert report.integrator["n_linear_steps"] > 0
        assert report.integrator["n_field_evals"] <= 600


@pytest.mark.parametrize("family, coupling", KIND_PAIRS)
def test_build_kind_holds_the_design_values_of_its_name(family, coupling):
    """`_build_kind` gives a kind a schedule table of the scenario's model
    exactly for the global family, the given ε exactly for the semiglobal
    one, and the gain `design_observer_gain` designs exactly when the
    scenario's coupling is partial."""
    scenario = dataclasses.replace(bundled_scenario(1), coupling=coupling)
    epsilon = 0.25 if family == "semiglobal" else None
    kind = _build_kind(scenario, family, epsilon)
    assert kind.name == f"{family}-{coupling}"
    assert kind.epsilon == epsilon
    assert (kind.cache is not None) == (family == "global")
    if kind.cache is not None:
        assert kind.cache.model is scenario.model
    assert (kind.observer_gain is not None) == (coupling == "partial")
    if kind.observer_gain is not None:
        np.testing.assert_array_equal(kind.observer_gain,
                                      design_observer_gain(scenario.model))


def test_every_kind_reports_each_value_it_holds(monkeypatch):
    """The kinds that the global factories, `_build_kind` and
    `select_semiglobal_epsilon` make report each value they hold, and
    nothing else, in a run report's parameters: ε as itself, the cache as
    the ρ range of its table and K as its entries."""
    scenario = bundled_scenario(1)
    kinds = [global_full(scenario.model), global_partial(scenario.model)]
    kinds += [_build_kind(dataclasses.replace(scenario, coupling=coupling),
                          family, 0.25 if family == "semiglobal" else None)
              for family, coupling in KIND_PAIRS]
    validate = scheduling._validate_epsilon

    def recording(model, net, kind, samples, horizon):
        kinds.append(kind)
        return validate(model, net, kind, samples, horizon)

    monkeypatch.setattr(scheduling, "_validate_epsilon", recording)
    sets = CompactSetSpec(agent=0.0, exo=0.0, protocol=0.0)
    for coupling in ("full", "partial"):
        scheduling.select_semiglobal_epsilon(scenario.model, scenario.net,
                                             sets, coupling)
    assert [kind.name for kind in kinds[-2:]] == ["semiglobal-full",
                                                  "semiglobal-partial"]
    reported_as = {"epsilon": "epsilon", "cache": "rho_grid",
                   "observer_gain": "observer_gain"}
    for kind in kinds:
        held = [f.name for f in dataclasses.fields(kind)
                if getattr(kind, f.name) is not None]
        params = _kind_parameters(kind)
        assert sorted(params) == sorted(reported_as[name] for name in held)
        if kind.is_global:
            assert params["rho_grid"] == [1.0, scheduling.RHO_MIN]
        else:
            assert params["epsilon"] == kind.epsilon
        if kind.is_partial:
            assert params["observer_gain"] == kind.observer_gain.tolist()


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

    def test_check_root_beyond_the_last_agent_exit_code(self, tmp_path,
                                                        capsys):
        bad = json.loads(json.dumps(SCALAR_SCENARIO))
        bad["network"]["root_set"] = [3]  # N = 2
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(bad)
        assert exc.value.problems == [
            ("/network", "root_set indices out of range")]
        path = write_scenario(tmp_path, bad)
        assert main(["check", "--scenario", str(path)]) == EXIT_VALIDATION
        assert ("/network: root_set indices out of range"
                in capsys.readouterr().err)

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
        ["simulate", "--protocol", "semiglobal", "--epsilon", "1",
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
        ["simulate", "--dt", "0"],
        ["simulate", "--dt", "nan"],
        ["simulate", "--protocol", "global"],
    ], ids=" ".join)
    def test_bad_numeric_argument_exit_code(self, tmp_path, capsys, arguments):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        extra = []
        if arguments[0] == "simulate":
            extra = ["--protocol", "semiglobal", "--epsilon", "1",
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
                    "--protocol", "semiglobal", "--epsilon", "1"]
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

    def test_divergence_exit_code(self, tmp_path, capsys, monkeypatch):
        # DivergenceError is an IntegrationError: a run that diverges exits
        # 3 with an error line, not a traceback
        def diverge(*args, **kwargs):
            raise satsync.sim.DivergenceError("non-finite state at t=1", 1.0,
                                              np.array([np.inf]))

        monkeypatch.setattr(satsync.cli_io, "run_protocol", diverge)
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        code = main(["simulate", "--scenario", str(path),
                     "--protocol", "semiglobal", "--epsilon", "1",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ASSERTION == 3
        assert capsys.readouterr().err.startswith("error: non-finite state")

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
            "--protocol", "semiglobal", "--epsilon", "1.0",
            "--t-final", "5.0",
        ]
        assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_OK
        capsys.readouterr()
        csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b

    @pytest.mark.parametrize("family, coupling, epsilon", [
        (family, coupling, "1.0" if family == "semiglobal" else None)
        for family, coupling in KIND_PAIRS])
    def test_simulate_protocol(self, tmp_path, capsys, family, coupling,
                               epsilon):
        """--protocol names the family and the scenario the coupling."""
        data = dict(SCALAR_SCENARIO, coupling=coupling)
        path = write_scenario(tmp_path, data)
        argv = ["simulate", "--scenario", str(path), "--protocol", family,
                "--t-final", "1.0", "--out", str(tmp_path / "o")]
        if epsilon is not None:
            argv += ["--epsilon", epsilon]
        assert main(argv) == EXIT_OK
        name = f"{family}-{coupling}"
        assert capsys.readouterr().out.startswith(f"{name}: ")
        header, _ = read_trajectory_csv(tmp_path / "o" / "trajectory.csv")
        assert ("xhat[1][1]" in header) == (coupling == "partial")
        assert ("eps[1]" in header) == (family == "global")
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["protocol"] == name
        fingerprint = scenario_from_dict(data).fingerprint()
        assert report["scenario_fingerprint"] == fingerprint

    def test_simulate_rejects_a_protocol_name_with_a_coupling(
            self, tmp_path, capsys):
        """The coupling is the scenario's alone: a four-part name is a usage
        error (exit 2, no traceback) and nothing runs."""
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--scenario", str(path), "--protocol",
                  "global-full", "--out", str(tmp_path / "o")])
        assert info.value.code == EXIT_VALIDATION == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_simulate_with_dt_runs_fixed_step_rk4(self, tmp_path, capsys):
        """--dt selects fixed-step RK4, which runs to the end at that step
        and reports it; simulate has no --method flag."""
        path = Path(satsync.__file__).parent / "data" / "case1.json"
        argv = ["simulate", "--scenario", str(path),
                "--protocol", "global", "--t-final", "1",
                "--out", str(tmp_path / "o")]
        assert main(argv + ["--dt", "0.01"]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        integrator = report["integrator"]
        assert integrator["method"] == "fixed_rk4"
        assert integrator["n_steps"] == 100
        assert integrator["dt"] == 0.01
        with pytest.raises(SystemExit) as info:
            main(argv + ["--method", "rk4"])
        assert info.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --method" in capsys.readouterr().err

    def test_simulate_global_on_a_model_with_a_stable_mode(self, tmp_path,
                                                            capsys):
        # A has a mode at −0.3, so the Lyapunov form certifies no grid row
        # below ρ = 1 and the schedule table solves them by the Hamiltonian
        # method
        path = Path(__file__).parent / "data" / "stable_mode.json"
        code = main(["simulate", "--scenario", str(path),
                     "--protocol", "global", "--t-final", "1.0",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        capsys.readouterr()
        header, data = read_trajectory_csv(tmp_path / "o" / "trajectory.csv")
        eps = data[:, [header.index(f"eps[{i}]") for i in range(1, 6)]]
        assert "eps[6]" not in header
        assert ((eps > 0.0) & (eps <= 1.0)).all() and eps.min() < 1.0

    def test_simulate_global_past_a_grid_row_no_solver_certifies(
            self, tmp_path, capsys):
        # A has a mode at −1/8, so the scheduled ARE has no certified
        # solution at the grid row ρ = 1/4; that row reads as failing and
        # the states that need it bisect the next octave down; a full
        # coupling copy of the (partial) file runs the global-full kind
        data = json.loads((Path(__file__).parent / "data"
                           / "grid_gap.json").read_text())
        path = write_scenario(tmp_path, dict(data, coupling="full"))
        code = main(["simulate", "--scenario", str(path),
                     "--protocol", "global", "--t-final", "0.1",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        capsys.readouterr()
        header, data = read_trajectory_csv(tmp_path / "o" / "trajectory.csv")
        eps = data[:, [header.index(f"eps[{i}]") for i in range(1, 6)]]
        assert ((eps > 0.0) & (eps <= 1.0)).all()
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["saturation_events"] == []

    def test_simulate_from_a_start_whose_squares_overflow(self, tmp_path,
                                                          capsys):
        """Case 1 with every x0 entry at scale 1e200: the squares of the sync
        error overflow, so it is taken rescaled by its largest magnitude.
        The semiglobal RK4 run reports a finite sync error at every step,
        and the global run stops at the schedule floor with the state norm
        it reached, not inf; no warning escapes either.  The semiglobal
        summary line prints its max ‖u‖∞ of about 1e200 in a few digits."""
        data = json.loads((Path(satsync.__file__).parent / "data"
                           / "case1.json").read_text())
        data["x0"] = [[1e200 * v if v else 1e200 for v in row]
                      for row in data["x0"]]
        data["coupling"] = "full"
        argv = ["simulate", "--scenario", str(write_scenario(tmp_path, data)),
                "--dt", "0.01", "--t-final", "1"]
        assert main(argv + ["--protocol", "semiglobal", "--epsilon",
                            "0.25", "--out", str(tmp_path / "s")]) == EXIT_OK
        summary = capsys.readouterr().out
        assert "e+200" in summary and len(summary) < 120
        header, rows = read_trajectory_csv(tmp_path / "s" / "trajectory.csv")
        x = rows[:, [header.index(f"x[{i}][{k}]") for i in range(1, 6)
                     for k in range(1, 4)]].reshape(-1, 5, 3)
        x_r = rows[:, [header.index(f"xr[{k}]") for k in range(1, 4)]]
        scaled = np.linalg.norm((x - x_r[:, None]) / 1e200, axis=2)
        np.testing.assert_allclose(rows[:, -1], 1e200 * scaled.max(axis=1),
                                   rtol=1e-14)
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        assert report["final_sync_error"] == rows[-1, -1]
        capsys.readouterr()
        code = main(argv + ["--protocol", "global",
                            "--out", str(tmp_path / "g")])
        assert code == EXIT_ASSERTION
        assert "state norm 1.22474e+198" in capsys.readouterr().err

    def test_simulate_semiglobal_requires_epsilon(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SCALAR_SCENARIO)
        code = main(
            ["simulate", "--scenario", str(path),
             "--protocol", "semiglobal",
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
