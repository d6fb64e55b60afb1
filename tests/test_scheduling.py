import contextlib
import functools
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integrator_chain, random_admissible_model
from satsync import (
    AgentModel,
    ClosedLoopField,
    CompactSetSpec,
    Network,
    PCache,
    StateLayout,
    epsilon_of_state,
    global_full,
    integrate,
    load_scenario,
    select_semiglobal_epsilon,
    solve_scheduled_are,
    triple_integrator,
)
import satsync
from satsync import riccati, scheduling
from satsync.protocols import ProtocolError
from satsync.riccati import RiccatiError, scheduled_lyapunov
from satsync.scheduling import (
    ONE_MINUS,
    RHO_MIN,
    ROWS_PER_OCTAVE,
    TABLE_RHO,
    ScheduleFloorError,
    sample_box_vertices,
    schedule,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def scalar_cache():
    # A = 0, B = 1: P_rho = rho, so g(rho, chi) = chi^2 rho^2
    return PCache(AgentModel([[0.0]], [[1.0]], [[1.0]]))


class TestPCache:
    def test_grid_solutions_match_closed_form(self, scalar_cache):
        # the residual certificate |P(rho - P)| <= tol only pins P down to
        # about tol/rho, so the check loosens as rho shrinks
        for rho in TABLE_RHO[::ROWS_PER_OCTAVE]:
            P = scalar_cache.solution(rho).P[0, 0]
            assert abs(P - rho) <= 2e-9 / rho

    def test_g_closed_form(self, scalar_cache):
        assert scalar_cache.g(0.5, np.array([3.0])) == pytest.approx(
            9 * 0.25, rel=1e-9
        )

    def test_g_nondecreasing_in_rho(self):
        cache = PCache(
            AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        )
        chi = np.array([1.0, -0.5])
        values = [cache.g(rho, chi)
                  for rho in reversed(TABLE_RHO[::ROWS_PER_OCTAVE])]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_off_grid_solution_closed_form(self, scalar_cache):
        assert scalar_cache.solution(0.3).P[0, 0] == pytest.approx(0.3, rel=1e-9)

    def test_construction_solves_only_unit_rho(self, monkeypatch):
        # the other 640 rows come from one stack, which certifies each of
        # them on the triple integrator; the schedule solves nothing
        calls = []

        def counting(model, rho, **kwargs):
            calls.append(rho)
            return solve_scheduled_are(model, rho, **kwargs)

        def stacking(model, rho):
            stacks.append(rho.size)
            return scheduled_lyapunov(model, rho)

        # row 0's stack of one, inside its solve, then the table's of 640
        stacks = []
        monkeypatch.setattr(scheduling, "solve_scheduled_are", counting)
        monkeypatch.setattr(scheduling, "scheduled_lyapunov", stacking)
        monkeypatch.setattr(riccati, "scheduled_lyapunov", stacking)
        cache = PCache(triple_integrator())
        assert calls == [1.0]
        assert stacks == [1, len(TABLE_RHO) - 1]
        schedule(np.outer([0.1, 30.0, 7e3], [1.0, -0.5, 0.25]), cache)
        assert calls == [1.0] and stacks == [1, len(TABLE_RHO) - 1]
        cache.g(0.25, np.ones(3))
        assert calls == [1.0, 0.25]

    def test_rows_the_stack_leaves_take_one_hamiltonian_solve(
            self, monkeypatch):
        """`stable_mode.json` has a mode at −0.3, so the table's stack
        leaves 615 rows uncertified.  Each goes straight to the Hamiltonian
        solve that `solve_scheduled_are` falls back to, with no second
        Lyapunov solve on a stack of one: the build makes two stacks, row
        0's and the table's, under either module's name."""
        stacks, rows = [], []

        def stacking(model, rho):
            stacks.append(rho.size)
            return scheduled_lyapunov(model, rho)

        def hamiltonian(model, rho):
            rows.append(rho)
            return riccati.scheduled_hamiltonian(model, rho)

        monkeypatch.setattr(scheduling, "scheduled_lyapunov", stacking)
        monkeypatch.setattr(riccati, "scheduled_lyapunov", stacking)
        monkeypatch.setattr(scheduling, "scheduled_hamiltonian", hamiltonian)
        PCache(load_scenario(DATA / "stable_mode.json").model)
        assert stacks == [1, len(TABLE_RHO) - 1]
        assert len(rows) == 615 and len(set(rows)) == 615

    def test_solution_independent_of_cache_history(self):
        # every entry is a cold solve: the same bits as a direct solve,
        # whatever order the off-grid probes were requested in
        model = triple_integrator()
        probes = [0.3, 0.7, 0.31, 1.3 * 2.0**-15, 0.5, 2.0**-20]
        forward, backward = PCache(model), PCache(model)
        for rho in reversed(probes):
            backward.solution(rho)
        for rho in probes:
            P = solve_scheduled_are(model, rho).P
            np.testing.assert_array_equal(forward.solution(rho).P, P)
            np.testing.assert_array_equal(backward.solution(rho).P, P)


def control_norms(chi, cache):
    """‖u‖₂ of each state's scheduled control."""
    return np.linalg.norm(schedule(chi, cache)[1], axis=1)


class TestEpsilonOfState:
    def test_small_state_gives_one(self, scalar_cache):
        # g(1, 0.5) = 0.25 <= 1
        assert epsilon_of_state([0.5], scalar_cache) == 1.0

    def test_origin_gives_one(self, scalar_cache):
        assert epsilon_of_state([0.0], scalar_cache) == 1.0

    def test_scalar_boundary(self, scalar_cache):
        # largest rho with (2 rho)^2 <= 1 is exactly 0.5, a table row where
        # g = 1 > 1⁻, so the rule takes no step above it
        eps = epsilon_of_state([2.0], scalar_cache)
        assert eps <= 0.5
        assert eps == pytest.approx(0.5, rel=2e-3)

    def test_never_saturates_by_construction(self, scalar_cache):
        # here g = χ²ρ² is convex in ρ, so even P at ε itself keeps
        # ‖BᵀP_ε χ‖ ≤ 1; the scheduled control does by Cauchy–Schwarz
        model = scalar_cache.model
        for chi_val in (0.1, 1.0, 7.5, 300.0):
            chi = np.array([chi_val])
            eps = epsilon_of_state(chi, scalar_cache)
            P = scalar_cache.solution(eps).P
            assert np.linalg.norm(model.B.T @ P @ chi) <= 1.0 + 1e-12
            assert control_norms(chi[None], scalar_cache)[0] <= 1.0

    def test_monotone_along_ray(self, scalar_cache):
        values = [
            epsilon_of_state([s], scalar_cache) for s in (0.5, 2.0, 8.0, 64.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_floor_error_far_out(self, scalar_cache):
        # g(rho_min, chi) = (chi rho_min)^2 > 1 for chi > 2^20
        with pytest.raises(ScheduleFloorError):
            epsilon_of_state([2.0 / RHO_MIN], scalar_cache)

    def test_multivariate_boundary(self):
        cache = PCache(
            AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        )
        chi = np.array([5.0, -3.0])
        eps = epsilon_of_state(chi, cache)
        assert cache.g(eps, chi) <= 1.0
        # a step of one table row up must violate the constraint
        assert cache.g(min(1.0, eps * (1 + 2 / ROWS_PER_OCTAVE)), chi) > 1.0


def table_row(model, P):
    """(S, BᵀS, t²) of a solved P (…, n, n), t = tr(BᵀPB) and S = t·P,
    computed here as the table computes them."""
    BtP = model.B.T @ P
    t = np.trace(BtP @ model.B, axis1=-2, axis2=-1)
    return t[..., None, None] * P, t[..., None, None] * BtP, t * t


def octave_rows(k):
    """The table rows of octave k ≥ 1, ρ = 2⁻ᵏ(1 + j/32) for j = 31 … 0."""
    return np.arange(ROWS_PER_OCTAVE * (k - 1) + 1, ROWS_PER_OCTAVE * k + 1)


def octave_of(rho):
    """The octave k of ρ ∈ [2⁻ᵏ, 2⁻ᵏ⁺¹)."""
    return 1 - int(np.frexp(rho)[1])


def direct_P(model, rho):
    """P of `solve_scheduled_are(model, ρ)`, or NaN where it raises."""
    try:
        return solve_scheduled_are(model, rho).P
    except RiccatiError:
        return np.full((model.n, model.n), np.nan)


# a stable mode at −0.3: gate (i) fails for ρ ≤ 0.6 + 2·HURWITZ_TOL
GATE_I_MODEL = AgentModel([[0.0, 0.0], [0.0, -0.3]], [[1.0], [1.0]],
                          [[1.0, 0.0]])
# a stable mode at −ρ₃₁/2: A + (ρ/2)I is singular at ρ₃₁ = 2⁻¹(1 + 1/32),
# table row 31 in octave 1, which no solver certifies; the rows around it do
ROW_GAP_MODEL = AgentModel([[0.0, 0.0], [0.0, -0.25 * (1 + 2.0**-5)]],
                           [[1.0], [1.0]], [[1.0, 0.0]])
# a stable mode at −1/8: A + (ρ/2)I is singular at ρ = 1/4, the grid row 64,
# where no stabilizing P exists; the rows around it certify
GRID_GAP_MODEL = AgentModel([[0.0, 0.0], [0.0, -0.125]], [[1.0], [1.0]],
                            [[1.0, 0.0]])


@functools.cache
def named_model(name):
    """One instance per name, so that direct solves of it can be cached by
    name.  The 6-chain's stack leaves 9 rows of octave 1 to lone solves,
    `GATE_I_MODEL`'s 615 rows, `ROW_GAP_MODEL`'s 610 and `GRID_GAP_MODEL`'s
    577."""
    return {"triple": triple_integrator,
            "6-chain": lambda: integrator_chain(6),
            "gate_i": lambda: GATE_I_MODEL,
            "row_gap": lambda: ROW_GAP_MODEL,
            "grid_gap": lambda: GRID_GAP_MODEL}[name]()


@functools.cache
def named_cache(name):
    """One table per named model, shared by the tests that only read it."""
    return PCache(named_model(name))


@functools.cache
def direct_table(name):
    """(S, gain) of every row of `named_model(name)` from a direct
    `solve_scheduled_are` at each ρ of the table, NaN where it raises:
    S (641, n, n) and the records (ρ, t², vec BᵀS) (641, 2 + m·n)."""
    model = named_model(name)
    S, BtS, t2 = table_row(model, np.array([direct_P(model, rho)
                                            for rho in TABLE_RHO.tolist()]))
    return S, np.column_stack((TABLE_RHO, t2, BtS.reshape(len(S), -1)))


def reference_schedule(chi, S, gain):
    """The direct rule, one state at a time, on rows S (641, n, n) and gain
    records (641, 2 + m·n): j is the first row, largest ρ first, with
    g ≤ 1 (`ScheduleFloorError` if there is none); λ = (1⁻ − g_j)/(g_{j⁺}
    − g_j), clipped at 0, toward j⁺ = j − 1 where that row has g > 1, else
    λ = 0; then (ρ, τ², BᵀS) at λ gives ε and u = −BᵀS_λχ/τ.  g is the
    one-state `scheduling._g` of each χ⊗χ with the rows, so a state's bits
    are those of `schedule`."""
    table = np.ascontiguousarray(S.reshape(len(S), -1).T)
    m, n = (gain.shape[1] - 2) // S.shape[-1], S.shape[-1]
    eps, U = [], []
    for c in np.asarray(chi, dtype=float):
        g = scheduling._g(scheduling._kron(c[None]), table)[0]
        passing = np.flatnonzero(g <= 1.0)
        if passing.size == 0:
            raise ScheduleFloorError(float(np.linalg.norm(c)))
        j = up = int(passing[0])
        lam = 0.0
        if j > 0 and g[j - 1] > 1.0:
            up = j - 1
            lam = max((ONE_MINUS - g[j]) / (g[up] - g[j]), 0.0)
        row = gain[j] + lam * (gain[up] - gain[j])
        tau = np.sqrt(max(row[1], np.finfo(float).tiny))
        u = (row[2:].reshape(1, m, n) @ c[None, :, None])[0, :, 0]
        eps.append(row[0])
        U.append(u / -tau)
    return np.array(eps), np.array(U).reshape(len(eps), m)


def floor_norm_or(fn, *args):
    """fn(*args), or the norm a ScheduleFloorError names."""
    try:
        return fn(*args)
    except ScheduleFloorError as err:
        return err.chi_norm


def assert_table_is_direct(name):
    """Every row of the table of `named_model(name)` holds the bits of its
    direct solve, or NaN where that raises."""
    cache, (S, gain) = named_cache(name), direct_table(name)
    np.testing.assert_array_equal(cache.S, S)
    np.testing.assert_array_equal(cache.gain, gain)


def assert_schedule_matches_reference(chi, name="triple"):
    """`schedule` of chi on the table of `named_model(name)`, twice, against
    the direct rule on rows from direct solves: the same bits of ε and U,
    or the same floor error.  Every control has ‖u‖ ≤ 1.  Returns the
    octaves of the rows j the states read."""
    cache, (S, gain) = named_cache(name), direct_table(name)
    got = floor_norm_or(schedule, chi, cache)
    again = floor_norm_or(schedule, chi, cache)
    want = floor_norm_or(reference_schedule, chi, S, gain)
    if isinstance(want, float):
        assert got == again == want
        return set()
    for eps, U in (got, again):
        np.testing.assert_array_equal(eps, want[0])
        np.testing.assert_array_equal(U, want[1])
    assert (np.linalg.norm(got[1], axis=1) <= 1.0).all()
    return {octave_of(e) for e in got[0] if e < 1.0}


@settings(database=None, derandomize=True, deadline=None, max_examples=40)
@given(agents=st.integers(1, 40).flatmap(lambda N: st.lists(
    st.tuples(st.floats(-3.0, 7.0),
              st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)),
    min_size=N, max_size=N)))
def test_schedule_matches_one_agent_at_a_time(agents):
    """`assert_schedule_matches_reference` for log-uniform scales 10⁻³ …
    10⁷ (the floor is near 10⁶ along the last axis)."""
    assert_schedule_matches_reference(
        np.array([10.0**e * np.array(v) for e, v in agents]))


def test_every_probed_octave_is_stacked():
    """Construction solves every row of every octave: each of the triple
    integrator's 641 rows holds the bits of its direct solve, from the one
    stack.  Sixty agents spread over two octaves of ε keep the direct
    rule's bits of ε and U."""
    assert_table_is_direct("triple")
    rng = np.random.default_rng(3)
    chi = 10.0 ** rng.uniform(1.0, 1.6, (60, 1)) * rng.uniform(-1, 1, (60, 3))
    assert len(assert_schedule_matches_reference(chi)) >= 2


@pytest.mark.parametrize("scales, mixed", [((-0.8, 0.8), True),
                                            ((0.6, 1.2), False)])
def test_schedule_matches_reference_on_the_6_chain(scales, mixed):
    """`assert_schedule_matches_reference` on the 6-chain, whose stack
    leaves 9 rows of octave 1 to lone solves; every row holds the bits of
    its direct solve.  Agents at scales 10^-0.8 … 10^0.8 read rows of
    octaves 1 and 2 and deeper ones; at 10^0.6 … 10^1.2 deeper ones
    only."""
    assert_table_is_direct("6-chain")
    rng = np.random.default_rng(5)
    chi = 10.0 ** rng.uniform(*scales, (12, 1)) * rng.uniform(-1, 1, (12, 6))
    octaves = assert_schedule_matches_reference(chi, "6-chain")
    assert bool(octaves & {1, 2}) == mixed and octaves - {1, 2}


def counting_stacks(monkeypatch):
    """Wrap the table's stack `scheduling.scheduled_lyapunov` to record the
    ρ of each call; returns the list."""
    stacks, stack = [], scheduled_lyapunov

    def stacking(model, rho):
        stacks.append(np.array(rho))
        return stack(model, rho)

    monkeypatch.setattr(scheduling, "scheduled_lyapunov", stacking)
    return stacks


def forbid_solves(monkeypatch):
    """Make every ARE solve the schedule could reach raise."""
    def solving(*args, **kwargs):
        raise AssertionError("the schedule solved an ARE")

    for module, name in ((scheduling, "solve_scheduled_are"),
                         (scheduling, "scheduled_lyapunov"),
                         (riccati, "scheduled_lyapunov"),
                         (riccati, "_care_schur")):
        monkeypatch.setattr(module, name, solving)


# one table per seed of `test_table_rows_on_random_admissible_models`,
# shared by the examples that draw it again
_RANDOM_TABLES = {}


def random_table(seed):
    """(model, its PCache or the RiccatiError construction raised) of
    `random_admissible_model` from seed."""
    if seed not in _RANDOM_TABLES:
        model = random_admissible_model(np.random.default_rng(seed),
                                        n_max=6, io_max=2)
        try:
            _RANDOM_TABLES[seed] = model, PCache(model)
        except RiccatiError as err:
            _RANDOM_TABLES[seed] = model, err
    return _RANDOM_TABLES[seed]


@settings(database=None, derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), log10_scale=st.floats(-2.0, 4.0))
def test_table_rows_on_random_admissible_models(seed, log10_scale):
    """On random admissible models (n ≤ 6, m ≤ 2), only construction may
    raise RiccatiError, at row 0.  The rows one direct stacked solve of ρ <
    1 certifies hold its bits; every row it does not certify that holds
    NaN, and 16 sampled others, hold the bits of a direct
    `solve_scheduled_are`, or NaN exactly where it raises.  Row 0 holds the
    bits of the solve at ρ = 1.  g from the table agrees with `PCache.g` of
    a cold solve to rounding, and `schedule` of a few random states keeps
    the direct rule's bits on the table's rows, with ‖u‖ ≤ 1."""
    model, cache = random_table(seed)
    if isinstance(cache, RiccatiError):  # row 0: the model is not admissible
        with pytest.raises(RiccatiError):
            solve_scheduled_are(model, 1.0)
        return
    rng = np.random.default_rng([seed, 1])
    chi = 10.0**log10_scale * rng.standard_normal((3, model.n))
    P, _, certified = scheduled_lyapunov(model, TABLE_RHO[1:])
    S, BtS, t2 = table_row(model, P)
    rows = np.flatnonzero(certified) + 1
    np.testing.assert_array_equal(cache.S[rows], S)
    np.testing.assert_array_equal(cache.gain[rows, 1], t2)
    np.testing.assert_array_equal(cache.gain[rows, 2:],
                                  BtS.reshape(len(rows), model.m * model.n))
    lone = np.flatnonzero(~certified) + 1
    nan = np.isnan(cache.gain).any(axis=1)
    assert not nan[0] and (np.isnan(cache.S).any(axis=(1, 2)) == nan).all()
    sample = np.union1d(lone[nan[lone]], lone[np.linspace(
        0, lone.size - 1, min(16, lone.size)).astype(int)])
    for i in [0, *sample.tolist()]:
        S_i, BtS_i, t2_i = table_row(model, direct_P(model, TABLE_RHO[i]))
        np.testing.assert_array_equal(cache.S[i], S_i)
        np.testing.assert_array_equal(cache.gain[i],
                                      [TABLE_RHO[i], t2_i, *BtS_i.ravel()])
    kron = scheduling._kron(chi)
    g = scheduling._g(kron, cache.table)
    for i in (0, 32 * int(rng.integers(1, 21)), len(TABLE_RHO) - 1):
        if nan[i]:
            assert np.isnan(g[:, i]).all()
            continue
        scale = np.abs(kron) @ np.abs(cache.S[i]).reshape(-1)
        cold = [cache.g(TABLE_RHO[i], c) for c in chi]
        assert (np.abs(g[:, i] - cold) <= 1e-13 * scale).all()
    got = floor_norm_or(schedule, chi, cache)
    want = floor_norm_or(reference_schedule, chi, cache.S, cache.gain)
    if isinstance(want, float):
        assert got == want
        return
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert (np.linalg.norm(got[1], axis=1) <= 1.0).all()


def states_at(rhos, model):
    """States along (1, 0.2) scaled to g(ρ, χ) = 1 at each ρ, from direct
    solves."""
    v = np.array([1.0, 0.2])
    out = []
    for rho in rhos:
        S = table_row(model, solve_scheduled_are(model, rho).P)[0]
        out.append(v / np.sqrt(v @ S @ v))
    return np.array(out)


def test_octave_split_by_gate_i(monkeypatch):
    """A stable mode at −0.3 fails gate (i) for ρ ≤ 0.6 + 2·HURWITZ_TOL:
    rows 26–32 of octave 1 (ρ = 2⁻¹(1 + j/32), j ≤ 6) and every deeper
    row.  Construction solves exactly those 615 rows alone, by the
    Hamiltonian method, and the stack certifies the 25 rows above them.
    Every row holds the bits of its direct solve.  States with g = 1 at
    40 ρ across octave 1, on both sides of the gate, and at ρ = 0.1 keep
    the direct rule's bits of ε and U."""
    hamiltonian = []

    def counting(A, G, Q):
        hamiltonian.append(2 * A[0, 0])  # A + (ρ/2)I, and A₀₀ = 0
        return care_schur(A, G, Q)

    care_schur = riccati._care_schur
    monkeypatch.setattr(riccati, "_care_schur", counting)
    cache = PCache(GATE_I_MODEL)
    monkeypatch.undo()
    gate_i = TABLE_RHO <= 0.6 + 2e-9
    assert np.flatnonzero(gate_i)[:7].tolist() == list(range(26, 33))
    assert hamiltonian == TABLE_RHO[gate_i].tolist()
    np.testing.assert_array_equal(cache.S, direct_table("gate_i")[0])
    np.testing.assert_array_equal(cache.gain, direct_table("gate_i")[1])
    chi = states_at([*np.linspace(0.51, 0.99, 40), 0.1], GATE_I_MODEL)
    assert_schedule_matches_reference(chi, "gate_i")


def test_complete_octaves_are_bisected_without_fill(monkeypatch):
    """Every octave is complete once the table is built, so `schedule`
    solves nothing: with every solver made to raise, 61 states over three
    octaves, one at ε = 1, keep the bits they had before."""
    rng = np.random.default_rng(3)
    chi = 10.0 ** rng.uniform(1.0, 1.6, (60, 1)) * rng.uniform(-1, 1, (60, 3))
    chi = np.vstack([chi, [[0.1, 0.0, 0.0]]])  # one agent at ε = 1
    cache = PCache(triple_integrator())
    eps, U = schedule(chi, cache)
    assert eps.max() == 1.0 and len({octave_of(e) for e in eps}) >= 3
    forbid_solves(monkeypatch)
    got = schedule(chi, cache)
    np.testing.assert_array_equal(got[0], eps)
    np.testing.assert_array_equal(got[1], U)


def scanned_sizes(monkeypatch):
    """Wrap `scheduling._scan` to record the number of states of each
    call; returns the list."""
    sizes, scan = [], scheduling._scan

    def scanning(chi, cache):
        sizes.append(len(chi))
        return scan(chi, cache)

    monkeypatch.setattr(scheduling, "_scan", scanning)
    return sizes


def test_many_states_read_probe_blocks_in_parts(monkeypatch):
    """A call with 2,000 states, as when a run's controls are recorded,
    scans them in parts of 128: its traced peak stays under 1 MB, where one
    scan of all 2,000 states would hold 10 MB of g alone, and it keeps the
    bits of 40 calls of 50 states."""
    rng = np.random.default_rng(3)
    chi = 10.0 ** rng.uniform(1.0, 3.0, (2000, 1)) * rng.uniform(-1, 1,
                                                                   (2000, 3))
    cache = named_cache("triple")
    sizes = scanned_sizes(monkeypatch)
    tracemalloc.start()
    try:
        got = schedule(chi, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [128] * 15 + [80] and peak < 2**20
    assert got[0].max() < 1.0
    for part in np.split(np.arange(2000), 40):
        want = schedule(chi[part], cache)
        np.testing.assert_array_equal(got[0][part], want[0])
        np.testing.assert_array_equal(got[1][part], want[1])


def test_many_states_fill_probe_blocks_in_parts():
    """One call with 2,000 states on the 6-chain, some reading its lone
    rows in octave 1, equals 40 calls of 50 states on another fresh table
    bit for bit, and leaves both tables as built."""
    rng = np.random.default_rng(5)
    chi = 10.0 ** rng.uniform(-0.8, 0.0, (2000, 1)) * rng.uniform(-1, 1,
                                                                  (2000, 6))
    model = named_model("6-chain")
    cache, parted = PCache(model), PCache(model)
    built = cache.table.copy(), cache.gain.copy()
    got = schedule(chi, cache)
    assert 1 in {octave_of(e) for e in got[0]}
    for part in np.split(np.arange(2000), 40):
        eps, U = schedule(chi[part], parted)
        np.testing.assert_array_equal(got[0][part], eps)
        np.testing.assert_array_equal(got[1][part], U)
    for table in (cache, parted):
        np.testing.assert_array_equal(table.table, built[0])
        np.testing.assert_array_equal(table.gain, built[1])


def test_uncertified_row_reads_as_failing(monkeypatch):
    """Row 31 of `ROW_GAP_MODEL`, ρ₃₁ = 2⁻¹(1 + 1/32), has no certified
    solve and holds NaN; every other row is finite.  States with g = 1 at
    ρ between rows 32 (ρ = 1/2) and 31, and between rows 31 and 30, fail
    row 31, pass row 32 and take no step toward the NaN row: ε = 1/2,
    λ = 0, with finite controls.  A state above row 30 interpolates as
    usual.  All keep the direct rule's bits, and a second call solves
    nothing."""
    model, gap = ROW_GAP_MODEL, 31
    with pytest.raises(RiccatiError, match="invariant subspace"):
        solve_scheduled_are(model, TABLE_RHO[gap])
    cache = named_cache("row_gap")
    nan = np.isnan(cache.gain).any(axis=1)
    assert np.flatnonzero(nan).tolist() == [gap]
    assert np.isnan(cache.S[gap]).all() and np.isnan(cache.gain[gap, 1:]).all()
    assert_table_is_direct("row_gap")
    rho = TABLE_RHO[[32, 31, 30]]
    chi = states_at([(rho[0] + rho[1]) / 2, (rho[1] + rho[2]) / 2,
                     rho[2] * 1.005], model)
    assert_schedule_matches_reference(chi, "row_gap")
    eps, U = schedule(chi, cache)
    assert eps[:2].tolist() == [0.5, 0.5] and eps[2] > rho[2]
    assert np.isfinite(U).all()
    forbid_solves(monkeypatch)
    again = schedule(chi, cache)
    np.testing.assert_array_equal(again[0], eps)
    np.testing.assert_array_equal(again[1], U)


def test_nan_row_above_gives_no_step_and_finite_controls():
    """Where row j⁺ holds NaN, λ = 0: ε is ρ_j exactly and U is that of row
    j alone, −BᵀS_jχ/t_j, finite and within the bound.  On
    `GRID_GAP_MODEL` row 64 (ρ = 1/4) holds NaN, so states with g = 1 at
    ρ ∈ (1/4, ρ₆₃) get row 65, ρ = 2⁻³(1 + 31/32)."""
    cache = named_cache("grid_gap")
    chi = states_at(np.linspace(0.2501, 0.2577, 5), GRID_GAP_MODEL)
    eps, U = schedule(chi, cache)
    assert (eps == TABLE_RHO[65]).all()
    t = np.sqrt(cache.gain[65, 1])
    B_S = cache.gain[65, 2:].reshape(1, 2)
    np.testing.assert_allclose(U, -(chi @ B_S.T) / t, rtol=1e-15)
    assert np.isfinite(U).all() and (np.abs(U) <= 1.0).all()


def test_incomplete_octave_rows_are_filled_when_probed():
    """On `GATE_I_MODEL` the stack leaves rows 26–32 of octave 1 to lone
    solves at construction, and each holds the bits of its direct solve.
    A state whose ρ lies among them, 0.5165, reads them: it interpolates
    between two lone rows and keeps the direct rule's bits."""
    cache, (S, gain) = named_cache("gate_i"), direct_table("gate_i")
    rows = np.arange(26, 33)
    np.testing.assert_array_equal(cache.S[rows], S[rows])
    np.testing.assert_array_equal(cache.gain[rows], gain[rows])
    later = states_at([0.5165], GATE_I_MODEL)
    eps, _ = schedule(later, cache)
    j = np.flatnonzero(TABLE_RHO <= eps[0])[0]
    assert j in rows and j - 1 in rows
    assert TABLE_RHO[j] < eps[0] < TABLE_RHO[j - 1]
    assert_schedule_matches_reference(later, "gate_i")


@pytest.mark.parametrize("k", [1, 9, 20])
def test_one_row_fill_stacks_its_octave(k):
    """There is no fill: construction solves every octave.  The 32 rows of
    octave k hold the bits of one direct stacked solve of their ρ alone,
    2⁻ᵏ(1 + j/32) for j = 31 … 0, which the stack certifies whole, and the
    last of them is the grid row 2⁻ᵏ."""
    cache, model = named_cache("triple"), named_model("triple")
    rows = octave_rows(k)
    rho = TABLE_RHO[rows]
    assert rho.tolist() == [2.0**-k * (1 + j / 32) for j in range(31, -1, -1)]
    P, _, certified = scheduled_lyapunov(model, rho)
    assert certified.all() and rho[-1] == 2.0**-k
    S, BtS, t2 = table_row(model, P)
    np.testing.assert_array_equal(cache.S[rows], S)
    np.testing.assert_array_equal(cache.gain[rows, 1], t2)
    np.testing.assert_array_equal(cache.gain[rows, 2:], BtS.reshape(32, -1))


@pytest.mark.parametrize("case", ["triple", "gate_i"])
def test_each_octave_is_stacked_at_most_once(monkeypatch, case):
    """Construction makes one stack, of all 640 rows below ρ = 1; two
    `schedule` calls make none.  On the gate-(i) model the stack certifies
    25 rows, and the rest are solved alone."""
    model = named_model(case)
    stacks = counting_stacks(monkeypatch)
    cache = PCache(model)
    chi = (np.outer([2.0, 30.0, 500.0], [1.0, -0.5, 0.25]) if case == "triple"
           else states_at([0.1, 0.07, 0.12], model))
    schedule(chi, cache)
    schedule(chi[::-1], cache)
    assert len(stacks) == 1
    np.testing.assert_array_equal(stacks[0], TABLE_RHO[1:])


def test_lattice_rho_table_matches_ldexp():
    """`TABLE_RHO` holds 1 and then ldexp(1 + j/32, −k), octave k = 1 … 20
    and j = 31 … 0, bit for bit: strictly decreasing, with row 32k the
    grid value 2⁻ᵏ and the last row `RHO_MIN`."""
    k = np.repeat(np.arange(1, 21), 32)
    j = np.tile(np.arange(31, -1, -1), 20)
    want = np.concatenate(([1.0], np.ldexp(1.0 + j / 32, -k)))
    np.testing.assert_array_equal(TABLE_RHO.view(np.int64),
                                  want.view(np.int64))
    assert len(TABLE_RHO) == 641 and (np.diff(TABLE_RHO) < 0).all()
    assert TABLE_RHO[::32].tolist() == [2.0**-k for k in range(21)]
    assert TABLE_RHO[-1] == RHO_MIN and not TABLE_RHO.flags.writeable


def test_octave_zero_is_never_stacked(monkeypatch):
    """Only row 0 of octave 0 is a ρ in (0, 1]: it is the lone checked
    solve at ρ = 1, and the stack holds only ρ < 1, the other 640 rows."""
    solves = []

    def counting(model, rho, **kwargs):
        solves.append(rho)
        return solve_scheduled_are(model, rho, **kwargs)

    monkeypatch.setattr(scheduling, "solve_scheduled_are", counting)
    stacks = counting_stacks(monkeypatch)
    cache = PCache(triple_integrator())
    assert solves == [1.0] and stacks[0].max() < 1.0
    np.testing.assert_array_equal(
        cache.S[0], table_row(cache.model, direct_P(cache.model, 1.0))[0])


def test_floor_error_names_first_agent_past_floor(scalar_cache):
    # agents 1 and 2 are past the floor; agent 0 is scheduled first
    chi = np.array([[3.0], [4.0 / RHO_MIN], [3.0 / RHO_MIN]])
    with pytest.raises(ScheduleFloorError) as err:
        schedule(chi, scalar_cache)
    assert err.value.chi_norm == 4.0 / RHO_MIN
    # across parts of 128 states: the first past the floor is state 200
    many = np.ones((300, 1))
    many[[200, 250]] = [[5.0 / RHO_MIN], [3.0 / RHO_MIN]]
    with pytest.raises(ScheduleFloorError) as err:
        schedule(many, scalar_cache)
    assert err.value.chi_norm == 5.0 / RHO_MIN


def test_floor_error_norm_of_a_state_whose_squares_overflow(scalar_cache):
    """The floor error reports the norm of a state whose χ·χ overflows
    rescaled by its largest magnitude, not as inf, whether the caller runs
    with overflow and invalid-value warnings off, as `sim.integrate` does,
    or as tier-1 sets them, where a warning is an error: no numpy warning
    escapes `schedule` or `epsilon_of_state`."""
    triple = named_cache("triple")
    for quiet in (np.errstate(over="ignore", invalid="ignore"),
                  contextlib.nullcontext()):
        with quiet:
            with pytest.raises(ScheduleFloorError) as err:
                schedule(np.array([[1e200], [-3e200]]), scalar_cache)
            assert err.value.chi_norm == 1e200
            with pytest.raises(ScheduleFloorError) as err:
                schedule(np.array([[3e200, -4e200, 0.0]]), triple)
            assert err.value.chi_norm == pytest.approx(5e200, rel=1e-14)
            with pytest.raises(ScheduleFloorError) as err:
                epsilon_of_state([1e200, 0.0, 0.0], triple)
            assert err.value.chi_norm == 1e200


@settings(database=None, derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_full_gain_cell_gets_epsilon_one(seed):
    """`at_full_gain` and `schedule` agree: every state the cell test
    passes gets ε = 1.0 exactly, tested one at a time and batched.  The
    states are scaled to 1 ± a few ulps of g(1, χ) = χᵀS₀χ, the scan's
    edge, and of the cell's own form χᵀS₀⁺χ, and each edge is straddled:
    some states get ε < 1 and some ε = 1, and some read inside and some
    outside.  A state reads the same alone and in the stack, so do its ε
    and U.  States at g = 1 − 1e-9 are inside, at 1 + 1e-9 outside, and a
    state whose χ⊗χ overflows reads as outside with no warning where they
    are off, as in `sim.integrate`."""
    rng = np.random.default_rng(seed)
    model = (triple_integrator() if seed == 0
             else random_admissible_model(rng, n_max=6))
    cache = PCache(model)
    chi = rng.standard_normal((24, model.n))
    ulps = 1.0 + np.arange(-8, 9)[:, None, None] * np.finfo(float).eps
    edges = []
    for S in (cache.S[0], cache.cell.reshape(model.n, model.n)):
        g = np.einsum("ij,jk,ik->i", chi, S, chi)
        edges.append((ulps * (chi / np.sqrt(g)[:, None])).reshape(-1, model.n))
    states = np.concatenate(edges)
    inside = scheduling.at_full_gain(states, cache)
    eps, U = schedule(states, cache)
    for k, state in enumerate(states):
        assert scheduling.at_full_gain(state[None], cache)[0] == inside[k]
        eps_k, U_k = schedule(state[None], cache)
        assert eps_k[0] == eps[k] and (U_k[0] == U[k]).all()
    assert (eps[inside] == 1.0).all()
    scan_edge, cell_edge = np.split(np.arange(len(states)), 2)
    assert (eps[scan_edge] < 1.0).any() and (eps[scan_edge] == 1.0).any()
    assert inside[cell_edge].any() and not inside[cell_edge].all()
    assert scheduling.at_full_gain((1.0 - 1e-9) * edges[0], cache).all()
    assert not scheduling.at_full_gain((1.0 + 1e-9) * edges[0], cache).any()
    huge = np.zeros((2, model.n))
    huge[0, 0], huge[1, -1] = 1e200, -3e200
    with np.errstate(over="ignore", invalid="ignore"):
        assert not scheduling.at_full_gain(huge, cache).any()


def test_uncertified_grid_row_reads_as_failing(monkeypatch):
    """`GRID_GAP_MODEL`: ρ = 1/4, row 64, has no certified solve and holds
    NaN; every other row holds the bits of its direct solve.  States with
    g = 1 at ρ = 0.6, above the gap, and at 0.3 and 0.26, in octave 2 above
    it, keep the direct rule's bits of ε and U, alone or together.  Each ε
    is at least the largest certified row with g ≤ 1 and within 2⁻⁵ of its
    target, and g ≤ 1 there, so no control saturates: the NaN row costs
    nothing to states above it.  A second call solves nothing and keeps
    the bits."""
    model = GRID_GAP_MODEL
    with pytest.raises(RiccatiError, match="invariant subspace"):
        solve_scheduled_are(model, 0.25)
    cache = named_cache("grid_gap")
    assert np.isnan(cache.S).any(axis=(1, 2)).nonzero()[0].tolist() == [64]
    assert_table_is_direct("grid_gap")
    targets = [0.6, 0.3, 0.26]
    chi = states_at(targets, model)
    for states in (chi, chi[1:], chi[2:]):
        assert_schedule_matches_reference(states, "grid_gap")
    eps, U = schedule(chi, cache)
    g = scheduling._g(scheduling._kron(chi), cache.table)
    for e, target, g_rows, c, u in zip(eps, targets, g, chi, U):
        best = TABLE_RHO[np.flatnonzero(g_rows <= 1.0)[0]]
        assert best <= e < target * (1 + 2.0**-5) and e > 0.25
        assert cache.g(e, c) <= 1.0 and np.abs(u).max() <= 1.0
    forbid_solves(monkeypatch)
    again = schedule(chi, cache)
    np.testing.assert_array_equal(again[0], eps)
    np.testing.assert_array_equal(again[1], U)


def test_out_of_order_grid_fill_changes_no_bits():
    """A row's bits do not depend on the order its stack is solved in: on
    `GRID_GAP_MODEL` a direct stack of the table's ρ in reverse order
    certifies the same rows, with the table's bits.  Two fresh tables give
    the same schedule as the direct rule, for states above the gap and in
    octave 2."""
    model, cache = GRID_GAP_MODEL, named_cache("grid_gap")
    P, _, certified = scheduled_lyapunov(model, TABLE_RHO[:0:-1])
    rows = (np.flatnonzero(certified[::-1]) + 1)[::-1]
    np.testing.assert_array_equal(cache.S[rows], table_row(model, P)[0])
    chi = states_at([1.0, 0.97, 0.75, 0.55, 0.52, 0.3, 0.26], model)
    got = schedule(chi, PCache(model))
    for want in (schedule(chi, cache),
                 reference_schedule(chi, *direct_table("grid_gap"))):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_grid_scan_stacks_no_octave(monkeypatch):
    """The table is solved when it is built: on the triple integrator one
    state whose ε lies in octave 13 stacks nothing and solves nothing.  ε
    and U keep the direct rule's bits."""
    chi = 1e4 * np.array([[1.0, -0.5, 0.25]])
    cache = named_cache("triple")
    stacks = counting_stacks(monkeypatch)
    got = schedule(chi, cache)
    assert octave_of(got[0][0]) == 13 and stacks == []
    monkeypatch.undo()
    assert_schedule_matches_reference(chi)


def test_closed_form_lambda_solves_g_to_one_minus():
    """λ read back from ε, (ε − ρ_j)/(ρ_{j⁺} − ρ_j), matches a bisection
    of g_λ = χᵀ((1 − λ)S_j + λS_{j⁺})χ = 1⁻ to 1e-9, and P̃ = S_λ/τ has
    g(P̃, χ) = 1⁻ to 1e-12 with ‖−BᵀP̃χ‖ = ‖u‖ ≤ 1, on 200 states of the
    triple integrator."""
    cache = named_cache("triple")
    B = cache.model.B
    rng = np.random.default_rng(11)
    chi = 10.0 ** rng.uniform(-0.5, 5.0, (200, 1)) * rng.standard_normal(
        (200, 3))
    eps, U = schedule(chi, cache)
    for e, c, u in zip(eps, chi, U):
        j = int(np.flatnonzero(TABLE_RHO <= e)[0])
        if j == 0 or TABLE_RHO[j] == e:
            continue
        S_j, S_up = cache.S[j], cache.S[j - 1]
        lam = (e - TABLE_RHO[j]) / (TABLE_RHO[j - 1] - TABLE_RHO[j])
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if c @ ((1 - mid) * S_j + mid * S_up) @ c <= ONE_MINUS:
                lo = mid
            else:
                hi = mid
        assert lam == pytest.approx(lo, abs=1e-9)
        S_lam = (1 - lam) * S_j + lam * S_up
        P_tilde = S_lam / np.sqrt(np.trace(B.T @ S_lam @ B))
        g = (c @ P_tilde @ c) * np.trace(B.T @ P_tilde @ B)
        assert g == pytest.approx(ONE_MINUS, rel=1e-12)
        np.testing.assert_allclose(u, -(B.T @ P_tilde @ c), rtol=1e-12,
                                   atol=1e-15)
        assert np.linalg.norm(u) <= 1.0


def test_controls_stay_within_the_bound_on_stable_mode(monkeypatch):
    """`tests/data/stable_mode.json` global-full to t = 50 at the default
    rtol: m = 1, so ‖u‖ ≤ 1 is |u| ≤ 1, and Cauchy–Schwarz is tight where
    P̃^(1/2)χ is parallel to P̃^(1/2)B.  Every state the field evaluates
    has |u| ≤ 1, the largest reaching past 0.9, and the run takes fewer
    than 5,000 field calls."""
    scenario = load_scenario(DATA / "stable_mode.json")
    peaks, scan = [], scheduling._scan

    def scanning(chi, cache):
        eps, U = scan(chi, cache)
        peaks.append(np.abs(U).max())
        return eps, U

    monkeypatch.setattr(scheduling, "_scan", scanning)
    field = ClosedLoopField(scenario.model, scenario.net,
                            global_full(scenario.model))
    z0 = field.layout.pack(scenario.x0, scenario.xr0, scenario.chi0)
    traj = integrate(field, z0, (0.0, scheduling.T_VAL))
    assert traj.stats.n_field_evals < 5000
    assert max(peaks) <= 1.0 and max(peaks) > 0.9
    assert np.abs(traj.controls).max() <= 1.0


def test_hurwitz_model_schedules_zero_control():
    """A Hurwitz A has P = 0 at every ρ, so every row has S = 0 and t = 0:
    every state gets ε = 1 and u = 0, with no NaN from τ = 0."""
    cache = PCache(AgentModel([[-1.0]], [[1.0]], [[1.0]]))
    assert (cache.S == 0.0).all()
    eps, U = schedule(np.array([[0.0], [3.0], [1e9]]), cache)
    assert eps.tolist() == [1.0] * 3 and (U == 0.0).all()


def test_discarded_cache_is_freed_at_once():
    # no reference cycle: the last reference going frees the table
    cache = PCache(triple_integrator())
    schedule(np.outer(10.0 ** np.arange(-2, 5), [1.0, -0.5, 0.25]), cache)
    ref = weakref.ref(cache)
    gc.disable()
    try:
        del cache
        assert ref() is None
    finally:
        gc.enable()


def test_filling_rows_allocates_nothing():
    """The table is filled when it is built and keeps only its arrays, about
    71 KB on the triple integrator.  A `schedule` of 10,000 states, in
    parts of 128, peaks under 1.5 MB traced and leaves nothing live but
    its two 80 KB results."""
    tracemalloc.start()
    try:
        cache = PCache(triple_integrator())
        built = tracemalloc.get_traced_memory()[0]
        chi = np.outer(np.logspace(-2, 5, 10_000), [1.0, -0.5, 0.25])
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        eps, U = schedule(chi, cache)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 120 * 1024
    assert peak - before < 1.5 * 2**20
    assert now - before - eps.nbytes - U.nbytes < 16 * 1024


# Rounds of reproduce cases 1-3 in a fresh interpreter: resident memory
# after each of three rounds (the first two also pay one-time allocations),
# then the memory a traced fourth round leaves live.
_MEMORY_ROUNDS = """
import gc, json, os, sys, tracemalloc
from satsync import reproduce

def resident_mb():
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20

def one_round():
    for case in (1, 2, 3):
        reproduce(case, sys.argv[1])

rounds = []
for _ in range(3):
    one_round()
    rounds.append(resident_mb())
tracemalloc.start()
one_round()
gc.collect()
retained = tracemalloc.get_traced_memory()[0] / 2**20
print(json.dumps({"rounds": rounds, "retained": retained}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads resident memory from /proc")
def test_repeated_reproduce_keeps_memory_flat(tmp_path):
    # In the test process, the allocator state that earlier tests leave made
    # resident memory take a one-time step of 2-4 MB in a round that varied
    # from run to run, while traced memory stayed flat; a fresh interpreter
    # sees only reproduce.  Traced memory counts live Python and numpy
    # blocks, so a leak too small for the resident bound still fails: a
    # round leaves about 5 KiB (scipy's Schur callbacks), one leaked set of
    # trajectories is about 150 KiB and one leaked round of three tables
    # about 210 KiB.
    src = str(Path(satsync.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", _MEMORY_ROUNDS, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    rounds = result["rounds"]
    assert rounds[2] - rounds[1] < 1.0
    assert result["retained"] < 0.1


@pytest.fixture(scope="module")
def triple_cache():
    return PCache(triple_integrator())


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(chi=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
def test_scheduled_control_within_saturation_bound(triple_cache, chi):
    """The scheduled control has ‖u‖ ≤ 1, and on the triple integrator,
    where g is convex in ρ between rows, so does ‖BᵀP_ε χ‖ of a cold solve
    at ε itself."""
    chi = np.array(chi)
    eps = epsilon_of_state(chi, triple_cache)
    u = triple_cache.model.B.T @ triple_cache.solution(eps).P @ chi
    assert np.linalg.norm(u) <= 1.0 + 1e-12
    assert control_norms(chi[None], triple_cache)[0] <= 1.0


class TestCompactSetSpec:
    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            CompactSetSpec(agent=-1.0, exo=1.0, protocol=1.0)

    def test_input_arrays_stay_the_callers(self):
        agent, exo = np.array([1.0, 2.0]), np.array([0.5])
        sets = CompactSetSpec(agent=agent, exo=exo, protocol=0.0)
        for given, held in ((agent, sets.agent), (exo, sets.exo)):
            assert given.flags.writeable and not held.flags.writeable
            given *= 3.0
            assert not np.any(held == given)

    def test_scalar_broadcast(self):
        sets = CompactSetSpec(agent=2.0, exo=0.5, protocol=0.0)
        assert sets.agent.shape == (1,)

    def test_half_width_length_must_be_one_or_n(self):
        layout = StateLayout(2, 3, False)
        sets = CompactSetSpec(agent=[1.0, 2.0], exo=0.5, protocol=0.0)
        with pytest.raises(ValueError, match="half-width length"):
            sets.halfwidths(layout)


class TestSampleBoxVertices:
    def test_zero_box_is_origin(self):
        samples = sample_box_vertices(np.zeros(4))
        np.testing.assert_array_equal(samples, np.zeros((1, 4)))

    def test_small_box_enumerates_vertices(self):
        samples = sample_box_vertices(np.array([1.0, 2.0]))
        assert samples.shape == (4, 2)
        expected = {(-1, -2), (-1, 2), (1, -2), (1, 2)}
        assert {tuple(row) for row in samples} == expected

    def test_inactive_dims_fixed_at_zero(self):
        samples = sample_box_vertices(np.array([1.0, 0.0, 3.0]))
        assert samples.shape == (4, 3)
        np.testing.assert_array_equal(samples[:, 1], 0.0)

    def test_small_box_enumerates_in_binary_order(self):
        # row v has +h_k on coordinate k exactly when bit k of v is set
        for d in range(9):
            h = np.arange(1.0, d + 1)
            expected = [[h[k] if (v >> k) & 1 else -h[k] for k in range(d)]
                        for v in range(2**d)]
            np.testing.assert_array_equal(
                sample_box_vertices(h), np.reshape(expected, (2**d, d))
            )

    @pytest.mark.parametrize("d", [9, 16, 21, 30, 64, 100, 300])
    def test_large_box_rows_distinct_and_not_antipodal(self, d):
        samples = sample_box_vertices(np.ones(d))
        assert samples.shape == (257, d)
        rows = {tuple(row) for row in samples}
        assert len(rows) == 257
        assert not any(tuple(-row) in rows for row in samples[:-1])
        np.testing.assert_array_equal(samples[-1], np.zeros(d))

    def test_large_box_uses_sign_patterns(self):
        h = np.ones(10)  # 1024 vertices > 256
        samples = sample_box_vertices(h)
        assert samples.shape == (257, 10)
        assert np.all(np.isin(samples, (-1.0, 0.0, 1.0)))
        np.testing.assert_array_equal(samples[-1], np.zeros(10))

    def test_deterministic(self):
        h = np.ones(12)
        np.testing.assert_array_equal(
            sample_box_vertices(h), sample_box_vertices(h)
        )


class TestSelectSemiglobalEpsilon:
    def test_scalar_pair_selects_unit_epsilon(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        adj = np.zeros((2, 2))
        adj[1, 0] = 1.0
        net = Network(adjacency=adj, root_set=frozenset([0]))
        sets = CompactSetSpec(agent=0.05, exo=0.05, protocol=0.0)
        report = select_semiglobal_epsilon(model, net, sets, "full")
        assert report.epsilon_star == 1.0
        assert report.trials[-1].passed
        assert report.trials[-1].max_control < 0.95

    def test_zero_sets_trivially_pass(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        net = Network(adjacency=np.zeros((1, 1)), root_set=frozenset([0]))
        sets = CompactSetSpec(agent=0.0, exo=0.0, protocol=0.0)
        report = select_semiglobal_epsilon(model, net, sets, "full")
        assert report.epsilon_star == 1.0
        assert report.n_samples == 1
        assert report.trials[-1].max_control == 0.0

    def test_unknown_coupling_rejected(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        net = Network(adjacency=np.zeros((1, 1)), root_set=frozenset([0]))
        sets = CompactSetSpec(agent=0.0, exo=0.0, protocol=0.0)
        with pytest.raises(ProtocolError, match="unknown coupling"):
            select_semiglobal_epsilon(model, net, sets, "output")

    def test_report_round_trips_to_dict(self):
        model = AgentModel([[0.0]], [[1.0]], [[1.0]])
        net = Network(adjacency=np.zeros((1, 1)), root_set=frozenset([0]))
        sets = CompactSetSpec(agent=0.0, exo=0.0, protocol=0.0)
        report = select_semiglobal_epsilon(model, net, sets, "full")
        d = report.to_dict()
        assert d["epsilon_star"] == 1.0
        assert len(d["trials"]) == len(report.trials)

    def test_case3_unit_epsilon_steps_are_all_linear(self):
        """select-eps on case 3 at half-width 0.05 validates ε = 1 from 257
        samples.  That loop never saturates, so every accepted RK45 step
        must come from the linear kernel; a silent fallback to the stage
        loop would cost its 6 field calls per step again."""
        from satsync import ClosedLoopField, bundled_scenario, integrate
        from satsync.protocols import ProtocolKind
        from satsync.riccati import design_observer_gain

        scenario = bundled_scenario(3)
        kind = ProtocolKind(epsilon=1.0,
                            observer_gain=design_observer_gain(scenario.model))
        field = ClosedLoopField(scenario.model, scenario.net, kind)
        sets = CompactSetSpec(agent=0.05, exo=0.05, protocol=0.05)
        samples = sample_box_vertices(sets.halfwidths(field.layout))
        assert samples.shape[0] == 257
        for z0 in samples:
            traj = integrate(field, z0, (0.0, scheduling.T_VAL),
                             rtol=1e-6, atol=1e-8)
            assert traj.stats.n_linear_steps == traj.stats.n_steps > 0
