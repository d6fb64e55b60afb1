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
    CompactSetSpec,
    Network,
    PCache,
    StateLayout,
    epsilon_of_state,
    reproduce,
    select_semiglobal_epsilon,
    solve_scheduled_are,
    triple_integrator,
)
import satsync
from satsync import riccati, scheduling
from satsync.riccati import ParameterError, RiccatiError, scheduled_lyapunov
from satsync.scheduling import (
    BISECTION_DEPTH,
    GRID,
    OCTAVE,
    RHO_MIN,
    ScheduleFloorError,
    lattice_rho,
    sample_box_vertices,
    schedule,
)


@pytest.fixture(scope="module")
def scalar_cache():
    # A = 0, B = 1: P_rho = rho, so g(rho, chi) = chi^2 rho^2
    return PCache(AgentModel([[0.0]], [[1.0]], [[1.0]]))


class TestPCache:
    def test_grid_solutions_match_closed_form(self, scalar_cache):
        # the residual certificate |P(rho - P)| <= tol only pins P down to
        # about tol/rho, so the check loosens as rho shrinks
        for rho in GRID:
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
        values = [cache.g(rho, chi) for rho in reversed(GRID)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_off_grid_solution_closed_form(self, scalar_cache):
        assert scalar_cache.solution(0.3).P[0, 0] == pytest.approx(0.3, rel=1e-9)

    def test_construction_solves_only_unit_rho(self, monkeypatch):
        # the other grid rows come from one stack, which certifies each of
        # them on the triple integrator, and the rest from the schedule
        calls = []

        def counting(model, rho, **kwargs):
            calls.append(rho)
            return solve_scheduled_are(model, rho, **kwargs)

        def stacking(model, rho):
            stacks.append(rho.size)
            return scheduled_lyapunov(model, rho)

        # row 0's stack of one, inside its solve, then the grid's of 20
        stacks = []
        monkeypatch.setattr(scheduling, "solve_scheduled_are", counting)
        monkeypatch.setattr(scheduling, "scheduled_lyapunov", stacking)
        monkeypatch.setattr(riccati, "scheduled_lyapunov", stacking)
        cache = PCache(triple_integrator())
        assert calls == [1.0]
        assert stacks == [1, len(GRID) - 1]
        cache.g(0.25, np.ones(3))
        assert calls == [1.0, 0.25]

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


class TestEpsilonOfState:
    def test_small_state_gives_one(self, scalar_cache):
        # g(1, 0.5) = 0.25 <= 1
        assert epsilon_of_state([0.5], scalar_cache) == 1.0

    def test_origin_gives_one(self, scalar_cache):
        assert epsilon_of_state([0.0], scalar_cache) == 1.0

    def test_scalar_boundary(self, scalar_cache):
        # largest rho with (2 rho)^2 <= 1 is exactly 0.5
        eps = epsilon_of_state([2.0], scalar_cache)
        assert eps <= 0.5
        assert eps == pytest.approx(0.5, rel=2e-3)

    def test_never_saturates_by_construction(self, scalar_cache):
        model = scalar_cache.model
        for chi_val in (0.1, 1.0, 7.5, 300.0):
            chi = np.array([chi_val])
            eps = epsilon_of_state(chi, scalar_cache)
            P = scalar_cache.solution(eps).P
            assert np.linalg.norm(model.B.T @ P @ chi) <= 1.0 + 1e-12

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
        # a grid-resolution step up must violate the constraint
        assert cache.g(min(1.0, eps * 2.01), chi) > 1.0


def table_row(model, P):
    """(tr(BᵀPB)·P, BᵀP), computed here from a solved P (…, n, n)."""
    BtP = model.B.T @ P
    S = np.trace(BtP @ model.B, axis1=-2, axis2=-1)[..., None, None] * P
    return S, BtP


def octave_rows(k):
    """The lattice ids of octave k, [k·2¹⁰, (k+1)·2¹⁰)."""
    return np.arange(k * OCTAVE, (k + 1) * OCTAVE)


def octave_of(rho):
    """The octave k of a lattice ρ ∈ [2⁻ᵏ, 2⁻ᵏ⁺¹)."""
    return 1 - int(np.frexp(rho)[1])


def lattice_id(rho):
    """The id k·2¹⁰ + j of the lattice ρ = 2⁻ᵏ(1 + j/2¹⁰)."""
    k = octave_of(rho)
    return k * OCTAVE + int((rho * 2.0**k - 1) * OCTAVE)


def stacked_octaves(asked):
    """The octaves k ≥ 1 that hold a non-grid lattice id asked: the octaves
    a cache asked for those ids stacks."""
    asked = np.asarray(list(asked), dtype=int)
    octaves = np.unique(asked[asked % OCTAVE > 0] // OCTAVE)
    return octaves[octaves > 0].tolist()


def probe_block_rows(eps):
    """Per probe block, the set of lattice ids it reads for the ε below 1
    that a schedule returned.  The block of r depths after `done` reads
    the 2ʳ − 1 rows lo + m·2¹⁰/2^(done + r), where lo is the bisection's id
    after `done` depths: the returned id with its 10 − done low bits
    cleared."""
    blocks = [set() for _ in scheduling.BLOCK_DEPTHS]
    for i in (lattice_id(rho) for rho in eps if rho < 1.0):
        done = 0
        for rows, r in zip(blocks, scheduling.BLOCK_DEPTHS):
            lo, step = i & -(OCTAVE >> done), OCTAVE >> (done + r)
            rows.update(range(lo + step, lo + (OCTAVE >> done), step))
            done += r
    return blocks


def assert_row_matches_direct_solve(cache, i):
    """Row i holds the bits of its direct solve, or NaN where that raises."""
    try:
        P = solve_scheduled_are(cache.model, lattice_rho(i)).P
    except RiccatiError:
        P = np.full_like(cache.S[i], np.nan)
    S, BtP = table_row(cache.model, P)
    np.testing.assert_array_equal(cache.S[i], S)
    np.testing.assert_array_equal(cache.BtP[i], BtP)


def assert_octave_matches_direct_solve(cache, k):
    """The rows of octave k that one direct stacked solve certifies are
    filled and hold its bits; returns the certified mask (2¹⁰,)."""
    rows = octave_rows(k)
    P, _, certified = scheduled_lyapunov(cache.model, lattice_rho(rows))
    S, BtP = table_row(cache.model, P)
    assert cache.filled[rows[certified]].all()
    np.testing.assert_array_equal(cache.S[rows[certified]], S)
    np.testing.assert_array_equal(cache.BtP[rows[certified]], BtP)
    return certified


@functools.cache
def named_model(name):
    """The triple integrator or the 6-chain, one instance per name, so that
    direct solves of it can be cached by name.  The 6-chain's octave stacks
    certify 801 and 1,011 of the 1,024 rows of octaves 1 and 2 and every
    row of octaves 3 and up."""
    return {"triple": triple_integrator,
            "6-chain": lambda: integrator_chain(6)}[name]()


@functools.cache
def direct_solve(name, rho):
    """`solve_scheduled_are` on `named_model(name)`, once per ρ."""
    return solve_scheduled_are(named_model(name), rho)


triple_solve = functools.partial(direct_solve, "triple")


@functools.cache
def direct_octave(name, k):
    """Table rows (S, BᵀP) of octave k ≥ 1 of `named_model(name)` from one
    direct stacked solve, one for each row it certifies, and the mask of
    those rows."""
    model = named_model(name)
    P, _, certified = scheduled_lyapunov(model, lattice_rho(octave_rows(k)))
    return (*table_row(model, P), certified)


def reference_schedule(chi, model, solved, solve=solve_scheduled_are):
    """One agent at a time: grid scan, then bisection, with g and
    u = −(BᵀP)χ from one cold `solve(model, ρ)` per probed ρ, its P kept in
    the dict solved; a ρ whose solve raises RiccatiError gets a NaN P and
    fails.  Stops at the first agent that fails every grid row."""
    B = model.B

    def P(rho):
        if rho not in solved:
            try:
                solved[rho] = solve(model, rho).P
            except RiccatiError:  # no solver certifies ρ
                solved[rho] = np.full((model.n, model.n), np.nan)
        return solved[rho]

    def g(rho, c):  # the expression of PCache.g
        S = table_row(model, P(rho))[0]
        return float(scheduling._g(scheduling._kron(c), S.reshape(-1)))

    eps, U = [], []
    for c in chi:
        k = next((k for k in range(len(GRID)) if g(GRID[k], c) <= 1.0), None)
        if k is None:
            raise ScheduleFloorError(float(np.linalg.norm(c)))
        rho = GRID[k]
        if k > 0:
            width = GRID[k - 1] - GRID[k]
            j_lo, j_hi = 0, 2**BISECTION_DEPTH
            for _ in range(BISECTION_DEPTH):
                j_mid = (j_lo + j_hi) // 2
                mid = GRID[k] + width * (j_mid / 2**BISECTION_DEPTH)
                if g(mid, c) <= 1.0:
                    j_lo = j_mid
                else:
                    j_hi = j_mid
            rho = GRID[k] + width * (j_lo / 2**BISECTION_DEPTH)
        eps.append(rho)
        U.append(-(B.T @ P(rho) @ c))
    return np.array(eps), np.array(U).reshape(len(chi), B.shape[1])


def floor_norm_or(fn, *args):
    """fn(*args), or the norm a ScheduleFloorError names."""
    try:
        return fn(*args)
    except ScheduleFloorError as err:
        return err.chi_norm


def assert_schedule_matches_reference(chi, name="triple"):
    """`schedule` of chi on a fresh cache of `named_model(name)`, cold and
    then warm, against the one-agent-at-a-time reference: same bits of ε
    and U, or the same floor error.  The cold call fills, per probe block,
    the rows that block reads (`probe_block_rows`), which hold every row
    the reference solves.  The warm call fills no row: it calls no `fill`
    when every bisecting agent's octave is complete, and otherwise asks
    for the same rows again, one call per block.  The table fills exactly
    the 21 grid rows and, bar a floor error, the rows of the probe blocks
    read and, of each octave k ≥ 1 holding such a row, every row one
    direct stacked solve certifies, with its bits; each grid row, row the
    reference solved and block row the stack does not certify holds the
    bits of its direct solve, or NaN where that raises.  Returns those
    octaves."""
    model = named_model(name)
    cache, solved = PCache(model), {}
    calls = counting_fills(cache)
    got = floor_norm_or(schedule, chi, cache)
    cold, asked = cache.filled.copy(), calls[:]
    calls.clear()
    warm = floor_norm_or(schedule, chi, cache)
    want = floor_norm_or(reference_schedule, chi, model, solved,
                         lambda _, rho: direct_solve(name, rho))
    filled = {lattice_id(rho) for rho in GRID}
    if isinstance(want, float):
        assert got == warm == want
        per_block = []
    else:
        for eps, U in (got, warm):
            np.testing.assert_array_equal(eps, want[0])
            np.testing.assert_array_equal(U, want[1])
        per_block = [rows for rows in probe_block_rows(want[0]) if rows]
        assert {lattice_id(rho) for rho in solved} <= filled.union(*per_block)
    blocks = set().union(*per_block)
    filled |= blocks
    octaves = stacked_octaves(blocks)
    assert [set(c.tolist()) for c in asked] == per_block
    np.testing.assert_array_equal(cache.filled, cold)
    if cache.complete[octaves].all():
        assert calls == []
    else:
        assert [c.tolist() for c in calls] == [c.tolist() for c in asked]
    for k in octaves:
        S, BtP, certified = direct_octave(name, k)
        rows = octave_rows(k)[certified]
        filled.update(rows.tolist())
        np.testing.assert_array_equal(cache.S[rows], S)
        np.testing.assert_array_equal(cache.BtP[rows], BtP)
        for i in set(octave_rows(k)[~certified].tolist()) & blocks:
            assert_row_matches_direct_solve(cache, i)
    assert set(np.flatnonzero(cache.filled).tolist()) == filled
    for rho in {*GRID, *solved}:
        i = lattice_id(rho)
        if cache.filled[i]:
            S, BtP = table_row(model, direct_solve(name, rho).P)
            np.testing.assert_array_equal(cache.S[i], S)
            np.testing.assert_array_equal(cache.BtP[i], BtP)
    return octaves


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
    """Sixty agents spread over two octaves of ε ask for many rows of each;
    like every octave k ≥ 1 holding a non-grid row asked for, those octaves
    are filled whole, and ε and U keep the reference's bits."""
    rng = np.random.default_rng(3)
    chi = 10.0 ** rng.uniform(1.0, 1.6, (60, 1)) * rng.uniform(-1, 1, (60, 3))
    assert len(assert_schedule_matches_reference(chi)) >= 2


@pytest.mark.parametrize("scales, mixed", [((-0.8, 0.8), True),
                                            ((0.6, 1.2), False)])
def test_schedule_matches_reference_on_the_6_chain(scales, mixed):
    """`assert_schedule_matches_reference` on the 6-chain, whose octaves 1
    and 2 stay incomplete once stacked.  Agents at scales 10^-0.8 … 10^0.8
    bisect in octaves 1 and 2 and in complete ones, so the warm call fills
    each probe block's rows again; at 10^0.6 … 10^1.2 they bisect in
    complete octaves only, so the warm call makes no fill."""
    rng = np.random.default_rng(5)
    chi = 10.0 ** rng.uniform(*scales, (12, 1)) * rng.uniform(-1, 1, (12, 6))
    octaves = set(assert_schedule_matches_reference(chi, "6-chain"))
    assert bool(octaves & {1, 2}) == mixed and octaves - {1, 2}


@pytest.mark.parametrize("block", range(len(scheduling.BLOCK_DEPTHS)))
def test_probe_block_reads_the_bisection_path(block):
    """For every pass pattern of a probe block's rows, the offset the
    schedule adds to lo, `path[bits @ weights]`, is where the per-depth
    walk of the bisection over those bits leaves lo.  The blocks read the
    bisection's depths in order, and each reads every row its depths can
    probe."""
    depths = scheduling.BLOCK_DEPTHS
    assert sum(depths) == BISECTION_DEPTH
    done, r = sum(depths[:block]), depths[block]
    offsets, weights, path = scheduling._BLOCKS[block]
    step = OCTAVE >> (done + r)
    assert offsets.tolist() == list(range(step, OCTAVE >> done, step))
    position = {m: i for i, m in enumerate(offsets.tolist())}
    patterns = np.arange(2**offsets.size)
    bits = (patterns[:, None] >> np.arange(offsets.size)) & 1 == 1
    decoded = path[bits @ weights].tolist()
    for row, offset in zip(bits.tolist(), decoded):
        lo = 0
        for depth in range(done + 1, done + r + 1):
            mid = lo + (OCTAVE >> depth)
            if row[position[mid]]:
                lo = mid
        assert offset == lo


def counting_fills(cache):
    """Wrap `cache.fill` to record the ids of each call; returns the list."""
    calls, fill = [], cache.fill

    def asking(ids):
        calls.append(np.array(ids))
        fill(ids)

    cache.fill = asking
    return calls


def counting_stacks(monkeypatch):
    """Wrap the octave stack `scheduling.scheduled_lyapunov` to record the
    octave of each call; returns the list."""
    octaves, stack = [], scheduled_lyapunov

    def stacking(model, rho):
        octaves.append(octave_of(rho[0]))
        return stack(model, rho)

    monkeypatch.setattr(scheduling, "scheduled_lyapunov", stacking)
    return octaves


@settings(database=None, derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), log10_scale=st.floats(-2.0, 4.0))
def test_table_rows_on_random_admissible_models(seed, log10_scale):
    """On random admissible models (n ≤ 6, m ≤ 2), after `schedule` of a
    few random states and a fill of every 16th row of the first state's
    octave, the table holds exactly the rows asked for, the 21 grid rows
    and, of each octave k ≥ 1 asked for a non-grid row, every row one
    direct stacked solve certifies, with its bits.  Only construction may
    raise RiccatiError; it fills every grid row, with NaN exactly where
    the row's direct solve raises.  Every grid row, every row holding NaN
    and sampled filled rows, among them rows the stacked solve does not
    certify, hold the bits of S = tr(BᵀPB)·P and BᵀP of a direct
    `solve_scheduled_are`, or NaN where it raises, and `_g` as the
    schedule calls it gives the bits of `PCache.g` on each, or NaN."""
    rng = np.random.default_rng(seed)
    model = random_admissible_model(rng, n_max=6, io_max=2)
    chi = 10.0**log10_scale * rng.standard_normal((3, model.n))
    try:
        cache = PCache(model)
    except RiccatiError:  # row 0: the model is not admissible
        return
    grid = scheduling.GRID_IDS
    assert cache.filled[grid].all()
    for i in grid:
        assert_row_matches_direct_solve(cache, i)
    calls = counting_fills(cache)
    try:
        eps, _ = schedule(chi, cache)
    except ScheduleFloorError:
        return
    cache.fill(octave_rows(max(1, octave_of(eps[0])))[::16])
    asked = {0, *np.concatenate(calls).tolist()}
    want = np.zeros_like(cache.filled)
    want[list(asked)] = True
    want[grid] = True
    for k in stacked_octaves(asked):
        want[octave_rows(k)] |= assert_octave_matches_direct_solve(cache, k)
    np.testing.assert_array_equal(cache.filled, want)
    ids = np.flatnonzero(cache.filled)
    rho = lattice_rho(ids)
    failing = np.flatnonzero(~scheduled_lyapunov(model, rho)[2])
    sample = np.union1d(np.linspace(0, ids.size - 1, 16).astype(int),
                        failing[np.linspace(0, failing.size - 1,
                                            min(16, failing.size)).astype(int)])
    nan = np.isnan(cache.S[ids]).any(axis=(1, 2))
    sample = np.union1d(sample, np.flatnonzero((ids % OCTAVE == 0) | nan))
    g = scheduling._g(scheduling._kron(chi)[:, None, :],
                      cache.S[ids[sample]].reshape(sample.size, -1))
    for i, r, g_row, no_solve in zip(ids[sample], rho[sample].tolist(), g.T,
                                     nan[sample]):
        assert_row_matches_direct_solve(cache, i)
        if no_solve:
            assert np.isnan(g_row).all()
        else:
            assert g_row.tolist() == [cache.g(r, c) for c in chi]


# a stable mode at −0.3: gate (i) fails for ρ ≤ 0.6 + 2·HURWITZ_TOL
GATE_I_MODEL = AgentModel([[0.0, 0.0], [0.0, -0.3]], [[1.0], [1.0]],
                          [[1.0, 0.0]])


def gate_i_states(rhos, model=GATE_I_MODEL):
    """States along (1, 0.2) of the model scaled to g = 1 at each ρ."""
    v, cache = np.array([1.0, 0.2]), PCache(model)
    return np.array([v / np.sqrt(cache.g(rho, v)) for rho in rhos])


def test_octave_split_by_gate_i(monkeypatch):
    """A stable mode at −0.3 fails gate (i) for ρ ≤ 0.6 + 2·HURWITZ_TOL,
    rows j ≤ 204 of octave 1 and all deeper octaves, so construction solves
    the 20 grid rows k ≥ 1 by the Hamiltonian method.  Once octave 1 is
    stacked, its gate-(i) rows stay unfilled unless a probe asks for them,
    and a row of a probe block among them is solved by the Hamiltonian
    method; the octave's other rows come from its stacked solve.  The
    blocks hold every row the one-agent-at-a-time reference probes, and ε
    and U equal the reference's.  The states have g = 1 at 40 ρ across
    octave 1, bisected on both sides of the gate, and at ρ = 0.1, in octave
    4, where no row passes gate (i).  Exactly the octaves holding a probe
    block, 1 and 4, are stacked, each once: the grid scan's levels 2 and 3
    stack nothing."""
    model, chi = GATE_I_MODEL, gate_i_states(
        [*np.linspace(0.51, 0.99, 40), 0.1])
    hamiltonian = []

    def counting(A, G, Q):
        hamiltonian.append(2 * A[0, 0])  # A + (ρ/2)I, and A₀₀ = 0
        return care_schur(A, G, Q)

    care_schur = riccati._care_schur
    monkeypatch.setattr(riccati, "_care_schur", counting)
    cache = PCache(model)
    assert cache.filled[scheduling.GRID_IDS].all()
    assert not np.isnan(cache.S[scheduling.GRID_IDS]).any()
    assert hamiltonian == list(GRID[1:])
    hamiltonian.clear()
    stacks = counting_stacks(monkeypatch)
    got = schedule(chi, cache)
    monkeypatch.undo()
    solved = {}
    want = reference_schedule(chi, model, solved)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    gate_i = lattice_rho(np.arange(cache.filled.size)) <= 0.6 + 2e-9
    grid = np.zeros_like(cache.filled)
    grid[scheduling.GRID_IDS] = True
    read = np.zeros_like(cache.filled)
    read[list(set().union(*probe_block_rows(got[0])))] = True
    assert (read | grid)[[lattice_id(rho) for rho in solved]].all()
    assert stacks == stacked_octaves(np.flatnonzero(read)) == [1, 4]
    assert read[octave_rows(1)][:205].any()  # a probe fails gate (i)
    np.testing.assert_array_equal(cache.filled[gate_i],
                                  (read | grid)[gate_i])
    assert cache.filled[octave_rows(1)][205:].all()
    assert cache.filled[~gate_i].sum() == OCTAVE - 205 + 1
    assert sorted(hamiltonian) == sorted(
        lattice_rho(np.flatnonzero(read & gate_i & ~grid)).tolist())
    assert_octave_matches_direct_solve(cache, 1)


def test_complete_octaves_are_bisected_without_fill():
    """On the triple integrator every stacked octave certifies every row,
    so exactly the stacked octaves are complete.  A warm `schedule` whose
    bisecting agents all lie in complete octaves calls no `fill` and keeps
    the bits of ε and U."""
    rng = np.random.default_rng(3)
    chi = 10.0 ** rng.uniform(1.0, 1.6, (60, 1)) * rng.uniform(-1, 1, (60, 3))
    chi = np.vstack([chi, [[0.1, 0.0, 0.0]]])  # one agent at ε = 1
    cache = PCache(triple_integrator())
    eps, U = schedule(chi, cache)
    whole = cache.filled.reshape(len(GRID), OCTAVE).all(axis=1)
    assert whole[1:].sum() >= 2
    assert cache.complete.tolist() == [False] + whole[1:].tolist()
    octave = np.array([octave_of(e) for e in eps])
    warm = cache.complete[octave] | (eps == 1.0)
    assert (warm & (eps < 1.0)).sum() >= 20 and eps[warm].max() == 1.0
    calls = counting_fills(cache)
    got = schedule(chi[warm], cache)
    assert calls == []
    np.testing.assert_array_equal(got[0], eps[warm])
    np.testing.assert_array_equal(got[1], U[warm])


def test_many_states_read_probe_blocks_in_parts():
    """A warm call with 2,000 bisecting states, as when a run's controls
    are recorded, reads the probe blocks for `_BLOCK_AGENTS` of them at a
    time: it calls no `fill`, keeps the bits of calls of 50 states, and
    its traced peak stays under 1 MB, where one block gathering the rows
    of all 2,000 states would take 2.2 MB alone."""
    rng = np.random.default_rng(3)
    chi = 10.0 ** rng.uniform(1.0, 3.0, (2000, 1)) * rng.uniform(-1, 1,
                                                                   (2000, 3))
    cache = PCache(triple_integrator())
    eps, _ = schedule(chi, cache)
    assert eps.max() < 1.0
    calls = counting_fills(cache)
    tracemalloc.start()
    try:
        got = schedule(chi, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 2**20
    for part in np.split(np.arange(2000), 40):
        want = schedule(chi[part], cache)
        np.testing.assert_array_equal(got[0][part], want[0])
        np.testing.assert_array_equal(got[1][part], want[1])


def test_many_states_fill_probe_blocks_in_parts():
    """A cold call with 2,000 states on the 6-chain, some bisecting in its
    incomplete octaves 1 and 2, reads the probe blocks for `_BLOCK_AGENTS`
    of them at a time and fills each block's rows first: one `fill` a
    block and part, of the block's rows for that part's states.  ε, U and
    the table equal those of 40 calls of 50 states on another fresh
    cache."""
    rng = np.random.default_rng(5)
    chi = 10.0 ** rng.uniform(-0.8, 0.0, (2000, 1)) * rng.uniform(-1, 1,
                                                                  (2000, 6))
    model = named_model("6-chain")
    cache, parted = PCache(model), PCache(model)
    calls = counting_fills(cache)
    got = schedule(chi, cache)
    bisecting = np.flatnonzero(got[0] < 1.0)
    assert {octave_of(e) for e in got[0][bisecting]} >= {1, 2}
    assert not cache.complete[[1, 2]].any()
    parts = [bisecting[first:first + scheduling._BLOCK_AGENTS]
             for first in range(0, bisecting.size, scheduling._BLOCK_AGENTS)]
    assert len(parts) > 1
    want = [rows for part in parts for rows in probe_block_rows(got[0][part])]
    assert [set(c.tolist()) for c in calls] == want
    assert max(c.size for c in calls) <= OCTAVE
    for part in np.split(np.arange(2000), 40):
        eps, U = schedule(chi[part], parted)
        np.testing.assert_array_equal(got[0][part], eps)
        np.testing.assert_array_equal(got[1][part], U)
    np.testing.assert_array_equal(cache.filled, parted.filled)
    np.testing.assert_array_equal(cache.S[cache.filled],
                                  parted.S[parted.filled])
    np.testing.assert_array_equal(cache.BtP[cache.filled],
                                  parted.BtP[parted.filled])


# a stable mode at −ρ(1, 1)/2: A + (ρ/2)I is singular at ρ(1, 1) = 1/2 +
# 2⁻¹¹, row 2¹⁰ + 1, which no solver certifies; the rows around it certify
ROW_GAP_MODEL = AgentModel([[0.0, 0.0], [0.0, -0.25 * (1 + 2.0**-10)]],
                           [[1.0], [1.0]], [[1.0, 0.0]])


def test_uncertified_row_reads_as_failing(monkeypatch):
    """Row 2¹⁰ + 1 of `ROW_GAP_MODEL` has no certified solve, and the
    third probe block of a bisection ending at row 2¹⁰ + j, j < 8, reads
    it.  One call fills it with NaN.  States with g = 1 between rows
    2¹⁰ + 3 and + 4 and between + 5 and + 6, whose bisection path never
    probes row 2¹⁰ + 1, and a state with g = 1 between rows 2¹⁰ + 1 and
    + 2, which probes it and gets row 2¹⁰, ρ = 1/2, the last row its path
    passed, keep the bits of ε and U of the one-agent-at-a-time reference,
    in which that row fails too.  A second call solves nothing and keeps
    the bits."""
    model, gap = ROW_GAP_MODEL, OCTAVE + 1
    with pytest.raises(RiccatiError, match="invariant subspace"):
        solve_scheduled_are(model, lattice_rho(gap))
    half_row = 2.0**-12  # half the lattice spacing of octave 1
    chi = gate_i_states(lattice_rho(OCTAVE + np.array([3, 5, 1])) + half_row,
                        model)
    cache = PCache(model)
    got = schedule(chi, cache)
    np.testing.assert_array_equal(got[0], lattice_rho(OCTAVE + np.array(
        [3, 5, 0])))
    want = reference_schedule(chi, model, {})
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert cache.filled[gap] and not cache.complete[1]
    assert np.isnan(cache.S[gap]).all() and np.isnan(cache.BtP[gap]).all()
    solves = []

    def counting(model, rho, **kwargs):
        solves.append(rho)
        return solve_scheduled_are(model, rho, **kwargs)

    monkeypatch.setattr(scheduling, "solve_scheduled_are", counting)
    again = schedule(chi, cache)
    assert solves == []
    np.testing.assert_array_equal(again[0], got[0])
    np.testing.assert_array_equal(again[1], got[1])


def test_incomplete_octave_rows_are_filled_when_probed():
    """On the gate-(i) model of `test_octave_split_by_gate_i`, octave 1 is
    stacked but stays incomplete.  A later `schedule` that bisects into its
    gate-(i) rows still fills each probe block's rows, one `fill` a block:
    rows missing before are filled with the bits of their direct solve,
    and ε and U equal the one-agent-at-a-time reference's."""
    model = GATE_I_MODEL
    cache = PCache(model)
    schedule(gate_i_states([*np.linspace(0.51, 0.99, 40), 0.1]), cache)
    assert cache.filled[octave_rows(1)][205:].all()
    assert not cache.complete.any()
    later = gate_i_states([0.5165])
    before = cache.filled.copy()
    calls = counting_fills(cache)
    got = schedule(later, cache)
    asked = np.concatenate(calls)
    assert [set(c.tolist()) for c in calls] == probe_block_rows(got[0])
    assert (~before[asked]).any()
    assert cache.filled[asked].all()
    for i in asked[~before[asked]]:
        S, BtP = table_row(model,
                           solve_scheduled_are(model, lattice_rho(i)).P)
        np.testing.assert_array_equal(cache.S[i], S)
        np.testing.assert_array_equal(cache.BtP[i], BtP)
    want = reference_schedule(later, model, {})
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("k", [1, 9, 20])
def test_one_row_fill_stacks_its_octave(k):
    """A public fill of one row of octave k on the triple integrator fills
    every row of octave k, and no other beside the grid, with the bits of
    one direct stacked solve, and marks the octave complete."""
    cache = PCache(triple_integrator())
    cache.fill(octave_rows(k)[[517]])
    want = np.zeros_like(cache.filled)
    want[scheduling.GRID_IDS] = True
    want[octave_rows(k)] = True
    np.testing.assert_array_equal(cache.filled, want)
    S, BtP, _ = direct_octave("triple", k)
    np.testing.assert_array_equal(cache.S[octave_rows(k)], S)
    np.testing.assert_array_equal(cache.BtP[octave_rows(k)], BtP)
    assert cache.complete.tolist() == [i == k for i in range(len(GRID))]


STACKING_CASES = {  # model, states of two `schedule` calls, ids of a fill
    "triple": lambda: (
        triple_integrator(),
        (np.outer([2.0, 30.0, 500.0], [1.0, -0.5, 0.25]),
         np.outer([3.0, 45.0, 7e3], [-0.2, 1.0, 0.5])),
        np.array([2 * OCTAVE + 3, 11 * OCTAVE + 700])),
    # octave 4 certifies no row, so the rows solved alone mark it stacked
    "gate_i": lambda: (
        GATE_I_MODEL, (gate_i_states([0.1]), gate_i_states([0.07, 0.12])),
        octave_rows(4)[::8]),
}


@pytest.mark.parametrize("case", STACKING_CASES)
def test_each_octave_is_stacked_at_most_once(monkeypatch, case):
    """Across two `schedule` calls and a public fill, each octave k ≥ 1
    that holds a row asked for is stacked exactly once."""
    model, states, extra = STACKING_CASES[case]()
    cache = PCache(model)
    calls = counting_fills(cache)
    stacks = counting_stacks(monkeypatch)
    for chi in states:
        schedule(chi, cache)
    cache.fill(extra)
    asked = np.concatenate(calls)
    assert sorted(stacks) == stacked_octaves(asked)
    assert len(set(stacks)) == len(stacks)


def test_lattice_rho_table_matches_ldexp():
    """The lattice table holds ldexp(1 + j/2¹⁰, −k) bit for bit at every
    id k·2¹⁰ + j."""
    ids = np.arange(len(GRID) * OCTAVE)
    k, j = np.divmod(ids, OCTAVE)
    want = np.ldexp(1.0 + j / OCTAVE, -k)
    np.testing.assert_array_equal(lattice_rho(ids).view(np.int64),
                                  want.view(np.int64))


def test_octave_zero_is_never_stacked(monkeypatch):
    """Only row 0 of octave 0 is a ρ in (0, 1]: scheduling leaves its other
    rows unfilled, and a public fill of them raises rather than stack
    them."""
    cache = PCache(triple_integrator())
    rng = np.random.default_rng(3)
    chi = 10.0 ** rng.uniform(-1.0, 1.6, (60, 1)) * rng.uniform(-1, 1, (60, 3))
    eps, _ = schedule(chi, cache)
    assert eps.max() == 1.0
    whole = cache.filled.reshape(len(GRID), OCTAVE).all(axis=1)
    assert whole[1:].any()
    stacks = counting_stacks(monkeypatch)
    with pytest.raises(ParameterError):
        cache.fill(np.arange(1, OCTAVE))
    assert stacks == []
    assert cache.filled[:OCTAVE].tolist() == [True] + [False] * (OCTAVE - 1)


def test_floor_error_names_first_agent_past_floor(scalar_cache):
    # agents 1 and 2 are past the floor; agent 0 is scheduled first
    chi = np.array([[3.0], [4.0 / RHO_MIN], [3.0 / RHO_MIN]])
    with pytest.raises(ScheduleFloorError) as err:
        schedule(chi, scalar_cache)
    assert err.value.chi_norm == 4.0 / RHO_MIN


# a stable mode at −1/8: A + (ρ/2)I is singular at ρ = 1/4, grid level 2,
# where no stabilizing P exists; ρ = 1/2 and 1/8 certify
GRID_GAP_MODEL = AgentModel([[0.0, 0.0], [0.0, -0.125]], [[1.0], [1.0]],
                            [[1.0, 0.0]])


def test_uncertified_grid_row_reads_as_failing(monkeypatch):
    """`GRID_GAP_MODEL` constructs with all 21 grid rows filled: ρ = 1/4
    has no certified solve and holds NaN, and each other grid row holds
    the bits of its direct solve.  States with g = 1 at ρ = 0.6, above the
    gap, and at 0.3 and 0.26, in octave 2, keep the one-agent-at-a-time
    reference's bits of ε and U, alone or together.  The two in octave 2
    fail row 1/4, pass row 1/8 and bisect octave 3, so their ε lies in
    [1/8, 1/4) with g ≤ 1 there: no control saturates.  A public fill of
    the grid row 1/4 and a second call solve nothing and keep the bits."""
    model = GRID_GAP_MODEL
    with pytest.raises(RiccatiError, match="invariant subspace"):
        solve_scheduled_are(model, 0.25)
    cache = PCache(model)
    grid = scheduling.GRID_IDS
    assert cache.filled[grid].all()
    assert np.isnan(cache.S[grid]).any(axis=(1, 2)).tolist() == [
        k == 2 for k in range(len(GRID))]
    for i in grid:
        assert_row_matches_direct_solve(cache, i)
    chi = gate_i_states([0.6, 0.3, 0.26], model)
    for states in (chi, chi[1:], chi[2:]):
        got = schedule(states, cache)
        want = reference_schedule(states, model, {})
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    got = schedule(chi, cache)
    assert got[0][0] == pytest.approx(0.6, rel=2e-3)
    assert ((0.125 <= got[0][1:]) & (got[0][1:] < 0.25)).all()
    for eps, c, u in zip(got[0], chi, got[1]):
        assert cache.g(eps, c) <= 1.0 and np.abs(u).max() <= 1.0
    solves = []

    def counting(model, rho, **kwargs):
        solves.append(rho)
        return solve_scheduled_are(model, rho, **kwargs)

    monkeypatch.setattr(scheduling, "solve_scheduled_are", counting)
    cache.fill(np.array([2 * OCTAVE]))
    again = schedule(chi, cache)
    assert solves == []
    np.testing.assert_array_equal(again[0], got[0])
    np.testing.assert_array_equal(again[1], got[1])


def test_out_of_order_grid_fill_changes_no_bits(monkeypatch):
    """Construction fills the grid of `GRID_GAP_MODEL` past the unsolvable
    ρ = 1/4, so a public fill of the grid ids, deepest first, stacks
    nothing and changes no row.  A public fill that stacks octave 3, grid row 1/8
    among its rows, before any `schedule` changes no schedule: ε and U
    equal a fresh cache's and the reference's, for states above the gap
    and in octave 2."""
    cache = PCache(GRID_GAP_MODEL)
    before = cache.S.copy(), cache.BtP.copy(), cache.filled.copy()
    stacks = counting_stacks(monkeypatch)
    cache.fill(scheduling.GRID_IDS[::-1])
    assert stacks == []
    for was, now in zip(before, (cache.S, cache.BtP, cache.filled)):
        np.testing.assert_array_equal(now, was)
    cache.fill(np.array([3 * OCTAVE + 517]))
    assert stacks == [3]
    monkeypatch.undo()
    chi = gate_i_states([1.0, 0.97, 0.75, 0.55, 0.52, 0.3, 0.26],
                        GRID_GAP_MODEL)
    got = schedule(chi, cache)
    for want in (schedule(chi, PCache(GRID_GAP_MODEL)),
                 reference_schedule(chi, GRID_GAP_MODEL, {})):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_grid_scan_stacks_no_octave(monkeypatch):
    """The grid is solved with the table: on a fresh triple-integrator
    cache, one state whose first passing grid level is 13 stacks only the
    octave its bisection probes, and all 21 grid rows are filled.  ε and U
    keep the one-agent-at-a-time reference's bits."""
    model = triple_integrator()
    cache = PCache(model)
    chi = 1e4 * np.array([[1.0, -0.5, 0.25]])
    stacks = counting_stacks(monkeypatch)
    got = schedule(chi, cache)
    assert octave_of(got[0][0]) == 13
    assert stacks == [13]
    assert cache.filled[scheduling.GRID_IDS].all()
    want = reference_schedule(chi, model, {}, lambda _, rho: triple_solve(rho))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_discarded_cache_is_freed_at_once():
    # no reference cycle: the last reference going frees the packed rows
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
    # rows live in the table allocated at construction: filling 612 of
    # them keeps no per-row object or copy
    cache = PCache(triple_integrator())
    chi = np.outer(np.logspace(-2, 5, 100), [1.0, -0.5, 0.25])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        schedule(chi, cache)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.filled.sum() > 500
    assert grown < 16 * 1024


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
    # trajectories is about 150 KiB and one leaked PCache about 2 MB.
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
    """g(ε(χ), χ) ≤ 1 keeps the scheduled control ‖BᵀP_ε χ‖ within 1."""
    chi = np.array(chi)
    eps = epsilon_of_state(chi, triple_cache)
    u = triple_cache.model.B.T @ triple_cache.solution(eps).P @ chi
    assert np.linalg.norm(u) <= 1.0 + 1e-12


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
        kind = ProtocolKind("semiglobal", scenario.coupling, epsilon=1.0,
                            observer_gain=design_observer_gain(scenario.model))
        field = ClosedLoopField(scenario.model, scenario.net, kind)
        sets = CompactSetSpec(agent=0.05, exo=0.05, protocol=0.05)
        samples = sample_box_vertices(sets.halfwidths(field.layout))
        assert samples.shape[0] == 257
        for z0 in samples:
            traj = integrate(field, z0, (0.0, scheduling.T_VAL),
                             rtol=1e-6, atol=1e-8)
            assert traj.stats.n_linear_steps == traj.stats.n_steps > 0
