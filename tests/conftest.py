import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from satsync import AgentModel, Network, check_assumption, triple_integrator

# one line per acceptance criterion, printed after the test run
ACCEPTANCE_RESULTS = []


def pytest_configure(config):
    # Hypothesis caches constants and unicode data under ./.hypothesis even
    # with database=None; keep them in a directory removed after the run.
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


# An admissible double integrator in a skewed basis.  At ρ = 2⁻²⁰ LAPACK
# cannot reorder its Hamiltonian's Schur form: the eigenvalues ±ρ/2 are too
# close to separate across the imaginary axis.
SKEWED_DOUBLE_INTEGRATOR = {
    "A": [[1.1142810702901293, 7.613258612728684],
          [-0.1630868418854228, -1.1142810702901293]],
    "B": [[-1.1240173337485642], [1.0387212032559374]],
    "C": [[-0.3213026047289114, -1.4812850960866757]],
}


def random_admissible_model(rng, n_max=6, io_max=2):
    """Random (A, B, C) with eig(A) in the closed LHP, stabilizable, detectable."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, io_max + 1))
        q = int(rng.integers(1, io_max + 1))
        A = rng.standard_normal((n, n))
        # shift the spectrum so the rightmost eigenvalue sits on the axis
        A -= np.eye(n) * np.linalg.eigvals(A).real.max()
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((q, n))
        model = AgentModel(A, B, C)
        if check_assumption(model).passed:
            return model


def random_axis_spectrum_model(rng, n_max=6, io_max=2):
    """Random admissible (A, B, C) with the whole spectrum of A on the
    imaginary axis: Jordan chains at 0 and rotation blocks, in a random basis.

    In a random basis a chain of length k is perturbed to eigenvalues of
    size about ε_mach^(1/k), so the admissibility check mostly keeps chains
    of length one or two; longer chains are covered by integrator_chain.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        J = np.zeros((n, n))
        i = 0
        while i < n:
            if i + 2 <= n and rng.random() < 0.4:
                w = float(rng.uniform(0.1, 3.0))
                J[i, i + 1], J[i + 1, i] = w, -w
                i += 2
            else:
                k = int(rng.integers(1, n - i + 1))
                J[i:i + k, i:i + k] = np.diag(np.ones(k - 1), 1)
                i += k
        S = rng.standard_normal((n, n))
        A = S @ J @ np.linalg.inv(S)
        B = rng.standard_normal((n, int(rng.integers(1, io_max + 1))))
        C = rng.standard_normal((int(rng.integers(1, io_max + 1)), n))
        model = AgentModel(A, B, C)
        if check_assumption(model).passed:
            return model


def chain_net(N):
    """Directed path 0 → 1 → … → N−1 with unit weights, rooted at agent 0."""
    adj = np.zeros((N, N))
    for i in range(1, N):
        adj[i, i - 1] = 1.0
    return Network(adjacency=adj, root_set=frozenset([0]))


def integrator_chain(n):
    """n-th order integrator chain with scalar input and position output."""
    A = np.diag(np.ones(n - 1), 1) if n > 1 else np.zeros((1, 1))
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return AgentModel(A, B, C)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def triple():
    return triple_integrator()
