import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from satsync import AgentModel, check_assumption, triple_integrator

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
