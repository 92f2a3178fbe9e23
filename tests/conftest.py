import os

import numpy as np
import pytest

from bistoch.env import (ConductanceField, Environment, homogeneous_environment,
                         random_environment, save_env)
from bistoch.torus import Torus


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Fail the run if a child of the test process still runs or is unreaped at its end.

    The ensemble engine forks its workers; each must be reaped before the
    call that forked it returns or raises.
    """
    yield
    if hasattr(os, "WNOHANG"):
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        state = "still running" if pid == 0 else f"pid {pid} unreaped, wait status {status}"
        pytest.fail(f"the test process left a child process: {state}")


@pytest.fixture(scope="session")
def env_rand():
    """One frozen random stream environment shared across modules."""
    return random_environment(2, 8, seed=7)


@pytest.fixture(scope="session")
def env_rand_file(env_rand, tmp_path_factory):
    """env_rand saved as an environment file, for tests that go through the CLI."""
    path = tmp_path_factory.mktemp("env") / "env_rand.json"
    save_env(env_rand, str(path))
    return str(path)


@pytest.fixture(scope="session")
def env_homog():
    return homogeneous_environment(2, 8)


@pytest.fixture(scope="session")
def env_two_point():
    """d=1 alternating conductances {1, 4}: harmonic mean 1.6 exactly."""
    t = Torus(1, 8)
    vals = np.array([1.0, 4.0] * 4)[:, None]
    return Environment(t, ConductanceField.from_canonical(t, vals))
