import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from scqsim.evolution import _state_blocks

settings.register_profile(
    "fast",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("fast")

#: wall-clock limit per test, in seconds; the slowest tests take 3-7 s
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S. Not an Exception, so Hypothesis
    passes it on at once instead of shrinking the example that hung."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that never returns (a kernel stuck in its loop) instead of
    hanging the run; skipped where the platform has no ``signal.setitimer``."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def unit_state(*amplitudes) -> np.ndarray:
    """The state with these amplitudes, divided by its norm."""
    psi = np.array(amplitudes, dtype=complex)
    return psi / np.linalg.norm(psi)


def kernel_states(matrix, psi0, elapsed) -> np.ndarray:
    """The states exp(-i matrix elapsed_k / hbar) psi0 of the eigen kernel, its blocks
    joined; a trajectory keeps none of them."""
    return np.concatenate(list(_state_blocks(matrix, psi0, np.asarray(elapsed, dtype=float))))


finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def unit_bloch_vectors(draw):
    v = np.array([draw(finite), draw(finite), draw(finite)])
    norm = np.linalg.norm(v)
    if norm < 0.1:
        v = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    return v / norm


@st.composite
def ball_bloch_vectors(draw):
    v = draw(unit_bloch_vectors())
    return v * draw(st.floats(min_value=0.0, max_value=1.0))


@st.composite
def pure_states(draw):
    re0, im0 = draw(finite), draw(finite)
    re1, im1 = draw(finite), draw(finite)
    v = np.array([re0 + 1j * im0, re1 + 1j * im1])
    norm = np.linalg.norm(v)
    if norm < 0.1:
        return np.array([1.0 + 0j, 0j])
    return v / norm
