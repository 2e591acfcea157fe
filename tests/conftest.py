import os
import signal
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "default",
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.register_profile("thorough", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Seconds a single test may run before it fails; the slowest test in this
# directory takes under 3 s, under the "thorough" profile too, so only a
# hang (say, a simplex that stops terminating) reaches it.
TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT instead of hanging the suite."""
    def expire(signum, frame):
        pytest.fail(f"test ran past its {TIME_LIMIT} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
