import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class BoundedRng:
    """A generator that allows a fixed number of standard-normal draws, so
    a resampling loop that never ends fails instead of hanging."""

    def __init__(self, draws=100):
        self._rng = np.random.default_rng(0)
        self.left = draws

    def standard_normal(self, size):
        self.left -= 1
        if self.left < 0:
            raise AssertionError("standard-normal draws exhausted: resampling did not stop")
        return self._rng.standard_normal(size)


@pytest.fixture
def bounded_rng():
    return BoundedRng()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    tr = terminalreporter
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in tr.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") == "call":
                outcomes[nodeid] = status
    if outcomes:
        tr.write_sep("-", "acceptance criteria")
        for nodeid in sorted(outcomes):
            label = "PASS" if outcomes[nodeid] == "passed" else "FAIL"
            tr.write_line(f"{label}  {nodeid.split('::')[-1]}")
