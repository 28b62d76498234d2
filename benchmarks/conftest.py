"""Benchmark-suite configuration.

Makes the local helper module importable.  The paper's table and figure
checks take pytest-benchmark's ``benchmark`` fixture; where that plugin is
not installed, a stand-in fixture runs the measured function exactly once
and returns its result, so the checks run under plain pytest.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

try:
    import pytest_benchmark  # noqa: F401 - provides the real fixture and marker
except ImportError:

    class _RunOnce:
        """The subset of pytest-benchmark's fixture the checks use."""

        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, **_rounds):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _RunOnce()

    def pytest_configure(config):
        config.addinivalue_line("markers", "benchmark(group): paper table/figure group")
