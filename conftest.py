"""Repository-wide pytest setup, loaded for every test directory."""

import importlib.util

if importlib.util.find_spec("pytest_timeout") is None:
    # pytest-timeout is a CI-only dependency; register its `timeout`
    # ini option as an inert fallback so the pyproject setting does not
    # warn (or enforce anything) on machines without the plugin.
    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test timeout in seconds (enforced only with pytest-timeout)",
            default=None,
        )
