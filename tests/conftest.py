"""Shared pytest configuration for the test suite."""


def pytest_configure(config):
    # Register the custom marks so pytest does not warn about them;
    # ``-m "not slow"`` deselects the multi-second end-to-end tests.
    config.addinivalue_line(
        "markers", "slow: multi-second end-to-end test (examples, "
                   "service round trips)")
