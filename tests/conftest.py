import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--extended",
        action="store_true",
        default=False,
        help="run the extended exhaustive checks (full span scans up to |E|)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "extended: long exhaustive runs, enabled with --extended")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--extended"):
        return
    skip = pytest.mark.skip(reason="extended check; enable with --extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
