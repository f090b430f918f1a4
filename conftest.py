"""Repo-wide pytest options (loaded before any test directory's conftest)."""


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record", action="store_true", default=False,
        help="write bench artifacts into benchmarks/results/ (default: a "
             "temp dir, so a test run leaves the tree clean)",
    )
