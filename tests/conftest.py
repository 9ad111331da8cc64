"""Tier-1 turns every ``UserWarning`` a test does not expect into an error.

The filter is a mark on each test of this directory, not an entry of
``pyproject.toml``'s ``filterwarnings``: the benchmark's self-test
(``python3 -m pytest -q perfbench``) reads that configuration as well, and
its short runs emit the compatibility warning on purpose.  A test that
expects a warning catches it with ``pytest.warns``.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::UserWarning"))
