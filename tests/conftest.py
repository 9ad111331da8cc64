"""Tier-1 turns every ``UserWarning`` a test does not expect into an error.

The filter is a mark on each test of this directory, not an entry of
``pyproject.toml``'s ``filterwarnings``: the benchmark's self-test
(``python3 -m pytest -q perfbench``) reads that configuration as well, and
its short runs emit the compatibility warning on purpose.  A test that
expects a warning catches it with ``pytest.warns``.

Where libcst is installed, hypothesis writes a patch for a failing example
with ``hypothesis.extra._patching``, which imports libcst, which uses
``mypy_extensions.TypedDict`` and so emits a ``DeprecationWarning``.  That
import would happen inside pytest's report hook, where the configuration's
``error::DeprecationWarning`` turns the warning into an internal error that
ends the whole session.  So the module is imported here once, with that one
message ignored for the import only.
"""

import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # no libcst: hypothesis writes no patch
        pass


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::UserWarning"))
