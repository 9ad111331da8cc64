"""The package metadata points at code that exists."""

import importlib
import re
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def project_table() -> dict:
    return tomllib.loads(PYPROJECT.read_text())["project"]


def test_declared_dependencies_import():
    for requirement in project_table()["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_script_entries_resolve_to_callables():
    for script, target in project_table().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script!r}: {target} is not callable"
