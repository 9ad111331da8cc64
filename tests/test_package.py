"""The package metadata and the benchmark tracer point at code that exists."""

import ast
import importlib
import pkgutil
import re
import tomllib
from pathlib import Path

import lagflow

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_public_names_exist():
    # a function deleted but left in __all__ breaks `from lagflow.x import *`
    for info in pkgutil.iter_modules(lagflow.__path__):
        module = importlib.import_module(f"lagflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"lagflow.{info.name}.{name} missing"


def tracer_tables() -> dict:
    """The literal MODULES, FUNCTIONS and METHODS of the benchmark tracer."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("MODULES", "FUNCTIONS", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_exist_in_lagflow():
    # the benchmark tracer wraps these by name; a rename must fail here
    tables = tracer_tables()
    assert set(tables) == {"MODULES", "FUNCTIONS", "METHODS"}
    for module in tables["MODULES"]:
        importlib.import_module(f"lagflow.{module}")
    for module, attr in tables["FUNCTIONS"]:
        obj = getattr(importlib.import_module(f"lagflow.{module}"), attr)
        assert callable(obj), f"lagflow.{module}.{attr} is not callable"
    for module, cls_name, attr in tables["METHODS"]:
        cls = getattr(importlib.import_module(f"lagflow.{module}"), cls_name)
        assert callable(cls.__dict__[attr]), f"{cls_name}.{attr} is not callable"
