"""The package metadata and the benchmark tracer point at code that exists."""

import ast
import importlib
import pkgutil
import re
import tomllib
from pathlib import Path

import lagflow

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lagflow"
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


CONFIG_CLASSES = ("SolveConfig", "FluidParams")


def test_config_fields_are_read():
    # a config field counts as read when some attribute load of its name is
    # neither in a config class's __post_init__ (validation) nor an argument
    # of a config constructor (forwarding into another config)
    fields, loads = {}, set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                fields[node.name] = [item.target.id for item in node.body
                                     if isinstance(item, ast.AnnAssign)]
                for item in node.body:
                    if getattr(item, "name", None) == "__post_init__":
                        skipped.update(map(id, ast.walk(item)))
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in CONFIG_CLASSES):
                for arg in node.args + [kw.value for kw in node.keywords]:
                    skipped.update(map(id, ast.walk(arg)))
        loads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load) and id(node) not in skipped)
    assert set(fields) == set(CONFIG_CLASSES)
    unread = [f"{cls}.{name}" for cls, names in fields.items()
              for name in names if name not in loads]
    assert not unread, f"config fields no code reads: {unread}"


def test_instance_attributes_are_read():
    # every attribute a lagflow class stores on ``self`` is loaded somewhere
    # in src/, tests/ or perfbench/, as ``obj.name`` or ``getattr(obj,
    # "name", ...)``: state nobody reads is dead weight
    stored, loads = set(), set()
    for path in SRC.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                stored.update(
                    (cls.name, node.attr) for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self")
    for folder in (SRC, ROOT / "tests", ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "getattr"
                      and isinstance(node.args[1], ast.Constant)):
                    loads.add(node.args[1].value)
    unread = sorted(f"{cls}.{name}" for cls, name in stored if name not in loads)
    assert not unread, f"instance attributes no code reads: {unread}"
