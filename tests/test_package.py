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


WARNING_FILTERS = {"catch_warnings", "simplefilter", "filterwarnings",
                   "resetwarnings"}


def test_no_module_filters_warnings():
    # a warning belongs to whoever called the code that issued it: one
    # lagflow layer must not silence another layer's warning
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None)
                  or getattr(node.func, "id", None)) in WARNING_FILTERS]
    assert not found, f"warning filters in lagflow: {found}"


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
    # every attribute a lagflow class stores on ``self``, and every annotated
    # field of a lagflow dataclass, is loaded somewhere in src/, tests/ or
    # perfbench/, as ``obj.name`` or ``getattr(obj, "name", ...)``: state
    # nobody reads is dead weight
    stored, loads = set(), set()
    for path in SRC.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                stored.update(
                    (cls.name, node.attr) for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self")
                # @dataclass or @dataclass(...)
                if any(getattr(getattr(dec, "func", dec), "id", None)
                       == "dataclass" for dec in cls.decorator_list):
                    stored.update(
                        (cls.name, item.target.id) for item in cls.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name))
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


# public names that no src/ or perfbench/ code reads yet, each with the
# ROADMAP directions that will read them
UNREAD_PUBLIC_NAMES = {
    # the paper checks, read by the run record's paper_checks section
    ("lame", "symbol_matrix"): (15,),
    ("lame", "symbol_eigenvalues"): (15,),
    ("lame", "lopatinskii_check"): (15,),
    ("lame", "halfline_decay_rates"): (15,),
    ("lame", "traction_eigenpair"): (15,),
    ("noise", "check_divergence_free"): (15,),
    ("nonlinear", "extended_normal_field"): (15,),
    # the ensemble studies of the stopping time and its conservativeness
    ("fixedpoint", "contraction_probe"): (7, 12),
    # the pathwise dt-refinement study
    ("noise", "refine_bridge"): (6,),
}


def loaded_names(tree: ast.AST, enclosing: frozenset = frozenset()) -> set:
    """Names and attributes loaded in ``tree``, each outside a def or class
    of its own name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load):
            name = getattr(node, "id", None) or node.attr
            if name not in enclosing:
                found.add(name)
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = enclosing | {node.name}
        found |= loaded_names(node, inner)
    return found


def test_public_names_have_a_reader():
    # every __all__ name of every lagflow module is loaded in src/ or
    # perfbench/ outside its own definition (a function or class the
    # benchmark tracer wraps by name counts), or waits on the allow-list
    # above for the directions that will read it; an allow-listed name that
    # has a reader leaves the list
    loads = set()
    for folder in (SRC, ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            loads |= loaded_names(ast.parse(path.read_text()))
    tables = tracer_tables()
    loads |= {attr for _, attr in tables["FUNCTIONS"]}
    loads |= {cls for _, cls, _ in tables["METHODS"]}
    public = {(info.name, name)
              for info in pkgutil.iter_modules(lagflow.__path__)
              for name in getattr(importlib.import_module(
                  f"lagflow.{info.name}"), "__all__", ())}
    unread = sorted(f"lagflow.{m}.{name}" for m, name in public
                    if name not in loads and (m, name) not in UNREAD_PUBLIC_NAMES)
    assert not unread, f"public names no src/ or perfbench/ code reads: {unread}"
    stale = sorted(f"lagflow.{m}.{name}" for m, name in UNREAD_PUBLIC_NAMES
                   if (m, name) not in public or name in loads)
    assert not stale, f"allow-listed names that are gone or have a reader: {stale}"
    for key, directions in UNREAD_PUBLIC_NAMES.items():
        assert directions and all(isinstance(d, int) for d in directions), key
