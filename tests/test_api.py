"""The package's public surface: every exported name resolves."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import lavabridge


def test_import_package():
    assert importlib.import_module("lavabridge") is lavabridge


def test_every_module_all_resolves():
    checked = 0
    for info in pkgutil.iter_modules(lavabridge.__path__):
        module = importlib.import_module(f"lavabridge.{info.name}")
        names = getattr(module, "__all__", [])
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"lavabridge.{info.name}.__all__ lists missing names {missing}"
        checked += len(names)
    assert checked > 0


def test_package_imports_only_numpy_and_the_standard_library():
    # The package depends on numpy alone: every import is relative, from the
    # standard library or from numpy. learner and demos must not reach into
    # the start rules, nor the start rules into demos.
    src = Path(lavabridge.__file__).parent
    imports = {}
    for path in sorted(src.glob("*.py")):
        names = imports[path.name] = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names += [(0, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.append((node.level, node.module))
            elif isinstance(node, ast.ImportFrom):  # from . import name
                names += [(node.level, alias.name) for alias in node.names]
    assert len(imports) > 10
    for name, found in imports.items():
        for level, module in found:
            top = module.split(".")[0]
            assert level > 0 or top in sys.stdlib_module_names or top == "numpy", \
                f"{name} imports {module}"
    for name, forbidden in (("learner.py", "samplers"), ("demos.py", "samplers"),
                            ("samplers.py", "demos")):
        assert not [m for level, m in imports[name] if level and m.split(".")[0] == forbidden], \
            f"{name} imports {forbidden}"
