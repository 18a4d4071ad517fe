"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

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
