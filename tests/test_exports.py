"""The package exports agree with the modules' __all__ lists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import bochner


def test_every_reexport_is_in_its_modules_all_and_every_all_entry_exists():
    tree = ast.parse(Path(bochner.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert len(reexports) > 80
    for module, name in reexports:
        assert name in importlib.import_module(f"bochner.{module}").__all__, (module, name)
    for info in pkgutil.iter_modules(bochner.__path__):
        mod = importlib.import_module(f"bochner.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (info.name, name)
