"""The package exports agree with the modules' __all__ lists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import bochner


def test_every_reexport_is_in_its_modules_all_and_every_all_entry_exists():
    tree = ast.parse(Path(bochner.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    # the parsed imports are exactly the public names the package binds
    bound = {name for name, value in vars(bochner).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert {name for _, name in reexports} == bound
    for module, name in reexports:
        mod = importlib.import_module(f"bochner.{module}")
        assert name in mod.__all__, (module, name)
        assert getattr(bochner, name) is getattr(mod, name), (module, name)
    for info in pkgutil.iter_modules(bochner.__path__):
        mod = importlib.import_module(f"bochner.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (info.name, name)


def test_importing_the_cli_loads_no_logging():
    # no module logs, so none pays for the logging import
    import os
    import subprocess
    import sys

    src = str(Path(bochner.__file__).parents[1])
    code = "import sys, bochner.cli; print(sorted({'logging'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
