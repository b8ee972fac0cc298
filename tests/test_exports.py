"""Tooling: every exported name resolves, so a deleted name cannot linger."""

import ast
import importlib
import pkgutil
from pathlib import Path

import fracperim


def _modules():
    for info in pkgutil.iter_modules(fracperim.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            yield importlib.import_module(f"fracperim.{info.name}")


def _init_imports():
    """(module, name) for every name the package's __init__ imports."""
    tree = ast.parse(Path(fracperim.__file__).read_text(encoding="ascii"))
    return [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_name_in_a_module_all_exists():
    for module in _modules():
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), f"{module.__name__}: repeated names"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing {missing}"


def test_package_exposes_every_name_its_init_lists():
    listed = _init_imports()
    assert listed
    missing = [name for _, name in listed if not hasattr(fracperim, name)]
    assert not missing, f"fracperim lacks {missing}"
    # a module with an __all__ exports every name the package takes from it
    for module_name, name in listed:
        module = importlib.import_module(f"fracperim.{module_name}")
        exported = getattr(module, "__all__", None)
        assert exported is None or name in exported, (
            f"fracperim takes {name} from {module_name}, whose __all__ lacks it"
        )
