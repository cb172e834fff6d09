"""The public surface: every exported or re-exported name resolves."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import codedseq

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(codedseq.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"codedseq.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(codedseq.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"codedseq.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(codedseq, name) is getattr(module, alias.name), name
