"""Every package's lazy export table behaves like the eager imports it replaced.

For each package with an ``__all__``, every exported name must resolve
through the package to the object its table's module defines, appear in
``dir()``, be bound by ``from pkg import *``, and an unknown name must raise
an ``AttributeError`` that names the package.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import repro


def _packages() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def _export_table(package) -> dict[str, str]:
    """The name -> module table the package hands to ``lazy_exports``."""
    tree = ast.parse(inspect.getsource(package))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package.__name__} does not call lazy_exports")


PACKAGES = [
    name for name in _packages() if getattr(importlib.import_module(name), "__all__", None)
]


def test_every_package_is_covered():
    assert "repro" in PACKAGES and "repro.service.http" in PACKAGES
    assert len(PACKAGES) == 15


@pytest.mark.parametrize("name", PACKAGES)
class TestLazyExports:
    def test_table_matches_all(self, name):
        package = importlib.import_module(name)
        table = _export_table(package)
        assert [n for n in package.__all__ if n != "__version__"] == list(table)

    def test_names_resolve_to_the_defining_modules_object(self, name):
        package = importlib.import_module(name)
        for export, module in _export_table(package).items():
            defining = importlib.import_module(module, name)
            assert getattr(package, export) is getattr(defining, export), export

    def test_dir_lists_every_export(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_export(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export), export

    def test_unknown_name_raises_attribute_error_naming_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")
