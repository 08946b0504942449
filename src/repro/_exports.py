"""Lazy package exports (PEP 562): a package names what it re-exports, not imports it.

Every package ``__init__`` of :mod:`repro` re-exports its public names
through one table instead of eager ``from ... import`` lines::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "Table": ".table",
        "TableSchema": ".schema",
    })

``from repro.relational import Table``, ``repro.relational.Table`` and
``from repro.relational import *`` all still work; the defining module is
imported on first access and the value cached on the package, so a cold
process loads only the modules its command touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of *package*.

    *exports* maps each public name to the module defining it, relative to
    *package* (``".table"``) or absolute; its order is ``__all__``'s order.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__, list(exports)
