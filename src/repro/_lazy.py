"""Lazy package exports (PEP 562, as in scientific-python SPEC 1).

Each package ``__init__`` names what it re-exports in one table, defining
module -> exported names, and binds the ``__getattr__`` / ``__dir__`` pair
that :func:`lazy_exports` builds from it.  Importing the package then
imports nothing else: a name's defining module is imported the first
time the name is read, and the value is cached in the package namespace.
An ``if TYPE_CHECKING:`` block in the same ``__init__`` repeats the table
as plain imports for type checkers and readers; the REP401 lint rule
holds the table, that block and ``__all__`` in step.

This module is stdlib-only so that importing any ``repro`` package costs
no more than the modules its caller actually reaches.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy package.

    ``table`` maps each defining module to the names the package
    re-exports from it; the table is written as a literal in the
    ``__init__`` so the linter can read it.
    """
    owner = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
