"""Package namespaces that import a name's submodule on first access.

Each ``repro`` package ``__init__`` holds one table, public name ->
defining module, and hands it to :func:`attach`::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "ArrayGeometry": "repro.array.geometry",
        ...
    })

``from repro.array import ArrayGeometry`` then imports
``repro.array.geometry`` alone, and ``import repro.core.simulator``
loads only what the simulator itself imports, not every sibling of
every package on the way (PEP 562). A resolved name is cached in the
package namespace, so it is looked up once and is the very object its
module defines. ``__all__`` is the table's keys, so ``from pkg import
*`` and the table cannot drift; the self-lint (RPR018) checks that every
entry names something its module defines.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import find_spec
from typing import Callable, Dict, List, Tuple

__all__ = ["attach"]


def attach(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s namespace.

    Args:
        package: The package's ``__name__``.
        table: Public name -> absolute name of the module defining it.

    A name missing from ``table`` resolves to the submodule of that
    name, if there is one (``repro.core`` then ``.simulator``), as it
    did when every package imported all of its modules.
    """

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        elif not name.startswith("__") and find_spec(f"{package}.{name}"):
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)
