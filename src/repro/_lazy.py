"""Lazy package re-exports (PEP 562).

A package whose public names live in submodules that a default request
never runs declares them here instead of importing them: the submodule
loads on the first attribute access, and the name is then bound on the
package so later lookups are plain attribute reads.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for a package.

    *namespace* is the package's ``globals()``; *table* maps each
    submodule (relative to the package) to the names it exports.
    """
    package = namespace["__name__"]
    homes = {name: f"{package}.{module}" for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__
