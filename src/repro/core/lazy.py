"""Package names that load their module on first access (PEP 562).

A package ``__init__`` that re-exports every submodule makes each
importer pay for all of them: ``repro.sm.base`` needs only the RAN
function API, yet importing it through ``repro.core.agent`` used to
load the whole agent into every RIC.  :func:`lazy_exports` keeps such
names importable from the package while their submodule loads on the
first ``from package import Name`` or ``package.Name``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a package.

    *namespace* is the package's ``globals()``; *table* maps each lazy
    name to the submodule, relative to the package, that defines it.
    The first access imports the submodule and stores the name in the
    package's namespace, so later lookups never reach ``__getattr__``
    again.  Unknown names raise
    ``AttributeError``, which is what lets ``from package import sub``
    still fall back to importing the submodule ``sub``.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
