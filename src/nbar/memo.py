"""One registry of the package's in-memory memo tables.

Every module-level memo registers itself here when its module is imported,
so :func:`clear_all` empties all of them at once and a computation started
after it is really cold.  A table is either a dict or a function wrapped in
``functools.lru_cache``.
"""

from __future__ import annotations

from typing import Dict, TypeVar

T = TypeVar("T")

_TABLES: Dict[str, object] = {}


def register(name: str, table: T) -> T:
    """Add a dict or an ``lru_cache`` function to the registry; returns it unchanged."""
    _TABLES[name] = table
    return table


def clear_all() -> None:
    """Empty every registered table."""
    for table in _TABLES.values():
        if isinstance(table, dict):
            table.clear()
        else:
            table.cache_clear()


def sizes() -> Dict[str, int]:
    """Number of entries in each registered table, by name."""
    return {
        name: len(table) if isinstance(table, dict) else table.cache_info().currsize
        for name, table in _TABLES.items()
    }
