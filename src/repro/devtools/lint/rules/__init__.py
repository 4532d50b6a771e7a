"""The built-in rule pack.

Importing this package registers every rule with the framework registry;
:func:`repro.devtools.lint.framework.build_rules` does so lazily.
"""

from __future__ import annotations

from . import determinism, obs, sql  # noqa: F401  (register rules)

__all__ = ["determinism", "obs", "sql"]
