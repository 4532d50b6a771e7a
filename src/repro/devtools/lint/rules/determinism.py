"""Determinism rule DET004: directory listings must be sorted.

The reproduction's headline guarantee is that a crawl and its analyses
are byte-identical regardless of worker count or host machine.
Filesystem listing order differs across machines, and no test re-runs
a listing on another filesystem, so this rule guards it statically.
Randomness, wall-clock reads and hash-order iteration are guarded by the
tests that re-run a measurement and compare its output (DESIGN §6.3).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..framework import LintRule, ModuleContext, Violation, dotted_name, register


@register
class UnsortedDirectoryListing(LintRule):
    """DET004: directory listings must be sorted.

    ``os.listdir``/``glob.glob`` return entries in filesystem order, which
    differs across machines and even across runs; every consumer must
    sort.
    """

    rule_id = "DET004"
    summary = "os.listdir/glob.glob without sorted(); directory order is not stable"

    _OS_FUNCS = frozenset({"listdir", "scandir", "walk"})
    _GLOB_FUNCS = frozenset({"glob", "iglob"})

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        os_aliases = module.module_aliases("os")
        glob_aliases = module.module_aliases("glob")
        from_os = module.imported_from("os")
        from_glob = module.imported_from("glob")
        sanctioned: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and dotted_name(node.func) == "sorted":
                for arg in node.args:
                    sanctioned.add(id(arg))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or id(node) in sanctioned:
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, tail = name.partition(".")
            listing = None
            if head in os_aliases and tail in self._OS_FUNCS:
                listing = f"os.{tail}"
            elif head in glob_aliases and tail in self._GLOB_FUNCS:
                listing = f"glob.{tail}"
            elif "." not in name and from_os.get(name) in self._OS_FUNCS:
                listing = f"os.{from_os[name]}"
            elif "." not in name and from_glob.get(name) in self._GLOB_FUNCS:
                listing = f"glob.{from_glob[name]}"
            if listing is not None:
                yield self.flag(
                    module,
                    node,
                    f"{listing}() without sorted(...); filesystem listing order "
                    "is machine-dependent",
                )
