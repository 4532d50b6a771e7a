"""SQL002: an ``ORDER BY`` over the store must pin a total order.

A query whose results feed deterministic serialization (exports,
digests, bundles) must sort by a *total* order, or rows that tie on the
sort key come back in an SQLite-internal order that is stable per file
but not per history of inserts/vacuums — and no test rebuilds a store
through a different history, so only this rule sees it.  The rule
checks every constant single-table ``SELECT ... ORDER BY`` in a module
with a ``_SCHEMA``/``SCHEMA`` string constant: the bare columns of the
``ORDER BY`` clause, together with columns pinned by ``col = ?`` /
``col = literal`` equality in ``WHERE``, must cover a unique key of the
table — its ``PRIMARY KEY``, the ``GROUP BY`` columns, the ``SELECT
DISTINCT`` columns, or (for PK-less log tables) a logical key registered
in :data:`UniqueOrdering.logical_keys`.  Clauses with any non-bare-column
term (``ORDER BY MIN(x)``) are skipped — expressions are outside static
reach, like f-string SQL.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from ..framework import LintRule, ModuleContext, Violation, register

_SCHEMA_NAMES = ("_SCHEMA", "SCHEMA")

_CREATE_TABLE_RE = re.compile(
    r"CREATE\s+TABLE(?:\s+IF\s+NOT\s+EXISTS)?\s+(\w+)\s*\((.*?)\)\s*;",
    re.IGNORECASE | re.DOTALL,
)
# Deliberately case-sensitive: prose like "Select the rows" must not be
# mistaken for SQL, and this codebase writes SQL keywords upper-case.
_SELECT_RE = re.compile(r"\s*SELECT\b")
_TABLE_REF_RE = re.compile(r"\b(?:FROM|JOIN)\s+(\w+)", re.IGNORECASE)
_IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")
_TABLE_CONSTRAINTS = frozenset({"primary", "foreign", "unique", "check", "constraint"})


def _split_columns(body: str) -> List[str]:
    """Split a CREATE TABLE body on top-level commas only."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in body:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _schema_constant(module: ModuleContext) -> Optional[str]:
    """The module's top-level ``_SCHEMA``/``SCHEMA`` string, if any."""
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in _SCHEMA_NAMES
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                return value.value
    return None


def _parse_primary_keys(schema_sql: str) -> Dict[str, List[str]]:
    """Table name → PRIMARY KEY columns (inline or table-level; empty if none)."""
    keys: Dict[str, List[str]] = {}
    for match in _CREATE_TABLE_RE.finditer(schema_sql):
        table, body = match.group(1), match.group(2)
        pk: List[str] = []
        for item in _split_columns(body):
            words = item.split()
            if not words:
                continue
            lowered = [word.lower() for word in words]
            if lowered[0] == "primary":
                # Table-level constraint: PRIMARY KEY (a, b)
                paren = item.find("(")
                if paren >= 0:
                    pk = _IDENTIFIER_RE.findall(item[paren:])
            elif lowered[0] not in _TABLE_CONSTRAINTS and "primary" in lowered:
                pk = [words[0]]
        keys[table] = pk
    return keys


_ORDER_BY_RE = re.compile(
    r"\bORDER\s+BY\s+(.*?)(?:\bLIMIT\b|;|\Z)", re.IGNORECASE | re.DOTALL
)
_GROUP_BY_RE = re.compile(
    r"\bGROUP\s+BY\s+(.*?)(?:\bHAVING\b|\bORDER\b|\bLIMIT\b|;|\Z)",
    re.IGNORECASE | re.DOTALL,
)
_DISTINCT_SELECT_RE = re.compile(
    r"\A\s*SELECT\s+DISTINCT\s+(.*?)\bFROM\b", re.IGNORECASE | re.DOTALL
)
_BARE_TERM_RE = re.compile(r"\A(\w+)(?:\s+(?:ASC|DESC))?\Z", re.IGNORECASE)
_EQ_BOUND_RE = re.compile(r"\b(\w+)\s*=\s*(?:\?|\d+|'[^']*')")


def _bare_columns(clause: str) -> Optional[List[str]]:
    """Clause → bare column names, or None if any term is an expression."""
    columns: List[str] = []
    for term in clause.split(","):
        match = _BARE_TERM_RE.match(term.strip())
        if match is None:
            return None
        columns.append(match.group(1))
    return columns


@register
class UniqueOrdering(LintRule):
    rule_id = "SQL002"
    summary = "ORDER BY does not pin a total order (unique key not covered)"

    #: Logical unique keys for append-only tables without a PRIMARY KEY.
    #: The crawler never writes two rows identical in these columns, so
    #: covering them makes an ORDER BY total even though SQLite does not
    #: enforce the uniqueness.
    logical_keys: Dict[str, Tuple[str, ...]] = {
        "javascript_cookies": ("visit_id", "name", "domain", "path", "set_by_url"),
        "http_redirects": ("visit_id", "from_request_id"),
    }

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        schema_sql = _schema_constant(module)
        if schema_sql is None:
            return
        primary_keys = _parse_primary_keys(schema_sql)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _SELECT_RE.match(node.value)
            ):
                yield from self._check_query(module, node, node.value, primary_keys)

    def _check_query(
        self,
        module: ModuleContext,
        node: ast.AST,
        sql: str,
        primary_keys: Dict[str, List[str]],
    ) -> Iterator[Violation]:
        order_match = _ORDER_BY_RE.search(sql)
        if order_match is None:
            return
        referenced = set(_TABLE_REF_RE.findall(sql))
        if len(referenced) != 1:
            # Joins and subqueries are outside this rule's static reach.
            return
        table = referenced.pop()
        if table not in primary_keys:
            return  # a table the schema does not define
        order_columns = _bare_columns(order_match.group(1))
        if order_columns is None:
            return  # expression term (MIN(x), COUNT(...)) — skip
        key = self._unique_key(sql, table, primary_keys)
        if key is None:
            yield self.flag(
                module,
                node,
                f"ORDER BY on {table} but no unique key is known for it — "
                f"declare one in UniqueOrdering.logical_keys or add a "
                f"PRIMARY KEY",
            )
            return
        pinned = set(order_columns)
        pinned.update(_EQ_BOUND_RE.findall(sql))
        missing = [column for column in key if column not in pinned]
        if missing:
            yield self.flag(
                module,
                node,
                f"ORDER BY ({', '.join(order_columns)}) is not total for "
                f"{table}: unique key columns {', '.join(missing)} are "
                f"neither sorted on nor pinned by equality",
            )

    def _unique_key(
        self, sql: str, table: str, primary_keys: Dict[str, List[str]]
    ) -> Optional[List[str]]:
        """The unique key the ORDER BY must cover, or None if unknown."""
        group_match = _GROUP_BY_RE.search(sql)
        if group_match is not None:
            # Grouped output: one row per distinct group-key tuple.
            return _bare_columns(group_match.group(1))
        distinct_match = _DISTINCT_SELECT_RE.match(sql)
        if distinct_match is not None:
            columns = _bare_columns(distinct_match.group(1))
            if columns is not None:
                return columns
        if primary_keys.get(table):
            return primary_keys[table]
        logical = self.logical_keys.get(table)
        return list(logical) if logical is not None else None
