"""Core of ``repro-lint``: rule registry, module context, suppressions.

A *rule* is a class with a ``rule_id`` (``DET004``-style), a one-line
``summary``, and a ``check(module)`` generator yielding
:class:`Violation` objects.  Rules register themselves with the
:func:`register` decorator; :func:`build_rules` instantiates the
registry (optionally filtered) in stable rule-id order.

Suppressions are per-line comments::

    names = os.listdir(root)  # repro: ok[DET004] only counted, never ordered

The bracket lists one or more rule ids (comma-separated); the trailing
reason is mandatory — a suppression without one does not suppress and is
itself reported as ``SUP001``.  Only real comment tokens count: the
marker inside a string literal or docstring is inert.

Four pseudo-rules are reserved for the framework itself and cannot be
registered or selected: ``SYN001`` (file does not parse), ``IO001``
(file vanished or became unreadable between discovery and parse),
``SUP001`` (suppression comment without a reason) and ``SUP002``
(stale suppression: the suppressed rule no longer fires on that line,
or the marker names no registered rule).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from ...errors import LintError

#: Framework-reserved pseudo-rule ids (not in the registry).
SYNTAX_RULE_ID = "SYN001"
IO_RULE_ID = "IO001"
SUPPRESSION_RULE_ID = "SUP001"
STALE_SUPPRESSION_RULE_ID = "SUP002"

_RESERVED_RULE_IDS = frozenset(
    {SYNTAX_RULE_ID, IO_RULE_ID, SUPPRESSION_RULE_ID, STALE_SUPPRESSION_RULE_ID}
)

_RULE_ID_RE = re.compile(r"^[A-Z]{2,6}\d{3}$")
_SUPPRESSION_RE = re.compile(r"repro:\s*ok\[([^\]]*)\]\s*(.*)\Z")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule tripped at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: ok[...]`` comment."""

    line: int
    col: int
    rule_ids: Tuple[str, ...]
    reason: str


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree

    def module_aliases(self, module: str) -> Set[str]:
        """Local names bound to ``import module`` (including ``as`` aliases)."""
        names: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == module:
                        names.add(alias.asname or alias.name)
        return names

    def imported_from(self, module: str) -> Dict[str, str]:
        """``{local_name: original_name}`` for ``from module import ...``."""
        names: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                for alias in node.names:
                    names[alias.asname or alias.name] = alias.name
        return names


class LintRule:
    """Base class for lint rules.  Subclasses set ``rule_id``/``summary``."""

    rule_id: str = ""
    summary: str = ""

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def flag(self, module: ModuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not _RULE_ID_RE.match(cls.rule_id):
        raise LintError(f"invalid rule id: {cls.rule_id!r}")
    if cls.rule_id in _RESERVED_RULE_IDS:
        raise LintError(f"rule id {cls.rule_id} is reserved for the framework")
    if cls.rule_id in _REGISTRY:
        raise LintError(f"duplicate rule id: {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rule_ids() -> List[str]:
    _load_builtin_rules()
    return sorted(_REGISTRY)


def rule_summaries() -> List[Tuple[str, str]]:
    """``(rule_id, summary)`` pairs for every registered rule, sorted."""
    _load_builtin_rules()
    return [(rule_id, _REGISTRY[rule_id].summary) for rule_id in sorted(_REGISTRY)]


def build_rules(
    select: Optional[Iterable[str]] = None, ignore: Iterable[str] = ()
) -> List[LintRule]:
    """Instantiate registered rules, filtered and in stable id order."""
    _load_builtin_rules()
    chosen = sorted(_REGISTRY)
    for requested in list(select or []) + list(ignore):
        if requested not in _REGISTRY:
            raise LintError(
                f"unknown rule id: {requested} (known: {', '.join(chosen)})"
            )
    if select is not None:
        wanted = set(select)
        chosen = [rule_id for rule_id in chosen if rule_id in wanted]
    dropped = set(ignore)
    return [_REGISTRY[rule_id]() for rule_id in chosen if rule_id not in dropped]


def _load_builtin_rules() -> None:
    """Import the rule pack so its ``@register`` decorators run."""
    from . import rules  # noqa: F401  (import for side effect)


def find_suppressions(source: str) -> Dict[int, Suppression]:
    """Map line number → suppression for every ``# repro: ok[...]`` comment.

    Tokenizes so that markers inside string literals do not count.  Falls
    back silently on tokenizer errors (the caller already parsed the file,
    so these are vanishingly rare).
    """
    suppressions: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [tok for tok in tokens if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError):
        return suppressions
    for tok in comments:
        match = _SUPPRESSION_RE.search(tok.string)
        if not match:
            continue
        rule_ids = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        suppressions[tok.start[0]] = Suppression(
            line=tok.start[0],
            col=tok.start[1],
            rule_ids=rule_ids,
            reason=match.group(2).strip(),
        )
    return suppressions


def apply_suppressions(
    violations: Iterable[Violation],
    suppressions: Dict[int, Suppression],
    path: str,
) -> List[Violation]:
    """Drop suppressed violations; report reason-less suppressions (SUP001)."""
    kept: List[Violation] = []
    for violation in violations:
        marker = suppressions.get(violation.line)
        if marker and violation.rule_id in marker.rule_ids and marker.reason:
            continue
        kept.append(violation)
    for line in sorted(suppressions):
        marker = suppressions[line]
        if not marker.reason:
            kept.append(
                Violation(
                    path=path,
                    line=line,
                    col=marker.col,
                    rule_id=SUPPRESSION_RULE_ID,
                    message=(
                        "suppression needs a reason: "
                        "`# repro: ok[RULE001] why this is safe`"
                    ),
                )
            )
    return sorted(kept, key=lambda violation: violation.sort_key)


def stale_suppression_violations(
    suppressions: Dict[int, Suppression],
    fired_by_line: Dict[int, Set[str]],
    active_rule_ids: Set[str],
    path: str,
) -> List[Violation]:
    """SUP002 for every suppression that silences nothing on its line.

    A registered id only counts as stale when that rule actually *ran*
    (``active_rule_ids``): ``--select SQL002`` must not flag a DET004
    suppression as stale, nor ``--ignore DET004`` a DET004 marker.  An id
    that names no registered rule (a typo, a deleted rule) can never
    fire, so it is stale whatever ran.
    """
    _load_builtin_rules()
    stale: List[Violation] = []
    for line in sorted(suppressions):
        marker = suppressions[line]
        if not marker.reason:
            continue  # reason-less markers are SUP001, handled elsewhere
        fired = fired_by_line.get(line, set())
        unknown = [rule_id for rule_id in marker.rule_ids if rule_id not in _REGISTRY]
        dead = [
            rule_id
            for rule_id in marker.rule_ids
            if rule_id in active_rule_ids and rule_id not in fired
        ]
        problems = []
        if unknown:
            problems.append(f"{', '.join(unknown)} name(s) no rule")
        if dead:
            problems.append(f"{', '.join(dead)} no longer fire(s) on this line")
        if problems:
            stale.append(
                Violation(
                    path=path,
                    line=line,
                    col=marker.col,
                    rule_id=STALE_SUPPRESSION_RULE_ID,
                    message=f"stale suppression: {'; '.join(problems)}; drop the marker",
                )
            )
    return stale


@dataclass
class FileCheck:
    """Raw per-file lint output, before suppression accounting.

    ``raw`` holds every violation the per-file rules produced (plus
    ``SYN001`` when the file does not parse); ``tree`` is the parsed AST
    (``None`` on syntax error).
    """

    path: str
    raw: List[Violation]
    suppressions: Dict[int, Suppression]
    tree: Optional[ast.Module]


def check_source(
    source: str,
    path: str = "<memory>",
    rules: Optional[Sequence[LintRule]] = None,
) -> FileCheck:
    """Run per-file rules over one module, returning raw results."""
    if rules is None:
        rules = build_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return FileCheck(
            path=path,
            raw=[
                Violation(
                    path=path,
                    line=exc.lineno or 1,
                    col=max((exc.offset or 1) - 1, 0),
                    rule_id=SYNTAX_RULE_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            suppressions=find_suppressions(source),
            tree=None,
        )
    module = ModuleContext(path=path, tree=tree)
    raw = [violation for rule in rules for violation in rule.check(module)]
    return FileCheck(
        path=path, raw=raw, suppressions=find_suppressions(source), tree=tree
    )


def lint_source(
    source: str,
    path: str = "<memory>",
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Violation]:
    """Lint one module's source text and return sorted violations."""
    checked = check_source(source, path=path, rules=rules)
    if checked.tree is None:
        return checked.raw
    return apply_suppressions(checked.raw, checked.suppressions, path)
