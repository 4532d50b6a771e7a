"""Per-file symbol summaries for the whole-program pass.

One AST walk per module distills everything the interprocedural rules
need into a :class:`ModuleSummary`: module-qualified function
definitions, resolved import bindings, every call site, worker spawn
sites, RNG/entropy provenance facts, unordered-return facts, ordered-sink
feeds, and writes to module-level or instance state.

Summaries are deliberately *flat data* (dataclasses of dicts, lists and
strings): they pickle back from the driver's worker processes, so pass 1
parses each file exactly once.  Everything that needs project-wide
knowledge (resolving a call to another module's function, reachability,
fixpoints) lives in ``callgraph`` instead — a summary never looks outside
its own file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .framework import dotted_name

#: Wall-clock reads (mirrors DET002's catalogue, fully qualified).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: OS-level entropy sources: values derived from these are never
#: reproducible across runs.
OS_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
    }
)

#: Sanctioned seed-derivation helpers (``repro.rng``).
_CLEAN_SEED_SUFFIXES = ("rng.derive_seed", "rng.child_rng")
_CLEAN_SEED_NAMES = frozenset({"derive_seed", "child_rng"})

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Constructors whose module-level result is a mutable container.
_MUTABLE_CTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
    }
)

#: Executor/process attributes whose function argument runs in a worker.
_SPAWN_ATTRS = frozenset({"map", "submit"})
_SPAWN_CTORS = frozenset({"Process", "Thread"})
_SPAWN_KEYWORDS = frozenset({"target", "initializer"})


@dataclass
class CallSite:
    """One call expression: the callee as written plus its location."""

    name: str
    lineno: int
    col: int


@dataclass
class WriteSite:
    """One write to shared state: a rebind or in-place mutation."""

    name: str
    lineno: int
    col: int
    action: str  # "rebind" | "mutate"


@dataclass
class SinkFeed:
    """A call result feeding an ordered sink (``list(f())`` etc.)."""

    callee: str
    sink: str
    lineno: int
    col: int


@dataclass
class RngBirth:
    """An RNG constructed here, with the provenance of its seed.

    ``kind`` is ``"unseeded"`` (no argument: CPython seeds from OS
    entropy), ``"constant"``, ``"wall-clock"``, ``"os-entropy"``,
    ``"clean"`` (derived via ``repro.rng``), or ``"call"`` — seeded from
    another function's return value, resolved later against the call
    graph (``seed_call`` names it).
    """

    kind: str
    lineno: int
    col: int
    seed_call: Optional[str] = None


@dataclass
class FunctionSummary:
    """Everything the program rules know about one function."""

    qualname: str
    lineno: int
    col: int
    cls: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    spawns: List[str] = field(default_factory=list)
    returns_rng: Optional[RngBirth] = None
    returns_entropy: bool = False
    returns_unordered: bool = False
    return_calls: List[str] = field(default_factory=list)
    global_writes: List[WriteSite] = field(default_factory=list)
    attr_writes: List[WriteSite] = field(default_factory=list)
    self_writes: List[WriteSite] = field(default_factory=list)
    sink_feeds: List[SinkFeed] = field(default_factory=list)
    local_ctor_types: Dict[str, str] = field(default_factory=dict)
    param_defaults: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The per-file slice of the project symbol table."""

    module: str
    path: str
    is_package: bool = False
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: List[str] = field(default_factory=list)
    module_mutables: Dict[str, List[int]] = field(default_factory=dict)
    singletons: Dict[str, str] = field(default_factory=dict)


def module_name_for(path: Path) -> Tuple[str, bool]:
    """Dotted module name for ``path`` by walking the ``__init__.py`` chain.

    ``src/repro/crawler/commander.py`` → ``("repro.crawler.commander",
    False)``; a file outside any package is just its stem.
    """
    resolved = Path(path).resolve()
    is_package = resolved.name == "__init__.py"
    components: List[str] = [] if is_package else [resolved.stem]
    directory = resolved.parent
    while (directory / "__init__.py").is_file():
        components.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(components) or resolved.stem, is_package


def _resolve_relative(module: str, is_package: bool, level: int, target: str) -> str:
    """Absolute module path for a ``from ..x import y`` statement."""
    parts = module.split(".") if module else []
    package = parts if is_package else parts[:-1]
    base = package[: len(package) - (level - 1)] if level > 1 else package
    suffix = target.split(".") if target else []
    return ".".join(base + suffix)


class _ImportTable:
    """Local-name → fully-qualified-target map for one module."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.bindings: Dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.bindings[alias.asname] = alias.name
            else:
                head = alias.name.split(".", 1)[0]
                self.bindings[head] = head

    def add_import_from(self, node: ast.ImportFrom) -> None:
        target = node.module or ""
        if node.level:
            target = _resolve_relative(
                self.module, self.is_package, node.level, target
            )
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            qualified = f"{target}.{alias.name}" if target else alias.name
            self.bindings[local] = qualified

    def expand(self, name: str) -> str:
        """Rewrite the head of ``name`` through the import bindings."""
        head, _, rest = name.partition(".")
        target = self.bindings.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target


def _is_clean_seed_call(expanded: str) -> bool:
    return expanded in _CLEAN_SEED_NAMES or any(
        expanded.endswith(suffix) for suffix in _CLEAN_SEED_SUFFIXES
    )


def _is_unordered_expr(node: ast.AST, imports: _ImportTable) -> bool:
    """Set/``dict.keys()`` values — iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
    return False


class _FunctionVisitor:
    """Single walk over one function body, nested defs included.

    Nested functions and lambdas are folded into the enclosing summary:
    for reachability purposes a closure the function defines is work the
    function can perform (the Commander's ``observe`` hook is the
    motivating case).
    """

    def __init__(
        self,
        node: ast.AST,
        qualname: str,
        cls: Optional[str],
        imports: _ImportTable,
    ) -> None:
        self.imports = imports
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        self.summary = FunctionSummary(
            qualname=qualname,
            lineno=node.lineno,
            col=node.col_offset,
            cls=cls,
        )
        positional = args.posonlyargs + args.args
        for arg, default in zip(reversed(positional), reversed(args.defaults)):
            if isinstance(default, ast.Name):
                self.summary.param_defaults[arg.arg] = default.id
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if isinstance(default, ast.Name):
                self.summary.param_defaults[arg.arg] = default.id
        self._globals: Set[str] = set()
        self._locals: Set[str] = set(params)
        self._assigned_call: Dict[str, str] = {}
        self._assigned_unordered: Set[str] = set()
        self._assigned_rng: Dict[str, RngBirth] = {}
        self._assigned_entropy: Set[str] = set()
        self._body = list(ast.iter_child_nodes(node))
        self._collect_scope(node)
        self._walk(node)

    # -- scope pre-pass ---------------------------------------------------

    def _collect_scope(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                self._globals.update(child.names)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                self._locals.add(child.id)
        self._locals -= self._globals

    # -- classification helpers ------------------------------------------

    def _expanded(self, node: ast.AST) -> Optional[str]:
        name = dotted_name(node)
        if name is None:
            return None
        return self.imports.expand(name)

    def _classify_rng(self, node: ast.Call) -> Optional[RngBirth]:
        """An ``random.Random``/``SystemRandom`` birth, or ``None``."""
        expanded = self._expanded(node.func)
        if expanded == "random.SystemRandom":
            return RngBirth("os-entropy", node.lineno, node.col_offset)
        if expanded != "random.Random":
            return None
        if not node.args:
            return RngBirth("unseeded", node.lineno, node.col_offset)
        seed = node.args[0]
        if isinstance(seed, ast.Constant):
            return RngBirth("constant", node.lineno, node.col_offset)
        if isinstance(seed, ast.Call):
            seed_name = self._expanded(seed.func)
            if seed_name is None:
                return RngBirth("call", node.lineno, node.col_offset)
            if _is_clean_seed_call(seed_name):
                return RngBirth("clean", node.lineno, node.col_offset)
            if seed_name in WALL_CLOCK_CALLS:
                return RngBirth("wall-clock", node.lineno, node.col_offset)
            if seed_name in OS_ENTROPY_CALLS:
                return RngBirth("os-entropy", node.lineno, node.col_offset)
            return RngBirth(
                "call", node.lineno, node.col_offset, seed_call=dotted_name(seed.func)
            )
        if isinstance(seed, ast.Name):
            birth = self._assigned_rng.get(seed.id)
            if seed.id in self._assigned_entropy:
                return RngBirth("os-entropy", node.lineno, node.col_offset)
            if birth is not None:
                return RngBirth(birth.kind, node.lineno, node.col_offset, birth.seed_call)
        return RngBirth("clean", node.lineno, node.col_offset)

    def _is_entropy_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        expanded = self._expanded(node.func)
        return expanded in WALL_CLOCK_CALLS or expanded in OS_ENTROPY_CALLS

    def _value_facts(self, value: ast.AST) -> Tuple[Optional[RngBirth], bool, bool, Optional[str]]:
        """(rng birth, is-entropy, is-unordered, producing call) of an expr."""
        birth: Optional[RngBirth] = None
        entropy = False
        unordered = _is_unordered_expr(value, self.imports)
        call_name: Optional[str] = None
        if isinstance(value, ast.Call):
            birth = self._classify_rng(value)
            entropy = self._is_entropy_call(value)
            name = dotted_name(value.func)
            if name is not None and birth is None and not entropy:
                call_name = name
        elif isinstance(value, ast.Name):
            birth = self._assigned_rng.get(value.id)
            entropy = value.id in self._assigned_entropy
            unordered = unordered or value.id in self._assigned_unordered
            call_name = self._assigned_call.get(value.id)
        return birth, entropy, unordered, call_name

    # -- the walk ---------------------------------------------------------

    def _walk(self, root: ast.AST) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, ast.Assign):
                self._visit_assign(node)
            elif isinstance(node, ast.AugAssign):
                self._visit_target_write(node.target, node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._visit_target_write(node.target, node)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._visit_return(node.value)
            elif isinstance(node, ast.ListComp) and node.generators:
                self._visit_listcomp(node)

    def _visit_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            self.summary.calls.append(
                CallSite(name=name, lineno=node.lineno, col=node.col_offset)
            )
        self._visit_spawns(node, name)
        self._visit_mutating_method(node)
        self._visit_sink(node, name)

    def _visit_spawns(self, node: ast.Call, name: Optional[str]) -> None:
        is_pool_dispatch = (
            isinstance(node.func, ast.Attribute) and node.func.attr in _SPAWN_ATTRS
        )
        if is_pool_dispatch and node.args:
            spawned = dotted_name(node.args[0])
            if spawned is not None:
                self.summary.spawns.append(spawned)
        ctor = name.rsplit(".", 1)[-1] if name else None
        for keyword in node.keywords:
            if keyword.arg in _SPAWN_KEYWORDS and (
                is_pool_dispatch or ctor in _SPAWN_CTORS
            ):
                spawned = dotted_name(keyword.value)
                if spawned is not None:
                    self.summary.spawns.append(spawned)

    def _visit_mutating_method(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self":
                return
            if receiver.id not in self._locals:
                self.summary.global_writes.append(
                    WriteSite(receiver.id, node.lineno, node.col_offset, "mutate")
                )
        elif isinstance(receiver, ast.Attribute):
            base = receiver.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    self.summary.self_writes.append(
                        WriteSite(receiver.attr, node.lineno, node.col_offset, "mutate")
                    )
                elif base.id not in self._locals:
                    self.summary.attr_writes.append(
                        WriteSite(
                            f"{base.id}.{receiver.attr}",
                            node.lineno,
                            node.col_offset,
                            "mutate",
                        )
                    )

    def _visit_sink(self, node: ast.Call, name: Optional[str]) -> None:
        is_join = isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        if name not in ("list", "tuple", "enumerate") and not is_join:
            return
        if not node.args:
            return
        sink = "str.join" if is_join else str(name)
        candidate = node.args[0]
        if isinstance(candidate, ast.GeneratorExp) and candidate.generators:
            candidate = candidate.generators[0].iter
        self._record_sink_feed(candidate, sink)

    def _record_sink_feed(self, candidate: ast.AST, sink: str) -> None:
        if isinstance(candidate, ast.Call):
            callee = dotted_name(candidate.func)
            if callee is not None and callee != "sorted":
                self.summary.sink_feeds.append(
                    SinkFeed(callee, sink, candidate.lineno, candidate.col_offset)
                )
        elif isinstance(candidate, ast.Name):
            callee = self._assigned_call.get(candidate.id)
            if candidate.id in self._assigned_unordered:
                return  # per-file DET003 territory once it is a known set
            if callee is not None:
                self.summary.sink_feeds.append(
                    SinkFeed(callee, sink, candidate.lineno, candidate.col_offset)
                )

    def _visit_listcomp(self, node: ast.ListComp) -> None:
        self._record_sink_feed(node.generators[0].iter, "list-comprehension")

    def _visit_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._visit_target_write(target, node)
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        birth, entropy, unordered, call_name = self._value_facts(node.value)
        if birth is not None:
            self._assigned_rng[name] = birth
        if entropy:
            self._assigned_entropy.add(name)
        if unordered:
            self._assigned_unordered.add(name)
        if call_name is not None:
            self._assigned_call[name] = call_name
        if isinstance(node.value, ast.Call):
            ctor = dotted_name(node.value.func)
            if ctor and ctor.rsplit(".", 1)[-1][:1].isupper():
                self.summary.local_ctor_types[name] = ctor

    def _visit_target_write(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self.summary.global_writes.append(
                    WriteSite(target.id, node.lineno, node.col_offset, "rebind")
                )
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and base.id not in self._locals:
                if base.id != "self":
                    self.summary.global_writes.append(
                        WriteSite(base.id, node.lineno, node.col_offset, "mutate")
                    )
            elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                if base.value.id == "self":
                    self.summary.self_writes.append(
                        WriteSite(base.attr, node.lineno, node.col_offset, "mutate")
                    )
                elif base.value.id not in self._locals:
                    self.summary.attr_writes.append(
                        WriteSite(
                            f"{base.value.id}.{base.attr}",
                            node.lineno,
                            node.col_offset,
                            "mutate",
                        )
                    )
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    self.summary.self_writes.append(
                        WriteSite(target.attr, node.lineno, node.col_offset, "rebind")
                    )
                elif base.id not in self._locals:
                    self.summary.attr_writes.append(
                        WriteSite(
                            f"{base.id}.{target.attr}",
                            node.lineno,
                            node.col_offset,
                            "rebind",
                        )
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target_write(element, node)

    def _visit_return(self, value: ast.AST) -> None:
        if isinstance(value, ast.Call) and dotted_name(value.func) == "sorted":
            return
        birth, entropy, unordered, call_name = self._value_facts(value)
        if birth is not None and birth.kind != "clean":
            self.summary.returns_rng = birth
        if entropy:
            self.summary.returns_entropy = True
        if unordered:
            self.summary.returns_unordered = True
        if call_name is not None:
            self.summary.return_calls.append(call_name)


def summarize_module(
    path: str, tree: ast.Module, module: Optional[str] = None
) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed file."""
    if module is None:
        name, is_package = module_name_for(Path(path))
    else:
        name, is_package = module, Path(path).name == "__init__.py"
    imports = _ImportTable(name, is_package)
    summary = ModuleSummary(module=name, path=path, is_package=is_package)

    # Imports anywhere in the file (function-local imports included) feed
    # name resolution; bindings are last-writer-wins in walk order.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            imports.add_import_from(node)
    summary.imports = dict(imports.bindings)

    def add_function(node: ast.AST, qualname: str, cls: Optional[str]) -> None:
        visitor = _FunctionVisitor(node, qualname, cls, imports)
        summary.functions[qualname] = visitor.summary

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            summary.classes.append(node.name)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(item, f"{node.name}.{item.name}", node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
            else:
                target = node.target
            if not isinstance(target, ast.Name) or node.value is None:
                continue
            value = node.value
            if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.DictComp, ast.SetComp, ast.ListComp)):
                summary.module_mutables[target.id] = [value.lineno, value.col_offset]
            elif isinstance(value, ast.Call):
                ctor = dotted_name(value.func)
                if ctor is None:
                    continue
                expanded = imports.expand(ctor)
                if ctor in _MUTABLE_CTORS or expanded in _MUTABLE_CTORS:
                    summary.module_mutables[target.id] = [
                        value.lineno,
                        value.col_offset,
                    ]
                elif any(part[:1].isupper() for part in ctor.split(".")):
                    # ``X = Cls(...)`` and classmethod factories like
                    # ``X = Cls.disabled()`` both make X a module-level
                    # instance; the call graph strips trailing method
                    # components when resolving the class.
                    summary.singletons[target.id] = ctor
    return summary
