"""Per-module symbol extraction for the whole-program analyzer.

One call to :func:`extract_module` turns one parsed source file into a
:class:`ModuleSummary`: every function/method with its calls and
nondeterminism source hits, plus the module's import tables, class
layout and per-line waivers.  Summaries are plain data about *one*
file; everything that depends on other modules (call resolution)
happens later, on top of the summaries.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Nondeterminism source categories (R101).
WALL_CLOCK = "wall-clock"
GLOBAL_RNG = "global-rng"
ENV_READ = "env-read"
OS_ENTROPY = "os-entropy"

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
# Constructing random.Random(seed) is fine (that is how the seeded
# streams are built); drawing from the module-global instance or
# reseeding it is not.
_RANDOM_ALLOWED_ATTRS = {"Random"}
_NUMPY_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
}
_ENV_CALLS = {"os.getenv", "os.environ.get", "os.environb.get"}
_ENTROPY_CALLS = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    # Seeds itself from the OS: no seed makes it reproducible.
    "random.SystemRandom",
}

# ``# lint: ok(R004)`` or ``# lint: ok(R004, R006)`` waives those rules
# on the line the comment sits on.
_WAIVER_PATTERN = re.compile(r"#\s*lint:\s*ok\(([^)]*)\)")


def parse_waivers(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule IDs waived on that line."""
    waivers: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _WAIVER_PATTERN.search(line)
        if match:
            rules = {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
            if rules:
                waivers[lineno] = rules
    return waivers


#: Generic container/stdlib method names the conservative
#: dynamic-dispatch fallback must not resolve by name: linking every
#: ``x.get(...)`` to every in-package ``get`` method would flood the
#: call graph with meaningless edges.
FALLBACK_BLOCKLIST: Set[str] = {
    "add", "append", "appendleft", "as_posix", "clear", "close", "copy",
    "count", "decode", "digest", "discard", "dump", "dumps", "encode",
    "endswith", "exists", "extend", "format", "get", "group", "hexdigest",
    "index", "insert", "is_dir", "is_file", "items", "join", "keys",
    "load", "loads", "lower", "lstrip", "match", "mkdir", "open", "pop",
    "popleft", "popitem", "read", "read_bytes", "read_text", "remove",
    "resolve", "rstrip", "search", "setdefault", "sort", "split",
    "splitlines", "startswith", "strip", "sub", "unlink", "update",
    "upper", "values", "write", "write_text",
}


@dataclass
class CallSite:
    """One call expression inside a function, unresolved."""

    line: int
    raw: str  # dotted display of the callee ("self.foo", "mod.fn", "fn")
    recv_kind: Optional[str] = None  # "self" | "var" | "selfattr" | None
    recv_info: Optional[str] = None  # type text / attribute name
    args: List[Optional[str]] = field(default_factory=list)
    kwargs: Dict[str, Optional[str]] = field(default_factory=dict)


@dataclass
class SourceHit:
    """One nondeterminism source call inside a function."""

    line: int
    category: str
    call: str  # canonical dotted name, e.g. "time.time"


@dataclass
class FunctionInfo:
    """Everything the analyses need to know about one function."""

    name: str
    qualname: str  # module-relative: "func" or "Class.method"
    line: int
    end_line: int
    class_name: Optional[str] = None
    params: List[str] = field(default_factory=list)
    param_annotations: Dict[str, str] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    source_hits: List[SourceHit] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: bases (raw text), methods and attribute types."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The per-module analysis unit."""

    rel_path: str
    module: str  # dotted name, e.g. "repro.flow.session"
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_aliases: Dict[str, str] = field(default_factory=dict)
    symbol_aliases: Dict[str, str] = field(default_factory=dict)
    waivers: Dict[int, Set[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Helpers


def module_name_of(rel_path: str) -> str:
    """Dotted module name for a /-separated relative path.

    A leading ``src/`` layout component is dropped so paths resolve to
    importable names (``src/repro/flow/session.py`` →
    ``repro.flow.session``); ``__init__.py`` names the package itself.
    """
    parts = rel_path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def dotted_display(node: ast.expr) -> Optional[str]:
    """Flatten ``a.b.c`` chains rooted at a Name to a dotted string."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


_GENERIC_WRAPPERS = ("Optional", "Final", "ClassVar")
_CONTAINER_PREFIXES = (
    "List", "Dict", "Tuple", "Set", "FrozenSet", "Sequence", "Iterable",
    "Iterator", "Mapping", "MutableMapping", "Callable", "Union", "Type",
    "list", "dict", "tuple", "set", "frozenset", "type",
)


def strip_type_text(text: Optional[str]) -> Optional[str]:
    """Reduce an annotation to a plain (possibly dotted) class name.

    ``Optional["FlowLink"]`` → ``FlowLink``; containers and unions are
    out of scope and collapse to ``None``.
    """
    if text is None:
        return None
    text = text.strip().strip("'\"")
    for wrapper in _GENERIC_WRAPPERS:
        prefix = wrapper + "["
        if text.startswith(prefix) and text.endswith("]"):
            return strip_type_text(text[len(prefix):-1])
    if "[" in text or "|" in text:
        return None
    if not text or not all(
        part.isidentifier() for part in text.split(".")
    ):
        return None
    if text.split(".")[-1][:1].islower():
        return None
    if text.startswith(_CONTAINER_PREFIXES) and "." not in text:
        return None
    return text


# ---------------------------------------------------------------------------
# Import tracking (relative-import aware)


class _Imports(ast.NodeVisitor):
    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.module_aliases: Dict[str, str] = {}  # alias -> dotted module
        self.symbol_aliases: Dict[str, str] = {}  # name -> module.symbol

    def _resolve_relative(self, level: int, target: Optional[str]) -> str:
        parts = self.module.split(".") if self.module else []
        if not self.is_package:
            parts = parts[:-1]
        if level > 1:
            parts = parts[: len(parts) - (level - 1)]
        if target:
            parts = parts + target.split(".")
        return ".".join(parts)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.module_aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = (
            self._resolve_relative(node.level, node.module)
            if node.level
            else (node.module or "")
        )
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.symbol_aliases[local] = f"{base}.{alias.name}"


# ---------------------------------------------------------------------------
# Function-body extraction


class _FunctionScanner(ast.NodeVisitor):
    """Collects calls and source hits for one function.

    Nested functions and lambdas are flattened into their enclosing
    function: a wall-clock read inside a local helper is still a read
    performed by the function that defines (and presumably calls) it.
    """

    def __init__(
        self,
        info: FunctionInfo,
        imports: _Imports,
        local_types: Dict[str, str],
        class_attr_sink: Optional[Dict[str, str]],
    ) -> None:
        self.info = info
        self.imports = imports
        self.local_types = local_types
        self.class_attr_sink = class_attr_sink

    # -- canonicalization --------------------------------------------------

    def _canonical(self, raw: str) -> str:
        parts = raw.split(".")
        root = parts[0]
        if root in self.imports.module_aliases:
            parts[0] = self.imports.module_aliases[root]
        elif root in self.imports.symbol_aliases:
            parts[0] = self.imports.symbol_aliases[root]
        return ".".join(parts)

    def _classify_source(self, canonical: str) -> Optional[Tuple[str, str]]:
        if canonical in _WALL_CLOCK_CALLS:
            return WALL_CLOCK, canonical
        parts = canonical.split(".")
        if canonical in _ENTROPY_CALLS or parts[0] == "secrets":
            return OS_ENTROPY, canonical
        if (
            parts[0] == "random"
            and len(parts) == 2
            and parts[1] not in _RANDOM_ALLOWED_ATTRS
        ):
            return GLOBAL_RNG, canonical
        if (
            len(parts) >= 2
            and parts[0] == "numpy"
            and parts[1] == "random"
            and (len(parts) < 3 or parts[2] not in _NUMPY_RANDOM_ALLOWED)
        ):
            return GLOBAL_RNG, canonical
        if canonical in _ENV_CALLS:
            return ENV_READ, canonical
        return None

    # -- type bookkeeping --------------------------------------------------

    def _record_assign_type(self, target: ast.expr, value: ast.expr) -> None:
        type_text: Optional[str] = None
        if isinstance(value, ast.Call):
            callee = dotted_display(value.func)
            if callee is not None and callee.split(".")[-1][:1].isupper():
                type_text = callee
        elif isinstance(value, ast.Name):
            type_text = strip_type_text(
                self.info.param_annotations.get(value.id)
            )
        if type_text is None:
            return
        if isinstance(target, ast.Name):
            self.local_types.setdefault(target.id, type_text)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.class_attr_sink is not None
        ):
            self.class_attr_sink.setdefault(target.attr, type_text)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assign_type(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        type_text = strip_type_text(ast.unparse(node.annotation))
        if type_text is not None:
            if isinstance(node.target, ast.Name):
                self.local_types.setdefault(node.target.id, type_text)
            elif (
                isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
                and self.class_attr_sink is not None
            ):
                self.class_attr_sink.setdefault(node.target.attr, type_text)
        self.generic_visit(node)

    # -- the interesting nodes ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        raw = dotted_display(node.func)
        if raw is not None:
            site = CallSite(
                line=node.lineno,
                raw=raw,
                args=[dotted_display(a) for a in node.args],
                kwargs={
                    kw.arg: dotted_display(kw.value)
                    for kw in node.keywords
                    if kw.arg is not None
                },
            )
            if isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if isinstance(recv, ast.Name):
                    if recv.id == "self":
                        site.recv_kind = "self"
                    elif recv.id in self.local_types:
                        site.recv_kind = "var"
                        site.recv_info = self.local_types[recv.id]
                elif (
                    isinstance(recv, ast.Attribute)
                    and isinstance(recv.value, ast.Name)
                    and recv.value.id == "self"
                ):
                    site.recv_kind = "selfattr"
                    site.recv_info = recv.attr
            self.info.calls.append(site)
            classified = self._classify_source(self._canonical(raw))
            if classified is not None:
                category, canonical = classified
                self.info.source_hits.append(
                    SourceHit(
                        line=node.lineno, category=category, call=canonical
                    )
                )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``os.environ["X"]`` reads the environment without a call.
        raw = dotted_display(node.value)
        if raw is not None and self._canonical(raw) in (
            "os.environ",
            "os.environb",
        ):
            self.info.source_hits.append(
                SourceHit(
                    line=node.lineno,
                    category=ENV_READ,
                    call=self._canonical(raw),
                )
            )
        self.generic_visit(node)

    # Nested defs are flattened into this scanner (see class docstring).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.generic_visit(node)


def _function_info(
    node: ast.AST,
    qualname: str,
    class_name: Optional[str],
) -> FunctionInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    params = [a.arg for a in ordered]
    annotations = {
        a.arg: ast.unparse(a.annotation)
        for a in ordered
        if a.annotation is not None
    }
    return FunctionInfo(
        name=node.name,
        qualname=qualname,
        line=node.lineno,
        end_line=node.end_lineno or node.lineno,
        class_name=class_name,
        params=params,
        param_annotations=annotations,
    )


def extract_module(
    source: str, rel_path: str, tree: Optional[ast.Module] = None
) -> ModuleSummary:
    """Turn one file into its :class:`ModuleSummary`.

    ``tree`` is the file's parsed AST when the caller already has it
    (the engine parses once and shares the tree with the local rules);
    otherwise the source is parsed here, raising ``SyntaxError`` if it
    does not parse.
    """
    module = module_name_of(rel_path)
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    is_package = rel_path.replace("\\", "/").endswith("__init__.py")

    imports = _Imports(module, is_package)
    imports.visit(tree)

    summary = ModuleSummary(
        rel_path=rel_path,
        module=module,
        module_aliases=dict(imports.module_aliases),
        symbol_aliases=dict(imports.symbol_aliases),
        waivers=parse_waivers(source),
    )

    module_info = FunctionInfo(
        name="<module>",
        qualname="<module>",
        line=1,
        end_line=len(source.splitlines()) or 1,
    )
    summary.functions["<module>"] = module_info
    module_scanner = _FunctionScanner(module_info, imports, {}, None)

    def scan_function(
        node: ast.AST, qualname: str, class_info: Optional[ClassInfo]
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        info = _function_info(
            node, qualname, class_info.name if class_info else None
        )
        local_types = {
            name: stripped
            for name, text in info.param_annotations.items()
            if (stripped := strip_type_text(text)) is not None
        }
        if class_info is not None:
            local_types.setdefault("self", class_info.name)
        sink = class_info.attr_types if class_info is not None else None
        scanner = _FunctionScanner(info, imports, local_types, sink)
        for statement in node.body:
            scanner.visit(statement)
        summary.functions[qualname] = info

    def walk_body(
        body: List[ast.stmt],
        prefix: str,
        class_info: Optional[ClassInfo],
    ) -> None:
        for statement in body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qualname = f"{prefix}{statement.name}"
                if class_info is not None:
                    class_info.methods.append(statement.name)
                scan_function(statement, qualname, class_info)
            elif isinstance(statement, ast.ClassDef):
                info = ClassInfo(
                    name=f"{prefix}{statement.name}",
                    line=statement.lineno,
                    bases=[
                        base
                        for base_node in statement.bases
                        if (base := dotted_display(base_node)) is not None
                    ],
                )
                # Class-level annotations type the attributes
                # (dataclass fields included).
                for item in statement.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        stripped = strip_type_text(
                            ast.unparse(item.annotation)
                        )
                        if stripped is not None:
                            info.attr_types[item.target.id] = stripped
                summary.classes[info.name] = info
                walk_body(statement.body, f"{info.name}.", info)
            else:
                module_scanner.visit(statement)

    walk_body(tree.body, "", None)
    return summary
