"""The rules of ``repro analyze`` (R004-R007, R101).

Each rule is an :class:`ast.NodeVisitor` subclass with a class-level
``rule_id``; :func:`run_rules` runs them over one parsed module and
collects what they report as
:class:`~repro.devtools.analyze.model.Finding` objects.

The rules encode invariants this repository's correctness rests on and
that no off-the-shelf tool checks:

- R004  no float ``==``/``!=`` on times or rates;
- R005  classes in designated hot-path modules carry ``__slots__``;
- R006  no lambdas or nested functions into process-pool submissions
        (picklability) or the event queue (per-packet closure
        allocation — PR 3's closure elimination stays enforced);
- R007  no mutable default arguments;
- R101  no wall-clock read, global-RNG draw, environment read or OS
        entropy in simulated code, and no import from simulated code
        of a module outside it.  Simulated code is
        :data:`repro.experiments.cells.SIMULATED_MODULES`, the list
        whose source salts every cache key.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.devtools.analyze.model import Finding


class Rule(ast.NodeVisitor):
    """Base class: a visitor that appends findings for one file."""

    rule_id = ""

    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.findings: List[Finding] = []

    def check(self, tree: ast.Module) -> List[Finding]:
        self.visit(tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                file=self.rel_path,
                line=getattr(node, "lineno", 1),
                rule=self.rule_id,
                message=message,
            )
        )


# ---------------------------------------------------------------------------
# Shared identifier helpers


# Unit vocabulary for R004: a suffixed name is a time, size or rate.
# Each suffix maps to a (dimension, canonical unit) pair; suffixes
# sharing a canonical unit are aliases.
_UNIT_SUFFIXES: Dict[str, Tuple[str, str]] = {
    "_ns": ("time", "ns"),
    "_us": ("time", "us"),
    "_ms": ("time", "ms"),
    "_s": ("time", "s"),
    "_sec": ("time", "s"),
    "_secs": ("time", "s"),
    "_seconds": ("time", "s"),
    "_bytes": ("size", "bytes"),
    "_bits": ("size", "bits"),
    "_bps": ("rate", "bps"),
    "_kbps": ("rate", "kbps"),
    "_mbps": ("rate", "mbps"),
}

# Identifier tokens that mark a value as a time or a rate for R004.
_TEMPORAL_TOKENS = frozenset(
    {
        "time",
        "timestamp",
        "now",
        "rtt",
        "srtt",
        "deadline",
        "delay",
        "elapsed",
        "duration",
        "rate",
        "bitrate",
        "goodput",
        "throughput",
    }
)


def _identifier_of(node: ast.expr) -> Optional[str]:
    """The bare identifier an expression reads, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unit_of(node: ast.expr) -> Optional[Tuple[str, str]]:
    """The (dimension, unit) an expression carries, if any.

    Names and attributes declare units via their suffix; a unit
    survives negation and scaling by a unit-less factor
    (``2 * rtt_ms`` is still milliseconds), which is what lets the
    rule see through smoothing-filter arithmetic.
    """
    if isinstance(node, ast.UnaryOp):
        return _unit_of(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left = _unit_of(node.left)
        right = _unit_of(node.right)
        if (left is None) != (right is None):
            return left if left is not None else right
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        # Dividing a united value by a unit-less factor keeps the unit;
        # anything else (ratios, rates) is out of scope.
        left = _unit_of(node.left)
        if left is not None and _unit_of(node.right) is None:
            return left
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        # A sum carries whatever unit its operands agree on, so mixes
        # inside chained arithmetic (`a() + x_ms - y_s`) still surface.
        left = _unit_of(node.left)
        right = _unit_of(node.right)
        if left == right:
            return left
        if (left is None) != (right is None):
            return left if left is not None else right
        return None
    name = _identifier_of(node)
    if name is None:
        return None
    # Longest suffix wins: ``_seconds`` before ``_s``.
    for suffix in sorted(_UNIT_SUFFIXES, key=len, reverse=True):
        if name.endswith(suffix) and len(name) > len(suffix):
            return _UNIT_SUFFIXES[suffix]
    return None


def _is_temporal(node: ast.expr) -> bool:
    """True when the expression names a time- or rate-valued quantity."""
    if _unit_of(node) is not None:
        return True
    name = _identifier_of(node)
    if name is None:
        return False
    tokens = name.lower().lstrip("_").split("_")
    return any(token in _TEMPORAL_TOKENS for token in tokens)


# ---------------------------------------------------------------------------
# R004 — float equality on times/rates


class FloatEqualityRule(Rule):
    """R004: no ``==``/``!=`` on time- or rate-valued floats.

    Simulation timestamps and rates are accumulated floats; exact
    equality silently stops matching after any reordering of the
    arithmetic.  Comparisons against integer sentinels (``seq == -1``)
    stay allowed.
    """

    rule_id = "R004"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                self._check_pair(node, left, right)
        self.generic_visit(node)

    @staticmethod
    def _is_int_sentinel(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            value = node.value
            return value is None or isinstance(value, (int, str, bytes))
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.operand, ast.Constant
        ):
            return isinstance(node.operand.value, int) and not isinstance(
                node.operand.value, bool
            )
        return False

    def _check_pair(
        self, node: ast.AST, left: ast.expr, right: ast.expr
    ) -> None:
        left_temporal = _is_temporal(left)
        right_temporal = _is_temporal(right)
        if not (left_temporal or right_temporal):
            return
        # A compare against an int/None/str sentinel is exact by
        # construction; everything else (float literals, other names,
        # call results) is the bug this rule exists for.
        if self._is_int_sentinel(left) or self._is_int_sentinel(right):
            return
        name = _identifier_of(left if left_temporal else right)
        self.report(
            node,
            f"exact float equality on '{name}'; compare with a tolerance "
            "or restructure",
        )


# ---------------------------------------------------------------------------
# R005 — __slots__ in hot-path modules


_SLOTS_EXEMPT_BASES = {
    "Exception",
    "BaseException",
    "RuntimeError",
    "ValueError",
    "Enum",
    "IntEnum",
    "Flag",
    "IntFlag",
    "NamedTuple",
    "Protocol",
    "TypedDict",
}


class SlotsRule(Rule):
    """R005: classes in designated hot-path modules need ``__slots__``.

    These modules allocate one object per packet or per event; a
    ``__dict__`` per instance costs both memory and attribute-lookup
    time in the hottest loops (PR 3 measured this).  Accepted forms:
    a literal ``__slots__`` in the class body or
    ``@dataclass(slots=True)``.
    """

    rule_id = "R005"

    # Only instantiated for files matching config.slots_modules;
    # run_rules handles that gating.

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._needs_slots(node):
            self.generic_visit(node)
            return
        if not self._has_slots(node):
            self.report(
                node,
                f"class '{node.name}' in a hot-path module has no "
                "__slots__ (add one or use @dataclass(slots=True))",
            )
        self.generic_visit(node)

    @staticmethod
    def _needs_slots(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = _identifier_of(base)
            if name in _SLOTS_EXEMPT_BASES:
                return False
        return True

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for statement in node.body:
            targets: List[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                name = _identifier_of(decorator.func)
                if name == "dataclass":
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        return False


# ---------------------------------------------------------------------------
# R006 — closures into worker processes and the event queue


_POOL_METHODS = {"submit", "map", "apply_async"}
_SCHEDULE_METHODS = {"schedule", "schedule_at", "post", "push"}


class ClosureCaptureRule(Rule):
    """R006: no lambdas/nested functions into workers or the event queue.

    A lambda as a ``Process(target=...)`` forks fine on Linux and dies
    at pickle time under the ``spawn`` start method; one submitted to a
    pool dies the same way — but only when a sweep actually goes
    parallel, which is how both slip through serial tests.  Lambdas
    scheduled on the event queue allocate one closure per packet; PR 3
    removed exactly those, and ``Event.arg`` exists so they stay gone.

    Wrapping the closure in :func:`functools.partial` does not launder
    it: the partial object pickles only if everything it captures
    does, and on the event queue it still allocates per event — so
    ``partial(lambda: ...)`` and ``partial(nested_fn, x)`` are flagged
    exactly like the bare forms.
    """

    rule_id = "R006"

    def visit_Module(self, node: ast.Module) -> None:
        self._function_depth = 0
        self._nested_functions: List[Set[str]] = []
        self.generic_visit(node)

    def _visit_function(self, node: ast.AST) -> None:
        name = getattr(node, "name", None)
        if self._function_depth > 0 and self._nested_functions and name:
            self._nested_functions[-1].add(name)
        self._function_depth += 1
        self._nested_functions.append(set())
        self.generic_visit(node)
        self._nested_functions.pop()
        self._function_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _is_nested_function(self, name: str) -> bool:
        return any(name in scope for scope in self._nested_functions)

    @staticmethod
    def _is_partial(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "partial"
        if isinstance(func, ast.Attribute):
            return func.attr == "partial"
        return False

    def _partial_closure(self, node: ast.expr) -> Optional[str]:
        """Describe the closure a ``partial(...)`` wraps, if any."""
        if not (self._is_partial(node) and isinstance(node, ast.Call)):
            return None
        inner = list(node.args) + [kw.value for kw in node.keywords]
        for argument in inner:
            if isinstance(argument, ast.Lambda):
                return "a lambda"
            if isinstance(argument, ast.Name) and self._is_nested_function(
                argument.id
            ):
                return f"nested function '{argument.id}'"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        method = None
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
        elif isinstance(node.func, ast.Name):
            method = node.func.id
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        pickled: List[ast.expr] = []
        if method in _POOL_METHODS and isinstance(node.func, ast.Attribute):
            pickled = arguments
        elif method == "Process":
            pickled = [kw.value for kw in node.keywords if kw.arg == "target"]
        for argument in pickled:
            if isinstance(argument, ast.Lambda):
                self.report(
                    node,
                    f"lambda passed to '{method}()' cannot be pickled "
                    "into a worker process",
                )
            elif isinstance(argument, ast.Name) and self._is_nested_function(
                argument.id
            ):
                self.report(
                    node,
                    f"nested function '{argument.id}' passed to "
                    f"'{method}()' cannot be pickled into a worker "
                    "process",
                )
            else:
                wrapped = self._partial_closure(argument)
                if wrapped is not None:
                    self.report(
                        node,
                        f"partial() wrapping {wrapped} passed to "
                        f"'{method}()' cannot be pickled into a "
                        "worker process",
                    )
        if method in _SCHEDULE_METHODS or method == "Event":
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    self.report(
                        node,
                        f"lambda into '{method}()' allocates a closure per "
                        "event; use a bound method plus Event.arg",
                    )
                else:
                    wrapped = self._partial_closure(argument)
                    if wrapped is not None:
                        self.report(
                            node,
                            f"partial() wrapping {wrapped} into "
                            f"'{method}()' allocates per event; use a "
                            "bound method plus Event.arg",
                        )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# R007 — mutable default arguments


_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
}


class MutableDefaultRule(Rule):
    """R007: no mutable default arguments.

    A shared default list/dict is cross-call (and in the runner,
    cross-cell) hidden state — the same class of bug R101 bans for
    global RNGs.
    """

    rule_id = "R007"

    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.report(
                    default,
                    "mutable default argument (literal); default to None "
                    "and build inside",
                )
            elif isinstance(default, ast.Call):
                name = _identifier_of(default.func)
                if name in _MUTABLE_FACTORIES:
                    self.report(
                        default,
                        f"mutable default argument ('{name}()'); default "
                        "to None and build inside",
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# R101 — nondeterminism in simulated code


_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
# These convert the time they are given, and read the clock without one.
_WALL_CLOCK_WHEN_BARE = {
    "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
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
# Constructing a generator from a seed is how the seeded streams are
# built; constructed without one (or with None) it seeds itself from
# OS entropy.  Drawing from or reseeding a module-global generator is
# a global-RNG draw.
_SEEDED_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
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


def in_scope(module: str, prefix: str) -> bool:
    """True when ``module`` is ``prefix`` or lies under it."""
    return module == prefix or module.startswith(prefix + ".")


def _dotted(node: ast.expr) -> Optional[str]:
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


def _is_bare(call: ast.Call) -> bool:
    """No argument, or only ``None``s: no seed, no time to convert."""
    return all(
        isinstance(arg, ast.Constant) and arg.value is None
        for arg in [*call.args, *(kw.value for kw in call.keywords)]
    )


def _classify_source(canonical: str, call: ast.Call) -> Optional[str]:
    """What kind of nondeterminism source a call is, if any."""
    parts = canonical.split(".")
    if canonical in _WALL_CLOCK_CALLS or (
        canonical in _WALL_CLOCK_WHEN_BARE and _is_bare(call)
    ):
        return "wall-clock read"
    if (
        canonical in _ENTROPY_CALLS
        or parts[0] == "secrets"
        or (canonical in _SEEDED_CONSTRUCTORS and _is_bare(call))
    ):
        return "OS entropy read"
    if ".".join(parts[:3]) in _SEEDED_CONSTRUCTORS:
        return None
    if (parts[0] == "random" and len(parts) == 2) or parts[:2] == [
        "numpy", "random"
    ]:
        return "global RNG draw"
    if canonical in _ENV_CALLS:
        return "environment read"
    return None


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class NondeterminismRule(Rule):
    """R101: simulated code is deterministic, and so is what it imports.

    A wall-clock, global-RNG, environment or OS-entropy read makes a
    result depend on the host or on worker order.  A file in a
    whole-module entry of the scope list is scanned whole; a
    ``"module:function"`` entry scans that function's body, nested defs
    included.  Import aliases are resolved, so ``from time import
    perf_counter`` is a clock read too.

    A file scan cannot see what a call reaches in another file, so the
    scope must be closed under import: scanned code may import a
    module of its own package only when that module is itself a
    whole-module entry (imports under ``if TYPE_CHECKING:`` never run
    and are exempt).  A function entry is held to its own imports and
    to the module-level imports whose names its body loads.
    """

    rule_id = "R101"

    def __init__(self, rel_path: str, simulated: Sequence[str]) -> None:
        super().__init__(rel_path)
        self.module = module_name_of(rel_path)
        self.is_package = rel_path.endswith("__init__.py")
        self.whole_entries = [e for e in simulated if ":" not in e]
        self.first_party = {entry.split(".")[0] for entry in simulated}
        self.functions = {
            function
            for module, _, function in (e.partition(":") for e in simulated)
            if function and module == self.module
        }
        self.aliases: Dict[str, str] = {}

    def check(self, tree: ast.Module) -> List[Finding]:
        whole = any(
            in_scope(self.module, entry) for entry in self.whole_entries
        )
        if not (whole or self.functions):
            return self.findings
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for local, target, _modules in self._bindings(node):
                    self.aliases[local] = target
        if whole:
            self.visit(tree)
            return self.findings
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in self.functions
            ):
                self.generic_visit(node)
                loaded = {
                    name.id
                    for name in ast.walk(node)
                    if isinstance(name, ast.Name)
                }
                for statement in tree.body:
                    if isinstance(statement, (ast.Import, ast.ImportFrom)):
                        self._check_import(statement, loaded)
        return self.findings

    # -- imports -----------------------------------------------------------

    def _bindings(
        self, node: ast.stmt
    ) -> Iterable[Tuple[str, str, Tuple[str, ...]]]:
        """``(local name, what it names, modules imported)`` per alias."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    yield alias.asname, alias.name, (alias.name,)
                else:
                    root = alias.name.split(".")[0]
                    yield root, root, (alias.name,)
            return
        assert isinstance(node, ast.ImportFrom)
        base = node.module or ""
        if node.level:
            parts = self.module.split(".")
            if not self.is_package:
                parts = parts[:-1]
            parts = parts[: len(parts) - (node.level - 1)]
            base = ".".join(parts + ([base] if base else []))
        for alias in node.names:
            target = f"{base}.{alias.name}"
            yield alias.asname or alias.name, target, (base, target)

    def _check_import(
        self, node: ast.stmt, loaded: Optional[Set[str]] = None
    ) -> None:
        for local, _target, modules in self._bindings(node):
            if loaded is not None and local not in loaded:
                continue
            if modules[0].split(".")[0] not in self.first_party:
                continue
            if any(
                in_scope(module, entry)
                for module in modules
                for entry in self.whole_entries
            ):
                continue
            self.report(
                node,
                f"simulated code imports `{modules[-1]}`, which is not "
                "simulated code; move what it needs into a module of "
                "SIMULATED_MODULES",
            )

    def visit_Import(self, node: ast.Import) -> None:
        self._check_import(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_import(node)

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking(node.test):
            for statement in node.orelse:
                self.visit(statement)
        else:
            self.generic_visit(node)

    # -- sources -----------------------------------------------------------

    def _canonical(self, raw: str) -> str:
        root, _, rest = raw.partition(".")
        root = self.aliases.get(root, root)
        return f"{root}.{rest}" if rest else root

    def _source(self, node: ast.AST, category: str, call: str) -> None:
        self.report(
            node,
            f"{category} `{call}` in simulated code; a cell must be "
            "deterministic",
        )

    def visit_Call(self, node: ast.Call) -> None:
        raw = _dotted(node.func)
        if raw is not None:
            canonical = self._canonical(raw)
            category = _classify_source(canonical, node)
            if category is not None:
                self._source(node, category, canonical)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``os.environ["X"]`` reads the environment without a call.
        raw = _dotted(node.value)
        if raw is not None:
            canonical = self._canonical(raw)
            if canonical in ("os.environ", "os.environb"):
                self._source(node, "environment read", canonical)
        self.generic_visit(node)


ALL_RULES: Tuple[Type[Rule], ...] = (
    FloatEqualityRule,
    SlotsRule,
    ClosureCaptureRule,
    MutableDefaultRule,
)


def run_rules(
    tree: ast.Module,
    rel_path: str,
    slots_module: bool,
    simulated: Sequence[str],
) -> List[Finding]:
    """Run every rule over one parsed module.

    R005 only applies when ``slots_module`` says the file is one of the
    configured hot-path modules; R101 only to what ``simulated`` names.
    """
    findings: List[Finding] = []
    for rule_class in ALL_RULES:
        if rule_class is SlotsRule and not slots_module:
            continue
        findings.extend(rule_class(rel_path).check(tree))
    findings.extend(NondeterminismRule(rel_path, simulated).check(tree))
    return findings
