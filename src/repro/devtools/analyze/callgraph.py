"""Whole-program index and call graph over module summaries.

The :class:`ProgramIndex` stitches per-module summaries
(:mod:`.symbols`) into package-wide tables, then resolves every
recorded call site to concrete in-package functions:

* exact resolution when the receiver is typed — ``self`` methods (with
  inheritance and subclass overrides, since dispatch may land in
  either), ``self.attr`` via recorded attribute types, annotated or
  constructor-assigned locals, module-alias and from-import names;
* a *conservative fallback* for untyped attribute calls: the callee
  name is matched against every in-package method of that name, except
  ubiquitous container-protocol names (``get``, ``append``, ...) which
  would only produce noise edges.

Function references passed as call arguments (``sim.schedule(...,
self._on_tick)``) become "ref" edges — this is how the event loop's
dynamic ``event.callback()`` dispatch stays visible to the taint pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.analyze.symbols import (
    FALLBACK_BLOCKLIST,
    CallSite,
    FunctionInfo,
    ModuleSummary,
    strip_type_text,
)


@dataclass(frozen=True)
class Edge:
    """One resolved call-graph edge."""

    caller: str  # full qualname "repro.flow.session.FlowCall.run"
    callee: str
    line: int  # call-site line in the caller's file
    kind: str  # "call" (strict), "fallback" (by-name), "ref" (argument)


class ProgramIndex:
    """Package-wide symbol tables + call graph."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        #: full function qualname -> (owning summary, info)
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionInfo]] = {}
        #: full class qualname -> owning summary
        self.classes: Dict[str, ModuleSummary] = {}
        self.class_short: Dict[str, List[str]] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.bases: Dict[str, List[str]] = {}
        self.subclasses: Dict[str, List[str]] = {}
        self.edges: Dict[str, List[Edge]] = {}

        for summary in summaries:
            self.modules[summary.module] = summary
            for qualname, info in summary.functions.items():
                full = f"{summary.module}.{qualname}"
                self.functions[full] = (summary, info)
                if info.class_name is not None:
                    self.methods_by_name.setdefault(info.name, []).append(
                        full
                    )
            for class_name in summary.classes:
                full = f"{summary.module}.{class_name}"
                self.classes[full] = summary
                short = class_name.split(".")[-1]
                self.class_short.setdefault(short, []).append(full)

        self._link_hierarchy()
        self._build_edges()

    # -- hierarchy ---------------------------------------------------------

    def _link_hierarchy(self) -> None:
        for full, summary in self.classes.items():
            class_name = full[len(summary.module) + 1:]
            info = summary.classes[class_name]
            resolved: List[str] = []
            for base in info.bases:
                base_full = self._resolve_type_text(summary, base)
                if base_full is not None:
                    resolved.append(base_full)
            self.bases[full] = resolved
            for base_full in resolved:
                self.subclasses.setdefault(base_full, []).append(full)

    def _resolve_type_text(
        self, summary: ModuleSummary, text: Optional[str]
    ) -> Optional[str]:
        """Resolve an annotation/base-class text to a full class name."""
        text = strip_type_text(text)
        if text is None:
            return None
        parts = text.split(".")
        root = parts[0]
        candidates: List[str] = []
        if len(parts) == 1:
            candidates.append(f"{summary.module}.{text}")
        if root in summary.symbol_aliases:
            candidates.append(
                ".".join([summary.symbol_aliases[root], *parts[1:]])
            )
        if root in summary.module_aliases:
            candidates.append(
                ".".join([summary.module_aliases[root], *parts[1:]])
            )
        candidates.append(text)
        for candidate in candidates:
            if candidate in self.classes:
                return candidate
        if len(parts) == 1:
            shorts = self.class_short.get(text, [])
            if len(shorts) == 1:
                return shorts[0]
        return None

    def _ancestors(self, cls: str) -> List[str]:
        """``cls`` plus transitive bases, breadth-first, deduplicated."""
        out: List[str] = []
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            queue.extend(self.bases.get(current, []))
        return out

    def _descendants(self, cls: str) -> List[str]:
        out: List[str] = []
        seen: Set[str] = set()
        queue = list(self.subclasses.get(cls, []))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            queue.extend(self.subclasses.get(current, []))
        return out

    def resolve_method(self, cls: str, name: str) -> List[str]:
        """Targets of ``instance_of_cls.name()``: the first definition up
        the inheritance chain, plus every subclass override (dynamic
        dispatch may land in either)."""
        targets: List[str] = []
        for ancestor in self._ancestors(cls):
            key = f"{ancestor}.{name}"
            if key in self.functions:
                targets.append(key)
                break
        for descendant in self._descendants(cls):
            key = f"{descendant}.{name}"
            if key in self.functions and key not in targets:
                targets.append(key)
        return targets

    def _attr_type(
        self, summary: ModuleSummary, cls: str, attr: str
    ) -> Optional[str]:
        for ancestor in self._ancestors(cls):
            owner = self.classes.get(ancestor)
            if owner is None:
                continue
            class_name = ancestor[len(owner.module) + 1:]
            info = owner.classes.get(class_name)
            if info is not None and attr in info.attr_types:
                return self._resolve_type_text(owner, info.attr_types[attr])
        return None

    # -- call resolution ---------------------------------------------------

    def _class_targets(self, cls: str) -> List[str]:
        """Calling a class: edge into its ``__init__`` (if defined)."""
        return self.resolve_method(cls, "__init__")

    def _resolve_dotted(
        self, summary: ModuleSummary, parts: List[str]
    ) -> List[str]:
        """Strictly resolve a dotted name rooted at an import alias or a
        same-module symbol.  Returns full function qualnames."""
        root = parts[0]
        bases: List[str] = []
        if len(parts) == 1:
            local = f"{summary.module}.{root}"
            if local in self.functions:
                return [local]
            if local in self.classes:
                return self._class_targets(local)
        if root in summary.symbol_aliases:
            bases.append(summary.symbol_aliases[root])
        if root in summary.module_aliases:
            bases.append(summary.module_aliases[root])
        if len(parts) == 1 and not bases:
            return []
        for base in bases:
            full = ".".join([base, *parts[1:]])
            if full in self.functions:
                return [full]
            if full in self.classes:
                return self._class_targets(full)
            if base in self.classes and len(parts) == 2:
                targets = self.resolve_method(base, parts[1])
                if targets:
                    return targets
            if len(parts) >= 3:
                cls = ".".join([base, *parts[1:-1]])
                if cls in self.classes:
                    targets = self.resolve_method(cls, parts[-1])
                    if targets:
                        return targets
        return []

    def resolve_call(
        self, summary: ModuleSummary, caller: FunctionInfo, site: CallSite
    ) -> List[Tuple[str, str]]:
        """Resolve one call site to [(callee, kind)] pairs."""
        parts = site.raw.split(".")
        name = parts[-1]

        if site.recv_kind == "self" and caller.class_name is not None:
            cls = f"{summary.module}.{caller.class_name}"
            targets = self.resolve_method(cls, name)
            if targets:
                return [(t, "call") for t in targets]
        elif site.recv_kind == "selfattr" and caller.class_name is not None:
            cls = f"{summary.module}.{caller.class_name}"
            if site.recv_info is not None:
                attr_cls = self._attr_type(summary, cls, site.recv_info)
                if attr_cls is not None:
                    targets = self.resolve_method(attr_cls, name)
                    if targets:
                        return [(t, "call") for t in targets]
        elif site.recv_kind == "var":
            attr_cls = self._resolve_type_text(summary, site.recv_info)
            if attr_cls is not None:
                targets = self.resolve_method(attr_cls, name)
                if targets:
                    return [(t, "call") for t in targets]

        if site.recv_kind is None:
            targets = self._resolve_dotted(summary, parts)
            if targets:
                return [(t, "call") for t in targets]

        # Conservative fallback: untyped attribute call — link by
        # method name unless it is a ubiquitous container-protocol name.
        if len(parts) > 1 and name not in FALLBACK_BLOCKLIST:
            return [
                (t, "fallback")
                for t in self.methods_by_name.get(name, [])
            ]
        return []

    def resolve_ref(
        self, summary: ModuleSummary, caller: FunctionInfo, display: str
    ) -> List[str]:
        """Strictly resolve a function *reference* (call argument)."""
        parts = display.split(".")
        if (
            parts[0] == "self"
            and len(parts) == 2
            and caller.class_name is not None
        ):
            cls = f"{summary.module}.{caller.class_name}"
            return self.resolve_method(cls, parts[1])
        targets = self._resolve_dotted(summary, parts)
        return targets

    # -- edge construction -------------------------------------------------

    def _build_edges(self) -> None:
        for full, (summary, info) in self.functions.items():
            edges: List[Edge] = []
            for site in info.calls:
                for callee, kind in self.resolve_call(summary, info, site):
                    edges.append(
                        Edge(
                            caller=full,
                            callee=callee,
                            line=site.line,
                            kind=kind,
                        )
                    )
                for display in [*site.args, *site.kwargs.values()]:
                    if display is None or display == site.raw:
                        continue
                    for callee in self.resolve_ref(summary, info, display):
                        edges.append(
                            Edge(
                                caller=full,
                                callee=callee,
                                line=site.line,
                                kind="ref",
                            )
                        )
            self.edges[full] = edges

    # -- roots -------------------------------------------------------------

    def resolve_roots(
        self, specs: Sequence[str]
    ) -> Tuple[List[str], List[str]]:
        """Resolve root specs to function keys.

        A spec names a function, a class (every method the class itself
        defines is a root) or a module/package prefix (every function
        and ``<module>`` body under it is a root).  Returns (resolved,
        unmatched-specs).
        """
        resolved: List[str] = []
        missing: List[str] = []
        for spec in specs:
            if spec in self.functions:
                resolved.append(spec)
                continue
            if spec in self.classes:
                summary = self.classes[spec]
                class_name = spec[len(summary.module) + 1:]
                info = summary.classes[class_name]
                for method in info.methods:
                    key = f"{spec}.{method}"
                    if key in self.functions:
                        resolved.append(key)
                continue
            under = [
                full
                for full, (summary, _info) in self.functions.items()
                if summary.module == spec
                or summary.module.startswith(spec + ".")
            ]
            if under:
                resolved.extend(under)
                continue
            missing.append(spec)
        # Deterministic, deduplicated order.
        seen: Set[str] = set()
        unique = [
            key for key in resolved
            if not (key in seen or seen.add(key))
        ]
        return unique, missing

    def location_of(self, full: str) -> Tuple[str, int, str]:
        """(file, line, display label) for a function key."""
        summary, info = self.functions[full]
        label = f"{summary.module}.{info.qualname}"
        return summary.rel_path, info.line, label
