"""R102 — unit-flow inference across function boundaries.

The local rule R003 sees unit-suffix mixing inside one expression;
this pass follows values *between* functions.  Units come from three
layers (most specific wins):

1. the ``units.toml`` overlay — per-function parameter/return units
   and a global variable table for names with no suffix (``now``,
   ``deadline``);
2. naming conventions — the shared ``_UNIT_SUFFIXES`` vocabulary
   (``_ms``, ``_s``, ``_bytes``, ``_kbps``, ...), applied to the last
   dotted segment of a display or to a function's own name;
3. nothing — unknown units never produce findings.

Three checks run over the resolved call graph: call arguments against
callee parameter units, return expressions against the function's
declared return unit, and additive/compare arithmetic mixing a
package call's return unit with a differently-united operand.  Only
*strict single-target* call resolutions are checked — fallback edges
are for reachability, not for typing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.devtools.analyze.callgraph import ProgramIndex
from repro.devtools.analyze.model import Finding
from repro.devtools.analyze.rules import _UNIT_SUFFIXES
from repro.devtools.analyze.symbols import CallSite, FunctionInfo, ModuleSummary

Unit = Tuple[str, str]  # (dimension, unit), e.g. ("time", "ms")

#: unit string -> dimension, for the units.toml overlay.
_DIMENSION_OF: Dict[str, str] = {
    unit: dimension for dimension, unit in _UNIT_SUFFIXES.values()
}


class UnitsError(ValueError):
    """Raised for a malformed units.toml (becomes an R100 finding)."""


def _parse_unit(value: object, context: str) -> Unit:
    if not isinstance(value, str) or value not in _DIMENSION_OF:
        known = ", ".join(sorted(_DIMENSION_OF))
        raise UnitsError(
            f"{context}: unknown unit {value!r} (expected one of {known})"
        )
    return (_DIMENSION_OF[value], value)


class UnitTables:
    """Parsed ``units.toml`` overlay."""

    def __init__(self, data: Optional[Dict[str, object]] = None) -> None:
        self.variables: Dict[str, Unit] = {}
        self.params: Dict[str, Dict[str, Unit]] = {}  # qualname -> name -> u
        self.returns: Dict[str, Unit] = {}
        if not data:
            return
        variables = data.get("variables", {})
        if not isinstance(variables, dict):
            raise UnitsError("[variables] must be a table")
        for name, value in variables.items():
            self.variables[name] = _parse_unit(value, f"variables.{name}")
        functions = data.get("functions", {})
        if not isinstance(functions, dict):
            raise UnitsError("[functions] must be a table")
        for qualname, entry in functions.items():
            if not isinstance(entry, dict):
                raise UnitsError(f"functions.{qualname} must be a table")
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise UnitsError(f"functions.{qualname}.params must be a "
                                 "table")
            if params:
                self.params[qualname] = {
                    name: _parse_unit(
                        value, f"functions.{qualname}.params.{name}"
                    )
                    for name, value in params.items()
                }
            if "returns" in entry:
                self.returns[qualname] = _parse_unit(
                    entry["returns"], f"functions.{qualname}.returns"
                )
            unknown = set(entry) - {"params", "returns"}
            if unknown:
                raise UnitsError(
                    f"functions.{qualname}: unknown key(s) "
                    f"{', '.join(sorted(unknown))}"
                )

    def unresolved(self, index: ProgramIndex) -> List[str]:
        """Describe every overlay entry that names nothing in ``index``.

        An entry for a function that was renamed or deleted (or a
        parameter that left its signature) types nothing, silently;
        the engine reports each one as an R100 finding.
        """
        problems: List[str] = []
        for qualname in sorted({*self.params, *self.returns}):
            entry = index.functions.get(qualname)
            if entry is None:
                problems.append(
                    f"units overlay function '{qualname}' does not "
                    "resolve to a function in the analyzed tree"
                )
                continue
            for name in self.params.get(qualname, {}):
                if name not in entry[1].params:
                    problems.append(
                        f"units overlay parameter '{name}' is not in "
                        f"the signature of '{qualname}'"
                    )
        return problems


def suffix_unit(name: str) -> Optional[Unit]:
    """Unit implied by the naming convention, on the last dotted leaf."""
    leaf = name.split(".")[-1]
    for suffix in sorted(_UNIT_SUFFIXES, key=len, reverse=True):
        if leaf.endswith(suffix) and len(leaf) > len(suffix):
            return _UNIT_SUFFIXES[suffix]
    return None


class UnitChecker:
    """Runs the three R102 checks over a program index."""

    def __init__(self, index: ProgramIndex, tables: UnitTables) -> None:
        self.index = index
        self.tables = tables
        self.findings: List[Finding] = []

    # -- unit lookup layers ------------------------------------------------

    def display_unit(self, caller: str, display: str) -> Optional[Unit]:
        """Unit of an identifier display in a caller's context."""
        _summary, info = self.index.functions[caller]
        leaf = display.split(".")[-1]
        overlay = self.tables.params.get(caller)
        if overlay is not None and display in info.params:
            declared = overlay.get(display)
            if declared is not None:
                return declared
        from_suffix = suffix_unit(display)
        if from_suffix is not None:
            return from_suffix
        if display in self.tables.variables:
            return self.tables.variables[display]
        if leaf in self.tables.variables:
            return self.tables.variables[leaf]
        return None

    def param_unit(self, callee: str, param: str) -> Optional[Unit]:
        overlay = self.tables.params.get(callee)
        if overlay is not None and param in overlay:
            return overlay[param]
        return suffix_unit(param)

    def return_unit(self, callee: str) -> Optional[Unit]:
        if callee in self.tables.returns:
            return self.tables.returns[callee]
        _summary, info = self.index.functions[callee]
        return suffix_unit(info.name)

    # -- resolution helper -------------------------------------------------

    def _strict_target(
        self, summary: ModuleSummary, caller: FunctionInfo, site: CallSite
    ) -> Optional[str]:
        resolved = self.index.resolve_call(summary, caller, site)
        strict = [t for t, kind in resolved if kind == "call"]
        if len(strict) == 1:
            return strict[0]
        return None

    # -- checks ------------------------------------------------------------

    def _report(
        self, summary: ModuleSummary, line: int, message: str
    ) -> None:
        self.findings.append(
            Finding(
                file=summary.rel_path, line=line, rule="R102", message=message
            )
        )

    def _check_call_args(
        self,
        caller_key: str,
        summary: ModuleSummary,
        info: FunctionInfo,
        site: CallSite,
        callee: str,
    ) -> None:
        _callee_summary, callee_info = self.index.functions[callee]
        params = list(callee_info.params)
        if (
            callee_info.class_name is not None
            and params
            and params[0] in ("self", "cls")
        ):
            params = params[1:]
        pairs: List[Tuple[Optional[str], str]] = list(zip(site.args, params))
        for name, display in site.kwargs.items():
            if name in callee_info.params:
                pairs.append((display, name))
        for display, param in pairs:
            if display is None:
                continue
            actual = self.display_unit(caller_key, display)
            expected = self.param_unit(callee, param)
            if actual is None or expected is None or actual == expected:
                continue
            self._report(
                summary,
                site.line,
                f"argument `{display}` ({actual[1]}) of a call to "
                f"`{callee}` in `{summary.module}.{info.qualname}` does "
                f"not match parameter `{param}` ({expected[1]})",
            )

    def _check_returns(
        self, caller_key: str, summary: ModuleSummary, info: FunctionInfo
    ) -> None:
        declared = self.return_unit(caller_key)
        if declared is None:
            return
        for line, display in info.returns:
            if display is None:
                continue
            actual = self.display_unit(caller_key, display)
            if actual is None or actual == declared:
                continue
            self._report(
                summary,
                line,
                f"`{summary.module}.{info.qualname}` declares return unit "
                f"{declared[1]} but returns `{display}` ({actual[1]})",
            )

    def _check_arith(
        self, caller_key: str, summary: ModuleSummary, info: FunctionInfo
    ) -> None:
        for entry in info.arith:
            callee = self._strict_target(summary, info, entry.call)
            if callee is None:
                continue
            ret = self.return_unit(callee)
            other = self.display_unit(caller_key, entry.other)
            if ret is None or other is None or ret == other:
                continue
            op_text = (
                "compared with" if entry.op == "cmp"
                else f"combined via `{entry.op}` with"
            )
            self._report(
                summary,
                entry.line,
                f"result of `{callee}` ({ret[1]}) {op_text} "
                f"`{entry.other}` ({other[1]}) in "
                f"`{summary.module}.{info.qualname}`",
            )

    def run(self) -> List[Finding]:
        for caller_key in sorted(self.index.functions):
            summary, info = self.index.functions[caller_key]
            for site in info.calls:
                if not site.args and not site.kwargs:
                    continue
                callee = self._strict_target(summary, info, site)
                if callee is None:
                    continue
                self._check_call_args(
                    caller_key, summary, info, site, callee
                )
            self._check_returns(caller_key, summary, info)
            self._check_arith(caller_key, summary, info)
        return self.findings


def run_units(index: ProgramIndex, tables: UnitTables) -> List[Finding]:
    return UnitChecker(index, tables).run()
