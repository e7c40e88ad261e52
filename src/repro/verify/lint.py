"""AST-based self-lint: repo invariants ruff cannot express (RPR018).

The codebase keeps several cross-file contracts that no off-the-shelf
linter knows about, and that used to be enforced only by convention:

* the diagnostic registry (:data:`repro.verify.diagnostics.CODES`) is
  append-only — a contiguous, ascending ``RPR001..RPRnnn`` dict literal
  with non-empty messages;
* every :class:`~repro.verify.diagnostics.Diagnostic` constructed with
  a literal code uses a registered code;
* every telemetry event emitted with a literal name appears in
  :data:`repro.telemetry.stats.EVENT_FIELDS` (so ``repro-endurance
  stats`` can always validate and census it);
* every counter/gauge name passed to ``Telemetry.count``/``gauge``
  appears in the documented registry
  :data:`repro.telemetry.stats.KNOWN_COUNTERS`;
* conversely, every name the file ``telemetry/stats.py`` declares in
  those two literals is emitted (or counted) by some module of the
  tree, so a removed event leaves no dead vocabulary behind;
* every ``__all__`` entry names something actually defined (or
  imported) at module top level, with no duplicates.

:func:`self_lint` walks every module under ``src/repro`` (or a caller-
supplied root) with :mod:`ast` — no imports of the linted code, so a
syntax-broken module is itself a finding rather than a crash — and
reports each violation as an ``RPR018`` diagnostic whose location
carries ``file:line``. ``repro-endurance verify --self`` runs exactly
this pass, and CI requires it clean.

Telemetry receivers are matched conservatively: only attribute calls on
names ``tele``/``telemetry``/``self`` or directly on
``get_telemetry()`` count, so ``str.count`` or an unrelated ``emit``
method cannot false-positive.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple, Union

from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = ["self_lint"]

#: Receiver names whose ``.emit``/``.count``/``.gauge`` calls are
#: treated as telemetry calls.
_TELEMETRY_RECEIVERS = frozenset({"tele", "telemetry", "self"})


def _is_telemetry_receiver(node: ast.expr) -> bool:
    """Whether an attribute call's receiver is (very likely) telemetry."""
    if isinstance(node, ast.Name):
        return node.id in _TELEMETRY_RECEIVERS
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "get_telemetry"
    return False


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    """The node's string value when it is a plain string literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _iter_sources(root: Path) -> Iterator[Tuple[Path, str]]:
    """Yield ``(path, repo-relative label)`` for every module in root."""
    for path in sorted(root.rglob("*.py")):
        yield path, path.relative_to(root.parent).as_posix()


def _top_level_names(tree: ast.Module) -> List[str]:
    """Names bound at module top level (including in top-level If/Try)."""
    names: List[str] = []

    def collect(body) -> None:
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.append(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                names.append(element.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    names.append(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    names.append(bound)
            elif isinstance(node, ast.If):
                collect(node.body)
                collect(node.orelse)
            elif isinstance(node, ast.Try):
                collect(node.body)
                collect(node.orelse)
                collect(node.finalbody)
                for handler in node.handlers:
                    collect(handler.body)

    collect(tree.body)
    return names


def _top_level_value(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value assigned to ``name`` at module top level, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == name:
            return value
    return None


def _find_codes_dict(tree: ast.Module) -> Optional[ast.Dict]:
    """The ``CODES = {...}`` literal of the diagnostics module, if any."""
    value = _top_level_value(tree, "CODES")
    return value if isinstance(value, ast.Dict) else None


def _declared_names(tree: ast.Module, name: str) -> List[Tuple[str, int]]:
    """``(entry, line)`` for each string literal a vocabulary declares.

    Reads a dict literal's keys (``EVENT_FIELDS``) or a set literal's
    elements, bare or wrapped as ``frozenset({...})``
    (``KNOWN_COUNTERS``).
    """
    value = _top_level_value(tree, name)
    if isinstance(value, ast.Call) and value.args:
        value = value.args[0]
    if isinstance(value, ast.Dict):
        elements = value.keys
    elif isinstance(value, ast.Set):
        elements = value.elts
    else:
        return []
    return [
        (entry, element.lineno)
        for element in elements
        if (entry := _literal_str(element)) is not None
    ]


def _check_registry(
    tree: ast.Module, label: str
) -> List[Diagnostic]:
    """The append-only shape of the diagnostic registry literal."""
    diagnostics: List[Diagnostic] = []

    def finding(message: str, line: int, hint: Optional[str] = None):
        diagnostics.append(
            Diagnostic(
                "RPR018",
                Severity.ERROR,
                message,
                Location(place=f"{label}:{line}"),
                hint=hint,
            )
        )

    codes = _find_codes_dict(tree)
    if codes is None:
        finding(
            "diagnostics module has no CODES dict literal",
            1,
            "the registry must be a plain dict literal the linter can read",
        )
        return diagnostics
    keys: List[str] = []
    for key_node, value_node in zip(codes.keys, codes.values):
        key = _literal_str(key_node)
        if key is None:
            finding(
                "CODES key is not a string literal",
                getattr(key_node, "lineno", codes.lineno),
            )
            continue
        message = _literal_str(value_node)
        if not message:
            finding(
                f"CODES[{key!r}] message is not a non-empty string literal",
                getattr(value_node, "lineno", codes.lineno),
            )
        keys.append(key)
    expected = [f"RPR{i:03d}" for i in range(1, len(keys) + 1)]
    if keys != expected:
        finding(
            f"CODES keys are not contiguous ascending RPR001..RPR{len(keys):03d}"
            f" (got {keys})",
            codes.lineno,
            "the registry is append-only: never rename, reorder, or retire "
            "a code",
        )
    return diagnostics


def _check_module(
    tree: ast.Module,
    label: str,
    known_codes: frozenset,
    known_events: frozenset,
    known_counters: frozenset,
    used: Set[Tuple[str, str]],
) -> List[Diagnostic]:
    """All per-module checks: calls with literal names, ``__all__``.

    Adds each literal telemetry name the module uses to ``used``, as
    ``("emit", name)`` or ``("count", name)`` (gauges included).
    """
    diagnostics: List[Diagnostic] = []

    def finding(message: str, line: int, hint: Optional[str] = None):
        diagnostics.append(
            Diagnostic(
                "RPR018",
                Severity.ERROR,
                message,
                Location(place=f"{label}:{line}"),
                hint=hint,
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # Diagnostic("RPRnnn", ...) with a literal code.
        if isinstance(func, ast.Name) and func.id == "Diagnostic":
            code = None
            if node.args:
                code = _literal_str(node.args[0])
            for keyword in node.keywords:
                if keyword.arg == "code":
                    code = _literal_str(keyword.value)
            if code is not None and code not in known_codes:
                finding(
                    f"Diagnostic constructed with unregistered code {code!r}",
                    node.lineno,
                    "register the code in repro.verify.diagnostics.CODES",
                )
        # tele.emit("event", ...) / tele.count("name") / tele.gauge("name")
        if isinstance(func, ast.Attribute) and _is_telemetry_receiver(
            func.value
        ):
            name = _literal_str(node.args[0]) if node.args else None
            if name is None:
                continue
            if func.attr == "emit":
                used.add(("emit", name))
            elif func.attr in ("count", "gauge"):
                used.add(("count", name))
            if func.attr == "emit" and name not in known_events:
                finding(
                    f"telemetry event {name!r} is not declared in "
                    "EVENT_FIELDS",
                    node.lineno,
                    "add the event and its required fields to "
                    "repro.telemetry.stats.EVENT_FIELDS",
                )
            elif func.attr in ("count", "gauge") and (
                name not in known_counters
            ):
                finding(
                    f"counter name {name!r} is not in the documented "
                    "KNOWN_COUNTERS registry",
                    node.lineno,
                    "add the name to repro.telemetry.stats.KNOWN_COUNTERS "
                    "and document it in docs/observability.md",
                )
    # __all__ consistency.
    defined = set(_top_level_names(tree))
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
        ):
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            finding("__all__ is not a list/tuple literal", node.lineno)
            continue
        seen = set()
        for element in node.value.elts:
            name = _literal_str(element)
            if name is None:
                finding(
                    "__all__ entry is not a string literal",
                    getattr(element, "lineno", node.lineno),
                )
                continue
            if name in seen:
                finding(
                    f"__all__ lists {name!r} more than once",
                    getattr(element, "lineno", node.lineno),
                )
            seen.add(name)
            if name not in defined:
                finding(
                    f"__all__ exports {name!r}, which the module never "
                    "defines or imports",
                    getattr(element, "lineno", node.lineno),
                )
    return diagnostics


def self_lint(
    root: Optional[Union[str, Path]] = None
) -> List[Diagnostic]:
    """RPR018: lint every module under ``root`` for repo invariants.

    Args:
        root: Package directory to walk; defaults to the installed
            ``repro`` package (i.e. the shipped tree lints itself).

    Returns:
        One diagnostic per violation, each located at ``file:line``
        relative to the package parent. A module that fails to parse is
        reported rather than raised, so the lint always completes.
    """
    from repro.telemetry.stats import EVENT_FIELDS, KNOWN_COUNTERS
    from repro.verify.diagnostics import CODES

    if root is None:
        import repro

        root = Path(repro.__file__).parent
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"lint root {root} is not a directory")
    known_codes = frozenset(CODES)
    known_events = frozenset(EVENT_FIELDS)
    known_counters = frozenset(KNOWN_COUNTERS)
    diagnostics: List[Diagnostic] = []
    used: Set[Tuple[str, str]] = set()
    declared: List[Tuple[str, str, str]] = []
    for path, label in _iter_sources(root):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    "RPR018",
                    Severity.ERROR,
                    f"module does not parse: {exc.msg}",
                    Location(place=f"{label}:{exc.lineno or 1}"),
                )
            )
            continue
        if path.name == "diagnostics.py" and path.parent.name == "verify":
            diagnostics.extend(_check_registry(tree, label))
        if path.name == "stats.py" and path.parent.name == "telemetry":
            for registry, kind in (
                ("EVENT_FIELDS", "emit"),
                ("KNOWN_COUNTERS", "count"),
            ):
                declared.extend(
                    (kind, name, f"{label}:{line}")
                    for name, line in _declared_names(tree, registry)
                )
        diagnostics.extend(
            _check_module(
                tree, label, known_codes, known_events, known_counters, used
            )
        )
    for kind, name, place in declared:
        if (kind, name) in used:
            continue
        what, done = (
            ("event", "emitted") if kind == "emit" else ("counter", "counted")
        )
        diagnostics.append(
            Diagnostic(
                "RPR018",
                Severity.ERROR,
                f"telemetry {what} {name!r} is declared but never {done}",
                Location(place=place),
                hint="delete the unused entry, or use it with a literal name",
            )
        )
    return diagnostics
