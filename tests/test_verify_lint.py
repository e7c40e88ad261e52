"""The AST self-lint pass (RPR018): seeded violations and conservatism.

The golden suite pins one exemplar per violation kind; this file
exercises the lint machinery itself — the registry-shape checks against
tampered ``CODES`` literals, ``__all__`` edge cases the name collector
must understand (tuple targets, try/except import fallbacks), and the
receiver conservatism that keeps ``str.count`` from false-positives.
"""

import pytest

from repro.verify import self_lint
from repro.verify.lint import _top_level_names


def lint_source(tmp_path, source, name="mod.py"):
    """Run the lint over one synthetic module and return its findings."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / name).write_text(source)
    return self_lint(pkg)


class TestRegistryShape:
    """The append-only checks trigger on the file named
    ``verify/diagnostics.py``, wherever the lint root lives."""

    def seed(self, tmp_path, codes_source):
        verify_dir = tmp_path / "pkg" / "verify"
        verify_dir.mkdir(parents=True)
        (verify_dir / "diagnostics.py").write_text(codes_source)
        return self_lint(tmp_path / "pkg")

    def test_contiguous_registry_is_clean(self, tmp_path):
        assert self.seed(
            tmp_path,
            'CODES = {"RPR001": "one", "RPR002": "two"}\n',
        ) == []

    def test_hole_in_the_sequence(self, tmp_path):
        (d,) = self.seed(
            tmp_path,
            'CODES = {"RPR001": "one", "RPR003": "three"}\n',
        )
        assert d.code == "RPR018"
        assert "not contiguous" in d.message
        assert "append-only" in (d.hint or "")

    def test_reordered_registry(self, tmp_path):
        (d,) = self.seed(
            tmp_path,
            'CODES = {"RPR002": "two", "RPR001": "one"}\n',
        )
        assert "not contiguous" in d.message

    def test_empty_message(self, tmp_path):
        diagnostics = self.seed(
            tmp_path,
            'CODES = {"RPR001": ""}\n',
        )
        assert any("non-empty string" in d.message for d in diagnostics)

    def test_missing_codes_literal(self, tmp_path):
        (d,) = self.seed(tmp_path, "OTHER = 1\n")
        assert "no CODES dict literal" in d.message

    def test_computed_key_rejected(self, tmp_path):
        diagnostics = self.seed(
            tmp_path,
            'CODES = {"RPR" + "001": "one"}\n',
        )
        assert any(
            "not a string literal" in d.message for d in diagnostics
        )


class TestReceiverConservatism:
    """Only telemetry-shaped receivers may trigger event/counter
    findings — ``str.count`` and arbitrary ``.emit`` calls must not."""

    def test_str_count_not_flagged(self, tmp_path):
        assert lint_source(tmp_path, 'n = "text".count("t")\n') == []

    def test_unrelated_emit_not_flagged(self, tmp_path):
        assert lint_source(tmp_path, 'socket.emit("anything")\n') == []

    def test_get_telemetry_call_is_flagged(self, tmp_path):
        (d,) = lint_source(
            tmp_path, 'get_telemetry().count("bogus.counter")\n'
        )
        assert d.code == "RPR018"

    def test_non_literal_names_skipped(self, tmp_path):
        # Dynamic names cannot be checked statically; stay quiet.
        assert lint_source(tmp_path, "tele.emit(event_name, x=1)\n") == []

    def test_known_vocabulary_is_clean(self, tmp_path):
        assert lint_source(
            tmp_path,
            'tele.emit("fleet_start", arrays=2, days=1, cohorts=1)\n'
            'tele.count("fleet.days")\n'
            'tele.gauge("sim.epochs_per_s", 100.0)\n',
        ) == []


class TestDeclaredVocabularyIsUsed:
    """The vocabulary declared in a tree's ``telemetry/stats.py`` must
    each be emitted or counted by some module of the same tree."""

    def test_declared_but_never_emitted_event(self, tmp_path):
        telemetry_dir = tmp_path / "pkg" / "telemetry"
        telemetry_dir.mkdir(parents=True)
        (telemetry_dir / "stats.py").write_text(
            "EVENT_FIELDS = {\n"
            '    "fleet_start": frozenset(),\n'
            '    "job_retry": frozenset({"label"}),\n'
            "}\n"
            'KNOWN_COUNTERS: frozenset = frozenset({"fleet.days"})\n'
        )
        (tmp_path / "pkg" / "mod.py").write_text(
            'tele.emit("fleet_start", arrays=2, days=1, cohorts=1)\n'
            'tele.count("fleet.days")\n'
        )
        (d,) = self_lint(tmp_path / "pkg")
        assert d.code == "RPR018"
        assert "'job_retry' is declared but never emitted" in d.message
        assert d.location.place == "pkg/telemetry/stats.py:3"

    def test_declared_but_never_counted_counter(self, tmp_path):
        telemetry_dir = tmp_path / "pkg" / "telemetry"
        telemetry_dir.mkdir(parents=True)
        (telemetry_dir / "stats.py").write_text(
            'EVENT_FIELDS = {"fleet_start": frozenset()}\n'
            "KNOWN_COUNTERS: frozenset = frozenset({\n"
            '    "fleet.days",\n'
            '    "engine.retries",\n'
            "})\n"
        )
        (tmp_path / "pkg" / "mod.py").write_text(
            'tele.emit("fleet_start", arrays=2, days=1, cohorts=1)\n'
            'tele.gauge("fleet.days", 1)\n'
        )
        (d,) = self_lint(tmp_path / "pkg")
        assert d.code == "RPR018"
        assert "'engine.retries' is declared but never counted" in d.message
        assert d.location.place == "pkg/telemetry/stats.py:4"


class TestDunderAllEdgeCases:
    def test_duplicate_entry(self, tmp_path):
        (d,) = lint_source(
            tmp_path,
            'def f():\n    pass\n\n__all__ = ["f", "f"]\n',
        )
        assert "more than once" in d.message

    def test_tuple_assignment_names_count(self, tmp_path):
        assert lint_source(
            tmp_path,
            'a, b = 1, 2\n\n__all__ = ["a", "b"]\n',
        ) == []

    def test_try_except_import_binding_counts(self, tmp_path):
        assert lint_source(
            tmp_path,
            "try:\n"
            "    import numpy as backend\n"
            "except ImportError:\n"
            "    backend = None\n"
            "\n"
            '__all__ = ["backend"]\n',
        ) == []

    def test_aliased_import_binds_the_alias(self, tmp_path):
        diagnostics = lint_source(
            tmp_path,
            "from json import dumps as render\n"
            "\n"
            '__all__ = ["render", "dumps"]\n',
        )
        (d,) = diagnostics
        assert "'dumps'" in d.message


class TestLazyTables:
    """A package's ``attach(__name__, {...})`` table is checked against
    the modules it names, once the whole tree is parsed."""

    def lint_package(self, tmp_path, table):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("def f():\n    pass\n")
        (pkg / "__init__.py").write_text(
            "from repro.lazy import attach\n"
            "\n"
            f"__getattr__, __dir__, __all__ = attach(__name__, {table})\n"
        )
        return self_lint(pkg)

    def test_entry_resolving_to_a_definition_is_clean(self, tmp_path):
        assert self.lint_package(tmp_path, '{"f": "pkg.mod"}') == []

    def test_entry_naming_a_lazy_export_is_not_a_definition(
        self, tmp_path
    ):
        # "pkg" binds "g" only through its own table: resolving it would
        # ask the package for itself, forever.
        (d,) = self.lint_package(tmp_path, '{"f": "pkg.mod", "g": "pkg"}')
        assert d.message == (
            "lazy table maps 'g' to 'pkg', which never defines or imports it"
        )

    def test_missing_module(self, tmp_path):
        (d,) = self.lint_package(tmp_path, '{"f": "pkg.nowhere"}')
        assert "'pkg.nowhere', which is not a module of the tree" in (
            d.message
        )

    def test_duplicate_name(self, tmp_path):
        (d,) = self.lint_package(
            tmp_path, '{"f": "pkg.mod", "f": "pkg.mod"}'
        )
        assert "lists 'f' more than once" in d.message

    def test_table_must_be_a_literal(self, tmp_path):
        (d,) = self.lint_package(tmp_path, "dict(f='pkg.mod')")
        assert "not a dict literal" in d.message

    def test_entries_must_be_string_literals(self, tmp_path):
        (d,) = self.lint_package(tmp_path, '{"f": "pkg." + "mod"}')
        assert "string-literal pair" in d.message


class TestNameCollector:
    def test_collects_every_binding_kind(self):
        import ast

        tree = ast.parse(
            "import os\n"
            "from sys import argv\n"
            "X = 1\n"
            "Y: int = 2\n"
            "a, b = 1, 2\n"
            "def f():\n    pass\n"
            "class C:\n    pass\n"
        )
        names = set(_top_level_names(tree))
        assert {"os", "argv", "X", "Y", "a", "b", "f", "C"} <= names

    def test_nested_names_ignored(self):
        import ast

        tree = ast.parse("def outer():\n    inner = 1\n")
        assert "inner" not in _top_level_names(tree)


class TestShippedTree:
    def test_lint_root_must_be_a_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            self_lint(tmp_path / "nope")

    def test_shipped_package_is_clean(self):
        # The CI contract: the repo always lints itself clean.
        assert self_lint() == []
