"""Package-level tests: public API surface and the error hierarchy."""

import importlib.metadata
import runpy
from pathlib import Path

import pytest
import setuptools

import repro
import repro.cli
from repro import errors


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_lazy_database_export(self):
        from repro import ChimeraDatabase

        assert ChimeraDatabase is repro.ChimeraDatabase

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist  # noqa: B018

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_rules_exports_resolve(self):
        import repro.rules as rules

        for name in rules.__all__:
            assert getattr(rules, name) is not None

    def test_events_exports_resolve(self):
        import repro.events as events

        for name in events.__all__:
            assert getattr(events, name) is not None

    def test_workloads_baselines_analysis_exports_resolve(self):
        import repro.analysis as analysis
        import repro.baselines as baselines
        import repro.workloads as workloads

        for module in (analysis, baselines, workloads):
            for name in module.__all__:
                assert getattr(module, name) is not None


class TestInstallMetadata:
    def test_setup_declares_the_package_and_the_console_script(self, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        declared = {}
        monkeypatch.chdir(root)
        monkeypatch.setattr(setuptools, "setup", declared.update)
        runpy.run_path(str(root / "setup.py"))
        assert declared.get("name") == "chimera-events"
        assert declared["version"] == repro.__version__
        assert declared["package_dir"] == {"": "src"}
        assert {"repro", "repro.cluster", "repro.workloads"} <= set(
            declared["packages"]
        )
        (script,) = declared["entry_points"]["console_scripts"]
        name, _, target = script.partition("=")
        entry = importlib.metadata.EntryPoint(
            name.strip(), target.strip(), "console_scripts"
        )
        assert entry.name == "chimera-events"
        assert entry.load() is repro.cli.main


class TestErrorHierarchy:
    def test_every_error_derives_from_chimera_error(self):
        error_classes = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        assert len(error_classes) >= 15
        for error_class in error_classes:
            assert issubclass(error_class, errors.ChimeraError)

    def test_specific_errors_carry_context(self):
        unknown_class = errors.UnknownClassError("ghost")
        assert unknown_class.class_name == "ghost"
        unknown_attribute = errors.UnknownAttributeError("stock", "colour")
        assert (unknown_attribute.class_name, unknown_attribute.attribute) == (
            "stock", "colour"
        )
        duplicate = errors.DuplicateRuleError("r")
        assert duplicate.name == "r"
        non_termination = errors.NonTerminationError(10)
        assert non_termination.limit == 10
        syntax = errors.ExpressionSyntaxError("bad", "a + ", 4)
        assert "position 4" in str(syntax)

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(errors.ChimeraError):
            raise errors.UnknownRuleError("r")
        with pytest.raises(errors.ChimeraError):
            raise errors.EvaluationError("bad")
