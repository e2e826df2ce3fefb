"""Package-level sanity: exports, version, module entry point."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_has_no_duplicates_and_is_sorted(self):
        names = [name for name in repro.__all__ if name != "__version__"]
        assert len(names) == len(set(names)), "duplicate names in __all__"
        assert names == sorted(names), "__all__ should stay sorted"

    def test_engine_api_exported(self):
        # Mining runs in one process: the facade and its result types are
        # the whole mining API, and the sharded engine's names are gone.
        for name in ("PartialPeriodicMiner", "MiningResult", "MultiPeriodResult"):
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None
        for name in (
            "ParallelMiner",
            "EngineStats",
            "EngineError",
            "SegmentShard",
            "partition_segments",
        ):
            assert name not in repro.__all__, name
            assert not hasattr(repro, name), name
        with pytest.raises(ImportError):
            importlib.import_module("repro.engine")
        with pytest.raises(ImportError):
            importlib.import_module("repro.resilience")

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_subpackages_import(self):
        for module in (
            "repro.core",
            "repro.durability",
            "repro.serve",
            "repro.tree",
            "repro.timeseries",
            "repro.synth",
            "repro.rules",
            "repro.multilevel",
            "repro.perturbation",
            "repro.analysis",
            "repro.baselines",
            "repro.cli",
        ):
            importlib.import_module(module)

    def test_subpackage_all_names_resolve(self):
        for module_name in (
            "repro.analysis",
            "repro.baselines",
            "repro.durability",
            "repro.multilevel",
            "repro.perturbation",
            "repro.rules",
            "repro.synth",
            "repro.timeseries",
            "repro.tree",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_error_hierarchy(self):
        for error in (
            repro.PatternError,
            repro.SeriesError,
            repro.MiningError,
            repro.TaxonomyError,
            repro.GeneratorError,
        ):
            assert issubclass(error, repro.ReproError)
            assert issubclass(error, Exception)


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        import subprocess
        import sys

        outcome = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert outcome.returncode == 0
        assert "mine" in outcome.stdout

    def test_cli_unknown_command_fails(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["not-a-command"])
