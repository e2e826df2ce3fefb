"""Package-level sanity: exports, version, module entry point."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.core.incremental import IncrementalHitSetMiner, SegmentPartial
from repro.timeseries.feature_series import FeatureSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


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


def _api_section(heading: str) -> str:
    """The text of one ``## `` section of docs/api.md."""
    text = API_DOC.read_text(encoding="utf-8")
    start = text.index(f"## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _api_bullet(lead: str) -> str:
    """The bullet of docs/api.md starting with ``* `lead``, unwrapped."""
    lines = API_DOC.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"* `{lead}"))
    bullet = [lines[start]]
    for line in lines[start + 1 :]:
        if not line.startswith("  "):
            break
        bullet.append(line.strip())
    return " ".join(bullet)


def _method_names(bullet: str) -> list[str]:
    """The lower-case identifiers a bullet names in backticks.

    ``derive_frequent(threshold, ...)`` names ``derive_frequent`` and
    ``segment(s)`` names ``segment``; dotted paths, class and error
    names, and notation like ``*`` are not methods.
    """
    names = []
    for quoted in re.findall(r"`([^`]+)`", bullet):
        name = quoted.split("(", 1)[0]
        if re.fullmatch(r"[a-z_][a-z0-9_]*", name):
            names.append(name)
    return names


class TestApiDocs:
    def test_top_level_table_names_resolve(self):
        rows = [
            line
            for line in _api_section("Top-level (`repro`)").splitlines()
            if line.startswith("| `")
        ]
        names = [
            name
            for row in rows
            for name in re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", row.split("|")[1])
        ]
        assert len(names) > 20
        for name in names:
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None, name

    @pytest.mark.parametrize(
        "lead, cls",
        [
            ("FeatureSeries", FeatureSeries),
            ("MaxSubpatternTree(", MaxSubpatternTree),
            ("incremental.IncrementalHitSetMiner(", IncrementalHitSetMiner),
            ("incremental.SegmentPartial(", SegmentPartial),
        ],
    )
    def test_documented_methods_exist(self, lead, cls):
        names = _method_names(_api_bullet(lead))
        assert len(names) >= 5, names
        missing = [name for name in names if not hasattr(cls, name)]
        assert missing == [], f"docs/api.md lists {missing} on {cls.__name__}"
