"""The import graph: a mine loads only the code it runs.

Every package ``__init__`` re-exports lazily (:mod:`repro._lazy`), so the
mining entry points and ``ppm mine`` must not pull in the serving,
streaming, durability, analysis or linting layers, nor Apriori, maximal
or constrained mining, the segment store or the count cache.  Each check
runs in a fresh interpreter: inside the test process those modules are
long since imported.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no plain mine reaches (prefixes cover their submodules).
UNUSED_BY_MINING = (
    "repro.serve",
    "repro.streaming",
    "repro.durability",
    "repro.devtools",
    "repro.analysis",
    "repro.synth",
    "repro.rules",
    "repro.multilevel",
    "repro.perturbation",
    "repro.baselines",
    "repro.core.apriori",
    "repro.core.maximal",
    "repro.core.constraints",
    "repro.kernels.store",
    "repro.kernels.cache",
    "repro.tree",
    "asyncio",
)

ENTRY_POINTS = (
    "from repro.timeseries.io import load_series\n"
    "from repro.core.miner import PartialPeriodicMiner\n"
    "from repro.core.serialize import dumps_result\n"
)


def loaded_after(code: str, *args: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``.

    ``code`` sees ``sys.argv[1:] == args``; the module list goes to the
    last line of stderr, so the code may print to stdout freely.
    """
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


def unused_loaded(modules: list[str]) -> list[str]:
    return [
        name for name in modules
        if any(name == banned or name.startswith(banned + ".")
               for banned in UNUSED_BY_MINING)
    ]


@pytest.fixture
def small_series(tmp_path: Path) -> Path:
    path = tmp_path / "series.txt"
    path.write_text("a b\nb\nd\n" * 40, encoding="utf-8")
    return path


class TestImportGraph:
    def test_entry_points_load_only_mining_code(self):
        modules = loaded_after(ENTRY_POINTS)
        assert unused_loaded(modules) == []
        # numpy is used by every scan and stays a module-level import.
        assert "numpy" in modules
        assert "repro.kernels.slots" in modules

    def test_mining_calls_import_nothing_new(self, small_series):
        # Every module a plain mine calls is imported with the entry
        # points, not on the first call; nor does the first call import
        # numpy.ma, which a plain np.unique does.
        code = ENTRY_POINTS + (
            "import sys\n"
            "before = set(sys.modules)\n"
            "series = load_series(sys.argv[1])\n"
            "miner = PartialPeriodicMiner(series, 0.5)\n"
            "dumps_result(miner.mine(3))\n"
            "miner.mine_range(2, 4)\n"
            "new = {m for m in set(sys.modules) - before\n"
            "       if m.startswith(('repro', 'numpy.ma'))}\n"
            "assert not new, sorted(new)\n"
        )
        assert unused_loaded(loaded_after(code, str(small_series))) == []

    def test_ppm_mine_loads_only_mining_code(self, small_series):
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['mine', sys.argv[1], '--period', '3',\n"
            "             '--min-conf', '0.5']) == 0\n"
        )
        assert unused_loaded(loaded_after(code, str(small_series))) == []

    def test_every_package_export_resolves_lazily(self):
        packages = sorted(
            ".".join(init.parent.relative_to(SRC).parts)
            for init in (SRC / "repro").rglob("__init__.py")
        )
        code = (
            "import importlib, sys\n"
            "seen = {}\n"
            "for name in sys.argv[1:]:\n"
            "    package = importlib.import_module(name)\n"
            "    listing = dir(package)\n"
            "    for export in getattr(package, '__all__', ()):\n"
            "        value = getattr(package, export)\n"
            "        assert export in listing, (name, export)\n"
            "        # A name exported by several packages is one object.\n"
            "        assert seen.setdefault(export, value) is value, export\n"
        )
        loaded_after(code, *packages)
        assert "repro.timeseries" in packages and "repro.kernels" in packages
