"""Tests for repro.devtools — the domain-aware static analysis suite.

Each rule gets good/bad source-string fixtures asserting the exact rule id
and line number via :func:`analyze_source`; the suppression machinery and
CLI exit codes are exercised directly; and a self-check runs the full
catalog over ``src/repro`` and ``tests`` asserting zero unsuppressed
findings, so the shipped tree can never drift out of compliance silently.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools import (
    META_RULE_IDS,
    Severity,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
    known_rule_ids,
    parse_suppressions,
    select_rules,
)
from repro.devtools.cli import run as lint_run

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings_of(source: str, module: str | None = None) -> list[tuple[str, int]]:
    """``(rule_id, line)`` pairs for a dedented source snippet."""
    return [
        (finding.rule_id, finding.line)
        for finding in analyze_source(textwrap.dedent(source), module=module)
    ]


# ---------------------------------------------------------------------------
# Catalog integrity
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_all_rules_have_unique_ids(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        assert len(rules) >= 11

    def test_rules_carry_rationale_and_severity(self):
        for rule in all_rules():
            assert rule.rationale, rule.id
            assert rule.name, rule.id
            assert isinstance(rule.severity, Severity), rule.id

    def test_known_ids_include_meta(self):
        assert META_RULE_IDS <= known_rule_ids()

    def test_get_rule(self):
        assert get_rule("REP101").name == "lambda-task"

    def test_select_rules_rejects_unknown_id(self):
        with pytest.raises(ValueError):
            select_rules(select=["REP999"])
        with pytest.raises(ValueError):
            select_rules(ignore=["NOPE"])

    def test_select_filters(self):
        only = select_rules(select=["REP402"])
        assert [rule.id for rule in only] == ["REP402"]
        rest = select_rules(ignore=["REP402"])
        assert "REP402" not in {rule.id for rule in rest}

    def test_meta_ids_accepted_in_select_and_ignore(self):
        # Historically raised ValueError: REP002 exists only in the meta
        # set, not the catalog.
        assert select_rules(ignore=["REP002"])
        assert select_rules(select=["REP000"]) == []
        from repro.devtools import selected_meta_ids

        assert "REP002" not in selected_meta_ids(ignore=["REP002"])
        assert selected_meta_ids(select=["REP000"]) == frozenset({"REP000"})
        assert selected_meta_ids() == META_RULE_IDS


# ---------------------------------------------------------------------------
# REP1xx — fork safety
# ---------------------------------------------------------------------------


class TestForkSafety:
    def test_lambda_into_run_shards(self):
        source = """\
        from repro.engine.executor import run_shards

        def go(backend, tasks):
            return run_shards(backend, lambda t: t * 2, tasks)
        """
        assert findings_of(source) == [("REP101", 4)]

    def test_lambda_alias_into_submit(self):
        source = """\
        double = lambda t: t * 2

        def go(pool, task):
            return pool.submit(double, task)
        """
        assert ("REP101", 4) in findings_of(source)

    def test_lambda_via_fn_keyword(self):
        source = """\
        def go(backend, tasks):
            return run_shards(backend, tasks=tasks, fn=lambda t: t)
        """
        assert findings_of(source) == [("REP101", 2)]

    def test_local_function_task(self):
        source = """\
        def go(backend, tasks):
            def worker(task):
                return task
            return run_shards(backend, worker, tasks)
        """
        assert findings_of(source) == [("REP102", 4)]

    def test_bound_method_task(self):
        source = """\
        class Miner:
            def work(self, task):
                return task

            def go(self, backend, tasks):
                return run_shards(backend, self.work, tasks)
        """
        assert findings_of(source) == [("REP103", 6)]

    def test_module_level_function_is_clean(self):
        source = """\
        def worker(task):
            return task

        def go(backend, tasks):
            return run_shards(backend, worker, tasks)
        """
        assert findings_of(source) == []

    def test_builtin_map_not_a_sink(self):
        source = """\
        def go(items):
            return list(map(lambda x: x + 1, items))
        """
        assert findings_of(source) == []

    def test_poolish_map_is_a_sink(self):
        source = """\
        def go(backend, tasks):
            return backend.map(lambda t: t, tasks)
        """
        assert findings_of(source) == [("REP101", 2)]


# ---------------------------------------------------------------------------
# REP2xx — pattern immutability
# ---------------------------------------------------------------------------


class TestImmutability:
    def test_attribute_assignment_outside_owner(self):
        source = """\
        def tamper(pattern):
            pattern._positions = ()
        """
        assert findings_of(source, module="repro.core.hitset") == [("REP201", 2)]

    def test_node_count_assignment_outside_owner(self):
        source = """\
        def tamper(node):
            node.count = 99
        """
        assert findings_of(source, module="repro.engine.merge") == [("REP201", 2)]

    def test_assignment_inside_owner_is_clean(self):
        source = """\
        def rebuild(pattern):
            pattern._positions = ()
        """
        assert findings_of(source, module="repro.core.pattern") == []

    def test_inplace_mutation_of_protected_attr(self):
        source = """\
        def tamper(node):
            node.children.clear()
        """
        assert findings_of(source, module="repro.core.hitset") == [("REP202", 2)]

    def test_subscript_write_into_protected_attr(self):
        source = """\
        def tamper(tree, key, node):
            tree._index[key] = node
        """
        assert findings_of(source, module="repro.engine.merge") == [("REP202", 2)]

    def test_unprotected_attrs_are_clean(self):
        source = """\
        def fine(thing):
            thing.results = []
            thing.results.append(1)
        """
        assert findings_of(source, module="repro.core.hitset") == []


# ---------------------------------------------------------------------------
# REP3xx — determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_unseeded_stdlib_random(self):
        source = """\
        import random

        def jitter():
            return random.random()
        """
        assert findings_of(source, module="repro.core.util") == [("REP301", 4)]

    def test_unseeded_numpy_random(self):
        source = """\
        import numpy as np

        def noise(n):
            return np.random.rand(n)
        """
        assert findings_of(source, module="repro.core.util") == [("REP301", 4)]

    def test_bad_from_import(self):
        source = """\
        from random import shuffle
        """
        assert findings_of(source, module="repro.core.util") == [("REP301", 1)]

    def test_seeded_generator_is_clean(self):
        source = """\
        import random
        import numpy as np

        def sample(seed):
            rng = random.Random(seed)
            gen = np.random.default_rng(seed)
            return rng.random(), gen.random()
        """
        assert findings_of(source, module="repro.core.util") == []

    def test_synth_package_is_exempt(self):
        source = """\
        import random

        def jitter():
            return random.random()
        """
        assert findings_of(source, module="repro.synth.generator") == []

    def test_outside_repro_is_exempt(self):
        source = """\
        import random

        def jitter():
            return random.random()
        """
        assert findings_of(source, module="somelib.util") == []


# ---------------------------------------------------------------------------
# REP4xx — API hygiene
# ---------------------------------------------------------------------------


class TestHygiene:
    def test_all_drift_stale_entry(self):
        source = """\
        __all__ = ["exists", "ghost"]

        def exists():
            return 1
        """
        assert findings_of(source) == [("REP401", 1)]

    def test_all_drift_unlisted_public_name(self):
        source = """\
        __all__ = ["listed"]

        def listed():
            return 1

        def unlisted():
            return 2
        """
        assert findings_of(source) == [("REP401", 6)]

    def test_no_all_declared_is_clean(self):
        source = """\
        def anything():
            return 1
        """
        assert findings_of(source) == []

    def test_mutable_default(self):
        source = """\
        def f(xs=[]):
            return xs
        """
        assert findings_of(source) == [("REP402", 1)]

    def test_mutable_default_call_factory(self):
        source = """\
        def f(*, cache=dict()):
            return cache
        """
        assert findings_of(source) == [("REP402", 1)]

    def test_none_default_is_clean(self):
        source = """\
        def f(xs=None):
            return xs or []
        """
        assert findings_of(source) == []

    def test_bare_except(self):
        source = """\
        def f():
            try:
                return 1
            except:
                return 2
        """
        assert findings_of(source) == [("REP403", 4)]

    def test_overbroad_except(self):
        source = """\
        def f():
            try:
                return 1
            except Exception:
                return 2
        """
        assert findings_of(source) == [("REP404", 4)]

    def test_narrow_except_is_clean(self):
        source = """\
        def f():
            try:
                return 1
            except ValueError:
                return 2
        """
        assert findings_of(source) == []

    def test_missing_slots_in_hot_path_package(self):
        source = """\
        class Hot:
            def __init__(self):
                self.x = 1
        """
        findings = analyze_source(textwrap.dedent(source), module="repro.core.thing")
        assert [(f.rule_id, f.line) for f in findings] == [("REP405", 1)]
        assert findings[0].severity is Severity.WARNING

    def test_slots_class_is_clean(self):
        source = """\
        class Hot:
            __slots__ = ("x",)

            def __init__(self):
                self.x = 1
        """
        assert findings_of(source, module="repro.core.thing") == []

    def test_exception_classes_exempt_from_slots(self):
        source = """\
        class MiningError(Exception):
            pass
        """
        assert findings_of(source, module="repro.core.errors") == []

    def test_slots_not_required_outside_hot_packages(self):
        source = """\
        class Anywhere:
            def __init__(self):
                self.x = 1
        """
        assert findings_of(source, module="repro.analysis.thing") == []


class TestLazyExports:
    """REP401 on lazy packages: the table, its targets and its mirror."""

    TARGET = """\
        def helper():
            return 1
        """

    @staticmethod
    def lazy_findings(tmp_path, init: str) -> list[tuple[str, int, str]]:
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "impl.py").write_text(
            textwrap.dedent(TestLazyExports.TARGET), encoding="utf-8"
        )
        (package / "__init__.py").write_text(
            textwrap.dedent(init), encoding="utf-8"
        )
        return [
            (finding.rule_id, finding.line, finding.message)
            for finding in analyze_paths([package], select=["REP401"])
        ]

    def test_table_entry_bound_by_target_is_clean(self, tmp_path):
        init = """\
        from typing import TYPE_CHECKING

        from repro._lazy import lazy_exports

        __getattr__, __dir__ = lazy_exports(__name__, {
            "pkg.impl": ("helper",),
        })

        if TYPE_CHECKING:
            from pkg.impl import helper

        __all__ = ["helper"]
        """
        assert self.lazy_findings(tmp_path, init) == []

    def test_name_in_neither_place_flagged(self, tmp_path):
        init = """\
        from typing import TYPE_CHECKING

        from repro._lazy import lazy_exports

        __getattr__, __dir__ = lazy_exports(__name__, {
            "pkg.impl": ("helper",),
        })

        if TYPE_CHECKING:
            from pkg.impl import helper

        __all__ = ["ghost", "helper"]
        """
        [(rule, line, message)] = self.lazy_findings(tmp_path, init)
        assert (rule, line) == ("REP401", 12)
        assert "'ghost'" in message and "never binds" in message

    def test_table_entry_target_does_not_bind_flagged(self, tmp_path):
        init = """\
        from typing import TYPE_CHECKING

        from repro._lazy import lazy_exports

        __getattr__, __dir__ = lazy_exports(__name__, {
            "pkg.impl": ("helper", "missing"),
        })

        if TYPE_CHECKING:
            from pkg.impl import helper, missing

        __all__ = ["helper", "missing"]
        """
        [(rule, line, message)] = self.lazy_findings(tmp_path, init)
        assert (rule, line) == ("REP401", 6)
        assert "'missing'" in message and "'pkg.impl'" in message

    CLEAN_INIT = """\
        from typing import TYPE_CHECKING

        from repro._lazy import lazy_exports

        __getattr__, __dir__ = lazy_exports(__name__, {
            "pkg.impl": ("helper", "missing"),
        })

        if TYPE_CHECKING:
            from pkg.impl import helper, missing

        __all__ = ["helper", "missing"]
        """

    def test_targets_come_from_the_runs_parsed_files(
        self, tmp_path, monkeypatch
    ):
        from repro.devtools.context import ModuleContext

        parsed: list[str] = []
        real = ModuleContext.from_source.__func__

        def counting(cls, source, path="<string>", module=None):
            parsed.append(Path(path).name)
            return real(cls, source, path=path, module=module)

        monkeypatch.setattr(
            ModuleContext, "from_source", classmethod(counting)
        )
        findings = self.lazy_findings(tmp_path, self.CLEAN_INIT)
        assert [(rule, line) for rule, line, _ in findings] == [
            ("REP401", 6)
        ]
        assert sorted(parsed) == ["__init__.py", "impl.py"]

    def test_target_outside_the_run_is_read_from_disk(self, tmp_path):
        self.lazy_findings(tmp_path, self.CLEAN_INIT)
        findings = analyze_paths(
            [tmp_path / "pkg" / "__init__.py"], select=["REP401"]
        )
        assert [(f.rule_id, f.line) for f in findings] == [("REP401", 6)]

    def test_type_checking_import_alone_is_not_a_binding(self):
        source = """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from pkg.impl import helper

        __all__ = ["helper"]
        """
        assert findings_of(source) == [("REP401", 6)]

    def test_mirror_out_of_step_with_table_flagged(self, tmp_path):
        init = """\
        from typing import TYPE_CHECKING

        from repro._lazy import lazy_exports

        __getattr__, __dir__ = lazy_exports(__name__, {
            "pkg.impl": ("helper",),
        })

        if TYPE_CHECKING:
            from pkg.other import helper, extra

        __all__ = ["helper"]
        """
        findings = self.lazy_findings(tmp_path, init)
        assert [(rule, line) for rule, line, _ in findings] == [
            ("REP401", 6), ("REP401", 10),
        ]
        assert "TYPE_CHECKING" in findings[0][2]
        assert "'extra'" in findings[1][2]

    def test_table_name_missing_from_all_flagged(self, tmp_path):
        init = """\
        from typing import TYPE_CHECKING

        from repro._lazy import lazy_exports

        __getattr__, __dir__ = lazy_exports(__name__, {
            "pkg.impl": ("helper",),
        })

        if TYPE_CHECKING:
            from pkg.impl import helper

        __all__ = []
        """
        [(rule, line, message)] = self.lazy_findings(tmp_path, init)
        assert (rule, line) == ("REP401", 6)
        assert "not listed in __all__" in message


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_suppression_with_reason_silences_finding(self):
        source = """\
        def f(xs=[]):  # repro: ignore[REP402] -- fixture: shared default is the point
            return xs
        """
        assert findings_of(source) == []

    def test_suppression_without_reason_is_inert_and_reported(self):
        source = """\
        def f(xs=[]):  # repro: ignore[REP402]
            return xs
        """
        assert findings_of(source) == [("REP002", 1), ("REP402", 1)]

    def test_unknown_rule_id_reported(self):
        source = """\
        x = 1  # repro: ignore[REP999] -- no such rule
        """
        assert findings_of(source) == [("REP001", 1)]

    def test_suppression_covers_only_named_rules(self):
        source = """\
        def f(xs=[]):  # repro: ignore[REP403] -- wrong rule named
            return xs
        """
        assert findings_of(source) == [("REP402", 1)]

    def test_multiple_ids_in_one_comment(self):
        sups = parse_suppressions(
            "x = 1  # repro: ignore[REP101, REP404] -- both intentional\n"
        )
        assert sups[1].rule_ids == ("REP101", "REP404")
        assert sups[1].covers("REP404")
        assert sups[1].has_reason

    def test_suppression_text_in_docstring_is_inert(self):
        source = '''\
        def f():
            """Docs may say # repro: ignore[REP402] without suppressing."""
            return 1
        '''
        assert parse_suppressions(textwrap.dedent(source)) == {}

    def test_suppressions_survive_syntax_errors(self):
        source = "def broken(:\n    pass  # repro: ignore[REP402] -- still parsed\n"
        assert 2 in parse_suppressions(source)

    def test_syntax_error_reports_rep000(self):
        findings = analyze_source("def broken(:\n")
        assert [f.rule_id for f in findings] == ["REP000"]

    def test_multi_rule_comment_suppresses_each_named_rule(self):
        source = """\
        def f(xs=[], ys={}):  # repro: ignore[REP402, REP404] -- fixture: both named on one comment
            return xs, ys
        """
        assert findings_of(source) == []

    def test_multi_rule_comment_leaves_unnamed_rules_alone(self):
        source = """\
        def f(xs=[]):  # repro: ignore[REP103, REP404] -- names the wrong rules
            return xs
        """
        assert findings_of(source) == [("REP402", 1)]

    def test_rep002_respects_ignore(self):
        source = "def f(xs=[]):  # repro: ignore[REP402]\n    return xs\n"
        findings = analyze_source(source, meta_ids=frozenset())
        # The reasonless suppression is still inert (REP402 reported),
        # but the REP002 meta finding itself is filtered out.
        assert [f.rule_id for f in findings] == ["REP402"]

    def test_rep001_respects_select(self):
        source = "x = 1  # repro: ignore[REP999] -- no such rule\n"
        findings = analyze_source(source, meta_ids=frozenset({"REP002"}))
        assert findings == []


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(x):\n    return x\n")
        assert lint_run([str(tmp_path)]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_exit_one_on_seeded_lambda_violation(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro" / "engine"
        package.mkdir(parents=True)
        for init in (package.parent / "__init__.py", package / "__init__.py"):
            init.write_text("")
        (package / "bad.py").write_text(
            "def go(backend, tasks):\n"
            "    return run_shards(backend, lambda t: t, tasks)\n"
        )
        assert lint_run([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP101" in out
        assert "bad.py:2" in out

    def test_exit_one_on_seeded_unseeded_random(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        for init in (package.parent / "__init__.py", package / "__init__.py"):
            init.write_text("")
        (package / "rand.py").write_text(
            "import random\n\ndef jitter():\n    return random.random()\n"
        )
        assert lint_run([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP301" in out
        assert "rand.py:4" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_run([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule_id(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_run([str(tmp_path)], select="REP999") == 2

    def test_strict_promotes_warnings(self, tmp_path):
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        for init in (package.parent / "__init__.py", package / "__init__.py"):
            init.write_text("")
        (package / "hot.py").write_text(
            "class Hot:\n    def __init__(self):\n        self.x = 1\n"
        )
        assert lint_run([str(tmp_path)]) == 0
        assert lint_run([str(tmp_path)], strict=True) == 1

    def test_json_output(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        assert lint_run([str(tmp_path)], output_format="json") == 1
        out = capsys.readouterr().out
        assert '"rule": "REP402"' in out

    def test_json_schema_is_stable(self, tmp_path, capsys):
        import json

        (tmp_path / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        lint_run([str(tmp_path)], output_format="json")
        [row] = json.loads(capsys.readouterr().out)
        assert set(row) == {
            "path", "line", "col", "rule", "severity", "message", "baselined",
        }
        assert row["baselined"] is False

    def test_ignore_rep002_no_longer_raises(self, tmp_path, capsys):
        # Historically ``--ignore REP002`` exited 2 with "unknown rule
        # ids" because the meta set was not consulted.
        (tmp_path / "bad.py").write_text(
            "def f(xs=[]):  # repro: ignore[REP402]\n    return xs\n"
        )
        assert lint_run([str(tmp_path)], ignore="REP002") == 1
        out = capsys.readouterr().out
        assert "REP402" in out  # reasonless suppression still inert
        assert "REP002" not in out  # but the meta finding is silenced

    def test_virtualenv_directories_skipped(self, tmp_path):
        for env_dir in (".venv", "venv", ".tox"):
            bad = tmp_path / env_dir / "lib" / "bad.py"
            bad.parent.mkdir(parents=True)
            bad.write_text("def f(xs=[]):\n    return xs\n")
        assert lint_run([str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# Self-check: the shipped tree is clean
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_shipped_tree_has_zero_unsuppressed_findings(self):
        findings = analyze_paths(
            [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"]
        )
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_module_placement_resolves_packages(self):
        from repro.devtools import module_name_of

        path = REPO_ROOT / "src" / "repro" / "durability" / "files.py"
        assert module_name_of(path) == "repro.durability.files"


# ---------------------------------------------------------------------------
# Resilience rules (REP6xx)
# ---------------------------------------------------------------------------


class TestResilienceRules:
    def test_stray_time_sleep_flagged(self):
        source = """
        import time

        def wait():
            time.sleep(1.0)
        """
        assert findings_of(source, module="repro.engine.executor") == [
            ("REP601", 5)
        ]

    def test_aliased_module_import_flagged(self):
        source = """
        import time as clock

        def wait():
            clock.sleep(0.5)
        """
        assert findings_of(source, module="repro.core.util") == [("REP601", 5)]

    def test_from_import_sleep_flagged(self):
        source = """
        from time import sleep

        def wait():
            sleep(0.5)
        """
        assert findings_of(source, module="repro.core.util") == [("REP601", 5)]

    def test_sanctioned_backoff_module_exempt(self):
        source = """
        import time

        def sleep(seconds):
            if seconds > 0:
                time.sleep(seconds)
        """
        assert findings_of(source, module="repro.serve.deadline") == []

    def test_non_repro_package_exempt(self):
        source = """
        import time

        def wait():
            time.sleep(1.0)
        """
        assert findings_of(source, module="somelib.util") == []

    def test_unrelated_sleep_name_not_flagged(self):
        source = """
        def sleep(seconds):
            return seconds

        def wait():
            sleep(1.0)
        """
        assert findings_of(source, module="repro.core.util") == []

    def test_unbounded_retry_loop_flagged(self):
        source = """
        def poll(fetch):
            while True:
                try:
                    fetch()
                except ValueError:
                    pass
        """
        assert findings_of(source, module="repro.engine.executor") == [
            ("REP602", 3)
        ]

    def test_loop_with_break_in_handler_clean(self):
        source = """
        def poll(fetch):
            while True:
                try:
                    fetch()
                except ValueError:
                    break
        """
        assert findings_of(source, module="repro.engine.executor") == []

    def test_loop_with_reraise_clean(self):
        source = """
        def poll(fetch):
            while True:
                try:
                    fetch()
                except ValueError:
                    raise
        """
        assert findings_of(source, module="repro.engine.executor") == []

    def test_loop_with_return_escape_clean(self):
        source = """
        def poll(fetch):
            while True:
                try:
                    return fetch()
                except ValueError:
                    pass
                return None
        """
        assert findings_of(source, module="repro.engine.executor") == []

    def test_bounded_while_not_flagged(self):
        source = """
        def poll(fetch, policy):
            attempts = 0
            while attempts < 5:
                try:
                    fetch()
                except ValueError:
                    pass
                attempts += 1
        """
        assert findings_of(source, module="repro.engine.executor") == []


# ---------------------------------------------------------------------------
# Serve rules (REP8xx)
# ---------------------------------------------------------------------------


class TestServeRules:
    def test_time_sleep_in_coroutine_flagged(self):
        source = """
        import time

        async def handler():
            time.sleep(1.0)
        """
        findings = findings_of(source, module="repro.serve.app")
        assert ("REP801", 5) in findings

    def test_open_in_coroutine_flagged(self):
        source = """
        async def handler(path):
            with open(path) as handle:
                return handle.read()
        """
        assert ("REP801", 3) in findings_of(
            source, module="repro.serve.registry"
        )

    def test_path_io_in_coroutine_flagged(self):
        source = """
        async def handler(path):
            return path.read_text()
        """
        assert ("REP801", 3) in findings_of(
            source, module="repro.serve.app"
        )

    def test_subprocess_in_coroutine_flagged(self):
        source = """
        import subprocess

        async def handler():
            subprocess.run(["true"])
        """
        assert ("REP801", 5) in findings_of(
            source, module="repro.serve.app"
        )

    def test_nested_sync_def_exempt_as_executor_payload(self):
        source = """
        import asyncio

        async def handler(path):
            def blocking():
                with open(path) as handle:
                    return handle.read()
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, blocking)
        """
        assert findings_of(source, module="repro.serve.app") == []

    def test_sync_def_not_flagged(self):
        source = """
        def loader(path):
            with open(path) as handle:
                return handle.read()
        """
        assert findings_of(source, module="repro.serve.registry") == []

    def test_outside_serve_package_exempt(self):
        source = """
        async def handler(path):
            return open(path).read()
        """
        assert findings_of(source, module="repro.kernels.cache") == []

    def test_nested_async_def_still_flagged(self):
        source = """
        import time

        async def outer():
            async def inner():
                time.sleep(0.1)
            await inner()
        """
        assert ("REP801", 6) in findings_of(
            source, module="repro.serve.server"
        )


class TestKernelRules:
    """REP701: no per-candidate count probes inside loops."""

    SOURCE = """
    def derive(tree, candidates):
        return {c: tree.count_of_mask(c) for c in candidates}

    def derive_loop(tree, candidates):
        out = {}
        for c in candidates:
            out[c] = tree.count_of_mask(c)
        return out
    """

    def test_probe_loop_flagged(self):
        assert findings_of(self.SOURCE, module="repro.core.maximal") == [
            ("REP701", 8)
        ]

    def test_tree_module_not_exempt(self):
        # The tree no longer hosts a per-candidate derivation, so the
        # rule applies there like everywhere else.
        assert findings_of(
            self.SOURCE, module="repro.tree.max_subpattern_tree"
        ) == [("REP701", 8)]


class TestColumnarRules:
    """REP1101: no Python loops over the segment store's row buffer."""

    def test_for_loop_over_masks_flagged(self):
        source = """
        def total(self):
            acc = 0
            for mask in self._rows:
                acc += mask
            return acc
        """
        assert ("REP1101", 4) in findings_of(
            source, module="repro.kernels.store"
        )

    def test_comprehension_and_wrapped_iterables_flagged(self):
        source = """
        def rows(store):
            pairs = [(i, m) for i, m in enumerate(store._rows)]
            total = sum(int(x) for x in store.rows())
            return pairs, total
        """
        found = findings_of(source, module="repro.core.hitset")
        assert found.count(("REP1101", 3)) == 1
        assert found.count(("REP1101", 4)) == 1

    def test_vectorized_calls_not_flagged(self):
        source = """
        def scan(store, masks):
            counts = store.count_masks(masks)
            return store.letter_counts(), counts
        """
        assert findings_of(source, module="repro.core.hitset") == []

    def test_outside_hot_packages_exempt(self):
        source = """
        def walk(self):
            return [mask for mask in self._rows]
        """
        assert findings_of(source, module="repro.encoding.vocabulary") == []

    def test_suppression_with_reason_honored(self):
        source = """
        def walk(self):
            return [
                row.sum()
                for row in self._rows  # repro: ignore[REP1101] -- reason here
            ]
        """
        assert findings_of(source, module="repro.kernels.store") == []
