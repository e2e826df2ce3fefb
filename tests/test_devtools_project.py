"""Tests for whole-program analysis: call graph, effects, project rules.

Fixture trees are written to ``tmp_path`` as real packages (with
``__init__.py`` markers) so :func:`module_name_of` derives the dotted
names the scoped rules key on.  Every transitivity fixture places the
effect source at least two call edges below the reported function —
exactly the case per-module analysis cannot see.
"""

from __future__ import annotations

import textwrap
import time
from pathlib import Path

import pytest

from repro.devtools import (
    Effect,
    analyze_project,
    build_project,
    effect_names,
    parse_effect_annotations,
)
from repro.devtools.baseline import (
    Baseline,
    BaselineError,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.devtools.cli import run as lint_run

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize ``relative path -> source`` with package markers."""
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        package = target.parent
        while package != root:
            marker = package / "__init__.py"
            if not marker.exists():
                marker.write_text("", encoding="utf-8")
            package = package.parent
    return root


def project_ids(root: Path, rule_id: str) -> list[tuple[str, int]]:
    """``(file name, line)`` of every finding of one rule under ``root``."""
    return [
        (Path(finding.path).name, finding.line)
        for finding in analyze_project([root])
        if finding.rule_id == rule_id
    ]


# ---------------------------------------------------------------------------
# Call graph construction
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_cross_module_call_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "repro/util.py": """\
                def helper():
                    return 1
            """,
            "repro/main.py": """\
                from repro.util import helper

                def entry():
                    return helper()
            """,
        })
        project, _ = build_project([tmp_path])
        entry = project.graph.functions["repro.main:entry"]
        assert [call.callee for call in entry.calls] == ["repro.util:helper"]

    def test_lazy_reexport_resolves_to_definition(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pkg/impl.py": """\
                def helper():
                    return 1

                class Worker:
                    def run(self):
                        return helper()
            """,
            "repro/pkg/__init__.py": """\
                from repro._lazy import lazy_exports

                __getattr__, __dir__ = lazy_exports(__name__, {
                    "repro.pkg.impl": ("Worker", "helper"),
                })
            """,
            "repro/main.py": """\
                from repro.pkg import Worker, helper

                class Entry:
                    def __init__(self):
                        self.worker = Worker()

                    def go(self):
                        helper()
                        return self.worker.run()
            """,
        })
        project, _ = build_project([tmp_path])
        entry = project.graph.functions["repro.main:Entry.go"]
        assert sorted(call.callee for call in entry.calls) == [
            "repro.pkg.impl:Worker.run",
            "repro.pkg.impl:helper",
        ]

    def test_import_alias_expands_external_call(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                import time as clock

                def wait():
                    clock.sleep(1)
            """,
        })
        project, _ = build_project([tmp_path])
        fn = project.graph.functions["repro.mod:wait"]
        assert [call.dotted for call in fn.external_calls] == ["time.sleep"]
        assert Effect.SLEEPS & project.inference.effects_of(fn.key)

    def test_self_attribute_method_dispatch(self, tmp_path):
        write_tree(tmp_path, {
            "repro/parts.py": """\
                class Store:
                    def save(self):
                        return open("x")
            """,
            "repro/app.py": """\
                from repro.parts import Store

                class App:
                    def __init__(self):
                        self.store = Store()

                    def flush(self):
                        return self.store.save()
            """,
        })
        project, _ = build_project([tmp_path])
        flush = project.graph.functions["repro.app:App.flush"]
        assert [call.callee for call in flush.calls] == [
            "repro.parts:Store.save"
        ]
        assert Effect.BLOCKING_IO & project.inference.effects_of(flush.key)

    def test_nested_function_free_names(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                def outer(seed):
                    factor = seed * 2

                    def inner(x):
                        return x * factor

                    return inner
            """,
        })
        project, _ = build_project([tmp_path])
        inner = project.graph.functions["repro.mod:outer.inner"]
        assert inner.is_nested
        assert inner.free_names == frozenset({"factor"})
        assert Effect.UNPICKLABLE_CLOSURE & project.inference.effects_of(
            inner.key
        )


# ---------------------------------------------------------------------------
# Effect inference
# ---------------------------------------------------------------------------


class TestEffectInference:
    def test_recursive_cycle_reaches_fixpoint(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                import time

                def ping(n):
                    time.sleep(0.1)
                    return pong(n - 1) if n else 0

                def pong(n):
                    return ping(n)
            """,
        })
        project, _ = build_project([tmp_path])
        for name in ("ping", "pong"):
            effects = project.inference.effects_of(f"repro.mod:{name}")
            assert Effect.SLEEPS & effects, name

    def test_effect_names_stable_spelling(self):
        assert effect_names(Effect.BLOCKING_IO | Effect.FORKS) == [
            "blocking-io",
            "forks",
        ]

    def test_trusted_annotation_fixes_effect_set(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                import time

                def journal():  # repro: effect[blocking-io] -- verified: appends one line
                    time.sleep(1)
                    return open("journal")
            """,
        })
        project, _ = build_project([tmp_path])
        effects = project.inference.effects_of("repro.mod:journal")
        # The declaration replaces inference outright: blocking-io as
        # declared, and the body's time.sleep is NOT added.
        assert Effect.BLOCKING_IO & effects
        assert not (Effect.SLEEPS & effects)

    def test_annotation_parsing_rejects_unknown_names(self):
        notes = parse_effect_annotations(
            "def f():  # repro: effect[teleports] -- hmm\n    pass\n"
        )
        assert notes[1].unknown == ("teleports",)
        assert not notes[1].trusted

    def test_annotation_without_reason_not_trusted(self):
        notes = parse_effect_annotations(
            "def f():  # repro: effect[pure]\n    pass\n"
        )
        assert not notes[1].trusted


# ---------------------------------------------------------------------------
# REP811 — coroutine transitively blocks (repro.serve)
# ---------------------------------------------------------------------------


class TestRep811:
    def test_blocking_two_calls_deep_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/serve/svc.py": """\
                import time

                def deep():
                    time.sleep(0.5)

                def middle():
                    return deep()

                async def handler(request):
                    return middle()
            """,
        })
        assert project_ids(tmp_path, "REP811") == [("svc.py", 9)]

    def test_blocking_through_lazy_package_name_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/io/disk.py": """\
                import time

                def deep():
                    time.sleep(0.5)
            """,
            "repro/io/__init__.py": """\
                from repro._lazy import lazy_exports

                __getattr__, __dir__ = lazy_exports(__name__, {
                    "repro.io.disk": ("deep",),
                })
            """,
            "repro/serve/svc.py": """\
                from repro.io import deep

                def middle():
                    return deep()

                async def handler(request):
                    return middle()
            """,
        })
        assert project_ids(tmp_path, "REP811") == [("svc.py", 6)]

    def test_chain_message_names_every_hop(self, tmp_path):
        write_tree(tmp_path, {
            "repro/serve/svc.py": """\
                def deep():
                    return open("f")

                def middle():
                    return deep()

                async def handler(request):
                    return middle()
            """,
        })
        [finding] = [
            f for f in analyze_project([tmp_path]) if f.rule_id == "REP811"
        ]
        assert "repro.serve.svc:handler" in finding.message
        assert "repro.serve.svc:middle" in finding.message
        assert "repro.serve.svc:deep" in finding.message
        assert "open()" in finding.message

    def test_direct_blocking_left_to_rep801(self, tmp_path):
        write_tree(tmp_path, {
            "repro/serve/svc.py": """\
                import time

                async def handler(request):
                    time.sleep(0.5)
            """,
        })
        findings = analyze_project([tmp_path])
        assert "REP801" in [f.rule_id for f in findings if f.line == 4]
        assert not [f for f in findings if f.rule_id == "REP811"]

    def test_reported_at_boundary_coroutine_only(self, tmp_path):
        write_tree(tmp_path, {
            "repro/serve/svc.py": """\
                import time

                def deep():
                    time.sleep(0.5)

                async def inner():
                    return deep()

                async def outer():
                    return await inner()
            """,
        })
        # inner is the boundary; outer's effect arrives through a serve
        # coroutine that already carries the finding.
        assert project_ids(tmp_path, "REP811") == [("svc.py", 6)]

    def test_trusted_annotation_passes_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/serve/svc.py": """\
                import time

                def deep():
                    time.sleep(0.5)

                def middle():  # repro: effect[pure] -- fixture: verified boundary
                    return deep()

                async def handler(request):
                    return middle()
            """,
        })
        assert project_ids(tmp_path, "REP811") == []

    def test_outside_serve_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/other/svc.py": """\
                import time

                def deep():
                    time.sleep(0.5)

                async def handler(request):
                    return deep()
            """,
        })
        assert project_ids(tmp_path, "REP811") == []


# ---------------------------------------------------------------------------
# REP111 — submitted task transitively hazardous
# ---------------------------------------------------------------------------


class TestRep111:
    def test_transitive_fork_two_calls_deep(self, tmp_path):
        write_tree(tmp_path, {
            "repro/jobs.py": """\
                import subprocess

                def shell():
                    return subprocess.run(["true"])

                def helper():
                    return shell()

                def task(item):
                    return helper()

                def go(pool, items):
                    return pool.submit(task, items)
            """,
        })
        assert project_ids(tmp_path, "REP111") == [("jobs.py", 13)]
        [finding] = [
            f for f in analyze_project([tmp_path]) if f.rule_id == "REP111"
        ]
        assert "forks" in finding.message
        assert "repro.jobs:task" in finding.message
        assert "subprocess.run()" in finding.message

    def test_transitive_lock_acquisition(self, tmp_path):
        write_tree(tmp_path, {
            "repro/jobs.py": """\
                import threading

                _lock = threading.Lock()

                def locked():
                    with _lock:
                        return 1

                def task(item):
                    return locked()

                def go(backend, items):
                    return run_shards(backend, task, items)
            """,
        })
        [finding] = [
            f for f in analyze_project([tmp_path]) if f.rule_id == "REP111"
        ]
        assert "acquires-lock" in finding.message

    def test_partial_wrapped_task_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "repro/jobs.py": """\
                import functools
                import subprocess

                def helper():
                    return subprocess.run(["true"])

                def task(limit, item):
                    return helper()

                def go(pool, items):
                    return pool.submit(functools.partial(task, 5), items)
            """,
        })
        assert project_ids(tmp_path, "REP111") == [("jobs.py", 11)]

    def test_clean_task_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/jobs.py": """\
                def task(item):
                    return item * 2

                def go(pool, items):
                    return pool.submit(task, items)
            """,
        })
        assert project_ids(tmp_path, "REP111") == []

    def test_trusted_annotation_passes_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/jobs.py": """\
                import subprocess

                def helper():  # repro: effect[pure] -- fixture: verified boundary
                    return subprocess.run(["true"])

                def task(item):
                    return helper()

                def go(pool, items):
                    return pool.submit(task, items)
            """,
        })
        assert project_ids(tmp_path, "REP111") == []


# ---------------------------------------------------------------------------
# REP311 — counting/merge path transitively nondeterministic
# ---------------------------------------------------------------------------


class TestRep311:
    def test_wall_clock_two_calls_deep(self, tmp_path):
        write_tree(tmp_path, {
            "repro/util/clock.py": """\
                import time

                def stamp():
                    return time.time()
            """,
            "repro/core/merge.py": """\
                from repro.util.clock import stamp

                def prepare(counts):
                    return (stamp(), counts)

                def merge(counts):
                    return prepare(counts)
            """,
        })
        # prepare is where nondeterminism enters the scoped packages;
        # merge's effect arrives through in-scope prepare and is not
        # reported again.
        assert project_ids(tmp_path, "REP311") == [("merge.py", 4)]
        [finding] = [
            f for f in analyze_project([tmp_path]) if f.rule_id == "REP311"
        ]
        assert "repro.util.clock:stamp" in finding.message
        assert "time.time()" in finding.message

    def test_unseeded_random_two_calls_deep(self, tmp_path):
        write_tree(tmp_path, {
            "repro/util/shuffle.py": """\
                import random

                def scramble(xs):
                    random.shuffle(xs)
                    return xs
            """,
            "repro/tree/walk.py": """\
                from repro.util.shuffle import scramble

                def order(nodes):
                    return scramble(list(nodes))
            """,
        })
        # random.shuffle lives outside the scoped packages, so REP301
        # never sees the scoped caller; REP311 reports the chain.
        assert project_ids(tmp_path, "REP311") == [("walk.py", 4)]
        [finding] = [
            f for f in analyze_project([tmp_path]) if f.rule_id == "REP311"
        ]
        assert "random.shuffle()" in finding.message

    def test_direct_wall_clock_in_scope_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/kernels/count.py": """\
                import time

                def count(series):
                    return (time.time(), len(series))
            """,
        })
        assert project_ids(tmp_path, "REP311") == [("count.py", 4)]

    def test_direct_unseeded_random_left_to_rep301(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/count.py": """\
                import random

                def count(series):
                    return random.random()
            """,
        })
        findings = analyze_project([tmp_path])
        assert [f.rule_id for f in findings] == ["REP301"]

    def test_outside_scope_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/synth/gen.py": """\
                import time

                def jitter():
                    return time.time()
            """,
        })
        assert project_ids(tmp_path, "REP311") == []

    def test_trusted_annotation_passes_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/util/clock.py": """\
                import time

                def stamp():  # repro: effect[pure] -- fixture: verified boundary
                    return time.time()
            """,
            "repro/core/merge.py": """\
                from repro.util.clock import stamp

                def merge(counts):
                    return (stamp(), counts)
            """,
        })
        assert project_ids(tmp_path, "REP311") == []


class TestRep901:
    """Unbounded growth detection in streaming-tier methods."""

    def test_growth_without_eviction_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/streaming/mod.py": """\
                class Engine:
                    def __init__(self):
                        self.events = []

                    def take(self, event):
                        self.events.append(event)
            """,
        })
        assert project_ids(tmp_path, "REP901") == [("mod.py", 6)]

    def test_eviction_in_same_method_clears(self, tmp_path):
        write_tree(tmp_path, {
            "repro/streaming/mod.py": """\
                class Engine:
                    def __init__(self):
                        self.events = []

                    def take(self, event):
                        self.events.append(event)
                        if len(self.events) > 100:
                            self.events.pop(0)
            """,
        })
        assert project_ids(tmp_path, "REP901") == []

    def test_watermark_consultation_clears(self, tmp_path):
        write_tree(tmp_path, {
            "repro/streaming/mod.py": """\
                class Buffer:
                    def add(self, when, event):
                        if when < self.watermark:
                            return False
                        self.open.setdefault(when, set()).add(event)
                        return True
            """,
        })
        assert project_ids(tmp_path, "REP901") == []

    def test_del_statement_counts_as_eviction(self, tmp_path):
        write_tree(tmp_path, {
            "repro/streaming/mod.py": """\
                class Engine:
                    def rotate(self, event):
                        self.events.append(event)
                        del self.events[0]
            """,
        })
        assert project_ids(tmp_path, "REP901") == []

    def test_bare_self_method_call_is_not_growth(self, tmp_path):
        # self.append(...) delegates to the object's own method — the
        # delegate is audited on its own; the call site is not growth.
        write_tree(tmp_path, {
            "repro/streaming/mod.py": """\
                class Engine:
                    def extend(self, events):
                        for event in events:
                            self.append(event)
            """,
        })
        assert project_ids(tmp_path, "REP901") == []

    def test_local_collections_are_ignored(self, tmp_path):
        write_tree(tmp_path, {
            "repro/streaming/mod.py": """\
                def fold(items):
                    out = []
                    for item in items:
                        out.append(item)
                    return out
            """,
        })
        assert project_ids(tmp_path, "REP901") == []

    def test_outside_streaming_package_not_checked(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/mod.py": """\
                class Accumulator:
                    def take(self, event):
                        self.events.append(event)
            """,
        })
        assert project_ids(tmp_path, "REP901") == []

    def test_message_names_method_and_collection(self, tmp_path):
        write_tree(tmp_path, {
            "repro/streaming/mod.py": """\
                class Ring:
                    def push(self, item):
                        self._items.append(item)
            """,
        })
        [finding] = [
            f for f in analyze_project([tmp_path]) if f.rule_id == "REP901"
        ]
        assert "Ring.push()" in finding.message
        assert "self._items.append()" in finding.message
        assert "baseline" in finding.message


# ---------------------------------------------------------------------------
# Project-mode meta findings: REP003 / REP004
# ---------------------------------------------------------------------------


class TestProjectMeta:
    def test_unused_suppression_reported(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                def clean(x):  # repro: ignore[REP402] -- nothing here anymore
                    return x
            """,
        })
        findings = analyze_project([tmp_path])
        assert [(f.rule_id, f.line) for f in findings] == [("REP003", 1)]

    def test_used_suppression_not_reported(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                def f(xs=[]):  # repro: ignore[REP402] -- fixture: shared default is the point
                    return xs
            """,
        })
        assert analyze_project([tmp_path]) == []

    def test_unused_suppression_silent_in_module_mode(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                def clean(x):  # repro: ignore[REP402] -- nothing here anymore
                    return x
            """,
        })
        assert lint_run([str(tmp_path)]) == 0

    def test_unused_suppression_skipped_when_rule_not_selected(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                def clean(x):  # repro: ignore[REP402] -- dormant under --select
                    return x
            """,
        })
        findings = analyze_project([tmp_path], select=["REP101", "REP003"])
        assert findings == []

    def test_suppressed_project_finding_marks_suppression_used(self, tmp_path):
        write_tree(tmp_path, {
            "repro/serve/svc.py": """\
                def deep():
                    return open("f")

                def middle():
                    return deep()

                async def handler(request):  # repro: ignore[REP811] -- fixture: accepted stall
                    return middle()
            """,
        })
        assert analyze_project([tmp_path]) == []

    def test_malformed_annotation_reported_rep004(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                def f():  # repro: effect[teleports] -- no such effect
                    return 1

                def g():  # repro: effect[pure]
                    return 2
            """,
        })
        findings = analyze_project([tmp_path])
        assert [(f.rule_id, f.line) for f in findings] == [
            ("REP004", 1),
            ("REP004", 4),
        ]

    def test_meta_ids_respect_ignore(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mod.py": """\
                def f():  # repro: effect[pure]
                    return 1
            """,
        })
        assert analyze_project([tmp_path], ignore=["REP004"]) == []


# ---------------------------------------------------------------------------
# Baseline ratchet
# ---------------------------------------------------------------------------


class TestBaseline:
    def _findings(self, tmp_path):
        write_tree(tmp_path, {
            "repro/serve/svc.py": """\
                import time

                def deep():
                    time.sleep(0.5)

                async def handler(request):
                    return deep()
            """,
        })
        return analyze_project([tmp_path])

    def test_round_trip_partition(self, tmp_path):
        findings = self._findings(tmp_path)
        assert findings
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        baseline = load_baseline(baseline_file)
        new, known = baseline.partition(findings)
        assert new == []
        assert known == findings

    def test_new_finding_fails_ratchet(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [])
        assert lint_run(
            [str(tmp_path / "repro")],
            project=True,
            baseline=str(baseline_file),
        ) == 1

    def test_baselined_finding_passes_ratchet(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        assert lint_run(
            [str(tmp_path / "repro")],
            project=True,
            baseline=str(baseline_file),
        ) == 0

    def test_fingerprint_is_line_insensitive(self, tmp_path):
        findings = self._findings(tmp_path)
        moved = [
            type(f)(
                path=f.path,
                line=f.line + 10,
                col=f.col,
                rule_id=f.rule_id,
                message=f.message,
                severity=f.severity,
            )
            for f in findings
        ]
        assert [fingerprint(f) for f in findings] == [
            fingerprint(f) for f in moved
        ]

    def test_corrupt_baseline_is_loud(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(bad)
        assert lint_run(
            [str(tmp_path)], project=True, baseline=str(bad)
        ) == 2

    def test_wrong_version_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(bad)

    def test_empty_baseline_object(self):
        assert Baseline().partition([]) == ([], [])


# ---------------------------------------------------------------------------
# The shipped tree under project analysis
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_committed_baseline_is_valid(self):
        from repro.devtools.registry import known_rule_ids

        baseline = load_baseline(REPO_ROOT / "devtools_baseline.json")
        known = known_rule_ids()
        for entry in baseline.entries:
            assert entry["rule"] in known, entry
            assert entry.get("reason"), (
                f"baseline entry for {entry['rule']} at {entry['path']} "
                "must carry a reason"
            )

    def test_project_lint_clean_against_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        findings = analyze_project([REPO_ROOT / "src" / "repro"])
        baseline = load_baseline(REPO_ROOT / "devtools_baseline.json")
        new, _ = baseline.partition(findings)
        assert new == [], "\n".join(f.format() for f in new)

    def test_project_lint_completes_quickly(self):
        started = time.perf_counter()
        analyze_project([REPO_ROOT / "src" / "repro"])
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"project lint took {elapsed:.1f}s"
