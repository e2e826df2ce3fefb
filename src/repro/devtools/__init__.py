"""repro.devtools — domain-aware static analysis for the mining engine.

An AST-based linter whose rules encode the invariants the engine's
correctness rests on but Python cannot enforce at runtime: shard tasks
must pickle by reference (fork-safety, REP1xx), ``Pattern`` and tree nodes
are immutable value objects outside their owning modules (REP2xx), library
code draws no unseeded randomness (REP3xx), the public surface stays
hygienic (REP4xx), and the encoded tree/engine hot paths stay on bitmask
kernels (REP5xx).  See ``docs/devtools.md`` for the full catalog and the
suppression policy.

Three entry points share one engine:

* ``python -m repro.devtools src/repro tests`` — CI and command line;
* ``ppm lint`` — the packaged CLI subcommand;
* :func:`analyze_source` / :func:`analyze_paths` — importable API used by
  the test suite's per-rule fixtures and self-check.

>>> from repro.devtools import analyze_source
>>> bad = "def f(xs=[]):\\n    return xs\\n"
>>> [(f.rule_id, f.line) for f in analyze_source(bad)]
[('REP402', 1)]
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.devtools.analyzer": (
        "META_RULE_IDS",
        "SourceAnalysis",
        "analyze_file",
        "analyze_paths",
        "analyze_source",
        "analyze_source_detailed",
        "iter_python_files",
        "select_rules",
        "selected_meta_ids",
    ),
    "repro.devtools.baseline": (
        "Baseline",
        "BaselineError",
        "fingerprint",
        "load_baseline",
        "write_baseline",
    ),
    "repro.devtools.callgraph": ("CallGraph",),
    "repro.devtools.cli": ("main", "run"),
    "repro.devtools.context": ("ModuleContext", "module_name_of"),
    "repro.devtools.effects": (
        "Effect",
        "EffectInference",
        "effect_names",
        "parse_effect_annotations",
    ),
    "repro.devtools.findings": ("Finding", "Severity", "findings_to_json"),
    "repro.devtools.project": ("ProjectContext", "analyze_project", "build_project"),
    "repro.devtools.registry": (
        "ProjectRule",
        "Rule",
        "all_rules",
        "get_rule",
        "known_rule_ids",
        "project_rules",
        "register",
    ),
    "repro.devtools.suppressions": ("Suppression", "parse_suppressions"),
})

if TYPE_CHECKING:
    from repro.devtools.analyzer import (
        META_RULE_IDS,
        SourceAnalysis,
        analyze_file,
        analyze_paths,
        analyze_source,
        analyze_source_detailed,
        iter_python_files,
        select_rules,
        selected_meta_ids,
    )
    from repro.devtools.baseline import (
        Baseline,
        BaselineError,
        fingerprint,
        load_baseline,
        write_baseline,
    )
    from repro.devtools.callgraph import CallGraph
    from repro.devtools.cli import main, run
    from repro.devtools.context import ModuleContext, module_name_of
    from repro.devtools.effects import (
        Effect,
        EffectInference,
        effect_names,
        parse_effect_annotations,
    )
    from repro.devtools.findings import Finding, Severity, findings_to_json
    from repro.devtools.project import ProjectContext, analyze_project, build_project
    from repro.devtools.registry import (
        ProjectRule,
        Rule,
        all_rules,
        get_rule,
        known_rule_ids,
        project_rules,
        register,
    )
    from repro.devtools.suppressions import Suppression, parse_suppressions

__all__ = [
    "META_RULE_IDS",
    "Baseline",
    "BaselineError",
    "CallGraph",
    "Effect",
    "EffectInference",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Severity",
    "SourceAnalysis",
    "Suppression",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "analyze_source_detailed",
    "build_project",
    "effect_names",
    "fingerprint",
    "findings_to_json",
    "get_rule",
    "iter_python_files",
    "known_rule_ids",
    "load_baseline",
    "main",
    "module_name_of",
    "parse_effect_annotations",
    "parse_suppressions",
    "project_rules",
    "register",
    "run",
    "select_rules",
    "selected_meta_ids",
    "write_baseline",
]
