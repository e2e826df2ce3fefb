"""Batched-kernel rules (REP7xx).

The batched counting refactor replaced Algorithm 4.2's per-candidate
ancestor walks with one superset-sum pass over the whole candidate set
(:func:`repro.kernels.batched.batched_count_masks`).  Calling the
single-mask probes (``count_of_mask`` and friends) inside a loop quietly
reintroduces the candidates-times-rows cost — results stay correct, only
the asymptotics regress.  This rule makes that regression loud.

A genuine non-batchable probe loop can be suppressed with
``# repro: ignore[REP701] -- <why the calls cannot batch>``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import ModuleContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

#: Single-mask probe methods superseded by the batched kernels.
PER_CANDIDATE_PROBES = frozenset(
    {"count_of_mask", "count_of", "count_of_letters"}
)


@register
class PerCandidateCountLoopRule(Rule):
    """REP701: per-candidate count probe called inside a loop."""

    id = "REP701"
    name = "per-candidate-count-loop"
    severity = Severity.ERROR
    rationale = (
        "Counting candidates one count_of_mask() call at a time inside a "
        "loop costs O(candidates * tree rows); the batched kernels "
        "(MaxSubpatternTree.count_masks / repro.kernels.batched."
        "batched_count_masks) answer the whole set in one superset-sum "
        "pass."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            # Only the loop's own body counts: a probe in an else-clause
            # runs once, not per iteration.  Nested loops revisit the same
            # calls; `seen` reports each site once.
            for node in ast.walk(ast.Module(body=loop.body, type_ignores=[])):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in PER_CANDIDATE_PROBES
                    and (node.lineno, node.col_offset) not in seen
                ):
                    seen.add((node.lineno, node.col_offset))
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"{node.func.attr}() called inside a loop; batch "
                        "the candidate set through count_masks() / "
                        "batched_count_masks() instead of probing one "
                        "mask per iteration",
                    )
