"""Encoded hot-path rules (REP5xx).

The interned-vocabulary refactor moved the max-subpattern tree onto int
bitmask kernels: a segment hit is one int, subset tests are one
``mask & ~other``, and node indexing is by missing-mask.  Building a
``frozenset`` of letters inside those packages reintroduces the exact
per-segment allocation + tuple-hashing cost the encoding removed — and it
does so silently, because the frozenset path still produces correct
results.  These rules make the regression loud instead.

Decoding at the *boundary* (``LetterVocabulary.decode_mask``,
``Pattern.from_mask``) is the sanctioned way back to letter sets; a
genuine one-off set construction can be suppressed with
``# repro: ignore[REP501] -- <why it is not per-segment work>``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import ModuleContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

#: Packages whose hot paths must stay on bitmask kernels.
ENCODED_PACKAGES = ("repro.tree",)


@register
class FrozensetInEncodedPathRule(Rule):
    """REP501: ``frozenset(...)`` constructed inside an encoded package."""

    id = "REP501"
    name = "frozenset-in-encoded-path"
    severity = Severity.ERROR
    rationale = (
        "repro.tree runs on int bitmasks over an interned "
        "LetterVocabulary; constructing frozensets there reintroduces the "
        "per-segment allocation and hashing cost the encoding removed. "
        "Decode at the boundary with vocab.decode_mask / Pattern.from_mask "
        "instead."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not any(ctx.in_package(package) for package in ENCODED_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "frozenset"
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "frozenset() built inside an encoded package; tree hot "
                    "paths work on vocabulary bitmasks — decode via the "
                    "vocabulary at the boundary instead",
                )
