"""Segment-store rules (REP11xx).

A :class:`SegmentStore` holds every whole segment's letters as an
``(m, k)`` ``uint64`` row matrix and answers both scans with chunked
numpy ops over it.  A Python ``for`` loop over the store's rows —
``self._rows``, a ``store`` iterator, or the ``rows()`` matrix walked
row by row — silently reintroduces the interpreter-per-segment cost the
matrix removed: results stay correct, only the throughput collapses
back to the scalar path.  This rule makes that regression loud in the
hot-path packages (``repro.core`` and ``repro.kernels``).  Every row
fits the matrix at any vocabulary width, so no loop over it is
legitimate there: go through the store's methods (``letter_counts`` /
``distinct_rows`` / ``project_hits`` / ``count_masks``) instead.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import ModuleContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

#: Packages whose mask loops are hot paths (the scan kernels and the
#: algorithm layer that drives them).
SCOPED_PACKAGES = ("repro.core", "repro.kernels")

#: Attribute names that identify the store's row buffer when iterated.
ROW_BUFFER_ATTRS = frozenset({"_rows"})

#: Zero-argument methods returning the full row matrix; iterating their
#: result row by row is the same scalar regression.
ROW_COLUMN_CALLS = frozenset({"rows"})


def _names_row_buffer(expr: ast.expr) -> ast.expr | None:
    """The sub-expression that walks store rows, if the iterable has one.

    Matches ``self._rows`` (and any ``<obj>._rows``) anywhere inside the
    iterable — including wrapped forms such as ``enumerate(self._rows)``
    — and calls of ``<obj>.rows()``, whose ndarray result iterates one
    Python object per row.
    """
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ROW_BUFFER_ATTRS
        ):
            return node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ROW_COLUMN_CALLS
            and not node.args
            and not node.keywords
        ):
            return node
    return None


@register
class SegmentRowLoopRule(Rule):
    """REP1101: Python loop over the segment store's row buffer."""

    id = "REP1101"
    name = "segment-row-loop"
    severity = Severity.ERROR
    rationale = (
        "Iterating the SegmentStore row matrix (_rows / rows()) in "
        "Python costs one interpreter round-trip per segment; the store "
        "answers whole scans as chunked numpy ops over its k-word rows "
        "at any vocabulary width (SegmentStore.letter_counts / "
        "distinct_rows / project_hits / count_masks)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not any(ctx.in_package(pkg) for pkg in SCOPED_PACKAGES):
            return
        seen: set[tuple[int, int]] = set()
        iterables: list[ast.expr] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                iterables.extend(gen.iter for gen in node.generators)
        for iterable in iterables:
            hit = _names_row_buffer(iterable)
            if hit is None:
                continue
            # Anchor at the iterable itself so the suppression comment
            # sits on the `for ... in <buffer>` line, next to the loop
            # it excuses.
            where = (iterable.lineno, iterable.col_offset)
            if where in seen:
                continue
            seen.add(where)
            yield self.finding(
                ctx,
                iterable.lineno,
                iterable.col_offset,
                "Python loop over the segment-store row matrix; use the "
                "store's scan methods (letter_counts / distinct_rows / "
                "project_hits / count_masks) instead of "
                "walking rows one interpreter iteration at a time",
            )
