"""Columnar-kernel rules (REP11xx).

The columnar kernels reinterpret the packed :class:`SegmentStore` buffer
as a numpy ``uint64`` column and answer both scans with vectorized array
ops (:mod:`repro.kernels.columnar`).  A Python ``for`` loop over the
store's row buffer — ``self._masks``, a ``store`` iterator, or the
``column()`` array walked element by element — silently reintroduces the
interpreter-per-row cost the tier removed: results stay correct, only
the throughput collapses back to the scalar path.  This rule makes that
regression loud in the hot-path packages (``repro.core`` and
``repro.kernels``).

The wide-vocabulary fallback is the legitimate exception: masks past 64
letters are Python ints that no numpy column can hold, so those loops
carry ``# repro: ignore[REP1101] -- <why>`` suppressions at the loop
line.  Everything else should go through the store's vectorized
methods (``letter_counts`` / ``distinct_counts`` / ``hit_counter`` /
``count_masks``) or the helpers in :mod:`repro.kernels.columnar`.
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
ROW_BUFFER_ATTRS = frozenset({"_masks"})

#: Zero-argument methods returning the full row column; iterating their
#: result element-wise is the same scalar regression.
ROW_COLUMN_CALLS = frozenset({"column"})


def _names_row_buffer(expr: ast.expr) -> ast.expr | None:
    """The sub-expression that walks store rows, if the iterable has one.

    Matches ``self._masks`` (and any ``<obj>._masks``) anywhere inside the
    iterable — including wrapped forms such as ``enumerate(self._masks)``
    — and calls of ``<obj>.column()``, whose ndarray result iterates one
    Python scalar per row.
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
        "Iterating the SegmentStore row buffer (_masks / column()) in "
        "Python costs one interpreter round-trip per segment; the "
        "columnar kernels answer whole scans as vectorized numpy ops "
        "(SegmentStore.letter_counts / distinct_counts / hit_counter / "
        "count_masks). Only the wide-vocabulary fallback, whose masks "
        "exceed 64 bits, may loop — with a suppression stating so."
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
                "Python loop over the segment-store row buffer; use the "
                "store's vectorized scan methods (letter_counts / "
                "distinct_counts / hit_counter / count_masks) or the "
                "repro.kernels.columnar helpers instead of walking rows "
                "one interpreter iteration at a time",
            )
