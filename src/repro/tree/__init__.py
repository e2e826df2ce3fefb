"""The max-subpattern tree (paper Section 4)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tree.max_subpattern_tree": ("MaxSubpatternTree", "tree_from_hits"),
    "repro.tree.node": ("MaxSubpatternNode",),
})

if TYPE_CHECKING:
    from repro.tree.max_subpattern_tree import MaxSubpatternTree, tree_from_hits
    from repro.tree.node import MaxSubpatternNode

__all__ = ["MaxSubpatternNode", "MaxSubpatternTree", "tree_from_hits"]
