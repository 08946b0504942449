"""Domain hierarchy trees (DHTs).

A domain hierarchy tree arranges the domain of an attribute from the most
specific descriptions (the leaves) to the most general one (the root), as in
Figure 1 of the paper.  Generalisation replaces a leaf value by the value of
one of its ancestors; a *valid generalization* is a set of nodes such that the
path from every leaf to the root crosses exactly one of them (Section 4).

Numeric attributes are handled by first partitioning the domain into disjoint
intervals and pairwise combining the intervals into a binary tree (Figure 3);
from then on they behave exactly like categorical attributes.

The package provides the tree data structure, builders for both categorical
and numeric domains, and the cut-enumeration utilities used by multi-attribute
binning.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "DHTNode": ".node",
        "Interval": ".node",
        "DomainHierarchyTree": ".tree",
        "from_nested_mapping": ".builders",
        "from_leaf_groups": ".builders",
        "binary_numeric_tree": ".builders",
        "enumerate_cuts": ".cuts",
        "enumerate_cuts_between": ".cuts",
        "count_cuts_between": ".cuts",
        "is_frontier_at_or_above": ".cuts",
    },
)
