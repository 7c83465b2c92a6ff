"""Exact q-polynomial invariants of plane rooted trees.

The package computes the q-polynomial of a plane rooted tree by its
leaf-removal recursion and, independently, by a product of per-vertex
Gaussian multinomial weights; handles trees whose leaves carry delay
labels; and equips topological rooted trees with face and degeneracy maps,
a q-weighted boundary, and the rewriting that collapses every tree to a
q-factorial multiple of the point.
"""

from .qpoly import (
    ONE,
    ZERO,
    CyclotomicFactorization,
    NotDivisible,
    QPoly,
    cyclotomic,
    cyclotomic_factor,
    q,
    q_binomial,
    q_factorial,
    q_integer,
    q_multinomial,
)
from .trees import (
    POINT,
    BoundExceeded,
    DelayedTree,
    InvalidAddress,
    NotALeaf,
    ParseError,
    PlaneTree,
    RootHasNoEdge,
    ZeroDelay,
    edge_count,
    enumerate_plane_trees,
    leaves,
    parse_delayed,
    parse_tree,
    random_plane_tree,
    remove_leaf,
    reroot_across_edge,
    serialize,
    serialize_delayed,
    side_edge_counts,
    star,
    wedge,
)
from .invariant import (
    BlockSpec,
    InadmissibleDelays,
    RerootCheck,
    assemble_blocks,
    check_reroot,
    q_poly,
    q_poly_block,
    q_poly_delayed,
    q_poly_state,
    sample_block_specs,
    search_delayed,
)
from .presimplicial import (
    CHERRY,
    degeneracy,
    enumerate_top_trees,
    face,
    leaf_count,
    normalize_topological,
    q_boundary,
    q_boundary_at,
    reduce_to_point,
)

__version__ = "0.1.0"
