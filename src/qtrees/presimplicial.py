"""Topological rooted trees with ordered leaves: faces, degeneracies, the
q-weighted boundary, and reduction of every tree to a multiple of the point.

Topological means no vertex has exactly one child; subdivision points are
smoothed away.  A tree with n + 1 leaves sits in level n and carries faces
d_0..d_n (remove the i-th leaf, then smooth) and degeneracies s_0..s_n
(replace the i-th leaf by a two-leaf cherry).  The point counts its root as
its single leaf, so the cherry can be planted on it.  The exhaustive checks
of the face/degeneracy relations live in ``qtrees.verify``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .qpoly import ONE, QPoly, ZERO
from .trees import (
    PlaneTree,
    POINT,
    _leaf_count,
    _postorder,
    _splice,
    dyck_word,
    leaves,
    remove_leaf,
)

__all__ = [
    "CHERRY",
    "normalize_topological",
    "leaf_count",
    "face",
    "degeneracy",
    "enumerate_top_trees",
    "q_boundary",
    "q_boundary_at",
    "reduce_to_point",
]

CHERRY = PlaneTree((POINT, POINT))


def normalize_topological(tree: PlaneTree) -> PlaneTree:
    """Smooth away every vertex with exactly one child; a unary root hands
    the root over to its child.  Idempotent."""
    values: list[PlaneTree] = []  # the smoothed subtrees not yet attached
    for node in _postorder(tree):
        if len(node.children) != 1:  # a unary vertex keeps its child's value
            cut = len(values) - len(node.children)
            kids = tuple(values[cut:])
            del values[cut:]
            values.append(node if kids == node.children else PlaneTree(kids))
    return values[0]


def leaf_count(tree: PlaneTree) -> int:
    """Number of leaves, read off the Dyck word; the point counts 1."""
    return _leaf_count(dyck_word(tree)) or 1


def face(tree: PlaneTree, index: int) -> PlaneTree:
    """Remove the index-th leaf and smooth.  Drops one level."""
    if not tree.children:
        raise ValueError("the point has no faces")
    addrs = leaves(tree)
    if not 0 <= index < len(addrs):
        raise IndexError(f"leaf index {index} out of range 0..{len(addrs) - 1}")
    return normalize_topological(remove_leaf(tree, addrs[index]))


def degeneracy(tree: PlaneTree, index: int) -> PlaneTree:
    """Plant a cherry on the index-th leaf.  Climbs one level; the result
    is topological by construction.  The point's root is its own leaf."""
    addrs = leaves(tree) if tree.children else ((),)
    if not 0 <= index < len(addrs):
        raise IndexError(f"leaf index {index} out of range 0..{len(addrs) - 1}")
    return _splice(tree, addrs[index], (CHERRY,))


def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Every way to write total >= 1 as parts positive summands, in
    lexicographic order, one per set of parts - 1 cut points."""
    return tuple(
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
        for cuts in itertools.combinations(range(1, total), parts - 1)
    )


def _top_trees(leaf_total: int) -> tuple[PlaneTree, ...]:
    levels = [(), (POINT,)]  # the trees of each leaf count, built bottom-up
    for total in range(2, leaf_total + 1):
        out = []
        for arity in range(2, total + 1):
            for split in _compositions(total, arity):
                for kids in itertools.product(*(levels[c] for c in split)):
                    out.append(PlaneTree(kids))
        levels.append(tuple(out))
    return levels[leaf_total]


def enumerate_top_trees(leaf_total: int) -> tuple[PlaneTree, ...]:
    """All topological rooted plane trees with exactly the given number of
    leaves, each once, in a fixed order (arity, then leaf split)."""
    if leaf_total < 1:
        raise ValueError("leaf count must be positive")
    return _top_trees(leaf_total)


# -- chains and the q-boundary ---------------------------------------------------
# A chain, a finitely supported Z[q]-combination of trees, is a mapping from
# PlaneTree to a QPoly or int coefficient; results never store a zero.


def _chain_items(chain: Mapping, q_value: int = 0) -> list:
    """The (tree, coefficient) pairs of a chain, after refusing with
    TypeError a key that is not a PlaneTree, a coefficient that is not a
    QPoly or an int, and a q_value that is not an int (a bool is neither)."""
    if not isinstance(q_value, int) or isinstance(q_value, bool):
        raise TypeError(f"q_value must be an int, got {type(q_value).__name__}")
    items = list(dict(chain).items())
    for tree, coeff in items:
        if not isinstance(tree, PlaneTree) or isinstance(coeff, bool) or not isinstance(coeff, (QPoly, int)):
            raise TypeError("terms must map PlaneTree to QPoly or int")
    return items


def _face_sum(items: Iterable, weight_at) -> dict:
    """Sum over (tree, coeff) items and leaf indices i of weight_at(coeff, i)
    times d_i(tree), walking each tree's leaves once.  The point and zero
    coefficients contribute nothing; keys keep first-insertion order and
    terms that sum to zero are dropped."""
    acc: dict = {}
    for tree, coeff in items:
        if not tree.children or not coeff:
            continue
        for i, addr in enumerate(leaves(tree)):
            piece = normalize_topological(remove_leaf(tree, addr))
            term = weight_at(coeff, i)
            acc[piece] = acc[piece] + term if piece in acc else term
    return {piece: coeff for piece, coeff in acc.items() if coeff}


def q_boundary(chain: Mapping) -> dict[PlaneTree, QPoly]:
    """Linear extension of T -> sum over leaf indices i of q**i * d_i(T);
    the point maps to zero.  An int coefficient is a constant polynomial."""
    polys = ((tree, QPoly((c,)) if isinstance(c, int) else c) for tree, c in _chain_items(chain))
    return _face_sum(polys, QPoly.shift)


def q_boundary_at(chain: Mapping, q_value: int) -> dict[PlaneTree, int]:
    """The boundary with q specialized to an integer, as a chain with int
    coefficients.  At q = -1 this is the alternating face sum and squares
    to zero; at generic integers it does not."""
    weights = (
        (tree, coeff.eval_int(q_value) if isinstance(coeff, QPoly) else coeff)
        for tree, coeff in _chain_items(chain, q_value)
    )
    return _face_sum(weights, lambda weight, i: weight * q_value**i)


def reduce_to_point(tree: PlaneTree) -> QPoly:
    """Coefficient of the point after exhaustively rewriting every larger
    tree into its q-boundary.

    Each rewrite strictly lowers the leaf count, so the process terminates;
    the result for a tree with n leaves is the q-factorial of n.
    """
    if not isinstance(tree, PlaneTree):
        raise TypeError(f"tree must be a PlaneTree, got {type(tree).__name__}")
    chain = {tree: ONE}
    point_coeff = ZERO
    while chain:
        point_coeff = point_coeff + chain.get(POINT, ZERO)
        chain = _face_sum(chain.items(), QPoly.shift)
    return point_coeff
