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
from typing import Iterable, Mapping, Union

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
    serialize,
)

__all__ = [
    "CHERRY",
    "normalize_topological",
    "is_topological",
    "ordered_leaves",
    "leaf_count",
    "face",
    "degeneracy",
    "enumerate_top_trees",
    "QChain",
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


def is_topological(tree: PlaneTree) -> bool:
    """True when no vertex has exactly one child."""
    return all(len(node.children) != 1 for node in _postorder(tree))


def ordered_leaves(tree: PlaneTree) -> tuple:
    """Leaf addresses left to right; the point's root is its own leaf."""
    if not tree.children:
        return ((),)
    return leaves(tree)


def leaf_count(tree: PlaneTree) -> int:
    """Number of ordered_leaves, read off the Dyck word; the point counts 1."""
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
    is topological by construction."""
    addrs = ordered_leaves(tree)
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


class QChain:
    """A finitely supported Z[q]-combination of trees; zero coefficients are
    never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        data = dict(terms)
        clean: dict[PlaneTree, QPoly] = {}
        for tree, coeff in data.items():
            if isinstance(coeff, int):
                coeff = QPoly((coeff,))
            if not isinstance(tree, PlaneTree) or not isinstance(coeff, QPoly):
                raise TypeError("terms must map PlaneTree to QPoly or int")
            if coeff:
                clean[tree] = coeff
        self.terms = clean

    def coefficient(self, tree: PlaneTree) -> QPoly:
        return self.terms.get(tree, ZERO)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other: object):
        if not isinstance(other, QChain):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "QChain") -> "QChain":
        acc = dict(self.terms)
        for tree, coeff in other.terms.items():
            acc[tree] = acc.get(tree, ZERO) + coeff
        return QChain(acc)

    def __repr__(self):
        body = " + ".join(
            f"({coeff})*{serialize(tree)}"
            for tree, coeff in sorted(self.terms.items(), key=lambda kv: serialize(kv[0]))
        )
        return f"QChain({body or '0'})"


def _face_sum(items: Iterable, weight_at) -> dict:
    """Sum over (tree, coeff) items and leaf indices i of weight_at(coeff, i)
    times d_i(tree), walking each tree's leaves once.  The point and zero
    coefficients contribute nothing; keys keep first-insertion order."""
    acc: dict = {}
    for tree, coeff in items:
        if not tree.children or not coeff:
            continue
        for i, addr in enumerate(leaves(tree)):
            piece = normalize_topological(remove_leaf(tree, addr))
            term = weight_at(coeff, i)
            acc[piece] = acc[piece] + term if piece in acc else term
    return acc


def q_boundary(chain: QChain) -> QChain:
    """Linear extension of T -> sum over leaf indices i of q**i * d_i(T);
    the point maps to zero."""
    return QChain(_face_sum(chain.terms.items(), QPoly.shift))


def q_boundary_at(chain, q_value: int) -> dict[PlaneTree, int]:
    """The boundary with q specialized to an integer.

    Accepts a QChain or a plain mapping of trees to integers and returns an
    integer-weighted chain as a dict.  At q = -1 this is the alternating
    face sum and squares to zero; at generic integers it does not.
    """
    items = chain.terms.items() if isinstance(chain, QChain) else dict(chain).items()
    weights = (
        (tree, coeff.eval_int(q_value) if isinstance(coeff, QPoly) else int(coeff))
        for tree, coeff in items
    )
    acc = _face_sum(weights, lambda weight, i: weight * q_value**i)
    return {tree: w for tree, w in acc.items() if w}


def reduce_to_point(tree: PlaneTree) -> QPoly:
    """Coefficient of the point after exhaustively rewriting every larger
    tree into its q-boundary.

    Each rewrite strictly lowers the leaf count, so the process terminates;
    the result for a tree with n leaves is the q-factorial of n.
    """
    point_coeff = ZERO
    chain = QChain({tree: ONE})
    while chain:
        point_coeff = point_coeff + chain.coefficient(POINT)
        chain = q_boundary(chain)
    return point_coeff
