"""Topological rooted trees with ordered leaves: faces, degeneracies, the
q-weighted boundary, and reduction of every tree to a multiple of the point.

Topological means no vertex has exactly one child; subdivision points are
smoothed away.  A tree with n + 1 leaves sits in level n and carries faces
d_0..d_n (remove the i-th leaf, then smooth) and degeneracies s_0..s_n
(replace the i-th leaf by a two-leaf cherry).  Smoothing keeps every leaf,
so a face of any tree is that face of its smoothing: one routine smooths a
tree, and one cuts its faces from the smoothing as runs of bits.  The point
counts its root as its single leaf, so the cherry can be planted on it.
The reduction to the point sums faces on the memo engine of the
leaf-removal recursion (qpoly._fill_memo), and the face lists and
reductions of the topological trees with at most 8 leaves are kept across
calls.  The exhaustive checks of the face/degeneracy relations live in
``qtrees.verify``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable, Mapping
from functools import partial
from operator import methodcaller, mul

from .qpoly import QPoly, _checked_int, _checked_type, _field_size, _fill_memo, _unpack
from .trees import PlaneTree, _leaf_count, _pairs, _planted, dyck_word

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

CHERRY = PlaneTree._of(0b1010)


# -- the maps on Dyck words --------------------------------------------------------
# Faces, degeneracies and smoothing run on a tree's Dyck word packed in one int
# (trees.dyck_word: read from the most significant bit, 1 steps down an edge,
# 0 steps back up, the point is 0).  A leaf is a 1 followed by a 0; with its
# 1 at bit j the leaf owns bits j and j - 1.  A PlaneTree is built only for
# a value handed back to the caller.


def _check_index(index: int, total: int) -> None:
    """Refuse a leaf index that is not an int (a bool is none) or is out of
    range for total leaves."""
    if not 0 <= _checked_int(index, "leaf index") < total:
        raise IndexError(f"leaf index {index} out of range 0..{total - 1}")


def _smoothed(word: int) -> tuple[int, str, list[int], list[bool]]:
    """The word smoothed, its steps and the position of each step's partner
    (trees._pairs), and whether each leaf, left to right, was an only child
    before smoothing, the list empty when no vertex was one.

    Smoothing deletes each only child's pair of steps, its children going
    to its parent (a unary root hands the root to its child).  It keeps
    every leaf in order, an only child's place going to its parent; a path
    smooths to the point.
    """
    steps, match, only = _pairs(word)
    alone = []
    if only:
        drop = set(only).union(match[q] for q in only)
        alone = [leaf.start() in drop for leaf in re.finditer("10", steps)]
        word = int("".join(step for p, step in enumerate(steps) if p not in drop) or "0", 2)
        steps, match, _ = _pairs(word)
    return word, steps, match, alone


def _leaf_cuts(word: int) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """The word smoothed (_smoothed), and for each leaf, left to right, the
    runs of bits (hi, lo), hi down to lo inclusive and highest run first,
    whose deletion from the smoothed word leaves its face.

    A face of any tree is the same face of its smoothing, or, no runs, the
    smoothing itself when the leaf was an only child.  In a topological
    tree a leaf with its 1 at bit j owns bits j and j - 1, one run, and
    removing it leaves its parent unary exactly when the parent had two
    children; then the sibling's pair goes too (for the root, the pair
    around everything that is left).  The sibling's step next to the leaf
    joins the leaf's run, so a cut is ((j, j - 1),), ((d, d), (j + 1, j -
    1)) for a leaf after its sibling, whose step down is at bit d, and ((j,
    j - 2), (u, u)) for a leaf before it, whose step up is at bit u.
    """
    word, steps, match, alone = _smoothed(word)
    if not word:
        return 0, [()]
    size = len(steps)
    top = size - 1
    cuts = []
    p = steps.find("10")
    while p >= 0:
        j = top - p
        cut = ((j, j - 1),)
        after = p + 2
        if alone and alone[len(cuts)]:
            cut = ()
        elif p and steps[p - 1] == "0":  # a sibling ends just before the leaf
            first = match[p - 1]
            if (not first or steps[first - 1] == "1") and (after == size or steps[after] == "0"):
                cut = ((top - first, top - first), (j + 1, j - 1))
        else:  # the leaf is a first child, so a sibling starts after it
            last = match[after]
            if last == top or steps[last + 1] == "0":
                cut = ((j, j - 2), (top - last, top - last))
        cuts.append(cut)
        p = steps.find("10", after)
    return word, cuts


def _cut(word: int, runs: tuple[tuple[int, int], ...]) -> int:
    """The word with each run of bits (hi, lo), hi down to lo inclusive,
    deleted, highest run first, so that each deletion leaves the lower
    runs in place."""
    for hi, lo in runs:
        word = ((word >> (hi + 1)) << lo) | (word & ((1 << lo) - 1))
    return word


def normalize_topological(tree: PlaneTree) -> PlaneTree:
    """Smooth away every vertex with exactly one child (_smoothed); a unary
    root hands the root over to its child.  Idempotent."""
    word = dyck_word(tree)
    smooth = _smoothed(word)[0]
    return tree if smooth == word else PlaneTree._of(smooth)


def leaf_count(tree: PlaneTree) -> int:
    """Number of leaves, read off the Dyck word; the point counts 1."""
    return _leaf_count(dyck_word(tree)) or 1


def face(tree: PlaneTree, index: int) -> PlaneTree:
    """Remove the index-th leaf and smooth.  Drops one level.  Only that
    leaf is cut (_leaf_cuts), in one or two scans of the word, and the
    face memo is neither read nor filled."""
    word = dyck_word(tree)
    if not word:
        raise ValueError("the point has no faces")
    _check_index(index, _leaf_count(word))
    smooth, cuts = _leaf_cuts(word)
    return PlaneTree._of(_cut(smooth, cuts[index]))


# The face words of each topological tree with at most _FACE_MEMO_LEAVES
# leaves, keyed by its Dyck word (_faces).
_FACES_MEMO: dict[int, tuple[int, ...]] = {}
_FACE_MEMO_LEAVES = 8
# The packed reductions of the topological trees with at most
# _FACE_MEMO_LEAVES leaves that reduce_to_point has filled, keyed by Dyck
# word, all in the one field size the cap's bound of 8 * 8! face paths needs.
_REDUCED_MEMO: dict[int, int] = {}
_REDUCED_SIZE = _field_size((_FACE_MEMO_LEAVES * math.factorial(_FACE_MEMO_LEAVES)).bit_length())


def _faces(word: int) -> tuple[int, ...]:
    """The words of d_0, d_1, ... of the tree with the given word, in index
    order, each cut from the tree's smoothing (_leaf_cuts); the point has
    none.

    The reduction to the point, both boundaries and verify.identities ask
    for the faces of the same small trees again and again, so the lists
    of topological trees with at most 8 leaves, the presimplicial cap, are
    kept in _FACES_MEMO: at most 5,439 words, about 2 MB.  A tree that is
    not topological is not kept, since with few leaves it can still be
    arbitrarily deep, and neither is a tree above the cap, so that reducing
    a large tree, say the 200-leaf star, leaves nothing behind it.
    reduce_to_point reads whether a tree's list was kept to tell whether
    it is topological.
    """
    faces = _FACES_MEMO.get(word)
    if faces is not None:
        return faces
    if not word:
        return ()
    smooth, cuts = _leaf_cuts(word)
    faces = tuple(_cut(smooth, bits) for bits in cuts)
    if smooth == word and len(faces) <= _FACE_MEMO_LEAVES:
        _FACES_MEMO[word] = faces
    return faces


def _face_moves(word: int) -> list[tuple[int, int]]:
    """(i, word of d_i) for each face of the tree with the given word: the
    moves of the reduction to the point on qpoly._fill_memo."""
    return list(enumerate(_faces(word)))


def _degeneracies(word: int) -> list[int]:
    """The words of s_0, s_1, ... of the tree with the given word, in index
    order: 1010 goes between each leaf's 1 and its 0, the point's root
    being its one leaf."""
    if not word:
        return [dyck_word(CHERRY)]
    out = []
    found = word & ~(word << 1)  # the leaves' down bits
    while found:
        j = found.bit_length() - 1
        out.append(((word >> j) << (j + 4)) | (0b1010 << j) | (word & ((1 << j) - 1)))
        found ^= 1 << j
    return out


def degeneracy(tree: PlaneTree, index: int) -> PlaneTree:
    """Plant a cherry on the index-th leaf.  Climbs one level; the result
    is topological by construction.  The point's root is its own leaf."""
    planted = _degeneracies(dyck_word(tree))
    _check_index(index, len(planted))
    return PlaneTree._of(planted[index])


def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Every way to write total >= 1 as parts positive summands, in
    lexicographic order, one per set of parts - 1 cut points."""
    return tuple(
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
        for cuts in itertools.combinations(range(1, total), parts - 1)
    )


def _top_trees(leaf_total: int) -> list[int]:
    """The Dyck words of enumerate_top_trees(leaf_total), in its order."""
    levels = [[], [0]]  # the words of each leaf count, built bottom-up
    for total in range(2, leaf_total + 1):
        out = []
        for arity in range(2, total + 1):
            for split in _compositions(total, arity):
                out += map(_planted, itertools.product(*(levels[c] for c in split)))
        levels.append(out)
    return levels[leaf_total]


def enumerate_top_trees(leaf_total: int) -> tuple[PlaneTree, ...]:
    """All topological rooted plane trees with exactly the given number of
    leaves, each once, in a fixed order (arity, then leaf split)."""
    return tuple(map(PlaneTree._of, _top_trees(_checked_int(leaf_total, "leaf count", 1))))


# -- chains and the q-boundary ---------------------------------------------------
# A chain, a finitely supported Z[q]-combination of trees, is a mapping from
# PlaneTree to a QPoly or int coefficient; results never store a zero.


def _chain_items(chain: Mapping) -> list:
    """The (Dyck word, coefficient) pairs of a chain, which must be a
    mapping; a key is read through dyck_word, and a coefficient that is not a QPoly or an int (a bool is
    neither) is refused with TypeError in dyck_word's form."""
    chain = _checked_type(chain, Mapping, "chain", "a mapping")
    items = [(dyck_word(tree), coeff) for tree, coeff in chain.items()]
    for _, coeff in items:
        if isinstance(coeff, bool) or not isinstance(coeff, (QPoly, int)):
            raise TypeError(f"coefficient must be a QPoly or an int, got {type(coeff).__name__}")
    return items


def _face_sum(items: Iterable, step) -> dict[PlaneTree, object]:
    """Sum over (word, coeff) items and leaf indices i of q**i coeff
    d_i(word), as a chain.  A face's term i starts at coeff and step builds
    term i + 1 from term i, one call with no Python frame of its own (a
    functools.partial or an operator.methodcaller); a face's total starts
    at its first term, and each later one is added to it.  The point and
    zero coefficients contribute nothing; keys keep first-insertion order
    and totals that come to zero are dropped."""
    acc: dict = {}
    for word, coeff in items:
        if coeff:
            term = coeff
            for i, piece in enumerate(_faces(word)):
                if i:
                    term = step(term)
                total = acc.get(piece)
                acc[piece] = term if total is None else total + term
    return {PlaneTree._of(piece): total for piece, total in acc.items() if total}


def q_boundary(chain: Mapping) -> dict[PlaneTree, QPoly]:
    """Linear extension of T -> sum over leaf indices i of q**i * d_i(T);
    the point maps to zero.  An int coefficient is a constant polynomial.
    Term i + 1 is term i shifted once (_face_sum), so each term costs one
    shift, as q**i coeff did."""
    polys = ((word, QPoly._trusted([c]) if isinstance(c, int) else c) for word, c in _chain_items(chain))
    return _face_sum(polys, methodcaller("shift", 1))


def q_boundary_at(chain: Mapping, q_value: int) -> dict[PlaneTree, int]:
    """The boundary with q specialized to an integer, as a chain with int
    coefficients.  At q = -1 this is the alternating face sum and squares
    to zero; at generic integers it does not.  q_value must be an int (not
    a bool).  Term i + 1 is term i times q_value (_face_sum), so no power
    of q_value is taken."""
    _checked_int(q_value, "q_value")
    weights = (
        (word, coeff.eval_int(q_value) if isinstance(coeff, QPoly) else coeff) for word, coeff in _chain_items(chain)
    )
    return _face_sum(weights, partial(mul, q_value))


def reduce_to_point(tree: PlaneTree) -> QPoly:
    """Coefficient of the point after exhaustively rewriting every larger
    tree into its q-boundary.

    A face of a topological tree has one leaf fewer, and any face is
    topological, so the process terminates; the result for a topological
    tree with n leaves is the q-factorial of n.  The tree is not normalized
    first: the faces of another tree with n leaves may keep all n.

    So verify.reduction checks the face maps' leaf counts and no more: by
    induction on R(T) = sum over i of q**i R(d_i T), the reductions give
    [n]_q! exactly when each topological tree with n leaves has n faces,
    each a topological tree with n - 1 leaves.  Which tree each face is,
    the relation checks of verify.identities test.

    The rewriting is the recursion R(T) = sum over i of q**i R(d_i T),
    R(point) = 1, run by the one memo engine, qpoly._fill_memo, on Dyck
    words, its moves each face's index and word (_face_moves).  Each value
    is kept packed into one int, size bytes per coefficient (qpoly._pack),
    so a face's term folds in as one shift, and _fill_memo returns the
    tree's value, which is unpacked once, at the end.  A coefficient counts
    face paths, at most n * n! of them for n leaves.

    A tree with at most _FACE_MEMO_LEAVES (8) leaves shares _REDUCED_MEMO,
    one table whose fields are the 4 bytes qpoly._field_size gives for the
    cap's bound 8 * 8! (_REDUCED_SIZE), so later calls read what earlier
    ones filled and each tree is reduced once.  Every face is topological,
    so the table holds topological trees with at most 8 leaves only, at
    most 5,439 of them: the tree itself is dropped after its call unless it
    is topological, which _faces tells by keeping its face list, since with
    few leaves it can still be arbitrarily deep.  A larger tree fills a
    memo of its own, in the fields _field_size gives for its own n * n!,
    which it drops on return; until then it holds the value of every tree
    reached, all 200 levels of the 200-leaf star at once.
    """
    word = dyck_word(tree)
    if (n := _leaf_count(word)) > _FACE_MEMO_LEAVES:
        size = _field_size((n * math.factorial(n)).bit_length())
        return _unpack(_fill_memo({}, word, size, _face_moves), size)
    packed = _fill_memo(_REDUCED_MEMO, word, _REDUCED_SIZE, _face_moves) if word else 1
    if word not in _FACES_MEMO:  # dropped unless topological (_faces)
        _REDUCED_MEMO.pop(word, None)
    return _unpack(packed, _REDUCED_SIZE)
