"""The q-polynomial of a plane rooted tree.

Three evaluators are provided.  The defining leaf-removal recursion and
the vertex-weight product each take any tree; the closed block formula
takes a wedge of constant-delay blocks, and the delayed recursion on the
assembled tree checks it.  Around them sit the change-of-root identity
check, the delayed-leaf variant, and a bounded search for delayed trees
hitting a target polynomial.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

from . import qpoly, trees
from .qpoly import ONE, QPoly, _unpack, _word_width, q_integer, q_multinomial
from .trees import (
    DelayedTree,
    PlaneTree,
    RootHasNoEdge,
    dyck_word,
    edge_count,
    enumerate_plane_trees,
    random_plane_tree,
    reroot_across_edge,
    side_edge_counts,
    wedge,
)

__all__ = [
    "q_poly",
    "q_poly_state",
    "q_degree",
    "check_reroot",
    "RerootCheck",
    "q_poly_delayed",
    "BlockSpec",
    "InadmissibleDelays",
    "q_poly_block",
    "assemble_blocks",
    "sample_block_specs",
    "search_delayed",
    "clear_caches",
]


class InadmissibleDelays(ValueError):
    """Block delays break the admissibility chain required by the closed
    block formula."""


# One memo for both games on trees of at most _NARROW_EDGES edges: plain
# states are keyed by the tree's Dyck word, delayed states by (word, delays)
# (_removal_sum).
_QPOLY_MEMO: dict = {}
# The delayed search's value index per edge count (_value_index).
_SEARCH_MEMO: dict = {}


def clear_caches() -> None:
    """Drop the three memos of the package: the one shared by the plain and
    delayed recursion, the delayed search's value indexes and the Gaussian
    binomials of qpoly.q_binomial.  Results are unaffected, only speed.

    The recursion's memo holds the states of trees with at most 20 edges,
    each value packed into one int, 64 bits per coefficient, and beside it
    the polynomial once a call has returned it, so a hit returns that
    object; a larger tree's states live only for its call (_removal_sum)."""
    _QPOLY_MEMO.clear()
    _SEARCH_MEMO.clear()
    qpoly.q_binomial.cache_clear()


def q_poly(tree: PlaneTree) -> QPoly:
    """The q-polynomial by its defining recursion.

    The point maps to 1; otherwise sum q**r(v) * Q(T - v) over all leaves v,
    where r(v) counts the edges strictly right of the root-to-v path.
    Results are memoized on the tree shape for trees of at most 20 edges.
    """
    return _removal_sum(dyck_word(tree), None)


def _removal_sum(word: int, delays: tuple[int, ...] | None) -> QPoly:
    """Sum of q**r(v) times the value of T - v over the leaves v that may
    move, T the tree with the given Dyck word (trees.dyck_word).  delays
    labels the leaves left to right as in q_poly_delayed; None means every
    leaf may move for the rest of the game.

    A leaf is a down-step followed by an up-step, so the leaves are the set
    bits of word & ~(word << 1), left to right from the high end.  Removing
    the leaf at bit j deletes bits j and j - 1, and r(v) counts the
    down-steps after them, in the lower bits.  The leaf was an only child exactly when a
    down-step comes just before it (bit j + 1) and an up-step just after it
    (bit j - 2).  A state waits on an explicit stack until every state it
    reaches is in the memo.

    A state's value is kept packed into one int (qpoly._pack), the
    coefficient of q**k in bits [k * width, (k + 1) * width), so a move
    adds the value of T - v shifted by r(v) fields in one big-int
    shift-add.  A tree with at most _NARROW_EDGES edges shares
    _QPOLY_MEMO, in 64-bit fields; only a value returned is unpacked, and
    the memo then keeps the pair (packed, polynomial), so a later hit
    returns the same object.  A larger tree fills a memo of its own, in
    fields as wide as L(T) (_removal_count) needs, which it drops on
    return: a coefficient of any state reached counts removal sequences of
    that state, each of which extends to one of T.
    """
    if not word:
        return ONE
    key = word if delays is None else (word, delays)
    val = _QPOLY_MEMO.get(key)
    if val is None:
        if word.bit_count() > _NARROW_EDGES:
            width = _word_width(_removal_count(word))
            memo: dict = {}
            _fill_memo(memo, key, word, delays, width)
            return _unpack(memo[key], width // 8)
        _fill_memo(_QPOLY_MEMO, key, word, delays, 64)
        val = _QPOLY_MEMO[key]
    if val.__class__ is tuple:
        return val[1]
    poly = _unpack(val, 8)
    _QPOLY_MEMO[key] = (val, poly)
    return poly


def _fill_memo(memo: dict, key, word: int, delays: tuple[int, ...] | None, width: int) -> None:
    """Store the packed value of the state with the given key, and of every
    state it reaches, in memo, in fields of `width` bits (_removal_sum)."""
    stack = [[key, word, delays, None]]  # key, word, delays, moves once listed
    while stack:
        frame = stack[-1]
        key, word, delays, moves = frame
        if moves is None:
            if key in memo:  # finished meanwhile, reached from another state
                stack.pop()
                continue
            moves = frame[3] = []  # (shift by r(v) fields, key of T - v), the point keyed 0
            depth = len(stack)
            found = word & ~(word << 1)
            i = -1
            while found:
                j = found.bit_length() - 1
                found ^= 1 << j
                i += 1
                low = word & ((1 << (j - 1)) - 1)
                rest = ((word >> (j + 1)) << (j - 1)) | low
                if delays is None:
                    sub = rest
                    next_delays = None
                elif delays[i] != 1:
                    continue
                elif not rest:  # the root was stripped bare: the point remains
                    sub = 0
                else:
                    ticked = [d - 1 if d > 2 else 1 for d in delays]
                    if (word >> (j + 1)) & 1 and not (word >> (j - 2)) & 1:
                        ticked[i] = 1  # the parent is exposed as a new leaf
                    else:
                        del ticked[i]  # the leaf slot disappears
                    next_delays = tuple(ticked)
                    sub = (rest, next_delays)
                moves.append((low.bit_count() * width, sub))
                if sub and sub not in memo:
                    stack.append([sub, rest, next_delays, None])
            if len(stack) > depth:
                continue
        stack.pop()
        acc = 0
        for shift, sub in moves:
            val = memo[sub] if sub else 1
            if val.__class__ is tuple:
                val = val[0]
            acc += val << shift
        memo[key] = acc


# 20! < 2**64: a tree with at most this many edges has fewer removal
# sequences than a 64-bit field holds, whatever its shape
_NARROW_EDGES = 20


def _removal_count(word: int) -> int:
    """L(T), the number of removal sequences of the tree with the given
    Dyck word: e! over the product of its hook lengths (_hook_lengths), by
    Knuth's hook-length formula; it is q_poly at q = 1."""
    hooks = _hook_lengths(word)
    while len(hooks) > 1:  # multiply in pairs: on a deep path a running product takes quadratic time
        hooks = [math.prod(hooks[i : i + 2]) for i in range(0, len(hooks), 2)]
    return math.factorial(word.bit_count()) // math.prod(hooks)


def q_poly_state(tree: PlaneTree) -> QPoly:
    """The q-polynomial as a product of per-vertex weights.

    Each vertex contributes the Gaussian multinomial of the sizes (edges
    plus the hanging edge) of its child subtrees; leaves contribute 1.
    Agrees with q_poly on every tree.  One pass over the Dyck word, the
    root's own steps added around it, finishes each vertex at its step up.
    """
    stack: list[list] = [[]]  # per open vertex: where it stepped down, then its children's (size, value)
    for p, step in enumerate("1" + trees._steps(dyck_word(tree)) + "0"):
        if step == "1":
            stack.append([p])
            continue
        down, *kids = stack.pop()
        out = q_multinomial(tuple(size for size, _ in kids))
        for _, value in kids:
            out = out * value
        stack[-1].append(((p - down + 1) // 2, out))
    return stack[0][0][1]


def q_degree(tree: PlaneTree) -> int:
    """Degree of q_poly(tree), without computing it: C(e + 1, 2) minus the
    hook lengths (_hook_lengths), e the edge count.  It bounds the delayed
    polynomial of the tree too, which sums a subset of the same removal
    sequences."""
    edges = edge_count(tree)
    return edges * (edges + 1) // 2 - sum(_hook_lengths(dyck_word(tree)))


def _hook_lengths(word: int) -> list[int]:
    """The hook length h_v, the vertex count of the subtree at v, of every
    vertex v below the root of the tree with the given Dyck word, in the
    order their steps up come: v's two steps and its subtree's between them
    number 2 h_v."""
    opened: list[int] = []  # where each open vertex stepped down
    hooks = []
    for p, step in enumerate(trees._steps(word)):
        if step == "1":
            opened.append(p)
        else:
            hooks.append((p - opened.pop() + 1) // 2)
    return hooks


class RerootCheck(NamedTuple):
    lhs: QPoly
    rhs: QPoly
    holds: bool


def check_reroot(tree: PlaneTree, addr: tuple) -> RerootCheck:
    """Cross-multiplied change-of-root identity for the edge above addr.

    With near/far edge counts (e1, e2) on the two sides of the edge, the
    q-polynomial rooted at the near endpoint times [e2 + 1] must equal the
    q-polynomial rooted at the far endpoint times [e1 + 1].  Stated
    multiplicatively, so everything stays in Z[q].
    """
    if not addr:
        raise RootHasNoEdge("the root has no incoming edge")
    near_edges, far_edges = side_edge_counts(tree, addr)
    rooted_near = tree if len(addr) == 1 else reroot_across_edge(tree, addr[:-1])
    rooted_far = reroot_across_edge(tree, addr)
    lhs = q_poly(rooted_near) * q_integer(far_edges + 1)
    rhs = q_poly(rooted_far) * q_integer(near_edges + 1)
    return RerootCheck(lhs, rhs, lhs == rhs)


# -- delayed variant -----------------------------------------------------------


def q_poly_delayed(delayed: DelayedTree) -> QPoly:
    """The q-polynomial of a tree with leaf delays.

    Only leaves with delay 1 may be removed; after each removal every
    surviving leaf delay drops by one (floor 1) and a freshly exposed
    parent becomes a delay-1 leaf.  The point gives 1; a nonpoint tree
    with no delay-1 leaf gives 0 (the sum is empty).
    """
    return _removal_sum(dyck_word(delayed.tree), delayed.delays)


# -- constant-delay blocks -------------------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """Blocks of a wedge, listed left to right, each with a constant leaf
    delay.  The rightmost block must have delay 1 and, reading right to
    left, each delay may exceed neither the next one nor one plus the edge
    count accumulated so far."""

    blocks: tuple[tuple[PlaneTree, int], ...]

    def __post_init__(self):
        blocks = tuple((tree, delay) for tree, delay in self.blocks)
        for tree, delay in blocks:
            if not isinstance(tree, PlaneTree):
                raise TypeError(f"tree must be a PlaneTree, got {type(tree).__name__}")
            if not isinstance(delay, int) or isinstance(delay, bool) or delay < 1:
                raise ValueError("delays must be positive integers")
        object.__setattr__(self, "blocks", blocks)


def q_poly_block(spec: BlockSpec) -> QPoly:
    """Closed formula for a wedge of constant-delay blocks.

    Equals the delayed recursion on the assembled tree whenever the delay
    chain is admissible; inadmissible specs are refused rather than
    evaluated.
    """
    if not spec.blocks:
        raise ValueError("empty block list")
    (first, prev), *rest = reversed(spec.blocks)
    if prev != 1:
        raise InadmissibleDelays("the rightmost block must have delay 1")
    out = ONE
    prefix = edge_count(first)
    for i, (tree_i, delay_i) in enumerate(rest, 1):
        if not prev <= delay_i <= prefix + 1:
            raise InadmissibleDelays(f"delay {delay_i} at block {i} falls outside [{prev}, {prefix + 1}]")
        edges_i = edge_count(tree_i)
        out = out * q_multinomial((edges_i, prefix - delay_i + 1))
        prefix += edges_i
        prev = delay_i
    for tree_i, _ in spec.blocks:
        out = out * q_poly(tree_i)
    return out


def assemble_blocks(spec: BlockSpec) -> DelayedTree:
    """Wedge the blocks and label each block's leaves with its delay."""
    tree = wedge([t for t, _ in spec.blocks])
    labels: list[int] = []
    for t, s in spec.blocks:
        labels += [s] * trees._leaf_count(dyck_word(t))
    return DelayedTree(tree, labels)


def sample_block_specs(count: int, max_total_edges: int, seed: int = 0) -> list[BlockSpec]:
    """Seeded sample of admissible block specs with the given edge budget.

    A spec has at least two blocks of at least one edge each, so a
    nonempty sample needs max_total_edges >= 2.
    """
    if count > 0 and max_total_edges < 2:
        raise ValueError(f"block specs need at least 2 edges, got {max_total_edges}")
    rng = random.Random(seed)
    out: list[BlockSpec] = []
    while len(out) < count:
        k = rng.randint(2, 4)
        if k > max_total_edges:
            continue
        total = rng.randint(k, max_total_edges)
        cuts = sorted(rng.sample(range(1, total), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        right_to_left: list[tuple[PlaneTree, int]] = []
        prefix = 0
        prev_delay = 1
        for i, edges in enumerate(sizes):
            delay = 1 if i == 0 else rng.randint(prev_delay, prefix + 1)
            right_to_left.append((random_plane_tree(edges, rng), delay))
            prefix += edges
            prev_delay = delay
        out.append(BlockSpec(tuple(reversed(right_to_left))))
    return out


# -- search ----------------------------------------------------------------------


def _value_index(edges: int) -> dict[tuple[int, ...], list[tuple[PlaneTree, tuple[int, ...]]]]:
    """Every delayed tree with the given edge count and delays in
    1..max(edges, 1), as (tree, delay vector), keyed by the coefficients of
    its delayed q-polynomial.  Each list runs in enumerate_plane_trees
    order, then itertools.product order of the delay vectors.

    One pass over each tree's removal sequences gives its value under every
    delay vector at once (_delayed_values), so no vector is evaluated alone
    and none needs pruning.  The values come packed into ints, one field of
    `width` bits per coefficient: a coefficient counts removal sequences of
    the tree, at most edges! of them, so edges!.bit_length() bits hold it.
    Each distinct packed value is decoded once, after the last tree, by its
    own loop rather than qpoly._unpack: bit fields keep the grid's ints
    small, and byte or 64-bit fields decoded by _unpack made the benchmark's
    delayed-search6 slower in each of 11 paired runs (wall_s 0.169-0.207 s
    against 0.154-0.183 s).

    Indexes are kept in _SEARCH_MEMO and published there only once
    complete, so a thread sees a whole index or none.
    """
    index = _SEARCH_MEMO.get(edges)
    if index is not None:
        return index
    side = max(edges, 1)
    width = math.factorial(edges).bit_length()
    vectors: dict[int, list[tuple[int, ...]]] = {}  # leaf count -> delay vectors in product order
    by_packed: defaultdict[int, list[tuple[PlaneTree, tuple[int, ...]]]] = defaultdict(list)
    for tree in enumerate_plane_trees(edges):
        word = dyck_word(tree)
        count = trees._leaf_count(word)
        labelled = vectors.get(count)
        if labelled is None:
            labelled = vectors[count] = list(itertools.product(range(1, side + 1), repeat=count))
        for packed, labels in zip(_delayed_values(word, count, side, width), labelled):
            by_packed[packed].append((tree, labels))
    mask = (1 << width) - 1
    index = {}
    for packed, hits in by_packed.items():
        coeffs = []
        while packed:
            coeffs.append(packed & mask)
            packed >>= width
        index[tuple(coeffs)] = hits
    return _SEARCH_MEMO.setdefault(edges, index)


def _delayed_values(word: int, leaves: int, side: int, width: int) -> list[int]:
    """The delayed values of the tree with the given Dyck word and leaf
    count under every delay vector in (1..side)**leaves, in
    itertools.product order, each packed as sum c_k << (k * width) for
    the coefficient c_k of q**k.  side must be at least the edge count.

    Under the delayed rule a leaf labelled d may move at move k exactly
    when k >= d: before move k its delay has dropped k - 1 times, to
    max(d - k + 1, 1), and a parent exposed as a new leaf may move at once.
    So a removal sequence is a game under delays d exactly when each
    original leaf v leaves at a move t(v) >= d_v, and its weight
    q**(sum of r(v)) does not depend on d.  The walk adds each sequence's
    weight to the cell of a grid at its removal times t, one axis per
    original leaf, the leftmost leaf's axis the most significant; suffix
    sums along every axis then leave the value for delays d in cell d.
    The sequences are walked as in _removal_sum, on an explicit stack,
    with the ids of the original leaves left to right, -1 for an exposed
    parent.
    """
    edges = word.bit_count()
    grid = [0] * side**leaves
    place = [side ** (leaves - 1 - i) for i in range(leaves)]
    stack = [(word, tuple(range(leaves)), 0, 0)]  # word, leaf ids, cell, weight
    while stack:
        word, ids, cell, weight = stack.pop()
        if not word:
            grid[cell] += 1 << (weight * width)
            continue
        move = edges - word.bit_count()  # moves made so far: the cell coordinate of this one
        found = word & ~(word << 1)
        i = -1
        while found:
            j = found.bit_length() - 1
            found ^= 1 << j
            i += 1
            low = word & ((1 << (j - 1)) - 1)
            rest = ((word >> (j + 1)) << (j - 1)) | low
            leaf = ids[i]
            if (word >> (j + 1)) & 1 and not (word >> (j - 2)) & 1:
                next_ids = ids[:i] + (-1,) + ids[i + 1 :]  # the parent is exposed as a new leaf
            else:
                next_ids = ids[:i] + ids[i + 1 :]
            moved = cell + move * place[leaf] if leaf >= 0 else cell
            stack.append((rest, next_ids, moved, weight + low.bit_count()))
    # suffix sums along each axis: the cells whose coordinate on it is c take
    # in those at c + 1, for c from side - 2 down; they form `stride` runs a
    # period apart or size // period blocks of `stride` cells, so slice
    # whichever way needs fewer slices
    size = len(grid)
    stride = 1
    while stride < size:
        period = stride * side
        for lo in range(period - 2 * stride, -1, -stride):
            hi = lo + stride
            if stride <= size // period:
                for r in range(stride):
                    grid[lo + r :: period] = map(add, grid[lo + r :: period], grid[hi + r :: period])
            else:
                for b in range(0, size, period):
                    grid[b + lo : b + hi] = map(add, grid[b + lo : b + hi], grid[b + hi : b + hi + stride])
        stride = period
    return grid


def search_delayed(target: QPoly, max_edges: int) -> list[DelayedTree]:
    """All delayed trees with at most max_edges edges whose delayed
    q-polynomial equals the target, in a fixed order: by edge count, then
    enumerate_plane_trees order, then itertools.product order of the delay
    vectors.

    Delays range over 1..edge count: a larger label never acts before the
    game ends, so it adds no new polynomials at fixed size.  The first
    search at each edge count builds its value index (_value_index) from
    one walk over each tree's removal sequences, which values every delay
    vector of the tree at once; later searches look the target up.  The
    search leaves nothing in the leaf-removal memo.
    """
    if not isinstance(target, QPoly):
        raise TypeError(f"target must be a QPoly, got {type(target).__name__}")
    if max_edges < 0:
        raise ValueError("edge bound must be nonnegative")
    return [
        DelayedTree(tree, labels)
        for edges in range(max_edges + 1)
        for tree, labels in _value_index(edges).get(target.coeffs, ())
    ]
