"""The q-polynomial of a plane rooted tree.

Three evaluators are provided.  The defining leaf-removal recursion and
the vertex-weight product each take any tree; the closed block formula
takes a wedge of constant-delay blocks, and the delayed recursion on the
assembled tree checks it.  Around them sit the change-of-root identity
check, the delayed-leaf variant, and a bounded search for delayed trees
hitting a target polynomial.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from array import array
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import NamedTuple

from . import presimplicial, qpoly, trees
from .qpoly import ONE, QPoly, _checked_int, _checked_type, _field_size, _fill_memo, _pack, _unpack, q_integer, q_multinomial
from .trees import (
    DelayedTree,
    PlaneTree,
    _checked_delays,
    _delayed_word,
    dyck_word,
    edge_count,
    enumerate_plane_trees,
    random_plane_tree,
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


# One memo for both games on trees of at most _SHARED_EDGES edges: plain
# states, all labels 1 included, are keyed by the tree's Dyck word, labelled
# states with some label above 1 by (word, delays), each value a packed int
# in fields of _SHARED_SIZE bytes (_removal_sum).
_QPOLY_MEMO: dict = {}
# 12! < 2**32 <= 13!: a tree with at most this many edges has fewer removal
# sequences than a 32-bit field holds, whatever its shape
_SHARED_EDGES = 12
_SHARED_SIZE = _field_size(math.factorial(_SHARED_EDGES).bit_length())
# The polynomial each key of _QPOLY_MEMO unpacks to, once a call returned it.
_RETURNED_MEMO: dict = {}
# The delayed search's value index per edge count (_value_index).
_SEARCH_MEMO: dict = {}


def clear_caches() -> None:
    """Drop the six memos of the package: the one shared by the plain and
    delayed recursion, the polynomials it has returned, the delayed
    search's value indexes, the Gaussian binomials of qpoly.q_binomial, the
    face lists of the topological trees with at most 8 leaves
    (presimplicial._faces) and the reductions to the point of those trees,
    one table in the 4-byte fields of the cap's bound 8 * 8!
    (presimplicial.reduce_to_point).  Results are unaffected, only speed.

    The recursion's memo holds the states with at most 12 edges, at most
    the 290,511 plain words with 1 to 12 edges and the labelled states of
    the delayed calls made, each value packed into one int, 4 bytes per
    coefficient; _RETURNED_MEMO keeps the polynomial of each state a call
    has returned, so a hit returns that object; a larger tree's states with
    more than 12 edges live only for its call (_removal_sum).  The search's
    indexes hold an 8-byte rank per candidate with a nonzero value and
    each distinct value once, as one packed int, and nothing for a zero
    candidate (_value_index): 2.0 MB for 0 to 6 edges, about 35 MB with 7
    (tracemalloc)."""
    _QPOLY_MEMO.clear()
    _RETURNED_MEMO.clear()
    _SEARCH_MEMO.clear()
    qpoly.q_binomial.cache_clear()
    presimplicial._FACES_MEMO.clear()
    presimplicial._REDUCED_MEMO.clear()


def q_poly(tree: PlaneTree) -> QPoly:
    """The q-polynomial by its defining recursion.

    The point maps to 1; otherwise sum q**r(v) * Q(T - v) over all leaves v,
    where r(v) counts the edges strictly right of the root-to-v path.
    Results are memoized on the tree shape for trees of at most 12 edges.
    """
    return _removal_sum(dyck_word(tree), ())


def _removal_sum(word: int, delays: tuple[int, ...]) -> QPoly:
    """Sum of q**r(v) times the value of T - v over the leaves v that may
    move, T the tree with the given Dyck word (trees.dyck_word).  delays
    labels the leaves left to right as in q_poly_delayed, or is () for the
    plain game, every leaf free to move.  Labels that are all 1 play the
    plain game too, so a state is keyed (word, delays) while some label is
    above 1 and by its word otherwise; () settles that without a scan.  The
    moves are trees._leaf_moves, under the delayed rule when labelled
    (_moves), and the one memo engine, qpoly._fill_memo, sums them.

    A state's value is kept packed into one int (qpoly._pack), the
    coefficient of q**k in bytes [k * size, (k + 1) * size), so a move
    adds the value of T - v shifted by r(v) fields in one big-int
    shift-add.  Fields are sized by qpoly._field_size.  A tree with at most
    _SHARED_EDGES (12) edges shares _QPOLY_MEMO, in the 4-byte fields 12!
    needs (_SHARED_SIZE); only a value returned is unpacked, and
    _RETURNED_MEMO keeps the polynomial, so a later hit returns the same
    object.  A larger tree fills a memo of its own, which it drops on
    return, in the fields of L(T) (_removal_count): a coefficient of any
    state reached counts removal sequences of that state, each of which
    extends to one of T.  Every move removes one edge, so that fill reaches
    the states with at most 12 edges only through the moves of its 13-edge
    states, which take their 12-edge values from _QPOLY_MEMO
    (_private_moves): the states other trees share are filled once, and
    nothing past 12 edges is kept.
    """
    if not word:
        return ONE
    key = (word, delays) if delays and max(delays) > 1 else word
    poly = _RETURNED_MEMO.get(key)
    if poly is None:
        if word.bit_count() > _SHARED_EDGES:
            size = _field_size(_removal_count(word).bit_length())
            memo: dict = {}
            return _unpack(_fill_memo(memo, key, size, partial(_private_moves, memo, size)), size)
        poly = _RETURNED_MEMO[key] = _unpack(_fill_memo(_QPOLY_MEMO, key, _SHARED_SIZE, _moves), _SHARED_SIZE)
    return poly


def _private_moves(memo: dict, size: int, key) -> list:
    """_moves(key) for a fill of a tree past _SHARED_EDGES edges in its own
    memo, in fields of `size` bytes.  A 13-edge state's moves reach 12-edge
    states, so before they are listed each of those not yet in memo is put
    there with its value from _QPOLY_MEMO, which is filled for it first if
    it is absent, re-packed from the 4-byte fields when size differs: a
    coefficient of any state reached fits the private fields
    (_removal_sum).  Only clear_caches deletes from _QPOLY_MEMO, so a value
    read there stays while other threads fill it."""
    moves = _moves(key)
    word = key[0] if key.__class__ is tuple else key
    if word.bit_count() == _SHARED_EDGES + 1:
        for _, sub in moves:
            if sub not in memo:
                packed = _QPOLY_MEMO.get(sub)
                if packed is None:
                    packed = _fill_memo(_QPOLY_MEMO, sub, _SHARED_SIZE, _moves)
                memo[sub] = packed if size == _SHARED_SIZE else _pack(_unpack(packed, _SHARED_SIZE).coeffs, size)
    return moves


def _moves(key) -> list:
    """(r(v), key of T - v) for each leaf v that may move in the state with
    the given key (_removal_sum), left to right.  A plain state's are
    trees._leaf_moves.  In a labelled one only a leaf labelled 1 moves;
    the other labels tick down, and the leaf's slot goes, unless T - v
    kept T's leaf count, when the slot is the exposed parent's, labelled 1.
    """
    if key.__class__ is not tuple:
        return trees._leaf_moves(key)
    word, delays = key
    ticked = [d - 1 if d > 2 else 1 for d in delays]
    moves = []
    for i, (r, rest) in enumerate(trees._leaf_moves(word)):
        if delays[i] == 1:
            labels = ticked.copy()
            if trees._leaf_count(rest) == len(delays):
                labels[i] = 1  # the parent is exposed as a new leaf
            else:
                del labels[i]  # the leaf slot disappears
            moves.append((r, (rest, tuple(labels)) if max(labels, default=1) > 1 else rest))
    return moves


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
    plus the hanging edge) of its child subtrees, which is 1 for a vertex
    with fewer than two children.  Agrees with q_poly on every tree.  One
    pass over the Dyck word, the root's own steps added around it, finishes
    each vertex at its step up and lists the weights other than 1.

    Every weight is palindromic, so their product is, of degree D the sum
    of their degrees: it is fixed by its coefficients 0..D // 2, and only
    those, keep = D // 2 + 1 of them, are multiplied out, then mirrored
    once.  Coefficient k of a product reads only coefficients up to k of
    its operands, so a weight longer than keep is cut to keep, and so is a
    product; no cut drops a trailing zero, since every coefficient from 0
    to a weight's degree is positive.  The list is multiplied
    Huffman-style: the two pending weights with the fewest kept
    coefficients, ties in listing order, give way to their product, so no
    product pairs a long accumulator with a short factor.  The point and
    the paths list no weight and give 1.
    """
    weights: list[QPoly] = []
    stack: list[list[int]] = [[]]  # per open vertex: where it stepped down, then its children's sizes
    for p, step in enumerate("1" + trees._steps(dyck_word(tree)) + "0"):
        if step == "1":
            stack.append([p])
            continue
        down, *sizes = stack.pop()
        if len(sizes) > 1:
            weights.append(q_multinomial(sizes))
        stack[-1].append((p - down + 1) // 2)
    if not weights:
        return ONE
    degree = sum(weight.degree for weight in weights)
    keep = degree // 2 + 1
    weights = [_cut(weight, keep) for weight in weights]
    heap = [(len(weight.coeffs), order, weight) for order, weight in enumerate(weights)]
    heapq.heapify(heap)
    for order in range(len(weights), 2 * len(weights) - 1):  # one product per weight but the first
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        product = _cut(a * b, keep)
        heapq.heappush(heap, (len(product.coeffs), order, product))
    low = heap[0][2].coeffs
    return QPoly._trusted([*low, *low[degree - keep :: -1]])  # coefficient degree - k is coefficient k


def _cut(poly: QPoly, keep: int) -> QPoly:
    """poly's coefficients 0..keep - 1, for a poly whose coefficients are
    positive up to its degree (q_poly_state), so none is a trailing zero."""
    return poly if len(poly.coeffs) <= keep else QPoly._trusted(list(poly.coeffs[:keep]))


def q_degree(tree: PlaneTree) -> int:
    """Degree of q_poly(tree), without computing it: C(e + 1, 2) minus the
    hook lengths (_hook_lengths), e the edge count.  It bounds the delayed
    polynomial of the tree too, which sums a subset of the same removal
    sequences."""
    hooks = _hook_lengths(dyck_word(tree))  # one per edge
    return len(hooks) * (len(hooks) + 1) // 2 - sum(hooks)


def _hook_lengths(word: int) -> list[int]:
    """The hook length h_v, the vertex count of the subtree at v, of every
    vertex v below the root of the tree with the given Dyck word, in the
    order their steps down come: v's two steps and its subtree's between
    them number 2 h_v (trees._pairs)."""
    _, match, _ = trees._pairs(word)
    return [(up - down + 1) // 2 for down, up in enumerate(match) if up > down]


class RerootCheck(NamedTuple):
    """The two cross-multiplied sides of the change-of-root identity
    (check_reroot) and whether they are equal."""

    lhs: QPoly
    rhs: QPoly
    holds: bool


def check_reroot(tree: PlaneTree, addr: tuple) -> RerootCheck:
    """Cross-multiplied change-of-root identity for the edge above addr.

    With near/far edge counts (e1, e2) on the two sides of the edge, the
    q-polynomial rooted at the near endpoint times [e2 + 1] must equal the
    q-polynomial rooted at the far endpoint times [e1 + 1].  Stated
    multiplicatively, so everything stays in Z[q].  The two sides compare
    the recursion's values of two Dyck words, both read by trees._rerooted
    off one walk of the address (trees._edge): the tree rooted at the
    address's parent (the tree itself for an edge at the root) and the
    tree rooted at the address.  Neither is built as a PlaneTree.
    """
    steps, spans, near_edges, far_edges = trees._edge(tree, addr)
    lhs = _removal_sum(trees._rerooted(steps, spans[:-1]), ()) * q_integer(far_edges + 1)
    rhs = _removal_sum(trees._rerooted(steps, spans), ()) * q_integer(near_edges + 1)
    return RerootCheck(lhs, rhs, lhs == rhs)


# -- delayed variant -----------------------------------------------------------


def q_poly_delayed(delayed: DelayedTree) -> QPoly:
    """The q-polynomial of a tree with leaf delays.

    Only leaves with delay 1 may be removed; after each removal every
    surviving leaf delay drops by one (floor 1) and a freshly exposed
    parent becomes a delay-1 leaf.  The point gives 1; a nonpoint tree
    with no delay-1 leaf gives 0 (the sum is empty); all labels 1 give
    q_poly, from the same memo entry (_removal_sum).
    """
    return _removal_sum(*_delayed_word(delayed))


# -- constant-delay blocks -------------------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """Blocks of a wedge, listed left to right, each with a constant leaf
    delay.  The rightmost block must have delay 1 and, reading right to
    left, each delay may exceed neither the next one nor one plus the edge
    count accumulated so far."""

    blocks: tuple[tuple[PlaneTree, int], ...]

    def __post_init__(self):
        blocks = []
        for block in _checked_type(self.blocks, Iterable, "blocks", "iterable"):
            if len(_checked_type(block, (tuple, list), "block", "a (tree, delay) pair")) != 2:
                raise ValueError(f"block must be a (tree, delay) pair, got length {len(block)}")
            tree, delay = block
            dyck_word(tree)
            _checked_delays((delay,))
            blocks.append((tree, delay))
        object.__setattr__(self, "blocks", tuple(blocks))


def _blocks(spec: BlockSpec) -> tuple[tuple[PlaneTree, int], ...]:
    """The blocks of a block spec, after refusing with TypeError anything
    but a BlockSpec."""
    return _checked_type(spec, BlockSpec, "block spec", "a BlockSpec").blocks


def q_poly_block(spec: BlockSpec) -> QPoly:
    """Closed formula for a wedge of constant-delay blocks.

    Equals the delayed recursion on the assembled tree whenever the delay
    chain is admissible; inadmissible specs are refused rather than
    evaluated.  Its block factors are state products, not the recursion.
    """
    blocks = _blocks(spec)
    if not blocks:
        raise ValueError("empty block list")
    (first, prev), *rest = reversed(blocks)
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
    for tree_i, _ in blocks:
        out = out * q_poly_state(tree_i)
    return out


def assemble_blocks(spec: BlockSpec) -> DelayedTree:
    """Wedge the blocks and label each block's leaves with its delay."""
    blocks = _blocks(spec)
    tree = wedge([t for t, _ in blocks])
    labels: list[int] = []
    for t, s in blocks:
        labels += [s] * trees._leaf_count(dyck_word(t))
    return DelayedTree(tree, labels)


def sample_block_specs(count: int, max_total_edges: int, seed: int = 0) -> list[BlockSpec]:
    """Seeded sample of admissible block specs with the given edge budget.

    A spec has at least two blocks of at least one edge each, so a
    nonempty sample needs max_total_edges >= 2.
    """
    _checked_int(count, "spec count", 0)
    _checked_int(max_total_edges, "edge bound", 0)
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


class _ValueIndex(NamedTuple):
    """The delayed search's candidates at one edge count (_value_index).  A
    candidate's rank counts the cells of the trees before it, in
    enumerate_plane_trees order, plus its own cell: the mixed-radix number
    of its labels, itertools.product order.  A value is filed packed, as
    its value at q = 2**width (_delayed_values).  Only nonzero values are
    filed: a rank below `candidates` that no value lists is a zero
    candidate, so the zero answer is kept once, as what the map leaves
    out."""

    ranks: dict[int, array]  # each nonzero packed value's candidates, ascending
    candidates: int  # the ranks are 0..candidates - 1; those filed under no value are zero
    starts: list[int]  # each tree's first rank
    cells: list[tuple]  # each tree, side**(low digits), high-digit labels, low-digit labels
    width: int  # bits per coefficient of a packed value


def _value_index(edges: int) -> _ValueIndex:
    """Every delayed tree with the given edge count and delays in
    1..max(edges, 1), as a rank (_ValueIndex), filed under its delayed
    q-polynomial when that is nonzero.  Each value's ranks are an
    array("q"), ascending; the zero candidates are the ranks filed under
    no value, counted but not stored, and listed in rank order on lookup
    (_witnesses).  The label tables of every leaf count and the deposit
    runs are built once, before the first tree.

    One pass over each tree's removal sequences gives its value under every
    delay vector at once (_delayed_values), so no vector is evaluated alone
    and none needs pruning.  The values come packed into ints, one field of
    `width` bits per coefficient: a coefficient counts removal sequences of
    the tree, at most edges! of them, so edges!.bit_length() bits hold it.
    They come side to a line, in fields of `span` bits, enough for degree
    C(edges, 2).  Raising a label only drops sequences, so the nonzero
    cells of a line, which differ in the last label only, are a prefix of
    it: its cells are split off and filed, under the packed int as it
    comes, until what is left of the line is 0, and each line moves the
    rank on by side.  A lookup packs the target instead.  An all-zero
    line, about half the lines at 6 edges, files nothing.

    Indexes are kept in _SEARCH_MEMO and published there only once
    complete, so a thread sees a whole index or none.
    """
    index = _SEARCH_MEMO.get(edges)
    if index is not None:
        return index
    side = max(edges, 1)
    width = math.factorial(edges).bit_length()
    span = (edges * (edges - 1) // 2 + 1) * width
    mask = (1 << span) - 1
    labels = range(1, side + 1)
    tables = [  # per leaf count, its trees' decoding tables, as in _ValueIndex.cells
        (side**low, list(itertools.product(labels, repeat=count - low)), list(itertools.product(labels, repeat=low)))
        for count in range(edges + 1)
        for low in [count // 2]
    ]
    runs = list(itertools.accumulate(1 << (c * span) for c in range(side)))  # fields 0..t of a line set to 1
    by_packed: defaultdict[int, array] = defaultdict(partial(array, "q"))
    candidates = 0
    starts: list[int] = []
    cells: list[tuple] = []
    moves: dict = {}  # shared by the trees' walks (_delayed_values)
    for tree in enumerate_plane_trees(edges):
        word = dyck_word(tree)
        count = trees._leaf_count(word)
        starts.append(candidates)
        cells.append((tree, *tables[count]))
        for line in _delayed_values(word, runs, width, moves):
            rank = candidates
            candidates += side
            while line:  # the nonzero cells, a prefix of the line
                by_packed[line & mask].append(rank)
                rank += 1
                line >>= span
    return _SEARCH_MEMO.setdefault(edges, _ValueIndex(dict(by_packed), candidates, starts, cells, width))


def _witnesses(index: _ValueIndex, target: QPoly) -> list[DelayedTree]:
    """The delayed trees of the index whose value is the target, in rank
    order: for the zero target the ranks filed under no value, flagged in
    one bytearray per lookup, for any other the ranks filed under the
    target packed as the index's values are.  A target with a coefficient
    that fits no field (negative, or 2**width or more) is no value of the
    index, and packing it would alias another.  Only these ranks are
    decoded: bisect finds the tree, and the cell's high and low digits pick
    the labels from its two tables."""
    coeffs = target.coeffs
    if not coeffs:
        zeros = bytearray(b"\1") * index.candidates
        for rank in itertools.chain.from_iterable(index.ranks.values()):
            zeros[rank] = 0  # filed under a nonzero value
        ranks = itertools.compress(itertools.count(), zeros)
    else:
        ranks = index.ranks.get(target.eval_int(1 << index.width), ())
        if ranks and (min(coeffs) < 0 or max(coeffs) >> index.width):
            ranks = ()  # checked only on a hit, as only a hit can be an alias
    starts, cells, of = index.starts, index.cells, DelayedTree._of
    out = []
    for rank in ranks:
        i = bisect_right(starts, rank) - 1
        tree, modulus, high, low = cells[i]
        h, l = divmod(rank - starts[i], modulus)
        out.append(of(tree, high[h] + low[l]))
    return out


def _delayed_values(word: int, runs: list[int], width: int, moves: dict) -> list[int]:
    """The delayed values of the tree with the given Dyck word under every
    delay vector in (1..side)**leaves, side = len(runs) and leaves the
    tree's leaf count, read off the word, in itertools.product order, each
    packed as sum c_k << (k * width) for the coefficient c_k of q**k, side
    of them to a line: vector i * side + t is field t of line i, span bits
    wide, and runs[t] has fields 0..t set to 1 (_value_index).  side must be
    at least the edge count.

    Under the delayed rule a leaf labelled d may move at move k exactly
    when k >= d: before move k its delay has dropped k - 1 times, to
    max(d - k + 1, 1), and a parent exposed as a new leaf may move at once.
    So a removal sequence is a game under delays d exactly when each
    original leaf v leaves at a move t(v) >= d_v, and its weight
    q**(sum of r(v)) does not depend on d.  The walk adds each sequence's
    weight at its removal times t, one axis per original leaf, the leftmost
    leaf's axis the most significant, as runs[t] shifted by the weight into
    its line, t its time on the last axis: that one shift-add is the suffix
    sum along the last axis.  Suffix sums along the others, over the lines,
    then leave the value for delays d in cell d: each of leaves - 1 passes
    sums along the outermost axis of the lines and rotates it to the
    innermost place, so one slice form serves every axis and the last pass
    restores their order: the blocks of the outermost axis are summed from
    the last one down, each sum written straight to its rotated place.  The
    sequences are walked on an explicit stack, with the ids of the original
    leaves left to right, -1 for an exposed parent.

    A state with at most one leaf, the point or a path, ends its walk: its
    one leaf must go at the current move, then each exposed parent up the
    path, every r(v) on a path is 0, so the weight is final, and only an
    original leaf (id >= 0) moves the cell, the parents exposed after it
    touching no axis.  So its sequence is deposited at once.  That walks
    18,501 states over the 6-edge trees and 240,941 over the 7-edge ones,
    where walking every sequence down to the point would take 33,165 and
    431,574.

    The walk shares only trees._leaf_moves with the recursion: the moves
    of each word with two or more leaves are listed once in `moves`, the
    dict of its edge count (_value_index), with a flag for an exposed
    parent, where T - v keeps T's leaf count.  Their r(v) and T - v are
    checked by the plain recursion against the state product, which has no
    move code; each evaluator reads exposure on its own, and verify block
    checks it.
    """
    edges = word.bit_count()
    leaves = trees._leaf_count(word)
    side = len(runs)
    lines = [0] * (side**leaves // side)
    place = [side ** (leaves - 1 - i) for i in range(leaves)]
    stack = [(word, tuple(range(leaves)), 0, 0)]  # word, leaf ids, cell, weight
    while stack:
        word, ids, cell, weight = stack.pop()
        move = edges - word.bit_count()  # moves made so far: the cell coordinate of this one
        if len(ids) < 2:  # the point or a path: the rest of the game is forced
            if ids and ids[0] >= 0:
                cell += move * place[ids[0]]
            lines[cell // side] += runs[cell % side] << (weight * width)
            continue
        listed = moves.get(word)
        if listed is None:
            count = trees._leaf_count(word)
            listed = moves[word] = [(r, rest, trees._leaf_count(rest) == count) for r, rest in trees._leaf_moves(word)]
        for i, (r, rest, exposed) in enumerate(listed):
            leaf = ids[i]
            next_ids = ids[:i] + (-1,) + ids[i + 1 :] if exposed else ids[:i] + ids[i + 1 :]
            moved = cell + move * place[leaf] if leaf >= 0 else cell
            stack.append((rest, next_ids, moved, weight + r))
    # suffix sums, one pass per axis but the last; each block is dropped once
    # read, so the old values are freed as the sums are made
    block = len(lines) // side
    for _ in range(leaves - 1):
        rotated = [0] * len(lines)
        total = lines[(side - 1) * block :]
        del lines[(side - 1) * block :]
        rotated[side - 1 :: side] = total
        for c in range(side - 2, -1, -1):
            total = list(map(add, lines[c * block :], total))
            del lines[c * block :]
            rotated[c::side] = total
        lines = rotated
    return lines


def search_delayed(target: QPoly, max_edges: int) -> list[DelayedTree]:
    """All delayed trees with at most max_edges edges whose delayed
    q-polynomial equals the target, in a fixed order: by edge count, then
    enumerate_plane_trees order, then itertools.product order of the delay
    vectors.

    Delays range over 1..edge count: a larger label never acts before the
    game ends, so it adds no new polynomials at fixed size.  The first
    search at each edge count builds its value index (_value_index) from
    one walk over each tree's removal sequences, which values every delay
    vector of the tree at once; later searches look the target's ranks up
    under its packed value and decode only those (_witnesses), the zero
    target's as the ranks the index files under no value.  A value at e
    edges has degree at most C(e, 2), since its hook lengths sum to at
    least e (q_degree), so an edge count below the target's degree is
    neither built nor looked up; the zero target and 1 reach every edge
    count.  The search leaves nothing in the leaf-removal memo.  max_edges
    must be an int (not a bool).
    """
    _checked_type(target, QPoly, "target", "a QPoly")
    _checked_int(max_edges, "edge bound", 0)
    return [
        hit
        for edges in range(max_edges + 1)
        if edges * (edges - 1) // 2 >= target.degree
        for hit in _witnesses(_value_index(edges), target)
    ]
