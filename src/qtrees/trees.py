"""Plane rooted trees: grammar, vertex addressing, surgery, enumeration.

Text grammar:  Tree := "." | "(" Tree+ ")" .  A "." is a leaf; an internal
node lists its children left to right, and that order is significant (it is
the plane embedding).  The delayed grammar is the same grammar with integer
leaves admitted: each leaf is a positive integer label in ASCII digits, "."
meaning 1.

A vertex is addressed by the sequence of 0-based child indices walked from
the root; the empty address is the root itself.  A tree is held as its Dyck
word, which every function outside PlaneTree reads through dyck_word alone,
and every walk is a scan of the word.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .qpoly import _checked_int, _checked_type

__all__ = [
    "PlaneTree",
    "DelayedTree",
    "VertexAddr",
    "POINT",
    "ParseError",
    "ZeroDelay",
    "NotALeaf",
    "InvalidAddress",
    "RootHasNoEdge",
    "BoundExceeded",
    "parse_tree",
    "parse_delayed",
    "serialize",
    "serialize_delayed",
    "node_at",
    "edge_count",
    "leaves",
    "dyck_word",
    "remove_leaf",
    "wedge",
    "star",
    "side_edge_counts",
    "reroot_across_edge",
    "enumerate_plane_trees",
    "random_plane_tree",
]

VertexAddr = tuple  # sequence of 0-based child indices, () = root


class ParseError(ValueError):
    """Malformed tree text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ZeroDelay(ParseError):
    """A delay literal of 0 appeared; delays must be positive."""


class NotALeaf(ValueError):
    """The addressed vertex is not a leaf."""


class InvalidAddress(IndexError):
    """The address walks out of the tree."""


class RootHasNoEdge(ValueError):
    """An edge operation was pointed at the root address."""


class BoundExceeded(ValueError):
    """A requested size or degree lies outside what the command line allows."""


class PlaneTree:
    """A plane rooted tree, held as its Dyck word (see dyck_word) and, once
    read, its children: the subtree rooted at one vertex, a leaf if it has
    no children.  Equality and the hash read the word, so trees of any
    depth compare and work as dictionary keys.  PlaneTree(children) builds
    a tree from its child subtrees, left to right; the package builds every
    tree from its word with _of, and every walk reads the word.
    """

    __slots__ = ("_word", "_kids")

    def __init__(self, children: Iterable["PlaneTree"] = ()):
        children = _checked_type(children, Iterable, "children", "iterable")
        self._word, self._kids = _planted([dyck_word(c) for c in children]), None

    @classmethod
    def _of(cls, word: int) -> "PlaneTree":
        """The tree with the given Dyck word, which must be one."""
        tree = object.__new__(cls)
        tree._word, tree._kids = word, None
        return tree

    @property
    def children(self) -> tuple["PlaneTree", ...]:
        """The child subtrees, left to right.  The first read decodes the
        whole subtree in one scan of the word and keeps each vertex's
        children on its node, so a walk over them stays linear."""
        if self._kids is None:
            steps = _steps(self._word)
            stack: list[list] = [[]]  # where each open vertex stepped down, then its children so far
            for p, step in enumerate(steps):
                if step == "1":
                    stack.append([p])
                else:
                    down, *kids = stack.pop()
                    node = PlaneTree._of(int(steps[down + 1 : p] or "0", 2))
                    node._kids = tuple(kids)
                    stack[-1].append(node)
            self._kids = tuple(stack[0])
        return self._kids

    def __eq__(self, other: object):
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return self._word == other._word

    def __hash__(self):
        return hash(self._word)

    def __repr__(self):
        return f"PlaneTree({serialize(self)!r})"


def _planted(words: Iterable[int]) -> int:
    """The Dyck word of the tree whose root has children with the given
    words, left to right."""
    word = 0
    for k in words:
        n = k.bit_length()
        word = (word << (n + 2)) | (1 << (n + 1)) | (k << 1)  # 1, the child's word, 0
    return word


POINT = PlaneTree._of(0)


def _steps(word: int) -> str:
    """The Dyck word as a string of steps, highest bit first: "1" steps
    down an edge, "0" back up, and a leaf is a "10".  The root owns no
    step; a vertex below it owns its step down and that step's partner,
    the step back up, with its subtree's steps between them."""
    return bin(word)[2:] if word else ""


def _pairs(word: int) -> tuple[str, list[int], list[int]]:
    """The word's steps, the position of each step's partner, and where
    each only child steps down, found in one explicit-stack scan."""
    steps = _steps(word)
    match = [0] * len(steps)
    opened = []
    only = []
    closed = -1  # where the vertex that closed last stepped down
    for p, step in enumerate(steps):
        if step == "1":
            opened.append(p)
            continue
        q = opened.pop()
        match[q] = p
        match[p] = q
        if closed == q + 1:  # its first child closed just before it: an only child
            only.append(closed)
        closed = q
    if match and match[0] == len(steps) - 1:  # the root's one child
        only.append(0)
    return steps, match, only


def _spans(tree: PlaneTree, addr: VertexAddr) -> tuple[str, list[tuple[int, int]]]:
    """The tree's steps and, for the root and each vertex on the way to the
    addressed one, the positions of its steps down and back up (-1 and the
    step count for the root), from one forward walk over the matched
    steps.  The address must be a tuple or a list, and a child index an int
    (not a bool); one that leaves the tree, -1 included, raises
    InvalidAddress."""
    _checked_type(addr, (tuple, list), "address", "a tuple or a list")
    steps, match, _ = _pairs(dyck_word(tree))
    spans = [(-1, len(steps))]
    for i in addr:
        i = _checked_int(i, "child index")
        down, up = spans[-1]
        child = down + 1  # the first child steps down just after its parent
        while i > 0 and child < up:
            child = match[child] + 1  # the next sibling
            i -= 1
        if i < 0 or child >= up:
            raise InvalidAddress(f"no vertex at address {'.'.join(map(str, addr))}")
        spans.append((child, match[child]))
    return steps, spans


def _addresses(tree: PlaneTree, leaves_only: bool) -> list[VertexAddr]:
    """The address of every vertex below the root, or of every leaf, in
    pre-order, from one forward walk over the tree's steps."""
    steps = _steps(dyck_word(tree))
    out = []
    path: list[int] = []  # the child index of each open vertex below the root
    index = 0  # the index of the next child of the innermost open vertex
    for p, step in enumerate(steps):
        if step == "1":
            path.append(index)
            index = 0
            if not leaves_only or steps[p + 1] == "0":
                out.append(tuple(path))
        else:
            index = path.pop() + 1
    return out


# -- text grammar ------------------------------------------------------------


def parse_tree(text: str) -> PlaneTree:
    """Parse  Tree := "." | "(" Tree+ ")"  with optional whitespace."""
    return _parse(text, labelled=False)[0]


_BRACKETS = str.maketrans("10", "()")  # steps written as text


def _parse(text: str, labelled: bool) -> tuple[PlaneTree, list[int]]:
    """The tree and its leaf labels, left to right.  labelled admits
    integer leaves (the delayed grammar); a "." leaf is labelled 1 in both
    grammars.  The text is read as steps, "(" down, ")" up and a leaf both,
    with a depth count, so any nesting parses; inside the root's own two
    steps they are the Dyck word."""
    end = len(_checked_type(text, str, "text", "a str"))
    labels: list[int] = []
    steps: list[str] = []
    depth = 0  # parentheses open
    opened = done = False  # the last token was "(", the tree is complete
    pos = 0
    while pos < end:
        ch = text[pos]
        pos += 1
        if ch.isspace():
            continue
        if done:
            raise ParseError("trailing input", pos - 1)
        if ch == "(":
            steps.append("1")
            depth += 1
        elif ch == ")" and depth:
            if opened:
                raise ParseError("empty node", pos - 1)
            steps.append("0")
            depth -= 1
        elif ch == "." or labelled and "0" <= ch <= "9":
            start = pos - 1
            while ch != "." and pos < end and "0" <= text[pos] <= "9":
                pos += 1
            labels.append(int(text[start:pos]) if ch != "." else 1)
            if not labels[-1]:
                raise ZeroDelay("zero delay", start)
            steps.append("10")
        else:
            raise ParseError(f"unexpected character {ch!r}", pos - 1)
        opened = ch == "("
        done = not depth
    if not done:
        raise ParseError("unbalanced '('" if depth else "unexpected end of input", end)
    return PlaneTree._of(int("".join(steps)[1:-1] or "0", 2)), labels


def serialize(tree: PlaneTree) -> str:
    """Canonical text, whitespace-free; round-trips through parse_tree."""
    steps = _steps(dyck_word(tree))
    return "(" + steps.replace("10", ".").translate(_BRACKETS) + ")" if steps else "."


# -- structure queries -------------------------------------------------------


def node_at(tree: PlaneTree, addr: VertexAddr) -> PlaneTree:
    """Subtree rooted at the addressed vertex."""
    steps, spans = _spans(tree, addr)
    down, up = spans[-1]
    return PlaneTree._of(int(steps[down + 1 : up] or "0", 2))


def edge_count(tree: PlaneTree) -> int:
    """Number of edges: one per vertex below the root."""
    return dyck_word(tree).bit_length() // 2


def leaves(tree: PlaneTree) -> tuple[VertexAddr, ...]:
    """Addresses of all childless non-root vertices, left to right."""
    return tuple(_addresses(tree, leaves_only=True))


def dyck_word(tree: PlaneTree) -> int:
    """The tree's Dyck word packed in one int, read from the most
    significant bit: 1 steps down an edge, 0 steps back up.  The point is 0
    and every other word starts with 1, so shapes and ints match one to one
    and the bit length is twice the edge count.  Every tree keeps its word
    from construction, and outside PlaneTree only this reads it: anything
    but a PlaneTree is refused here, with TypeError."""
    if not isinstance(tree, PlaneTree):
        raise TypeError(f"tree must be a PlaneTree, got {type(tree).__name__}")
    return tree._word


def _leaf_count(word: int) -> int:
    """Leaves of the tree with the given Dyck word: a leaf is a down-step
    followed by an up-step, a set bit of word & ~(word << 1).  The point
    (word 0) has none; its root is not a leaf."""
    return (word & ~(word << 1)).bit_count()


def _leaf_moves(word: int) -> list[tuple[int, int]]:
    """(r(v), word of T - v) for each leaf v of the tree T with the given
    Dyck word, left to right, r(v) the edges strictly right of the
    root-to-v path.  Removing the leaf at bit j (_leaf_count) deletes bits
    j and j - 1, and r(v) counts the down-steps after them, in the lower
    bits.  T - v keeps T's leaf count exactly when v was an only child
    below a non-root vertex, so that its parent becomes a new leaf."""
    moves = []
    found = word & ~(word << 1)
    while found:
        j = found.bit_length() - 1
        found ^= 1 << j
        low = word & ((1 << (j - 1)) - 1)
        moves.append((low.bit_count(), ((word >> (j + 1)) << (j - 1)) | low))
    return moves


def remove_leaf(tree: PlaneTree, addr: VertexAddr) -> PlaneTree:
    """Delete a leaf and its edge.  No smoothing: a parent left childless
    becomes a new leaf."""
    steps, spans = _spans(tree, addr)
    if not addr:
        raise NotALeaf("the root is not a leaf")
    down, up = spans[-1]
    if up != down + 1:
        raise NotALeaf(f"vertex {'.'.join(map(str, addr))} has children")
    return PlaneTree._of(int(steps[:down] + steps[up + 1 :] or "0", 2))


# -- surgery -----------------------------------------------------------------


def wedge(parts: Iterable[PlaneTree]) -> PlaneTree:
    """Glue trees at their roots; children concatenate left to right."""
    ps = tuple(_checked_type(parts, Iterable, "parts", "iterable"))
    if not ps:
        raise ValueError("wedge of no trees")
    return PlaneTree._of(int("".join(_steps(dyck_word(p)) for p in ps) or "0", 2))


def star(rays: int) -> PlaneTree:
    """Root with the given number of leaf children; 0 gives the point."""
    return PlaneTree._of(int("10" * _checked_int(rays, "ray count", 0) or "0", 2))


def _edge(tree: PlaneTree, addr: VertexAddr) -> tuple[str, list[tuple[int, int]], int, int]:
    """The tree's steps, the span chain of _spans and the edge counts
    (root side, far side) of the edge above the addressed vertex, from one
    walk.  The root has no such edge and raises RootHasNoEdge."""
    steps, spans = _spans(tree, addr)
    if not addr:
        raise RootHasNoEdge("the root has no incoming edge")
    down, up = spans[-1]
    below = (up - down) // 2
    return steps, spans, len(steps) // 2 - 1 - below, below


def _rerooted(steps: str, spans: list[tuple[int, int]]) -> int:
    """The Dyck word of the tree with the given steps re-rooted at the last
    vertex of a span chain from _spans; a chain of the root alone gives the
    word itself.  The new root's steps are its own, then one more child's:
    each former parent's other children, from the nearest up."""
    down, up = spans[-1]
    out = [steps[down + 1 : up]]
    for (above, back), (down, up) in zip(reversed(spans[:-1]), reversed(spans[1:])):
        out += ("1", steps[above + 1 : down], steps[up + 1 : back])
    out.append("0" * (len(spans) - 1))
    return int("".join(out), 2)


def side_edge_counts(tree: PlaneTree, addr: VertexAddr) -> tuple[int, int]:
    """Edge counts (root side, far side) of the edge above the addressed
    vertex; the two counts plus the edge itself sum to the total."""
    return _edge(tree, addr)[2:]


def reroot_across_edge(tree: PlaneTree, addr: VertexAddr) -> PlaneTree:
    """Re-root the tree at the addressed vertex.

    The former parent chain is reversed: each former parent is attached as
    the last child of its former child.  The abstract (unordered) rooted
    tree is unchanged.
    """
    steps, spans, _, _ = _edge(tree, addr)
    return PlaneTree._of(_rerooted(steps, spans))


# -- enumeration and randomization --------------------------------------------


def _plane_trees(edges: int) -> tuple[PlaneTree, ...]:
    levels = [[0]]  # the Dyck words of each edge count, built bottom-up
    for size in range(1, edges + 1):
        out = []
        for first in range(size):
            rest_bits = 2 * (size - 1 - first)
            for head in levels[first]:
                planted = _planted((head,)) << rest_bits
                out += [planted | rest for rest in levels[size - 1 - first]]
        levels.append(out)
    return tuple(map(PlaneTree._of, levels[edges]))


def enumerate_plane_trees(edges: int) -> tuple[PlaneTree, ...]:
    """All plane rooted trees with exactly the given edge count, each once,
    in a fixed order (first-child subtree size ascending)."""
    return _plane_trees(_checked_int(edges, "edge count", 0))


def random_plane_tree(edges: int, rng: random.Random) -> PlaneTree:
    """Uniformly random plane tree with the given edge count.  An open vertex
    with e edges left hangs first of them below its next child with
    probability C(first) C(e - 1 - first) / C(e), C the Catalan numbers:
    first is the least index whose prefix sum of these terms exceeds a
    uniform draw below C(e).  The terms are symmetric and their mass sits
    at both ends, so the search walks in from both ends at once.  The
    steps are written as the vertices open and close."""
    _checked_int(edges, "edge count", 0)
    _checked_type(rng, random.Random, "rng", "a random.Random")
    catalan = [1]
    for n in range(edges):
        catalan.append(catalan[-1] * 2 * (2 * n + 1) // (n + 2))
    steps: list[str] = []
    stack = [edges]  # edges left to hang below each open vertex
    while stack:
        remaining = stack[-1]
        if remaining:
            r = rng.randrange(catalan[remaining])
            first, last = 0, remaining - 1
            term = catalan[last]
            below, above = term, catalan[remaining] - term  # prefix sums through first and through last - 1
            while below <= r < above:
                first += 1
                last -= 1
                term = catalan[first] * catalan[last]
                below += term
                above -= term
            if r >= below:
                first = last
            stack[-1] = remaining - 1 - first
            stack.append(first)
            steps.append("1")
        else:
            stack.pop()
            steps.append("0")
    steps.pop()  # the root's own, which owns no step
    return PlaneTree._of(int("".join(steps) or "0", 2))


# -- delayed trees -------------------------------------------------------------


def _checked_delays(delays: Iterable[int]) -> tuple[int, ...]:
    """The delay labels as a tuple, after refusing with ValueError one that
    is not a positive int (a bool is none)."""
    delays = tuple(delays)
    for value in delays:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError("delays must be positive integers")
    return delays


@dataclass(frozen=True, slots=True)
class DelayedTree:
    """A plane tree whose leaves carry positive integer delay labels, listed
    in left-to-right leaf order.  The point has no leaves and no labels."""

    tree: PlaneTree
    delays: tuple[int, ...]

    def __post_init__(self):
        leaf_total = _leaf_count(dyck_word(self.tree))
        if isinstance(self.delays, Mapping):
            raise ValueError("delays must be labels in leaf order, not a mapping")
        delays = tuple(_checked_type(self.delays, Iterable, "delays", "iterable"))
        if len(delays) != leaf_total:
            raise ValueError(f"need one delay per leaf: {leaf_total} leaves, {len(delays)} delays")
        object.__setattr__(self, "delays", _checked_delays(delays))

    @classmethod
    def _of(cls, tree: PlaneTree, delays: tuple[int, ...]) -> "DelayedTree":
        """The delayed tree with the given tree and labels, which must be a
        tuple of positive ints, one per leaf; nothing is checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "tree", tree)  # frozen: slots are set past the class's __setattr__
        object.__setattr__(out, "delays", delays)
        return out


def _delayed_word(delayed: DelayedTree) -> tuple[int, tuple[int, ...]]:
    """The Dyck word and leaf labels of a delayed tree, after refusing with
    TypeError anything but a DelayedTree."""
    _checked_type(delayed, DelayedTree, "delayed tree", "a DelayedTree")
    return dyck_word(delayed.tree), delayed.delays


def parse_delayed(text: str) -> DelayedTree:
    """Parse the delayed grammar: leaves are positive integers, "." means 1.

    Adjacent integer leaves need whitespace between them; a bare leaf at the
    top level is the point, whose label is vacuous (the root is not a leaf).
    """
    node, delays = _parse(text, labelled=True)
    return DelayedTree(node, delays if dyck_word(node) else ())


def serialize_delayed(delayed: DelayedTree) -> str:
    """Canonical delayed text: integer leaves, single spaces between
    children; round-trips through parse_delayed.  Siblings meet where a
    step up is followed by a step down."""
    word, delays = _delayed_word(delayed)
    if not word:
        return "."
    pieces = _steps(word).replace("01", "0 1").split("10")  # a leaf between each two
    out = [pieces[0].translate(_BRACKETS)]
    for label, piece in zip(delays, pieces[1:]):
        out += (str(label), piece.translate(_BRACKETS))
    return "(" + "".join(out) + ")"
