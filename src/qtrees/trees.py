"""Plane rooted trees: grammar, vertex addressing, surgery, enumeration.

Text grammar:  Tree := "." | "(" Tree+ ")" .  A "." is a leaf; an internal
node lists its children left to right, and that order is significant (it is
the plane embedding).  The delayed grammar is the same grammar with integer
leaves admitted: each leaf is a positive integer label in ASCII digits, "."
meaning 1.

A vertex is addressed by the sequence of 0-based child indices walked from
the root; the empty address is the root itself.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

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
    """A requested size or degree exceeds a hard cap of the command line."""


class PlaneTree:
    """A plane rooted tree: an immutable ordered tuple of child subtrees.

    A node with no children is a leaf; the whole value is the subtree rooted
    at that node.  Its identity is its Dyck word (see dyck_word), built from
    the children's words at construction: equality and the hash read it, so
    trees of any depth compare and work as dictionary keys.
    """

    __slots__ = ("children", "_hash", "_word")

    def __init__(self, children: Iterable["PlaneTree"] = ()):
        kids = tuple(children)
        word = 0
        for c in kids:
            if not isinstance(c, PlaneTree):
                raise TypeError("children must be PlaneTree values")
            k = c._word
            n = k.bit_length()
            word = (word << (n + 2)) | (1 << (n + 1)) | (k << 1)  # 1, kid's word, 0
        self.children = kids
        self._word = word
        self._hash = hash(word)

    def __eq__(self, other: object):
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return self._word == other._word

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PlaneTree({serialize(self)!r})"


POINT = PlaneTree()


# -- text grammar ------------------------------------------------------------


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def parse_tree(text: str) -> PlaneTree:
    """Parse  Tree := "." | "(" Tree+ ")"  with optional whitespace."""
    return _parse(text, labelled=False)[0]


def _parse(text: str, labelled: bool) -> tuple[PlaneTree, list[int]]:
    """The tree and its leaf labels, left to right, read with an explicit
    stack so nesting depth is unbounded.  labelled admits integer leaves
    (the delayed grammar); a "." leaf is labelled 1 in both grammars."""
    end = len(text)
    labels: list[int] = []
    stack: list[list[PlaneTree]] = [[]]  # the result, then the kids of each open "("
    pos = 0
    while True:
        pos = _skip_ws(text, pos)
        if len(stack) == 1 and stack[0]:
            if pos != end:
                raise ParseError("trailing input", pos)
            return stack[0][0], labels
        if pos >= end:
            raise ParseError("unbalanced '('" if len(stack) > 1 else "unexpected end of input", pos)
        ch = text[pos]
        if ch == ")" and len(stack) > 1:
            kids = stack.pop()
            if not kids:
                raise ParseError("empty node", pos)
            stack[-1].append(PlaneTree(kids))
            pos += 1
        elif ch == "(":
            stack.append([])
            pos += 1
        elif ch == ".":
            stack[-1].append(POINT)
            labels.append(1)
            pos += 1
        elif labelled and "0" <= ch <= "9":
            start = pos
            while pos < end and "0" <= text[pos] <= "9":
                pos += 1
            labels.append(int(text[start:pos]))
            if labels[-1] == 0:
                raise ZeroDelay("zero delay", start)
            stack[-1].append(POINT)
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)


def serialize(tree: PlaneTree) -> str:
    """Canonical text, whitespace-free; round-trips through parse_tree."""
    return _write(tree, itertools.repeat("."), "")


def _write(tree: PlaneTree, leaf_texts: Iterator[str], sep: str) -> str:
    """Tree text with each leaf written as the next of leaf_texts and sep
    between siblings, built with an explicit stack."""
    out: list[str] = []
    todo: list = [tree]  # trees still to write, and literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.children:
            out.append("(")
            todo.append(")")
            for kid in reversed(item.children):
                todo += (kid, sep)
            todo.pop()  # no separator before the first child
        else:
            out.append(next(leaf_texts))
    return "".join(out)


# -- structure queries -------------------------------------------------------


def node_at(tree: PlaneTree, addr: VertexAddr) -> PlaneTree:
    """Subtree rooted at the addressed vertex."""
    node = tree
    for i in addr:
        if not 0 <= i < len(node.children):
            raise InvalidAddress(f"no vertex at address {_format_addr(addr)}")
        node = node.children[i]
    return node


def _format_addr(addr: VertexAddr) -> str:
    """Dot-separated child indices, as error messages name a vertex below
    the root."""
    return ".".join(map(str, addr))


def _preorder(tree: PlaneTree) -> Iterator[tuple[VertexAddr, PlaneTree]]:
    """(address, subtree) for every vertex, root first, siblings left to right."""
    stack = [((), tree)]
    while stack:
        addr, node = item = stack.pop()
        yield item
        kids = node.children
        i = len(kids)
        while i:  # right to left, so the leftmost child comes out first
            i -= 1
            stack.append((addr + (i,), kids[i]))


def _postorder(tree: PlaneTree) -> list[PlaneTree]:
    """Every subtree, children before parents, siblings left to right."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    out.reverse()  # a right-first pre-order, reversed
    return out


def edge_count(tree: PlaneTree) -> int:
    """Number of edges: one per vertex below the root."""
    return tree._word.bit_length() // 2


def leaves(tree: PlaneTree) -> tuple[VertexAddr, ...]:
    """Addresses of all childless non-root vertices, left to right."""
    return tuple(addr for addr, node in _preorder(tree) if addr and not node.children)


def dyck_word(tree: PlaneTree) -> int:
    """The tree's Dyck word packed in one int, read from the most
    significant bit: 1 steps down an edge, 0 steps back up.  The point is 0
    and every other word starts with 1, so shapes and ints match one to one
    and the bit length is twice the edge count.  Every tree keeps its word
    from construction."""
    return tree._word


def _leaf_count(word: int) -> int:
    """Leaves of the tree with the given Dyck word: a leaf is a down-step
    followed by an up-step, a set bit of word & ~(word << 1).  The point
    (word 0) has none; its root is not a leaf."""
    return (word & ~(word << 1)).bit_count()


def remove_leaf(tree: PlaneTree, addr: VertexAddr) -> PlaneTree:
    """Delete a leaf and its edge.  No smoothing: a parent left childless
    becomes a new leaf."""
    if not addr:
        raise NotALeaf("the root is not a leaf")
    if node_at(tree, addr).children:
        raise NotALeaf(f"vertex {_format_addr(addr)} has children")
    return _splice(tree, addr, ())


def _splice(tree: PlaneTree, addr: VertexAddr, replacement: tuple) -> PlaneTree:
    """The tree with the subtree at a valid address replaced by the trees in
    replacement (none deletes it; exactly one at the root).  The path is
    rebuilt bottom-up, without recursion."""
    path = [tree]
    for i in addr[:-1]:
        path.append(path[-1].children[i])
    kids = replacement
    for node, i in zip(reversed(path), reversed(addr)):
        kids = (PlaneTree(node.children[:i] + kids + node.children[i + 1 :]),)
    return kids[0]


# -- surgery -----------------------------------------------------------------


def wedge(parts: Iterable[PlaneTree]) -> PlaneTree:
    """Glue trees at their roots; children concatenate left to right."""
    ps = tuple(parts)
    if not ps:
        raise ValueError("wedge of no trees")
    return PlaneTree(tuple(itertools.chain.from_iterable(p.children for p in ps)))


def star(rays: int) -> PlaneTree:
    """Root with the given number of leaf children; 0 gives the point."""
    if rays < 0:
        raise ValueError("ray count must be nonnegative")
    return PlaneTree((POINT,) * rays)


def side_edge_counts(tree: PlaneTree, addr: VertexAddr) -> tuple[int, int]:
    """Edge counts (root side, far side) of the edge above the addressed
    vertex; the two counts plus the edge itself sum to the total."""
    if not addr:
        raise RootHasNoEdge("the root has no incoming edge")
    below = edge_count(node_at(tree, addr))
    return edge_count(tree) - 1 - below, below


def reroot_across_edge(tree: PlaneTree, addr: VertexAddr) -> PlaneTree:
    """Re-root the tree at the addressed vertex.

    The former parent chain is reversed: each former parent is attached as
    the last child of its former child.  The abstract (unordered) rooted
    tree is unchanged.
    """
    if not addr:
        raise RootHasNoEdge("the root has no incoming edge")
    node_at(tree, addr)  # validate the address
    spine = []
    cur = tree
    for i in addr:
        spine.append((cur, i))
        cur = cur.children[i]
    hanging = None
    for node, i in spine:
        rest = node.children[:i] + node.children[i + 1 :]
        if hanging is not None:
            rest = rest + (hanging,)
        hanging = PlaneTree(rest)
    return PlaneTree(cur.children + (hanging,))


# -- enumeration and randomization --------------------------------------------


def _plane_trees(edges: int) -> tuple[PlaneTree, ...]:
    levels = [(POINT,)]  # the trees of each edge count, built bottom-up
    for size in range(1, edges + 1):
        out = []
        for first in range(size):
            for head in levels[first]:
                for rest in levels[size - 1 - first]:
                    out.append(PlaneTree((head,) + rest.children))
        levels.append(tuple(out))
    return levels[edges]


def enumerate_plane_trees(edges: int) -> tuple[PlaneTree, ...]:
    """All plane rooted trees with exactly the given edge count, each once,
    in a fixed order (first-child subtree size ascending)."""
    if edges < 0:
        raise ValueError("edge count must be nonnegative")
    return _plane_trees(edges)


def random_plane_tree(edges: int, rng: random.Random) -> PlaneTree:
    """Uniformly random plane tree with the given edge count.  An open vertex
    with e edges left hangs first of them below its next child with
    probability C(first) C(e - 1 - first) / C(e), C the Catalan numbers:
    first is the least index whose prefix sum of these terms exceeds a
    uniform draw below C(e).  The terms are symmetric and their mass sits
    at both ends, so the search walks in from both ends at once."""
    catalan = [1]
    for n in range(edges):
        catalan.append(catalan[-1] * 2 * (2 * n + 1) // (n + 2))
    stack: list = [[edges, []]]  # open vertices: [edges left, children so far]
    while True:
        remaining, kids = stack[-1]
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
            stack[-1][0] = remaining - 1 - first
            stack.append([first, []])
        else:
            stack.pop()
            node = PlaneTree(kids) if kids else POINT
            if not stack:
                return node
            stack[-1][1].append(node)


# -- delayed trees -------------------------------------------------------------


@dataclass(frozen=True)
class DelayedTree:
    """A plane tree whose leaves carry positive integer delay labels, listed
    in left-to-right leaf order.  The point has no leaves and no labels."""

    tree: PlaneTree
    delays: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.tree, PlaneTree):
            raise TypeError(f"tree must be a PlaneTree, got {type(self.tree).__name__}")
        if isinstance(self.delays, Mapping):
            raise ValueError("delays must be labels in leaf order, not a mapping")
        delays = tuple(self.delays)
        leaf_total = _leaf_count(self.tree._word)
        if len(delays) != leaf_total:
            raise ValueError(f"need one delay per leaf: {leaf_total} leaves, {len(delays)} delays")
        for value in delays:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError("delays must be positive integers")
        object.__setattr__(self, "delays", delays)


def parse_delayed(text: str) -> DelayedTree:
    """Parse the delayed grammar: leaves are positive integers, "." means 1.

    Adjacent integer leaves need whitespace between them; a bare leaf at the
    top level is the point, whose label is vacuous (the root is not a leaf).
    """
    node, delays = _parse(text, labelled=True)
    return DelayedTree(node, delays if node.children else ())


def serialize_delayed(delayed: DelayedTree) -> str:
    """Canonical delayed text: integer leaves, single spaces between
    children; round-trips through parse_delayed."""
    if not delayed.tree.children:
        return "."
    return _write(delayed.tree, map(str, delayed.delays), " ")
