import hashlib
import random
import tracemalloc
from types import MappingProxyType

import pytest

from qtrees import invariant, trees
from qtrees.presimplicial import (
    degeneracy,
    face,
    leaf_count,
    normalize_topological,
    q_boundary,
    q_boundary_at,
    reduce_to_point,
)
from qtrees.qpoly import ONE, QPoly, q_integer
from qtrees.trees import (
    POINT,
    DelayedTree,
    InvalidAddress,
    NotALeaf,
    ParseError,
    PlaneTree,
    RootHasNoEdge,
    ZeroDelay,
    dyck_word,
    edge_count,
    enumerate_plane_trees,
    leaves,
    node_at,
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

from test_presimplicial import is_topological, postorder, smoothed, splice

CHERRY = parse_tree("(..)")
SEED = 20140530


def right_weight(tree, addr):
    # r(T, v) by its definition, the oracle for the engine's popcount: the
    # edges strictly right of the root-to-leaf path, i.e. the node counts of
    # the later siblings of every vertex on the path (the leaf excluded)
    if node_at(tree, addr).children or not addr:
        raise NotALeaf(f"vertex {addr} is not a leaf")
    total = 0
    node = tree
    for i in addr:
        total += sum(1 + edge_count(sib) for sib in node.children[i + 1 :])
        node = node.children[i]
    return total


def permute_children(tree, seed):
    # seeded reshuffle of the child order at every vertex, in left-to-right
    # post-order; the abstract rooted tree is unchanged
    rng = random.Random(seed)
    values = []  # the reshuffled subtrees not yet attached
    for node in postorder(tree):
        cut = len(values) - len(node.children)
        kids = values[cut:]
        del values[cut:]
        rng.shuffle(kids)
        values.append(PlaneTree(kids))
    return values[0]


def catalan_numbers(top):
    # independent convolution oracle
    cats = [1]
    for n in range(1, top + 1):
        cats.append(sum(cats[i] * cats[n - 1 - i] for i in range(n)))
    return cats


def unordered_form(tree):
    return "(" + "".join(sorted(unordered_form(c) for c in tree.children)) + ")"


def all_vertices(tree, prefix=()):
    yield prefix
    for i, child in enumerate(tree.children):
        yield from all_vertices(child, prefix + (i,))


# -- grammar ------------------------------------------------------------------


def test_parse_basic():
    assert parse_tree(".") == POINT
    assert parse_tree("(..)") == PlaneTree((POINT, POINT))
    assert parse_tree("(.(..))") == PlaneTree((POINT, CHERRY))


def test_parse_tolerates_whitespace():
    assert parse_tree(" ( . ( . . ) ) ") == parse_tree("(.(..))")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("(..", 3),
        ("()", 1),
        ("(.)x", 3),
        ("x", 0),
        ("..", 1),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse_tree(text)
    assert err.value.offset == offset


# Outcome of each grammar per input: ("parses", canonical text) for
# parse_tree, ("parses", canonical text, labels) for parse_delayed, or
# ("raises", exception class, message, offset).
PLAIN_OUTCOMES = [
    (".", ("parses", ".")),
    (" . ", ("parses", ".")),
    ("(..)", ("parses", "(..)")),
    ("(.(..))", ("parses", "(.(..))")),
    (" ( . ( . . ) ) ", ("parses", "(.(..))")),
    ("\t((.))\n", ("parses", "((.))")),
    ("((...)(.)((..)))", ("parses", "((...)(.)((..)))")),
    ("", ("raises", "ParseError", "unexpected end of input at offset 0", 0)),
    ("   ", ("raises", "ParseError", "unexpected end of input at offset 3", 3)),
    ("(", ("raises", "ParseError", "unbalanced '(' at offset 1", 1)),
    ("((", ("raises", "ParseError", "unbalanced '(' at offset 2", 2)),
    (")", ("raises", "ParseError", "unexpected character ')' at offset 0", 0)),
    ("(..", ("raises", "ParseError", "unbalanced '(' at offset 3", 3)),
    ("()", ("raises", "ParseError", "empty node at offset 1", 1)),
    ("( )", ("raises", "ParseError", "empty node at offset 2", 2)),
    ("(.( ))", ("raises", "ParseError", "empty node at offset 4", 4)),
    ("(.)x", ("raises", "ParseError", "trailing input at offset 3", 3)),
    ("(.) .", ("raises", "ParseError", "trailing input at offset 4", 4)),
    ("x", ("raises", "ParseError", "unexpected character 'x' at offset 0", 0)),
    ("..", ("raises", "ParseError", "trailing input at offset 1", 1)),
    (".)", ("raises", "ParseError", "trailing input at offset 1", 1)),
    ("(.))", ("raises", "ParseError", "trailing input at offset 3", 3)),
    ("((.)", ("raises", "ParseError", "unbalanced '(' at offset 4", 4)),
    ("[.]", ("raises", "ParseError", "unexpected character '[' at offset 0", 0)),
    # digits belong to the delayed grammar only
    ("0", ("raises", "ParseError", "unexpected character '0' at offset 0", 0)),
    ("7", ("raises", "ParseError", "unexpected character '7' at offset 0", 0)),
    ("(1 0)", ("raises", "ParseError", "unexpected character '1' at offset 1", 1)),
    ("(00)", ("raises", "ParseError", "unexpected character '0' at offset 1", 1)),
    ("(12)", ("raises", "ParseError", "unexpected character '1' at offset 1", 1)),
    ("(1.)", ("raises", "ParseError", "unexpected character '1' at offset 1", 1)),
    ("( 1 . )", ("raises", "ParseError", "unexpected character '1' at offset 2", 2)),
    ("(1x)", ("raises", "ParseError", "unexpected character '1' at offset 1", 1)),
    ("((1) 2", ("raises", "ParseError", "unexpected character '1' at offset 2", 2)),
]

DELAYED_OUTCOMES = [
    (".", ("parses", ".", ())),
    ("0", ("raises", "ZeroDelay", "zero delay at offset 0", 0)),
    ("7", ("parses", ".", ())),
    (" 7 ", ("parses", ".", ())),
    ("(1 0)", ("raises", "ZeroDelay", "zero delay at offset 3", 3)),
    ("(00)", ("raises", "ZeroDelay", "zero delay at offset 1", 1)),
    ("(12)", ("parses", "(.)", (12,))),
    ("(1.)", ("parses", "(..)", (1, 1))),
    ("( 1 . )", ("parses", "(..)", (1, 1))),
    ("(1x)", ("raises", "ParseError", "unexpected character 'x' at offset 2", 2)),
    ("((1) 2", ("raises", "ParseError", "unbalanced '(' at offset 6", 6)),
    ("(1 2)", ("parses", "(..)", (1, 2))),
    ("(. .)", ("parses", "(..)", (1, 1))),
    ("(3 (1 1) 2)", ("parses", "(.(..).)", (3, 1, 1, 2))),
    ("(1(2 3)4)", ("parses", "(.(..).)", (1, 2, 3, 4))),
    ("(007)", ("parses", "(.)", (7,))),
    ("(10 2)", ("parses", "(..)", (10, 2))),
    ("((2 1) 1)", ("parses", "((..).)", (2, 1, 1))),
    ("\t(1\n2)\n", ("parses", "(..)", (1, 2))),
    ("", ("raises", "ParseError", "unexpected end of input at offset 0", 0)),
    ("   ", ("raises", "ParseError", "unexpected end of input at offset 3", 3)),
    ("\n", ("raises", "ParseError", "unexpected end of input at offset 1", 1)),
    ("(", ("raises", "ParseError", "unbalanced '(' at offset 1", 1)),
    ("()", ("raises", "ParseError", "empty node at offset 1", 1)),
    ("( )", ("raises", "ParseError", "empty node at offset 2", 2)),
    ("(1 2", ("raises", "ParseError", "unbalanced '(' at offset 4", 4)),
    ("(1 2)x", ("raises", "ParseError", "trailing input at offset 5", 5)),
    ("(1 2))", ("raises", "ParseError", "trailing input at offset 5", 5)),
    ("(-1)", ("raises", "ParseError", "unexpected character '-' at offset 1", 1)),
    ("12 3", ("raises", "ParseError", "trailing input at offset 3", 3)),
    ("(0)", ("raises", "ZeroDelay", "zero delay at offset 1", 1)),
    ("(1 (0))", ("raises", "ZeroDelay", "zero delay at offset 4", 4)),
    ("x", ("raises", "ParseError", "unexpected character 'x' at offset 0", 0)),
    # labels are ASCII digits only
    ("(²)", ("raises", "ParseError", "unexpected character '²' at offset 1", 1)),
    ("(١ ٢)", ("raises", "ParseError", "unexpected character '١' at offset 1", 1)),
]


def parse_outcome(parse, text):
    try:
        got = parse(text)
    except ParseError as exc:
        return ("raises", type(exc).__name__, str(exc), exc.offset)
    if isinstance(got, DelayedTree):
        return ("parses", serialize(got.tree), got.delays)
    return ("parses", serialize(got))


@pytest.mark.parametrize("text,expected", PLAIN_OUTCOMES)
def test_parse_tree_outcomes_are_pinned(text, expected):
    assert parse_outcome(parse_tree, text) == expected


@pytest.mark.parametrize("text,expected", DELAYED_OUTCOMES)
def test_parse_delayed_outcomes_are_pinned(text, expected):
    assert parse_outcome(parse_delayed, text) == expected


def test_deep_and_wide_trees_round_trip():
    depth = 10_000
    path = "(" * depth + "." + ")" * depth
    tree = parse_tree(path)
    assert serialize(tree) == path
    shorter = "(" * (depth - 1) + "." + ")" * (depth - 1)
    assert serialize(remove_leaf(tree, (0,) * depth)) == shorter
    wide = "(" + "." * 5000 + ")"
    assert serialize(parse_tree(wide)) == wide


def test_a_deep_path_takes_linear_memory():
    # a tree holds its Dyck word alone: 80,000 bits for this path, where a
    # word on every vertex would hold 40,000 of up to that length
    depth = 40_000
    text = "(" * depth + "." + ")" * depth
    tracemalloc.start()
    try:
        tree = parse_tree(text)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert serialize(tree) == text
    bottom = (0,) * depth
    assert leaves(tree) == (bottom,)
    assert remove_leaf(tree, bottom) == parse_tree(text[1:-1])
    assert node_at(tree, bottom[:-1]) == parse_tree("(.)")


def test_children_decode_on_first_read():
    tree = parse_tree("((..)(.(..))..)")
    kids = tree.children
    assert [serialize(kid) for kid in kids] == ["(..)", "(.(..))", ".", "."]
    assert tree.children is kids and kids[1].children[1].children == (POINT, POINT)
    assert PlaneTree(kids) == tree and PlaneTree(kids).children == kids
    assert POINT.children == () and PlaneTree().children == ()
    with pytest.raises(TypeError, match=r"^tree must be a PlaneTree, got str$"):
        PlaneTree([POINT, "."])


def test_walks_take_any_depth():
    depth = 10_000
    path = parse_tree("(" * depth + "." + ")" * depth)
    bottom = (0,) * depth
    assert edge_count(path) == depth
    assert leaves(path) == (bottom,)
    assert right_weight(path, bottom) == 0
    assert reroot_across_edge(path, bottom) == path
    assert side_edge_counts(path, bottom) == (depth - 1, 0)
    assert normalize_topological(path) == POINT
    assert not is_topological(path)
    assert serialize(permute_children(path, 1)) == serialize(path)
    twin = parse_tree("(" * depth + "." + ")" * depth)
    assert twin is not path and twin == path and hash(twin) == hash(path)
    assert {path: 1}[twin] == 1 and {twin: 2}[path] == 2
    assert parse_tree("(" * (depth - 1) + "." + ")" * (depth - 1)) != path
    assert face(path, 0) == POINT
    planted = degeneracy(path, 0)
    assert dyck_word(planted) == ((1 << depth) - 1) << (depth + 4) | 0b1010 << depth
    assert reduce_to_point(path) == ONE
    assert reduce_to_point(planted) == QPoly((1, 1))
    # both rooted words of the check come off one deep address walk; Q of a
    # path is 1 and Q of a path rooted one step above its leaf is [levels]
    levels = 2_000
    short = parse_tree("(" * levels + "." + ")" * levels)
    assert invariant.check_reroot(short, (0,) * levels) == (q_integer(levels), q_integer(levels), True)

    tree = random_plane_tree(5000, random.Random(SEED))
    assert edge_count(tree) == 5000
    smooth = normalize_topological(tree)
    assert is_topological(smooth)
    assert len(leaves(smooth)) == len(leaves(tree))
    addrs = leaves(tree)
    middle = len(addrs) // 2
    assert face(tree, middle) == smoothed(remove_leaf(tree, addrs[middle]))
    assert face(smooth, middle) == smoothed(remove_leaf(smooth, leaves(smooth)[middle]))
    assert degeneracy(tree, middle) == splice(tree, addrs[middle], (CHERRY,))
    assert leaf_count(degeneracy(smooth, middle)) == leaf_count(smooth) + 1
    shuffled = permute_children(tree, SEED)
    assert edge_count(shuffled) == 5000
    assert sorted(map(len, leaves(shuffled))) == sorted(map(len, leaves(tree)))


def test_serialize_examples():
    assert serialize(POINT) == "."
    assert serialize(CHERRY) == "(..)"


def test_parse_serialize_roundtrip():
    for text in [".", "(..)", "((.))", "(.(..))", "((...)(.)((..)))"]:
        assert serialize(parse_tree(text)) == text
    for edges in range(6):
        for tree in enumerate_plane_trees(edges):
            assert parse_tree(serialize(tree)) == tree


# -- structure ----------------------------------------------------------------


def test_edge_count():
    assert edge_count(POINT) == 0
    assert edge_count(CHERRY) == 2
    for rays in range(7):
        assert edge_count(star(rays)) == rays


def test_leaves():
    assert leaves(POINT) == ()
    assert leaves(CHERRY) == ((0,), (1,))
    assert leaves(parse_tree("(.(..))")) == ((0,), (1, 0), (1, 1))


def test_node_at():
    tree = parse_tree("(.(..))")
    assert node_at(tree, ()) == tree
    assert node_at(tree, (1,)) == CHERRY
    with pytest.raises(InvalidAddress):
        node_at(tree, (2,))
    with pytest.raises(InvalidAddress):
        node_at(tree, (0, 0))


def test_remove_leaf():
    assert remove_leaf(CHERRY, (1,)) == parse_tree("(.)")
    assert remove_leaf(parse_tree("(.)"), (0,)) == POINT
    assert remove_leaf(parse_tree("(.(..))"), (1, 0)) == parse_tree("(.(.))")
    with pytest.raises(NotALeaf):
        remove_leaf(parse_tree("(.(..))"), (1,))
    with pytest.raises(NotALeaf):
        remove_leaf(CHERRY, ())
    with pytest.raises(InvalidAddress):
        remove_leaf(CHERRY, (5,))


def test_remove_leaf_drops_one_edge():
    for edges in range(1, 6):
        for tree in enumerate_plane_trees(edges):
            for leaf in leaves(tree):
                assert edge_count(remove_leaf(tree, leaf)) == edges - 1


def test_leaf_moves_match_the_oracles():
    # the one list of leaf moves that the recursion and the delayed search
    # read: (r(v), word of T - v) per leaf, left to right, and T - v keeps
    # T's leaf count exactly when v was an only child below a non-root vertex
    for edges in range(9):
        for tree in enumerate_plane_trees(edges):
            word = dyck_word(tree)
            moves = trees._leaf_moves(word)
            assert len(moves) == len(leaves(tree))
            for i, addr in enumerate(leaves(tree)):
                r, rest = moves[i]
                assert (r, rest) == (right_weight(tree, addr), dyck_word(remove_leaf(tree, addr))), (tree, addr)
                exposed = len(addr) > 1 and len(node_at(tree, addr[:-1]).children) == 1
                assert (trees._leaf_count(rest) == trees._leaf_count(word)) == exposed, (tree, addr)


def test_right_weight_examples():
    assert right_weight(CHERRY, (0,)) == 1
    assert right_weight(CHERRY, (1,)) == 0
    assert right_weight(parse_tree("(.(..))"), (0,)) == 3
    with pytest.raises(NotALeaf):
        right_weight(parse_tree("(.(..))"), (1,))


def test_rightmost_leaf_has_weight_zero():
    for edges in range(1, 7):
        for tree in enumerate_plane_trees(edges):
            addr = ()
            node = tree
            while node.children:
                addr = addr + (len(node.children) - 1,)
                node = node.children[-1]
            assert right_weight(tree, addr) == 0


def test_wedge_shifts_left_factor_weights():
    # leaves of the left factor gain the full size of the right factor
    for left_edges in range(4):
        for right_edges in range(4):
            for left in enumerate_plane_trees(left_edges):
                for right in enumerate_plane_trees(right_edges):
                    glued = wedge([left, right])
                    for leaf in leaves(left):
                        assert right_weight(glued, leaf) == right_weight(left, leaf) + edge_count(right)


def test_dyck_word_examples():
    assert dyck_word(POINT) == 0
    assert dyck_word(parse_tree("(.)")) == 0b10
    assert dyck_word(CHERRY) == 0b1010
    assert dyck_word(parse_tree("((.).)")) == 0b110010
    depth = 10_000
    assert dyck_word(parse_tree("(" * depth + "." + ")" * depth)) == (2**depth - 1) << depth


def test_dyck_word_is_one_int_per_shape():
    seen = set()
    for edges in range(9):
        for tree in enumerate_plane_trees(edges):
            # a leaf is "()"; drop the root's parentheses, read ( as 1 and ) as 0
            steps = serialize(tree).replace(".", "()")[1:-1]
            word = dyck_word(tree)
            assert word == int(steps.replace("(", "1").replace(")", "0") or "0", 2)
            assert word.bit_length() == 2 * edges
            assert dyck_word(parse_tree(serialize(tree))) == word
            seen.add(word)
    assert len(seen) == 1 + 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430


# -- surgery --------------------------------------------------------------------


def test_wedge():
    assert wedge([POINT, POINT]) == POINT
    assert wedge([parse_tree("(.)"), parse_tree("(.)")]) == CHERRY
    assert wedge([CHERRY, CHERRY]) == star(4)
    tree = parse_tree("(.(..))")
    assert wedge([tree]) == tree
    assert edge_count(wedge([tree, CHERRY])) == edge_count(tree) + edge_count(CHERRY)
    with pytest.raises(ValueError):
        wedge([])


def test_star():
    assert star(0) == POINT
    assert star(2) == CHERRY
    assert serialize(star(3)) == "(...)"
    with pytest.raises(ValueError):
        star(-1)


def test_side_edge_counts():
    assert side_edge_counts(parse_tree("(.)"), (0,)) == (0, 0)
    assert side_edge_counts(parse_tree("((.))"), (0,)) == (0, 1)
    assert side_edge_counts(CHERRY, (1,)) == (1, 0)
    with pytest.raises(RootHasNoEdge):
        side_edge_counts(CHERRY, ())


def test_side_edge_counts_sum():
    for edges in range(1, 7):
        for tree in enumerate_plane_trees(edges):
            for addr in all_vertices(tree):
                if addr:
                    near, far = side_edge_counts(tree, addr)
                    assert near + far + 1 == edges


def test_reroot_examples():
    assert reroot_across_edge(parse_tree("(.)"), (0,)) == parse_tree("(.)")
    assert reroot_across_edge(parse_tree("((.))"), (0,)) == CHERRY
    with pytest.raises(RootHasNoEdge):
        reroot_across_edge(CHERRY, ())


def test_reroot_preserves_abstract_tree():
    for edges in range(1, 6):
        for tree in enumerate_plane_trees(edges):
            for addr in all_vertices(tree):
                if not addr:
                    continue
                moved = reroot_across_edge(tree, addr)
                assert edge_count(moved) == edges
                if len(addr) == 1:
                    # moving across a root edge and back restores the shape
                    assert unordered_form(reroot_across_edge(moved, (len(moved.children) - 1,))) == unordered_form(tree)


# The plane order of every re-rooted tree, with the side counts and the
# change-of-root check, over every edge of every tree with <= 7 edges: one
# line "<re-rooted text> <counts> <check>" per edge in pre-order.
REROOT_SHA256 = "35c6701994dac445293156e7b78c857e744d9b69b067688a009f6d73c552cf23"


def test_reroot_is_pinned():
    lines = [
        f"{serialize(reroot_across_edge(tree, addr))} {side_edge_counts(tree, addr)} "
        f"{invariant.check_reroot(tree, addr)!r}"
        for edges in range(8)
        for tree in enumerate_plane_trees(edges)
        for addr in all_vertices(tree)
        if addr
    ]
    assert len(lines) == 4081
    assert lines[1] == "((.)) (1, 0) RerootCheck(lhs=QPoly('1 + q'), rhs=QPoly('1 + q'), holds=True)"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REROOT_SHA256


def test_an_edge_walks_its_address_once(monkeypatch):
    # the side counts, the re-rooted tree and both rooted words of the
    # check all come from one scan of the word, the recursion stubbed out
    tree = random_plane_tree(200, random.Random(1))
    addr = max(leaves(tree), key=len)
    assert len(addr) >= 3
    near, far = side_edge_counts(tree, addr)
    moved = [reroot_across_edge(tree, addr[:-1]), reroot_across_edge(tree, addr)]
    summed = []
    monkeypatch.setattr(invariant, "_removal_sum", lambda word, delays: summed.append(word) or ONE)
    scans = []
    scan = trees._pairs
    monkeypatch.setattr(trees, "_pairs", lambda word: scans.append(word) or scan(word))
    for call, expected in (
        (side_edge_counts, (near, far)),
        (reroot_across_edge, moved[1]),
        (invariant.check_reroot, (q_integer(far + 1), q_integer(near + 1), False)),
    ):
        scans.clear()
        assert call(tree, addr) == expected
        assert len(scans) == 1
    assert summed == [dyck_word(t) for t in moved]


# -- enumeration -----------------------------------------------------------------


def test_enumeration_counts_match_catalan():
    cats = catalan_numbers(8)
    for edges in range(9):
        found = enumerate_plane_trees(edges)
        assert len(found) == cats[edges]
        assert len({serialize(t) for t in found}) == len(found)


def test_enumeration_small_membership():
    assert [serialize(t) for t in enumerate_plane_trees(2)] == ["(..)", "((.))"]
    assert enumerate_plane_trees(0) == (POINT,)


def test_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_plane_trees(-1)
    for edges, name in ((True, "bool"), (2.0, "float"), ("3", "str")):
        with pytest.raises(TypeError, match=rf"^edge count must be an int, got {name}$"):
            enumerate_plane_trees(edges)


def test_random_plane_tree_refuses_a_bad_edge_count():
    rng = random.Random(7)
    with pytest.raises(ValueError, match="^edge count must be nonnegative$"):
        random_plane_tree(-1, rng)
    for edges, name in ((True, "bool"), (2.0, "float"), ("3", "str")):
        with pytest.raises(TypeError, match=rf"^edge count must be an int, got {name}$"):
            random_plane_tree(edges, rng)


def test_trees_refuse_foreign_operands_and_show_their_text():
    tree = parse_tree("((..).)")
    assert tree.__eq__("((..).)") is NotImplemented
    assert tree != "((..).)"
    assert repr(tree) == "PlaneTree('((..).)')"


# Every public function that takes a PlaneTree reads it through dyck_word.
# q_poly, q_poly_state and q_degree are held to the same rule in
# test_invariant.test_evaluators_refuse_what_is_not_a_plane_tree.
TREE_ARGUMENTS = {
    "PlaneTree": lambda t: PlaneTree([POINT, t]),
    "dyck_word": dyck_word,
    "serialize": serialize,
    "edge_count": edge_count,
    "leaves": leaves,
    "node_at": lambda t: node_at(t, (0,)),
    "remove_leaf": lambda t: remove_leaf(t, (0,)),
    "side_edge_counts": lambda t: side_edge_counts(t, (0,)),
    "reroot_across_edge": lambda t: reroot_across_edge(t, (0,)),
    "wedge": lambda t: wedge([CHERRY, t]),
    "DelayedTree": lambda t: DelayedTree(t, (1, 1)),
    "check_reroot": lambda t: invariant.check_reroot(t, (0,)),
    "BlockSpec": lambda t: invariant.BlockSpec(((t, 1),)),
    "normalize_topological": normalize_topological,
    "leaf_count": leaf_count,
    "face": lambda t: face(t, 0),
    "degeneracy": lambda t: degeneracy(t, 0),
    "reduce_to_point": reduce_to_point,
    "q_boundary": lambda t: q_boundary({t: 1}),
    "q_boundary_at": lambda t: q_boundary_at({t: 1}, 2),
}


@pytest.mark.parametrize("call", TREE_ARGUMENTS.values(), ids=TREE_ARGUMENTS)
def test_a_tree_argument_is_a_plane_tree(call):
    # the text of a tree and a delayed tree are both refused, never read
    for value in ("(..)", parse_delayed("(1 2)")):
        with pytest.raises(TypeError, match=r"^tree must be a PlaneTree, got (str|DelayedTree)$"):
            call(value)


def test_enumeration_is_deterministic():
    assert enumerate_plane_trees(5) == enumerate_plane_trees(5)


def test_random_plane_tree():
    rng = random.Random(7)
    for edges in (0, 1, 5, 16):
        tree = random_plane_tree(edges, rng)
        assert edge_count(tree) == edges
    first = [serialize(random_plane_tree(10, random.Random(3))) for _ in range(5)]
    second = [serialize(random_plane_tree(10, random.Random(3))) for _ in range(5)]
    assert first == second


def test_permute_children():
    assert permute_children(POINT, 1) == POINT
    assert permute_children(CHERRY, 1) == CHERRY
    tree = parse_tree("(.(..))")
    assert any(permute_children(tree, seed) == parse_tree("((..).)") for seed in range(50))
    for seed in range(3):
        for edges in range(6):
            for t in enumerate_plane_trees(edges):
                assert unordered_form(permute_children(t, seed)) == unordered_form(t)


# Which tree a seed gives is part of the output: `qtrees verify state` and
# `block` and sample_block_specs draw from it.  The hash covers the texts of
# random_plane_tree(e, Random(s)) for e <= 20 and s = 0, 1, 2, each with the
# rng's next random() after the call, one per line.
RANDOM_TREES_SHA256 = "0e69e4a8f0aacda3dd1b3a9537b803070ae66a302f2a8282069ebb0b2d835dec"

PERMUTED = [
    ("(.(..))", ["(.(..))", "((..).)", "((..).)"]),
    ("((..)(.(..)).)", ["((..).((..).))", "(.(.(..))(..))", "(.(..)((..).))"]),
    ("(((..).)(...)(.))", ["(((..).)(...)(.))", "((.(..))(.)(...))", "((.)(...)(.(..)))"]),
]


def test_seeded_draws_are_pinned():
    lines = []
    for edges in range(21):
        for seed in range(3):
            rng = random.Random(seed)
            text = serialize(random_plane_tree(edges, rng))
            lines.append(f"{edges} {seed} {text} {rng.random()!r}")
    assert lines[-1] == "20 2 (..(.(.))((.)(.((((.)(.)))).).)) 0.4648938620973121"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RANDOM_TREES_SHA256
    for text, by_seed in PERMUTED:
        assert [serialize(permute_children(parse_tree(text), seed)) for seed in range(3)] == by_seed


def test_an_address_is_a_tuple_or_a_list():
    # nothing else is read, so an int or None is never taken for the root,
    # while () and [] both are
    tree = parse_tree("((..).)")
    calls = (node_at, remove_leaf, side_edge_counts, reroot_across_edge, invariant.check_reroot)
    for call in calls:
        for addr in (0, 1, 1.5, None, "0", range(1)):
            with pytest.raises(TypeError, match=rf"^address must be a tuple or a list, got {type(addr).__name__}$"):
                call(tree, addr)
    for addr in ((), []):
        assert node_at(tree, addr) == tree
        with pytest.raises(NotALeaf, match=r"^the root is not a leaf$"):
            remove_leaf(tree, addr)
        for call in calls[2:]:
            with pytest.raises(RootHasNoEdge, match=r"^the root has no incoming edge$"):
                call(tree, addr)
    for call in calls:
        assert call(tree, [0, 1]) == call(tree, (0, 1))


def test_address_errors_name_the_vertex():
    with pytest.raises(InvalidAddress, match=r"^no vertex at address 1\.0$"):
        node_at(CHERRY, (1, 0))
    with pytest.raises(NotALeaf, match=r"^vertex 1 has children$"):
        remove_leaf(parse_tree("(.(..))"), (1,))


# -- delayed trees -----------------------------------------------------------------


def test_parse_delayed_examples():
    d = parse_delayed("(1 2)")
    assert d.tree == CHERRY
    assert d.delays == (1, 2)
    assert parse_delayed("(. .)") == DelayedTree(CHERRY, (1, 1))
    d = parse_delayed("(3 (1 1) 2)")
    assert serialize(d.tree) == "(.(..).)"
    assert d.delays == (3, 1, 1, 2)


def test_parse_delayed_tokenization():
    assert parse_delayed("(12)").delays == (12,)
    assert parse_delayed("(1.)").delays == (1, 1)
    assert parse_delayed("(1(2 3)4)").delays == (1, 2, 3, 4)


def test_parse_delayed_point():
    assert parse_delayed(".") == DelayedTree(POINT, ())
    # a label on a bare root is vacuous: the root is not a leaf
    assert parse_delayed("7") == DelayedTree(POINT, ())


def test_parse_delayed_errors():
    with pytest.raises(ZeroDelay):
        parse_delayed("(1 0)")
    with pytest.raises(ParseError):
        parse_delayed("(1 2")
    with pytest.raises(ParseError):
        parse_delayed("()")


def test_delayed_tree_validation():
    with pytest.raises(ValueError, match="one delay per leaf"):
        DelayedTree(CHERRY, (1,))
    with pytest.raises(ValueError, match="one delay per leaf"):
        DelayedTree(CHERRY, (1, 1, 1))
    with pytest.raises(ValueError, match="one delay per leaf"):
        DelayedTree(POINT, (1,))
    for labels in [(1, 0), (1, -2), (1, 1.0), (1, "2")]:
        with pytest.raises(ValueError, match="delays must be positive integers"):
            DelayedTree(CHERRY, labels)
    # a bool is an int, but serialize_delayed would write "True", which
    # parse_delayed rejects
    with pytest.raises(ValueError, match="delays must be positive integers"):
        DelayedTree(CHERRY, (True, 1))


def test_delayed_tree_refuses_the_address_mapping():
    # the address -> label form is refused, not read as its keys
    old_forms = [
        (CHERRY, {(0,): 1, (1,): 2}),
        (CHERRY, MappingProxyType({(0,): 1, (1,): 1})),
        (POINT, {}),
    ]
    for tree, old in old_forms:
        with pytest.raises(ValueError, match="not a mapping"):
            DelayedTree(tree, old)


def test_delayed_tree_needs_a_plane_tree():
    for tree in ["(1 2)", None, (POINT, POINT)]:
        with pytest.raises(TypeError, match="tree must be a PlaneTree"):
            DelayedTree(tree, ())


def test_delayed_tree_is_a_value():
    parsed = parse_delayed("(3 (1 1) 2)")
    built = DelayedTree(parse_tree("(.(..).)"), [3, 1, 1, 2])
    assert built.delays == (3, 1, 1, 2)
    assert built == parsed and hash(built) == hash(parsed)
    assert built in {parsed}
    assert len({built, parsed, parse_delayed("(3 (1 1) 1)")}) == 2


def test_serialize_delayed_roundtrip():
    for text in [".", "(1 2)", "(3 (1 1) 2)", "(12)", "((2 1) 1)"]:
        delayed = parse_delayed(text)
        assert parse_delayed(serialize_delayed(delayed)) == delayed
    assert serialize_delayed(parse_delayed("(. .)")) == "(1 1)"
