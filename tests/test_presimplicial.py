import hashlib
import random
from collections import Counter

import pytest

from qtrees import presimplicial, verify
from qtrees.invariant import clear_caches
from qtrees.presimplicial import (
    CHERRY,
    _degeneracies,
    _faces,
    degeneracy,
    enumerate_top_trees,
    face,
    leaf_count,
    normalize_topological,
    q_boundary,
    q_boundary_at,
    reduce_to_point,
)
from qtrees.qpoly import ONE, QPoly, q_factorial, q_integer
from qtrees.trees import (
    POINT,
    PlaneTree,
    dyck_word,
    enumerate_plane_trees,
    leaves,
    parse_tree,
    random_plane_tree,
    remove_leaf,
    serialize,
    star,
)


def schroeder_numbers(top):
    # independent linear-recurrence oracle for trees counted by leaves
    values = [None, 1, 1]
    for n in range(3, top + 1):
        numerator = 3 * (2 * n - 3) * values[n - 1] - (n - 3) * values[n - 2]
        assert numerator % n == 0
        values.append(numerator // n)
    return values


def is_topological(tree):
    # oracle for normalize_topological: no vertex has exactly one child
    stack = [tree]
    while stack:
        node = stack.pop()
        if len(node.children) == 1:
            return False
        stack.extend(node.children)
    return True


def postorder(tree):
    # every subtree, children before parents, siblings left to right: a
    # right-first pre-order, reversed
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    out.reverse()
    return out


def splice(tree, addr, replacement):
    # the tree with the subtree at a valid address replaced by the trees in
    # replacement (none deletes it, exactly one at the root), the
    # root-to-vertex path rebuilt bottom-up from child tuples
    path = [tree]
    for i in addr[:-1]:
        path.append(path[-1].children[i])
    kids = replacement
    for node, i in zip(reversed(path), reversed(addr)):
        kids = (PlaneTree(node.children[:i] + kids + node.children[i + 1 :]),)
    return kids[0]


def smoothed(tree):
    # oracle for normalize_topological on PlaneTrees: a unary vertex takes
    # its child's smoothed subtree, bottom-up
    values = []
    for node in postorder(tree):
        if len(node.children) != 1:
            cut = len(values) - len(node.children)
            kids = tuple(values[cut:])
            del values[cut:]
            values.append(PlaneTree(kids))
    return values[0]


def basis(max_leaves):
    for total in range(1, max_leaves + 1):
        for tree in enumerate_top_trees(total):
            yield total, tree


# -- normalization ---------------------------------------------------------------


def test_normalize_examples():
    assert normalize_topological(parse_tree("(.)")) == POINT
    assert normalize_topological(parse_tree("((..))")) == CHERRY
    assert normalize_topological(CHERRY) == CHERRY
    assert normalize_topological(parse_tree("((.))")) == POINT
    assert normalize_topological(parse_tree("((.)(..))")) == parse_tree("(.(..))")


def test_normalize_is_idempotent_and_topological():
    for edges in range(6):
        for tree in enumerate_plane_trees(edges):
            once = normalize_topological(tree)
            assert is_topological(once)
            assert normalize_topological(once) == once


def test_leaf_conventions():
    assert leaf_count(POINT) == 1
    assert leaf_count(CHERRY) == 2
    assert leaf_count(star(4)) == 4


# -- faces and degeneracies ----------------------------------------------------------


def test_face_examples():
    assert face(CHERRY, 0) == POINT
    assert face(CHERRY, 1) == POINT
    assert face(star(3), 1) == CHERRY
    with pytest.raises(ValueError):
        face(POINT, 0)
    with pytest.raises(IndexError):
        face(CHERRY, 2)


def test_degeneracy_examples():
    assert degeneracy(POINT, 0) == CHERRY
    assert degeneracy(CHERRY, 0) == parse_tree("((..).)")
    assert degeneracy(CHERRY, 1) == parse_tree("(.(..))")
    with pytest.raises(IndexError):
        degeneracy(CHERRY, 2)


def test_faces_smooth_after_removing_the_leaf():
    # the unary vertex left by removing its only child becomes a leaf, so
    # face 1 is the cherry, not a face of the normalization (..)
    tree = parse_tree("(.(.))")
    assert face(tree, 0) == POINT
    assert face(tree, 1) == CHERRY
    assert normalize_topological(tree) == CHERRY
    assert q_boundary({tree: 1}) == {POINT: ONE, CHERRY: QPoly((0, 1))}
    assert q_boundary_at({tree: 1}, -1) == {POINT: 1, CHERRY: -1}


def test_maps_match_the_tree_oracles_on_every_plane_tree():
    # every plane tree with at most 9 edges, the non-topological ones too,
    # against smoothing, leaf removal and splicing on PlaneTrees; the word
    # lists hold the same maps in index order
    for tree in (t for edges in range(10) for t in enumerate_plane_trees(edges)):
        assert normalize_topological(tree) == smoothed(tree)
        addrs = leaves(tree)
        faces = [smoothed(remove_leaf(tree, addr)) for addr in addrs]
        assert [face(tree, i) for i in range(len(addrs))] == faces
        assert list(_faces(dyck_word(tree))) == list(map(dyck_word, faces))
        planted = [splice(tree, addr, (CHERRY,)) for addr in addrs or [()]]
        assert [degeneracy(tree, i) for i in range(len(planted))] == planted
        assert _degeneracies(dyck_word(tree)) == list(map(dyck_word, planted))
        expected = {}
        for i, piece in enumerate(faces):
            expected[piece] = expected.get(piece, QPoly(())) + QPoly((0,) * i + (1,))
        assert list(q_boundary({tree: ONE}).items()) == [(t, c) for t, c in expected.items() if c]
        for q_value in (-1, 3):
            weights = {}
            for i, piece in enumerate(faces):
                weights[piece] = weights.get(piece, 0) + q_value**i
            got = q_boundary_at({tree: 1}, q_value)
            assert list(got.items()) == [(t, w) for t, w in weights.items() if w]


def test_the_face_memo_keeps_only_topological_trees_up_to_8_leaves():
    # a 22-leaf reduction, the boundary of a tree that is not topological
    # and the identities at the cap leave one entry per nonpoint topological
    # tree with at most 8 leaves, and nothing else
    clear_caches()
    assert reduce_to_point(star(22)) == q_factorial(22)
    rough = random_plane_tree(30, random.Random(1))
    assert normalize_topological(rough) != rough
    assert q_boundary({rough: 1})
    assert verify.identities(8)[0]
    memo = presimplicial._FACES_MEMO
    for word in memo:
        tree = PlaneTree._of(word)
        assert normalize_topological(tree) is tree
        assert 2 <= leaf_count(tree) <= presimplicial._FACE_MEMO_LEAVES == 8
    assert len(memo) == sum(len(enumerate_top_trees(n)) for n in range(2, 9)) == 5_439
    clear_caches()
    assert not memo


def test_a_warm_face_list_equals_a_cold_one():
    words = [dyck_word(t) for n in range(1, 8) for t in enumerate_top_trees(n)]
    clear_caches()
    cold = []
    for word in words:
        assert word not in presimplicial._FACES_MEMO
        cold.append(_faces(word))
    for word, faces in zip(words, cold):
        tree = PlaneTree._of(word)
        assert faces == tuple(dyck_word(face(tree, i)) for i in range(len(faces)))
        warm = _faces(word)
        assert warm == faces
        assert not word or warm is faces is presimplicial._FACES_MEMO[word]


def test_a_face_and_a_boundary_scan_the_word_at_most_twice(monkeypatch):
    # a tree that is not topological is smoothed once, in one scan, and its
    # faces are cut from the smoothing in one more, never smoothed one by one
    tree = random_plane_tree(200, random.Random(1))
    assert leaf_count(tree) == 106 and normalize_topological(tree) != tree
    faces = [smoothed(remove_leaf(tree, addr)) for addr in leaves(tree)]
    scans = []
    scan = presimplicial._pairs
    monkeypatch.setattr(presimplicial, "_pairs", lambda word: scans.append(word) or scan(word))
    for call in (lambda: face(tree, 3) == faces[3], lambda: q_boundary({tree: 1}).keys() == set(faces)):
        scans.clear()
        assert call()
        assert 1 <= len(scans) <= 2


def test_a_face_leaves_the_face_memo_alone():
    # face cuts its own leaf: it neither fills the memo of a small
    # topological tree nor reads a list already there
    clear_caches()
    assert face(star(6), 2) == star(5)
    assert not presimplicial._FACES_MEMO
    presimplicial._FACES_MEMO[dyck_word(star(6))] = (0,) * 6
    try:
        assert face(star(6), 2) == star(5)
    finally:
        clear_caches()


def test_maps_refuse_what_is_not_a_tree_or_an_index():
    for call in (
        lambda: face("(..)", 0),
        lambda: degeneracy("(..)", 0),
        lambda: normalize_topological("(..)"),
        lambda: leaf_count("(..)"),
        lambda: reduce_to_point("(..)"),
    ):
        with pytest.raises(TypeError, match=r"^tree must be a PlaneTree, got str$"):
            call()
    for index, name in ((True, "bool"), (1.0, "float"), ("1", "str")):
        with pytest.raises(TypeError, match=rf"^leaf index must be an int, got {name}$"):
            face(CHERRY, index)
        with pytest.raises(TypeError, match=rf"^leaf index must be an int, got {name}$"):
            degeneracy(CHERRY, index)
    with pytest.raises(IndexError, match=r"^leaf index -1 out of range 0\.\.1$"):
        face(CHERRY, -1)
    with pytest.raises(IndexError, match=r"^leaf index 1 out of range 0\.\.0$"):
        degeneracy(POINT, 1)
    for size, name in ((True, "bool"), (2.0, "float")):
        with pytest.raises(TypeError, match=rf"^leaf count must be an int, got {name}$"):
            enumerate_top_trees(size)


def test_face_cancels_degeneracy():
    assert face(degeneracy(POINT, 0), 0) == POINT
    assert face(degeneracy(POINT, 0), 1) == POINT
    for total, tree in basis(4):
        for i in range(total):
            planted = degeneracy(tree, i)
            assert face(planted, i) == tree
            assert face(planted, i + 1) == tree


def test_maps_preserve_the_topological_invariant():
    for total, tree in basis(5):
        for i in range(total):
            grown = degeneracy(tree, i)
            assert is_topological(grown)
            assert leaf_count(grown) == total + 1
            if total >= 2:
                shrunk = face(tree, i)
                assert is_topological(shrunk)
                assert leaf_count(shrunk) == total - 1


# -- enumeration -----------------------------------------------------------------------


def test_top_tree_counts_match_schroeder():
    expected = schroeder_numbers(6)
    for total in range(1, 7):
        found = enumerate_top_trees(total)
        assert len(found) == expected[total]
        assert len({serialize(t) for t in found}) == len(found)
        for tree in found:
            assert is_topological(tree)
            assert leaf_count(tree) == total


def test_top_tree_small_membership():
    assert enumerate_top_trees(1) == (POINT,)
    assert {serialize(t) for t in enumerate_top_trees(3)} == {"(...)", "((..).)", "(.(..))"}


def test_top_tree_bound():
    with pytest.raises(ValueError):
        enumerate_top_trees(0)


# -- the identity checker ---------------------------------------------------------------


def test_identities_hold_with_witness():
    ok, summary = verify.identities(5)
    assert summary["violations"] == []
    assert all(count > 0 for count in summary["checked"].values())
    assert ok
    with pytest.raises(ValueError):
        verify.identities(0)


def test_identities_build_no_trees(monkeypatch):
    # the relations are compared on Dyck words; only the witness's three
    # trees are built, to be written out
    built = []
    of, init = PlaneTree._of, PlaneTree.__init__
    monkeypatch.setattr(PlaneTree, "_of", classmethod(lambda cls, word: built.append(word) or of(word)))
    monkeypatch.setattr(PlaneTree, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    ok, summary = verify.identities(6)
    assert ok
    assert len(built) == 3


def test_double_degeneracy_witness_is_the_point():
    _, summary = verify.identities(3)
    tree_text, index, lhs, rhs = summary["double_degeneracy_witness"]
    assert (tree_text, index) == (".", 0)
    assert {lhs, rhs} == {"((..).)", "(.(..))"}


# -- chains and boundaries ----------------------------------------------------------------


def test_chains_are_dicts_of_int_or_qpoly_coefficients():
    # an int is a constant polynomial; zero inputs and zero sums leave no term
    assert q_boundary({CHERRY: 2, star(3): QPoly(()), POINT: 5}) == {POINT: QPoly((2, 2))}
    cancelling = {star(3): 1, parse_tree("(.(..))"): QPoly((-1,)), CHERRY: 1}
    assert q_boundary(cancelling) == {POINT: QPoly((1, 1))}
    assert q_boundary_at({CHERRY: QPoly((1, 1)), star(3): 0}, -1) == {}
    assert q_boundary_at({CHERRY: 3, star(3): QPoly((0, 1))}, 2) == {POINT: 9, CHERRY: 14}
    # a key is read through dyck_word and refused by it; a coefficient gets
    # a refusal in the same form
    for chain, message in (
        ({CHERRY: 1.5}, "coefficient must be a QPoly or an int, got float"),
        ({CHERRY: True}, "coefficient must be a QPoly or an int, got bool"),
        ({CHERRY: "3"}, "coefficient must be a QPoly or an int, got str"),
        ({"(..)": 1}, "tree must be a PlaneTree, got str"),
    ):
        with pytest.raises(TypeError, match=rf"^{message}$"):
            q_boundary(chain)
        with pytest.raises(TypeError, match=rf"^{message}$"):
            q_boundary_at(chain, 2)
    for q_value in (2.0, True, "2"):
        with pytest.raises(TypeError, match="q_value must be an int"):
            q_boundary_at({CHERRY: 1}, q_value)
    with pytest.raises(TypeError, match="tree must be a PlaneTree"):
        reduce_to_point("(..)")


def test_q_boundary_examples():
    assert q_boundary({CHERRY: 1}) == {POINT: QPoly((1, 1))}
    assert q_boundary({POINT: 1}) == {}
    assert q_boundary({star(3): 1}) == {CHERRY: QPoly((1, 1, 1))}


def test_q_boundary_is_linear():
    chain = {star(3): QPoly((0, 1)), CHERRY: 3}
    out = q_boundary(chain)
    assert out[CHERRY] == QPoly((0, 1, 1, 1))
    assert out[POINT] == QPoly((3, 3))


def test_alternating_boundary_squares_to_zero():
    for total, tree in basis(5):
        once = q_boundary_at({tree: 1}, -1)
        assert q_boundary_at(once, -1) == {}


def test_generic_boundary_does_not_square_to_zero():
    once = q_boundary_at({star(3): QPoly((1,))}, 2)
    assert once == {CHERRY: 7}
    assert q_boundary_at(once, 2) == {POINT: 21}


def test_boundaries_are_face_sums():
    # oracle: one public face call per leaf index, terms kept in face order
    for total, tree in basis(5):
        if total == 1:
            continue
        faces = [face(tree, i) for i in range(total)]
        expected = {}
        for i, piece in enumerate(faces):
            expected[piece] = expected.get(piece, QPoly(())) + QPoly((0,) * i + (1,))
        assert list(q_boundary({tree: ONE}).items()) == list(expected.items())
        for q_value in (-1, 2, 3):
            weights = {}
            for i, piece in enumerate(faces):
                weights[piece] = weights.get(piece, 0) + q_value**i
            got = q_boundary_at({tree: 1}, q_value)
            assert list(got.items()) == [(t, w) for t, w in weights.items() if w]


def test_boundaries_of_chains_are_pinned():
    # sums across trees: every topological tree with at most 6 leaves
    # weighted by [n]_q!, the same with alternating signs, and the plane
    # trees with at most 6 edges that are not topological, whose faces
    # collide and partly cancel, with int, negative, zero and QPoly
    # coefficients in turn; the digest pins each total, its key order and
    # every cancellation, and was taken from boundaries that summed
    # q**i coeff term by term
    weighted = {tree: q_factorial(total) for total, tree in basis(6)}
    signed = {tree: -c if k % 2 else c for k, (tree, c) in enumerate(weighted.items())}
    cycle = (2, -1, 0, QPoly((1, -2, 1)), -3, QPoly((0, 1)), QPoly((-1,)), 1)
    rough = [t for e in range(7) for t in enumerate_plane_trees(e) if not is_topological(t)]
    mixed = {tree: cycle[k % len(cycle)] for k, tree in enumerate(rough)}
    faces = {face(t, i) for t, c in mixed.items() if c for i in range(leaf_count(t))}
    assert len(q_boundary_at(mixed, -1)) < len(faces)
    digest = hashlib.sha256()
    for chain in (weighted, signed, mixed):
        digest.update(repr(list(q_boundary(chain).items())).encode() + b"\n")
        for q_value in (-1, 0, 2, -3):
            digest.update(repr(list(q_boundary_at(chain, q_value).items())).encode() + b"\n")
    assert digest.hexdigest() == "857a9b212842d44f08d41bb5e24800cd7d08fe011489bb31ca0411bbb46768fe"


def test_boundary_of_point_vanishes():
    assert q_boundary_at({POINT: 1}, 5) == {}


# -- reduction ---------------------------------------------------------------------------


def test_reduce_examples():
    assert reduce_to_point(POINT) == ONE
    assert reduce_to_point(CHERRY) == QPoly((1, 1))
    assert reduce_to_point(star(3)) == q_factorial(3)
    # the library does not normalize first: d_0 keeps both leaves
    assert reduce_to_point(parse_tree("((.).)")) == QPoly((1, 2))


def test_reduce_holds_coefficients_past_64_bits():
    # [22]_q! is the first q-factorial with a coefficient of 2**64 or more
    assert max(q_factorial(21).coeffs) < 2**64 <= max(q_factorial(22).coeffs)
    assert reduce_to_point(star(22)) == q_factorial(22)
    # every first-round face of this tree keeps all 23 leaves, so the point
    # gathers 23 * 23! face paths
    assert reduce_to_point(parse_tree("(" + "(.)" * 23 + ")")) == q_integer(23) * q_factorial(23)
    # 35-byte fields; each face's term folds in as a shift, not a product
    # by a power of 2**280, which took over a second
    assert reduce_to_point(star(60)) == q_factorial(60)


def test_reduce_fields_follow_the_one_rule(monkeypatch):
    # the point's value is unpacked from the fields qpoly._field_size gives:
    # a tree with at most 8 leaves shares the table in the 4 bytes of the
    # cap's bound 8 * 8!, and a larger one takes its own n * n!, 4 bytes at
    # 9 leaves, 8 at 12, then the fewest bytes past 64 bits
    handed = []
    unpack = presimplicial._unpack

    def recording(packed, size):
        handed.append(size)
        return unpack(packed, size)

    monkeypatch.setattr(presimplicial, "_unpack", recording)
    for n in (3, 5, 8, 9, 12, 20, 22):
        assert reduce_to_point(star(n)) == q_factorial(n)
    assert handed == [4, 4, 4, 4, 8, 9, 10]


def test_reduce_is_shape_independent():
    for total, tree in basis(5):
        assert reduce_to_point(tree) == q_factorial(total)


def test_reduce_is_the_face_sum_on_every_plane_tree():
    # oracle with no packing: R(T) = sum over i of q**i R(d_i T) by the
    # public face and QPoly.shift, on every plane tree with at most 7 edges,
    # those that are not topological included; a face has fewer edges, so
    # with R(point) = 1 this fixes R on all of them
    assert reduce_to_point(POINT) == ONE
    for edges in range(1, 8):
        for tree in enumerate_plane_trees(edges):
            terms = [reduce_to_point(face(tree, i)).shift(i) for i in range(leaf_count(tree))]
            assert reduce_to_point(tree) == sum(terms, QPoly(()))


def test_reductions_are_pinned():
    # every plane tree with at most 9 edges and the stars with 9 to 22
    # leaves, which run every field size from 1 to 10 bytes; the digest was
    # taken from a round-by-round reduction, one level of faces at a time
    digest = hashlib.sha256()
    pinned = [tree for edges in range(10) for tree in enumerate_plane_trees(edges)]
    for tree in pinned + [star(n) for n in range(9, 23)]:
        digest.update(repr(reduce_to_point(tree).coeffs).encode() + b"\n")
    assert digest.hexdigest() == "2766e36192b877e263d08e3c0d5fb172b0bd89316d038acf6474b22dd5f99f46"


def test_reductions_are_shared_across_calls(monkeypatch):
    # one table holds every reduction under the cap, so verify.reduction(7)
    # lists the faces of each of the 1,160 nonpoint topological words once,
    # and a cold verify.reduction(8) lists each of its 5,439 words' once
    clear_caches()
    listed = Counter()
    faces = presimplicial._faces
    monkeypatch.setattr(presimplicial, "_faces", lambda word: listed.update((word,)) or faces(word))
    assert verify.reduction(7) == (1161, 0)
    table = presimplicial._REDUCED_MEMO
    assert len(table) == 1160
    assert listed == dict.fromkeys(table, 1)
    # a tree that is not topological, however deep, leaves no entry, and a
    # tree with more than 8 leaves fills a memo of its own
    kept = dict(table)
    assert reduce_to_point(parse_tree("((.).)")) == QPoly((1, 2))
    assert reduce_to_point(parse_tree("(" * 2000 + "(..)" + ")" * 2000)) == QPoly((1, 1))
    assert reduce_to_point(star(12)) == q_factorial(12)
    assert table == kept
    clear_caches()
    assert not table
    listed.clear()
    assert verify.reduction(8) == (5440, 0)
    assert len(table) == sum(listed.values()) == 5439
    clear_caches()
