import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from qtrees import cli, invariant, presimplicial, qpoly, trees, verify
from qtrees.invariant import (
    BlockSpec,
    InadmissibleDelays,
    assemble_blocks,
    check_reroot,
    clear_caches,
    q_degree,
    q_poly,
    q_poly_block,
    q_poly_delayed,
    q_poly_state,
    sample_block_specs,
    search_delayed,
)
from qtrees.qpoly import (
    ONE,
    ZERO,
    QPoly,
    cyclotomic_factor,
    q,
    q_binomial,
    q_factorial,
    q_integer,
    q_multinomial,
    to_json_coeffs,
)
from qtrees.trees import (
    POINT,
    DelayedTree,
    RootHasNoEdge,
    enumerate_plane_trees,
    leaves,
    parse_delayed,
    parse_tree,
    random_plane_tree,
    serialize,
    serialize_delayed,
    star,
    wedge,
)

from test_trees import permute_children

CHERRY = parse_tree("(..)")


def removal_sequences(tree, memo):
    # independent brute-force oracle: count complete leaf-removal orders,
    # memo holding the counts of trees already met
    from qtrees.trees import leaves as tree_leaves, remove_leaf

    def count(t):
        if not t.children:
            return 1
        key = t
        if key in memo:
            return memo[key]
        total = sum(count(remove_leaf(t, v)) for v in tree_leaves(t))
        memo[key] = total
        return total

    return count(tree)


def all_edges(tree, prefix=()):
    for i, child in enumerate(tree.children):
        yield prefix + (i,)
        yield from all_edges(child, prefix + (i,))


# -- the defining recursion ---------------------------------------------------


def test_q_poly_base_cases():
    assert q_poly(POINT) == ONE
    assert q_poly(CHERRY) == QPoly((1, 1))


def test_q_poly_stars():
    for rays in range(1, 7):
        assert q_poly(star(rays)) == q_factorial(rays)


def test_q_poly_path_is_one():
    assert q_poly(parse_tree("(((.)))")) == ONE


def test_q_poly_wedge_of_stemmed_cherries():
    stemmed = parse_tree("((..))")
    glued = wedge([stemmed, stemmed])
    assert q_poly(glued) == q_binomial(6, 3) * QPoly((1, 1)) * QPoly((1, 1))


def test_q_poly_shape():
    for edges in range(7):
        for tree in enumerate_plane_trees(edges):
            poly = q_poly(tree)
            assert poly.coeffs[0] == 1
            assert all(c >= 0 for c in poly.coeffs)
            assert poly.coeffs == poly.coeffs[::-1]


def test_q_poly_counts_removal_sequences():
    # and so does the hook-length formula behind the recursion's field width
    counts = {}
    for edges in range(9):
        for tree in enumerate_plane_trees(edges):
            count = removal_sequences(tree, counts)
            assert q_poly(tree).eval_int(1) == count == invariant._removal_count(trees.dyck_word(tree)), tree


def test_q_poly_takes_any_depth():
    path = parse_tree("(" * 10_000 + "." + ")" * 10_000)
    assert q_poly(path) == ONE
    assert q_poly_delayed(DelayedTree(path, (1,))) == ONE
    stemmed_cherry = parse_tree("(" * 3_000 + ".." + ")" * 3_000)
    assert q_poly(stemmed_cherry) == 1 + q


def test_q_poly_builds_no_trees(monkeypatch):
    tree = parse_tree("((..)(.(..))..)")
    built = []
    init = trees.PlaneTree.__init__
    of = trees.PlaneTree._of.__func__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_of(cls, word):
        built.append(word)
        return of(cls, word)

    # count both ways to build a tree: from children, and from a Dyck word
    monkeypatch.setattr(trees.PlaneTree, "__init__", counted_init)
    monkeypatch.setattr(trees.PlaneTree, "_of", classmethod(counted_of))
    trees.PlaneTree((POINT,))
    trees.remove_leaf(tree, (0, 0))
    assert len(built) == 2
    built.clear()
    clear_caches()
    assert q_poly(tree) == q_poly_state(tree)
    assert q_poly_delayed(DelayedTree(tree, (1,) * len(leaves(tree)))) == q_poly(tree)
    assert q_degree(tree) == q_poly(tree).degree
    assert built == []


def test_q_degree_is_the_degree_of_q_poly():
    for edges in range(9):
        for tree in enumerate_plane_trees(edges):
            assert q_degree(tree) == q_poly(tree).degree
    assert q_degree(star(1200)) == 1200 * 1199 // 2
    assert q_degree(parse_tree("(" * 10_000 + "." + ")" * 10_000)) == 0


# -- packed values -------------------------------------------------------------------


def removal_states(tree):
    # every tree that leaf removals reach from tree, tree included, the point left out
    seen, todo = {tree}, [tree]
    while todo:
        state = todo.pop()
        for leaf in leaves(state):
            rest = trees.remove_leaf(state, leaf)
            if rest != POINT and rest not in seen:
                seen.add(rest)
                todo.append(rest)
    return seen


def test_narrow_fields_take_every_tree_up_to_20_edges():
    # the constant of the 64-bit fast path
    assert math.factorial(invariant._NARROW_EDGES) < 2**64 <= math.factorial(invariant._NARROW_EDGES + 1)

    def width(tree):
        return qpoly._word_width(invariant._removal_count(trees.dyck_word(tree)))

    assert width(star(20)) == 64
    assert width(star(21)) == 128
    # past 20 edges the width follows the count of removal sequences, not the size
    assert width(parse_tree("(" * 40 + "." + ")" * 40)) == 64
    assert width(star(35)) == 192


@pytest.mark.parametrize("rays", [21, 30])
def test_wide_fields_give_the_stars(rays):
    clear_caches()
    assert q_poly(star(rays)) == q_factorial(rays) == q_poly_state(star(rays))


def test_wide_fields_in_the_delayed_game():
    clear_caches()
    assert q_poly_delayed(DelayedTree(star(21), (1,) * 21)) == q_factorial(21)


def test_only_trees_of_at_most_20_edges_share_the_memo():
    def keys(states):
        return {trees.dyck_word(state) for state in states}

    small = random_plane_tree(16, random.Random(5))
    # a tree of at most 20 edges adds exactly its removal states, keyed by
    # word; a larger one, however narrow its fields, adds nothing
    runs = [
        (star(20), keys(removal_states(star(20)))),
        (small, keys(removal_states(small)) - keys(removal_states(star(20)))),
        (star(21), set()),
        (star(30), set()),
        (parse_tree("(." + "(" * 3_000 + "." + ")" * 3_000 + ")"), set()),
    ]
    clear_caches()
    for tree, added in runs:
        before = set(invariant._QPOLY_MEMO)
        assert q_poly(tree) == q_poly_state(tree)
        assert set(invariant._QPOLY_MEMO) - before == added, serialize(tree)[:40]
    before = set(invariant._QPOLY_MEMO)
    assert q_poly_delayed(DelayedTree(star(21), (1,) * 21)) == q_factorial(21)
    assert set(invariant._QPOLY_MEMO) == before
    assert len(invariant._QPOLY_MEMO) == sum(len(added) for _, added in runs)


def test_a_deep_tree_leaves_its_states_behind():
    # a root with a leaf beside a 3,000-level path reaches 6,002 states
    deep = parse_tree("(." + "(" * 3_000 + "." + ")" * 3_000 + ")")
    clear_caches()
    tracemalloc.start()
    try:
        value = q_poly(deep)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert value == q_poly_state(deep)
    assert retained < 1_000_000
    assert not invariant._QPOLY_MEMO


def test_a_memo_hit_unpacks_nothing():
    # a hit hands back the very polynomial an earlier call returned
    tree = parse_tree("((..)(.(..))..)")
    delayed = parse_delayed("((1 2)(1 (3 1)) 1 2)")
    clear_caches()
    top = q_poly(wedge([tree, CHERRY]))
    assert q_poly(wedge([tree, CHERRY])) is top
    value = q_poly(tree)  # a state the call above reached but did not return
    assert q_poly(tree) is value
    assert q_poly_delayed(delayed) is q_poly_delayed(delayed)
    # past 20 edges nothing is kept, so a second call evaluates again
    before = dict(invariant._QPOLY_MEMO)
    assert q_poly(star(21)) == q_poly(star(21))
    assert invariant._QPOLY_MEMO == before


# -- the state product ----------------------------------------------------------


def test_state_product_base_cases():
    assert q_poly_state(POINT) == ONE
    assert q_poly_state(star(3)) == q_factorial(3)


def test_state_product_takes_a_deep_path():
    # every vertex of a path has one child, whose Gaussian multinomial is 1
    depth = 40_000
    path = "(" * depth + "." + ")" * depth
    assert q_poly_state(parse_tree(path)) == ONE
    assert q_poly_state(parse_tree("(." + path + ")")) == q_integer(depth + 2)


def test_state_product_matches_recursion():
    for edges in range(7):
        for tree in enumerate_plane_trees(edges):
            assert q_poly_state(tree) == q_poly(tree)
    rng = random.Random(11)
    for _ in range(30):
        tree = random_plane_tree(12, rng)
        assert q_poly_state(tree) == q_poly(tree)


def test_state_product_vertex_weights():
    # a vertex weighs the Gaussian multinomial of its child subtree sizes,
    # edges plus the hanging edge; a leaf or a path weighs 1
    assert q_multinomial(()) == ONE
    assert q_poly_state(parse_tree("(.(..))")) == q_multinomial((1, 3)) * q_multinomial((1, 1))
    assert q_poly_state(parse_tree("((((..))))")) == 1 + q
    for rays in range(1, 6):
        assert q_multinomial((1,) * rays) == q_factorial(rays)
        assert q_poly_state(star(rays)) == q_factorial(rays)
    left, right = parse_tree("((..))"), parse_tree("((.))")
    glued = wedge([left, right])
    assert q_multinomial((3, 2)) == q_binomial(5, 3)
    assert q_poly_state(glued) == q_binomial(5, 3) * (1 + q)


def test_embedding_invariance():
    for seed in range(5):
        for edges in range(9):
            for tree in enumerate_plane_trees(edges):
                assert q_poly(permute_children(tree, seed)) == q_poly(tree)


def test_cyclotomic_structure_of_plain_trees():
    for edges in range(7):
        for tree in enumerate_plane_trees(edges):
            assert cyclotomic_factor(q_poly(tree)).remainder == ONE


# -- change of root ----------------------------------------------------------------


def test_check_reroot_examples():
    lhs, rhs, holds = check_reroot(parse_tree("(.)"), (0,))
    assert holds and lhs == ONE and rhs == ONE
    lhs, rhs, holds = check_reroot(parse_tree("((.))"), (0,))
    assert holds
    assert lhs == QPoly((1, 1))  # 1 * [2]_q
    assert rhs == QPoly((1, 1))  # (1 + q) * [1]_q
    with pytest.raises(RootHasNoEdge):
        check_reroot(CHERRY, ())


def test_check_reroot_exhaustive():
    for edges in range(6):
        for tree in enumerate_plane_trees(edges):
            for addr in all_edges(tree):
                assert check_reroot(tree, addr).holds


# -- delayed variant ------------------------------------------------------------------


def test_delayed_examples():
    assert q_poly_delayed(parse_delayed("(2 1)")) == ONE
    assert q_poly_delayed(parse_delayed("(1 2)")) == QPoly((0, 1))
    assert q_poly_delayed(parse_delayed("(2)")) == QPoly(())
    # no leaf may move, at once or after a move: the zero polynomial,
    # stored without trailing zeros
    for text in ("(2)", "(2 3)", "((2) 3)", "(1 (3))", "(1 1 (4))"):
        assert q_poly_delayed(parse_delayed(text)).coeffs == ()
    assert q_poly_delayed(parse_delayed(".")) == ONE


# sha256 of json.dumps(to_json_coeffs(q_poly_delayed(d))), one line per d, over
# every tree with e <= 5 edges (enumerate_plane_trees order) and every leaf
# labelling from 1..e (itertools.product order): 12,935 states.  Captured
# from the recursion on PlaneTree values that preceded the Dyck-word engine.
DELAYED_SHA256 = "229187fc4c3542624cdee4d6581d444c70a4ff2e4502375ffdce521d4fd04e5d"


def test_delayed_values_are_pinned():
    clear_caches()
    lines = []
    for edges in range(6):
        for tree in enumerate_plane_trees(edges):
            for combo in itertools.product(range(1, edges + 1), repeat=len(leaves(tree))):
                poly = q_poly_delayed(DelayedTree(tree, combo))
                lines.append(json.dumps(to_json_coeffs(poly)))
    assert len(lines) == 12_935
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DELAYED_SHA256


def test_delayed_all_ones_degenerates_to_plain():
    for edges in range(8):
        for tree in enumerate_plane_trees(edges):
            delayed = DelayedTree(tree, (1,) * len(leaves(tree)))
            assert q_poly_delayed(delayed) == q_poly(tree)


def test_delayed_embedding_sensitivity_exists():
    left = q_poly_delayed(parse_delayed("(1 2)"))
    right = q_poly_delayed(parse_delayed("(2 1)"))
    assert left != right


# -- block closed form ------------------------------------------------------------------


def test_block_all_ones_is_the_plain_wedge_formula():
    parts = [parse_tree("((..))"), parse_tree("(.)"), CHERRY]
    spec = BlockSpec(tuple((tree, 1) for tree in parts))
    assert q_poly_block(spec) == q_poly(wedge(parts))


def test_block_two_single_edges():
    spec = BlockSpec(((parse_tree("(.)"), 2), (parse_tree("(.)"), 1)))
    assert q_poly_block(spec) == ONE
    assert q_poly_delayed(assemble_blocks(spec)) == ONE
    assert q_poly_delayed(parse_delayed("(2 1)")) == ONE


def test_block_matches_delayed_recursion_on_samples():
    for spec in sample_block_specs(150, 8, seed=5):
        assert q_poly_block(spec) == q_poly_delayed(assemble_blocks(spec))


def test_block_specs_need_two_edges():
    with pytest.raises(ValueError, match="at least 2 edges"):
        sample_block_specs(1, 1)
    with pytest.raises(ValueError, match="at least 2 edges"):
        sample_block_specs(5, 0)
    assert sample_block_specs(0, 1) == []
    assert len(sample_block_specs(3, 2)) == 3


def test_block_rejects_inadmissible_delays():
    edge = parse_tree("(.)")
    with pytest.raises(InadmissibleDelays, match=r"^the rightmost block must have delay 1$"):
        q_poly_block(BlockSpec(((edge, 1), (edge, 2))))
    with pytest.raises(InadmissibleDelays, match=r"^delay 3 at block 1 falls outside \[1, 2\]$"):
        q_poly_block(BlockSpec(((edge, 3), (edge, 1))))  # 3 exceeds right block edges + 1
    with pytest.raises(InadmissibleDelays, match=r"^delay 2 at block 2 falls outside \[3, 7\]$"):
        q_poly_block(
            BlockSpec(((edge, 2), (star(3), 3), (star(3), 1)))
        )  # delays must grow right to left: 2 < 3
    with pytest.raises(ValueError, match=r"^empty block list$"):
        q_poly_block(BlockSpec(()))


def test_block_spec_refuses_bad_trees_and_delays():
    edge = parse_tree("(.)")
    for delay in (1.7, True, "2", 0, -1):
        with pytest.raises(ValueError, match="delays must be positive integers"):
            BlockSpec(((edge, delay), (edge, 1)))
    with pytest.raises(TypeError, match="tree must be a PlaneTree"):
        BlockSpec((("(.)", 2), (edge, 1)))
    assert BlockSpec([[edge, 2], (edge, 1)]).blocks == ((edge, 2), (edge, 1))


def test_assemble_blocks():
    spec = BlockSpec(((CHERRY, 2), (parse_tree("(.)"), 1)))
    delayed = assemble_blocks(spec)
    assert serialize_delayed(delayed) == "(2 2 1)"


# -- search --------------------------------------------------------------------------------


def test_search_finds_the_all_ones_cherry():
    hits = search_delayed(QPoly((1, 1)), 2)
    assert any(serialize_delayed(h) == "(1 1)" for h in hits)


def test_search_impossible_target():
    assert search_delayed(QPoly((5,)), 1) == []


def test_search_is_deterministic():
    first = [serialize_delayed(h) for h in search_delayed(QPoly((1, 1, 1)), 3)]
    second = [serialize_delayed(h) for h in search_delayed(QPoly((1, 1, 1)), 3)]
    assert first == second


def test_search_bound():
    with pytest.raises(ValueError):
        search_delayed(ONE, -1)


def test_search_refuses_a_target_that_is_not_a_qpoly():
    for target in ((1, 1), [1, 1], 1, None):
        with pytest.raises(TypeError):
            search_delayed(target, 2)


def delayed_candidates(max_edges):
    # every labelled tree the search ranges over, in its order
    for edges in range(max_edges + 1):
        for tree in enumerate_plane_trees(edges):
            for labels in itertools.product(range(1, max(edges, 1) + 1), repeat=len(leaves(tree))):
                yield edges, DelayedTree(tree, labels)


def may_finish(edges, labels):
    """False only for a label vector under which the delayed game on a tree
    with the given edge count and len(labels) leaves cannot finish.

    Take a tree with e >= 1 edges and n leaves, delays sorted as
    d_(1) <= ... <= d_(n).  A finished game makes e moves, and removes each
    of the n leaves at its own move.  A leaf with delay d may move first at
    move d: before move k its delay has dropped k - 1 times, to
    max(d - k + 1, 1).  So the first move needs some delay 1, and the
    n - j + 1 leaves with delay at least d_(j) leave at distinct moves in
    d_(j)..e, which needs n - j + 1 <= e - d_(j) + 1, that is
    d_(j) <= e - n + j.  A vector failing either test has no finished game
    and the value 0."""
    if not edges:
        return True  # the point: no move is needed
    n = len(labels)
    return 1 in labels and all(d <= edges - n + j for j, d in enumerate(sorted(labels), 1))


def indexed_values(max_edges):
    # the search's value index turned around: (tree, labels) -> coefficients
    return {
        (tree, labels): coeffs
        for edges in range(max_edges + 1)
        for coeffs, hits in invariant._value_index(edges).items()
        for tree, labels in hits
    }


def test_prune_discards_only_zero_values():
    values = indexed_values(5)
    discarded = kept = 0
    for edges, delayed in delayed_candidates(5):
        if may_finish(edges, delayed.delays):
            kept += 1
        else:
            discarded += 1
            assert values[delayed.tree, delayed.delays] == ZERO.coeffs, serialize_delayed(delayed)
    assert (discarded, kept) == (6908, 6027)
    assert len(values) == discarded + kept


def test_value_index_matches_the_recursion():
    # the index's values come from removal-time grids; the recursion plays
    # each game on its own
    clear_caches()
    values = indexed_values(6)
    assert len(values) == 252_377
    for edges in range(7):
        for tree in enumerate_plane_trees(edges):
            word = trees.dyck_word(tree)
            for labels in itertools.product(range(1, max(edges, 1) + 1), repeat=len(leaves(tree))):
                value = values[tree, labels]
                if may_finish(edges, labels):
                    assert value == invariant._removal_sum(word, labels).coeffs, (tree, labels)
                else:
                    assert value == ZERO.coeffs, (tree, labels)
            assert values[tree, (1,) * len(leaves(tree))] == q_poly(tree).coeffs, tree


def test_search_leaves_the_recursion_memo_empty():
    # the value index is built without the leaf-removal recursion, so a
    # cold search stores no delayed states
    clear_caches()
    assert len(search_delayed(ONE, 6)) == 197
    assert not invariant._QPOLY_MEMO
    assert sorted(invariant._SEARCH_MEMO) == list(range(7))


def search_oracle(max_edges):
    # the search as one loop over the candidates, each evaluated and compared
    scored = [(delayed, q_poly_delayed(delayed)) for _, delayed in delayed_candidates(max_edges)]

    def search(target):
        return [serialize_delayed(delayed) for delayed, value in scored if value == target]

    return search, {value for _, value in scored}


def found(target, max_edges):
    return [serialize_delayed(hit) for hit in search_delayed(target, max_edges)]


def test_search_matches_the_candidate_loop():
    oracle, values = search_oracle(4)
    assert len(values) == 65 and ZERO in values
    clear_caches()
    for target in sorted(values, key=lambda v: v.coeffs) + [QPoly((5,))]:
        assert found(target, 4) == oracle(target), target
    assert len(found(ZERO, 4)) == 490
    assert found(QPoly((5,)), 4) == []


def test_search_grows_its_index_one_edge_count_at_a_time():
    targets = [ZERO, ONE, QPoly((1, 1)), QPoly((1, 2, 1, 1)), QPoly((5,))]
    clear_caches()
    cold = [found(target, 5) for target in targets]
    clear_caches()
    for target in targets:
        search_delayed(target, 3)
    assert [found(target, 5) for target in targets] == cold


def test_search_results_do_not_alias_the_index():
    target = QPoly((1, 1))
    first = search_delayed(target, 3)
    expected = [serialize_delayed(hit) for hit in first]
    first.clear()
    assert found(target, 3) == expected


def test_concurrent_searches_match_sequential():
    targets = [ZERO, ONE, QPoly((1, 1)), QPoly((1, 2, 1, 1)), QPoly((0, 1, 1, 2, 1)), QPoly((5,))] * 2
    expected = [found(target, 5) for target in targets]
    clear_caches()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(lambda target: found(target, 5), targets, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert results == expected


# -- caches ----------------------------------------------------------------------------------


def lru_tables():
    return {
        f"{module.__name__}.{name}": obj
        for module in (qpoly, trees, invariant, presimplicial, verify, cli)
        for name, obj in vars(module).items()
        if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__
    }


def test_clear_caches_keeps_results():
    tree = parse_tree("((..)(.))")
    before = q_poly(tree)
    clear_caches()
    assert q_poly(tree) == before
    # every memo table of the package is warmed, then emptied
    tables = lru_tables()
    assert sorted(tables) == ["qtrees.qpoly.q_binomial"]
    warm = (
        q_factorial(5),
        q_binomial(6, 2),
        cyclotomic_factor(q_factorial(4)),
        enumerate_plane_trees(4),
        random_plane_tree(6, random.Random(1)),
        presimplicial.enumerate_top_trees(4),
        q_poly(star(3)),
        found(QPoly((1, 1)), 3),
    )
    assert invariant._QPOLY_MEMO
    assert sorted(invariant._SEARCH_MEMO) == [0, 1, 2, 3]
    assert all(table.cache_info().currsize for table in tables.values())
    clear_caches()
    assert not invariant._QPOLY_MEMO
    assert not invariant._SEARCH_MEMO
    assert {name: table.cache_info().currsize for name, table in tables.items()} == dict.fromkeys(tables, 0)
    rerun = (
        q_factorial(5),
        q_binomial(6, 2),
        cyclotomic_factor(q_factorial(4)),
        enumerate_plane_trees(4),
        random_plane_tree(6, random.Random(1)),
        presimplicial.enumerate_top_trees(4),
        q_poly(star(3)),
        found(QPoly((1, 1)), 3),
    )
    assert rerun == warm
    # plain and delayed states share one memo and must stay apart
    clear_caches()
    assert q_poly_delayed(parse_delayed("(2 1)")) == ONE
    assert q_poly(parse_tree("(..)")) == 1 + q
    clear_caches()
    assert q_poly(parse_tree("(..)")) == 1 + q
    assert q_poly_delayed(parse_delayed("(2 1)")) == ONE


def test_concurrent_computation_matches_sequential():
    pool = [tree for edges in range(7) for tree in enumerate_plane_trees(edges)]
    expected = [q_poly(tree) for tree in pool]
    clear_caches()
    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(q_poly, pool))
    assert results == expected


def test_concurrent_words_and_memo_match_the_state_product():
    # fresh trees, half of them wedges sharing subtrees with the other half,
    # so threads race to fill the same memo entries
    texts = [serialize(tree) for edges in range(7) for tree in enumerate_plane_trees(edges)]
    fresh = [parse_tree(text) for text in texts]
    pool = fresh + [wedge([a, b]) for a, b in zip(fresh, reversed(fresh))]
    expected = [q_poly_state(tree) for tree in pool]
    clear_caches()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(q_poly, pool, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert results == expected
    assert [trees.dyck_word(tree) for tree in pool] == [trees.dyck_word(parse_tree(serialize(t))) for t in pool]
