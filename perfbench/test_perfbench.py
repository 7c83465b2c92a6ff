"""Tests of the benchmark's own statistics and reference checkers.

    python3 -m pytest perfbench

None of these import qtrees: the reference code must stand on its own.
"""

import gc
import itertools
import random
import time

import pytest

import calibrate
import reference as ref
from run import timings
from workloads import SEARCH_EDGES, delayed_targets, witness_digest


@pytest.mark.parametrize(
    "n, expected",
    [(200, 95), (1161, 99), (82499, 99), (30, 66), (20, 50), (19, 100), (12, 100), (1, 100)],
)
def test_tail_percentile_leaves_ten_items_above(n, expected):
    p = ref.tail_percentile(n)
    assert p == expected
    if p < 100:
        assert n - ref.percentile(range(n), p) - 1 >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert ref.percentile(values, 50) == 50
    assert ref.percentile(values, 95) == 95
    assert ref.percentile(values, 100) == 100
    assert ref.percentile([7.0], 99) == 7.0


def q_factorial_at(n, x):
    out = 1
    for k in range(1, n + 1):
        out *= sum(x**i for i in range(k))
    return out


@pytest.mark.parametrize("n", range(9))
def test_hook_of_star_is_q_factorial(n):
    star = ((),) * n
    assert ref.hook_values(star) == [q_factorial_at(n, x) for x in ref.HOOK_POINTS]
    assert ref.q_factorial_at_2(n) == q_factorial_at(n, 2)


@pytest.mark.parametrize("edges", range(8))
def test_hook_of_path_is_one(edges):
    path = ()
    for _ in range(edges):
        path = (path,)
    assert ref.hook_values(path) == [1] * len(ref.HOOK_POINTS)


def test_hook_matches_small_known_values():
    cherry = ((), ())
    assert ref.hook_matches([1, 1], cherry)  # Q = 1 + q
    assert not ref.hook_matches([1, 2], cherry)
    assert ref.eval_at([1, 2, 2, 1], -2) == -3


def test_delayed_evaluator_with_unit_labels_is_the_hook_formula():
    """With every label 1 the delayed game is the plain leaf-removal
    recursion, so the two reference evaluators must agree."""
    for edges in range(1, 7):
        for tree in ref.all_trees(edges):
            coeffs = ref.delayed_value(ref.labelled(tree, itertools.repeat(1)))
            assert ref.hook_matches(coeffs, tree), ref.text(tree)


def test_delayed_evaluator_on_documented_examples():
    assert ref.delayed_value(ref.parse_delayed("(1 2)")) == [0, 1]
    assert ref.delayed_value(ref.parse_delayed("(. . .)")) == [1, 2, 2, 1]
    assert ref.delayed_value(ref.parse_delayed("(2 2)")) == []
    assert ref.delayed_value(ref.parse_delayed(".")) == [1]
    assert ref.parse_delayed("(3 (1 1) 2)") == (3, (1, 1), 2)
    assert ref.delayed_edges(ref.parse_delayed("(3 (1 1) 2)")) == 5


def test_enumerations_have_known_counts():
    assert [len(ref.all_trees(e)) for e in range(8)] == ref.catalan_table(7)
    assert [len(ref.top_trees(n)) for n in range(1, 8)] == [1, 1, 3, 11, 45, 197, 903]
    assert all(ref.leaf_count(t) == n for n in range(1, 7) for t in ref.top_trees(n))


def test_random_tree_has_requested_size():
    rng = random.Random(0)
    cat = ref.catalan_table(60)
    for edges in (0, 1, 16, 60):
        text = ref.text(ref.random_tree(edges, rng, cat))
        assert text.count(".") + text.count("(") == edges + 1
    assert ref.text(((), ((),))) == "(.(.))"


def test_delayed_targets_are_seeded_and_misses_are_out_of_reach():
    first = delayed_targets(7, 4)
    assert first == delayed_targets(7, 4)
    assert first != delayed_targets(8, 4)
    assert len(first) == 12
    top_degree = SEARCH_EDGES * (SEARCH_EDGES - 1) // 2
    assert sum(len(t) - 1 > top_degree for t in first) == 4


def test_witness_digest_is_order_sensitive():
    assert witness_digest(["(1 2)", "(2 1)"]) != witness_digest(["(2 1)", "(1 2)"])
    assert witness_digest([]) == witness_digest([])


def test_calibration_kernel_is_fixed_and_allocates_no_tracked_objects():
    first = calibrate.kernel()
    gc.disable()
    try:
        before = gc.get_count()
        assert all(calibrate.kernel() == first for _ in range(50))
        assert gc.get_count() == before
    finally:
        gc.enable()


def test_host_speed_samples_on_its_timer_and_stops():
    speed = calibrate.HostSpeed(period_s=0.005)
    with pytest.raises(RuntimeError):
        speed.scale()
    speed.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    taken = len(speed.samples)
    assert taken >= 5
    assert speed.spent == pytest.approx(sum(speed.samples))
    assert speed.scale() == pytest.approx(calibrate.NOMINAL_S * taken / speed.spent)
    time.sleep(0.05)
    assert len(speed.samples) == taken


def test_host_speed_scale_uses_the_samples_of_the_interval():
    speed = calibrate.HostSpeed()
    speed.at = [float(t) for t in range(20)]
    # Host at half speed from t = 10 on: the kernel takes twice as long.
    speed.samples = [calibrate.NOMINAL_S] * 10 + [2 * calibrate.NOMINAL_S] * 10
    assert speed.scale(0.5, 8.5) == pytest.approx(1.0)
    assert speed.scale(11.5, 19.5) == pytest.approx(0.5)
    # Too few samples inside: widened to the MIN_SAMPLES nearest.
    assert calibrate.MIN_SAMPLES == 8
    assert speed.scale(2.2, 2.4) == pytest.approx(1.0)
    assert speed.scale(18.2, 18.4) == pytest.approx(0.5)
    assert speed.scale(9.7, 9.8) == pytest.approx(2 / 3)
    assert speed.scale() == pytest.approx(2 / 3)


def test_timings_take_medians_over_passes_and_each_items_median():
    def plain(item_s, setup_scale=1.0):
        return {"wall_s": sum(item_s), "item_s": item_s, "raw_setup_s": 0.5, "setup_scale": setup_scale, "peak_rss_mb": 10.0}

    same = timings([plain([0.1] * 30), plain([0.1] * 30, setup_scale=0.5), plain([0.1] * 30)])
    assert same["wall_s"] == pytest.approx(3.0)
    assert same["items_per_s"] == pytest.approx(10.0)
    assert same["setup_s"] == pytest.approx(0.5)
    assert same["item_p50_ms"] == pytest.approx(100.0)
    # With 12 items the tail is the maximum.  A hiccup on one item in one
    # pass is dropped; an item slow in every pass is kept.
    even = [0.1] * 12
    hiccup = timings([plain(even[:11] + [0.9]), plain(even), plain(even)])
    assert hiccup["tail_percentile"] == 100
    assert hiccup["item_tail_ms"] == pytest.approx(100.0)
    slow = timings([plain(even[:11] + [0.5])] * 3)
    assert slow["item_tail_ms"] == pytest.approx(500.0)
