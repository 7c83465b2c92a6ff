"""Acceptance suite: every criterion is an exact identity at a pinned size.

Each test prints one PASS/FAIL line (run pytest with -s to see them live)
and enforces the criterion's runtime budget.  All comparisons are exact
polynomial equalities; there are no tolerances anywhere.
"""

import random
import time

from qtrees import verify
from qtrees.invariant import q_poly, sample_block_specs, search_delayed
from qtrees.presimplicial import enumerate_top_trees
from qtrees.qpoly import ONE, QPoly, cyclotomic_factor, q_factorial
from qtrees.trees import enumerate_plane_trees, random_plane_tree, star

SEED = 20140530


def report(number, description, ok, elapsed, limit):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {number}: {description} [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_star_evaluation():
    start = time.perf_counter()
    ok = all(q_poly(star(rays)) == q_factorial(rays) for rays in range(9))
    report(1, "q_poly(star(n)) equals the q-factorial for n = 0..8", ok, time.perf_counter() - start, 1)


def test_criterion_2_wedge_factorization():
    start = time.perf_counter()
    ok, summary = verify.wedge(9)
    pairs = summary["pairs"]
    catalan = [1]
    for n in range(1, 11):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    expected_pairs = sum(
        catalan[a] * catalan[b] for a in range(10) for b in range(10) if a + b <= 9
    )
    ok = ok and pairs == expected_pairs
    report(
        2,
        f"wedge factorization exact on all {pairs} ordered pairs with <= 9 total edges",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_3_state_product_equivalence():
    start = time.perf_counter()
    rng = random.Random(SEED)
    ok, summary = verify.state(8, [random_plane_tree(16, rng) for _ in range(200)])
    checked = summary["exhaustive"] + summary["random"]
    report(
        3,
        f"recursion and state product agree on {checked} trees"
        " (all <= 8 edges plus 200 random 16-edge)",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_4_change_of_root():
    start = time.perf_counter()
    ok, summary = verify.reroot(7)
    checked = summary["edges"]
    report(
        4,
        f"cross-multiplied change-of-root identity on all {checked} edges of trees <= 7 edges",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_5_delayed_block_formula():
    start = time.perf_counter()
    ok, summary = verify.block(sample_block_specs(500, 9, seed=SEED))
    specs = summary["specs"]
    ok = ok and specs >= 500
    report(
        5,
        f"closed block formula equals the delayed recursion on {specs} sampled specs",
        ok,
        time.perf_counter() - start,
        120,
    )


def test_criterion_6_delayed_examples_and_cyclotomic_structure():
    start = time.perf_counter()
    first = search_delayed(QPoly((0, 1, 1, 2, 1)), 4)
    second = search_delayed(QPoly((1, 2, 1, 1)), 4)
    ok = bool(first) and bool(second)
    ok = ok and cyclotomic_factor(QPoly((1, 2, 1, 1))).remainder != ONE
    plain = 0
    for edges in range(9):
        for tree in enumerate_plane_trees(edges):
            plain += 1
            if cyclotomic_factor(q_poly(tree)).remainder != ONE:
                ok = False
    report(
        6,
        f"delayed witnesses found for both target polynomials at <= 4 edges;"
        f" {plain} plain-tree polynomials fully cyclotomic, the delayed one not",
        ok,
        time.perf_counter() - start,
        120,
    )


def test_criterion_7_presimplicial_relations():
    start = time.perf_counter()
    holds, summary = verify.identities(6)
    trees_checked = sum(len(enumerate_top_trees(total)) for total in range(1, 7))
    ok = (
        holds
        and summary["violations"] == []
        and summary["double_degeneracy_witness"] is not None
        and trees_checked == 258
    )
    report(
        7,
        f"face/degeneracy relations exhaustive on {trees_checked} topological trees"
        " with a double-degeneracy counterexample produced",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_8_quotient_computation():
    start = time.perf_counter()
    checked, mismatches = verify.reduction(6)
    ok = mismatches == 0
    report(
        8,
        f"q-boundary rewriting lands every one of {checked} trees on the q-factorial"
        " of its leaf count",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_9_chain_complex_boundary_cases():
    start = time.perf_counter()
    _, nonzero = verify.double_boundary(6, -1)
    _, witnesses = verify.double_boundary(6, 2)
    ok = nonzero == 0 and witnesses > 0
    report(
        9,
        "alternating boundary squares to zero on all trees <= 6 leaves;"
        " a nonzero double boundary exists at q = 2",
        ok,
        time.perf_counter() - start,
        30,
    )


def test_criterion_10_enumeration_counts():
    start = time.perf_counter()
    catalan = [1]
    for n in range(1, 9):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    ok = all(len(enumerate_plane_trees(n)) == catalan[n] for n in range(9))
    schroeder = [None, 1, 1]
    for n in range(3, 7):
        numerator = 3 * (2 * n - 3) * schroeder[n - 1] - (n - 3) * schroeder[n - 2]
        ok = ok and numerator % n == 0
        schroeder.append(numerator // n)
    ok = ok and schroeder[1:7] == [1, 1, 3, 11, 45, 197]
    ok = ok and all(len(enumerate_top_trees(n)) == schroeder[n] for n in range(1, 7))
    report(
        10,
        "plane-tree counts match the Catalan numbers (n <= 8) and topological-tree"
        " counts match 1, 1, 3, 11, 45, 197",
        ok,
        time.perf_counter() - start,
        30,
    )
