"""The five workloads: seeded inputs, the call made per item, and the
independent check of each output.

Inputs are generated here as text from the seed and parsed with the
public `parse_tree`, so building them touches no memo of the program.
Each workload's `run` is the only code inside the timed region; `check`
runs afterwards and uses only `reference`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import reference as ref

PINNED = Path(__file__).with_name("pinned_witnesses.json")
SEARCH_EDGES = 6


@dataclass
class Workload:
    items: list
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    info: dict


def plane_random16(qt, seed: int) -> Workload:
    """200 random 16-edge trees, recursion against state product: tree
    surgery and memo writes."""
    rng = random.Random(seed)
    cat = ref.catalan_table(16)
    shapes = [ref.random_tree(16, rng, cat) for _ in range(200)]
    items = [(s, qt.trees.parse_tree(ref.text(s))) for s in shapes]
    inv = qt.invariant

    def run(item):
        tree = item[1]
        return inv.q_poly(tree), inv.q_poly_state(tree)

    def check(item, out):
        rec, state = out
        return rec == state and ref.hook_matches(rec.coeffs, item[0])

    return Workload(items, run, check, {})


def wedge_exhaustive10(qt, seed: int) -> Workload:
    """Every ordered pair (L, R) with at most 10 edges in total, checking
    Q(L v R) = [e_L + e_R choose e_L]_q Q(L) Q(R): memo reads across trees
    and many small products."""
    shapes = [t for e in range(11) for t in ref.all_trees(e)]
    index = {t: i for i, t in enumerate(shapes)}
    parsed = [qt.trees.parse_tree(ref.text(t)) for t in shapes]
    items = [
        (index[left], index[right], index[left + right], e_left, e_right)
        for e_left in range(11)
        for left in ref.all_trees(e_left)
        for e_right in range(11 - e_left)
        for right in ref.all_trees(e_right)
    ]
    random.Random(seed).shuffle(items)
    inv, qpoly = qt.invariant, qt.qpoly
    verified: dict[int, tuple] = {}

    def run(item):
        i_left, i_right, i_wedge, e_left, e_right = item
        lhs = inv.q_poly(parsed[i_wedge])
        rhs = qpoly.q_binomial(e_left + e_right, e_left) * inv.q_poly(parsed[i_left]) * inv.q_poly(parsed[i_right])
        return lhs, rhs

    def check(item, out):
        lhs, rhs = out
        if lhs != rhs:
            return False
        i_wedge = item[2]
        if i_wedge not in verified:
            if not ref.hook_matches(lhs.coeffs, shapes[i_wedge]):
                return False
            verified[i_wedge] = lhs.coeffs
        return lhs.coeffs == verified[i_wedge]

    return Workload(items, run, check, {})


def state_large60(qt, seed: int) -> Workload:
    """30 random 60-edge trees through the state product alone: large
    polynomial products, no recursion memo."""
    rng = random.Random(seed)
    cat = ref.catalan_table(60)
    shapes = [ref.random_tree(60, rng, cat) for _ in range(30)]
    items = [(s, qt.trees.parse_tree(ref.text(s))) for s in shapes]
    inv = qt.invariant

    def run(item):
        return inv.q_poly_state(item[1])

    def check(item, out):
        return ref.hook_matches(out.coeffs, item[0])

    return Workload(items, run, check, {})


def witness_digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def target_key(coeffs) -> str:
    return ",".join(map(str, coeffs))


def delayed_targets(seed: int, pool_edges: int) -> list[list[int]]:
    """8 targets of random delayed trees with at most pool_edges edges,
    scored by the reference evaluator, and 4 of a degree no tree with at
    most SEARCH_EDGES edges reaches, in seeded order."""
    rng = random.Random(seed)
    cat = ref.catalan_table(pool_edges)
    hits: list[list[int]] = []
    while len(hits) < 8:
        coeffs = ref.delayed_value(ref.random_delayed(rng.randint(1, pool_edges), rng, cat))
        if coeffs and coeffs not in hits:
            hits.append(coeffs)
    # Degree is at most sum of (k - 1) over k <= SEARCH_EDGES removals.
    top_degree = SEARCH_EDGES * (SEARCH_EDGES - 1) // 2
    misses = [
        [rng.randint(1, 5) for _ in range(rng.randint(top_degree + 2, top_degree + 6))]
        for _ in range(4)
    ]
    targets = hits + misses
    rng.shuffle(targets)
    return targets


def delayed_search6(qt, seed: int) -> Workload:
    """search_delayed at 6 edges over 12 targets: the first search fills
    the delayed memo, the other 11 read it."""
    pinned = json.loads(PINNED.read_text())
    targets = delayed_targets(seed, pinned["pool_edges"])
    items = [(coeffs, qt.qpoly.QPoly(coeffs)) for coeffs in targets]
    inv, trees = qt.invariant, qt.trees
    scored: dict[str, list[int]] = {}
    candidates = sum(max(e, 1) ** ref.leaf_count(t) for e in range(SEARCH_EDGES + 1) for t in ref.all_trees(e))
    info = {"candidates_per_search": candidates, "witnesses": 0}

    def run(item):
        return inv.search_delayed(item[1], SEARCH_EDGES)

    def check(item, out):
        coeffs = item[0]
        texts = [trees.serialize_delayed(w) for w in out]
        info["witnesses"] += len(texts)
        if witness_digest(texts) != pinned["digests"].get(target_key(coeffs), witness_digest([])):
            return False
        for t in texts:
            if t not in scored:
                tree = ref.parse_delayed(t)
                labels = ref.delayed_labels(tree) if tree else []
                edges = ref.delayed_edges(tree)
                if edges > SEARCH_EDGES or any(not 1 <= d <= max(edges, 1) for d in labels):
                    return False
                scored[t] = ref.delayed_value(tree)
            if scored[t] != coeffs:
                return False
        return True

    return Workload(items, run, check, info)


def presimplicial_reduce7(qt, seed: int) -> Workload:
    """Every topological tree with at most 7 leaves, reduced to the point,
    with the alternating double boundary required to vanish."""
    shapes = [t for n in range(1, 8) for t in ref.top_trees(n)]
    random.Random(seed).shuffle(shapes)
    items = [(s, qt.trees.parse_tree(ref.text(s))) for s in shapes]
    pre = qt.presimplicial

    def run(item):
        tree = item[1]
        return pre.reduce_to_point(tree), pre.q_boundary_at(pre.q_boundary_at({tree: 1}, -1), -1)

    def check(item, out):
        reduced, double = out
        return not double and ref.eval_at(reduced.coeffs, 2) == ref.q_factorial_at_2(ref.leaf_count(item[0]))

    return Workload(items, run, check, {})


WORKLOADS = {
    "plane-random16": plane_random16,
    "wedge-exhaustive10": wedge_exhaustive10,
    "state-large60": state_large60,
    "delayed-search6": delayed_search6,
    "presimplicial-reduce7": presimplicial_reduce7,
}
