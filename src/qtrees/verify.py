"""The identity suites behind ``qtrees verify`` and the acceptance criteria.

Each family runs one set of exact cross-checks and returns ``(ok,
summary)``, where summary is the dict of counts that ``qtrees verify
--format json`` prints; ``double_boundary`` and ``reduction``, parts of the
presimplicial family, return ``(checked, failures)`` counts instead.  Sizes
are exhaustive bounds, in edges for the plane-tree families and in leaves
for the topological ones.  Nothing here caps a size: each family checks
every tree up to the size it is given, and the CLI's hard caps are the only
gate.  Sampled inputs (random trees, block specs) are built by the caller.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import invariant, trees
from . import presimplicial as _top
from .qpoly import _checked_int, q_binomial, q_factorial

__all__ = [
    "wedge",
    "state",
    "reroot",
    "block",
    "identities",
    "presimplicial",
    "double_boundary",
    "reduction",
]


def wedge(max_edges: int) -> tuple[bool, dict]:
    """Q(S v T) = [a+b choose a]_q Q(S) Q(T) on every ordered pair of plane
    trees with a + b <= max_edges edges."""
    _checked_int(max_edges, "edge bound", 0)
    levels = [trees.enumerate_plane_trees(size) for size in range(max_edges + 1)]
    pairs = 0
    violations = 0
    for left_edges in range(max_edges + 1):
        for right_edges in range(max_edges - left_edges + 1):
            factor = q_binomial(left_edges + right_edges, left_edges)
            for left in levels[left_edges]:
                left_poly = invariant.q_poly(left)
                for right in levels[right_edges]:
                    pairs += 1
                    glued = invariant.q_poly(trees.wedge([left, right]))
                    if glued != factor * left_poly * invariant.q_poly(right):
                        violations += 1
    return violations == 0, {"pairs": pairs, "violations": violations}


def state(max_edges: int, sample: Iterable[trees.PlaneTree]) -> tuple[bool, dict]:
    """Recursion equals state product on every plane tree with at most
    max_edges edges and on each tree of the sample."""
    _checked_int(max_edges, "edge bound", 0)
    exhaustive = []
    for size in range(max_edges + 1):
        exhaustive.extend(trees.enumerate_plane_trees(size))
    sample = list(sample)
    violations = sum(
        1 for tree in exhaustive + sample if invariant.q_poly(tree) != invariant.q_poly_state(tree)
    )
    summary = {"exhaustive": len(exhaustive), "random": len(sample), "violations": violations}
    return violations == 0, summary


def reroot(max_edges: int) -> tuple[bool, dict]:
    """The cross-multiplied change-of-root identity on every edge of every
    plane tree with at most max_edges edges."""
    _checked_int(max_edges, "edge bound", 0)
    edges = 0
    violations = 0
    for size in range(max_edges + 1):
        for tree in trees.enumerate_plane_trees(size):
            for addr in trees._addresses(tree, leaves_only=False):
                edges += 1
                if not invariant.check_reroot(tree, addr).holds:
                    violations += 1
    return violations == 0, {"edges": edges, "violations": violations}


def block(specs: Iterable[invariant.BlockSpec]) -> tuple[bool, dict]:
    """The closed block formula equals the delayed recursion on each spec."""
    specs = list(specs)
    violations = sum(
        1
        for spec in specs
        if invariant.q_poly_block(spec) != invariant.q_poly_delayed(invariant.assemble_blocks(spec))
    )
    return violations == 0, {"specs": len(specs), "violations": violations}


def double_boundary(max_leaves: int, q_value: int) -> tuple[int, int]:
    """(basis trees checked, trees whose boundary at q_value applied twice
    is nonzero) over every topological tree with at most max_leaves leaves."""
    _checked_int(max_leaves, "leaf bound", 0)
    _checked_int(q_value, "q_value")
    checked = 0
    nonzero = 0
    for leaf_total in range(1, max_leaves + 1):
        for tree in _top.enumerate_top_trees(leaf_total):
            checked += 1
            once = _top.q_boundary_at({tree: 1}, q_value)
            if _top.q_boundary_at(once, q_value):
                nonzero += 1
    return checked, nonzero


def reduction(max_leaves: int) -> tuple[int, int]:
    """(basis trees checked, trees not reducing to [n]_q! times the point)
    over every topological tree with at most max_leaves leaves."""
    _checked_int(max_leaves, "leaf bound", 0)
    checked = 0
    mismatches = 0
    for leaf_total in range(1, max_leaves + 1):
        expected = q_factorial(leaf_total)
        for tree in _top.enumerate_top_trees(leaf_total):
            checked += 1
            if _top.reduce_to_point(tree) != expected:
                mismatches += 1
    return checked, mismatches


def identities(max_leaves: int) -> tuple[bool, dict]:
    """The face/degeneracy relations on every topological tree with at most
    max_leaves leaves, with a double-degeneracy witness.

    Checked families: faces commute (d_i d_j = d_{j-1} d_i for i < j),
    degeneracies commute (s_i s_j = s_{j+1} s_i for i < j), faces move past
    degeneracies (d_i s_j = s_{j-1} d_i for i < j and d_i s_j = s_j d_{i-1}
    for i > j + 1), and the cancellations d_i s_i = d_{i+1} s_i = id.  The
    square s_i s_i = s_{i+1} s_i is the one simplicial relation that fails
    here, so a counterexample is searched for and recorded as the witness;
    ok means no violation and a witness found.  The relations are compared
    on Dyck words; only violations and the witness are written as trees.
    """
    _checked_int(max_leaves, "leaf count", 1)
    faces, degeneracies = _top._faces, _top._degeneracies
    checked = {"face_face": 0, "deg_deg": 0, "face_deg": 0, "face_cancel": 0}
    violations: list[dict] = []
    witness = None

    def show(word: int) -> str:
        return trees.serialize(trees.PlaneTree._of(word))

    def check(relation: str, tree: int, indices: tuple[int, int], lhs: int, rhs: int) -> None:
        if lhs != rhs:
            row = dict(relation=relation, tree=show(tree), indices=indices, lhs=show(lhs), rhs=show(rhs))
            violations.append(row)

    for level_leaves in range(1, max_leaves + 1):
        top_index = level_leaves - 1
        for tree in _top._top_trees(level_leaves):
            # every map taken once per index; xy[b][a] is the word of x_a y_b(tree)
            d, s = faces(tree), degeneracies(tree)
            dd, sd = [faces(w) for w in d], [degeneracies(w) for w in d]
            ds, ss = [faces(w) for w in s], [degeneracies(w) for w in s]
            for j in range(top_index + 1):
                for i in range(j):
                    if top_index >= 2:
                        checked["face_face"] += 1
                        check("face_face", tree, (i, j), dd[j][i], dd[i][j - 1])
                    checked["deg_deg"] += 1
                    check("deg_deg", tree, (i, j), ss[j][i], ss[i][j + 1])
            for j in range(top_index + 1):
                for i in range(top_index + 2):
                    if i < j or i > j + 1:
                        checked["face_deg"] += 1
                        rhs = sd[i][j - 1] if i < j else sd[i - 1][j]
                        check("face_deg", tree, (i, j), ds[j][i], rhs)
            for i in range(top_index + 1):
                checked["face_cancel"] += 1
                check("face_cancel", tree, (i, i), ds[i][i], tree)
                check("face_cancel", tree, (i, i + 1), ds[i][i + 1], tree)
                if witness is None and ss[i][i] != ss[i][i + 1]:
                    witness = (show(tree), i, show(ss[i][i]), show(ss[i][i + 1]))
    summary = {
        "max_leaves": max_leaves,
        "checked": checked,
        "violations": violations,
        "double_degeneracy_witness": witness,
    }
    return not violations and witness is not None, summary


def presimplicial(max_leaves: int) -> tuple[bool, dict]:
    """The face/degeneracy relations with a double-degeneracy witness, the
    alternating boundary squaring to zero, and reduction to [n]_q!, on every
    topological tree with at most max_leaves leaves."""
    ok, summary = identities(max_leaves)
    basis, nonzero = double_boundary(max_leaves, -1)
    _, mismatches = reduction(max_leaves)
    summary["basis_trees"] = basis
    summary["boundary_failures"] = nonzero + mismatches
    summary["ok"] = ok and nonzero + mismatches == 0
    return summary["ok"], summary
