"""Reference code the benchmark checks qtrees against.

Nothing here imports qtrees.  Trees are nested tuples: a leaf is ``()``
and an internal vertex is the tuple of its children, left to right.
Delayed trees put an int label in place of each leaf ``()``; the
delayed point is ``()``.

The checks are independent of the code under test:

* plane trees: the Bjorner-Wachs q-hook-length formula
  Q(T) = [e]_q! / prod over non-root v of [h_v]_q, evaluated exactly at
  integer points (h_v is the vertex count of the subtree at v);
* reductions: [n]_q! at q = 2, which is prod over k <= n of (2^k - 1);
* delayed witnesses: a brute-force delayed-game evaluator.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

HOOK_POINTS = (2, 3, -2)


# -- plane trees -------------------------------------------------------------


def catalan_table(n: int) -> list[int]:
    cat = [1]
    for m in range(1, n + 1):
        cat.append(sum(cat[i] * cat[m - 1 - i] for i in range(m)))
    return cat


def random_tree(edges: int, rng: random.Random, cat: list[int]) -> tuple:
    """Uniform random plane tree: the first child's subtree takes `first`
    edges with probability C_first * C_(edges-1-first) / C_edges."""
    if edges == 0:
        return ()
    r = rng.randrange(cat[edges])
    first = 0
    acc = 0
    for first in range(edges):
        acc += cat[first] * cat[edges - 1 - first]
        if r < acc:
            break
    return (random_tree(first, rng, cat),) + random_tree(edges - 1 - first, rng, cat)


@lru_cache(maxsize=None)
def all_trees(edges: int) -> tuple[tuple, ...]:
    """Every plane tree with exactly `edges` edges, each once."""
    if edges == 0:
        return ((),)
    return tuple(
        (head,) + rest
        for first in range(edges)
        for head in all_trees(first)
        for rest in all_trees(edges - 1 - first)
    )


def text(t: tuple) -> str:
    """The qtrees grammar: Tree := "." | "(" Tree+ ")"."""
    return "(" + "".join(text(c) for c in t) + ")" if t else "."


def q_int_at(n: int, x: int) -> int:
    """[n]_q at q = x, for x != 1."""
    return (x**n - 1) // (x - 1)


def hook_values(t: tuple) -> list[int]:
    """Q(T) at each of HOOK_POINTS by the q-hook-length formula, in exact
    integers."""
    hooks: list[int] = []

    def walk(node: tuple) -> int:
        h = 1 + sum(walk(c) for c in node)
        hooks.append(h)
        return h

    vertices = walk(t)
    hooks.pop()  # the root, visited last
    out = []
    for x in HOOK_POINTS:
        num = math.prod(q_int_at(k, x) for k in range(1, vertices))
        den = math.prod(q_int_at(h, x) for h in hooks)
        quot, rem = divmod(num, den)
        if rem:
            raise ArithmeticError("hook quotient is not integral")
        out.append(quot)
    return out


def eval_at(coeffs, x: int) -> int:
    """Horner evaluation of ascending integer coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def hook_matches(coeffs, t: tuple) -> bool:
    return [eval_at(coeffs, x) for x in HOOK_POINTS] == hook_values(t)


# -- topological trees -----------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def top_trees(leaf_total: int) -> tuple[tuple, ...]:
    """Every plane tree with `leaf_total` leaves and no unary vertex."""
    if leaf_total == 1:
        return ((),)
    return tuple(
        kids
        for arity in range(2, leaf_total + 1)
        for split in _compositions(leaf_total, arity)
        for kids in itertools.product(*(top_trees(c) for c in split))
    )


def leaf_count(t: tuple) -> int:
    return 1 if not t else sum(leaf_count(c) for c in t)


def q_factorial_at_2(n: int) -> int:
    """[n]_q! at q = 2."""
    return math.prod(2**k - 1 for k in range(1, n + 1))


# -- delayed trees -------------------------------------------------------------


def labelled(t: tuple, labels) -> tuple:
    """The tree with its leaves, left to right, replaced by the next labels."""
    return tuple(labelled(c, labels) if c else next(labels) for c in t)


def random_delayed(edges: int, rng: random.Random, cat: list[int]) -> tuple:
    """A random plane tree with each leaf labelled in 1..max(edges, 1)."""
    tree = random_tree(edges, rng, cat)
    return labelled(tree, iter(lambda: rng.randint(1, max(edges, 1)), None))


def delayed_value(t) -> list[int]:
    """Brute-force delayed q-polynomial, ascending coefficients.

    Only a leaf labelled 1 may go; its term is q**r, r the number of edges
    strictly right of its root path.  After the removal every surviving
    label d becomes max(d - 1, 1) and a parent left childless becomes a
    leaf labelled 1.  The point gives 1; a tree with no removable leaf, 0.
    """
    if t == ():
        return [1]
    out: list[int] = []
    for path, right in _label_one_leaves(t, (), 0):
        sub = delayed_value(_tick_remove(t, path))
        if len(out) < right + len(sub):
            out.extend([0] * (right + len(sub) - len(out)))
        for j, c in enumerate(sub):
            out[right + j] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _dsize(node) -> int:
    return 1 if isinstance(node, int) else 1 + sum(_dsize(c) for c in node)


def _label_one_leaves(node: tuple, path: tuple, right: int):
    for i, c in enumerate(node):
        r = right + sum(_dsize(s) for s in node[i + 1 :])
        if isinstance(c, int):
            if c == 1:
                yield path + (i,), r
        else:
            yield from _label_one_leaves(c, path + (i,), r)


def _tick(node):
    return max(node - 1, 1) if isinstance(node, int) else tuple(_tick(c) for c in node)


def _tick_remove(t: tuple, path: tuple):
    def drop(node: tuple, rest: tuple, at_root: bool):
        i = rest[0]
        if len(rest) == 1:
            kids = node[:i] + node[i + 1 :]
            if kids:
                return kids
            return () if at_root else 1
        return node[:i] + (drop(node[i], rest[1:], False),) + node[i + 1 :]

    return drop(_tick(t), path, True)


def parse_delayed(s: str):
    """Parse the delayed grammar ("." is a leaf labelled 1)."""
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def node():
        nonlocal pos
        skip()
        ch = s[pos]
        if ch == ".":
            pos += 1
            return 1
        if ch.isdigit():
            end = pos
            while end < len(s) and s[end].isdigit():
                end += 1
            value, pos = int(s[pos:end]), end
            return value
        if ch != "(":
            raise ValueError(f"bad delayed tree text {s!r}")
        pos += 1
        kids = []
        skip()
        while s[pos] != ")":
            kids.append(node())
            skip()
        pos += 1
        return tuple(kids)

    out = node()
    skip()
    if pos != len(s):
        raise ValueError(f"trailing input in {s!r}")
    return () if isinstance(out, int) else out


def delayed_edges(t) -> int:
    return 0 if t == () else _dsize(t) - 1


def delayed_labels(node) -> list[int]:
    return [node] if isinstance(node, int) else [x for c in node for x in delayed_labels(c)]


# -- statistics ------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """The highest whole percentile p >= 50 with at least ten of n samples
    above it, or 100 (the maximum) when n < 20 leaves no such p."""
    for p in range(99, 49, -1):
        if n * (100 - p) / 100 >= 10:
            return p
    return 100


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    vals = sorted(values)
    rank = max(1, math.ceil(p * len(vals) / 100))
    return vals[rank - 1]
