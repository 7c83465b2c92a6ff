"""Command-line interface.

Exit codes: 0 success, 1 a verified identity failed or a search found
nothing, 2 usage or parse errors, a q-polynomial whose degree exceeds its
cap (checked before q, q-delayed and reduce evaluate anything), 141 the
reader of stdout closed it early (the code a shell reports for a process
that SIGPIPE ended).  All output is deterministic given the flags and seed;
--format json emits a single JSON document on stdout.  The environment
variable QTREES_HARD_CAP (an integer) raises the hard caps (_HARD_CAPS):
the sizes for the verify/enumerate/search commands, 7 edges for
search-delayed, and the degree for q/q-delayed/reduce; any other value is a
usage error.  These caps are the only size limits: the library computes any
size it is asked for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import invariant, presimplicial, qpoly, trees, verify
from .qpoly import QPoly, q_factorial, to_json_coeffs, to_latex
from .trees import parse_delayed, parse_tree, serialize, serialize_delayed

_DEFAULT_SIZES = {"wedge": 8, "state": 8, "reroot": 7, "block": 9, "presimplicial": 6}
_MIN_SIZES = {"presimplicial": (1, "at least 1 leaf"), "block": (2, "at least 2 edges")}
_HARD_CAPS = {
    "wedge": 10,
    "state": 10,
    "reroot": 10,
    "block": 12,
    "presimplicial": 8,
    "enumerate-plane": 10,
    "enumerate-topological": 8,
    "search": 7,
    "degree": 20_000,
}


def _cap(name: str) -> int:
    cap = _HARD_CAPS[name]
    override = os.environ.get("QTREES_HARD_CAP")
    if override:
        try:
            cap = max(cap, int(override))
        except ValueError:
            raise ValueError(f"QTREES_HARD_CAP must be an integer, got {override!r}") from None
    return cap


def _poly_latex(poly: QPoly) -> str:
    text = to_latex(poly)
    if poly:
        factored = qpoly.cyclotomic_factor(poly)
        if factored.remainder == qpoly.ONE and factored.factors:
            pieces = []
            if factored.monomial_exponent == 1:
                pieces.append("q")
            elif factored.monomial_exponent > 1:
                pieces.append(f"q^{{{factored.monomial_exponent}}}")
            for d in sorted(factored.factors):
                mult = factored.factors[d]
                pieces.append(f"\\Phi_{{{d}}}" + (f"^{{{mult}}}" if mult > 1 else ""))
            text += " = " + " ".join(pieces)
    return text


def _emit_poly(poly: QPoly, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"coeffs": to_json_coeffs(poly)}))
    elif fmt == "latex":
        print(_poly_latex(poly))
    else:
        print(str(poly))


def _check_degree(degree: int) -> None:
    """Refuse, before any evaluation, an answer whose degree is past the cap."""
    cap = _cap("degree")
    if degree > cap:
        raise trees.BoundExceeded(
            f"degree {degree} of the q-polynomial exceeds hard cap {cap} (QTREES_HARD_CAP raises it)"
        )


def _cmd_q(args) -> int:
    tree = parse_tree(args.tree)
    _check_degree(invariant.q_degree(tree))
    if args.algo == "recursive":
        _emit_poly(invariant.q_poly(tree), args.format)
        return 0
    if args.algo == "state":
        _emit_poly(invariant.q_poly_state(tree), args.format)
        return 0
    rec = invariant.q_poly(tree)
    state = invariant.q_poly_state(tree)
    match = rec == state
    if args.format == "json":
        print(
            json.dumps(
                {
                    "recursive": {"coeffs": to_json_coeffs(rec)},
                    "state": {"coeffs": to_json_coeffs(state)},
                    "match": match,
                }
            )
        )
    else:
        render = to_latex if args.format == "latex" else str
        print(f"recursive: {render(rec)}")
        print(f"state: {render(state)}")
        if not match:
            print("error: the two algorithms disagree", file=sys.stderr)
    return 0 if match else 1


def _cmd_q_delayed(args) -> int:
    delayed = parse_delayed(args.tree)
    _check_degree(invariant.q_degree(delayed.tree))  # bounds the delayed degree too
    _emit_poly(invariant.q_poly_delayed(delayed), args.format)
    return 0


def _cmd_reduce(args) -> int:
    tree = presimplicial.normalize_topological(parse_tree(args.tree))
    n = presimplicial.leaf_count(tree)
    _check_degree(n * (n - 1) // 2)  # the degree of [n]_q!
    value = presimplicial.reduce_to_point(tree)
    expected = q_factorial(n)
    match = value == expected
    if args.format == "json":
        print(
            json.dumps(
                {
                    "tree": args.tree,
                    "normalized": serialize(tree),
                    "leaves": n,
                    "coeffs": to_json_coeffs(value),
                    "expected": to_json_coeffs(expected),
                    "match": match,
                }
            )
        )
    elif args.format == "latex":
        relation = "=" if match else "\\neq"
        print(f"{to_latex(value)} {relation} [{n}]_q!")
    else:
        suffix = f"(= [{n}]_q!)" if match else f"(expected [{n}]_q! = {expected})"
        print(f"{value} {suffix}")
    return 0 if match else 1


def _cmd_enumerate(args) -> int:
    cap = _cap(f"enumerate-{args.kind}")
    if args.size > cap:
        raise trees.BoundExceeded(f"size {args.size} exceeds hard cap {cap}")
    if args.kind == "plane":
        found = trees.enumerate_plane_trees(args.size)
    else:
        found = presimplicial.enumerate_top_trees(args.size)
    listing = [serialize(t) for t in found]
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "size": args.size, "count": len(listing), "trees": listing}))
    else:
        print(len(listing))
        for line in listing:
            print(line)
    return 0


# witnesses search-delayed renders and writes at a time: on the 4,566,534
# zero witnesses at 7 edges, one json.dumps per witness took 74 s against
# 36 s in batches (one run each), and in plain mode one print per batch wrote
# 500,000 witnesses in 7% less time than rendering all first, one print per
# witness in 4% more (medians of 15 interleaved runs; shared 2-core VM)
_BATCH = 4096


def _cmd_search_delayed(args) -> int:
    text = args.target.strip()
    if text[:1] == "[" and text[-1:] == "]":
        text = text[1:-1]
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"target must be comma-separated integers, got {args.target!r}") from None
    cap = _cap("search")
    if args.max_edges > cap:
        raise trees.BoundExceeded(f"--max-edges {args.max_edges} exceeds hard cap {cap}")
    target = QPoly(coeffs)
    hits = invariant.search_delayed(target, args.max_edges)
    batches = range(0, len(hits), _BATCH)
    if args.format == "json":
        # the document json.dumps would write whole, streamed: the header up
        # to the witness list's opening bracket, then the witnesses in batches
        head = {"target": to_json_coeffs(target), "max_edges": args.max_edges, "count": len(hits), "witnesses": []}
        sys.stdout.write(json.dumps(head)[:-2])
        for i in batches:
            batch = json.dumps(list(map(serialize_delayed, hits[i : i + _BATCH])))
            sys.stdout.write((", " if i else "") + batch[1:-1])
        print("]}")
    else:
        for i in batches:
            print("\n".join(map(serialize_delayed, hits[i : i + _BATCH])))
        if not hits:
            print("no witness found", file=sys.stderr)
    return 0 if hits else 1


_PLAIN_LINES = {
    "wedge": "wedge: checked {pairs} ordered pairs, {violations} violations",
    "state": "state: checked {exhaustive} trees exhaustively and {random} random"
    " 12-edge trees, {violations} violations",
    "reroot": "reroot: checked {edges} edges, {violations} violations",
    "block": "block: checked {specs} sampled specs, {violations} mismatches",
}


def _presimplicial_lines(summary: dict) -> list[str]:
    checked = ", ".join(f"{name}={count}" for name, count in sorted(summary["checked"].items()))
    lines = [
        f"presimplicial: checked {checked}, {len(summary['violations'])} violations",
        f"presimplicial: alternating boundary squares to zero and reduction matches"
        f" the q-factorial on {summary['basis_trees']} basis trees,"
        f" {summary['boundary_failures']} failures",
    ]
    witness = summary["double_degeneracy_witness"]
    if witness:
        tree_text, index, lhs, rhs = witness
        lines.append(
            f"presimplicial: double-degeneracy counterexample on {tree_text!r}"
            f" at index {index}: {lhs} != {rhs}"
        )
    else:
        lines.append("presimplicial: no double-degeneracy counterexample found")
    return lines


def _cmd_verify(args) -> int:
    family = args.family
    max_size = args.max_size if args.max_size is not None else _DEFAULT_SIZES[family]
    cap = _cap(family)
    low, need = _MIN_SIZES.get(family, (0, None))
    if not low <= max_size <= cap:
        why = f": it needs {need}" if need and max_size < low else ""
        raise trees.BoundExceeded(f"--max-size {max_size} outside {low}..{cap} for {family}{why}")
    if family == "state":
        rng = random.Random(args.seed)
        ok, summary = verify.state(max_size, [trees.random_plane_tree(12, rng) for _ in range(25)])
    elif family == "block":
        ok, summary = verify.block(invariant.sample_block_specs(500, max_size, seed=args.seed))
    else:
        ok, summary = getattr(verify, family)(max_size)
    if args.format == "json":
        print(json.dumps({"family": family, "max_size": max_size, "ok": ok, "summary": summary}))
    elif family == "presimplicial":
        print("\n".join(_presimplicial_lines(summary)))
    else:
        print(_PLAIN_LINES[family].format(**summary))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrees",
        description="Exact q-polynomial invariants of plane rooted trees.",
        epilog="Set QTREES_HARD_CAP to raise the hard size and degree caps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, latex=True):
        choices = ["plain", "json"] + (["latex"] if latex else [])
        p.add_argument("--format", choices=choices, default="plain")

    p = sub.add_parser("q", help="q-polynomial of a plane tree")
    p.add_argument("tree", help='tree text, e.g. "(.(..))"')
    p.add_argument("--algo", choices=["recursive", "state", "both"], default="recursive")
    add_format(p)
    p.set_defaults(func=_cmd_q)

    p = sub.add_parser("q-delayed", help="q-polynomial of a tree with leaf delays")
    p.add_argument("tree", help='delayed tree text, e.g. "(2 1)"')
    add_format(p)
    p.set_defaults(func=_cmd_q_delayed)

    p = sub.add_parser("verify", help="run an identity suite and report violations")
    p.add_argument("family", choices=sorted(_DEFAULT_SIZES))
    p.add_argument("--max-size", type=int, default=None, help="edges (leaves for presimplicial)")
    p.add_argument("--seed", type=int, default=0)
    add_format(p, latex=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search-delayed", help="find delayed trees with a target polynomial")
    p.add_argument("--target", required=True, help="comma-separated ascending coefficients")
    p.add_argument("--max-edges", type=int, default=4)
    add_format(p, latex=False)
    p.set_defaults(func=_cmd_search_delayed)

    p = sub.add_parser("reduce", help="rewrite a tree to a multiple of the point")
    p.add_argument("tree", help="tree text; normalized topologically first")
    add_format(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("enumerate", help="list trees of a given size")
    p.add_argument("kind", choices=["plane", "topological"])
    p.add_argument("--size", type=int, required=True, help="edges (plane) or leaves (topological)")
    add_format(p, latex=False)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away, as with `| head`.  Point stdout at
        # devnull so that the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except ValueError as exc:  # ParseError and BoundExceeded included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
