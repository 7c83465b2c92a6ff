"""Regenerate pinned_witnesses.json from the current source tree.

Every nonzero delayed polynomial of a tree with at most POOL_EDGES edges
(found with the reference evaluator) is a possible delayed-search6 hit
target; this records the digest of the witness list search_delayed
returns for each at 6 edges.  Run from the repository root:

    python3 perfbench/pin.py

The committed file was taken from the unoptimised seed code, so later
changes to the search must reproduce its witnesses in the same order.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import reference as ref
from workloads import PINNED, SEARCH_EDGES, target_key, witness_digest

POOL_EDGES = 4


def pool_targets() -> list[list[int]]:
    seen: dict[str, list[int]] = {}
    for e in range(1, POOL_EDGES + 1):
        for tree in ref.all_trees(e):
            for combo in itertools.product(range(1, e + 1), repeat=ref.leaf_count(tree)):
                coeffs = ref.delayed_value(ref.labelled(tree, iter(combo)))
                if coeffs:
                    seen.setdefault(target_key(coeffs), coeffs)
    return list(seen.values())


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from qtrees import QPoly, search_delayed, serialize_delayed

    digests = {}
    for coeffs in pool_targets():
        found = search_delayed(QPoly(coeffs), SEARCH_EDGES)
        digests[target_key(coeffs)] = witness_digest([serialize_delayed(w) for w in found])
    PINNED.write_text(json.dumps({"pool_edges": POOL_EDGES, "digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
