"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUT_DIR

MODE is `plain` (timed, untraced), `retained` (plain, then the bytes the
layers' caches hold) or `trace` (spans and counts, see tracing.py).
Run from the repository root, whose `src/` provides qtrees.  Prints one
JSON object.  `ready_monotonic` is the clock reading when the inputs are
ready; the parent subtracts its own reading at spawn to get set-up time.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from types import FunctionType, ModuleType, SimpleNamespace

import reference as ref
from calibrate import HostSpeed
from tracing import Tracer
from workloads import WORKLOADS

LAYERS = ("qpoly", "trees", "invariant", "presimplicial")


def load_qtrees(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import qtrees

    if not Path(qtrees.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"qtrees imported from {qtrees.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"qtrees.{name}") for name in LAYERS})


def cache_tables(qt):
    """Every module-level memo dict and lru_cache table of the layers, as
    (layer, name, table) with the table a dict."""
    for layer in LAYERS:
        for name, obj in vars(getattr(qt, layer)).items():
            if isinstance(obj, dict) and "MEMO" in name.upper():
                yield layer, name, obj
            elif callable(getattr(obj, "cache_info", None)):
                table = [r for r in gc.get_referents(obj) if isinstance(r, dict) and r is not obj.__dict__]
                yield layer, name, table[0] if table else {}


def caches(qt) -> dict[str, int]:
    return {f"{layer}.{name}": len(table) for layer, name, table in cache_tables(qt)}


def retained_mb(qt) -> dict[str, float]:
    """Bytes held by each layer's caches: everything reachable from its
    tables, each object counted once, for the first layer reaching it."""
    seen: set[int] = set()
    out = {f"{layer}.retained_mb": 0.0 for layer in LAYERS}
    for layer, _, table in cache_tables(qt):
        stack = [table]
        total = 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
                continue
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            stack.extend(gc.get_referents(obj))
        out[f"{layer}.retained_mb"] += total / 2**20
    return out


def timed_pass(workload, tracer: Tracer | None, speed: HostSpeed | None):
    """Run every item.  Times leave out the host-speed sampler's kernel
    runs and, with a sampler, are at nominal host speed (calibrate.py):
    the sampler is stopped at the end, each item is scaled by the samples
    taken while it ran, and wall_s is the sum of the items'.  raw_wall_s
    is the timed region as measured."""
    results = []
    item_s = []
    spans = []
    errors = []

    def spent() -> float:
        return speed.spent if speed is not None else 0.0

    wall_start = time.perf_counter()
    spent_start = spent()
    for i, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = i
        before = spent()
        start = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as exc:  # an item that raises counts as failed
            out = exc
            errors.append(f"item {i}: {exc!r}")
        end = time.perf_counter()
        item_s.append(end - start - (spent() - before))
        spans.append((start, end))
        results.append(out)
    raw_wall_s = time.perf_counter() - wall_start - (spent() - spent_start)
    if speed is None:
        return raw_wall_s, raw_wall_s, item_s, results, errors
    speed.stop()
    item_s = [took * speed.scale(start, end) for took, (start, end) in zip(item_s, spans)]
    return math.fsum(item_s), raw_wall_s, item_s, results, errors


def layer_metrics(qt, tracer: Tracer, info: dict, caches_after: dict) -> dict[str, float]:
    self_s = tracer.self_times()
    calls = tracer.calls
    memo = caches_after.get("invariant._QPOLY_MEMO", 0)
    q_poly_calls = calls["invariant.q_poly"]
    binom_info = getattr(qt.qpoly.q_binomial, "cache_info", None)
    binom = binom_info() if binom_info else None
    searches = calls["invariant.search_delayed"]
    candidates = info.get("candidates_per_search", 0) * searches
    witnesses = info.get("witnesses", 0)
    return {
        "qpoly.mul.calls": calls["qpoly.mul"],
        "qpoly.mul.self_s": self_s.get("qpoly.mul", 0.0),
        "qpoly.mul.coeff_products": tracer.mul_products,
        "qpoly.mul.max_len": tracer.mul_max_len,
        "qpoly.add.calls": calls["qpoly.add"],
        "qpoly.add.self_s": self_s.get("qpoly.add", 0.0),
        "qpoly.q_binomial.cache_hit_ratio": binom.hits / max(binom.hits + binom.misses, 1) if binom else 0.0,
        "qpoly.q_binomial.cache_entries": binom.currsize if binom else 0,
        "qpoly.q_multinomial.self_s": self_s.get("qpoly.q_multinomial", 0.0),
        "trees.remove_leaf.calls": calls["trees.remove_leaf"],
        "trees.remove_leaf.self_s": self_s.get("trees.remove_leaf", 0.0),
        "trees.leaf_weights.calls": calls["trees.leaf_weights"],
        "trees.leaf_weights.self_s": self_s.get("trees.leaf_weights", 0.0),
        "trees.node_at.calls": calls["trees.node_at"],
        "trees.plane_tree.constructed": tracer.constructed,
        "invariant.q_poly.calls": q_poly_calls,
        "invariant.q_poly.self_s": self_s.get("invariant.q_poly", 0.0),
        "invariant.q_poly.memo_entries": memo,
        "invariant.q_poly.memo_hit_ratio": (q_poly_calls - memo) / max(q_poly_calls, 1),
        "invariant.q_poly_state.self_s": self_s.get("invariant.q_poly_state", 0.0),
        "invariant.delayed.memo_entries": caches_after.get("invariant._DELAYED_MEMO", 0),
        "invariant.search.self_s": self_s.get("invariant.search_delayed", 0.0),
        "invariant.search.candidates": candidates,
        "invariant.search.witness_ratio": witnesses / max(candidates, 1),
        "presimplicial.face.calls": calls["presimplicial.face"],
        "presimplicial.face.self_s": self_s.get("presimplicial.face", 0.0),
        "presimplicial.normalize.calls": calls["presimplicial.normalize_topological"],
        "presimplicial.reduce_to_point.self_s": self_s.get("presimplicial.reduce_to_point", 0.0),
        "presimplicial.q_boundary_at.self_s": self_s.get("presimplicial.q_boundary_at", 0.0),
    }


def main() -> None:
    name, seed, mode, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4]).resolve()
    root = Path.cwd()
    # The traced pass is not normalised: the sampler's kernel would land
    # inside the spans.
    speed = None if mode == "trace" else HostSpeed()
    if speed is not None:
        speed.start()
    qt = load_qtrees(root)
    workload = WORKLOADS[name](qt, seed)
    # Move the inputs out of the collector's view, so that collections in
    # the timed region scan what the program allocates, not the harness.
    gc.collect()
    gc.freeze()
    ready = time.monotonic()
    ready_perf = time.perf_counter()
    setup_spent = speed.spent if speed is not None else 0.0

    warm = {k: v for k, v in caches(qt).items() if v}
    if warm:
        raise RuntimeError(f"caches not empty before the timed region: {warm}")
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(qt)
    wall_s, raw_wall_s, item_s, results, errors = timed_pass(workload, tracer, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches_after = caches(qt)

    failed = len(errors)
    for item, out in zip(workload.items, results):
        if not isinstance(out, Exception) and not workload.check(item, out):
            failed += 1
    report = {
        "ready_monotonic": ready,
        "setup_spent_s": setup_spent,
        "setup_scale": speed.scale(end=ready_perf) if speed is not None else 1.0,
        "speed_scale": speed.scale() if speed is not None else 1.0,
        "speed_samples": len(speed.samples) if speed is not None else 0,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "items": len(item_s),
        "item_s": item_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(item_s),
        "failed": failed,
        "errors": errors[:5],
        "caches": caches_after,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(qt, tracer, workload.info, caches_after)
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = out_dir / f"spans-{name}.tsv.gz"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans.relative_to(root))
        report["spans"] = len(tracer.span_name)
    if mode == "retained":
        del results
        report["layers"] = retained_mb(qt)
    print(json.dumps(report), flush=True)
    # Skip interpreter teardown: freeing the memos only costs time.
    os._exit(0)


if __name__ == "__main__":
    main()
