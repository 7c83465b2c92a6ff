"""qtrees benchmark: five workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  For each workload this script starts
worker processes one at a time (no threads, no pool), so every pass
begins with the empty memos a `qtrees` command-line user gets.  It keeps
starting passes until `--seconds` have passed and at least MIN_PASSES
ran, and reports the median over passes of each metric.

Every time is at nominal host speed.  On a shared 2-core VM the speed of
the cores drifted by up to 1.8x over seconds to minutes, so raw times of
identical passes spread by 20-30% across runs.  Each plain pass samples
the host's speed with a fixed kernel on a 20 ms timer (calibrate.py),
leaves the kernel's own time out of every timing, and scales each item
and the set-up by the kernel's nominal over its mean time while they
ran.  wall_s is then the sum of the scaled items.  The raw medians
(raw.*) and the pass-wide scale are printed and recorded too.

    setup_s       spawn to inputs ready: interpreter start, import, inputs
    wall_s        the timed region that runs every item: its items' sum
    items_per_s   items / wall_s
    item_p50_ms   median time per item
    item_tail_ms  highest whole percentile with >= 10 items above it
                  (the maximum below 20 items); the percentile is printed
    peak_rss_mb   ru_maxrss of the worker
    fail_frac     items failing a check or raising, over items attempted

With `--trace 1` it makes one untraced pass, which afterwards also
measures the bytes each layer's caches hold (<layer>.retained_mb), and
one traced pass (spans and counts per layer, see tracing.py), and reports
the per-layer metrics plus trace.overhead_frac: the traced raw wall time
over the untraced one, minus 1.  Spans and a full result record, with the run
environment, go to .perfbench/.  The last line printed is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import reference as ref
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
WORKLOAD_BUDGET_S = 170  # a run must end within 180 s
DEFAULT_SEED = 20140530  # the seed the test suite uses

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(RuntimeError):
    pass


def spawn(root: Path, out_dir: Path, workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(out_dir)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} {mode} pass ran past the {WORKLOAD_BUDGET_S} s budget") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{workload} {mode} pass exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out.pop("ready_monotonic") - spawned - out["setup_spent_s"]
    return out


def timings(passes: list[dict]) -> dict:
    """Median over plain passes of their timings, which the worker gives
    at nominal host speed (see calibrate.py).  The per-item figures are
    percentiles of each item's median time over the passes: every pass
    runs the same items from the same cold state, so this keeps an item
    that is slow in every pass and drops one a host hiccup hit once."""
    per_item = [median(ts) for ts in zip(*(p["item_s"] for p in passes))]
    tail_p = ref.tail_percentile(len(per_item))
    return {
        "setup_s": median(p["raw_setup_s"] * p["setup_scale"] for p in passes),
        "wall_s": median(p["wall_s"] for p in passes),
        "items_per_s": median(len(per_item) / p["wall_s"] for p in passes),
        "item_p50_ms": ref.percentile(per_item, 50) * 1e3,
        "item_tail_ms": ref.percentile(per_item, tail_p) * 1e3,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "tail_percentile": tail_p,
    }


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qtrees").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(root: Path, out_dir: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    passes = []
    start = time.monotonic()
    deadline = start + WORKLOAD_BUDGET_S
    # A traced run needs only one untraced pass, as the overhead baseline.
    while len(passes) < (1 if trace else MIN_PASSES) or (not trace and time.monotonic() - start < seconds):
        passes.append(spawn(root, out_dir, name, seed, "retained" if trace else "plain", deadline))
    items = passes[0]["items"]
    metrics = timings(passes)
    tail_p = metrics.pop("tail_percentile")
    for p in passes:
        del p["item_s"]  # kept out of the record: 82k floats a pass on one workload
    raw = {
        "setup_s": median(p["raw_setup_s"] for p in passes),
        "wall_s": median(p["raw_wall_s"] for p in passes),
        "speed_scale": median(p["speed_scale"] for p in passes),
    }
    extra = []
    layers: dict[str, float] = {}
    if trace:
        traced = spawn(root, out_dir, name, seed, "trace", deadline)
        del traced["item_s"]
        extra = [traced]
        layers = {**traced["layers"], **passes[0]["layers"], "trace.overhead_frac": traced["raw_wall_s"] / raw["wall_s"] - 1}
    attempted = sum(p["attempted"] for p in passes + extra)
    failed = sum(p["failed"] for p in passes + extra)
    return {
        "workload": name,
        "seed": seed,
        "items": items,
        "tail_percentile": tail_p,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "raw": raw,
        "layers": layers,
        "errors": [e for p in passes + extra for e in p["errors"]][:5],
        "raw_passes": passes + extra,
    }


def print_result(res: dict) -> None:
    name = res["workload"]
    print(f"## {name}  seed={res['seed']}  items={res['items']}  passes={res['passes']}  tail=p{res['tail_percentile']}")
    for key, unit in END_TO_END.items():
        print(f"{name}  {key:<14} {res['metrics'][key]:>14.6g} {unit}")
    for key, value in res["raw"].items():
        print(f"{name}  {'raw.' + key:<14} {value:>14.6g}")
    print(f"{name}  {'fail_frac':<14} {res['fail_frac']:>14.6g} ({res['failed']}/{res['attempted']})")
    for key, value in res["layers"].items():
        print(f"{name}  {key:<40} {value:>14.6g}")
    for err in res["errors"]:
        print(f"{name}  error: {err}")


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qtrees" / "__init__.py").is_file():
        print(f"no qtrees source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        **source_identity(root),
    }
    try:
        results = [run_workload(root, out_dir, n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    env["loadavg_after"] = os.getloadavg()

    print("# env " + json.dumps(env))
    for res in results:
        print_result(res)
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "args": vars(args), "results": results}, indent=1))

    def prefixed(key: str, res: dict) -> str:
        return key if len(results) == 1 else f"{res['workload']}.{key}"

    metrics = {}
    for res in results:
        if args.trace:
            metrics.update({prefixed(k, res): {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()})
        else:
            metrics.update({prefixed(k, res): {"value": v, "unit": END_TO_END[k]} for k, v in res["metrics"].items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
