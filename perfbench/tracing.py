"""Span tracing of the qtrees layers, installed from outside the package.

`Tracer.install` rebinds functions in the layer modules' namespaces: the
entry points the benchmark calls, the names `invariant` and
`presimplicial` import from `trees` and `qpoly`, and the `QPoly`
arithmetic methods.  Each wrapped call is counted.  A span (name, start,
end, parent, item) is recorded per call, except for a call made while the
same function is already running: recursion is counted but gets no span.
A span's self time is its duration minus that of its child spans.

Spans stay in flat arrays until `write_spans` at exit.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from collections import Counter
from time import perf_counter

# Functions wrapped in their own module, so calls from inside it count too.
ENTRY_POINTS = {
    "invariant": ["q_poly", "q_poly_state", "search_delayed"],
    "presimplicial": ["face", "normalize_topological", "reduce_to_point", "q_boundary_at"],
}
# These call themselves; only the outermost call gets a span.
RECURSIVE = {"invariant.q_poly", "invariant.q_poly_state", "presimplicial.normalize_topological"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.item = -1
        self.calls: Counter[str] = Counter()
        self.mul_products = 0
        self.mul_max_len = 0
        self.constructed = 0

    def wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        recursive = name in RECURSIVE
        depth = 0
        calls = self.calls
        stack = self.stack
        span_name, span_parent, span_item = self.span_name, self.span_parent, self.span_item
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            nonlocal depth
            calls[name] += 1
            if recursive and depth:
                return fn(*args, **kwargs)
            sid = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_item.append(self.item)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                span_start[sid] = start
                depth -= 1
                stack.pop()

        return traced

    def install(self, qt) -> None:
        qpoly_cls = qt.qpoly.QPoly
        for layer, names in ENTRY_POINTS.items():
            module = getattr(qt, layer)
            for fn_name in names:
                setattr(module, fn_name, self.wrap(f"{layer}.{fn_name}", getattr(module, fn_name)))
        for layer in ("invariant", "presimplicial"):
            module = getattr(qt, layer)
            for fn_name, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", "")
                if inspect.isfunction(obj) and home in ("qtrees.trees", "qtrees.qpoly"):
                    setattr(module, fn_name, self.wrap(f"{home.split('.')[-1]}.{fn_name}", obj))

        mul = self.wrap("qpoly.mul", qpoly_cls.__mul__)
        rmul = self.wrap("qpoly.mul", qpoly_cls.__rmul__)

        def operand_len(x) -> int:
            return len(x.coeffs) if isinstance(x, qpoly_cls) else 1

        def count_mul(a, b):
            la, lb = operand_len(a), operand_len(b)
            self.mul_products += la * lb
            self.mul_max_len = max(self.mul_max_len, la, lb)

        def traced_mul(a, b):
            count_mul(a, b)
            return mul(a, b)

        def traced_rmul(a, b):
            count_mul(a, b)
            return rmul(a, b)

        qpoly_cls.__mul__ = traced_mul
        qpoly_cls.__rmul__ = traced_rmul
        qpoly_cls.__add__ = self.wrap("qpoly.add", qpoly_cls.__add__)
        qpoly_cls.__radd__ = self.wrap("qpoly.add", qpoly_cls.__radd__)

        tree_cls = qt.trees.PlaneTree
        tree_init = tree_cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.constructed += 1
            tree_init(obj, *args, **kwargs)

        tree_cls.__init__ = counted_init

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[sid]
        out = dict.fromkeys(self.names, 0.0)
        for sid, name_id in enumerate(self.span_name):
            out[self.names[name_id]] += dur[sid] - child[sid]
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.names[self.span_name[sid]]}\t{self.span_start[sid]:.9f}\t"
                    f"{self.span_end[sid]:.9f}\t{self.span_parent[sid]}\t{self.span_item[sid]}\n"
                )
