"""Spans around the public functions of each cjt layer, recorded from outside.

A Recorder replaces every listed function in every ``cjt`` namespace that
binds it (``matmul_p`` is imported by name into ``kemod``, ``thetasheaf``
and ``realize``, for example), so calls made inside the library are seen
too.  Each call becomes one span: id, parent id, name, start, end and the
case index.  Spans stay in memory while the cases run; ``summary`` turns
them into calls, self time and work counters per function, and ``write``
saves them as gzipped JSON lines.

Self time is a span's duration minus the durations of its direct child
spans.  Nothing is installed unless a traced pass asks for it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# layer -> public functions wrapped in a traced pass
LAYERS = {
    "gfalg": (
        "rank_p",
        "rref_p",
        "kernel_p",
        "solve_p",
        "matmul_p",
        "rank_ext",
        "kernel_basis",
        "build_field",
    ),
    "kemod": (
        "check_constant",
        "jordan_type_at",
        "projective_cover",
        "injective_hull",
        "strip_free_with_inclusion",
        "tensor",
        "dual",
        "omega",
    ),
    "thetasheaf": ("hilbert", "prefetch_image_dims", "graded_dim", "fiber"),
    "polyd": ("fit_integer_samples",),
    "chowring": ("chern_from_hilbert", "chern_from_resolution"),
    "realize": ("realize_bundle", "cone", "descend", "stable_models"),
}

# spans whose inclusive time is reported as <name>.total_s as well
TOTALS = ("thetasheaf.hilbert", "realize.realize_bundle")


def _shape(x):
    return getattr(x, "shape", None) or (0, 0)


def _cells(args, kwargs, result, had_children):
    rows, cols = _shape(args[0] if args else kwargs.get("A"))[:2]
    return rows * cols


def _madds(args, kwargs, result, had_children):
    A = args[0] if args else kwargs.get("A")
    B = args[1] if len(args) > 1 else kwargs.get("B")
    (m, k), (_, n) = _shape(A)[:2], _shape(B)[:2]
    return m * k * n


def _points(args, kwargs, result, had_children):
    # a verdict served from the module's cache made no traced calls; its
    # points were already counted when it was computed
    return getattr(result, "points_checked", None) if had_children else 0


def _out_dim(args, kwargs, result, had_children):
    return getattr(result, "n", None)


def _free_rank(args, kwargs, result, had_children):
    return result[1] if isinstance(result, tuple) and len(result) > 1 else None


def _degrees(args, kwargs, result, had_children):
    samples = getattr(result, "samples", None)
    return None if samples is None else len(samples)


def _cone_dim(args, kwargs, result, had_children):
    return getattr(getattr(result, "module", None), "n", None)


# work counters: span name -> (counter, function of (args, kwargs, result,
# had_children)).  A counter whose source a later refactor removes reads
# as None, and the metric is then reported as absent (null) instead of
# failing the run.
COUNTERS = {
    "gfalg.rank_p": ("cells", _cells),
    "gfalg.rref_p": ("cells", _cells),
    "gfalg.matmul_p": ("madds", _madds),
    "kemod.check_constant": ("points", _points),
    "kemod.omega": ("out_dim", _out_dim),
    "kemod.strip_free_with_inclusion": ("free_rank", _free_rank),
    "thetasheaf.hilbert": ("degrees", _degrees),
    "realize.cone": ("out_dim", _cone_dim),
}


def metric_units():
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for fn in names:
            q = f"{layer}.{fn}"
            units[f"{q}.calls"] = "count"
            units[f"{q}.self_s"] = "s"
            if q in TOTALS:
                units[f"{q}.total_s"] = "s"
            if q in COUNTERS:
                units[f"{q}.{COUNTERS[q][0]}"] = "count"
    units["bench.other_s"] = "s"
    units["bench.trace_overhead_ratio"] = "ratio"
    return units


class Recorder:
    """Installs span wrappers into the loaded cjt modules and records calls."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start_ns, end_ns, case)
        self.counts = {}  # (name, counter) -> total, None once absent
        self.case = -1
        self._stack = []
        self._undo = []  # (module, attribute, original)

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "cjt" or name.startswith("cjt."))
        }
        for layer, names in LAYERS.items():
            home = modules[f"cjt.{layer}"]
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        key, counter = COUNTERS.get(name, (None, None))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, self.case)
            if counter is not None:
                value = counter(args, kwargs, result, len(spans) > sid + 1)
                self._count(name, key, value)
            return result

        return wrapper

    def _count(self, name, key, value):
        prev = self.counts.get((name, key), 0)
        self.counts[(name, key)] = None if value is None or prev is None else prev + value

    def summary(self, case_seconds):
        """Per-layer metrics of this pass; case_seconds are the timed cases."""
        calls, self_ns, total_ns, child_ns = {}, {}, {}, {}
        for sid, parent, name, start, end, case in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        root_ns = 0
        for sid, parent, name, start, end, case in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns.get(sid, 0)
            total_ns[name] = total_ns.get(name, 0) + dur
            if parent < 0:
                root_ns += dur
        out = {}
        for metric in metric_units():
            q, _, key = metric.rpartition(".")
            if q == "bench":
                continue
            if key == "calls":
                out[metric] = calls.get(q, 0)
            elif key == "self_s":
                out[metric] = self_ns.get(q, 0) / 1e9
            elif key == "total_s":
                out[metric] = total_ns.get(q, 0) / 1e9
            else:
                out[metric] = self.counts.get((q, key), 0)
        out["bench.other_s"] = sum(case_seconds) - root_ns / 1e9
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start_ns", "end_ns", "case")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
