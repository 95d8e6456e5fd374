"""An external tracer for reesgor: spans around each layer's public
functions, installed from outside the program and removed afterwards.

Each module binds its imports by name (`from .polyhedra import
closure_power`), so a wrapper is rebound in every reesgor namespace
that holds the original function, not only in its home module. Names
read at call time through their module (the function-local
`from .cone import ...` in analysis, `minimalize` inside
MonomialIdeal.__post_init__) pick the wrapper up the same way. The
ideal operations are dunder methods and are patched on the class.

Spans are kept in memory, one record per call, and written out when
the run ends. The span stack is per thread, because `--corpus` runs
its cases on pool threads; every span also carries the id of the job
that was running, so spans of one job can be grouped across threads.
A span's self time is its duration minus the time covered by its
child spans (children on one thread run one after another, so that
is the sum of their durations).
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from workloads import box_points

LAYERS = ("ideals", "polyhedra", "cone", "analysis", "report", "cli", "oracle")

# Public helpers called so often, and doing so little per call, that a
# span around each call would cost more than the work it measures.
# Their time counts as self time of the calling function.
UNWRAPPED = frozenset({"ideals.leq", "ideals.variable_names"})

# MonomialIdeal operations and the names their spans carry.
IDEAL_METHODS = {
    "__mul__": "mul",
    "__pow__": "pow",
    "colon": "colon",
    "__and__": "and",
    "is_subset": "is_subset",
}


# Sizes of the work a call did, read off its arguments and result.
# The box sizes are computed from the returned search and sweep boxes
# (the canonical-module scan enumerates both, the Gorenstein route-1
# scan the search box, and stops early on a witness).
COUNTERS: Dict[str, Callable] = {
    "ideals.minimalize": lambda args, result: {
        "vectors_in": len(args[0]),
        "vectors_kept": len(result),
    },
    "polyhedra.extreme_rays": lambda args, result: {"rays_out": len(result)},
    "polyhedra.closure_power": lambda args, result: {
        "gens_out": len(result.gens)
    },
    "cone.canonical_generators": lambda args, result: {
        "box_points": box_points(result.search_box)
        + box_points(result.sweep_box)
    },
    "cone.is_gorenstein_normalization": lambda args, result: {
        "box_points": box_points(result[1].search_box)
    },
}

# Fields of a span record, in order.
FIELDS = (
    "id", "parent", "job", "thread", "name", "layer",
    "start", "end", "self_s", "escaped", "counts",
)


class Tracer:
    """Wraps the layer functions of a loaded reesgor package.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding. `job` is set by the caller before
    each job and stamped on every span recorded while it runs.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: List[tuple] = []
        self.job: Optional[int] = None
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore: List[Tuple[object, str, object]] = []

    # -------------------------------------------------------------- #
    # spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper recording one span per call of fn under `name`
        (`<layer>.<function>`)."""
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        materialize = name == "ideals.minimalize"
        tracer = self

        def traced(*args, **kwargs):
            if materialize and args and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, layer, next(tracer._ids)]
            stack.append(frame)
            escaped = False
            result = None
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                escaped = parent is None or parent[1] != layer
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                counts = None
                if counter is not None and result is not None:
                    counts = counter(args, result)
                tracer.spans.append(
                    (
                        frame[2],
                        None if parent is None else parent[2],
                        tracer.job,
                        threading.get_ident(),
                        name,
                        layer,
                        start,
                        end,
                        duration - frame[0],
                        escaped,
                        counts,
                    )
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -------------------------------------------------------------- #
    # installation

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "reesgor" or key.startswith("reesgor."))
        ]
        try:
            for layer in LAYERS:
                home = sys.modules[f"reesgor.{layer}"]
                for attr, fn in sorted(vars(home).items()):
                    name = f"{layer}.{attr}"
                    if (
                        attr.startswith("_")
                        or name in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != home.__name__
                    ):
                        continue
                    wrapper = self.wrap(name, fn)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                self._patch(module, key, wrapper)
            ideal_cls = sys.modules["reesgor.ideals"].MonomialIdeal
            for attr, short in IDEAL_METHODS.items():
                fn = ideal_cls.__dict__[attr]
                self._patch(ideal_cls, attr, self.wrap(f"ideals.{short}", fn))
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def patched_names(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) for every binding replaced."""
        return list(self._restore)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = dict(zip(FIELDS, span))
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# ------------------------------------------------------------------ #
# per-layer metrics


def _function_metrics() -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    stats = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))

    def timed(layer, names):
        for fn in names:
            out.extend((f"{layer}.{fn}.{stat}", unit) for stat, unit in stats)

    timed("ideals", ("minimalize", "mul", "pow", "colon", "and", "is_subset"))
    out += [
        ("ideals.minimalize.vectors_in", "count"),
        ("ideals.minimalize.vectors_kept", "count"),
        ("ideals.minimalize.keep_ratio", "ratio"),
    ]
    timed("polyhedra", ("newton_polyhedron", "extreme_rays", "closure_power"))
    out += [
        ("polyhedra.extreme_rays.rays_out", "count"),
        ("polyhedra.closure_power.gens_out", "count"),
    ]
    timed("cone", ("lift_halfspaces", "canonical_generators",
                   "is_gorenstein_normalization"))
    out += [
        ("cone.canonical_generators.box_points", "points_computed"),
        ("cone.is_gorenstein_normalization.box_points", "points_computed"),
    ]
    timed("analysis", (
        "is_monomial_reduction", "reduction_number",
        "find_pure_power_reduction", "quasi_gorenstein_test",
        "cohen_macaulay_test", "core_compute", "conductor_exponent",
        "closure_nilpotency_index", "a_invariant_consistency",
    ))
    for fn in (
        "facet_section", "closure_section", "cone_section",
        "gorenstein_section", "qgor_section", "cm_section", "core_section",
        "consistency_section", "invariants_section", "to_json", "load_job",
    ):
        out.append((f"report.{fn}.total_s", "s"))
    out += [
        ("cli.corpus_case.calls", "count"),
        ("cli.corpus_case.total_s", "s"),
        ("cli.corpus_case.concurrency", "ratio"),
    ]
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.raised", "count")]
    out += [("trace.overhead_frac", "ratio"), ("trace.unattributed_s", "s")]
    return out


# (name, unit) of every per-layer metric a traced run reports.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = tuple(_function_metrics())


def summarize(
    spans: Sequence[tuple],
    job_walls: Dict[int, float],
    main_thread: int,
    overhead_frac: float,
) -> Dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    `job_walls` maps each job id to its wall time as the client saw
    it; the part of it not covered by a top-level span on the client
    thread is reported as `trace.unattributed_s`.
    """
    values: Dict[str, float] = {name: 0 for name, _ in PER_LAYER_METRICS}
    case_time: float = 0.0
    top_level: float = 0.0
    for span in spans:
        (_, parent, job, thread, name, layer, start, end,
         self_s, escaped, counts) = span
        duration = end - start
        for stat, value in (("calls", 1), ("self_s", self_s),
                            ("total_s", duration)):
            key = f"{name}.{stat}"
            if key in values:
                values[key] += value
        values[f"{layer}.self_s"] += self_s
        values[f"{layer}.raised"] += escaped
        for counter, value in (counts or {}).items():
            key = f"{name}.{counter}"
            if key in values:
                values[key] += value
        if name == "cli.corpus_case":
            case_time += duration
        if parent is None and thread == main_thread and job in job_walls:
            top_level += duration
    kept = values["ideals.minimalize.vectors_kept"]
    given = values["ideals.minimalize.vectors_in"]
    values["ideals.minimalize.keep_ratio"] = kept / given if given else 0.0
    wall = sum(job_walls.values())
    values["cli.corpus_case.concurrency"] = case_time / wall if wall else 0.0
    values["trace.unattributed_s"] = wall - top_level
    values["trace.overhead_frac"] = overhead_frac
    return values
