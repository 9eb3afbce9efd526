"""Per-layer spans for the traced benchmark run.

The tracer wraps the public entry points of each ``thetacycles`` module from
outside: every module namespace that bound the original object gets the
wrapper, so calls through ``from .x import f`` are seen too.  Per-weight
helpers such as ``RootSystem.dominant_representative`` are left alone; they
run hundreds of thousands of times per sweep and would swamp the timings.

Spans live in memory as ``(span_id, parent_id, job_id, name, start, end)``
and are reduced to per-name call counts and self times when a pass ends.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# module -> entry points; "Class.method" names are patched on the class
SPANS = {
    "lierep": [
        "RootSystem.dominant_weights_below", "RootSystem.freudenthal_dominant",
        "RootSystem.orbit_size", "RootSystem.weyl_dim", "root_system",
        "is_wmf", "fs_type", "enumerate_dominant_weights", "decompose", "char_tensor",
        "classify_wmf", "quasi_minuscule_dim_search", "freudenthal_character",
    ],
    "symfun": ["schur_to_powersum"],
    "lambdaring": ["gr_multiply", "gr_adams", "schur_apply"],
    "chow": ["pontryagin", "pushforward_n"],
    "cycles": ["convolve", "schur_cycle", "adams_push", "CleanCycleModel.from_json"],
    "schottky": [
        "cc_odp", "theta_group", "genus5_obstruction", "fake_jacobian_solve",
        "simplicity_criteria", "s_sets_from_classification",
    ],
    "cli": ["build_parser", "_load_json", "_emit"],
}

# span names as reported: the CLI stages get stage names
CLI_STAGES = {"build_parser": "cli.parse", "_load_json": "cli.load", "_emit": "cli.serialize"}

MODULES = ("lierep", "symfun", "lambdaring", "chow", "cycles", "schottky", "cli")

# every counter the tracer records; one a workload never touches reads 0
COUNTERS = (
    "lierep.dominant_weights_below.closure_size", "lierep.dominant_weights_below.memo_hits",
    "lierep.freudenthal_dominant.memo_hits", "lierep.root_system.misses",
    "symfun.schur_to_powersum.terms", "symfun.mn_character.hits",
    "symfun.mn_character.misses", "lambdaring.gr_multiply.pairs",
    "lambdaring.gr_multiply.terms_out", "lambdaring.schur_apply.terms_out",
    "cli.in_bytes", "cli.out_bytes",
)


def span_names() -> list[str]:
    """Reported span names, in SPANS order."""
    names = []
    for module, entries in SPANS.items():
        for entry in entries:
            attr = entry.rpartition(".")[2]
            names.append(CLI_STAGES.get(attr, f"{module}.{attr}"))
    return names


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job: str | None = None

    def run_job(self, job_id: str, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self._job = job_id
        try:
            return self._timed("job", fn, args, {})
        finally:
            self._job = None

    def _timed(self, name, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children sort after it
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self._job, name, start, end)

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            result = self._timed(name, fn, args, kwargs)
            if after:
                after(args, result, state)
            return result

        return wrapper

    def summary(self) -> dict:
        """name -> {"calls", "self_s"}, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for span_id, _, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[span_id]
        return {"spans": out, "counts": dict(self.counts)}


def _replace_everywhere(original, wrapper):
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("thetacycles"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def install(tracer: Tracer):
    """Patch every entry point in SPANS with a span-recording wrapper."""
    import thetacycles.lierep as lierep

    counts = tracer.counts
    hooks = {}

    def memo(table_attr, metric, size_metric=None):
        def before(args):
            return len(getattr(args[0], table_attr))

        def after(args, result, size_before):
            if len(getattr(args[0], table_attr)) == size_before:
                counts[metric] += 1
            elif size_metric:
                counts[size_metric] += len(result)

        return before, after

    hooks["lierep.dominant_weights_below"] = memo(
        "_dominant_below_cache", "lierep.dominant_weights_below.memo_hits",
        "lierep.dominant_weights_below.closure_size")
    hooks["lierep.freudenthal_dominant"] = memo(
        "_freudenthal_cache", "lierep.freudenthal_dominant.memo_hits")

    def rs_before(args):
        return len(lierep._ROOT_SYSTEM_CACHE)

    def rs_after(args, result, size_before):
        counts["lierep.root_system.misses"] += len(lierep._ROOT_SYSTEM_CACHE) - size_before

    hooks["lierep.root_system"] = (rs_before, rs_after)

    def count_after(metric, measure):
        def after(args, result, state):
            counts[metric] += measure(args, result)

        return None, after

    hooks["symfun.schur_to_powersum"] = count_after(
        "symfun.schur_to_powersum.terms", lambda a, r: len(r.terms))
    hooks["lambdaring.schur_apply"] = count_after(
        "lambdaring.schur_apply.terms_out", lambda a, r: len(r.coeffs))

    def gr_after(args, result, state):
        counts["lambdaring.gr_multiply.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
        counts["lambdaring.gr_multiply.terms_out"] += len(result.coeffs)

    hooks["lambdaring.gr_multiply"] = (None, gr_after)

    def load_before(args):
        try:
            counts["cli.in_bytes"] += os.path.getsize(args[0])
        except OSError:
            pass

    hooks["cli.load"] = (load_before, None)

    for module_name, entries in SPANS.items():
        module = sys.modules[f"thetacycles.{module_name}"]
        for entry in entries:
            cls_name, _, attr = entry.rpartition(".")
            owner = getattr(module, cls_name) if cls_name else module
            name = CLI_STAGES[attr] if module_name == "cli" else f"{module_name}.{attr}"
            if name == "cycles.from_json":
                original = vars(owner)[attr].__func__
                wrapper = tracer.wrap(name, original)
                setattr(owner, attr, classmethod(wrapper))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, *hooks.get(name, (None, None)))
            if attr == "build_parser":
                wrapper = _wrap_parse_args(tracer, wrapper)
            if cls_name:
                setattr(owner, attr, wrapper)
            else:
                _replace_everywhere(original, wrapper)


def _wrap_parse_args(tracer: Tracer, build_parser):
    """cli.parse covers the parser build and the parse of argv."""

    @functools.wraps(build_parser)
    def wrapper(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    return wrapper
