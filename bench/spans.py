"""Span recorder for the traced benchmark run.

The package has no tracer of its own yet, so spans are recorded from
outside it: `Tracer.install` replaces the layers' public functions (and a
few private distance engines) with wrappers, wherever the package binds
them.  A function imported with `from .x import y` is bound in several
modules, so every `abcode.*` module attribute that is the same object is
replaced, and methods are replaced on their class.

Each span is `[name, start, end, parent, op]`; `parent` is the index of the
enclosing span or -1, and `op` is the op the span belongs to ("setup" before
the first op).  Spans stay in memory until `dump`.  Functions called more
often than about 10^4 times per run are counted, not timed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter

# (span name, home module, owner class or None, attribute)
TIMED = (
    ("gf.build_context", "abcode.gf", None, "build_context"),
    ("gf.scalar_tables", "abcode.gf", "ScalarField", "tables"),
    ("orbit.restricted_reps", "abcode.orbit", None, "restricted_reps"),
    ("gamma.build", "abcode.gamma", None, "build_gamma"),
    ("code.init", "abcode.code", "AbelianCode", "__init__"),
    ("code.check_tensor", "abcode.code", None, "check_tensor"),
    ("code.verify", "abcode.code", None, "verify_check_positions"),
    ("code.generator", "abcode.code", None, "generator_matrix"),
    ("code.rank", "abcode.code", "MatrixGF", "rank"),
    ("code.std_parity", "abcode.code", None, "standard_form_parity"),
    ("code.min_distance", "abcode.code", None, "min_distance"),
    ("code.mindist_gray", "abcode.code", None, "_gray_min"),
    ("code.mindist_bz", "abcode.code", None, "_bz_min"),
    ("code.mindist_bz", "abcode.code", None, "_bz_min_generic"),
    ("code.mindist_full", "abcode.code", None, "_full_min"),
    ("code.low_weight", "abcode.code", None, "find_low_weight_codeword"),
    ("crt.transport", "abcode.crt", "CrtMap", "transport_defining_set"),
    ("crt.pullback", "abcode.crt", "CrtMap", "pullback_positions"),
    ("permdec.decode", "abcode.permdec", None, "permutation_decode"),
    ("permdec.pdset", "abcode.permdec", None, "is_pd_set"),
    ("permdec.lambda_enum", "abcode.permdec", None, "enumerate_lambda"),
    ("permdec.lambda_enum", "abcode.permdec", None, "translation_subgroup"),
    ("permdec.search", "abcode.permdec", None, "design_search"),
)

# (counter name, home module, owner class or None, attribute)
COUNTED = (
    ("gf.subfield_coords_calls", "abcode.gf", None, "subfield_coords"),
    ("permdec.perm_builds", "abcode.permdec", "LambdaElem", "as_permutation"),
)

CLI_SUBCOMMANDS = ("orbits", "infoset", "verify", "mindist", "pdset",
                   "decode", "search")

# (metric, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("gf.build_context_s", "s", "lower"),
    ("gf.contexts_built", "count", "lower"),
    ("gf.scalar_tables_s", "s", "lower"),
    ("gf.subfield_coords_calls", "count", "lower"),
    ("orbit.restricted_reps_s", "s", "lower"),
    ("orbit.restricted_reps_calls", "count", "lower"),
    ("gamma.build_s", "s", "lower"),
    ("gamma.builds", "count", "lower"),
    ("code.init_s", "s", "lower"),
    ("code.check_tensor_s", "s", "lower"),
    ("code.verify_s", "s", "lower"),
    ("code.generator_s", "s", "lower"),
    ("code.rank_s", "s", "lower"),
    ("code.std_parity_s", "s", "lower"),
    ("code.min_distance_s", "s", "lower"),
    ("code.mindist_gray_s", "s", "lower"),
    ("code.mindist_bz_s", "s", "lower"),
    ("code.mindist_full_s", "s", "lower"),
    ("code.mindist_evals", "count", "lower"),
    ("code.low_weight_s", "s", "lower"),
    ("crt.transport_s", "s", "lower"),
    ("crt.pullback_s", "s", "lower"),
    ("permdec.decode_s", "s", "lower"),
    ("permdec.perm_builds", "count", "lower"),
    ("permdec.decoded_ratio_w1", "ratio", "higher"),
    ("permdec.decoded_ratio_w2", "ratio", "higher"),
    ("permdec.decoded_ratio_w3", "ratio", "lower"),
    ("permdec.pdset_s", "s", "lower"),
    ("permdec.pdset_calls", "count", "lower"),
    ("permdec.lambda_enum_s", "s", "lower"),
    ("permdec.search_s", "s", "lower"),
    ("permdec.search_unions", "count", "lower"),
    ("permdec.search_hit_ratio", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
) + tuple((f"cli.main_{sub}_s", "s", "lower") for sub in CLI_SUBCOMMANDS) + (
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)

# span name -> counter of how many such spans ran
CALL_COUNTS = {
    "orbit.restricted_reps": "orbit.restricted_reps_calls",
    "gamma.build": "gamma.builds",
    "permdec.pdset": "permdec.pdset_calls",
}


def _resolve(module, owner):
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner else mod


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = []          # [op, start, end] of each timed op
        self.counts = Counter()
        self.op = "setup"
        self._stack = []
        self._patches = []     # (owner object, attribute, original)

    # ---- recording ----

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _timed(self, name, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_misses(self, build_context):
        """build_context, counting the calls that built a new field."""
        @functools.wraps(build_context)
        def wrapper(*args, **kwargs):
            before = build_context.cache_info().currsize
            result = build_context(*args, **kwargs)
            if build_context.cache_info().currsize > before:
                self.counts["gf.contexts_built"] += 1
            return result
        return wrapper

    def _on_min_distance(self, result):
        self.counts["code.mindist_evals"] += result.evaluations

    def _on_search(self, hits):
        self.counts["permdec.search_hits"] += len(hits)

    # ---- installing the wrappers ----

    def _replace(self, module, owner, attr, wrapper):
        if owner:
            cls = _resolve(module, owner)
            self._patches.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
            return
        original = getattr(_resolve(module, None), attr)
        for name, mod in list(sys.modules.items()):
            if (name == "abcode" or name.startswith("abcode.")) \
                    and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every site that exists; a site a later version removed is skipped."""
        hooks = {"min_distance": self._on_min_distance,
                 "design_search": self._on_search}
        for name, module, owner, attr in TIMED:
            home = _resolve(module, owner)
            if hasattr(home, attr):
                fn = getattr(home, attr)
                if attr == "build_context":
                    fn = self._counting_misses(fn)
                self._replace(module, owner, attr,
                              self._timed(name, fn, hooks.get(attr)))
        for name, module, owner, attr in COUNTED:
            home = _resolve(module, owner)
            if hasattr(home, attr):
                self._replace(module, owner, attr,
                              self._counted(name, getattr(home, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- output ----

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "ops": self.ops, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


# ---- arithmetic on recorded spans ----


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    return [(end - start) - _covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def unattributed_frac(spans, ops):
    """Share of the timed ops' wall time that no top-level span covers."""
    top = {}
    for name, start, end, parent, op in spans:
        if parent < 0:
            top.setdefault(op, []).append((start, end))
    wall = sum(end - start for _, start, end in ops)
    covered = sum(_covered(top.get(op, ()), start, end) for op, start, end in ops)
    return (wall - covered) / wall if wall > 0 else 0.0


def _inside(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, extra):
    """Every PER_LAYER metric from a tracer's spans and counters.

    `extra` supplies the values measured by the workload itself (decode
    ratios, CLI import time, tracing overhead).  A layer the workload never
    reaches reads 0.
    """
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for rec, self_s in zip(tracer.spans, self_times(tracer.spans)):
        key = rec[0] + "_s"
        if key.startswith("cli.main_"):
            values[key] += rec[2] - rec[1]   # a whole CLI call, children included
        elif key in values:
            values[key] += self_s
        if rec[0] in CALL_COUNTS:
            values[CALL_COUNTS[rec[0]]] += 1
    for name in ("gf.contexts_built", "gf.subfield_coords_calls",
                 "permdec.perm_builds", "code.mindist_evals"):
        values[name] = tracer.counts[name]
    unions = sum(1 for i, rec in enumerate(tracer.spans)
                 if rec[0] == "code.init" and _inside(tracer.spans, i, "permdec.search"))
    values["permdec.search_unions"] = unions
    if unions:
        values["permdec.search_hit_ratio"] = tracer.counts["permdec.search_hits"] / unions
    values["trace.unattributed_frac"] = unattributed_frac(tracer.spans, tracer.ops)
    values.update(extra)
    return values
