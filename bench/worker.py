"""One workload in one process, started by run.py.

Modes:
  setup    build the inputs and warm up, then report the set-up time;
  measure  the same, then run ops in a closed loop, in whole passes over the
           inputs, until --seconds have passed, and report every op's
           latency and every oracle failure;
  trace    build traced, run one pass untraced, the same pass traced and
           again untraced, and report the per-layer metrics.

The last stdout line is one JSON object.  Set-up time runs from
--spawned-at, the parent's time.monotonic() just before it started this
interpreter, to the start of the first timed op.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads
from run import BENCH_DIR, ROOT, child_env


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB


def _call(fn):
    try:
        return fn(), None
    except Exception as exc:        # an op that raises is a failed op
        return None, f"{type(exc).__name__}: {exc}"


def measure(wl, seconds, spawned_at):
    lat_ms, failures = [], []
    setup_s = deadline = None
    for i, (label, fn) in enumerate(wl.ops()):
        t0 = time.perf_counter()
        if setup_s is None:
            setup_s = time.monotonic() - spawned_at
            deadline = t0 + seconds
        out, err = _call(fn)
        t1 = time.perf_counter()
        lat_ms.append((t1 - t0) * 1e3)
        err = err or wl.check(label, out)
        if err:
            failures.append(err)
        if t1 >= deadline and (i + 1) % wl.pass_size == 0:
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {"setup_s": setup_s, "lat_ms": lat_ms, "attempted": len(lat_ms),
            "failed": len(failures), "failures": failures[:5],
            "peak_rss_mb": _peak_rss_mb(who), "pass_size": wl.pass_size}


def _one_pass(wl, tracer=None):
    """Wall time of one pass; with a tracer, each op is recorded."""
    wall, failures = 0.0, []
    for i, (label, fn) in enumerate(itertools.islice(wl.ops(), wl.pass_size)):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        if tracer is not None and wl.name == "cli":
            with tracer.span(f"cli.main_{label[1]}"):
                out, err = _call(fn)
        else:
            out, err = _call(fn)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.ops.append([i, t0, t1])
        wall += t1 - t0
        err = err or wl.check(label, out)
        if err:
            failures.append(err)
    return wall, failures


def _cli_import_s(repeats=5):
    """Median `import abcode.cli` in a fresh interpreter, minus a bare start."""
    def run(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                       check=True, timeout=60)
        return time.perf_counter() - t0
    bare, full = [], []
    for _ in range(repeats):
        bare.append(run("pass"))
        full.append(run("import abcode.cli"))
    return statistics.median(full) - statistics.median(bare)


def traced(wl_cls, seed):
    tracer = spans.Tracer()
    tracer.install()
    if wl_cls is workloads.Cli:
        wl = wl_cls(seed, in_process=True)
    else:
        wl = wl_cls(seed)
    wl.warm_up()
    tracer.uninstall()
    # untraced passes on both sides of the traced one, so drift between
    # passes does not read as tracing overhead
    before, failures = _one_pass(wl)
    tracer.install()
    traced_wall, traced_failures = _one_pass(wl, tracer)
    tracer.uninstall()
    after, after_failures = _one_pass(wl)
    failures += traced_failures + after_failures

    extra = {"trace.overhead_frac": 2 * traced_wall / (before + after) - 1.0}
    if wl_cls is workloads.Decode:
        for w, (attempted, decoded) in wl.by_weight.items():
            if attempted:
                extra[f"permdec.decoded_ratio_w{w}"] = decoded / attempted
    if wl_cls is workloads.Cli:
        extra["cli.import_s"] = _cli_import_s()
    metrics = spans.layer_metrics(tracer, extra)

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{wl_cls.name}-seed{seed}.json"),
                {"workload": wl_cls.name, "seed": seed, "pass_size": wl.pass_size})
    return {"metrics": metrics, "attempted": 3 * wl.pass_size,
            "failed": len(failures), "failures": failures[:5],
            "pass_size": wl.pass_size}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)
    if not os.path.abspath(workloads.code.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"abcode imported from {workloads.code.__file__}, not from this checkout")
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.mode == "trace":
        result = traced(wl_cls, args.seed)
    else:
        wl = wl_cls(args.seed)
        wl.warm_up()
        if args.mode == "setup":
            result = {"setup_s": time.monotonic() - args.spawned_at}
        else:
            result = measure(wl, args.seconds, args.spawned_at)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
