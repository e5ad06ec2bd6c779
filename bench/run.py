"""Run one workload of the abcode benchmark and print its result.

    python3 bench/run.py --workload suite --seed 160815 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in worker processes of
its own, with thread pools pinned to one thread.  With --trace 0 the result
holds the end-to-end metrics; with --trace 1 the per-layer metrics of a
separate traced run.  The line before the last is the full record (commit,
versions, op counts, the percentile behind op_tail_ms, oracle failures); the
last line is {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 when every op passed its oracle.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import spans
import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "abcode")

# set-up is measured in this many fresh processes and the median reported
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170
# Thread pools stay at one thread: the benchmark was sized on a machine
# whose two cores are shared with other work.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args, mode, started):
    left = RUN_BUDGET_S - (time.monotonic() - started)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(time.monotonic())]
    # a session of its own, so a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def end_to_end(lat_ms, pass_size, setups, peak_rss_mb):
    """The end-to-end metrics of one measured run, plus the tail's basis."""
    value, pct, beyond = stats.tail(lat_ms, pass_size)
    metrics = {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"percentile": pct, "samples": len(lat_ms),
                     "beyond": beyond}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("suite", "decode", "certify", "cli"))
    p.add_argument("--seed", type=int, default=160815)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no abcode package at {PACKAGE}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": _commit(), "src_sha256": _src_digest(),
              "python": platform.python_version(),
              "numpy": _version("numpy"), "sympy": _version("sympy"),
              "nproc": os.cpu_count(), "cpu": _cpu_model()}
    if args.trace:
        res = _worker(args, "trace", started)
        metrics = {name: {"value": res["metrics"][name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    else:
        setups = [_worker(args, "setup", started)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = _worker(args, "measure", started)
        setups.append(res["setup_s"])
        values, record["op_tail"] = end_to_end(res["lat_ms"], res["pass_size"],
                                               setups, res["peak_rss_mb"])
        record["setup_samples_s"] = setups
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    record.update(n_ops=res["attempted"], pass_size=res["pass_size"],
                  failed_frac=res["failed"] / res["attempted"],
                  failures=res["failures"])
    correct = res["failed"] == 0
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
