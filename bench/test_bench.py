"""Tests of the benchmark itself: tail choice, span arithmetic, oracles.

    python3 -m pytest bench/test_bench.py -q
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import code, gamma, orbit  # noqa: E402


# ---------- the tail percentile ----------


@pytest.mark.parametrize("n", [20, 27, 91, 92, 500, 1035, 9999, 10000, 100000])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    pct = stats.tail_percentile(n)
    assert stats.beyond(n, pct) >= 10
    assert all(stats.beyond(n, p) < 10 for p in stats.TAIL_LADDER if p > pct)


@pytest.mark.parametrize("n, pct", [
    (19, 50.0), (27, 50.0), (91, 50.0), (92, 90.0), (500, 90.0),
    (1035, 99.0), (9000, 99.0), (9999, 99.9), (100000, 99.99)])
def test_tail_percentile_of_each_pass_size(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_value_and_its_basis():
    values = list(range(100, 0, -1))        # 1..100, unsorted
    assert stats.tail(values, 100) == (pytest.approx(90.1), 90.0, 10)
    # the percentile follows the pass size, whatever the number of passes
    assert stats.tail(values, 50) == (pytest.approx(50.5), 50.0, 50)
    assert stats.tail(range(1, 13), 12) == (pytest.approx(6.5), 50.0, 6)
    assert stats.percentile([1.0, 2.0, 4.0], 50.0) == 2.0


# ---------- span arithmetic ----------


def test_self_time_subtracts_the_part_children_cover():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.child", 6.0, 7.0, 2, 0],
        ["c", 20.0, 26.0, -1, 1],
        ["c.x", 21.0, 24.0, 4, 1],
        ["c.y", 23.0, 27.0, 4, 1],     # overlaps c.x and outlives c
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0, 3.0, 4.0])


def test_unattributed_time_is_what_no_top_level_span_covers():
    tree = [
        ["x", 1.0, 4.0, -1, 0],
        ["x.inner", 2.0, 3.0, 0, 0],
        ["y", 5.0, 9.0, -1, 0],
        ["z", 12.0, 20.0, -1, 1],
        ["setup", -5.0, -1.0, -1, "setup"],
    ]
    ops = [[0, 0.0, 10.0], [1, 10.0, 20.0]]
    assert spans.unattributed_frac(tree, ops) == pytest.approx(5.0 / 20.0)


def test_tracer_wraps_every_binding_and_restores_it():
    import abcode.code
    import abcode.gamma
    originals = (abcode.gamma.build_gamma, abcode.code.restricted_reps,
                 abcode.code.AbelianCode.__init__)
    D = orbit.from_orbit_reps(orbit.Ambient(2, (3, 7)), ((0, 3), (1, 1), (1, 3)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        c = code.AbelianCode(D)
        cs = gamma.build_gamma(D)
        assert code.verify_check_positions(c, cs).ok
    finally:
        tracer.uninstall()
    assert (abcode.gamma.build_gamma, abcode.code.restricted_reps,
            abcode.code.AbelianCode.__init__) == originals
    names = [s[0] for s in tracer.spans]
    # restricted_reps runs once inside AbelianCode and once inside build_gamma
    assert names.count("orbit.restricted_reps") == 2
    parents = {tracer.spans[i][0] for i, s in enumerate(tracer.spans)
               if any(t[3] == i for t in tracer.spans)}
    assert {"code.init", "gamma.build", "code.verify"} <= parents
    assert tracer.counts["gf.subfield_coords_calls"] > 0


# ---------- oracles reject corrupted outputs ----------


def test_decode_oracle_rejects_a_flipped_bit():
    sent = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
    assert workloads.decode_failure(sent, 2, sent.copy()) is None
    bad = sent.copy()
    bad[4] ^= 1
    assert workloads.decode_failure(sent, 2, bad) is not None
    assert workloads.decode_failure(sent, 1, None) is not None
    assert workloads.decode_failure(sent, 3, None) is None
    assert workloads.decode_failure(sent, 3, sent.copy()) is not None


def test_certify_oracle_rejects_a_wrong_distance_and_a_non_codeword():
    D = orbit.from_orbit_reps(orbit.Ambient(2, (3, 7)), ((0, 3), (1, 1), (1, 3)))
    c = code.AbelianCode(D)
    res = code.min_distance(c)
    assert workloads.distance_failure(c, 7, res) is None
    assert workloads.distance_failure(c, 6, res) is not None
    wit = res.witness.copy()
    one, zero = int(np.flatnonzero(wit)[0]), int(np.flatnonzero(wit == 0)[0])
    wit[one], wit[zero] = 0, 1           # same weight, no longer a codeword
    moved = code.DistanceResult(7, 7, wit, res.method, res.evaluations)
    assert workloads.distance_failure(c, 7, moved) is not None


def test_cli_oracle_rejects_a_changed_byte():
    golden = {"exit": 0, "stdout": "verdict: pass\n"}
    assert workloads.cli_failure(golden, 0, b"verdict: pass\n") is None
    assert workloads.cli_failure(golden, 0, b"verdict: pasS\n") is not None
    assert workloads.cli_failure(golden, 1, b"verdict: pass\n") is not None


def test_suite_oracle_rejects_a_wrong_rank():
    case = workloads.suite_cases(160815, count=1)[0]
    out = workloads.suite_op(case)
    assert workloads.suite_failure(case, out) is None
    ok, positions, alt, rank = out
    assert workloads.suite_failure(case, (ok, positions, alt, rank + 1)) is not None


def test_cli_goldens_cover_every_call():
    goldens = workloads.load_goldens()
    assert set(goldens) == {name for name, _ in workloads.CLI_CALLS}
    for name, argv in workloads.CLI_CALLS:
        assert goldens[name]["argv"] == argv


# ---------- the runner ----------


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
