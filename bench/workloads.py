"""The four benchmark workloads: inputs made from a seed, ops, and oracles.

A workload is built (its set-up), warmed up, and then yields ops forever as
`(label, thunk)` pairs; the runner times each thunk and passes its output to
`check`, which returns None for a correct output or a one-line reason.
`pass_size` ops make one pass over the workload's inputs.  Every call into
the package goes through a module attribute (`code.min_distance`, not a
name imported from it), so the traced run's wrappers see it.

The oracles are module functions so the benchmark's own tests can feed them
corrupted outputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import abcode.cli as cli
import abcode.code as code
import abcode.gamma as gamma
import abcode.gf as gf
import abcode.orbit as orbit
import abcode.permdec as permdec
from run import BENCH_DIR, ROOT, child_env

GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
# bound before any tracer wraps build_context
clear_field_cache = gf.build_context.cache_clear


def _mult_order(q: int, r: int) -> int:
    k, x = 1, q % r
    while x != 1:
        x = (x * q) % r
        k += 1
    return k


# ---------- suite: the criterion-06/07 pipeline on random codes ----------


SUITE_SEED = 160815


@dataclass
class SuiteCase:
    D: orbit.DefiningSet
    ordering: tuple
    rep_seeds: tuple = (1, 2)


def suite_cases(seed: int, count: int = 500):
    """Criterion 06's generator: q in {2,3,4}, n <= 3, prod(r) <= 128.

    With SUITE_SEED these are exactly the acceptance suite's codes, whose
    representative choices are seeded with 1 and 2.
    """
    rng = random.Random(seed)
    seen = set()
    cases = []
    while len(cases) < count:
        q = rng.choice((2, 3, 4))
        n = rng.randint(1, 3)
        r = []
        for _ in range(n):
            while True:
                ri = rng.randint(1, 40)
                if math.gcd(ri, q) == 1 and math.prod(r) * ri <= 128:
                    r.append(ri)
                    break
        r = tuple(r)
        need = 1
        for ri in r:
            if ri > 1:
                need = math.lcm(need, _mult_order(q, ri))
        if q**need > 1 << 62:          # the 64-bit field policy
            continue
        amb = orbit.Ambient(q, r)
        members = frozenset(
            m for orb in orbit.orbits(amb) if rng.random() < 0.5 for m in orb)
        ordering = tuple(rng.sample(range(n), n))
        key = (q, r, members, ordering)
        if key in seen:
            continue
        seen.add(key)
        cases.append(SuiteCase(orbit.DefiningSet(amb, members), ordering))
    return cases


def suite_op(case):
    D, ordering = case.D, case.ordering
    c = code.AbelianCode(D)
    cs = gamma.build_gamma(D, ordering=ordering)
    alt = [gamma.build_gamma(D, ordering=ordering, rng=random.Random(s))
           for s in case.rep_seeds]
    res = code.verify_check_positions(c, cs)
    rank = code.generator_matrix(c).rank()
    return res.ok, cs.positions, [a.positions for a in alt], rank


def suite_failure(case, out):
    ok, positions, alt_positions, rank = out
    D = case.D
    if not ok:
        return "verify_check_positions rejected the check set"
    if len(positions) != len(D):
        return f"|check set| = {len(positions)} != |D| = {len(D)}"
    if any(p != positions for p in alt_positions):
        return "check set changed under a seeded representative choice"
    k = D.ambient.length - len(D)
    if rank != k:
        return f"generator rank {rank} != dimension {k}"
    return None


class Suite:
    """The acceptance suite's 500 codes, visited in an order set by the seed.

    The seed also seeds each code's two representative choices.  The codes
    themselves do not change with the seed: 500 codes drawn afresh per seed
    moved the median op time by about 15% from seed to seed, more than any
    bound the benchmark can hold, so the seed would decide a verdict.
    """

    name = "suite"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.cases = suite_cases(SUITE_SEED)
        rng.shuffle(self.cases)
        for case in self.cases:
            case.rep_seeds = (rng.getrandbits(32), rng.getrandbits(32))
        self.pass_size = len(self.cases)

    def warm_up(self):
        suite_op(self.cases[0])

    def ops(self):
        for i in itertools.count():
            case = self.cases[i % self.pass_size]
            if i % self.pass_size == 0:
                # every pass pays field construction, as one library user does
                clear_field_cache()
            yield case, (lambda case=case: suite_op(case))

    @staticmethod
    def check(case, out):
        return suite_failure(case, out)


# ---------- decode: permutation decoding on the criterion-11 code ----------

C7_REPS = ((0, 3), (0, 7), (1, 0), (1, 11))
C8_REPS = ((0, 0), (1, 3), (1, 7), (1, 11))
WEIGHT3_SHARE = 0.1


def decode_failure(sent, weight, out):
    if weight >= 3:
        return None if out is None else \
            f"weight-{weight} word decoded although no codeword is within 2"
    if out is None:
        return f"weight-{weight} word came back undecoded"
    if not np.array_equal(np.asarray(out), sent):
        return f"weight-{weight} word decoded to the wrong codeword"
    return None


class Decode:
    name = "decode"

    def __init__(self, seed):
        self.seed = seed
        amb = orbit.Ambient(2, (3, 15))
        D = orbit.from_orbit_reps(amb, C7_REPS)
        self.code = code.AbelianCode(D)
        cs = gamma.build_gamma(D)
        self.H_std, _ = code.standard_form_parity(self.code, cs)
        self.pd = permdec.PDSet(permdec.translation_subgroup(amb), 2,
                                cs.complement())
        self.G = code.generator_matrix(self.code).data.astype(np.int64)
        l = amb.length
        self.patterns = [(j,) for j in range(l)] + \
            list(itertools.combinations(range(l), 2))
        self.pass_size = len(self.patterns)     # one codeword
        self.by_weight = {w: [0, 0] for w in (1, 2, 3)}  # attempted, decoded

    def _decode(self, y):
        return permdec.permutation_decode(self.code, self.H_std, self.pd, y, 2)

    def warm_up(self):
        self._decode(np.zeros(self.code.length, dtype=np.uint8))

    def ops(self):
        rng = random.Random(self.seed)
        k, l = self.G.shape
        while True:
            coeffs = np.array([rng.randrange(2) for _ in range(k)])
            sent = ((coeffs @ self.G) % 2).astype(np.uint8)
            order = list(range(len(self.patterns)))
            rng.shuffle(order)
            for idx in order:
                pat = self.patterns[idx]
                if rng.random() < WEIGHT3_SHARE:
                    pat = tuple(rng.sample(range(l), 3))
                y = sent.copy()
                y[list(pat)] ^= 1
                yield (sent, len(pat)), (lambda y=y: self._decode(y))

    def check(self, label, out):
        sent, weight = label
        tally = self.by_weight[weight]
        tally[0] += 1
        tally[1] += out is not None
        return decode_failure(sent, weight, out)


# ---------- certify: distance and PD-set certificates ----------

SIX_PAIRS_45 = (
    ((1, 2), (1, 6)), ((1, 1), (1, 6)), ((1, 2), (1, 3)),
    ((1, 1), (1, 3)), ((1, 0), (1, 2)), ((1, 0), (1, 1)))

# (q, r, orbit reps, min_distance method, pinned d, PD group, PD errors);
# every pinned PD verdict is "is a PD-set".
CERTIFY_CODES = tuple(
    (2, (5, 9), reps, "gray", 5, "lambda", 2) for reps in SIX_PAIRS_45
) + (
    (2, (3, 15), C7_REPS, "auto", 6, "translations", 2),
    (2, (3, 15), C8_REPS, "auto", 6, "lambda", 2),
) + tuple(
    (2, (5, 13), ((0, 0), (0, 1), (1, x)), "bz", 8, "lambda", 3)
    for x in (1, 2, 4, 7)
) + (
    (4, (5, 7), ((0, 0), (1, 0), (1, 3), (2, 1), (2, 3)), "auto", 10, None, None),
    (3, (5, 8), ((0, 0), (1, 1), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)),
     "auto", 10, None, None),
    (3, (4, 5), ((0, 0), (0, 1), (1, 0), (2, 0)), "auto", 4, None, None),
)


def distance_failure(c, d, res):
    if not res.is_exact or res.upper != d:
        return f"distance [{res.lower},{res.upper}], pinned {d}"
    wit = res.witness
    if wit is None:
        return "no witness codeword"
    if int(np.count_nonzero(wit)) != d:
        return f"witness weight {int(np.count_nonzero(wit))} != {d}"
    if not code.contains(c, wit):
        return "witness is not a codeword"
    return None


def pd_failure(res):
    return None if res.ok else f"PD-set check failed, uncovered {res.witness}"


class Certify:
    name = "certify"

    def __init__(self, seed):
        groups = {}
        self.items = []
        for q, r, reps, method, d, group, s in CERTIFY_CODES:
            amb = orbit.Ambient(q, r)
            D = orbit.from_orbit_reps(amb, reps)
            c = code.AbelianCode(D)
            self.items.append(("mindist", c, method, d))
            if group is not None:
                if (r, group) not in groups:
                    groups[r, group] = (permdec.enumerate_lambda(amb)
                                        if group == "lambda" else
                                        permdec.translation_subgroup(amb))
                cs = gamma.build_gamma(D)
                self.items.append(("pdset", amb, groups[r, group],
                                   cs.complement(), s))
        self.pass_size = len(self.items)

    def warm_up(self):
        for item in self.items:
            if item[0] == "mindist":
                code.generator_matrix(item[1])

    @staticmethod
    def run(item):
        if item[0] == "mindist":
            _, c, method, _ = item
            return code.min_distance(c, method=method)
        _, amb, elements, info, s = item
        return permdec.is_pd_set(amb, elements, info, s)

    def ops(self):
        for item in itertools.cycle(self.items):
            yield item, (lambda item=item: self.run(item))

    @staticmethod
    def check(item, out):
        if item[0] == "mindist":
            return distance_failure(item[1], item[3], out)
        return pd_failure(out)


# ---------- cli: one fresh process per call ----------

# a codeword of the (2;5,9) k=29 code with positions 3 and 17 flipped
C59_WORD = ("1,0,0,0,1,0,1,0,0,1,1,0,0,0,1,0,1,1,1,0,0,1,0,0,1,1,1,1,0,"
            "1,0,0,0,1,0,1,1,0,0,0,0,0,1,1,0")


CLI_CALLS = (
    ("orbits", ["orbits", "bench/specs/c37.yaml"]),
    ("infoset", ["infoset", "bench/specs/c37.yaml"]),
    ("infoset_machine", ["infoset", "bench/specs/c37.yaml", "--machine-output"]),
    ("infoset_crt", ["infoset", "bench/specs/crt15.yaml"]),
    ("verify", ["verify", "bench/specs/c37.yaml"]),
    ("mindist", ["mindist", "bench/specs/c37.yaml"]),
    ("pdset", ["pdset", "bench/specs/c59.yaml", "--errors", "2"]),
    ("decode", ["decode", "bench/specs/c59.yaml", "--errors", "2",
                "--word", C59_WORD]),
    ("search", ["search", "bench/specs/c59.yaml", "--dim-exact", "29",
                "--min-distance", "5", "--pd-errors", "2"]),
)


def cli_failure(golden, exit_code, stdout: bytes):
    if exit_code != golden["exit"]:
        return f"exit code {exit_code}, golden {golden['exit']}"
    if stdout != golden["stdout"].encode():
        return "stdout differs from the golden"
    return None


def cli_subprocess(argv):
    """(exit code, stdout bytes) of one `python -m abcode.cli` process."""
    proc = subprocess.run([sys.executable, "-m", "abcode.cli", *argv],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120)
    return proc.returncode, proc.stdout


def cli_in_process(argv):
    """The same call through `abcode.cli.main`, stdout captured.

    The field cache is emptied first, as it is in a fresh process.
    """
    clear_field_cache()
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            exit_code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return exit_code, buf.getvalue().encode()


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


class Cli:
    name = "cli"

    def __init__(self, seed, in_process=False):
        self.goldens = load_goldens()
        self.call = cli_in_process if in_process else cli_subprocess
        self.pass_size = len(CLI_CALLS)

    def warm_up(self):
        self.call(CLI_CALLS[0][1])

    def ops(self):
        for name, argv in itertools.cycle(CLI_CALLS):
            yield (name, argv[0]), (lambda argv=argv: self.call(argv))

    def check(self, label, out):
        return cli_failure(self.goldens[label[0]], *out)


def record_goldens():
    """Write goldens.json from the current program's CLI output."""
    doc = {}
    for name, argv in CLI_CALLS:
        exit_code, out = cli_subprocess(argv)
        doc[name] = {"argv": argv, "exit": exit_code, "stdout": out.decode()}
    with open(GOLDENS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


WORKLOADS = {w.name: w for w in (Suite, Decode, Certify, Cli)}

if __name__ == "__main__":
    if sys.argv[1:] != ["record-goldens"]:
        sys.exit("usage: python3 bench/workloads.py record-goldens")
    record_goldens()
