"""Command line front end.

Reads a YAML code description, runs one pipeline stage per subcommand and
prints a human-readable report, or a YAML document with --machine-output.
Exit codes: 0 success, 1 verified negative result (failed verification,
PD check false, decoding failure), 2 invalid input.  orbits and infoset
are combinatorial; the other subcommands import the numpy-backed code and
permdec modules when they run, so the first two never load numpy.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from typing import Optional

import yaml

from .crt import CrtMap
from .gamma import CheckSet, build_gamma
from .limits import PD_MODE_NAMES, PD_SUBSET_BUDGET, SEARCH_BUDGET
from .orbit import (Ambient, DefiningSet, coset, from_orbit_reps,
                    normalize_ordering, orbits, unpermute, validate_defining_set)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2

DEFAULT_SEED = 0

# --group name -> the permdec function that builds its group table, looked
# up when called, so a wrapper installed later on the module attribute (the
# traced benchmark installs one) still sees the call.
GROUPS = {"lambda": "enumerate_lambda", "translations": "translation_subgroup"}


class SpecError(ValueError):
    """Malformed code description."""


@dataclass
class CodeSpec:
    """Parsed description: defining set (and with it the ambient), extras."""

    defining: DefiningSet
    ordering: Optional[tuple] = None  # 0-based axis permutation
    crt_map: Optional[CrtMap] = None
    cyclic_members: Optional[tuple] = None

    @property
    def ambient(self) -> Ambient:
        return self.defining.ambient


def _int(value, what: str) -> int:
    """A YAML int or integer string; a float, a bool or the rest is a SpecError."""
    try:
        if type(value) is int or isinstance(value, str):
            return int(value)
    except ValueError:
        pass
    raise SpecError(f"{what} must be an integer, not {value!r}")


def _int_list(value, what: str) -> tuple:
    """A YAML list of integers as a tuple; anything else is a SpecError."""
    if isinstance(value, (list, tuple)):
        try:
            return tuple(_int(x, what) for x in value)
        except SpecError:
            pass
    raise SpecError(f"{what} must be a list of integers, not {value!r}")


def _parse_index(entry, n: int):
    if type(entry) is int:
        tup = (entry,)
    elif isinstance(entry, str):
        parts = [p.strip() for p in entry.split(",")]
        try:
            tup = tuple(int(p) for p in parts)
        except ValueError:
            raise SpecError(f"bad index {entry!r}")
    elif isinstance(entry, (list, tuple)):
        tup = _int_list(entry, "index")
    else:
        raise SpecError(f"bad index {entry!r}")
    if len(tup) != n:
        raise SpecError(f"index {entry!r} has {len(tup)} coordinates, expected {n}")
    return tup


def parse_spec(text: str) -> CodeSpec:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(f"unparseable document: {exc}")
    if not isinstance(data, dict):
        raise SpecError("top level must be a mapping")
    if "q" not in data:
        raise SpecError("missing field: q")
    q = _int(data["q"], "q")
    ds_block = data.get("defining_set")
    if ds_block is None:
        ds_block = {}
    if not isinstance(ds_block, dict):
        raise SpecError("defining_set must be a mapping with orbits or explicit")
    if "orbits" in ds_block and "explicit" in ds_block:
        raise SpecError("defining_set takes orbits or explicit, not both")
    kind = "orbits" if "orbits" in ds_block else "explicit"
    entries = ds_block.get(kind, [])
    if not isinstance(entries, list):
        raise SpecError(f"defining_set {kind} must be a list, not {entries!r}")
    ordering = None
    if data.get("ordering") is not None:
        ordering = tuple(a - 1 for a in _int_list(data["ordering"], "ordering"))

    cmap = cyclic = None
    try:
        if data.get("crt") is not None:
            block = data["crt"]
            if not isinstance(block, dict) or "factors" not in block:
                raise SpecError("crt block needs a factors list")
            units = block.get("units")
            cmap = CrtMap(_int_list(block["factors"], "crt factors"),
                          None if units is None else _int_list(units, "crt units"))
            l = cmap.length
            # gcd(r_i, q) = 1 before residues are closed
            Ambient(q, cmap.factors)
            members = set()
            for a in _int_list(entries, "defining_set residues"):
                members.update(coset(a, l, q) if kind == "orbits" else (a % l,))
            defining = cmap.transport_defining_set(q, members)
            cyclic = tuple(sorted(members))
        elif "r" in data:
            amb = Ambient(q, _int_list(data["r"], "r"))
            indices = [_parse_index(e, amb.n) for e in entries]
            defining = (from_orbit_reps(amb, indices) if kind == "orbits"
                        else validate_defining_set(amb, indices))
        else:
            raise SpecError("missing field: r (or a crt block)")
        if "l" in data and _int(data["l"], "l") != defining.ambient.length:
            raise SpecError(f"l = {data['l']!r} but the ambient length is "
                            f"{defining.ambient.length}")
        if ordering is not None:
            normalize_ordering(defining.ambient.n, ordering)
    except SpecError:
        raise
    except ValueError as exc:
        # the library's refusals (Ambient, CrtMap, an index out of range, a
        # set that is not orbit-closed, an ordering that is no permutation)
        raise SpecError(str(exc)) from exc
    return CodeSpec(defining, ordering, cmap, cyclic)


def load_spec(path: str) -> CodeSpec:
    if path == "-":
        return parse_spec(sys.stdin.read())
    with open(path) as fh:
        return parse_spec(fh.read())


def _fmt_index(t) -> str:
    return ",".join(str(x) for x in t)


def dump_spec(spec: CodeSpec) -> str:
    """Normalized YAML form; parsing it back gives an equivalent CodeSpec."""
    doc = {"q": spec.ambient.q}
    if spec.crt_map is not None:
        doc["crt"] = {"factors": list(spec.crt_map.factors),
                      "units": list(spec.crt_map.units)}
        doc["defining_set"] = {"explicit": list(spec.cyclic_members)}
    else:
        doc["r"] = list(spec.ambient.r)
        doc["defining_set"] = {
            "explicit": [_fmt_index(t) for t in spec.defining.sorted_members()]}
    if spec.ordering is not None:
        doc["ordering"] = [a + 1 for a in spec.ordering]
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def _emit(args, human_lines, machine_doc) -> None:
    if args.machine_output:
        print(yaml.safe_dump(machine_doc, sort_keys=True,
                             default_flow_style=False), end="")
    else:
        for line in human_lines:
            print(line)


def _group_table(name: str, amb: Ambient):
    """The table of the --group name on the ambient."""
    from . import permdec
    return getattr(permdec, GROUPS[name])(amb)


def _check_set(spec: CodeSpec, args) -> CheckSet:
    """Gamma under --order (else the spec's ordering) and --random-reps --seed."""
    ordering = spec.ordering
    if args.order:
        ordering = [_int(a, "--order entry") - 1 for a in args.order.split(",")]
    rng = random.Random(args.seed) if getattr(args, "random_reps", False) else None
    return build_gamma(spec.defining, ordering=ordering, rng=rng)


# ---------- subcommands ----------


def cmd_orbits(spec: CodeSpec, args) -> int:
    amb = spec.ambient
    members = spec.defining.members
    rows = []
    for orb in orbits(amb):
        rows.append({"rep": _fmt_index(orb[0]), "size": len(orb),
                     "members": [_fmt_index(t) for t in orb],
                     "in_defining_set": orb[0] in members})
    lines = [f"ambient: q={amb.q} r={_fmt_index(amb.r)}",
             f"orbits: {len(rows)}"]
    for row in rows:
        mark = "*" if row["in_defining_set"] else " "
        lines.append(f" {mark} Q({row['rep']}) size {row['size']}: "
                     + " ".join(row["members"]))
    _emit(args, lines, {"q": amb.q, "r": list(amb.r), "orbits": rows})
    return EXIT_OK


def _row(head: str, text: str) -> str:
    """head and text joined by a space; no trailing space when text is empty."""
    return f"{head} {text}" if text else head


def _label(name: str, path) -> str:
    return name if not path else f"{name}[{','.join(str(u) for u in path)}]"


def cmd_infoset(spec: CodeSpec, args) -> int:
    amb = spec.ambient
    cs = _check_set(spec, args)
    info = sorted(cs.complement())
    check = cs.sorted_positions()
    k = amb.length - len(check)
    axes = [a + 1 for a in cs.ordering]
    # reps print in the ambient's axis order, m prefixes in processing order
    reps = [_fmt_index(unpermute(t, cs.ordering)) for t in cs.reps.reps]
    lines = [f"ambient: q={amb.q} r={_fmt_index(amb.r)}",
             f"defining set size: {len(spec.defining)}",
             f"ordering: {_fmt_index(axes)}",
             _row("representatives:", " ".join(reps))]
    m_items = sorted(cs.reps.m_table.items())
    for prefix, mv in m_items:
        lines.append(f"m[{_fmt_index(prefix)}] = {mv}")
    g_table = {p: v for p, v in cs.fg.g.items() if p}  # n = 1 has only g[()]
    for path in sorted(cs.fg.f):
        lines.append(_row(f"{_label('f', path)} =",
                          ",".join(str(v) for v in cs.fg.f[path])))
    for path in sorted(g_table):
        lines.append(f"{_label('g', path)} = {g_table[path]}")
    lines.append(_row(f"check positions ({len(check)}):",
                      " ".join(_fmt_index(t) for t in check)))
    lines.append(_row(f"information positions ({len(info)}):",
                      " ".join(_fmt_index(t) for t in info)))
    lines.append(f"dimension: {k}")
    doc = {"q": amb.q, "r": list(amb.r),
           "ordering": axes,
           "representatives": reps,
           "m": {_fmt_index(p): v for p, v in m_items},
           "f": {_label("f", p): v for p, v in cs.fg.f.items()},
           "g": {_label("g", p): v for p, v in g_table.items()},
           "check_positions": [_fmt_index(t) for t in check],
           "information_positions": [_fmt_index(t) for t in info],
           "dimension": k,
           "spec": dump_spec(spec)}
    if spec.crt_map is not None:
        pull_check = spec.crt_map.pullback_positions(cs.positions)
        pull_info = sorted(set(range(spec.crt_map.length)) - set(pull_check))
        lines.append(_row("cyclic check positions:",
                          " ".join(str(t) for t in pull_check)))
        lines.append(_row("cyclic information positions:",
                          " ".join(str(t) for t in pull_info)))
        doc["cyclic_check_positions"] = pull_check
        doc["cyclic_information_positions"] = pull_info
    _emit(args, lines, doc)
    return EXIT_OK


def cmd_verify(spec: CodeSpec, args) -> int:
    from .code import AbelianCode, verify_check_positions
    cs = _check_set(spec, args)
    code = AbelianCode(spec.defining)
    res = verify_check_positions(code, cs)
    lines = [f"check positions: {len(cs.positions)}",
             f"rank: {res.rank} / {res.expected}",
             f"verdict: {'pass' if res.ok else 'fail (' + res.reason + ')'}"]
    doc = {"ok": res.ok, "reason": res.reason, "rank": res.rank,
           "expected": res.expected,
           "check_positions": [_fmt_index(t) for t in cs.sorted_positions()]}
    _emit(args, lines, doc)
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_mindist(spec: CodeSpec, args) -> int:
    from .code import AbelianCode, min_distance
    code = AbelianCode(spec.defining)
    res = min_distance(code, budget=args.budget, method=args.method)
    lines = []
    if res.is_exact:
        lines.append(f"minimum distance: {res.upper}")
    else:
        lines.append(f"minimum distance in [{res.lower}, {res.upper}] "
                     f"(budget exhausted)")
    lines.append(f"method: {res.method}, evaluations: {res.evaluations}")
    doc = {"lower": res.lower, "upper": res.upper, "exact": res.is_exact,
           "method": res.method, "evaluations": res.evaluations}
    if res.witness is not None:
        doc["witness"] = ",".join(str(int(v)) for v in res.witness)
        lines.append("witness: " + doc["witness"])
    _emit(args, lines, doc)
    return EXIT_OK


def cmd_pdset(spec: CodeSpec, args) -> int:
    from .permdec import check_pd_errors, is_pd_set
    check_pd_errors(spec.ambient.length, args.errors, args.budget)
    cs = _check_set(spec, args)
    elements = _group_table(args.group, spec.ambient)
    res = is_pd_set(spec.ambient, elements, cs.complement(), args.errors,
                    budget=args.budget)
    lines = [f"group: {args.group} ({len(elements)} elements)",
             f"errors: {args.errors}",
             f"verdict: {'pass' if res.ok else 'fail'}"]
    doc = {"group": args.group, "elements": len(elements),
           "errors": args.errors, "ok": res.ok}
    if not res.ok:
        witness = " ".join(_fmt_index(t) for t in res.witness)
        lines.append(f"uncovered positions: {witness}")
        doc["uncovered"] = [_fmt_index(t) for t in res.witness]
    _emit(args, lines, doc)
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_decode(spec: CodeSpec, args) -> int:
    import numpy as np

    from .code import AbelianCode, standard_form_parity
    from .permdec import PDSet, permutation_decode
    cs = _check_set(spec, args)
    code = AbelianCode(spec.defining)
    l, q = code.length, code.ambient.q
    try:
        entries = [int(x) for x in args.word.split(",")]
    except ValueError:
        raise SpecError("word must be comma-separated integers")
    if len(entries) != l:
        raise SpecError(f"word length {len(entries)}, ambient length {l}")
    if not all(0 <= x < q for x in entries):
        raise SpecError(f"word entries must lie in 0..{q - 1}")
    word = np.array(entries, dtype=code.scalars.dtype)
    H_std, _ = standard_form_parity(code, cs)
    elements = _group_table(args.group, spec.ambient)
    pd = PDSet(elements, args.errors, frozenset(cs.complement()))
    decoded = permutation_decode(code, H_std, pd, word, args.errors)
    if decoded is None:
        _emit(args, ["decoding failed: no group element moved the errors "
                     "into the check positions"],
              {"ok": False})
        return EXIT_FAIL
    out = ",".join(str(int(v)) for v in decoded)
    flips = int(np.count_nonzero(decoded != word))
    _emit(args, [f"decoded: {out}", f"positions changed: {flips}"],
          {"ok": True, "decoded": out, "changed": flips})
    return EXIT_OK


def cmd_search(spec: CodeSpec, args) -> int:
    from .permdec import SearchConstraints, design_report, design_search
    amb = spec.ambient
    cons = SearchConstraints(dim_exact=args.dim_exact, dim_min=args.dim_min,
                             d_min=args.min_distance, pd_s=args.pd_errors,
                             pd_mode=args.pd_mode, budget=args.budget)
    hits = design_search(amb, cons)
    lines = design_report(amb, hits).splitlines()
    doc = {"q": amb.q, "r": list(amb.r), "hits": [
        {"dimension": h.dimension,
         "orbits": [_fmt_index(t) for t in h.orbit_reps()],
         "defining_set_size": len(h.defining),
         "d_min_passed": h.d_min_passed,
         "pd_ok": h.pd_ok}
        for h in hits]}
    _emit(args, lines, doc)
    return EXIT_OK


# ---------- argument plumbing ----------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="abcode",
        description="Information sets and permutation decoding for abelian codes.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, order=True):
        p.add_argument("spec", help="YAML code description file, or - for stdin")
        p.add_argument("--machine-output", action="store_true",
                       help="emit a YAML document instead of human text")
        if order:
            p.add_argument("--order",
                           help="axis permutation, 1-based, e.g. 2,1")

    p = sub.add_parser("orbits", help="list the q-orbits of the ambient")
    common(p, order=False)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("infoset", help="build check and information positions")
    common(p)
    p.add_argument("--random-reps", action="store_true",
                   help="pick random orbit representatives (result is invariant)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed for --random-reps (default {DEFAULT_SEED})")
    p.set_defaults(func=cmd_infoset)

    p = sub.add_parser("verify", help="rank-check the check positions")
    common(p)
    p.add_argument("--random-reps", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mindist", help="minimum distance")
    common(p, order=False)
    p.add_argument("--method", default="auto",
                   choices=["auto", "gray", "full", "bz"])
    p.add_argument("--budget", type=int, default=None,
                   help="evaluation cap; a bracket is reported if exceeded")
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("pdset", help="check the PD-set property")
    common(p)
    p.add_argument("--errors", type=int, required=True,
                   help="number of errors the set must serve")
    p.add_argument("--group", default="lambda", choices=GROUPS)
    p.add_argument("--budget", type=int, default=PD_SUBSET_BUDGET,
                   help=f"cap on the C(l, errors) error patterns walked "
                        f"(default {PD_SUBSET_BUDGET})")
    p.set_defaults(func=cmd_pdset)

    p = sub.add_parser("decode", help="permutation-decode a received word")
    common(p)
    p.add_argument("--word", required=True,
                   help="received word, comma-separated, length = ambient size")
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--group", default="lambda", choices=GROUPS)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("search", help="enumerate orbit-union codes")
    common(p, order=False)
    p.add_argument("--dim-exact", type=int, default=None)
    p.add_argument("--dim-min", type=int, default=None)
    p.add_argument("--min-distance", type=int, default=None)
    p.add_argument("--pd-errors", type=int, default=None)
    p.add_argument("--pd-mode", default="exhaustive", choices=PD_MODE_NAMES)
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET,
                   help=f"cap on the orbit unions (default {SEARCH_BUDGET})")
    p.set_defaults(func=cmd_search)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec)
        return args.func(spec, args)
    # SpecError, NotOrbitClosed and FieldError are ValueErrors
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
