"""Command-line front end: parsing, subcommands, exit codes, determinism."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import abcode.cli
from abcode.cli import (EXIT_BAD_INPUT, EXIT_FAIL, EXIT_OK, dump_spec,
                        load_spec, main, parse_spec)

SPEC_37 = """\
q: 2
r: [3, 7]
defining_set:
  orbits: ["0,3", "1,1", "1,3"]
"""

SPEC_333 = """\
q: 2
r: [3, 3, 3]
defining_set:
  explicit: ["0,0,0", "1,1,0", "2,2,0", "0,1,1", "0,2,2", "2,2,1", "1,1,2"]
"""

SPEC_35 = """\
q: 2
r: [3, 5]
defining_set:
  explicit: ["0,0", "1,0", "2,0", "1,2", "2,4", "1,3", "2,1"]
"""

SPEC_59_EMPTY = """\
q: 2
r: [5, 9]
"""

SPEC_C7 = """\
q: 2
r: [3, 15]
defining_set:
  orbits: ["0,3", "0,7", "1,0", "1,11"]
"""

SPEC_C8 = """\
q: 2
r: [3, 15]
defining_set:
  orbits: ["0,0", "1,3", "1,7", "1,11"]
"""

SPEC_CRT = """\
q: 2
l: 15
crt:
  factors: [3, 5]
defining_set:
  explicit: [0, 1, 2, 3, 4, 6, 8, 9, 12]
"""

SPEC_HAMMING = """\
q: 2
r: [7]
defining_set:
  orbits: [1]
"""

SPEC_GOLAY3 = """\
q: 3
r: [11]
defining_set:
  orbits: [1]
"""

# ord_67(2) = 66: the roots of unity live in F_{2^66}, past the 64-bit policy
SPEC_67 = """\
q: 2
r: [67]
defining_set:
  orbits: [1]
"""

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src"


def write(tmp_path, text, name="code.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------- spec parsing ----------


def test_parse_spec_variants():
    spec = parse_spec(SPEC_37)
    assert spec.ambient.q == 2 and spec.ambient.r == (3, 7)
    assert len(spec.defining) == 15
    spec = parse_spec(SPEC_333)
    assert len(spec.defining) == 7
    spec = parse_spec(SPEC_CRT)
    assert spec.crt_map is not None
    assert spec.ambient.r == (3, 5)
    assert len(spec.defining) == 9
    assert spec.cyclic_members == (0, 1, 2, 3, 4, 6, 8, 9, 12)


def test_parse_spec_rejects_bad_documents():
    from abcode.cli import SpecError
    for text in [
        "r: [3]\n",                                   # missing q
        "q: 2\n",                                     # missing r and crt
        "q: 2\nr: [3, 7]\nordering: [1, 1]\n",        # bad ordering
        "q: 2\nr: [3, 7]\ndefining_set:\n  explicit: [\"1\"]\n",  # arity
        "q: 2\nl: 16\ncrt:\n  factors: [3, 5]\n",     # l mismatch
        "- not\n- a\n- mapping\n",
        "q: 2\nr: [3, 7]\ndefining_set:\n  explicit: [\"9,1\"]\n",  # range
    ]:
        with pytest.raises((SpecError, ValueError)):
            parse_spec(text)


@pytest.mark.parametrize("text", [
    "q: [2]\nr: [7]\n",                                  # q not an integer
    "q: 2\nr: 7\n",                                      # r not a list
    "q: 2\nr: [3, 7]\ndefining_set: [\"0,3\"]\n",       # list, not a mapping
    "q: 2\nl: [15]\ncrt:\n  factors: [3, 5]\n",          # l not an integer
    "q: 2\ncrt:\n  factors: 15\n",                       # factors not a list
    "q: 2\ncrt:\n  factors: [3, 5]\n  units: 3\n",       # units not a list
    "q: 2\nr: [3, 7]\ndefining_set:\n  orbits: 5\n",     # orbits not a list
    "q: 2\nr: [3, 7]\ndefining_set:\n  explicit: 3\n",   # explicit not a list
    "q: 2\nr: [3, 7]\ndefining_set:\n  orbits: [[0, [3]]]\n",  # nested index
    "q: 2\ncrt:\n  factors: [3, 5]\ndefining_set:\n  explicit: [[1]]\n",  # residue
    "q: 2\nr: [3, 7]\nordering: [[1], 2]\n",           # nested axis number
    "q: 2.7\nr: [3, 7]\n",                               # q a float
    "q: true\nr: [3, 7]\n",                              # q a bool
    "q: 2\nr: [3.9, 7]\n",                               # modulus a float
    "q: 2\nr: [3, 7]\nordering: [2.2, 1]\n",            # axis number a float
    "q: 2\ncrt:\n  factors: [3.0, 5]\n",                # factor a float
    "q: 2\nr: [3, 7]\ndefining_set:\n  explicit: [[0, 3.5]]\n",  # index entry
])
def test_malformed_spec_exits_2(tmp_path, capsys, text):
    from abcode.cli import SpecError
    with pytest.raises(SpecError):
        parse_spec(text)
    assert main(["infoset", write(tmp_path, text)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_spec_roundtrip_plain():
    spec = parse_spec(SPEC_35)
    again = parse_spec(dump_spec(spec))
    assert again.ambient.q == spec.ambient.q
    assert again.ambient.r == spec.ambient.r
    assert again.defining.members == spec.defining.members
    assert again.ordering == spec.ordering


def test_spec_roundtrip_crt():
    spec = parse_spec(SPEC_CRT)
    again = parse_spec(dump_spec(spec))
    assert again.ambient.q == spec.ambient.q
    assert again.ambient.r == spec.ambient.r
    assert again.crt_map == spec.crt_map
    assert again.defining.members == spec.defining.members
    assert again.cyclic_members == spec.cyclic_members


def test_load_spec_from_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SPEC_37))
    code, out = run_cli(capsys, "orbits", "-")
    assert code == EXIT_OK
    assert "Q(0,3)" in out


# ---------- orbits ----------


def test_orbits_on_45a(tmp_path, capsys):
    path = write(tmp_path, SPEC_59_EMPTY)
    code, out = run_cli(capsys, "orbits", path, "--machine-output")
    assert code == EXIT_OK
    doc = yaml.safe_load(out)
    reps = [row["rep"] for row in doc["orbits"]]
    assert reps == ["0,0", "0,1", "0,3", "1,0", "1,1", "1,2", "1,3", "1,6"]
    assert sum(row["size"] for row in doc["orbits"]) == 45
    assert not any(row["in_defining_set"] for row in doc["orbits"])


def test_orbits_on_45b(tmp_path, capsys):
    path = write(tmp_path, SPEC_C7)
    code, out = run_cli(capsys, "orbits", path)
    assert code == EXIT_OK
    assert "orbits: 14" in out
    # defining-set orbits carry the marker
    marked = [ln for ln in out.splitlines() if ln.lstrip().startswith("*")]
    assert len(marked) == 4


def test_orbits_trivial_ambient(tmp_path, capsys):
    path = write(tmp_path, "q: 2\nr: [1]\n")
    code, out = run_cli(capsys, "orbits", path, "--machine-output")
    assert code == EXIT_OK
    doc = yaml.safe_load(out)
    assert len(doc["orbits"]) == 1
    assert doc["orbits"][0]["members"] == ["0"]


# ---------- infoset ----------


def test_infoset_two_axis_tables(tmp_path, capsys):
    path = write(tmp_path, SPEC_37)
    code, out = run_cli(capsys, "infoset", path)
    assert code == EXIT_OK
    assert "m[0] = 1" in out
    assert "m[1] = 2" in out
    assert "m[0,3] = 3" in out
    assert "f = 6,3" in out
    assert "g[1] = 2" in out
    assert "g[2] = 3" in out
    assert "dimension: 6" in out
    assert "check positions (15):" in out

    code, out = run_cli(capsys, "infoset", path, "--machine-output")
    doc = yaml.safe_load(out)
    assert doc["dimension"] == 6
    assert len(doc["check_positions"]) == 15
    assert len(doc["information_positions"]) == 6
    assert set(doc["check_positions"]) >= {"0,0", "1,5", "2,2"}
    # the embedded normalized document parses back to the same code
    again = parse_spec(doc["spec"])
    assert again.defining.members == parse_spec(SPEC_37).defining.members


def test_infoset_order_flag(tmp_path, capsys):
    path = write(tmp_path, SPEC_35)
    _, out_default = run_cli(capsys, "infoset", path, "--machine-output")
    _, out_swapped = run_cli(capsys, "infoset", path, "--machine-output",
                             "--order", "2,1")
    d0 = yaml.safe_load(out_default)
    d1 = yaml.safe_load(out_swapped)
    assert set(d0["check_positions"]) == {
        "0,0", "1,0", "2,0", "0,1", "0,2", "1,1", "1,2"}
    assert set(d1["check_positions"]) == {
        "0,0", "1,0", "2,0", "0,1", "0,2", "0,3", "0,4"}
    assert d1["ordering"] == [2, 1]


SPEC_353 = """\
q: 2
r: [3, 5, 3]
defining_set:
  orbits: ["0,1,1", "0,1,2", "1,0,2"]
"""

PINNED = Path(__file__).resolve().parent / "pinned"


@pytest.mark.parametrize("name,text,flags", [
    ("infoset_35_order_2_1", SPEC_35, ["--order", "2,1"]),
    ("infoset_353_order_3_1_2_seed_7", SPEC_353,
     ["--order", "3,1,2", "--random-reps", "--seed", "7"]),
])
@pytest.mark.parametrize("suffix", [".txt", ".yaml"])
def test_infoset_output_pinned_under_a_permuted_order(tmp_path, capsys, name,
                                                      text, flags, suffix):
    # representatives print in the ambient's axis order, m prefixes in
    # processing order; both the text and the YAML form are pinned
    machine = ["--machine-output"] if suffix == ".yaml" else []
    code, out = run_cli(capsys, "infoset", write(tmp_path, text), *flags, *machine)
    assert code == EXIT_OK
    assert out == (PINNED / (name + suffix)).read_text()


def test_infoset_crt_pullback(tmp_path, capsys):
    path = write(tmp_path, SPEC_CRT)
    code, out = run_cli(capsys, "infoset", path, "--machine-output")
    assert code == EXIT_OK
    doc = yaml.safe_load(out)
    assert doc["cyclic_check_positions"] == [0, 1, 3, 5, 6, 9, 10, 11, 12]
    assert doc["cyclic_information_positions"] == [2, 4, 7, 8, 13, 14]
    code, out = run_cli(capsys, "infoset", path)
    assert "cyclic check positions: 0 1 3 5 6 9 10 11 12" in out


@pytest.mark.parametrize("text,f_lines,f_doc", [
    ("q: 2\nr: [7]\ndefining_set:\n  orbits: [\"1\"]\n", [], {}),  # n = 1
    ("q: 2\nr: [3, 5]\n", ["f ="], {"f": []}),                    # empty set
])
def test_infoset_fg_lines_on_degenerate_tables(tmp_path, capsys, text,
                                               f_lines, f_doc):
    # n = 1 keeps its count g[()] = |D| off the output; an empty set at
    # n >= 2 prints its empty top threshold sequence and no g at all
    path = write(tmp_path, text)
    code, out = run_cli(capsys, "infoset", path)
    assert code == EXIT_OK
    assert [ln for ln in out.splitlines() if ln.startswith("f")] == f_lines
    assert not [ln for ln in out.splitlines() if ln.startswith("g")]
    code, out = run_cli(capsys, "infoset", path, "--machine-output")
    doc = yaml.safe_load(out)
    assert doc["f"] == f_doc
    assert doc["g"] == {}


def test_infoset_deterministic_and_rep_invariant(tmp_path, capsys):
    path = write(tmp_path, SPEC_37)
    _, a = run_cli(capsys, "infoset", path, "--machine-output")
    _, b = run_cli(capsys, "infoset", path, "--machine-output")
    assert a == b
    for seed in ("0", "7"):
        _, c = run_cli(capsys, "infoset", path, "--machine-output",
                       "--random-reps", "--seed", seed)
        doc = yaml.safe_load(c)
        assert doc["check_positions"] == yaml.safe_load(a)["check_positions"]
    # same seed, same bytes
    _, c1 = run_cli(capsys, "infoset", path, "--random-reps", "--seed", "7")
    _, c2 = run_cli(capsys, "infoset", path, "--random-reps", "--seed", "7")
    assert c1 == c2


@pytest.mark.parametrize("text", ["q: 2\nr: [3, 5]\n", "q: 3\nr: [1]\n",
                                  "q: 2\nr: [3, 5]\ndefining_set:\n  orbits: "
                                  "[\"0,0\", \"0,1\", \"1,0\", \"1,1\", \"1,2\"]\n"],
                         ids=["empty-3x5", "empty-1", "full-3x5"])
def test_infoset_lines_have_no_trailing_space(tmp_path, capsys, text):
    # an empty defining set leaves the representative, f and check lists
    # empty, a full one the information list
    code, out = run_cli(capsys, "infoset", write(tmp_path, text))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line for line in lines if line != line.rstrip()] == []
    if "defining set size: 0" in lines:
        assert "representatives:" in lines
        assert "check positions (0):" in lines
    else:
        assert "information positions (0):" in lines


# ---------- verify / mindist ----------


def test_verify_three_axis(tmp_path, capsys):
    path = write(tmp_path, SPEC_333)
    code, out = run_cli(capsys, "verify", path)
    assert code == EXIT_OK
    assert "verdict: pass" in out
    assert "rank: 7 / 7" in out
    code, out = run_cli(capsys, "verify", path, "--machine-output")
    assert yaml.safe_load(out)["ok"] is True


def test_mindist_small(tmp_path, capsys):
    path = write(tmp_path, SPEC_HAMMING)
    code, out = run_cli(capsys, "mindist", path, "--method", "full")
    assert code == EXIT_OK
    assert "minimum distance: 3" in out
    code, out = run_cli(capsys, "mindist", path, "--machine-output")
    doc = yaml.safe_load(out)
    assert doc["exact"] is True
    assert doc["upper"] == 3
    assert doc["witness"].count("1") == 3


def test_mindist_heavier_code(tmp_path, capsys):
    path = write(tmp_path, SPEC_C8)
    code, out = run_cli(capsys, "mindist", path)
    assert code == EXIT_OK
    assert "minimum distance: 6" in out


def test_mindist_budget_bracket(tmp_path, capsys):
    path = write(tmp_path, SPEC_59_EMPTY.replace(
        "r: [5, 9]\n", "r: [5, 9]\ndefining_set:\n  orbits: [\"1,2\", \"1,6\"]\n"))
    code, out = run_cli(capsys, "mindist", path, "--method", "gray",
                        "--budget", str(1 << 21), "--machine-output")
    assert code == EXIT_OK
    doc = yaml.safe_load(out)
    assert doc["exact"] is False
    assert doc["lower"] == 1


def test_mindist_full_honours_the_budget(tmp_path, capsys):
    # k = 6: full expands all 2^6 messages or, under a smaller budget, none
    path = write(tmp_path, SPEC_37)
    for budget, want in (("0", "minimum distance in [1, 21] (budget exhausted)\n"
                               "method: full, evaluations: 0\n"),
                         ("63", "minimum distance in [1, 21] (budget exhausted)\n"
                                "method: full, evaluations: 0\n"),
                         ("64", "minimum distance: 7\nmethod: full, evaluations: 64\n")):
        code, out = run_cli(capsys, "mindist", path, "--method", "full",
                            "--budget", budget)
        assert code == EXIT_OK
        assert out.startswith(want)
        assert ("witness: " in out) == (budget == "64")


def test_mindist_nonbinary_budget_bracket(tmp_path, capsys):
    path = write(tmp_path, SPEC_GOLAY3)
    code, out = run_cli(capsys, "mindist", path, "--method", "bz",
                        "--budget", "1", "--machine-output")
    assert code == EXIT_OK
    doc = yaml.safe_load(out)
    assert doc["exact"] is False
    assert doc["lower"] <= 5 <= doc["upper"]


def test_mindist_zero_code_exits_2(tmp_path, capsys):
    path = write(tmp_path, "q: 2\nr: [7]\ndefining_set:\n  orbits: [0, 1, 3]\n")
    assert main(["mindist", path]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert "zero code" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text,d", [
    ("q: 3\nr: [5]\n", 1),                                          # empty set
    ("q: 2\nr: [1, 7]\ndefining_set:\n  orbits: [\"0,1\"]\n", 3),   # r_1 = 1
])
@pytest.mark.parametrize("method", ["bz", "auto"])
def test_mindist_edge_ambients(tmp_path, capsys, text, d, method):
    path = write(tmp_path, text)
    code, out = run_cli(capsys, "mindist", path, "--method", method)
    assert code == EXIT_OK
    assert f"minimum distance: {d}\n" in out


# ---------- pdset / decode ----------


def test_pdset_pass(tmp_path, capsys):
    path = write(tmp_path, SPEC_C8)
    code, out = run_cli(capsys, "pdset", path, "--errors", "2")
    assert code == EXIT_OK
    assert "verdict: pass" in out
    assert "group: lambda (180 elements)" in out


def test_pdset_fail_with_witness(tmp_path, capsys):
    path = write(tmp_path, SPEC_HAMMING)
    code, out = run_cli(capsys, "pdset", path, "--errors", "2",
                        "--group", "translations")
    assert code == EXIT_FAIL
    assert "verdict: fail" in out
    assert "uncovered positions:" in out


def test_decode_roundtrip(tmp_path, capsys):
    import numpy as np
    from abcode.code import AbelianCode, encode
    from abcode.gamma import build_gamma
    from abcode.cli import load_spec

    path = write(tmp_path, SPEC_C7)
    spec = load_spec(path)
    code_obj = AbelianCode(spec.defining)
    cs = build_gamma(spec.defining)
    info = sorted(cs.complement())
    message = {pos: (i * 7 + 3) % 2 for i, pos in enumerate(info)}
    sent = encode(code_obj, cs, message)
    received = sent.copy()
    received[4] ^= 1
    received[40] ^= 1
    word = ",".join(str(int(v)) for v in received)
    rc, out = run_cli(capsys, "decode", path, "--word", word, "--errors", "2")
    assert rc == EXIT_OK
    assert f"decoded: {','.join(str(int(v)) for v in sent)}" in out
    assert "positions changed: 2" in out


def test_decode_rejects_bad_word(tmp_path, capsys):
    path = write(tmp_path, SPEC_C7)
    rc, _ = run_cli(capsys, "decode", path, "--word", "1,0,1", "--errors", "2")
    assert rc == EXIT_BAD_INPUT
    rc, _ = run_cli(capsys, "decode", path, "--word",
                    ",".join("3" for _ in range(45)), "--errors", "2")
    assert rc == EXIT_BAD_INPUT


@pytest.mark.parametrize("first", ["300", "-1"])
def test_decode_word_outside_labels_exits_2(tmp_path, first):
    path = write(tmp_path, SPEC_37)
    word = ",".join([first] + ["0"] * 20)
    proc = run_module("abcode", "decode", path, f"--word={word}", "--errors", "1")
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_decode_labels_past_255(tmp_path, capsys):
    path = write(tmp_path, "q: 257\nr: [2]\ndefining_set:\n  orbits: [0]\n")
    rc, out = run_cli(capsys, "decode", path, "--word", "256,1", "--errors", "1")
    assert rc == EXIT_OK
    assert "decoded: 256,1\n" in out


# ---------- search ----------


def test_search_two_error_battery(tmp_path, capsys):
    path = write(tmp_path, SPEC_59_EMPTY)
    rc, out = run_cli(capsys, "search", path, "--dim-exact", "29",
                      "--min-distance", "5", "--pd-errors", "2",
                      "--machine-output")
    assert rc == EXIT_OK
    doc = yaml.safe_load(out)
    assert len(doc["hits"]) == 6
    assert all(h["dimension"] == 29 for h in doc["hits"])
    assert all(h["pd_ok"] for h in doc["hits"])
    rc, out = run_cli(capsys, "search", path, "--dim-exact", "29",
                      "--min-distance", "5", "--pd-errors", "2")
    assert "6 hit(s)" in out


# ---------- exit codes ----------


def test_bad_input_exits_2(tmp_path, capsys):
    assert main(["orbits", str(tmp_path / "missing.yaml")]) == EXIT_BAD_INPUT
    capsys.readouterr()
    path = write(tmp_path, "q: 2\n")  # no r, no crt
    assert main(["orbits", path]) == EXIT_BAD_INPUT
    capsys.readouterr()
    # not closed under doubling
    path = write(tmp_path, "q: 2\nr: [7]\ndefining_set:\n  explicit: [1]\n")
    assert main(["infoset", path]) == EXIT_BAD_INPUT
    capsys.readouterr()
    path = write(tmp_path, "q: 2\nr: [3, 7]\n")
    assert main(["infoset", path, "--order", "1,1"]) == EXIT_BAD_INPUT
    capsys.readouterr()
    # --order is read as the spec's own ordering is
    for order in ("2.5,1", "x,1", "true,1"):
        assert main(["infoset", path, "--order", order]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        part = order.split(",")[0]
        assert captured.err == f"error: --order entry must be an integer, not '{part}'\n"
    # more errors than positions: no s-subset exists, so no verdict
    path = write(tmp_path, "q: 2\nr: [3, 15]\ndefining_set:\n  orbits: [\"0,0\"]\n")
    assert main(["pdset", path, "--errors", "50"]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: s = 50 exceeds the length 45\n"
    # 3 divides the length 15: there are no 3-cyclotomic cosets mod 15,
    # and the factor is named before any residue is closed
    for kind in ("orbits", "explicit"):
        path = write(tmp_path, "q: 3\ncrt:\n  factors: [3, 5]\n"
                               f"defining_set:\n  {kind}: [1]\n")
        assert main(["infoset", path]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gcd(r_i, q) must be 1, got r_i=3, q=3\n"
    # each block is read once, whatever the ambient: both defining-set
    # kinds at once are refused, and a crt spec's ordering is checked too
    both = "defining_set:\n  orbits: [3]\n  explicit: [1, 2, 4, 8]\n"
    bad_specs = [("q: 2\nr: [15]\n" + both, "infoset", "not both"),
                 ("q: 2\ncrt:\n  factors: [3, 5]\n" + both, "infoset", "not both"),
                 ("q: 2\ncrt:\n  factors: [3, 5]\nordering: [1, 1]\n", "orbits",
                  "ordering (0, 0) is not a permutation of 0..1")]
    for text, sub, message in bad_specs:
        assert main([sub, write(tmp_path, text)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    # spec integers are YAML ints or integer strings, nothing else
    for text, message in [
            ("q: 2.7\nr: [3, 7]\n", "error: q must be an integer, not 2.7\n"),
            ("q: \"x\"\nr: [3, 7]\n", "error: q must be an integer, not 'x'\n"),
            ("q: 2\nr: [3.9, 7]\n",
             "error: r must be a list of integers, not [3.9, 7]\n"),
            ("q: 2\nr: [3, 7]\nordering: [2.2, 1]\n",
             "error: ordering must be a list of integers, not [2.2, 1]\n"),
            ("q: 2\ncrt:\n  factors: [3, 5]\n  units: [1, false]\n",
             "error: crt units must be a list of integers, not [1, False]\n")]:
        assert main(["orbits", write(tmp_path, text)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
    assert parse_spec("q: \"2\"\nr: [\"3\", 7]\n").ambient.r == (3, 7)
    # a PD mode stated for two axes is refused before any union is built
    path = write(tmp_path, SPEC_HAMMING, "h7.yaml")
    for extra in ([], ["--dim-exact", "100"]):
        assert main(["search", path, "--pd-errors", "2", "--pd-mode", "lemma13",
                     *extra]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: condition is stated for two-variable codes only\n"
    # --budget reaches the library as given, 0 included
    for argv, message in [
            (["pdset", write(tmp_path, SPEC_37, "c37.yaml"), "--errors", "2", "--budget", "0"],
             "error: C(21, 2) exceeds the subset budget 0\n"),
            (["search", write(tmp_path, SPEC_HAMMING, "h7.yaml"), "--budget", "0"],
             "error: 2^3 orbit unions exceed the search budget\n")]:
        assert main(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


@pytest.mark.parametrize("mode,capacity", [("lemma13", 2), ("lemma15", 3)])
def test_lemma_modes_refuse_more_errors_than_their_lemma_serves(capsys, mode, capacity):
    # Lemma 13 is stated for 2-PD-sets and Lemma 15 for 3-PD-sets; past
    # that the check set meeting every orbit says nothing
    path = str(ROOT / "bench" / "specs" / "c37.yaml")
    for s in (capacity + 1, 9):
        assert main(["search", path, "--dim-exact", "9", "--pd-errors", str(s),
                     "--pd-mode", mode]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: pd_mode {mode} certifies at most "
                                f"{capacity} errors, not {s}\n")
    assert main(["search", path, "--dim-exact", "9", "--pd-errors",
                 str(capacity), "--pd-mode", mode]) == EXIT_OK
    capsys.readouterr()


def test_pdset_refuses_an_over_budget_request_before_the_group_table(
        tmp_path, capsys, monkeypatch):
    # the lambda table of this ambient alone has 11 * 2047 rows of 2047
    def no_table(amb):
        raise AssertionError("group table built")

    monkeypatch.setattr(abcode.cli, "enumerate_lambda", no_table)
    path = write(tmp_path, "q: 2\nr: [2047]\ndefining_set:\n  orbits: [0]\n")
    assert main(["pdset", path, "--errors", "2"]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: C(2047, 2) exceeds the subset budget 2000000\n"


def test_benchmark_cli_goldens_replay_in_process(capsys, monkeypatch):
    # bench/goldens.json records the exit code and stdout bytes of each
    # benchmark CLI call, made from the repository root
    goldens = json.loads((ROOT / "bench" / "goldens.json").read_text())
    assert len(goldens) == 9
    monkeypatch.chdir(ROOT)
    for name, golden in sorted(goldens.items()):
        assert main(list(golden["argv"])) == golden["exit"], name
        assert capsys.readouterr().out.encode() == golden["stdout"].encode(), name


def test_one_defining_set_kind_closes_crt_residues():
    # orbits closes each residue under doubling mod 15, explicit takes it as is
    for kind, members in (("orbits", (3, 6, 9, 12)), ("explicit", (1, 2, 4, 8))):
        entries = "[3]" if kind == "orbits" else "[1, 2, 4, 8]"
        crt = parse_spec(f"q: 2\ncrt:\n  factors: [3, 5]\n"
                         f"defining_set:\n  {kind}: {entries}\n")
        plain = parse_spec(f"q: 2\nr: [15]\ndefining_set:\n  {kind}: {entries}\n")
        assert crt.cyclic_members == members
        assert sorted(t for (t,) in plain.defining.members) == list(members)


def test_budget_defaults_are_the_library_defaults():
    from abcode.cli import _build_parser
    from abcode.permdec import PD_SUBSET_BUDGET, SEARCH_BUDGET, SearchConstraints
    parser = _build_parser()
    assert parser.parse_args(["pdset", "x", "--errors", "1"]).budget == PD_SUBSET_BUDGET
    assert parser.parse_args(["search", "x"]).budget == SEARCH_BUDGET
    assert SearchConstraints().budget == SEARCH_BUDGET


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_module(module, *argv):
    return run_python("-m", module, *argv)


# the four edge inputs: one axis, an r_i = 1 axis, empty and full defining sets
EDGE_SPECS = {
    "n1": SPEC_HAMMING,
    "r1": "q: 2\nr: [1, 7]\ndefining_set:\n  orbits: [\"0,1\"]\n",
    "empty": "q: 2\nr: [3, 5]\n",
    "full": "q: 2\nr: [3, 5]\ndefining_set:\n"
            "  orbits: [\"0,0\", \"0,1\", \"1,0\", \"1,1\", \"1,2\"]\n",
}
EDGE_LENGTHS = {"n1": 7, "r1": 7, "empty": 15, "full": 15}
EDGE_EXPECT = {   # (spec, subcommand): (exit code, a line of its output)
    ("n1", "orbits"): (EXIT_OK, "orbits: 3"),
    ("n1", "infoset"): (EXIT_OK, "dimension: 4"),
    ("n1", "verify"): (EXIT_OK, "verdict: pass"),
    ("n1", "mindist"): (EXIT_OK, "minimum distance: 3"),
    ("n1", "pdset"): (EXIT_OK, "verdict: pass"),
    ("n1", "decode"): (EXIT_OK, "positions changed: 1"),
    ("n1", "search"): (EXIT_OK, "ambient q=2 r=(7,): 7 hit(s)"),
    ("r1", "orbits"): (EXIT_OK, "orbits: 3"),
    ("r1", "infoset"): (EXIT_OK, "dimension: 4"),
    ("r1", "verify"): (EXIT_OK, "verdict: pass"),
    ("r1", "mindist"): (EXIT_OK, "minimum distance: 3"),
    ("r1", "pdset"): (EXIT_OK, "verdict: pass"),
    ("r1", "decode"): (EXIT_OK, "positions changed: 1"),
    ("r1", "search"): (EXIT_OK, "ambient q=2 r=(1, 7): 7 hit(s)"),
    ("empty", "orbits"): (EXIT_OK, "orbits: 5"),
    ("empty", "infoset"): (EXIT_OK, "dimension: 15"),
    ("empty", "verify"): (EXIT_OK, "verdict: pass"),
    ("empty", "mindist"): (EXIT_OK, "minimum distance: 1"),
    ("empty", "pdset"): (EXIT_FAIL, "verdict: fail"),
    ("empty", "decode"): (EXIT_OK, "positions changed: 0"),
    ("empty", "search"): (EXIT_OK, "ambient q=2 r=(3, 5): 31 hit(s)"),
    ("full", "orbits"): (EXIT_OK, "orbits: 5"),
    ("full", "infoset"): (EXIT_OK, "dimension: 0"),
    ("full", "verify"): (EXIT_OK, "verdict: pass"),
    ("full", "mindist"): (EXIT_BAD_INPUT, "error: minimum distance of the zero "
                                          "code is undefined"),
    ("full", "pdset"): (EXIT_OK, "verdict: pass"),
    ("full", "decode"): (EXIT_OK, "positions changed: 1"),
    ("full", "search"): (EXIT_OK, "ambient q=2 r=(3, 5): 31 hit(s)"),
}
EDGE_FLAGS = {"pdset": ["--errors", "1"], "search": ["--pd-errors", "1"]}


@pytest.mark.parametrize("name,sub", sorted(EDGE_EXPECT))
def test_edge_inputs_through_every_subcommand(tmp_path, name, sub):
    path = write(tmp_path, EDGE_SPECS[name])
    flags = EDGE_FLAGS.get(sub, [])
    if sub == "decode":   # one error at position 0
        word = ",".join(["1"] + ["0"] * (EDGE_LENGTHS[name] - 1))
        flags = [f"--word={word}", "--errors", "1"]
    proc = run_module("abcode", sub, path, *flags)
    want_code, want_line = EDGE_EXPECT[name, sub]
    assert proc.returncode == want_code, proc.stderr
    assert "Traceback" not in proc.stderr
    if want_code == EXIT_BAD_INPUT:
        assert proc.stdout == ""
        assert proc.stderr == want_line + "\n"
    else:
        assert proc.stderr == ""
        assert want_line in proc.stdout.splitlines()


@pytest.mark.parametrize("sub", ["orbits", "infoset", "verify", "mindist", "pdset",
                                 "decode", "search"])
def test_q_is_checked_by_the_ambient_on_every_subcommand(tmp_path, capsys, sub):
    flags = {"pdset": ["--errors", "1"],
             "decode": ["--word", "0,0,0,0,0", "--errors", "1"]}.get(sub, [])
    big = 2**64 + 1
    for text, message in [
            ("q: 6\nr: [5]\n", "error: q = 6 is not a prime power\n"),
            ("q: 6\ncrt:\n  factors: [5, 7]\n", "error: q = 6 is not a prime power\n"),
            (f"q: {big}\nr: [5]\n",
             f"error: q = {big} exceeds the 64-bit size policy\n")]:
        assert main([sub, write(tmp_path, text), *flags]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


@pytest.mark.parametrize("sub", ["verify", "mindist"])
def test_field_past_64_bits_exits_2(tmp_path, sub):
    path = write(tmp_path, SPEC_67)
    proc = run_module("abcode", sub, path)
    assert proc.returncode == EXIT_BAD_INPUT
    assert "64-bit" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


NO_SYMPY_RUNNER = """
import contextlib, io, json, sys
sys.modules["sympy"] = None   # any import of sympy now raises ImportError
from abcode.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def test_runtime_runs_without_sympy(tmp_path, capsys):
    path_37 = write(tmp_path, SPEC_37, "c37.yaml")
    path_crt = write(tmp_path, SPEC_CRT, "crt.yaml")
    # infoset on a crt spec needs crt, verify needs isprime and factorint
    argvs = [["infoset", path_37], ["verify", path_37], ["infoset", path_crt]]
    want = [list(run_cli(capsys, *argv)) for argv in argvs]
    assert [code for code, _ in want] == [EXIT_OK] * 3
    proc = run_python("-c", NO_SYMPY_RUNNER, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want

    proc = run_python("-c", "import sys, abcode.cli; print('sympy' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_python_dash_m_matches_cli_module(tmp_path):
    path = write(tmp_path, SPEC_37)
    runs = {}
    for order, want_exit in (("1,2", EXIT_OK), ("1,1", EXIT_BAD_INPUT)):
        for module in ("abcode", "abcode.cli"):
            proc = run_module(module, "infoset", path, "--order", order)
            assert proc.returncode == want_exit
            runs[module, order] = proc.stdout
        assert runs["abcode", order] == runs["abcode.cli", order]
    assert "dimension: 6" in runs["abcode", "1,2"]


@pytest.mark.skipif(shutil.which("abcode") is None,
                    reason="no abcode executable on PATH; this test runs "
                           "after `pip install .`")
def test_console_script_installed(tmp_path):
    path = write(tmp_path, SPEC_37)
    proc = subprocess.run(["abcode", "infoset", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "dimension: 6" in proc.stdout


def test_console_script_entry_point_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("abcode") == "abcode.cli:main"
    module, attr = scripts["abcode"].split(":")
    # what the wrapper that pip generates for the script does
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    path = write(tmp_path, SPEC_37)
    proc = subprocess.run([sys.executable, "-c", wrapper, "infoset", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "dimension: 6" in proc.stdout
