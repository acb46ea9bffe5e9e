"""Command-line entry points and error reporting."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wgc import blockcodes, cli, convcodes, hypergraphs, woven
from wgc.gf2 import BinaryPoly
from wgc.hypergraphs import (build_heawood, build_three_partite, build_utility,
                             identity_assignment, random_regular)
from conftest import WOVEN_BLOCK_CONSTITUENT_ROWS, relabel_right

SRC = Path(__file__).resolve().parents[1] / "src"
HC = "11001,110111,101111"
BLOCK_HC = ";".join(",".join(row) for row in WOVEN_BLOCK_CONSTITUENT_ROWS)
WITNESS = ["woven", "witness", "--graph", "builtin:utility", "--hc-inline", "1,11,101"]


def test_package_runs_as_module():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wgc", "bounds", "--kind", "costello", "--step", "0.1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "rate,delta"


# runs ``python -m wgc.cli ARGS`` in this interpreter, then names the modules it
# loaded beyond those the bare interpreter had
START_UP_PROBE = """
import runpy, sys
bare = set(sys.modules)
sys.argv = ["wgc", *sys.argv[1:]]
try:
    runpy.run_module("wgc.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code)
print(*sorted(set(sys.modules) - bare))
"""
# no command loads dataclasses, whose import pulls in inspect, ast, dis and tokenize
HEAVY = {"wgc.woven", "wgc.convcodes", "concurrent.futures", "dataclasses"}
# modules a command must not load, where they differ from HEAVY
UNUSED = {"bounds": HEAVY | {"fractions"},
          "verify": {"wgc.bounds", "concurrent.futures", "dataclasses"},
          "woven": {"wgc.blockcodes", "concurrent.futures", "multiprocessing", "dataclasses"}}


@pytest.mark.parametrize("argv", [
    ["bounds", "--kind", "vg", "--s", "2", "--step", "0.1"],
    ["mindist", "--matrix", "{matrix}"],
    ["verify", "heawood"],
    ["woven", "sweep", "--graph", "builtin:heawood", "--hc-inline", HC],
])
def test_start_up_imports_only_what_the_command_uses(tmp_path, argv):
    matrix = tmp_path / "h.txt"
    matrix.write_text("2 4\n1110\n0111\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, *(a.format(matrix=matrix) for a in argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    *_, status, loaded = proc.stdout.splitlines()
    assert status == "exit 0", proc.stderr
    assert not UNUSED.get(argv[0], HEAVY) & set(loaded.split())


# ``import wgc.cli, wgc.woven`` under -S, so no site hook has loaded anything first
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import wgc.cli, wgc.woven
print(*sorted({"argparse", "random", "wgc.blockcodes"} & set(sys.modules)))
"""


def test_cli_and_woven_import_no_parser_random_or_block_codes():
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
    # the benchmark's tracer patches these names in wgc.woven
    assert woven.free_distance is convcodes.free_distance
    assert woven.girth is hypergraphs.girth


def test_octal_shorthand_reads_three_coefficients_per_digit():
    # lowest digit first: o32 = (1 + D) + 2 D^3 = 1 + D + D^4
    tokens = ("o32", "0o32", "O32", "0O32", "11001")
    assert [BinaryPoly.parse(tok) for tok in tokens] == [0b10011] * len(tokens)
    assert cli.parse_poly_matrix_inline("o32,o37,o57") == cli.parse_poly_matrix_inline(HC)


@pytest.mark.parametrize("command, option", [
    (["freedist"], "--parity"),
    (["woven", "bounds", "--graph", "builtin:heawood"], "--hc"),
    (["woven", "build", "--graph", "builtin:heawood", "--perm", "1,3,2"], "--hc"),
])
def test_polynomial_files_take_the_octal_shorthand(tmp_path, capsys, command, option):
    octal = tmp_path / "octal.txt"
    octal.write_text("1 3\no32\no37\no57\n")
    assert cli.main([*command, option, str(octal)]) == 0
    from_file = capsys.readouterr().out
    assert cli.main([*command, f"{option}-inline", "o32,o37,o57"]) == 0
    assert capsys.readouterr().out == from_file


def test_invariant_failure_is_a_clean_error(monkeypatch, capsys):
    def broken(code):
        raise AssertionError("expanded generator failed the parity check")

    monkeypatch.setattr(woven, "generator_report", broken)
    status = cli.main(["woven", "build", "--graph", "builtin:utility", "--hc-inline", "1,11,101"])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


BAD_INPUT_FILES = {
    "empty": "",
    "part_too_high": "2 1 1\n0:0 5:0\n",
    "part_negative": "2 1 1\n0:0 -1:0\n",
    "part_repeated": "2 1 1\n0:0 1:0 1:0\n",
}
# a malformed first line: the error names the header it should be and echoes the line
BAD_HEADERS = {
    "graph_two_fields": ("2 3\n0:0 1:0\n", """expected the header "s c n", got '2 3'"""),
    "graph_not_an_int": ("2 3 x\n", """expected the header "s c n", got '2 3 x'"""),
    "matrix_three_fields": ("1 3 3\n101\n", """expected the header "rows cols", got '1 3 3'"""),
    "poly_not_an_int": ("1 y\n11\n", """expected the header "rows cols", got '1 y'"""),
}


@pytest.mark.parametrize("argv", [
    ["freedist", "--gen-inline", "o"],
    ["woven-block", "--graph", "builtin:utility", "--hc-inline", "1,1,1", "--l", "0"],
    ["girth", "--graph", "{empty}"],
    ["woven", "build", "--graph", "builtin:utility", "--hc", "{empty}"],
    ["freedist", "--gen-inline", "0,0"],
    ["freedist", "--gen-inline", "1,1;1,1"],
    [*WITNESS, "--perm", "1,2"],
    [*WITNESS, "--perm", "1,1,3"],
    ["woven", "sweep", "--graph", "builtin:utility", "--hc-inline", "1,11"],
    ["girth", "--graph", "{part_too_high}"],
    ["girth", "--graph", "{part_negative}"],
    ["girth", "--graph", "{part_repeated}"],
    ["girth", "--graph", "{graph_two_fields}"],
    ["sd-girth", "--graph", "{graph_not_an_int}", "--d", "2"],
    ["mindist", "--matrix", "{matrix_three_fields}"],
    ["freedist", "--parity", "{poly_not_an_int}"],
])
def test_malformed_input_is_a_clean_error(tmp_path, capsys, argv):
    files = {}
    texts = BAD_INPUT_FILES | {name: text for name, (text, _) in BAD_HEADERS.items()}
    for name, text in texts.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    assert cli.main([arg.format(**files) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    for name, (_, message) in BAD_HEADERS.items():
        if f"{{{name}}}" in argv:
            assert err == f"error: {message}\n"


def test_woven_perm_defaults_to_the_identity_of_the_graph_degree(tmp_path, capsys):
    graph = tmp_path / "degree4.txt"
    graph.write_text(random_regular(2, 4, 5, 1).to_text())
    argv = ["woven", "build", "--graph", str(graph), "--hc-inline", "1,11,101,111"]
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    assert cli.main([*argv, "--perm", "1,2,3,4"]) == 0
    assert capsys.readouterr().out == default


def test_missing_improved_bound_prints_na(tmp_path, capsys):
    # degree 4 has no improved bound; girth 2 makes the product bound d_free = 3
    graph = tmp_path / "degree4.txt"
    graph.write_text(random_regular(2, 4, 5, 1).to_text())
    argv = ["--graph", str(graph), "--hc-inline", "1,11,101,111"]
    assert cli.main(["woven", "bounds", *argv]) == 0
    assert capsys.readouterr().out == "product_bound=3\nimproved_bound=n/a\n"
    assert cli.main(["woven", "sweep", *argv]) == 0
    rows = [line.split(",", 8) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 24
    assert {(row[4], row[5]) for row in rows} == {("3", "n/a")}
    assert all("bound-contradicted" not in row[8] for row in rows)


def test_mindist_takes_no_enum_limit(tmp_path, capsys):
    matrix = tmp_path / "h.txt"
    matrix.write_text("2 4\n1110\n0111\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["mindist", "--matrix", str(matrix), "--enum-limit", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --enum-limit 5" in capsys.readouterr().err
    assert cli.main(["mindist", "--matrix", str(matrix)]) == 0
    assert "d_min=2\nd_exact=True\n" in capsys.readouterr().out


@pytest.fixture
def hc_file(tmp_path):
    path = tmp_path / "hc.txt"
    path.write_text("1 3\n11001\n110111\n101111\n")  # HC in the polynomial text format
    return path


@pytest.mark.parametrize("argv, message", [
    (["freedist", "--parity-inline", HC, "--gen-inline", "11,1"],
     "give either a generator or a parity-check matrix, not both"),
    (["freedist", "--parity", "{hc}", "--gen-inline", "11,1"],
     "give either a generator or a parity-check matrix, not both"),
    (["freedist", "--gen", "{hc}", "--gen-inline", "11,1"],
     "give either a file or an inline matrix, not both"),
    (["freedist", "--parity", "{hc}", "--parity-inline", HC],
     "give either a file or an inline matrix, not both"),
    (["bounds", "--kind", "costello", "--s", "1"], "--s applies to --kind vg only"),
    # the sweep names the width mismatch before the bounds read a check pair
    (["woven", "sweep", "--graph", "builtin:heawood", "--hc-inline", "1,11,101,111"],
     "check row has 4 columns, graph degree is 3"),
    # --assign takes parts 1..s-1; the part count is checked before the vertex groups
    (["woven-block", "--graph", "builtin:3partite", "--hc-inline", "1,1,1", "--l", "1",
      "--assign", "0,1,2"], "assignment needs parts 1..2, '/'-separated, got 1"),
    (["woven-block", "--graph", "builtin:3partite", "--hc-inline", "1,1,1,1", "--l", "1",
      "--assign", "0,1,2,3/0,1,2,3"], "assignment part 1 needs 4 vertex groups, got 1"),
    # a check matrix of full column rank: blamed on H, as no generator was given
    (["freedist", "--parity-inline", "1"],
     "the code has no nonzero codeword: H has full column rank over GF(2)(D)"),
    # --parity takes neither the binary matrix nor its sub-block length
    (["blockdist", "--parity", "{hc}", "--matrix", "{hc}", "--l", "5"],
     "give either --parity or --matrix with --l, not both"),
    (["blockdist", "--parity", "{hc}", "--l", "1"],
     "give either --parity or --matrix with --l, not both"),
])
def test_conflicting_inputs_are_one_error_line(hc_file, capsys, argv, message):
    assert cli.main([arg.format(hc=hc_file) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("gen", [
    "0,0",
    "1,1;1,1",
    "11,11;11,11",
    "1,1,0;0,1,1;1,0,1",
    # dependent rows whose encoders also have zero-weight cycles
    "1,01;01,001",
    "11,101;11,101",
])
def test_freedist_rejects_dependent_generator_rows(capsys, gen):
    # each generator has a nonzero input that encodes to the zero word
    assert cli.main(["freedist", "--gen-inline", gen]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: a nonzero input encodes to zero: the generator rows are dependent over GF(2)(D)\n")


@pytest.mark.parametrize("flag", ["--budget", "--max-shift", "--nodes", "--target"])
def test_verify_takes_no_search_budget(capsys, flag):
    # the witness search has fixed limits, so no command takes a search budget
    sweep = ["woven", "sweep", "--graph", "builtin:utility", "--hc-inline", "1,11,101"]
    for argv in (["verify", "heawood"], WITNESS, sweep):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, flag, "1"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_off_two_parts_prints_na_bounds_and_orbits(capsys):
    # distance_bounds is derived for s = 2 only, and the 3-partite graph has
    # no circulant labelling, so both bound columns and the orbit are n/a
    common = ["--graph", "builtin:3partite", "--hc-inline", "1,11,101,111"]
    assert cli.main(["woven", "sweep", *common]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "perm,nu_raw,nu_min,k,product_bound,improved_bound,witness,orbit,flags"
    assert len(rows) == 24  # 4! permutations
    for row in rows:
        perm, _, _, _, product, improved, witness, orbit, _ = row.split(",", 8)
        assert (product, improved, orbit) == ("n/a", "n/a", "n/a")
        assert cli.main(["woven", "witness", *common, "--perm", perm.replace("-", ",")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"witness_weight={witness}"
        assert out[-1] == "orbit=n/a"


@pytest.mark.parametrize("argv, out", [
    (["freedist", "--parity-inline", HC], "free_distance=6\n"),
    (["freedist", "--parity", "{hc}"], "free_distance=6\n"),
    (["freedist", "--gen-inline", "101,001,111;0111,1,101"], "free_distance=6\n"),
    (["blockdist", "--parity", "{hc}"], "block_distance=2\n"),
    (["woven", "bounds", "--graph", "builtin:heawood", "--hc-inline", HC],
     "product_bound=18\nimproved_bound=24\n"),
])
def test_constituent_and_bound_commands_print_the_reference_values(hc_file, capsys, argv, out):
    assert cli.main([arg.format(hc=hc_file) for arg in argv]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("gen, d_free", [
    ("11,11", 2),                          # catastrophic: the code of (1, 1)
    ("1,10000000000000000000000001", 3),   # constraint length 25
])
def test_freedist_prints_the_free_distance_of_the_code(capsys, gen, d_free):
    assert cli.main(["freedist", "--gen-inline", gen]) == 0
    assert capsys.readouterr().out == f"free_distance={d_free}\n"


@pytest.mark.parametrize("s", ["1", "0", "-3", "2,1"])
def test_bounds_rejects_s_below_two_before_walking(capsys, s):
    assert cli.main(["bounds", "--kind", "vg", "--s", s, "--step", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need s >= 2\n"


@pytest.mark.parametrize("l", ["-1", "0", "4"])
def test_blockdist_rejects_a_block_length_that_does_not_tile(tmp_path, capsys, l):
    matrix = tmp_path / "h.txt"
    matrix.write_text("3 6\n110100\n011010\n101001\n")
    assert cli.main(["blockdist", "--matrix", str(matrix), "--l", l]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--l" in err
    assert cli.main(["blockdist", "--matrix", str(matrix), "--l", "2"]) == 0
    assert capsys.readouterr().out == "block_distance=2\n"


@pytest.mark.parametrize("command", ["blockdist", "freedist"])
def test_a_full_rank_parity_matrix_is_one_error_line(tmp_path, capsys, command):
    # the 2x2 identity checks every coordinate: both distances name the same fault
    identity = tmp_path / "identity.txt"
    identity.write_text("2 2\n1\n0\n0\n1\n")
    assert cli.main([command, "--parity", str(identity)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: the code has no nonzero codeword: H has full column rank over GF(2)(D)\n")


@pytest.mark.parametrize("assign, d_min, contradicted", [
    (None, "4", "True"),                  # identity routing: a weight-4 codeword
    ("1,2,0;0,1,2;2,0,1", "10", "False"),
])
def test_woven_block_flags_a_bound_above_the_measured_distance(monkeypatch, capsys, assign,
                                                                d_min, contradicted):
    # block distance 1 certifies the constituent distance 3 on both routings;
    # a bound of 5, between the two distances, is contradicted by the first
    argv = ["woven-block", "--graph", "builtin:utility", "--hc-inline", BLOCK_HC, "--l", "4",
            *(["--assign", assign] if assign else [])]

    def report() -> tuple[str, ...]:
        assert cli.main(argv) == 0
        keys, values = zip(*(line.split("=", 1) for line in capsys.readouterr().out.splitlines()))
        assert keys.index("bound_contradicted") == keys.index("bound") + 1
        fields = dict(zip(keys, values))
        return tuple(fields[k] for k in ("d_min", "d_exact", "bound", "bound_contradicted"))

    assert report() == (d_min, "True", "3", "False")
    monkeypatch.setattr(blockcodes, "product_distance_bound", lambda *args: 5)
    assert report() == (d_min, "True", "5", contradicted)


@pytest.mark.parametrize("argv, out", [
    (["mindist", "--matrix", "{matrix}"],
     "name,n,k,d_min,d_exact,d_floor\n{matrix},4,2,2,True,2\n"),
    (["graph-code", "--graph", "builtin:heawood"],
     "name,n,k,d_min,d_exact,d_floor,girth,rate,rate_bound\n"
     "graph-code:builtin:heawood,21,8,6,True,6,6,8/21,1/3\n"),
    (["woven-block", "--graph", "builtin:utility", "--hc-inline", "1,1,1", "--l", "1"],
     "name,n,k,d_min,d_exact,d_floor,bound,bound_contradicted,rate,rate_bound\n"
     "woven-block:builtin:utility,9,4,4,True,4,4,False,4/9,1/3\n"),
])
def test_code_reports_print_a_csv_header_and_row(tmp_path, capsys, argv, out):
    matrix = tmp_path / "h.txt"
    matrix.write_text("2 4\n1110\n0111\n")
    assert cli.main([*(arg.format(matrix=matrix) for arg in argv), "--format", "csv"]) == 0
    assert capsys.readouterr().out == out.format(matrix=matrix)


def test_report_out_writes_the_report_to_the_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    assert cli.main(["graph-code", "--graph", "builtin:utility", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == ("name=graph-code:builtin:utility\nn=9\nk=4\nd_min=4\n"
                                "d_exact=True\nd_floor=4\ngirth=4\nrate=4/9\nrate_bound=1/3\n")


@pytest.mark.parametrize("command", [["graph-code"], ["woven-block", "--l", "1"]])
def test_rate_bound_reads_the_constituent_rate_not_its_row_count(capsys, command):
    # the second check row repeats the first, so the constituent has rate 2/3
    assert cli.main([*command, "--graph", "builtin:heawood", "--hc-inline", "1,1,1;1,1,1"]) == 0
    assert "rate_bound=1/3" in capsys.readouterr().out.splitlines()


def test_assign_takes_block_orders_for_every_later_part(capsys):
    # s = 3: parts 1 and 2, "/"-separated; the explicit identity routes as no --assign
    g = build_three_partite()
    ident, swapped = ";".join(["0,1,2,3"] * 4), ";".join(["1,0,2,3"] * 4)
    assert cli.parse_assignment(f"{ident}/{ident}", g) == identity_assignment(g)
    assert cli.parse_assignment(f"{ident}/{swapped}", g)[1:] == (identity_assignment(g)[1],
                                                                 ((1, 0, 2, 3),) * 4)
    argv = ["woven-block", "--graph", "builtin:3partite", "--hc-inline", "1,1,1,1", "--l", "1"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert cli.main([*argv, "--assign", f"{ident}/{ident}"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv, out", [
    # block distance 1: one active constituent, so the bound is its distance 1
    (["woven-block", "--graph", "builtin:utility", "--hc-inline", "1,0,0", "--l", "1"],
     "bound=1\nbound_contradicted=False\n"),
    (["woven", "bounds", "--graph", "builtin:utility", "--hc-inline", "1,0,0"],
     "product_bound=1\nimproved_bound=n/a\n"),
    (["woven", "sweep", "--graph", "builtin:utility", "--hc-inline", "1,0,0"],
     "\n1-2-3,0,0,6,1,n/a,1,"),
    # girth 2: two parallel edges carry a weight-2 word of the single parity check
    (["woven-block", "--graph", "{degree4}", "--hc-inline", "1,1,1,1", "--l", "1"],
     "bound=2\nbound_contradicted=False\n"),
])
def test_bounds_hold_below_block_distance_two_and_at_girth_two(tmp_path, capsys, argv, out):
    graph = tmp_path / "degree4.txt"
    graph.write_text(random_regular(2, 4, 5, 1).to_text())
    assert cli.main([arg.format(degree4=graph) for arg in argv]) == 0
    assert out in capsys.readouterr().out


def test_woven_encode_prints_encode_stream_bits(tmp_path, capsys):
    rng = random.Random(3)
    bits = [rng.randrange(2) for _ in range(7 * 12 + 3)]
    text = "".join(map(str, bits))
    path = tmp_path / "info.txt"
    # ASCII whitespace anywhere in the file is dropped
    path.write_bytes(f" {text[:30]}\t{text[30:60]}\r\n{text[60:]}\x0b\x0c\n".encode())
    argv = ["woven", "encode", "--graph", "builtin:heawood", "--hc-inline", HC,
            "--perm", "1,3,2", "--in", str(path)]
    code = woven.build_woven_conv(build_heawood(), cli.parse_poly_matrix_inline(HC), (1, 3, 2))
    assert cli.main(argv + ["--pad"]) == 0
    want = woven.encode_stream(code, bits, pad=True)
    assert len(want) == 21 * 13
    assert capsys.readouterr().out == "".join(map(str, want)) + "\n"

    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "pad" in captured.err


@pytest.mark.parametrize("text", ["0120101x1\n", "0101\x00101\n", "0101\x01101\n", "0101,0101"])
def test_woven_encode_rejects_every_byte_but_bits_and_whitespace(tmp_path, capsys, text):
    path = tmp_path / "info.txt"
    path.write_bytes(text.encode())
    argv = ["woven", "encode", "--graph", "builtin:heawood", "--hc-inline", HC, "--in", str(path),
            "--pad"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: info bits must be 0 or 1\n"


@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_woven_bounds_and_sweep_take_no_perm(capsys, command):
    # neither output depends on the check permutation: the sweep runs all c!
    argv = ["woven", command, "--graph", "builtin:utility", "--hc-inline", "1,11,101"]
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--perm", "1,3,2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --perm 1,3,2" in capsys.readouterr().err


def test_woven_build_and_sweep_report_no_raw_generator_off_the_circulant_labelling(
        tmp_path, capsys):
    # renaming the right vertices permutes the rows of H_wg only: the code and its
    # minimal generator stay, but the raw generator needs the circulant labelling
    heawood = tmp_path / "heawood.txt"
    heawood.write_text(relabel_right(build_heawood(), [3, 6, 0, 5, 1, 4, 2]).to_text())
    argv = ["woven", "build", "--graph", str(heawood), "--hc-inline", HC, "--perm", "1,3,2"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "14 21"
    assert captured.err.splitlines() == ["nu_raw=n/a", "nu_minimal=64", "dimension=7"]

    utility = tmp_path / "utility.txt"
    utility.write_text(relabel_right(build_utility(), [0, 2, 1]).to_text())
    assert cli.main(["--threads", "1", "woven", "sweep", "--graph", str(utility),
                     "--hc-inline", "1,11,101"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 6
    assert {row[1] for row in rows} == {"n/a"}


def test_woven_witness_prints_its_search_counters(capsys):
    assert cli.main(WITNESS) == 0
    keys, values = zip(*(line.split("=", 1) for line in capsys.readouterr().out.splitlines()))
    assert keys == ("witness_weight", "exact", "words_enumerated", "nodes_expanded", "orbit")
    code = woven.build_woven_conv(cli.load_graph("builtin:utility"),
                                  cli.parse_poly_matrix_inline("1,11,101"))
    res = woven.witness_search(code)
    assert values[:4] == (str(res.weight), str(res.exact), str(res.words_enumerated),
                          str(res.nodes_expanded))


# expected output of ``wgc verify heawood``, byte for byte
VERIFY_HEAWOOD = """\
graph girth                               expected=6            got=6            PASS
graph code (n,k)                          expected=(21, 8)      got=(21, 8)      PASS
graph code d_min                          expected=6            got=6            PASS
wrapped parent = incidence (up to perm)   expected=True         got=True         PASS
wrapped-parent code (n,k)                 expected=(21, 7)      got=(21, 7)      PASS
wrapped-parent code d_min                 expected=6            got=6            PASS
constituent nu                            expected=5            got=5            PASS
constituent d_free                        expected=6            got=6            PASS
constituent block distance                expected=2            got=2            PASS
rate-1/2 subcode min d_free               expected=8            got=8            PASS
raw constraint length                     expected=70           got=70           PASS
minimal constraint length                 expected=64           got=64           PASS
minimal constraint length perm (2, 1, 3)  expected=65           got=65           PASS
minimal constraint length perm (2, 3, 1)  expected=66           got=66           PASS
product bound                             expected=18           got=18           PASS
improved bound                            expected=24           got=24           PASS
witness weight                            expected=32           got=32           PASS
witness orbit                             expected=7            got=7            PASS
witness weight perm (2, 3, 1)             expected=30           got=30           PASS
19/19 checks passed
"""
# expected output of the Heawood sweep over all six permutations, byte for byte
SWEEP_HEAWOOD = """\
perm,nu_raw,nu_min,k,product_bound,improved_bound,witness,orbit,flags
1-2-3,70,65,8,18,24,30,7,rank-deficient
1-3-2,70,64,7,18,24,32,7,
2-1-3,70,65,7,18,24,32,7,
2-3-1,70,66,7,18,24,30,7,equivalent-to:3,1,2
3-1-2,70,66,7,18,24,30,7,equivalent-to:2,3,1
3-2-1,70,65,7,18,24,28,7,
"""
SWEEP = ["woven", "sweep", "--graph", "builtin:heawood", "--hc-inline", HC]


def test_verify_heawood_reproduces_every_check(capsys):
    assert cli.main(["verify", "heawood"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "19/19 checks passed"
    assert out == VERIFY_HEAWOOD


def test_old_threads_command_lines_still_parse_and_print_the_sweep(capsys):
    assert cli.main(["--threads", "1", *SWEEP]) == 0
    serial = capsys.readouterr().out
    assert cli.main(["--threads", "2", *SWEEP]) == 0
    assert capsys.readouterr().out == serial == SWEEP_HEAWOOD
