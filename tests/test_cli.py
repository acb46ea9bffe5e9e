"""Command-line entry points and error reporting."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wgc import cli, woven
from wgc.hypergraphs import build_heawood
from conftest import WOVEN_BLOCK_CONSTITUENT_ROWS

SRC = Path(__file__).resolve().parents[1] / "src"
HC = "11001,110111,101111"
BLOCK_HC = ";".join(",".join(row) for row in WOVEN_BLOCK_CONSTITUENT_ROWS)


def test_package_runs_as_module():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wgc", "bounds", "--kind", "costello", "--step", "0.1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "rate,delta"


def test_invariant_failure_is_a_clean_error(monkeypatch, capsys):
    def broken(code):
        raise AssertionError("expanded generator failed the parity check")

    monkeypatch.setattr(woven, "generator_report", broken)
    status = cli.main(["woven", "build", "--graph", "builtin:utility", "--hc-inline", "1,11,101"])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["freedist", "--gen-inline", "o"],
    ["woven-block", "--graph", "builtin:utility", "--hc-inline", "1,1,1", "--l", "0"],
    ["girth", "--graph", "{empty}"],
    ["woven", "build", "--graph", "builtin:utility", "--hc", "{empty}"],
])
def test_malformed_input_is_a_clean_error(tmp_path, capsys, argv):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert cli.main([arg.format(empty=empty) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("l", ["-1", "0", "4"])
def test_blockdist_rejects_a_block_length_that_does_not_tile(tmp_path, capsys, l):
    matrix = tmp_path / "h.txt"
    matrix.write_text("3 6\n110100\n011010\n101001\n")
    assert cli.main(["blockdist", "--matrix", str(matrix), "--l", l]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--l" in err
    assert cli.main(["blockdist", "--matrix", str(matrix), "--l", "2"]) == 0
    assert capsys.readouterr().out == "block_distance=2\n"


@pytest.mark.parametrize("assign, d_min, contradicted", [
    (None, "4", "True"),                  # identity routing: a weight-4 codeword
    ("1,2,0;0,1,2;2,0,1", "10", "False"),
])
def test_woven_block_flags_a_bound_above_the_measured_distance(capsys, assign, d_min,
                                                                contradicted):
    argv = ["woven-block", "--graph", "builtin:utility", "--hc-inline", BLOCK_HC, "--l", "4"]
    assert cli.main(argv + (["--assign", assign] if assign else [])) == 0
    keys, values = zip(*(line.split("=", 1) for line in capsys.readouterr().out.splitlines()))
    fields = dict(zip(keys, values))
    assert (fields["d_min"], fields["d_exact"], fields["bound"]) == (d_min, "True", "9")
    assert fields["bound_contradicted"] == contradicted
    assert keys.index("bound_contradicted") == keys.index("bound") + 1


def test_woven_encode_prints_encode_stream_bits(tmp_path, capsys):
    rng = random.Random(3)
    bits = [rng.randrange(2) for _ in range(7 * 12 + 3)]
    path = tmp_path / "info.txt"
    path.write_text("".join(map(str, bits)) + "\n")
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
