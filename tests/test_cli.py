"""Command-line entry points and error reporting."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from wgc import cli, woven

SRC = Path(__file__).resolve().parents[1] / "src"


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
