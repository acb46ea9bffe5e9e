"""Write perfbench/reference.json from the wgc sources of a checkout.

The committed reference.json was written from commit 36799c92 (the commit
the benchmark was defined on).  Later commits must reproduce these outputs,
so only rerun this deliberately, on a commit whose outputs you have checked:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from wgc import blockcodes, cli, hypergraphs, woven  # noqa: E402
from wgc.gf2 import BinaryMatrix, PolyMatrix  # noqa: E402

CONSTITUENT_CHECK = ["11001", "110111", "101111"]
BEST_PERM = [1, 3, 2]
# tests/conftest.py::WOVEN_BLOCK_CONSTITUENT_ROWS
WOVEN_BLOCK_CONSTITUENT = [
    "100011101100",
    "010001110110",
    "001010110011",
    "000111011001",
]


def poly_strings(m: PolyMatrix) -> list[list[str]]:
    return [[p.to_string() for p in row] for row in m.entries]


def main() -> None:
    g = hypergraphs.build_heawood()
    hc = cli.parse_poly_matrix_inline(",".join(CONSTITUENT_CHECK))
    code = woven.build_woven_conv(g, hc, tuple(BEST_PERM))
    block = blockcodes.build_woven_block(
        g, blockcodes.LinearBlockCode(BinaryMatrix.from_strings(WOVEN_BLOCK_CONSTITUENT)),
        blockcodes.BlockStructure(4, 3))
    sweep = subprocess.run(
        [sys.executable, "-m", "wgc.cli", "--threads", "1", "woven", "sweep",
         "--graph", "builtin:heawood", "--hc-inline", ",".join(CONSTITUENT_CHECK)],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True)
    ref = {
        "constituent_check": CONSTITUENT_CHECK,
        "best_perm": BEST_PERM,
        "sweep_csv": sweep.stdout.splitlines(),
        "H_wg": poly_strings(code.H_wg),
        "expanded_generator": poly_strings(woven.expanded_generator(code)),
        "woven_block_constituent": WOVEN_BLOCK_CONSTITUENT,
        "woven_block_H": block.code.H.to_strings(),
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
