"""Tests of the benchmark's own code: tracer, inputs, oracles and output checks.

The repository's test run does not collect this file; run it with

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REFERENCE  # noqa: E402

import wgc.blockcodes  # noqa: E402
import wgc.cli  # noqa: E402
import wgc.convcodes  # noqa: E402
import wgc.gf2  # noqa: E402
import wgc.hypergraphs  # noqa: E402
import wgc.verify  # noqa: E402
import wgc.woven  # noqa: E402


# ---------------------------------------------------------------------------
# tracer


def test_tracer_replaces_every_binding_and_restores_it():
    originals = (wgc.hypergraphs.sd_girth, wgc.convcodes.free_distance, wgc.gf2.tailbite)
    with Tracer():
        assert wgc.blockcodes.sd_girth is wgc.hypergraphs.sd_girth is not originals[0]
        assert wgc.woven.free_distance is wgc.convcodes.free_distance is not originals[1]
        assert wgc.woven.girth is wgc.hypergraphs.girth
        assert wgc.verify.permutation_equivalent is wgc.gf2.permutation_equivalent
        assert wgc.verify.tailbite is wgc.gf2.tailbite is not originals[2]
    assert (wgc.blockcodes.sd_girth, wgc.woven.free_distance, wgc.verify.tailbite) == originals


def subtree(spans, root: int) -> list[int]:
    out = [root]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent in out:
            out.append(i)
    return out


def test_nested_chain_is_attributed_and_self_times_add_up():
    # the woven-block chain on the small K3,3 graph: cli.main -> product_distance_bound -> sd_girth
    argv = ["woven-block", "--graph", "builtin:utility", "--hc-inline", "1,1,1", "--l", "1"]
    tracer = Tracer()
    with tracer:
        code, _ = workloads.cli_call(argv)()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    sd = names.index("hypergraphs.sd_girth")
    bound = tracer.spans[sd][3]
    assert names[bound] == "blockcodes.product_distance_bound"
    main = tracer.spans[bound][3]
    assert names[main] == "cli.main" and tracer.spans[main][3] == -1

    own = tracer.self_times()
    for root in (main, bound):
        _, start, end, _ = tracer.spans[root]
        assert sum(own[i] for i in subtree(tracer.spans, root)) == pytest.approx(end - start,
                                                                                   abs=1e-9)
    assert all(t >= 0 for t in own)
    totals = tracer.layer_totals()
    assert totals["cli.main"][0] == 1 and totals["hypergraphs.sd_girth"][0] >= 1


def test_result_counters_read_return_values():
    tracer = Tracer()
    code = wgc.blockcodes.LinearBlockCode(wgc.gf2.BinaryMatrix.from_strings(["1110", "0111"]))
    with tracer:
        wgc.blockcodes.min_distance(code)
        wgc.blockcodes.min_distance(code, full_enum_limit=0)
    assert tracer.counts["blockcodes.min_distance"]["exact"] == 2
    assert tracer.layer_totals()["blockcodes.min_distance"][0] == 2


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert make(7) == make(7)


@pytest.mark.parametrize("name", ["codes-cli", "encode-stream"])
def test_other_seed_gives_other_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert make(7) != make(8)


def test_enum_code_has_the_stated_dimension():
    rows = workloads.random_check_matrix(np.random.default_rng(3))
    assert wgc.blockcodes.LinearBlockCode(wgc.gf2.BinaryMatrix.from_strings(rows)).k == 22


# ---------------------------------------------------------------------------
# oracles


def brute_min_distance(rows: list[str]) -> int:
    n = len(rows[0])
    h = [int(r[::-1], 2) for r in rows]
    best = n + 1
    for word in range(1, 1 << n):
        if all((r & word).bit_count() % 2 == 0 for r in h):
            best = min(best, word.bit_count())
    return best


def test_distance_oracles_match_brute_force():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randrange(6, 13)
        m = rng.randrange(2, n - 1)
        rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(m)]
        true = brute_min_distance(rows)
        if true > n:
            continue
        assert oracles.min_distance(rows, table_bits=2) == true
        assert oracles.dependency_weight(rows) == (true if true <= 4 else None)


def test_wide_code_has_a_weight_four_word():
    assert oracles.dependency_weight(REFERENCE["woven_block_H"]) == 4


def test_wrapped_syndrome_matches_tailbite():
    h = wgc.gf2.PolyMatrix([[wgc.gf2.BinaryPoly.parse(p) for p in row]
                            for row in REFERENCE["H_wg"]])
    levels = 64
    matrix = wgc.gf2.tailbite(h, levels)
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, size=7 * levels, dtype=np.uint8)
    codeword = oracles.reference_encode(REFERENCE["expanded_generator"], info, levels)
    for vec in (codeword, rng.integers(0, 2, size=21 * levels, dtype=np.uint8)):
        packed = int("".join(map(str, vec[::-1])), 2)
        syn = oracles.wrapped_syndrome(REFERENCE["H_wg"], vec, levels).reshape(-1)
        assert matrix.mul_vec(packed) == int("".join(map(str, syn[::-1])), 2)
    assert not oracles.wrapped_syndrome(REFERENCE["H_wg"], codeword, levels).any()


# ---------------------------------------------------------------------------
# output checks reject corrupted outputs


def sweep_text(edit=None) -> str:
    rows = [line.split(",", 8) for line in REFERENCE["sweep_csv"]]
    if edit:
        edit(rows)
    return "\n".join(",".join(r) for r in rows) + "\n"


def test_sweep_check():
    assert workloads.check_sweep(0, sweep_text()) is None

    def lower_witness(rows):
        rows[2][6] = "26"   # still at or above improved_bound=24

    assert workloads.check_sweep(0, sweep_text(lower_witness)) is None
    for col, value in ((2, "63"), (6, "34"), (6, "20"), (8, "")):
        def corrupt(rows, col=col, value=value):
            rows[1][col] = value
        assert workloads.check_sweep(0, sweep_text(corrupt)) is not None, (col, value)
    assert workloads.check_sweep(0, sweep_text(lambda rows: rows.pop())) is not None
    assert workloads.check_sweep(1, sweep_text()) is not None


def test_verify_check():
    assert workloads.check_verify(0, "a PASS\n19/19 checks passed\n") is None
    assert workloads.check_verify(1, "a FAIL\n18/19 checks passed\n") is not None


def report(**fields) -> str:
    return "".join(f"{k}={v}\n" for k, v in fields.items())


def test_distance_checks():
    wide = workloads.check_wide_code(4)
    assert wide(0, report(n=84, k=28, d_min=11, d_exact=False, d_floor=4)) is None
    assert wide(0, report(n=84, k=28, d_min=4, d_exact=True, d_floor=4)) is None
    for d_min, floor in ((12, 4), (3, 3), (11, 5)):
        assert wide(0, report(n=84, k=28, d_min=d_min, d_exact=False, d_floor=floor)) is not None
    assert wide(0, report(n=84, k=27, d_min=11, d_exact=False, d_floor=4)) is not None

    enum = workloads.check_enum_code(7)
    assert enum(0, report(n=44, k=22, d_min=7, d_exact=True, d_floor=7)) is None
    assert enum(0, report(n=44, k=22, d_min=8, d_exact=True, d_floor=8)) is not None
    assert enum(0, report(n=44, k=22, d_min=7, d_exact=False, d_floor=6)) is not None


def test_frame_check():
    levels = 64
    info = np.random.default_rng(9).integers(0, 2, size=7 * levels, dtype=np.uint8)
    good = oracles.reference_encode(REFERENCE["expanded_generator"], info, levels)
    check = workloads.check_frame(levels, workloads.frame_digest(good))
    assert check(0, good.tolist()) is None
    flipped = good.copy()
    flipped[100] ^= 1
    assert check(0, flipped.tolist()) == "nonzero syndrome"
    assert check(0, [0] * good.size) is not None  # a zero frame has zero syndrome too


def test_curves_check():
    from wgc import bounds

    text = bounds.curves_csv(bounds.emit_curves([2, 3, 4, 5], 0.001, "vg"))
    assert workloads.check_curves(0, text) is None
    lines = text.splitlines()

    def edited(s: str, rate: str, delta: float, regime: str) -> str:
        i = lines.index(next(line for line in lines if line.startswith(f"{s},{rate},")))
        return "\n".join([*lines[:i], f"{s},{rate},{delta:.10g},{regime}", *lines[i + 1:]])

    # s=2, R=0.9 is graph-limited: the VG root lies below the boundary
    assert bounds.woven_vg_bound(0.9, 2).regime == "graph-limited"
    assert workloads.check_curves(0, edited("2", "0.9", bounds.vg_delta(0.9), "vg")) is not None
    # a mid-range delta off by 0.1%, and the smallest delta on the grid off by 1% or halved
    for s, rate, factor in (("3", "0.5", 1.001), ("2", "0.999", 1.01), ("2", "0.999", 0.5)):
        pt = bounds.woven_vg_bound(float(rate), int(s))
        bad = edited(s, rate, pt.delta * factor, pt.regime)
        assert workloads.check_curves(0, bad) is not None, (s, rate, factor)
    assert workloads.check_curves(0, "\n".join(lines[:-1])) is not None


# ---------------------------------------------------------------------------
# runner


def test_highest_percentile_keeps_ten_samples_beyond():
    assert run.highest_percentile(list(range(19))) is None
    assert run.highest_percentile(list(range(20)))[0] == 50
    assert run.highest_percentile(list(range(100)))[0] == 90
    assert run.highest_percentile(list(range(1000)))[0] == 99


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "heawood-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_encode_cycle_in_process():
    inputs = workloads.EncodeStream.make_inputs(4)
    ops = workloads.EncodeStream.build_ops(inputs, Path("."))
    short = [op for op in ops if op.kind == "encode_short"][:3]
    for op in short:
        sample, _ = run.run_op(op, deadline=float("inf"), in_process=True)
        assert sample.ok, sample.error or sample.wrong
    assert [op.label for op in ops] == json.loads(inputs["order.json"])


def test_child_peak_rss_leaves_out_the_benchmark_process():
    ballast = np.ones(64 << 20, dtype=np.uint8)  # 64 MiB resident in this process
    run.OUT.mkdir(exist_ok=True)
    code, _, _, _, rss_kb = run.run_process([sys.executable, "-c", "pass"],
                                            run.perf_counter() + 60)
    assert ballast.all() and code == 0 and 0 < rss_kb < 32 * 1024
