"""Benchmark for wgc: one client, closed loop, every output checked.

    python3 perfbench/run.py --workload heawood-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is ``src/wgc`` of
that checkout.  ``--trace 0`` times the operations with tracing off for
about ``--seconds`` and reports the end-to-end metrics, the gated times
divided by the run's slowdown on REFERENCE_JOB; ``--trace 1`` runs
one cycle in-process, each operation once untraced and once traced, and
reports per-layer calls, self time, counters and the tracing overhead.
Human-readable lines go first; the last line of stdout is the JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES_PER_RUN = 15  # set-up and reference-job probes, each, per run
# Fixed pure-Python work in the style of the program's inner loops (big-int XOR
# and popcount, dict counting, list scans).  Its time tells how fast the machine
# runs such code at that moment; it must never change.
REFERENCE_JOB = """
rows = [(i * 0x9E3779B97F4A7C15) & ((1 << 84) - 1) for i in range(1, 17)]
word = prev = 0
best = 84
for m in range(1, 1 << 16):
    g = m ^ (m >> 1)
    diff = g ^ prev
    prev = g
    word ^= rows[(diff & -diff).bit_length() - 1]
    if word.bit_count() < best:
        best = word.bit_count()
counts = {}
for i in range(60000):
    k = (i * 7919) % 1021
    counts[k] = counts.get(k, 0) + 1
acc = 0
for row in [[(i * j) & 1 for j in range(21)] for i in range(3000)]:
    for j, b in enumerate(row):
        if b:
            acc ^= j
"""
# Normalised times are seconds on a machine that runs REFERENCE_JOB in this long.
REFERENCE_JOB_S = 0.1
RUN_LIMIT_S = 170  # every run must end within 180 s
PERCENTILES = (50, 90, 99, 99.9)

# Per-operation metrics the report prints beside the gated ones: kind -> (name, unit)
OP_METRICS = {
    "verify": ("verify_p50_s", "s"), "sweep": ("sweep_p50_s", "s"),
    "woven_block": ("woven_block_p50_s", "s"),
    "mindist_wide": ("mindist_wide_p50_s", "s"), "mindist_enum": ("mindist_enum_p50_s", "s"),
    "curves": ("curves_p50_s", "s"), "encode_long": ("encode_long_kbps", "kbit/s"),
    "encode_short": ("encode_short_kbps", "kbit/s"),
}


# Runs one command (argv[2:]) and writes its exit code, wall time and the peak RSS of
# it and its children to the file argv[1].  A process's peak RSS includes the memory
# of the process it was started from, so the operations are started from this small
# interpreter, not from the benchmark process with numpy and the oracles' arrays.
LAUNCHER = """
import resource, subprocess, sys
from time import perf_counter
t0 = perf_counter()
code = subprocess.call(sys.argv[2:])
seconds = perf_counter() - t0
with open(sys.argv[1], "w") as f:
    f.write(f"{code} {seconds!r} {resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}")
"""


class Sample:
    def __init__(self, op, seconds: float, error: str | None, wrong: str | None,
                 rss_kb: int = 0):
        self.kind, self.seconds, self.error, self.wrong = op.kind, seconds, error, wrong
        self.info_bits, self.rss_kb = op.info_bits, rss_kb

    @property
    def ok(self) -> bool:
        return self.error is None and self.wrong is None


# ---------------------------------------------------------------------------
# running operations


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], deadline: float) -> tuple[int | None, str, str, float, int]:
    """Run a child through LAUNCHER in its own process group; kill the group when done or late.

    Returns the exit code (None when the child ran out of time), stdout, stderr,
    wall time and the peak RSS in KiB of the child and its children.
    """
    report = OUT / f"launch-{os.getpid()}.txt"
    report.unlink(missing_ok=True)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(report), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        out, err = "", "timed out"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers a crashed parent left behind
        except ProcessLookupError:
            pass
        proc.communicate()
    if proc.returncode != 0 or not report.is_file():
        return None, out, err, perf_counter() - t0, 0
    code, seconds, rss_kb = report.read_text().split()
    report.unlink()
    return int(code), out, err, float(seconds), int(rss_kb)


def run_op(op, deadline: float, in_process: bool) -> tuple[Sample, object]:
    """Run one operation and check its output; returns the sample and the output."""
    if op.argv is not None and not in_process:
        code, out, err, seconds, rss_kb = run_process([sys.executable, "-m", "wgc.cli",
                                                       *op.argv], deadline)
        if code is None or (code != 0 and not out.strip()):
            lines = err.strip().splitlines()
            return Sample(op, seconds, f"exit {code}: {lines[-1] if lines else ''}", None,
                          rss_kb), out
        return Sample(op, seconds, None, op.check(code, out), rss_kb), out
    t0 = perf_counter()
    try:
        code, out = op.call()
    except Exception as exc:  # an operation that raises counts as failed, the run goes on
        reason = "".join(traceback.format_exception_only(exc)).strip()
        return Sample(op, perf_counter() - t0, reason, None), None
    seconds = perf_counter() - t0
    return Sample(op, seconds, None, op.check(code, out)), out


def closed_loop(ops, seconds: float, hard_deadline: float, probes: dict[str, list[str]]
                ) -> tuple[list[Sample], dict[str, list[float]]]:
    """Run the ops in turn, one at a time, for about ``seconds``.

    The first cycle always completes, so every operation has a sample even
    when one cycle is longer than the run; after it, the next operation
    starts while time is left.  Each probe command is timed PROBES_PER_RUN
    times, between operations spread over the run, so its median sees the
    same machine as the operations do.
    """
    samples: list[Sample] = []
    times: dict[str, list[float]] = {name: [] for name in probes}

    def probe_all() -> None:
        for name, argv in probes.items():
            code, _, err, took, _ = run_process(argv, hard_deadline)
            if code != 0:
                raise RuntimeError(f"{name} probe failed: {err.strip()}")
            times[name].append(took)

    spacing = seconds / PROBES_PER_RUN
    next_probe = perf_counter()
    end = next_probe + seconds
    for i in itertools.count():
        if i >= len(ops) and perf_counter() >= end:
            break
        if perf_counter() >= next_probe:
            probe_all()
            next_probe = perf_counter() + spacing
        samples.append(run_op(ops[i % len(ops)], hard_deadline, in_process=False)[0])
        if perf_counter() > hard_deadline:
            return samples, times
    while min(map(len, times.values())) < PROBES_PER_RUN:
        probe_all()
    return samples, times


# ---------------------------------------------------------------------------
# statistics and report


def highest_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for p in PERCENTILES:
        rank = math.ceil(round(len(ordered) * p / 100, 9))  # nearest-rank, 1-based
        if len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def describe(values: list[float]) -> str:
    tail = highest_percentile(values)
    return f"n={len(values)}" + (f" p{tail[0]:g}={tail[1]:.6g}" if tail else " (n<20: no tail)")


def failure_lines(samples: list[Sample]) -> list[str]:
    lines = []
    for kind in dict.fromkeys(s.kind for s in samples):
        bad = [s for s in samples if s.kind == kind and not s.ok]
        if bad:
            lines.append(f"  {kind}: {len(bad)} failed, e.g. {bad[0].error or bad[0].wrong}")
    return lines


def timed_run(workload, inputs, workdir: Path, seconds: int, hard_deadline: float) -> dict:
    ops = workload.build_ops(inputs, workdir)
    peak_kb = 0
    if ops[0].argv is None:
        # the operations run in this process, beside numpy and the oracles' arrays,
        # so peak_rss_mb comes from a child that imports only wgc and runs the cycle once
        code, _, err, _, peak_kb = run_process([sys.executable, "-c", workload.rss_code,
                                                *workload.rss_args(workdir)], hard_deadline)
        if code != 0:
            raise RuntimeError(f"memory probe failed: {err.strip()}")
    probes = {"setup": [sys.executable, "-c", workload.setup_code,
                        *workload.setup_args(workdir)],
              "reference": [sys.executable, "-c", REFERENCE_JOB]}
    samples, probe_times = closed_loop(ops, seconds, hard_deadline, probes)
    # run once after the timed loop and kept out of the counts, so a known crash
    # shows in every report without making the failure count vary with run length
    defects = [run_op(op, hard_deadline, in_process=False)[0]
               for op in getattr(workload, "defect_ops", list)()]
    peak_kb = max([peak_kb, *(s.rss_kb for s in samples)])

    by_kind: dict[str, list[Sample]] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s)
    ok_times = {kind: [s.seconds for s in group if s.ok] for kind, group in by_kind.items()}
    missing = [kind for kind in workload.baseline_s if not ok_times.get(kind)]
    setup = statistics.median(probe_times["setup"])
    # how much slower than the reference speed the machine ran during this run
    slowdown = statistics.median(probe_times["reference"]) / REFERENCE_JOB_S
    ratios = {kind: statistics.median(ok_times[kind]) / slowdown / base
              for kind, base in workload.baseline_s.items() if kind not in missing}
    metrics = {
        "op_worst_ratio": (max(ratios.values(), default=0.0), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup / slowdown, "s"),
    }
    failed = sum(not s.ok for s in samples)

    print(f"workload {workload.name}: closed loop, 1 client, {len(samples)} operations "
          f"in {sum(s.seconds for s in samples):.1f} s")
    print(f"  reference job: median {slowdown * REFERENCE_JOB_S:.4f} s, so the machine ran "
          f"{slowdown:.3f}x the reference time; gated times are divided by that")
    print(f"  {'metric':<20} {'unit':<7} {'value':>12}  samples")
    rows = [("op_worst_ratio", *metrics["op_worst_ratio"], "largest of " + ", ".join(
                f"{kind} {ratio:.4f}" for kind, ratio in ratios.items())),
            ("peak_rss_mb", *metrics["peak_rss_mb"],
             "max over the operation processes" if ops[0].argv else "the cycle run in a child"),
            ("setup_s", *metrics["setup_s"],
             describe(probe_times["setup"]) + f"; {setup:.6g} s measured")]
    for kind, group in by_kind.items():
        name, unit = OP_METRICS[kind]
        times = ok_times[kind]
        if not times:
            rows.append((name, None, unit, f"n=0 ({len(group)} attempted, all failed)"))
        elif unit == "kbit/s":
            rows.append((name, group[0].info_bits / statistics.median(times) / 1000, unit,
                         describe(times) + ", in s per frame"))
        else:
            rows.append((name, statistics.median(times), unit, describe(times)))
    rows.append(("failed_share", failed / len(samples), "ratio", f"{failed}/{len(samples)}"))
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {unit:<7} {shown:>12}  {note}")
    for line in failure_lines(samples):
        print(line)
    for kind in missing:
        print(f"  {kind}: no correct sample, so op_worst_ratio leaves it out")
    for d in defects:
        print(f"  known defect {d.kind}, run once, not counted: "
              + ("passed its check" if d.ok else f"failed, {d.error or d.wrong}"))
    return {
        "correct": not any(s.wrong for s in samples) and not missing,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def traced_run(workload, inputs, workdir: Path, hard_deadline: float) -> dict:
    from tracer import RESULT_COUNTERS, Tracer
    from workloads import report_fields

    ops = workload.build_ops(inputs, workdir)
    tracer = Tracer()
    untraced, traced, outputs = [], [], []
    for i, op in enumerate(ops):
        # each operation runs once untraced and once traced, the order alternating,
        # so warm-up falls on neither side of the overhead alone
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if not tracing:
                untraced.append(run_op(op, hard_deadline, in_process=True)[0])
                continue
            with tracer, tracer.span(f"op:{op.label}"):
                sample, out = run_op(op, hard_deadline, in_process=True)
            traced.append(sample)
            outputs.append(out)
    base = sum(s.seconds for s in untraced)
    overhead = sum(s.seconds for s in traced) / base - 1
    above = sum(1 for out in outputs if isinstance(out, str)
                and "bound" in (f := report_fields(out)) and "d_min" in f
                and int(f["bound"]) > int(f["d_min"]))

    metrics: dict[str, tuple[float, str]] = {}
    for name, (calls, busy) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (busy, "s")
    for name, counters in RESULT_COUNTERS.items():
        calls = metrics[f"{name}.calls"][0]
        got = tracer.counts.get(name, {})
        metrics[f"{name}.exact_share"] = (got.get("exact", 0) / calls if calls else 0.0, "ratio")
        if "nodes_expanded" in counters:
            metrics[f"{name}.nodes_expanded"] = (got.get("nodes_expanded", 0), "count")
    metrics["blockcodes.product_distance_bound.above_measured"] = (above, "count")
    metrics["trace.overhead"] = (overhead, "ratio")

    span_file = workdir / "spans.json"
    span_file.write_text(json.dumps({"spans": tracer.spans, "missing": tracer.missing}))
    print(f"workload {workload.name}: one cycle in-process, each operation untraced and traced "
          f"({len(tracer.spans)} spans in {span_file.relative_to(ROOT)})")
    print(f"  untraced {base:.4f} s, traced {base * (1 + overhead):.4f} s, "
          f"overhead {overhead:+.2%}")
    print(f"  {'layer function':<50} {'calls':>7} {'self_s':>10}")
    for name, (calls, busy) in tracer.layer_totals().items():
        if calls:
            print(f"  {name:<50} {calls:>7} {busy:>10.4f}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name:<50} {value:>18.6g} {unit}")
    if tracer.missing:
        print(f"  not found in wgc: {', '.join(tracer.missing)}")
    samples = untraced + traced
    for line in failure_lines(samples):
        print(line)
    return {
        "correct": not any(s.wrong for s in samples),
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hard_deadline = perf_counter() + RUN_LIMIT_S
    # unwind on SIGTERM, so run_process kills and reaps the running operation
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "wgc" / "cli.py").is_file():
        print(f"error: no wgc sources at {SRC}; run from the root of a wgc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = workload.make_inputs(args.seed)
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    if args.trace:
        result = traced_run(workload, inputs, workdir, hard_deadline)
    else:
        result = timed_run(workload, inputs, workdir, args.seconds, hard_deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
