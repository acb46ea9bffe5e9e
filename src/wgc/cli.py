"""Command-line front end (installed as ``wgc``)."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# each command imports the modules it uses, so a run loads only those
if TYPE_CHECKING:
    from . import blockcodes, hypergraphs, woven
    from .gf2 import BinaryMatrix, BinaryPoly, PolyMatrix


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# input parsing


def parse_poly_token(tok: str) -> BinaryPoly:
    """Coefficient string ("11001") or octal shorthand ("o32", lowest digits first).

    Octal digit k contributes coefficients of D^(3k)..D^(3k+2); the digit
    value is c0 + 2 c1 + 4 c2 within the triple.
    """
    from .gf2 import BinaryPoly
    tok = tok.strip()
    if tok.startswith(("o", "O", "0o", "0O")):
        digits = tok[2:] if tok[:2] in ("0o", "0O") else tok[1:]
        if not digits or set(digits) - set("01234567"):
            raise CliError(f"bad octal polynomial {tok!r}")
        bits = 0
        for k, ch in enumerate(digits):
            bits |= int(ch, 8) << (3 * k)
        return BinaryPoly(bits)
    try:
        return BinaryPoly.parse(tok)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def parse_poly_matrix_inline(text: str) -> PolyMatrix:
    from .gf2 import PolyMatrix
    rows = []
    for row_text in text.split(";"):
        rows.append([parse_poly_token(tok) for tok in row_text.split(",")])
    return PolyMatrix(rows)


def load_graph(spec: str) -> hypergraphs.Hypergraph:
    from . import hypergraphs
    name = spec.removeprefix("builtin:")
    if name in hypergraphs.BUILTINS:
        return hypergraphs.BUILTINS[name]()
    path = Path(spec)
    if not path.exists():
        raise CliError(f"unknown graph {spec!r} (builtins: {sorted(hypergraphs.BUILTINS)})")
    return hypergraphs.Hypergraph.from_text(path.read_text())


def load_binary_matrix(path: str) -> BinaryMatrix:
    from .gf2 import BinaryMatrix
    return BinaryMatrix.from_text(Path(path).read_text())


def load_poly_matrix(args, file_attr: str = "hc", inline_attr: str = "hc_inline") -> PolyMatrix:
    from .gf2 import PolyMatrix
    path = getattr(args, file_attr, None)
    inline = getattr(args, inline_attr, None)
    if path and inline:
        raise CliError("give either a file or an inline matrix, not both")
    if path:
        return PolyMatrix.from_text(Path(path).read_text())
    if inline:
        return parse_poly_matrix_inline(inline)
    raise CliError("a polynomial matrix is required (file or inline)")


def parse_perm(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def parse_assignment(text: str, g: hypergraphs.Hypergraph) -> blockcodes.Assignment:
    """Per-vertex block orders for the second partition; "1,2,0;0,1,2;2,0,1"."""
    from . import blockcodes
    groups = [tuple(int(x) for x in part.split(",")) for part in text.split(";")]
    if len(groups) != g.n:
        raise CliError(f"assignment needs {g.n} vertex groups, got {len(groups)}")
    ident = blockcodes.identity_assignment(g)
    if g.s != 2:
        raise CliError("inline assignment supported for bipartite graphs only")
    return (ident[0], tuple(groups))


def emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def report_out(args, rep: dict) -> None:
    from . import blockcodes
    if getattr(args, "format", "text") == "csv":
        emit(args, blockcodes.report_csv([rep]))
    else:
        emit(args, blockcodes.report_text(rep))


def make_budget(args) -> woven.WitnessBudget:
    from . import woven
    return woven.WitnessBudget(
        max_terms=args.budget,
        max_shift=args.max_shift,
        search_nodes=args.nodes,
    )


def thread_count(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("WGC_THREADS")
    if env:
        return int(env)
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_girth(args) -> int:
    from . import hypergraphs
    g = load_graph(args.graph)
    value = hypergraphs.girth(g)
    print("girth=" + ("none" if value is None else str(value)))
    return 0


def cmd_sd_girth(args) -> int:
    from . import hypergraphs
    g = load_graph(args.graph)
    value = hypergraphs.sd_girth(g, args.d)
    print(f"sd_girth(d={args.d})=" + ("none" if value is None else str(value)))
    return 0


def cmd_mindist(args) -> int:
    from . import blockcodes
    code = blockcodes.LinearBlockCode(load_binary_matrix(args.matrix))
    est = blockcodes.min_distance(code, full_enum_limit=args.enum_limit)
    rep = blockcodes.code_report(args.matrix, code, est)
    report_out(args, rep)
    return 0


def cmd_blockdist(args) -> int:
    from . import blockcodes, convcodes
    from .gf2 import PolyMatrix
    if args.parity:
        h = PolyMatrix.from_text(Path(args.parity).read_text())
        print(f"block_distance={convcodes.block_distance_conv(h)}")
        return 0
    if not args.matrix or args.l is None:
        raise CliError("need --parity (polynomial) or --matrix with --l")
    code = blockcodes.LinearBlockCode(load_binary_matrix(args.matrix))
    if args.l < 1 or code.n % args.l:
        raise CliError(f"--l must be a positive divisor of the code length {code.n}, "
                       f"got {args.l}")
    bs = blockcodes.BlockStructure(args.l, code.n // args.l)
    print(f"block_distance={blockcodes.block_distance(code, bs)}")
    return 0


def cmd_freedist(args) -> int:
    from . import convcodes
    from .gf2 import minimal_kernel
    has_gen = args.gen or args.gen_inline
    has_parity = args.parity or args.parity_inline
    if has_gen and has_parity:
        raise CliError("give either a generator or a parity-check matrix, not both")
    if has_gen:
        gen = load_poly_matrix(args, "gen", "gen_inline")
    elif has_parity:
        gen = minimal_kernel(load_poly_matrix(args, "parity", "parity_inline"))
    else:
        raise CliError("need a generator or parity-check matrix")
    print(f"free_distance={convcodes.free_distance(gen)}")
    return 0


def cmd_graph_code(args) -> int:
    from fractions import Fraction

    from . import blockcodes, hypergraphs
    from .gf2 import BinaryMatrix
    g = load_graph(args.graph)
    hc = load_poly_matrix(args).constant_matrix() if (args.hc or args.hc_inline) \
        else BinaryMatrix.from_strings(["1" * g.c])
    code = blockcodes.build_graph_code(g, hc)
    est = blockcodes.min_distance(code)
    gg = hypergraphs.girth(g)
    rep = blockcodes.code_report(
        f"graph-code:{args.graph}", code, est,
        extras={"girth": gg, "rate": code.rate,
                "rate_bound": blockcodes.rate_bound(
                    g, Fraction(g.c - hc.rows, g.c))})
    report_out(args, rep)
    return 0


def cmd_woven_block(args) -> int:
    from . import blockcodes
    g = load_graph(args.graph)
    hcm = load_poly_matrix(args).constant_matrix()
    if args.l < 1 or hcm.cols % args.l:
        raise CliError(f"--l must be a positive divisor of the constituent's "
                       f"{hcm.cols} columns, got {args.l}")
    constituent = blockcodes.LinearBlockCode(hcm)
    bs = blockcodes.BlockStructure(args.l, hcm.cols // args.l)
    assignment = parse_assignment(args.assign, g) if args.assign else None
    wb = blockcodes.build_woven_block(g, constituent, bs, assignment)
    est = blockcodes.min_distance(wb.code)
    bound = blockcodes.product_distance_bound(g, constituent, bs)
    rep = blockcodes.code_report(
        f"woven-block:{args.graph}", wb.code, est,
        extras={
            "bound": bound,
            "bound_contradicted": est.value < bound,
            "rate": wb.rate,
            "rate_bound": blockcodes.rate_bound(g, constituent.rate),
        })
    report_out(args, rep)
    return 0


def _woven_code(args) -> woven.WovenConvCode:
    from . import woven
    g = load_graph(args.graph)
    hc = load_poly_matrix(args)
    return woven.build_woven_conv(g, hc, parse_perm(args.perm))


def cmd_woven_build(args) -> int:
    from . import woven
    code = _woven_code(args)
    rep = woven.generator_report(code)
    emit(args, code.H_wg.to_text())
    print(f"nu_raw={'n/a' if rep.nu_raw is None else rep.nu_raw}", file=sys.stderr)
    print(f"nu_minimal={rep.nu_minimal}", file=sys.stderr)
    print(f"dimension={rep.code_dimension}", file=sys.stderr)
    return 0


def cmd_woven_bounds(args) -> int:
    from . import woven
    code = _woven_code(args)  # checks the graph, the check row and --perm
    product, improved = woven.distance_bounds(code.graph, code.hc)
    print(f"product_bound={product}")
    print(f"improved_bound={improved}")
    return 0


def cmd_woven_witness(args) -> int:
    from . import woven
    code = _woven_code(args)
    try:
        res = woven.witness_search(code, target=args.target, budget=make_budget(args))
    except woven.BudgetExhausted as exc:
        print(f"budget exhausted: best weight {exc.result.weight}", file=sys.stderr)
        return 1
    orbit = woven.orbit_multiplicity(code, res.word)
    print(f"witness_weight={res.weight}")
    print(f"exact={res.exact}")
    print(f"words_enumerated={res.words_enumerated}")
    print(f"nodes_expanded={res.nodes_expanded}")
    print(f"orbit={orbit}")
    if args.show_word:
        print("word=" + ",".join(p.to_string() for p in res.word))
    return 0


def cmd_woven_sweep(args) -> int:
    from . import woven
    g = load_graph(args.graph)
    hc = load_poly_matrix(args)
    rows = woven.permutation_sweep(g, hc, budget=make_budget(args),
                                   threads=thread_count(args))
    lines = ["perm,nu_raw,nu_min,k,product_bound,improved_bound,witness,orbit,flags"]
    for r in rows:
        perm = "-".join(map(str, r.perm))
        nu_raw = "n/a" if r.nu_raw is None else r.nu_raw
        lines.append(
            f"{perm},{nu_raw},{r.nu_minimal},{r.code_dimension},{r.product_bound},"
            f"{r.improved_bound},{r.witness},{r.orbit},{r.flags}")
    emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_woven_encode(args) -> int:
    from . import woven
    code = _woven_code(args)
    raw = Path(args.infile).read_bytes()
    bits = raw.translate(woven._TO_BITS, bytes(b for b in range(256) if b not in b"01"))
    out = woven.encode_stream(code, bits, pad=args.pad)
    emit(args, out.translate(woven._TO_DIGITS).decode() + "\n")
    return 0


def cmd_bounds(args) -> int:
    from . import bounds
    if args.kind == "costello" and args.s is not None:
        raise CliError("--s applies to --kind vg only")
    s_list = [int(x) for x in args.s.split(",")] if args.s else [2]
    emit(args, bounds.curves_csv(bounds.emit_curves(s_list, args.step, args.kind)))
    return 0


def cmd_verify(args) -> int:
    if args.what != "heawood":
        raise CliError("only the heawood reproduction is built in")
    from .verify import run_heawood_verification

    results = run_heawood_verification()
    width = max(len(name) for name, _, _, _ in results)
    failures = 0
    for name, expected, got, ok in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  expected={expected!s:<12} got={got!s:<12} {status}")
        failures += not ok
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wgc", description="graph codes, woven graph codes, and their bounds")
    top.add_argument("--threads", type=int, default=None,
                     help="worker processes for sweeps (default: all cores, or WGC_THREADS)")
    sub = top.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("--graph", required=True,
                       help="builtin:heawood|utility|3partite or a hypergraph file")

    def add_hc(p):
        p.add_argument("--hc", help="constituent check matrix file (polynomial text format)")
        p.add_argument("--hc-inline",
                       help='inline check matrix, rows ";"-separated, entries ","-separated; '
                            'entries are coefficient strings or octal ("o32")')

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv"), default="text")
        p.add_argument("--out", help="write the report to a file instead of stdout")

    def add_budget(p):
        p.add_argument("--budget", type=int, default=3,
                       help="max generator-row terms in the witness enumeration")
        p.add_argument("--max-shift", type=int, default=12)
        p.add_argument("--nodes", type=int, default=200_000,
                       help="node budget for the exact refinement pass")

    p = sub.add_parser("girth", help="hypergraph girth")
    add_graph(p)
    p.set_defaults(func=cmd_girth)

    p = sub.add_parser("sd-girth", help="compact-subgraph girth")
    add_graph(p)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_sd_girth)

    p = sub.add_parser("mindist", help="minimum distance of a binary code")
    p.add_argument("--matrix", required=True, help="parity-check matrix file (binary text)")
    p.add_argument("--enum-limit", type=int, default=26, metavar="N",
                   help="budget of 2^N scored words (default 26)")
    add_format(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("blockdist", help="block distance (binary or convolutional)")
    p.add_argument("--matrix", help="binary parity-check matrix file")
    p.add_argument("--l", type=int, help="sub-block length for the binary form")
    p.add_argument("--parity", help="polynomial parity-check matrix file")
    p.set_defaults(func=cmd_blockdist)

    p = sub.add_parser("freedist", help="free distance of a convolutional code")
    p.add_argument("--gen", help="generator matrix file (polynomial text)")
    p.add_argument("--gen-inline")
    p.add_argument("--parity", help="parity-check matrix file (polynomial text)")
    p.add_argument("--parity-inline")
    p.set_defaults(func=cmd_freedist)

    p = sub.add_parser("graph-code", help="code whose checks follow the graph")
    add_graph(p)
    add_hc(p)
    add_format(p)
    p.set_defaults(func=cmd_graph_code)

    p = sub.add_parser("woven-block", help="woven graph code with block constituents")
    add_graph(p)
    add_hc(p)
    p.add_argument("--l", type=int, required=True, help="sub-block width")
    p.add_argument("--assign", help='second-partition block orders, e.g. "1,2,0;0,1,2;2,0,1"')
    add_format(p)
    p.set_defaults(func=cmd_woven_block)

    pw = sub.add_parser("woven", help="woven graph codes with convolutional constituents")
    wsub = pw.add_subparsers(dest="woven_command", required=True)

    def add_woven_common(p):
        add_graph(p)
        add_hc(p)
        p.add_argument("--perm", default="1,2,3",
                       help="check permutation for the second partition, e.g. 1,3,2")

    p = wsub.add_parser("build", help="assemble the polynomial parity-check matrix")
    add_woven_common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_woven_build)

    p = wsub.add_parser("bounds", help="product and improved free-distance bounds")
    add_woven_common(p)
    p.set_defaults(func=cmd_woven_bounds)

    p = wsub.add_parser("witness", help="search for a low-weight codeword")
    add_woven_common(p)
    p.add_argument("--target", type=int)
    p.add_argument("--show-word", action="store_true")
    add_budget(p)
    p.set_defaults(func=cmd_woven_witness)

    p = wsub.add_parser("sweep", help="all check permutations side by side")
    add_woven_common(p)
    add_budget(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_woven_sweep)

    p = wsub.add_parser("encode", help="encode an info bit stream")
    add_woven_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pad", action="store_true",
                   help="zero-pad the frame to a whole number of levels")
    p.add_argument("--out")
    p.set_defaults(func=cmd_woven_encode)

    p = sub.add_parser("bounds", help="asymptotic bound curves as CSV")
    p.add_argument("--kind", choices=("vg", "costello"), required=True)
    p.add_argument("--s", help="comma-separated partition counts (vg only)")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run a built-in end-to-end reproduction")
    p.add_argument("what", choices=("heawood",))
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, RuntimeError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
