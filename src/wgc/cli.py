"""Command-line front end (installed as ``wgc``)."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

# each command imports the modules it uses, so a run loads only those
if TYPE_CHECKING:
    import argparse

    from . import blockcodes, hypergraphs, woven
    from .gf2 import BinaryMatrix, PolyMatrix


# ---------------------------------------------------------------------------
# input parsing


def parse_poly_matrix_inline(text: str) -> PolyMatrix:
    from .gf2 import BinaryPoly, PolyMatrix
    return PolyMatrix([[BinaryPoly.parse(tok) for tok in row.split(",")]
                       for row in text.split(";")])


def load_graph(spec: str) -> hypergraphs.Hypergraph:
    from . import hypergraphs
    name = spec.removeprefix("builtin:")
    if name in hypergraphs.BUILTINS:
        return hypergraphs.BUILTINS[name]()
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"unknown graph {spec!r} (builtins: {sorted(hypergraphs.BUILTINS)})")
    return hypergraphs.Hypergraph.from_text(path.read_text())


def load_binary_matrix(path: str) -> BinaryMatrix:
    from .gf2 import BinaryMatrix
    return BinaryMatrix.from_text(Path(path).read_text())


def load_poly_matrix(args, file_attr: str = "hc", inline_attr: str = "hc_inline") -> PolyMatrix:
    from .gf2 import PolyMatrix
    path = getattr(args, file_attr, None)
    inline = getattr(args, inline_attr, None)
    if path and inline:
        raise ValueError("give either a file or an inline matrix, not both")
    if path:
        return PolyMatrix.from_text(Path(path).read_text())
    if inline:
        return parse_poly_matrix_inline(inline)
    raise ValueError("a polynomial matrix is required (file or inline)")


def parse_perm(text: str | None) -> tuple[int, ...] | None:
    return None if text is None else tuple(int(x) for x in text.split(","))


def parse_assignment(text: str, g: hypergraphs.Hypergraph) -> hypergraphs.Assignment:
    """Per-vertex block orders of parts 1..s-1, parts "/"-separated; "1,2,0;0,1,2;2,0,1"."""
    from . import hypergraphs
    parts = [tuple(tuple(int(x) for x in group.split(",")) for group in part.split(";"))
             for part in text.split("/")]
    if len(parts) != g.s - 1:
        raise ValueError(f"assignment needs parts 1..{g.s - 1}, '/'-separated, got {len(parts)}")
    for p, groups in enumerate(parts, 1):
        if len(groups) != g.n:
            raise ValueError(f"assignment part {p} needs {g.n} vertex groups, got {len(groups)}")
    return (hypergraphs.identity_assignment(g)[0], *parts)


# ---------------------------------------------------------------------------
# reports: every key=value and CSV report of wgc is formatted here


def emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _or_na(value, na: str = "n/a") -> str:
    return na if value is None else str(value)


def report_text(rep: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in rep.items())


def report_csv(reps: list[dict]) -> str:
    """A header of the first report's keys, then one line of values per report.

    Fields are not quoted, so a value holding a comma shifts its row.
    """
    keys = list(reps[0])
    lines = [keys, *([rep[k] for k in keys] for rep in reps)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def report_out(args, rep: dict) -> None:
    """Write one report to ``--out`` or stdout: key=value lines, or CSV under ``--format csv``."""
    emit(args, (report_csv([rep]) if getattr(args, "format", "text") == "csv"
                else report_text(rep)))


def code_report(name: str, code: blockcodes.LinearBlockCode) -> dict:
    """Name, length, dimension and minimum distance with its proof status."""
    from .blockcodes import min_distance
    est = min_distance(code)
    return {"name": name, "n": code.n, "k": code.k, "d_min": est.value,
            "d_exact": est.exact, "d_floor": est.floor}


# ---------------------------------------------------------------------------
# subcommands


def cmd_girth(args) -> int:
    from . import hypergraphs
    report_out(args, {"girth": _or_na(hypergraphs.girth(load_graph(args.graph)), "none")})
    return 0


def cmd_sd_girth(args) -> int:
    from . import hypergraphs
    value = hypergraphs.sd_girth(load_graph(args.graph), args.d)
    report_out(args, {f"sd_girth(d={args.d})": _or_na(value, "none")})
    return 0


def cmd_mindist(args) -> int:
    from . import blockcodes
    report_out(args, code_report(args.matrix,
                                 blockcodes.LinearBlockCode(load_binary_matrix(args.matrix))))
    return 0


def cmd_blockdist(args) -> int:
    from . import blockcodes, convcodes
    if args.parity and (args.matrix or args.l is not None):
        raise ValueError("give either --parity or --matrix with --l, not both")
    if args.parity:
        h = load_poly_matrix(args, "parity", "parity_inline")
        report_out(args, {"block_distance": convcodes.block_distance_conv(h)})
        return 0
    if not args.matrix or args.l is None:
        raise ValueError("need --parity (polynomial) or --matrix with --l")
    code = blockcodes.LinearBlockCode(load_binary_matrix(args.matrix))
    if args.l < 1 or code.n % args.l:
        raise ValueError(f"--l must be a positive divisor of the code length {code.n}, "
                         f"got {args.l}")
    bs = blockcodes.BlockStructure(args.l, code.n // args.l)
    report_out(args, {"block_distance": blockcodes.block_distance(code, bs)})
    return 0


def cmd_freedist(args) -> int:
    from . import convcodes
    from .gf2 import minimal_kernel
    has_gen = args.gen or args.gen_inline
    has_parity = args.parity or args.parity_inline
    if has_gen and has_parity:
        raise ValueError("give either a generator or a parity-check matrix, not both")
    if has_parity:
        h = load_poly_matrix(args, "parity", "parity_inline")
    elif has_gen:
        gen = load_poly_matrix(args, "gen", "gen_inline")
        if not gen.rows:
            raise ValueError("empty generator: the code has no nonzero codeword")
        h = minimal_kernel(gen)
        if gen.cols - h.rows < gen.rows:
            raise ValueError("a nonzero input encodes to zero: "
                             "the generator rows are dependent over GF(2)(D)")
    else:
        raise ValueError("need a generator or parity-check matrix")
    report_out(args, {"free_distance": convcodes.free_distance(h)})
    return 0


def cmd_graph_code(args) -> int:
    from . import blockcodes, hypergraphs
    from .gf2 import BinaryMatrix
    g = load_graph(args.graph)
    hc = load_poly_matrix(args).constant_matrix() if (args.hc or args.hc_inline) \
        else BinaryMatrix.from_strings(["1" * g.c])
    code = blockcodes.build_graph_code(g, hc)
    report_out(args, code_report(f"graph-code:{args.graph}", code) | {
        "girth": hypergraphs.girth(g), "rate": code.rate,
        "rate_bound": blockcodes.rate_bound(g, blockcodes.LinearBlockCode(hc).rate)})
    return 0


def cmd_woven_block(args) -> int:
    from . import blockcodes
    g = load_graph(args.graph)
    hcm = load_poly_matrix(args).constant_matrix()
    if args.l < 1 or hcm.cols % args.l:
        raise ValueError(f"--l must be a positive divisor of the constituent's "
                         f"{hcm.cols} columns, got {args.l}")
    constituent = blockcodes.LinearBlockCode(hcm)
    bs = blockcodes.BlockStructure(args.l, hcm.cols // args.l)
    assignment = parse_assignment(args.assign, g) if args.assign else None
    code = blockcodes.build_woven_block(g, constituent, bs, assignment)
    rep = code_report(f"woven-block:{args.graph}", code)
    bound = blockcodes.product_distance_bound(g, constituent, bs)
    report_out(args, rep | {"bound": bound, "bound_contradicted": rep["d_min"] < bound,
                            "rate": code.rate,
                            "rate_bound": blockcodes.rate_bound(g, constituent.rate)})
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
    # --out holds H_wg, so the summary goes to stderr
    sys.stderr.write(report_text({"nu_raw": _or_na(rep.nu_raw), "nu_minimal": rep.nu_minimal,
                                  "dimension": rep.code_dimension}))
    return 0


def cmd_woven_bounds(args) -> int:
    from . import woven
    product, improved = woven.distance_bounds(load_graph(args.graph), load_poly_matrix(args))
    report_out(args, {"product_bound": product, "improved_bound": _or_na(improved)})
    return 0


def cmd_woven_witness(args) -> int:
    from . import woven
    from .gf2 import BinaryPoly
    code = _woven_code(args)
    res = woven.witness_search(code)
    rep = {"witness_weight": res.weight, "exact": res.exact,
           "words_enumerated": res.words_enumerated, "nodes_expanded": res.nodes_expanded,
           "orbit": _or_na(woven.orbit_multiplicity(code, res.word))}
    if args.show_word:
        rep["word"] = ",".join(map(BinaryPoly.to_string, res.word))
    report_out(args, rep)
    return 0


def cmd_woven_sweep(args) -> int:
    from . import woven
    g = load_graph(args.graph)
    hc = load_poly_matrix(args)
    emit(args, report_csv([
        {"perm": "-".join(map(str, r.perm)), "nu_raw": _or_na(r.nu_raw), "nu_min": r.nu_minimal,
         "k": r.code_dimension, "product_bound": _or_na(r.product_bound),
         "improved_bound": _or_na(r.improved_bound), "witness": r.witness,
         "orbit": _or_na(r.orbit), "flags": r.flags}
        for r in woven.permutation_sweep(g, hc)]))
    return 0


def cmd_woven_encode(args) -> int:
    from . import woven
    code = _woven_code(args)
    digits = b"".join(Path(args.infile).read_bytes().split())  # drops ASCII whitespace
    # "0" and "1" become bits, raw 0x00 and 0x01 a non-bit: encode_stream rejects every other byte
    bits = digits.translate(bytes.maketrans(b"01\0\1", b"\0\1??"))
    out = woven.encode_stream(code, bits, pad=args.pad)
    emit(args, out.translate(woven._TO_DIGITS).decode() + "\n")
    return 0


def cmd_bounds(args) -> int:
    from . import bounds
    if args.kind == "costello" and args.s is not None:
        raise ValueError("--s applies to --kind vg only")
    s_list = [int(x) for x in args.s.split(",")] if args.s else [2]
    emit(args, bounds.curves_csv(bounds.emit_curves(s_list, args.step, args.kind)))
    return 0


def cmd_verify(args) -> int:
    if args.what != "heawood":
        raise ValueError("only the heawood reproduction is built in")
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
    import argparse
    top = argparse.ArgumentParser(
        prog="wgc", description="graph codes, woven graph codes, and their bounds")
    # older command lines still pass it; every command runs in one process
    top.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("--graph", required=True,
                       help="builtin:heawood|utility|3partite or a hypergraph file")

    def add_hc(p):
        p.add_argument("--hc", help="constituent check matrix file (polynomial text format; "
                                    'entries may also be octal, "o32")')
        p.add_argument("--hc-inline",
                       help='inline check matrix, rows ";"-separated, entries ","-separated; '
                            'entries are coefficient strings or octal ("o32")')

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv"), default="text")
        p.add_argument("--out", help="write the report to a file instead of stdout")

    p = sub.add_parser("girth", help="hypergraph girth")
    add_graph(p)
    p.set_defaults(func=cmd_girth)

    p = sub.add_parser("sd-girth", help="compact-subgraph girth")
    add_graph(p)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_sd_girth)

    p = sub.add_parser("mindist", help="minimum distance of a binary code")
    p.add_argument("--matrix", required=True, help="parity-check matrix file (binary text)")
    add_format(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("blockdist", help="block distance (binary or convolutional)")
    p.add_argument("--matrix", help="binary parity-check matrix file")
    p.add_argument("--l", type=int, help="sub-block length for the binary form")
    p.add_argument("--parity", help="polynomial parity-check matrix file "
                                    '(entries may also be octal, "o32")')
    p.set_defaults(func=cmd_blockdist)

    p = sub.add_parser("freedist", help="free distance of a convolutional code")
    p.add_argument("--gen", help="generator matrix file (polynomial text; "
                                 'entries may also be octal, "o32")')
    p.add_argument("--gen-inline")
    p.add_argument("--parity", help="parity-check matrix file (polynomial text; "
                                    'entries may also be octal, "o32")')
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
    p.add_argument("--assign", help='block orders of parts 1..s-1: vertex orders ";"-separated, '
                                     'parts "/"-separated, e.g. "1,2,0;0,1,2;2,0,1" for s = 2')
    add_format(p)
    p.set_defaults(func=cmd_woven_block)

    pw = sub.add_parser("woven", help="woven graph codes with convolutional constituents")
    wsub = pw.add_subparsers(dest="woven_command", required=True)

    def add_woven_common(p):
        add_graph(p)
        add_hc(p)
        p.add_argument("--perm",
                       help="check permutation for the later partitions, e.g. 1,3,2 "
                            "(default: the identity 1,...,c for degree c)")

    p = wsub.add_parser("build", help="assemble the polynomial parity-check matrix")
    add_woven_common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_woven_build)

    p = wsub.add_parser("bounds", help="product and improved free-distance bounds")
    add_graph(p)
    add_hc(p)
    p.set_defaults(func=cmd_woven_bounds)

    p = wsub.add_parser("witness", help="search for a low-weight codeword")
    add_woven_common(p)
    p.add_argument("--show-word", action="store_true")
    p.set_defaults(func=cmd_woven_witness)

    p = wsub.add_parser("sweep", help="all check permutations side by side")
    add_graph(p)
    add_hc(p)
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
    except (ValueError, RuntimeError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
