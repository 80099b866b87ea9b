"""Command-line interface.

Subcommands: design verify, od construct, od verify, compose, analyze,
simulate, mask.  Exit codes: 0 success, 1 verification failure or an input
that needs more memory than is available, 2 usage error, 141 (128 + SIGPIPE)
with nothing on stderr when the reader of stdout has gone.  On exit 1,
commands run with --json and the mask command also print {"error",
"condition", "witness", "message"} as JSON on stdout.  All randomness is
seeded; --seed defaults to 1729 so repeated invocations are byte-identical.
Every integer flag, and the number in --od <q> or --perms cyclic:<u>, is
ASCII digits only (`sbbd._decimal`), with none of the sign or spaces that
an integer in a CSV input file may carry.

Every input file, --tau included, is read as bytes by `_read` and handed
to its parser unchanged; a FormatError names the file.  analyze, simulate
and mask read a design, including either output of mask, through
`sbbd.read_design`.  Only its CSV lacks the (v1, v2) split, which --v1/--v2
give (by default the square split); given with a file that embeds v1 and
v2, they must match.  A split that does not fit is a usage error that
names the file.

Start-up is paid per subcommand: this module imports only the lazy
package and reaches the library through `sbbd.<name>`, which loads the
defining module on first use, so --help and usage errors (exit 2) never
load numpy.  The `sbbd` console script and `python -m sbbd.cli` both go
through run(), which turns the cyclic GC off for the short-lived process
(gc.disable) and freezes its generations (gc.freeze) once main returns, so
neither main's allocations nor the exit trigger a collection sweep.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

import sbbd

DEFAULT_SEED = 1729


class UsageError(Exception):
    pass


def _read(path: str, parse, *args):
    """parse(the bytes of path, or of stdin for -, *args), with path named in its input errors.

    A FormatError is raised again as "'<path>': <message>"; the ValueError
    that read_design raises for a (v1, v2) split becomes that usage error.
    """
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return parse(data, *args)
    except sbbd.FormatError as exc:
        raise sbbd.FormatError(f"{path!r}: {exc}") from None
    except ValueError as exc:  # a split the file cannot take
        raise UsageError(f"{path!r}: {exc}") from None


def _write_output(data: bytes, out, wrote: str, binary: bool = False) -> None:
    """Write data to the file out and print the line wrote; with no out (or -), write data to stdout."""
    # a stdout with no byte buffer (an in-process io.StringIO) takes CSV and
    # JSON as ASCII text, but binary data there is a usage error
    if out is not None and out != "-":
        with open(out, "wb") as fh:
            fh.write(data)
        print(wrote)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(data)
    elif binary:
        raise UsageError("binary output to a text stdout; pass --out FILE")
    else:
        sys.stdout.write(data.decode("ascii"))


def _cmd_design_verify(args) -> int:
    d = _read(args.file, sbbd.design_from_json)
    k = str(d.k) if d.is_bibd else "variable"
    print(f"v={d.v} b={d.b} r={d.r} lambda={d.lam} k={k}")
    return 0


def _cmd_od_construct(args) -> int:
    od = sbbd.construct_od1(args.q)
    _write_output(sbbd.od_to_csv(od), args.out, f"wrote OD_1({od.s},{od.n}) with {od.n_rows} rows to {args.out}")
    return 0


def _cmd_od_verify(args) -> int:
    od = _read(args.file, sbbd.od_from_csv)
    print(f"ordered design verified: eta={od.eta} s={od.s} n={od.n} rows={od.n_rows}")
    return 0


def _cmd_compose(args) -> int:
    from .design_core import _check_indexable

    ref = args.design.removeprefix("catalog:")
    d = _read(ref, sbbd.design_from_json) if ref == args.design else sbbd.catalog_by_id(ref)
    q = sbbd._decimal(args.od)  # anything else is the path of an ordered-design CSV
    od = _read(args.od, sbbd.od_from_csv) if q is None else sbbd.construct_od1(q)
    x = sbbd.compose(d, od)
    if args.perms:
        name, _, count = args.perms.partition(":")
        u = sbbd._decimal(count) if name == "cyclic" else None
        if u is None or u < 1:
            raise UsageError("--perms expects cyclic:<u> with u >= 1")
        # refused before the u layers are listed, which alone could take hours
        blocks = u * x.n_rows
        _check_indexable(blocks * x.v1 * x.v2, f"a design matrix of {blocks} blocks on K_{{{x.v1},{x.v2}}}")
        # layer t shifts every panel's columns cyclically by t; t = 0 is the identity
        x = sbbd.permute_extension(x, [[(j + t) % x.v2 + 1 for j in range(x.v2)] for t in range(u)])
    wrote = (
        f"wrote {x.n_rows} x {x.v1 * x.v2} design matrix (v1={x.v1}, v2={x.v2}) to {args.out};"
        f" spanning guaranteed: {str(sbbd.spanning_guaranteed(d, od)).lower()}"
    )
    json_out = args.out and args.out.endswith(".json")
    _write_output((sbbd.blocks_to_json(x) + "\n").encode() if json_out else sbbd.matrix_to_csv(x), args.out, wrote)
    return 0


def _analyze_payload(x: sbbd.DesignMatrix) -> dict:
    report = sbbd.a_optimality(x)
    merged: dict = {}  # distinct eigenvalues with total multiplicities
    for val, mult in report.params.spectrum:
        merged[val] = merged.get(val, 0) + mult
    return {
        "lambda": list(report.params.lam),
        "spanning": report.is_spanning,
        "spectrum": [{"value": str(val), "mult": mult} for val, mult in sorted(merged.items(), reverse=True)],
        "a_criterion": str(report.a_criterion),
        "a_lower_bound": None if report.a_lower_bound is None else str(report.a_lower_bound),
        "semi_regular": report.is_semi_regular,
        "regular": report.is_regular,
        "a_optimal_in_omega": report.is_a_optimal_in_omega,
    }


def _cmd_analyze(args) -> int:
    x = _read(args.file, sbbd.read_design, args.v1, args.v2)
    payload = _analyze_payload(x)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    mu, l12, l21, l22 = payload["lambda"]
    kind = "SBBD" if payload["spanning"] else "SBBD*"
    print(f"{kind}({x.v1}, {x.v2}, {x.n_rows}); Lambda = ({mu}, {l12}, {l21}, {l22})")
    print(f"spanning: {str(payload['spanning']).lower()}")
    print("spectrum (eigenvalue x multiplicity):")
    for item in payload["spectrum"]:
        print(f"  {item['value']} x {item['mult']}")
    print(f"A-criterion: {payload['a_criterion']}")
    bound = payload["a_lower_bound"]
    print(f"A lower bound: {bound if bound is not None else 'n/a (not semi-regular)'}")
    print(f"semi-regular: {str(payload['semi_regular']).lower()}")
    print(f"regular: {str(payload['regular']).lower()}")
    print(f"A-optimal in Omega: {str(payload['a_optimal_in_omega']).lower()}")
    return 0


def _int_arg(low: int, bits: int = 0):
    """Flag type: ASCII digits for an integer >= low and, when bits is set, below 2**bits."""
    expected = f"in [{low}, 2^{bits})" if bits else f">= {low}"

    def parse(text: str) -> int:
        value = sbbd._decimal(text)
        if value is None or value < low or (bits and value >> bits):
            raise argparse.ArgumentTypeError(f"expected an integer {expected}, got {text!r}")
        return value

    return parse


def _sigma_arg(text: str) -> float:
    try:
        sigma = float(text)
    except ValueError:
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return sigma


def _tau_from_json(data: bytes, path: str) -> sbbd.EffectVector:
    try:
        blob = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested JSON, or undecodable bytes
        raise UsageError(f"--tau {path!r} is not JSON: {exc}") from None
    if not (
        isinstance(blob, dict)
        and all(type(blob.get(k)) is int for k in ("v1", "v2"))
        and isinstance(blob.get("tau"), list)
        and all(type(t) in (int, float) for t in blob["tau"])
    ):
        raise UsageError(f"--tau {path!r} needs an object with integers v1, v2 and a list of numbers tau")
    return sbbd.EffectVector(blob["v1"], blob["v2"], blob["tau"])


def _cmd_simulate(args) -> int:
    x = _read(args.file, sbbd.read_design, args.v1, args.v2)
    tau = _read(args.tau, _tau_from_json, args.tau) if args.tau else sbbd.random_effects(x.v1, x.v2, seed=args.seed)
    report = sbbd.simulate(x, tau, sigma=args.sigma, runs=args.runs, seed=args.seed)
    payload = {
        "runs": report.runs,
        "sigma": report.sigma,
        "alpha": report.alpha,
        "predicted_variance": report.predicted_variance,
        "max_relative_deviation": report.max_relative_deviation,
        "contrasts": [
            {"i": i, "j": j, "true": true, "mean": mean, "variance": variance}
            for (i, j), true, mean, variance in zip(
                report.contrast_index, report.true_contrasts, report.empirical_mean, report.empirical_variance
            )
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"runs={payload['runs']} sigma={payload['sigma']} alpha={payload['alpha']}"
        f" predicted variance={payload['predicted_variance']:.6g}"
    )
    print(f"max relative deviation: {payload['max_relative_deviation']:.4%}")
    print(f"{'contrast':>10} {'true':>12} {'mean':>12} {'variance':>12}")
    for c in payload["contrasts"]:
        label = f"({c['i']},{c['j']})"
        print(f"{label:>10} {c['true']:>12.6f} {c['mean']:>12.6f} {c['variance']:>12.6f}")
    return 0


def _cmd_mask(args) -> int:
    x = sbbd.export_masks(_read(args.file, sbbd.read_design, args.v1, args.v2))
    body = (sbbd.schedule_to_json(x) + "\n").encode() if args.format == "json" else sbbd.schedule_to_bytes(x)
    wrote = f"wrote {x.n_rows} masks of shape {x.v1}x{x.v2} to {args.out}"
    _write_output(body, args.out, wrote, binary=args.format == "bin")
    return 0


def _add_design_input(p: argparse.ArgumentParser) -> None:
    """The design file and its (v1, v2) split, added after a command's other options."""
    p.add_argument("file", help="design CSV / SB-block JSON / mask output, or - for stdin")
    for dim, side in (("--v1", "left"), ("--v2", "right")):
        p.add_argument(dim, type=_int_arg(1), help=f"{side} point count (CSV input; checked where the file embeds it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbbd",
        description="construct, verify, analyze, and simulate spanning"
        " bipartite block designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="block-design utilities")
    design_sub = p_design.add_subparsers(dest="subcommand", required=True)
    p_dv = design_sub.add_parser("verify", help="verify a block-design JSON file")
    p_dv.add_argument("file")
    p_dv.set_defaults(func=_cmd_design_verify)

    p_od = sub.add_parser("od", help="ordered-design utilities")
    od_sub = p_od.add_subparsers(dest="subcommand", required=True)
    p_oc = od_sub.add_parser("construct", help="build an OD_1(q,q) over GF(q)")
    p_oc.add_argument("--q", type=_int_arg(0), required=True, help="any prime power, e.g. 7, 64 or 125")
    p_oc.add_argument("--out", help="output CSV path (default stdout)")
    p_oc.set_defaults(func=_cmd_od_construct)
    p_ov = od_sub.add_parser("verify", help="verify an ordered-design CSV file")
    p_ov.add_argument("file")
    p_ov.set_defaults(func=_cmd_od_verify)

    p_compose = sub.add_parser("compose", help="compose a block design with an ordered design")
    p_compose.add_argument(
        "--design", required=True,
        help="block-design JSON file or catalog:<id>, with id pairs3, pg23, fano (= qr7)"
        " or qr<p> for a prime p >= 7, p = 3 (mod 4), e.g. qr127",
    )
    p_compose.add_argument("--od", required=True, help="ordered-design CSV file or a prime power q")
    p_compose.add_argument("--perms", help="cyclic:<u> stacks u layers of cyclic column shifts")
    p_compose.add_argument("--out", help="output path; .json writes SB-block JSON, else CSV")
    p_compose.set_defaults(func=_cmd_compose)

    p_analyze = sub.add_parser("analyze", help="verify conditions and report spectrum")
    p_analyze.add_argument("--json", action="store_true")
    _add_design_input(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo variance-balance check")
    p_sim.add_argument("--sigma", type=_sigma_arg, required=True)
    p_sim.add_argument("--runs", type=_int_arg(0), required=True)
    p_sim.add_argument("--seed", type=_int_arg(0, bits=128), default=DEFAULT_SEED)
    p_sim.add_argument("--tau", help="effect-vector JSON file (default: seeded random)")
    p_sim.add_argument("--json", action="store_true")
    _add_design_input(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_mask = sub.add_parser("mask", help="export DropConnect masks")
    p_mask.add_argument("--format", choices=("json", "bin"), default="json")
    p_mask.add_argument("--out", help="output path (default stdout)")
    _add_design_input(p_mask)
    p_mask.set_defaults(func=_cmd_mask)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # the reader went away; run() ends the process quietly
    except OSError as exc:
        print(f"cannot read/write: {exc}", file=sys.stderr)
        return 2
    except (sbbd.SbbdError, MemoryError) as exc:
        name, message = type(exc).__name__, str(exc)
        if isinstance(exc, MemoryError):  # numpy raises a private subclass
            name, message = "MemoryError", f"the input needs more memory than is available: {exc}"
        print(f"{name}: {message}", file=sys.stderr)
        if getattr(args, "json", False) or args.command == "mask":
            # condition and witness are None unless exc is a Violation
            condition, witness = getattr(exc, "condition", None), getattr(exc, "witness", None)
            print(json.dumps({"error": name, "condition": condition, "witness": witness, "message": message}))
        return 1


def run() -> None:
    """The `sbbd` console script and `python -m sbbd.cli`: exit with main()'s code.

    The process ends as soon as main returns, so the cyclic GC is off while
    main runs: its sweeps would only walk the objects a command builds, such
    as the lists of a parsed SB-block JSON, which live until exit anyway.
    Every object is then moved to the GC's permanent generation
    (gc.freeze), and interpreter shutdown skips the collection sweep over
    them.  main itself leaves the GC alone for in-process callers.

    When the reader of stdout has gone, the process exits 141 (128 +
    SIGPIPE), as a shell reports for a C tool stopped the same way, and
    prints nothing: stdout is pointed at os.devnull, so the exit-time flush
    of what is still buffered raises no second BrokenPipeError.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
