"""Command-line interface.

Subcommands: design verify, od construct, od verify, compose, analyze,
simulate, mask.  Exit codes: 0 success, 1 verification failure or an input
that needs more memory than is available, 2 usage error, 141 (128 + SIGPIPE)
with nothing on stderr when the reader of stdout has gone.  On exit 1,
commands run with --json and the mask command also print {"error",
"condition", "witness", "message"} as JSON on stdout.  All randomness is
seeded; --seed defaults to 1729 so repeated invocations are byte-identical.

Input files are read as bytes and handed to their parsers unchanged.
Design matrices travel as header-less CSV of ASCII 0/1 digits, which does
not carry the (v1, v2) split.  Commands reading a CSV accept --v1/--v2 and
default to the square split when the first line's column count is a perfect
square.  Files that start with '{' are SB-block JSON, which embeds v1 and
v2; --v1/--v2 given with such a file must match.  A design file its parser
rejects is a FormatError that names the file.

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


def _read_bytes(path: str) -> bytes:
    return sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()


def _load_design(path: str, v1, v2) -> sbbd.DesignMatrix:
    from .design_core import int_rows_from_csv

    data = _read_bytes(path)
    body = data.lstrip()
    if not body:
        raise UsageError(f"no design data in {path!r}")
    if body.startswith(b"{"):
        x = sbbd.blocks_from_json(data)
        for flag, given, embedded in (("--v1", v1, x.v1), ("--v2", v2, x.v2)):
            if given is not None and given != embedded:
                raise UsageError(f"{flag} {given} != {embedded} in the SB-block JSON {path!r}")
        return x
    # the first line alone fixes the column count; it is parsed, so a token
    # there that is not an integer is a FormatError rather than a usage error
    first = body[: body.find(b"\n") + 1 or len(body)]
    cols = int_rows_from_csv(first, "design matrix", "entry").shape[1]
    if v1 is None and v2 is None:
        root = math.isqrt(cols)
        if root * root != cols:
            raise UsageError(
                f"{cols} columns is not a perfect square; pass --v1 (and"
                " optionally --v2)"
            )
        v1 = v2 = root
    elif v1 is not None and v2 is None:
        if cols % v1:
            raise UsageError(f"--v1 {v1} does not divide {cols} columns")
        v2 = cols // v1
    elif v1 is None:
        if cols % v2:
            raise UsageError(f"--v2 {v2} does not divide {cols} columns")
        v1 = cols // v2
    if v1 * v2 != cols:
        raise UsageError(f"--v1 {v1} x --v2 {v2} != {cols} columns")
    return sbbd.matrix_from_csv(data, v1, v2)


def _write_output(data: bytes, out, binary: bool = False) -> None:
    # a stdout with no byte buffer (an in-process io.StringIO) takes CSV and
    # JSON as ASCII text, but binary data there is a usage error
    if out is not None and out != "-":
        with open(out, "wb") as fh:
            fh.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(data)
    elif binary:
        raise UsageError("binary output to a text stdout; pass --out FILE")
    else:
        sys.stdout.write(data.decode("ascii"))


def _cmd_design_verify(args) -> int:
    d = sbbd.design_from_json(_read_bytes(args.file))
    k = str(d.k) if d.is_bibd else "variable"
    print(f"v={d.v} b={d.b} r={d.r} lambda={d.lam} k={k}")
    return 0


def _cmd_od_construct(args) -> int:
    od = sbbd.construct_od1(args.q)
    _write_output(sbbd.od_to_csv(od), args.out)
    if args.out and args.out != "-":
        print(f"wrote OD_1({od.s},{od.n}) with {od.n_rows} rows to {args.out}")
    return 0


def _cmd_od_verify(args) -> int:
    od = sbbd.od_from_csv(_read_bytes(args.file))
    print(f"ordered design verified: eta={od.eta} s={od.s} n={od.n} rows={od.n_rows}")
    return 0


def _resolve_block_design(ref: str):
    if ref.startswith("catalog:"):
        return sbbd.catalog_by_id(ref.split(":", 1)[1])
    return sbbd.design_from_json(_read_bytes(ref))


def _resolve_od(ref: str):
    if ref.isdecimal():
        return sbbd.construct_od1(int(ref))
    return sbbd.od_from_csv(_read_bytes(ref))


def _cmd_compose(args) -> int:
    from .design_core import _check_indexable

    d = _resolve_block_design(args.design)
    od = _resolve_od(args.od)
    x = sbbd.compose(d, od)
    if args.perms:
        name, _, count = args.perms.partition(":")
        if name != "cyclic" or not count.isdecimal() or int(count) < 1:
            raise UsageError("--perms expects cyclic:<u> with u >= 1")
        u = int(count)
        # refused before the u layers are listed, which alone could take hours
        blocks = u * x.n_rows
        _check_indexable(blocks * x.v1 * x.v2, f"a design matrix of {blocks} blocks on K_{{{x.v1},{x.v2}}}")
        # layer t shifts every panel's columns cyclically by t; t = 0 is the identity
        x = sbbd.permute_extension(x, [[(j + t) % x.v2 + 1 for j in range(x.v2)] for t in range(u)])
    if args.out and args.out.endswith(".json"):
        _write_output((sbbd.blocks_to_json(x) + "\n").encode(), args.out)
    else:
        _write_output(sbbd.matrix_to_csv(x), args.out)
    if args.out and args.out != "-":
        print(
            f"wrote {x.n_rows} x {x.v1 * x.v2} design matrix"
            f" (v1={x.v1}, v2={x.v2}) to {args.out};"
            f" spanning guaranteed: {str(sbbd.spanning_guaranteed(d, od)).lower()}"
        )
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
    x = _load_design(args.file, args.v1, args.v2)
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


def _seed_arg(text: str) -> int:
    if not (text.isdecimal() and int(text) < 2**128):
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2^128), got {text!r}")
    return int(text)


def _sigma_arg(text: str) -> float:
    try:
        sigma = float(text)
    except ValueError:
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return sigma


def _positive_arg(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _load_tau(path: str) -> sbbd.EffectVector:
    try:
        blob = json.loads(_read_bytes(path))
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
    x = _load_design(args.file, args.v1, args.v2)
    tau = _load_tau(args.tau) if args.tau else sbbd.random_effects(x.v1, x.v2, seed=args.seed)
    report = sbbd.simulate(x, tau, sigma=args.sigma, runs=args.runs, seed=args.seed)
    if args.json:
        payload = {
            "runs": report.runs,
            "sigma": report.sigma,
            "alpha": report.alpha,
            "predicted_variance": report.predicted_variance,
            "max_relative_deviation": report.max_relative_deviation,
            "contrasts": [
                {
                    "i": i,
                    "j": j,
                    "true": report.true_contrasts[idx],
                    "mean": report.empirical_mean[idx],
                    "variance": report.empirical_variance[idx],
                }
                for idx, (i, j) in enumerate(report.contrast_index)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"runs={report.runs} sigma={report.sigma} alpha={report.alpha}"
        f" predicted variance={report.predicted_variance:.6g}"
    )
    print(f"max relative deviation: {report.max_relative_deviation:.4%}")
    print(f"{'contrast':>10} {'true':>12} {'mean':>12} {'variance':>12}")
    for idx, (i, j) in enumerate(report.contrast_index):
        print(
            f"{f'({i},{j})':>10} {report.true_contrasts[idx]:>12.6f}"
            f" {report.empirical_mean[idx]:>12.6f}"
            f" {report.empirical_variance[idx]:>12.6f}"
        )
    return 0


def _cmd_mask(args) -> int:
    x = sbbd.export_masks(_load_design(args.file, args.v1, args.v2))
    body = (sbbd.schedule_to_json(x) + "\n").encode() if args.format == "json" else sbbd.schedule_to_bytes(x)
    _write_output(body, args.out, binary=args.format == "bin")
    if args.out and args.out != "-":
        print(f"wrote {x.n_rows} masks of shape {x.v1}x{x.v2} to {args.out}")
    return 0


def _error_payload(name: str, message: str, exc: Exception) -> dict:
    """Machine-readable exit-1 report; condition and witness are None unless exc is a Violation."""
    return {
        "error": name,
        "condition": getattr(exc, "condition", None),
        "witness": getattr(exc, "witness", None),
        "message": message,
    }


def _add_dims(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v1", type=_positive_arg, help="left point count (CSV input; checked for JSON)")
    p.add_argument("--v2", type=_positive_arg, help="right point count (CSV input; checked for JSON)")


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
    p_oc.add_argument("--q", type=int, required=True, help="any prime power, e.g. 7, 64 or 125")
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
    p_analyze.add_argument("file", help="design CSV / SB-block JSON, or - for stdin")
    p_analyze.add_argument("--json", action="store_true")
    _add_dims(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo variance-balance check")
    p_sim.add_argument("file", help="design CSV / SB-block JSON, or - for stdin")
    p_sim.add_argument("--sigma", type=_sigma_arg, required=True)
    p_sim.add_argument("--runs", type=int, required=True)
    p_sim.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    p_sim.add_argument("--tau", help="effect-vector JSON file (default: seeded random)")
    p_sim.add_argument("--json", action="store_true")
    _add_dims(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_mask = sub.add_parser("mask", help="export DropConnect masks")
    p_mask.add_argument("file", help="design CSV / SB-block JSON, or - for stdin")
    p_mask.add_argument("--format", choices=("json", "bin"), default="json")
    p_mask.add_argument("--out", help="output path (default stdout)")
    _add_dims(p_mask)
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
        if isinstance(exc, sbbd.FormatError) and getattr(args, "file", None):
            message = f"{args.file!r}: {message}"  # bad --tau input is a UsageError instead
        if isinstance(exc, MemoryError):  # numpy raises a private subclass
            name, message = "MemoryError", f"the input needs more memory than is available: {exc}"
        print(f"{name}: {message}", file=sys.stderr)
        if getattr(args, "json", False) or args.command == "mask":
            print(json.dumps(_error_payload(name, message, exc)))
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
