"""Command-line interface.

Subcommands: design verify, od construct, od verify, compose, analyze,
simulate, mask.  Exit codes: 0 success, 1 verification failure or an input
that needs more memory than is available, 2 usage error.  On exit 1,
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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import (
    DesignMatrix,
    FormatError,
    SbbdError,
    a_optimality,
    blocks_from_json,
    blocks_to_json,
    catalog_by_id,
    compose,
    construct_od1,
    design_from_json,
    matrix_from_csv,
    matrix_to_csv,
    od_from_csv,
    od_to_csv,
    permute_extension,
    random_effects,
    simulate,
    spanning_guaranteed,
)
from .design_core import int_rows_from_csv
from .estimator import EffectVector
from .masks import export_masks, schedule_to_bytes, schedule_to_json

DEFAULT_SEED = 1729


class UsageError(Exception):
    pass


def _read_bytes(path: str) -> bytes:
    return sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()


def _load_design(path: str, v1, v2) -> DesignMatrix:
    data = _read_bytes(path)
    body = data.lstrip()
    if not body:
        raise UsageError(f"no design data in {path!r}")
    if body.startswith(b"{"):
        x = blocks_from_json(data)
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
    return matrix_from_csv(data, v1, v2)


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
    d = design_from_json(_read_bytes(args.file))
    k = str(d.k) if d.is_bibd else "variable"
    print(f"v={d.v} b={d.b} r={d.r} lambda={d.lam} k={k}")
    return 0


def _cmd_od_construct(args) -> int:
    od = construct_od1(args.q)
    _write_output(od_to_csv(od), args.out)
    if args.out and args.out != "-":
        print(f"wrote OD_1({od.s},{od.n}) with {od.n_rows} rows to {args.out}")
    return 0


def _cmd_od_verify(args) -> int:
    od = od_from_csv(_read_bytes(args.file))
    print(f"ordered design verified: eta={od.eta} s={od.s} n={od.n} rows={od.n_rows}")
    return 0


def _resolve_block_design(ref: str):
    if ref.startswith("catalog:"):
        return catalog_by_id(ref.split(":", 1)[1])
    return design_from_json(_read_bytes(ref))


def _resolve_od(ref: str):
    if ref.isdecimal():
        return construct_od1(int(ref))
    return od_from_csv(_read_bytes(ref))


def _cmd_compose(args) -> int:
    d = _resolve_block_design(args.design)
    od = _resolve_od(args.od)
    x = compose(d, od)
    if args.perms:
        name, _, count = args.perms.partition(":")
        if name != "cyclic" or not count.isdecimal() or int(count) < 1:
            raise UsageError("--perms expects cyclic:<u> with u >= 1")
        # layer t shifts every panel's columns cyclically by t; t = 0 is the identity
        x = permute_extension(x, [[(j + t) % x.v2 + 1 for j in range(x.v2)] for t in range(int(count))])
    if args.out and args.out.endswith(".json"):
        _write_output((blocks_to_json(x) + "\n").encode(), args.out)
    else:
        _write_output(matrix_to_csv(x), args.out)
    if args.out and args.out != "-":
        print(
            f"wrote {x.n_rows} x {x.v1 * x.v2} design matrix"
            f" (v1={x.v1}, v2={x.v2}) to {args.out};"
            f" spanning guaranteed: {str(spanning_guaranteed(od.s, d.b, d.r)).lower()}"
        )
    return 0


def _analyze_payload(x: DesignMatrix) -> dict:
    report = a_optimality(x)
    return {
        "lambda": list(report.params.lam),
        "spanning": report.is_spanning,
        "spectrum": [{"value": str(val), "mult": mult} for val, mult in report.spectral.merged()],
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


def _load_tau(path: str) -> EffectVector:
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
    return EffectVector(blob["v1"], blob["v2"], blob["tau"])


def _cmd_simulate(args) -> int:
    x = _load_design(args.file, args.v1, args.v2)
    tau = _load_tau(args.tau) if args.tau else random_effects(x.v1, x.v2, seed=args.seed)
    report = simulate(x, tau, sigma=args.sigma, runs=args.runs, seed=args.seed)
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
    x = export_masks(_load_design(args.file, args.v1, args.v2))
    body = (schedule_to_json(x) + "\n").encode() if args.format == "json" else schedule_to_bytes(x)
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
    except OSError as exc:
        print(f"cannot read/write: {exc}", file=sys.stderr)
        return 2
    except (SbbdError, MemoryError) as exc:
        name, message = type(exc).__name__, str(exc)
        if isinstance(exc, FormatError) and getattr(args, "file", None):
            message = f"{args.file!r}: {message}"  # bad --tau input is a UsageError instead
        if isinstance(exc, MemoryError):  # numpy raises a private subclass
            name, message = "MemoryError", f"the input needs more memory than is available: {exc}"
        print(f"{name}: {message}", file=sys.stderr)
        if getattr(args, "json", False) or args.command == "mask":
            print(json.dumps(_error_payload(name, message, exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
