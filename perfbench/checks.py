"""Output checks, computed independently of the code under test.

Expected values come from closed forms evaluated here (Lambda of a composed
design, the four eigenvalues of a double completely symmetric matrix, the
A-criterion and its bound) and from the benchmark's own float64 Gram of the
files the program wrote.  Counts below 2^53 are exact in float64.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# Largest standardized deviation allowed in a Monte Carlo check.  With at
# most a few hundred independent contrasts, a correct estimator exceeds it
# with probability below 1e-6.
Z_MAX = 6.0


@dataclass(frozen=True)
class Expected:
    """Closed-form properties of the SBBD composed from an (r, lam)-design on
    v points with b blocks and OD_1(b) (eta = 1), on K_{b, v}."""

    v: int
    b: int
    r: int
    lam: int
    k: int | None  # constant block size, or None when sizes vary

    @property
    def v1(self) -> int:
        return self.b

    @property
    def v2(self) -> int:
        return self.v

    @property
    def n_rows(self) -> int:
        return self.b * (self.b - 1)

    @property
    def lam_tuple(self) -> tuple:
        b, r, lam = self.b, self.r, self.lam
        return (r * (b - 1), lam * (b - 1), r * (r - 1), r * r - lam)

    def eigenvalues(self) -> dict:
        """{eigenvalue: multiplicity} of X^T X written as
        (a-c) I(x)I + (b-d) I(x)J + c J(x)I + d J(x)J."""
        mu, l12, l21, l22 = self.lam_tuple
        a, b, c, d = mu - l12, l12, l21 - l22, l22
        v1, v2 = self.v1, self.v2
        base = a - c
        pairs = (
            (base, (v1 - 1) * (v2 - 1)),  # p, q both contrasts
            (base + (b - d) * v2, v1 - 1),  # q = ones
            (base + c * v1, v2 - 1),  # p = ones
            (base + (b - d) * v2 + c * v1 + d * v1 * v2, 1),  # both ones
        )
        out: dict = {}
        for val, mult in pairs:
            out[val] = out.get(val, 0) + mult
        return out

    @property
    def alpha(self) -> int:
        mu, l12, l21, l22 = self.lam_tuple
        return (mu - l12) - (l21 - l22)

    @property
    def a_criterion(self) -> Fraction:
        return Fraction((self.v1 - 1) * (self.v2 - 1), self.alpha)

    @property
    def semi_regular(self) -> bool:
        # every row holds all b blocks once: left degrees are block sizes,
        # right degrees are r
        return self.k is not None

    @property
    def a_lower_bound(self) -> Fraction | None:
        if not self.semi_regular:
            return None
        nc = (self.v1 - 1) * (self.v2 - 1)
        return Fraction(nc * nc, self.lam_tuple[0] * (self.v1 * self.v2 - self.k * self.v1))


# --- the benchmark's own view of a design matrix ---------------------------


def condition_groups(m: np.ndarray, v1: int, v2: int) -> dict:
    """Entries of X^T X grouped by the condition that constrains them."""
    f = np.ascontiguousarray(m, dtype=np.float64)
    g = (f.T @ f).reshape(v1, v2, v1, v2).transpose(0, 2, 1, 3)  # [i, j] = X_i^T X_j
    eye = np.eye(v2, dtype=bool)
    same = np.eye(v1, dtype=bool)
    diag, off = g[..., eye], g[..., ~eye]
    return {"II": diag[same], "III": off[same], "IV": diag[~same], "V": off[~same]}


def is_spanning(m: np.ndarray, v1: int, v2: int) -> bool:
    blocks = np.asarray(m).reshape(m.shape[0], v1, v2)
    return bool(blocks.sum(axis=2).all() and blocks.sum(axis=1).all())


def violated(m: np.ndarray, v1: int, v2: int) -> set:
    """Numerals of the conditions (I)-(V) that `m` breaks."""
    out = {k for k, vals in condition_groups(m, v1, v2).items() if vals.size and np.ptp(vals) != 0}
    if not is_spanning(m, v1, v2):
        out.add("I")
    return out


def parse_csv(data: bytes) -> np.ndarray:
    """A header-less 0/1 CSV as a uint8 matrix; ValueError on anything else."""
    raw = np.frombuffer(data, dtype=np.uint8)
    allowed = np.isin(raw, np.frombuffer(b"01,\n\r ", dtype=np.uint8))
    if not allowed.all():
        raise ValueError("CSV holds bytes other than 0/1 entries and separators")
    lines = [ln for ln in data.split(b"\n") if ln.strip()]
    digits = raw[(raw == ord("0")) | (raw == ord("1"))] - ord("0")
    width = lines[0].count(b"0") + lines[0].count(b"1") if lines else 0
    if not lines or digits.size != len(lines) * width:
        raise ValueError("empty or ragged CSV")
    return digits.reshape(len(lines), width)


def parse_blocks_json(data: bytes):
    blob = json.loads(data)
    v1, v2 = int(blob["v1"]), int(blob["v2"])
    m = np.zeros((len(blob["blocks"]), v1 * v2), dtype=np.uint8)
    for row, block in enumerate(blob["blocks"]):
        for i, j in block:
            m[row, (i - 1) * v2 + (j - 1)] = 1
    return v1, v2, m


# --- per-call checks ------------------------------------------------------

NUMERAL = re.compile(r"[(\"']\s*(I|II|III|IV|V)\s*[)\"']")


def design_problems(m: np.ndarray, v1: int, v2: int, exp: Expected) -> list:
    if (v1, v2) != (exp.v1, exp.v2) or m.shape != (exp.n_rows, exp.v1 * exp.v2):
        return [f"design shape {m.shape} on ({v1},{v2}), expected "
                f"({exp.n_rows}, {exp.v1 * exp.v2}) on ({exp.v1},{exp.v2})"]
    groups = condition_groups(m, v1, v2)
    problems = []
    for (cond, vals), want in zip(groups.items(), exp.lam_tuple):
        if vals.size and not (vals == want).all():
            problems.append(f"condition ({cond}) entries {np.unique(vals)[:4]} != {want}")
    if not is_spanning(m, v1, v2):
        problems.append("composed design does not span")
    return problems


def _analysis(stdout: str, exp: Expected) -> list:
    rep = json.loads(stdout)
    got = {
        "lambda": tuple(rep["lambda"]),
        "spanning": rep["spanning"],
        "spectrum": {Fraction(s["value"]): s["mult"] for s in rep["spectrum"]},
        "a_criterion": Fraction(rep["a_criterion"]),
        "a_lower_bound": None if rep["a_lower_bound"] is None else Fraction(rep["a_lower_bound"]),
        "semi_regular": rep["semi_regular"],
        "regular": rep["regular"],
        "a_optimal_in_omega": rep["a_optimal_in_omega"],
    }
    want = {
        "lambda": exp.lam_tuple,
        "spanning": True,
        "spectrum": exp.eigenvalues(),
        "a_criterion": exp.a_criterion,
        "a_lower_bound": exp.a_lower_bound,
        "semi_regular": exp.semi_regular,
        "regular": exp.semi_regular and exp.k == exp.r,
        "a_optimal_in_omega": exp.semi_regular and exp.a_criterion == exp.a_lower_bound,
    }
    return [f"{k}: got {got[k]!r}, expected {want[k]!r}" for k in want if got[k] != want[k]]


def _mask_bin(blob: bytes, m: np.ndarray, exp: Expected) -> list:
    n, width = m.shape
    if len(blob) != 12 + n * width:
        return [f"mask blob has {len(blob)} bytes, expected {12 + n * width}"]
    header = struct.unpack("<III", blob[:12])
    if header != (n, exp.v1, exp.v2):
        return [f"mask header {header} != {(n, exp.v1, exp.v2)}"]
    if blob[12:] != m.astype(np.uint8).tobytes():
        return ["mask body differs from the design matrix"]
    return []


def _mask_json(data: bytes, m: np.ndarray, exp: Expected) -> list:
    blob = json.loads(data)
    masks = np.asarray(blob["masks"])
    if (blob["v1"], blob["v2"]) != (exp.v1, exp.v2) or masks.shape != (m.shape[0], exp.v1, exp.v2):
        return [f"mask JSON shape {masks.shape} on ({blob['v1']},{blob['v2']})"]
    if not (masks.reshape(m.shape) == m).all():
        return ["mask JSON differs from the design matrix"]
    return []


def _rejection(output: str, allowed: list) -> list:
    found = set(NUMERAL.findall(output))
    if "SpanningViolation" in output:  # the spanning refusal names its error, not a numeral
        found.add("I")
    if not found & set(allowed):
        return [f"rejection names conditions {sorted(found)}, expected one of {allowed}"]
    return []


def _simulation(stdout: str, exp: Expected, runs: int, sigma: float) -> list:
    rep = json.loads(stdout)
    problems = []
    predicted = sigma * sigma / exp.alpha
    if rep["runs"] != runs or rep["sigma"] != sigma:
        problems.append(f"runs/sigma echoed as {rep['runs']}/{rep['sigma']}")
    if rep["alpha"] != exp.alpha:
        problems.append(f"alpha {rep['alpha']} != {exp.alpha}")
    if rep["predicted_variance"] != predicted:
        problems.append(f"predicted_variance {rep['predicted_variance']!r} != {predicted!r}")
    contrasts = rep["contrasts"]
    index = [(c["i"], c["j"]) for c in contrasts]
    if index != [(i, j) for i in range(1, exp.v1) for j in range(1, exp.v2)]:
        return problems + [f"{len(index)} contrasts, expected {(exp.v1 - 1) * (exp.v2 - 1)}"]
    var = np.array([c["variance"] for c in contrasts], dtype=float)
    mean_err = np.array([c["mean"] - c["true"] for c in contrasts], dtype=float)
    dev_bound = Z_MAX * math.sqrt(2.0 / (runs - 1))
    mean_bound = Z_MAX * math.sqrt(predicted / runs)
    rel = np.abs(var - predicted) / predicted
    # written so that NaN fails every comparison
    if not (rel <= dev_bound).all():
        problems.append(f"contrast variance off by up to {rel.max()} (bound {dev_bound:.4g})")
    if not (np.abs(mean_err) <= mean_bound).all():
        problems.append(f"contrast mean biased beyond {mean_bound:.4g}")
    reported = rep["max_relative_deviation"]
    if not (isinstance(reported, (int, float)) and reported <= dev_bound
            and math.isclose(reported, float(rel.max()), rel_tol=1e-9, abs_tol=1e-15)):
        problems.append(f"max_relative_deviation {reported!r} vs recomputed {rel.max()!r}")
    return problems


def check_call(check: tuple, code, expected_code: int, stdout: str, stderr: str) -> list:
    """Problems with one invocation's exit code and outputs; empty when correct."""
    if code != expected_code:
        return [f"exit code {code}, expected {expected_code}: {stderr.strip()[-300:]}"]
    if "Traceback (most recent call last)" in stderr:
        return ["traceback on stderr"]
    kind, *params = check
    try:
        if kind == "design_csv":
            path, exp = params
            return design_problems(parse_csv(Path(path).read_bytes()), exp.v1, exp.v2, exp)
        if kind == "design_json":
            path, exp = params
            v1, v2, m = parse_blocks_json(Path(path).read_bytes())
            return design_problems(m, v1, v2, exp)
        if kind == "analysis":
            return _analysis(stdout, *params)
        if kind == "mask_bin":
            blob, csv, exp = params
            return _mask_bin(Path(blob).read_bytes(), parse_csv(Path(csv).read_bytes()), exp)
        if kind == "mask_json":
            masks, design, exp = params
            return _mask_json(Path(masks).read_bytes(), parse_blocks_json(Path(design).read_bytes())[2], exp)
        if kind == "rejection":
            return _rejection(stdout + stderr, *params)
        if kind == "simulation":
            return _simulation(stdout, *params)
    except Exception as exc:  # malformed output is a failed invocation, not a benchmark crash
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown check kind {kind!r}")
