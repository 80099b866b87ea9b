"""Workload definitions: seeded input generation and the CLI invocations of one pass.

Every input file the program reads is generated here from the benchmark's own
construction (quadratic-residue difference-set designs over Z_p composed with
the affine ordered design OD_1(p)), never by the code under test.  `compose`
runs take catalog ids and a field order as flags, as a user would type them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Expected, design_problems, violated


# Catalog designs composed with OD_1(q), q = b: (v, b, r, lam, k).
RUNGS = {
    "pairs3": Expected(3, 4, 3, 2, None),  # block sizes vary: not a BIBD
    "fano": Expected(7, 7, 3, 1, 3),
    "pg23": Expected(13, 13, 4, 1, 4),
    "qr19": Expected(19, 19, 9, 4, 9),
    "qr23": Expected(23, 23, 11, 5, 11),
    "qr31": Expected(31, 31, 15, 7, 15),
}


def composed_matrix(name: str, columns=None) -> np.ndarray:
    """N x (s*p) design matrix: row (a, m) holds the blocks a + m*c, c in columns.

    For a prime rung p = 3 mod 4 (fano, qr*): the blocks are D + t over Z_p
    with D the quadratic residues.  With all p columns this is an SBBD with
    Lambda = (r(b-1), lam(b-1), r(r-1), r^2 - lam); a column subset keeps
    conditions (II)-(V) and may lose spanning.
    """
    p = RUNGS[name].v
    h = np.zeros((p, p), dtype=np.uint8)
    base = np.array(sorted({x * x % p for x in range(1, p)}))
    for t in range(p):
        h[t, (base + t) % p] = 1
    cols = np.arange(p) if columns is None else np.asarray(columns)
    a = np.repeat(np.arange(p), p - 1)
    m = np.tile(np.arange(1, p), p)
    symbols = (a[:, None] + m[:, None] * cols[None, :]) % p
    return h[symbols].reshape(len(a), len(cols) * p)


def write_csv(path: Path, m: np.ndarray) -> None:
    """Header-less 0/1 CSV, one row per line."""
    n, w = m.shape
    buf = np.full((n, 2 * w), ord(","), dtype=np.uint8)
    buf[:, 0::2] = m + ord("0")
    buf[:, -1] = ord("\n")
    path.write_bytes(buf.tobytes())


@dataclass
class Call:
    """One CLI invocation: argv after `python -m sbbd.cli`, its stage and its check."""

    stage: str  # compose | analyze | mask | reject | simulate
    label: str
    argv: list
    exit_code: int
    check: tuple  # (kind, *params) interpreted by checks.check_call
    runs: int = 0  # replications, for simulate


# Sizes per workload.  Full runs use the rungs and run counts below; --smoke
# uses the smallest inputs so every path finishes in seconds.
LADDER = ("pairs3", "fano", "pg23", "qr19", "qr23", "qr31")
LADDER_SMOKE = ("pairs3", "fano")
JSON_RUNG = {False: "qr19", True: "fano"}
REJECT_RUNG = {False: "qr31", True: "fano"}
MASK_REJECT_COLUMNS = {False: 8, True: 2}  # s <= b - r, so spanning is not guaranteed
MC = {
    "mc-small": {False: ("fano", 100_000), True: ("fano", 2_000)},
}


def _flip(m: np.ndarray, rng, panel: int, v2: int):
    out = m.copy()
    row = int(rng.integers(m.shape[0]))
    col = panel * v2 + int(rng.integers(v2))
    out[row, col] ^= 1
    return out, (row, col)


def _dims(name: str) -> list:
    rung = RUNGS[name]
    return [] if rung.b == rung.v else ["--v1", str(rung.b)]


def _ladder(work: Path, seed: int, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    calls = []
    for name in LADDER_SMOKE if smoke else LADDER:
        exp = RUNGS[name]
        csv = work / f"{name}.csv"
        calls += [
            Call("compose", f"compose {name}",
                 ["compose", "--design", f"catalog:{name}", "--od", str(exp.b), "--out", str(csv)],
                 0, ("design_csv", str(csv), exp)),
            Call("analyze", f"analyze {name}", ["analyze", "--json", *_dims(name), str(csv)],
                 0, ("analysis", exp)),
            Call("mask", f"mask bin {name}",
                 ["mask", "--format", "bin", *_dims(name), "--out", str(work / f"{name}.bin"), str(csv)],
                 0, ("mask_bin", str(work / f"{name}.bin"), str(csv), exp)),
        ]
    name = JSON_RUNG[smoke]
    exp = RUNGS[name]
    js = work / f"{name}.json"
    calls += [
        Call("compose", f"compose {name} json",
             ["compose", "--design", f"catalog:{name}", "--od", str(RUNGS[name].b), "--out", str(js)],
             0, ("design_json", str(js), exp)),
        Call("analyze", f"analyze {name} json", ["analyze", "--json", str(js)], 0, ("analysis", exp)),
        Call("mask", f"mask json {name}",
             ["mask", "--format", "json", "--out", str(work / f"{name}.masks.json"), str(js)],
             0, ("mask_json", str(work / f"{name}.masks.json"), str(js), exp)),
    ]

    # Rejections: one seeded bit flip in the first and one in the last panel,
    # and mask export of a non-spanning SBBD* built from a column subset.
    name = REJECT_RUNG[smoke]
    rung = RUNGS[name]
    base = composed_matrix(name)
    for tag, panel in (("first", 0), ("last", rung.b - 1)):
        flipped, where = _flip(base, rng, panel, rung.v)
        path = work / f"{name}.flip-{tag}.csv"
        write_csv(path, flipped)
        calls.append(
            Call("reject", f"analyze {name} flip {tag} panel at {where}",
                 ["analyze", "--json", str(path)], 1,
                 ("rejection", sorted(violated(flipped, rung.b, rung.v))))
        )
    s = MASK_REJECT_COLUMNS[smoke]
    for _ in range(100):
        star = composed_matrix(name, np.sort(rng.choice(rung.b, size=s, replace=False)))
        if violated(star, s, rung.v) == {"I"}:
            break
    else:
        raise RuntimeError(f"no non-spanning {s}-column subset of {name} found")
    path = work / f"{name}.star{s}.csv"
    write_csv(path, star)
    calls.append(
        Call("reject", f"mask {name} SBBD* s={s}",
             ["mask", "--format", "bin", "--v1", str(s), "--out", str(work / "star.bin"), str(path)],
             1, ("rejection", ["I"]))
    )
    return calls


def _monte_carlo(workload: str, work: Path, seed: int, smoke: bool) -> list:
    name, runs = MC[workload][smoke]
    exp = RUNGS[name]
    m = composed_matrix(name)
    problems = design_problems(m, exp.b, exp.v, exp)
    if problems:
        raise RuntimeError(f"generated {name} design does not match its closed form: {problems}")
    path = work / f"{name}.csv"
    write_csv(path, m)
    sim_seed = int(np.random.default_rng(seed).integers(1, 2**31))
    return [
        Call("simulate", f"simulate {name} runs={runs}",
             ["simulate", "--sigma", "1", "--runs", str(runs), "--seed", str(sim_seed), "--json", str(path)],
             0, ("simulation", exp, runs, 1.0), runs=runs)
    ]


WORKLOADS = ("design-ladder", "mc-small")


def prepare(workload: str, work: Path, seed: int, smoke: bool = False) -> list:
    """Write the workload's inputs under `work`; return the calls of one pass."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "design-ladder":
        return _ladder(work, seed, smoke)
    return _monte_carlo(workload, work, seed, smoke)
