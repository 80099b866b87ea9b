#!/usr/bin/env python3
"""Self-test of the output checks.

    python3 perfbench/selftest.py

Runs the smallest design-ladder and mc-small invocations through the CLI,
requires every real output to pass its check, then corrupts the outputs and
requires each corruption to be caught: a flipped mask byte, a wrong Lambda,
a rejection case that exits 0, a rejection naming a condition that holds,
and a NaN contrast variance.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import check_call
from run import OUT, SRC, run_child
from workloads import prepare


def main() -> int:
    if not (SRC / "sbbd" / "cli.py").is_file():
        print(f"no sbbd sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        calls = prepare("design-ladder", work, 1, smoke=True) + prepare("mc-small", work, 1, smoke=True)
        outputs = {}
        ok = True
        for call in calls:
            _, code, out, err = run_child([sys.executable, "-m", "sbbd.cli", *call.argv], work)
            problems = check_call(call.check, code, call.exit_code, out, err)
            if problems:
                print(f"real output rejected: {call.label}: {problems}")
                ok = False
            outputs[call.label] = (call, code, out, err)

        def caught(name, label, code=None, out=None, err=None, check=None):
            call, real_code, real_out, real_err = outputs[label]
            problems = check_call(
                check or call.check,
                real_code if code is None else code,
                call.exit_code,
                real_out if out is None else out,
                real_err if err is None else err,
            )
            print(f"{'caught' if problems else 'MISSED'}: {name}: {problems[:1]}")
            return bool(problems)

        # a flipped mask byte
        call = outputs["mask bin fano"][0]
        _, blob, csv, exp = call.check
        data = bytearray(open(blob, "rb").read())
        data[12 + 5] ^= 1
        bad_blob = work / "corrupt.bin"
        bad_blob.write_bytes(bytes(data))
        ok &= caught("flipped mask byte", "mask bin fano", check=("mask_bin", str(bad_blob), csv, exp))

        # a wrong Lambda
        rep = json.loads(outputs["analyze fano"][2])
        rep["lambda"][2] += 1
        ok &= caught("wrong Lambda", "analyze fano", out=json.dumps(rep))

        # rejection cases that exit 0, or that name a condition which holds
        flip = next(label for label in outputs if "flip first" in label)
        ok &= caught("rejection exits 0", flip, code=0)
        holds = sorted({"I", "II", "III", "IV", "V"} - set(outputs[flip][0].check[1]))
        if holds:
            ok &= caught("rejection names a condition that holds", flip, out="",
                         err=f"ConditionViolation: condition ({holds[0]}) violated")

        # a NaN variance
        sim = next(label for label in outputs if label.startswith("simulate"))
        rep = json.loads(outputs[sim][2])
        rep["contrasts"][0]["variance"] = float("nan")
        ok &= caught("NaN variance", sim, out=json.dumps(rep))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
