import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sbbd
from sbbd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_design_verify(capsys, fixture_dir):
    code, out, _ = run(capsys, "design", "verify", str(fixture_dir / "design_rl_3pts.json"))
    assert code == 0
    assert out.strip() == "v=3 b=4 r=3 lambda=2 k=variable"


def test_design_verify_rejects_bad_design(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"v": 3, "blocks": [[1, 2], [1, 3]]}')
    code, _, err = run(capsys, "design", "verify", str(bad))
    assert code == 1
    assert "NotRegular" in err


def test_design_verify_rejects_non_integer_points(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"v": 3.7, "blocks": [[1.9, 2], ["2", 3], [true, 3], [1, 2, 3]]}')
    code, _, err = run(capsys, "design", "verify", str(bad))
    assert code == 1
    assert "FormatError" in err


def test_od_construct_and_verify(capsys, tmp_path):
    out_file = tmp_path / "od4.csv"
    code, _, _ = run(capsys, "od", "construct", "--q", "4", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert len(rows) == 12

    code, out, _ = run(capsys, "od", "verify", str(out_file))
    assert code == 0
    assert "eta=1 s=4 n=4 rows=12" in out


def test_od_verify_bad_file_exits_one(capsys, tmp_path):
    od = sbbd.construct_od1(3)
    rows = od.rows.copy()
    rows[0, 0], rows[0, 1] = rows[0, 1], rows[0, 0]
    bad = tmp_path / "bad_od.csv"
    bad.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    code, _, err = run(capsys, "od", "verify", str(bad))
    assert code == 1
    assert "PairCountMismatch" in err


def test_od_construct_builds_an_extension_field_beyond_49(capsys):
    code, out, _ = run(capsys, "od", "construct", "--q", "64")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4032
    assert all(sorted(map(int, row.split(","))) == list(range(1, 65)) for row in rows)


def test_od_construct_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "od", "construct", "--q", "6")
    assert code == 1
    assert "NotPrimePower" in err


def test_compose_to_stdout(capsys):
    code, out, _ = run(capsys, "compose", "--design", "catalog:fano", "--od", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 42
    assert len(lines[0].split(",")) == 49


def test_compose_perms_and_json_output(capsys, tmp_path):
    design = tmp_path / "d.json"
    design.write_text('{"v": 3, "blocks": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]}')
    out_file = tmp_path / "composed.json"
    code, out, _ = run(
        capsys,
        "compose",
        "--design",
        str(design),
        "--od",
        "4",
        "--perms",
        "cyclic:2",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "24 x 12" in out
    x = sbbd.blocks_from_json(out_file.read_text())
    assert sbbd.check_sbbd(x).lam == (18, 12, 12, 14)


@pytest.mark.parametrize(
    "perms", ["spiral:2", "cyclic:²", "cyclic:0", "cyclic:2.5", "cyclic:"]  # "²" isdigit, not isdecimal
)
def test_compose_bad_perms_is_usage_error(capsys, perms):
    code, _, err = run(
        capsys, "compose", "--design", "catalog:fano", "--od", "7", "--perms", perms
    )
    assert code == 2
    assert "usage error" in err


def test_compose_od_non_ascii_digit_is_read_as_a_path(capsys):
    code, _, err = run(capsys, "compose", "--design", "catalog:fano", "--od", "²")
    assert code == 2
    assert "No such file" in err and "'²'" in err


def test_analyze_human_readable(capsys, fixture_dir):
    code, out, _ = run(capsys, "analyze", str(fixture_dir / "design_3_3_9.csv"))
    assert code == 0
    assert "SBBD(3, 3, 9); Lambda = (6, 3, 4, 4)" in out
    assert "36 x 1" in out and "3 x 6" in out and "0 x 2" in out
    assert "A-criterion: 4/3" in out


def test_analyze_json_payload(capsys, fixture_dir):
    code, out, _ = run(capsys, "analyze", str(fixture_dir / "design_3_3_9.csv"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == [6, 3, 4, 4]
    assert payload["spanning"] is True
    assert payload["spectrum"] == [
        {"value": "36", "mult": 1},
        {"value": "3", "mult": 6},
        {"value": "0", "mult": 2},
    ]
    assert payload["a_criterion"] == "4/3"
    assert payload["a_lower_bound"] is None
    assert payload["semi_regular"] is False
    assert payload["a_optimal_in_omega"] is False


def test_analyze_json_design_file(capsys, tmp_path, x22):
    f = tmp_path / "design.json"
    f.write_text(sbbd.blocks_to_json(x22))
    code, out, _ = run(capsys, "analyze", str(f), "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == [6, 3, 4, 4]


def test_json_design_dims_must_match_flags(capsys, tmp_path, x22):
    f = tmp_path / "design.json"
    f.write_text(sbbd.blocks_to_json(x22))
    out_file = tmp_path / "o.bin"
    mask = ["mask", str(f), "--format", "bin", "--out", str(out_file)]
    for command in (mask, ["analyze", str(f), "--json"]):
        for flags in (["--v1", "2"], ["--v2", "4"], ["--v1", "3", "--v2", "1"]):
            code, out, err = run(capsys, *command, *flags)
            assert code == 2
            assert "usage error" in err and "SB-block JSON" in err
            assert out == "" and not out_file.exists()
        code, _, _ = run(capsys, *command, "--v1", "3", "--v2", "3")
        assert code == 0
        out_file.unlink(missing_ok=command is not mask)


def test_analyze_stdin_matches_file(capsys, fixture_dir, monkeypatch):
    data = (fixture_dir / "design_3_3_9.csv").read_bytes()
    code, from_file, _ = run(capsys, "analyze", str(fixture_dir / "design_3_3_9.csv"), "--json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, from_stdin, _ = run(capsys, "analyze", "-", "--json")
    assert code == 0
    assert from_stdin == from_file


def test_full_pipeline_fano(capsys, monkeypatch):
    code, csv_text, _ = run(capsys, "compose", "--design", "catalog:fano", "--od", "7")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(csv_text.encode())))
    code, out, _ = run(capsys, "analyze", "-", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == [18, 6, 6, 8]
    assert payload["a_optimal_in_omega"] is True
    assert payload["regular"] is True


def test_analyze_flags_violation(capsys, tmp_path, x22):
    m = x22.matrix.copy()
    m[0, 0] ^= 1
    bad = tmp_path / "bad.csv"
    bad.write_bytes(sbbd.matrix_to_csv(sbbd.DesignMatrix(3, 3, m)))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "ConditionViolation" in err


def test_analyze_json_rejection_payload(capsys, tmp_path, x22):
    m = x22.matrix.copy()
    m[0, 0] ^= 1  # mu is read at (1, 1), so the witness is the next diagonal cell
    bad = tmp_path / "bad.csv"
    bad.write_bytes(sbbd.matrix_to_csv(sbbd.DesignMatrix(3, 3, m)))
    code, out, err = run(capsys, "analyze", "--json", str(bad))
    assert code == 1
    assert "ConditionViolation" in err
    assert json.loads(out) == {
        "error": "ConditionViolation",
        "condition": "II",
        "witness": {"panel": 1, "position": [2, 2]},
        "message": "condition (II) violated: diagonal of X_1^T X_1 is 6 at 2,"
        " expected mu = 7",
    }


def test_analyze_non_square_needs_dims(capsys, tmp_path, composed_b4):
    f = tmp_path / "b4.csv"
    f.write_bytes(sbbd.matrix_to_csv(composed_b4))
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "--v1" in err

    code, out, _ = run(capsys, "analyze", str(f), "--v1", "4", "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == [9, 6, 6, 7]


def test_simulate_human_and_json(capsys, fixture_dir):
    code, out, _ = run(
        capsys,
        "simulate",
        str(fixture_dir / "design_3_3_9.csv"),
        "--sigma",
        "1.0",
        "--runs",
        "400",
        "--seed",
        "5",
    )
    assert code == 0
    assert "alpha=3" in out
    assert "(2,2)" in out

    code, out, _ = run(
        capsys,
        "simulate",
        str(fixture_dir / "design_3_3_9.csv"),
        "--sigma",
        "1.0",
        "--runs",
        "400",
        "--seed",
        "5",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 3
    assert len(payload["contrasts"]) == 4


def test_simulate_rejection_payload_names_the_witness(capsys, tmp_path, fano_composed):
    m = fano_composed.matrix.copy()
    m[0, 3] ^= 1
    bad = tmp_path / "bad.csv"
    bad.write_bytes(sbbd.matrix_to_csv(sbbd.DesignMatrix(7, 7, m)))
    expected = {
        "error": "ConditionViolation",
        "condition": "II",
        "witness": {"panel": 1, "position": [4, 4]},
        "message": "condition (II) violated: diagonal of X_1^T X_1 is 19 at 4,"
        " expected mu = 18",
    }
    code, out, err = run(capsys, "simulate", str(bad), "--sigma", "1", "--runs", "100", "--json")
    assert code == 1
    assert "ConditionViolation" in err
    assert json.loads(out) == expected
    code, out, _ = run(capsys, "analyze", "--json", str(bad))
    assert code == 1
    assert json.loads(out) == expected


def test_simulate_with_tau_file(capsys, fixture_dir, tmp_path):
    tau = sbbd.random_effects(3, 3, seed=11)
    tau_file = tmp_path / "tau.json"
    tau_file.write_text(json.dumps({"v1": 3, "v2": 3, "tau": tau.tau.tolist()}))
    code, out, _ = run(
        capsys,
        "simulate",
        str(fixture_dir / "design_3_3_9.csv"),
        "--sigma",
        "0",
        "--runs",
        "2",
        "--tau",
        str(tau_file),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    for entry in payload["contrasts"]:
        assert entry["mean"] == pytest.approx(entry["true"], abs=1e-9)


def test_mask_json(capsys, fixture_dir):
    code, out, _ = run(capsys, "mask", str(fixture_dir / "design_3_3_9.csv"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["masks"]) == 9
    total = np.array(payload["masks"]).sum(axis=0)
    assert (total == 6).all()


def test_mask_refuses_non_spanning(capsys, tmp_path, single_edge_blocks):
    f = tmp_path / "star.csv"
    f.write_bytes(sbbd.matrix_to_csv(single_edge_blocks))
    code, _, err = run(capsys, "mask", str(f), "--v1", "2")
    assert code == 1
    assert "SpanningViolation" in err


def test_mask_rejection_payload(capsys, tmp_path, single_edge_blocks, x22):
    f = tmp_path / "star.csv"
    f.write_bytes(sbbd.matrix_to_csv(single_edge_blocks))
    code, out, _ = run(capsys, "mask", str(f), "--v1", "2", "--format", "bin")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "SpanningViolation"
    assert payload["condition"] is None and payload["witness"] is None

    m = x22.matrix.copy()
    m[4, 7] ^= 1
    f.write_bytes(sbbd.matrix_to_csv(sbbd.DesignMatrix(3, 3, m)))
    code, out, _ = run(capsys, "mask", str(f))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ConditionViolation"
    assert (payload["condition"], payload["witness"]) == (
        "V",
        {"panels": [1, 3], "position": [1, 2]},
    )


def test_mask_binary_output(capsys, tmp_path, fixture_dir):
    out_file = tmp_path / "masks.bin"
    code, _, _ = run(
        capsys,
        "mask",
        str(fixture_dir / "design_3_3_9.csv"),
        "--format",
        "bin",
        "--out",
        str(out_file),
    )
    assert code == 0
    blob = out_file.read_bytes()
    schedule = sbbd.schedule_from_bytes(blob)
    assert schedule.n_rows == 9


def test_analyze_reads_lenient_csv_like_canonical(capsys, tmp_path, fixture_dir):
    canonical = fixture_dir / "design_3_3_9.csv"
    lenient = tmp_path / "lenient.csv"
    lenient.write_bytes(b"\n\t \n" + canonical.read_bytes().replace(b"\n", b" \r\n"))
    code, expected, _ = run(capsys, "analyze", "--json", str(canonical))
    assert code == 0
    assert run(capsys, "analyze", "--json", str(lenient)) == (0, expected, "")


@pytest.mark.parametrize("command", [["analyze", "--json"], ["mask", "--format", "bin"]])
def test_non_utf8_design_is_format_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"0,1\xff,1\n")
    code, out, err = run(capsys, *command, str(bad))
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["error"] == "FormatError"
    assert str(bad) in payload["message"]


@pytest.mark.parametrize("command", [["analyze", "--json"], ["mask", "--format", "bin"]])
@pytest.mark.parametrize("which", ["first", "last"])
def test_non_ascii_digit_in_design_is_format_error(capsys, tmp_path, fano_composed, command, which):
    text = "\n".join(",".join(map(str, row)) for row in fano_composed.matrix.tolist()) + "\n"
    k = text.index("1") if which == "first" else text.rindex("1")
    bad = tmp_path / "fano.csv"
    bad.write_text(text[:k] + "\u0661" + text[k + 1 :], encoding="utf-8")  # ARABIC-INDIC DIGIT ONE
    code, out, err = run(capsys, *command, str(bad))
    assert code == 1
    assert err.startswith("FormatError:") and "Traceback" not in err
    payload = json.loads(out)
    assert payload["error"] == "FormatError"
    assert str(bad) in payload["message"]


def test_od_verify_non_ascii_digits_is_format_error(capsys, tmp_path):
    bad = tmp_path / "od.csv"
    bad.write_text("\u0661,\u0662\n\u0662,\u0661\n", encoding="utf-8")
    code, out, err = run(capsys, "od", "verify", str(bad))
    assert code == 1
    assert err.startswith("FormatError:") and out == ""


@pytest.mark.parametrize(
    "command, text",
    [
        (["analyze"], "99999999999999999999,1,1,1\n"),
        (["od", "verify"], "1,2\n2,1\n99999999999999999999,1\n"),
    ],
)
def test_token_beyond_int64_is_format_error(capsys, tmp_path, command, text):
    big = tmp_path / "big.csv"
    big.write_text(text)
    code, _, err = run(capsys, *command, str(big))
    assert code == 1
    assert err.startswith("FormatError:") and "int64" in err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv, text, payload",
    [
        (["design", "verify"], '{"v": 100000, "blocks": [[1, 2]]}', False),
        (["analyze", "--json"], '{"v1": 100000, "v2": 100000, "blocks": [[[1, 1]]]}', True),
        (["od", "construct", "--q", "100003"], None, False),
        (["compose", "--design", "catalog:qr100003", "--od", "7"], None, False),
    ],
)
def test_input_beyond_memory_exits_one(tmp_path, argv, text, payload):
    # the child's address space is capped at 2 GiB, so numpy refuses the
    # oversized array up front and no test allocates it
    if text is not None:
        (tmp_path / "big.json").write_text(text)
        argv = argv + ["big.json"]
    src = Path(sbbd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "sbbd.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("MemoryError: the input needs more memory than is available")
    assert "Unable to allocate" in done.stderr and "Traceback" not in done.stderr
    if payload:
        assert json.loads(done.stdout)["error"] == "MemoryError"


HUGE = "1000000000000000000000000000057"  # 10^30 + 57; trial division would take about 10^15 steps


@pytest.mark.parametrize(
    "argv, error",
    [
        (["od", "construct", "--q", HUGE], "DimensionError"),
        (["compose", "--design", "catalog:fano", "--od", HUGE], "DimensionError"),
        (["compose", "--design", f"catalog:qr{HUGE}", "--od", "7"], "NotInCatalog"),  # HUGE = 1 (mod 4)
        (["compose", "--design", "catalog:qr1000000000000000000000000000059", "--od", "7"], "DimensionError"),
    ],
)
def test_huge_orders_exit_one_at_once(tmp_path, argv, error):
    src = Path(sbbd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "sbbd.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"{error}:") and "Traceback" not in done.stderr


def test_non_utf8_tau_is_usage_error(capsys, tmp_path, fixture_dir):
    tau_file = tmp_path / "tau.json"
    tau_file.write_bytes(b'{"v1": 3\xff}')
    code, _, err = run(
        capsys, "simulate", str(fixture_dir / "design_3_3_9.csv"),
        "--sigma", "1", "--runs", "10", "--tau", str(tau_file),
    )
    assert code == 2
    assert "usage error: --tau" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.csv")
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--seed", str(2**128)), ("--seed", "x"), ("--sigma", "nan"),
     ("--sigma", "-1"), ("--sigma", "inf")],
)
def test_simulate_bad_seed_or_sigma_is_usage_error(capsys, fixture_dir, flag, value):
    argv = ["simulate", str(fixture_dir / "design_3_3_9.csv"), "--runs", "10"]
    argv += ["--sigma", "1"] if flag == "--seed" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--v1", "0"), ("--v2", "0"), ("--v1", "-3")])
def test_nonpositive_dims_are_usage_errors(capsys, fixture_dir, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(fixture_dir / "design_3_3_9.csv"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err


NEST = "[" * 200_000 + "]" * 200_000  # past the recursion limit of json.loads


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"v1": 3, "tau": [0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"v1": 3, "v2": "3", "tau": [0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"v1": 3, "v2": 3, "tau": "0"}',
        '{"v1": 3, "v2": 3, "tau": [0, 0, 0, 0, 0, 0, 0, 0, null]}',
        '{"v1": true, "v2": 3, "tau": [0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        pytest.param(f'{{"v1": 3, "v2": 3, "tau": {NEST}}}', id="nested-past-the-recursion-limit"),
    ],
)
def test_simulate_malformed_tau_is_usage_error(capsys, fixture_dir, tmp_path, text):
    tau_file = tmp_path / "tau.json"
    tau_file.write_text(text)
    code, _, err = run(
        capsys, "simulate", str(fixture_dir / "design_3_3_9.csv"),
        "--sigma", "1", "--runs", "10", "--tau", str(tau_file),
    )
    assert code == 2
    assert "usage error: --tau" in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["analyze", "--json"], f'{{"v1": 2, "v2": 2, "blocks": {NEST}}}'),
        (["mask"], f'{{"v1": 2, "v2": 2, "blocks": {NEST}}}'),
        (["design", "verify"], f'{{"v": 3, "blocks": {NEST}}}'),
    ],
    ids=["analyze", "mask", "design-verify"],
)
def test_deeply_nested_json_is_a_format_error(capsys, tmp_path, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err.startswith("FormatError:") and "maximum recursion depth" in err
    if argv[0] != "design":
        assert json.loads(out)["error"] == "FormatError"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["design", "verify"], '{"v": 1000000000000000000000000000000, "blocks": [[1, 2], [1, 2]]}'),
        (["analyze"], '{"v1": 1000000000000000000000000000000, "v2": 2, "blocks": [[[1, 1]]]}'),
        (["mask"], '{"v1": 1000000000000000000000000000000, "v2": 2, "blocks": [[[1, 1]]]}'),
    ],
    ids=["design-verify", "analyze", "mask"],
)
def test_dimensions_beyond_the_largest_array_exit_one(capsys, tmp_path, argv, text):
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err.startswith("DimensionError:") and "largest array numpy can index" in err


def test_tau_int_beyond_float64_exits_one(capsys, tmp_path, fixture_dir):
    tau_file = tmp_path / "tau.json"
    tau_file.write_text('{"v1": 3, "v2": 3, "tau": [1%s, 0, 0, 0, 0, 0, 0, 0, 0]}' % ("0" * 400))
    code, _, err = run(
        capsys, "simulate", str(fixture_dir / "design_3_3_9.csv"),
        "--sigma", "1", "--runs", "10", "--tau", str(tau_file),
    )
    assert code == 1
    assert err.startswith("DimensionError: tau has an entry too large for float64")


def _main_to_text_stdout(*argv):
    """main() with stdout an io.StringIO, which has no byte buffer."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_text_stdout_takes_csv_and_json(capsys, fixture_dir):
    code, text = _main_to_text_stdout("compose", "--design", "catalog:fano", "--od", "7")
    fano = sbbd.compose(sbbd.catalog_by_id("fano"), sbbd.construct_od1(7))
    assert code == 0 and text.encode() == sbbd.matrix_to_csv(fano)
    code, text = _main_to_text_stdout("mask", str(fixture_dir / "design_3_3_9.csv"))
    assert code == 0 and len(json.loads(text)["masks"]) == 9


def test_binary_mask_to_text_stdout_is_usage_error(capsys, fixture_dir):
    code, text = _main_to_text_stdout("mask", str(fixture_dir / "design_3_3_9.csv"), "--format", "bin")
    assert (code, text) == (2, "")
    assert "usage error" in capsys.readouterr().err


def test_simulate_report_that_overflows_exits_one(capsys, fixture_dir):
    # the report at sigma 1e200 is inf and NaN, which no JSON payload may carry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "simulate", str(fixture_dir / "design_3_3_9.csv"),
            "--sigma", "1e200", "--runs", "10", "--json",
        )
    assert code == 1
    assert json.loads(out)["error"] == "DimensionError"
    assert "DimensionError: the report overflows float64" in err


def test_simulate_runs_beyond_two_pow_53_exits_one(capsys, fixture_dir):
    code, out, err = run(
        capsys, "simulate", str(fixture_dir / "design_3_3_9.csv"),
        "--sigma", "1", "--runs", str(10**30), "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert (payload["error"], payload["condition"], payload["witness"]) == ("DimensionError", None, None)
    assert "integer runs in [2, 2^53]" in payload["message"]
    assert err.startswith("DimensionError: ")


# SHA-256 of exit code, stdout, stderr and output file of each command below,
# recorded from a known-good build; a change that alters any byte of these
# outputs must re-record them on purpose.  simulate is left out: its last
# bits depend on the BLAS build and thread count.
GOLDEN = {
    "pairs3 compose csv": "4ccae63cd84632d9c15d2693c83ac1a477932862d4b2da86c48134f28b526523",
    "pairs3 compose json": "cf815987c3205e7aec2abb845575c279884185c39c17dbc62969a4ce1b57933c",
    "pairs3 analyze": "6b48009c8881d33a69bebc10fd190c3c920fbcddca51d66051b1a935a0ffd492",
    "pairs3 analyze json": "c1eb5281aa3e35f9e9916f7dcd61b79cf29380f3df3d3ac0226ed25be2135f82",
    "pairs3 mask bin": "d615519bc7a7121bfe80104f69ac5ebfa9116b8db877e0b490e43afc9bed05a5",
    "pairs3 mask json": "fc6e55f90fa6a47ed6d98418c18e85fd0724ce5d845dea962c3a524fbc979299",
    "fano compose csv": "93cdd8ccb6b0c953c576c3e46cf21599c1d61356d41ffe1b22b3873995c49ad8",
    "fano compose json": "9be630e74bbe9649161ff24050c859fbf81d5e8cc26bcac397767ea20de3bfda",
    "fano analyze": "1bea3e52030cc50b41783c6d4af82a32b54fc4d328c30e3dafd8b110e311ec50",
    "fano analyze json": "90925f6e1d523ad6735408b4d31abda77aa6772dce4f786a88458f4295156ee6",
    "fano mask bin": "e34276798a1d049b9278fcd197cb2081dfc0daa4396057e96326a0376b4778e6",
    "fano mask json": "9116c820c39abf21df324e176e0d67ee6741454bbcc81c8c32ddf2fa3e60c2b3",
    "pg23 compose csv": "5042cd873b8cd577d2cf605e153b82b4295ebd7edb4a317b4099f0c8c541f4e4",
    "pg23 compose json": "32ef9b4e346b1fa3a9572e9db21dd1a56ad6b976c570e68e28e8b50a547f0dad",
    "pg23 analyze": "0115f18fb9bc86299a82b74924c437a5d446ef44150f72837d548b345dafd96d",
    "pg23 analyze json": "0355c9d60c61a1a62ce5d5e695cfe332d68a601b0ac084abf58b34703b0205ed",
    "pg23 mask bin": "d4f859045a2508da864f0c4e5f510d30e37560a0d4e892f31ed91149fac663e1",
    "pg23 mask json": "a84296b135452068e62d79154b8d8659ec117b9cf17676ac2a41092ac1f1bcce",
    "qr19 compose csv": "4d73b1dde0f87cc6c0ea49923391b74d0212ed7cc42c978694267fe70563f0b3",
    "qr19 compose json": "652cbbc40ac4be924ca831296d83052287ef24ef86c6a0388140c59e96fbe850",
    "qr19 analyze": "2bcf66a1df38c002b08623f1a78fdc6a562ee199bfd8e5839f78a4b7bd80200e",
    "qr19 analyze json": "df006c479cb6a11d57475b4b74da620f2ebf6e6e894087fd499065edc4c2e8b8",
    "qr19 mask bin": "1d019f6308b43468b73bf8ebe00d5afc11d10bd938dea9ffad6d33dcccbc27f3",
    "qr19 mask json": "4a39652b8bf5fa5618438ce58aa983f2687c2769dcb7e80f1bcb1e1ff6fca4df",
    "fano bit flip analyze json": "34cd09a8f37d49dfed1f2d935f0785ac720cf456471411e61a2756ff0247813c",
}


def _golden_digests(capsysbinary):
    got = {}

    def digest(key, *argv, out=None):
        code = main(list(argv))
        captured = capsysbinary.readouterr()
        body = Path(out).read_bytes() if out else b""
        got[key] = hashlib.sha256(b"\0".join([b"%d" % code, captured.out, captured.err, body])).hexdigest()

    for name, od, dims in (("pairs3", "4", ["--v1", "4"]), ("fano", "7", []), ("pg23", "13", []), ("qr19", "19", [])):
        csv, blocks, masks = f"{name}.csv", f"{name}.json", f"{name}.bin"
        digest(f"{name} compose csv", "compose", "--design", f"catalog:{name}", "--od", od, "--out", csv, out=csv)
        digest(f"{name} compose json", "compose", "--design", f"catalog:{name}", "--od", od, "--out", blocks, out=blocks)
        digest(f"{name} analyze", "analyze", csv, *dims)
        digest(f"{name} analyze json", "analyze", "--json", csv, *dims)
        digest(f"{name} mask bin", "mask", csv, *dims, "--format", "bin", "--out", masks, out=masks)
        digest(f"{name} mask json", "mask", csv, *dims, "--format", "json")
    flipped = bytearray(Path("fano.csv").read_bytes())
    flipped[0] ^= 1  # the first entry, "0" <-> "1"
    Path("flipped.csv").write_bytes(flipped)
    digest("fano bit flip analyze json", "analyze", "--json", "flipped.csv")
    return got


def test_cli_outputs_match_golden_digests(capsysbinary, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _golden_digests(capsysbinary) == GOLDEN
