import json
import os
import subprocess
import sys

import pytest

from helpers import with_package_path
from ordercalc.cli import build_parser, main


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_integrate_identity(capsys):
    code, out, err = run_cli(
        "integrate", "--dim", "2", "--lo", "0,0", "--hi", "1,1",
        "--kernel", "t", "--tol", "1e-6", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["value"] == pytest.approx([0.5, 0.5], abs=2e-6)


def test_integrate_square_on_mixed_box(capsys):
    code, out, _ = run_cli(
        "integrate", "--dim", "2", "--lo", "0,0", "--hi", "2,1",
        "--kernel", "t^2", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx([8 / 3, 1 / 3], rel=1e-5)


def test_integrate_nonconvergent_exit_code(capsys):
    code, out, _ = run_cli(
        "integrate", "--dim", "1", "--lo", "0", "--hi", "1",
        "--kernel", "t", "--tol", "1e-12", "--max-depth", "3", capsys=capsys,
    )
    assert code == 2
    assert json.loads(out)["converged"] is False


def test_signed_integrate_incomparable(capsys):
    code, out, _ = run_cli(
        "signed-integrate", "--dim", "2", "--a", "1,0", "--b", "0,1",
        "--kernel", "t", capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx([-0.5, 0.5], abs=2e-6)


def test_demo_swap(capsys):
    code, out, _ = run_cli("demo", "swap", capsys=capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["lower_sum_P"] == [0.0, 1.0]
    assert payload["upper_sum_Q"] == [1.0, 0.0]
    assert payload["lower_leq_upper"] is False
    assert payload["integrate_converged"] is False


def test_bands(capsys):
    code, out, _ = run_cli("bands", "--x", "1,0", "--y", "0,1", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["lt"] == [1] and payload["gt"] == [0] and payload["eq"] == []


def test_totord(capsys):
    code, out, _ = run_cli("totord", "--points", "1,0;0,1", capsys=capsys)
    assert code == 0
    assert json.loads(out)["chain"] == [[0.0, 0.0], [1.0, 1.0]]
    code, out, _ = run_cli("totord", "--points", "2,2", capsys=capsys)
    assert code == 0
    assert json.loads(out)["chain"] == [[2.0, 2.0]]


def test_verify_mvt(capsys):
    code, out, _ = run_cli(
        "verify", "mvt", "--dim", "2", "--kernel", "t^2",
        "--x", "0,0", "--y", "1,1", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == pytest.approx([3 ** -0.5] * 2, abs=1e-6)


def test_verify_ftc1(capsys):
    code, out, _ = run_cli(
        "verify", "ftc1", "--dim", "2", "--kernel", "t^2",
        "--lo", "0,0", "--hi", "1,1", "--tol", "1e-5", "--samples", "5",
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_ftc2_incomparable_pair(capsys):
    code, out, _ = run_cli(
        "verify", "ftc2", "--dim", "2", "--kernel", "t^2",
        "--anti", "t^3/3", "--x", "1,0", "--y", "0,1", "--tol", "1e-5",
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_usub_and_parts(capsys):
    code, out, _ = run_cli(
        "verify", "usub", "--dim", "2", "--kernel", "t^2", "--G", "t + 1",
        "--lo", "0,0", "--hi", "1,1", "--tol", "1e-5", capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(
        "verify", "parts", "--dim", "2", "--kernel", "t", "--g", "t^2/2",
        "--lo", "0,0", "--hi", "1,1", "--tol", "1e-5", capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(
        "integrate", "--dim", "2", "--lo", "0,0", "--hi", "1,1",
        "--kernel", "t +", capsys=capsys,
    )
    assert code == 1 and "error" in err
    code, _, err = run_cli(
        "integrate", "--dim", "2", "--lo", "1,1", "--hi", "0,0",
        "--kernel", "t", capsys=capsys,
    )
    assert code == 1
    code, _, err = run_cli(
        "integrate", "--dim", "3", "--lo", "0,0", "--hi", "1,1",
        "--kernel", "t", capsys=capsys,
    )
    assert code == 1


def test_interval_wider_than_the_float_range_exits_one(capsys):
    code, out, err = run_cli(
        "integrate", "--dim", "1", "--lo=-1e308", "--hi", "1e308", "--kernel", "t", capsys=capsys,
    )
    assert code == 1 and out == "" and "wider than the float range" in err


_BASE_ARGS = {
    "integrate": ["integrate", "--kernel", "t", "--lo", "0", "--hi", "1"],
    "signed-integrate": ["signed-integrate", "--kernel", "t", "--a", "0", "--b", "1"],
    "bands": ["bands", "--x", "0,1", "--y", "1,0"],
    "totord": ["totord", "--points", "0,1;1,2"],
    "demo": ["demo", "swap"],
    "verify": ["verify", "ftc1", "--kernel", "t", "--lo", "0", "--hi", "1"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("integrate", "--seed"),
        ("signed-integrate", "--seed"),
        ("bands", "--seed"),
        ("totord", "--seed"),
        ("demo", "--seed"),
        ("bands", "--tol"),
        ("totord", "--tol"),
        ("bands", "--max-depth"),
        ("totord", "--max-depth"),
        ("totord", "--dim"),
        ("demo", "--dim"),
        ("verify", "--max-depth"),
    ],
)
def test_options_no_handler_reads_are_rejected(command, flag):
    build_parser().parse_args(_BASE_ARGS[command])  # valid without the flag
    with pytest.raises(SystemExit) as info:
        main(_BASE_ARGS[command] + [flag, "1"])
    assert info.value.code == 1


def test_bad_subcommand_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "ordercalc", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_json_output_is_deterministic():
    cmd = [
        sys.executable, "-m", "ordercalc", "verify", "ftc2",
        "--dim", "2", "--kernel", "t^2", "--anti", "t^3/3",
        "--lo", "0,0", "--hi", "1,1", "--samples", "3", "--seed", "11",
    ]
    env = with_package_path(os.environ)
    runs = set()
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)
        runs.add(proc.stdout)
    assert len(runs) == 1


def test_csv_and_text_formats(capsys):
    code, out, _ = run_cli(
        "integrate", "--dim", "2", "--lo", "0,0", "--hi", "1,1",
        "--kernel", "t", "--format", "csv", capsys=capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("atom,value,lower,upper,gap")
    assert len(lines) == 3
    code, out, _ = run_cli(
        "integrate", "--dim", "2", "--lo", "0,0", "--hi", "1,1",
        "--kernel", "t", "--format", "text", capsys=capsys,
    )
    assert code == 0
    assert "value" in out


def test_kernel_broadcast_and_multiple(capsys):
    code, out, _ = run_cli(
        "integrate", "--dim", "2", "--lo", "0,0", "--hi", "1,1",
        "--kernel", "t", "--kernel", "t^2", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx([0.5, 1 / 3], abs=2e-6)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ftc1", "--kernel", "t^2"], "--lo is required"),
        (["ftc2", "--kernel", "t^2", "--anti", "t^3/3", "--samples", "5"], "--lo is required"),
        (["usub", "--kernel", "t^2", "--G", "t + 1", "--lo", "0,0"], "--hi is required"),
        (["parts", "--kernel", "t", "--g", "t^2/2"], "--lo is required"),
        (["ftc2", "--kernel", "t^2", "--anti", "t^3/3", "--lo", "0,0", "--hi", "1,1",
          "--samples", "0"], "at least one pair"),
    ],
    ids=["ftc1", "ftc2", "usub", "parts", "ftc2-no-samples"],
)
def test_verify_missing_input_exits_one_with_one_error_line(argv, message, capsys):
    code, out, err = run_cli("verify", *argv, "--dim", "2", capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err
