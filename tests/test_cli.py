import json
import os
import subprocess
import sys

import pytest

from helpers import with_package_path
from ordercalc import calculus, cli
from ordercalc.cli import build_parser, main
from ordercalc.integrate import signed_integrate


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
    code, out, _ = run_cli("totord", "--points", ";1,0;;0,1;", capsys=capsys)  # empty entries are skipped
    assert code == 0
    assert json.loads(out)["chain"] == [[0.0, 0.0], [1.0, 1.0]]


def test_verify_mvt(capsys):
    code, out, _ = run_cli(
        "verify", "mvt", "--dim", "2", "--kernel", "t^2",
        "--x", "0,0", "--y", "1,1", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == pytest.approx([3 ** -0.5] * 2, abs=1e-6)


def test_verify_mvt_passes_a_large_integral_by_the_solvers_rule(monkeypatch, capsys):
    # The integral of exp over [30, 31] is about 1.8e13: the residual at the
    # solver's c is a few ulps of it, far above an absolute tolerance, and
    # the check is the solver's own, relative to the integral.  That is the
    # integral the solver solved against: f is integrated once.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return signed_integrate(*args, **kwargs)

    monkeypatch.setattr(calculus, "signed_integrate", counted)
    monkeypatch.setattr(cli, "signed_integrate", counted)
    code, out, _ = run_cli("verify", "mvt", "--kernel", "exp(t)", "--x", "30", "--y", "31", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["residual"][0] > 1e-8
    assert len(calls) == 1


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


@pytest.mark.parametrize("lo", ["0,,1", "0,1,", ",1", " , "])
def test_an_element_with_an_empty_coordinate_is_refused(lo, capsys):
    code, out, err = run_cli("integrate", "--dim", "2", "--lo", lo, "--hi", "1,2", "--kernel", "t", capsys=capsys)
    assert code == 1 and out == ""
    assert err == f"error: element {lo!r} has an empty coordinate\n"


def test_element_values_may_begin_with_a_minus_sign(capsys):
    # argparse read -1,-2 as an option name and exited with "expected one argument".
    code, out, err = run_cli(
        "integrate", "--dim", "2", "--lo", "-1,-2", "--hi", "1,2", "--kernel", "t", capsys=capsys,
    )
    assert code == 0, err
    assert json.loads(out)["value"] == pytest.approx([0.0, 0.0], abs=1e-9)


def test_an_element_in_exponent_form_may_begin_with_a_minus_sign(capsys):
    # -1e308 is no plain negative number to argparse: it reached the parser
    # as an option name.  Given as a value, the wide interval is refused.
    code, out, err = run_cli(
        "integrate", "--dim", "1", "--lo", "-1e308", "--hi", "1e308", "--kernel", "t", capsys=capsys,
    )
    assert code == 1 and out == "" and "wider than the float range" in err


def test_kernel_values_may_begin_with_a_minus_sign(capsys):
    code, out, err = run_cli("integrate", "--lo", "0", "--hi", "1", "--kernel", "-t", capsys=capsys)
    assert code == 0, err
    assert json.loads(out)["value"] == pytest.approx([-0.5], abs=1e-6)


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


_RESULT_KEYS = ["value", "lower", "upper", "gap", "depth", "converged", "tol", "max_depth", "extrema_method"]
_REPORT_KEYS = ["command", "backend", "name", "max_residual", "tolerance", "passed", "samples", "details"]

# A valid run of each verify target over two atoms.
_VERIFY_ARGS = {
    "mvt": ["--kernel", "t^2", "--x", "0,0", "--y", "1,1"],
    "ftc1": ["--kernel", "t^2", "--lo", "0,0", "--hi", "1,1", "--samples", "3", "--tol", "1e-5"],
    "ftc2": ["--kernel", "t^2", "--anti", "t^3/3", "--lo", "0,0", "--hi", "1,1", "--samples", "3", "--tol", "1e-5"],
    "usub": ["--kernel", "t^2", "--G", "t + 1", "--lo", "0,0", "--hi", "1,1", "--tol", "1e-5"],
    "parts": ["--kernel", "t", "--g", "t^2/2", "--lo", "0,0", "--hi", "1,1", "--tol", "1e-5"],
}


@pytest.mark.parametrize(
    "argv, exit_code, header, keys",
    [
        (["integrate", "--dim", "2", "--lo", "0,0", "--hi", "1,1", "--kernel", "t"], 0,
         "atom,value,lower,upper,gap,converged", ["command", "backend", *_RESULT_KEYS]),
        (["signed-integrate", "--dim", "2", "--a", "1,0", "--b", "0,1", "--kernel", "t"], 0,
         "atom,value,lower,upper,gap,converged", ["command", "backend", *_RESULT_KEYS]),
        (["verify", "mvt", "--dim", "2", *_VERIFY_ARGS["mvt"]], 0,
         "atom,c,residual", ["command", "backend", "c", "residual", "passed"]),
        *[
            (["verify", which, "--dim", "2", *_VERIFY_ARGS[which]], 0, "atom,max_residual,passed", _REPORT_KEYS)
            for which in ("ftc1", "ftc2", "usub", "parts")
        ],
        (["demo", "swap"], 2, "atom,value,lower,upper,gap,converged",
         ["command", "lower_sum_P", "upper_sum_Q", "lower_leq_upper", "integrable",
          *[f"integrate_{key}" for key in _RESULT_KEYS]]),
        (["bands", "--x", "1,0", "--y", "0,1"], 0, "atom,band", ["command", "lt", "gt", "eq"]),
        (["totord", "--points", "1,0;0,1"], 0, "index,atom0,atom1", ["command", "chain"]),
    ],
    ids=["integrate", "signed-integrate", "mvt", "ftc1", "ftc2", "usub", "parts", "demo", "bands", "totord"],
)
def test_csv_and_text_formats(argv, exit_code, header, keys, capsys):
    # Each run covers two atoms: a CSV header and two rows, and one text
    # line per payload key, in the payload's order.
    code, out, err = run_cli(*argv, "--format", "csv", capsys=capsys)
    assert (code, err) == (exit_code, "")
    lines = out.splitlines()
    assert lines[0] == header and len(lines) == 3
    code, out, err = run_cli(*argv, "--format", "text", capsys=capsys)
    assert (code, err) == (exit_code, "")
    assert [line.split(": ", 1)[0] for line in out.splitlines()] == keys


# The value flags without a default that each verify target reads.
_VERIFY_READS = {
    "mvt": {"x", "y"},
    "ftc1": {"lo", "hi"},
    "ftc2": {"lo", "hi", "x", "y", "anti"},
    "usub": {"lo", "hi", "G", "g"},
    "parts": {"lo", "hi", "g"},
}


@pytest.mark.parametrize(
    "which, flag",
    [
        (which, flag)
        for which, reads in _VERIFY_READS.items()
        for flag in ("lo", "hi", "x", "y", "anti", "g", "G")
        if flag not in reads
    ],
)
def test_each_verify_target_refuses_a_flag_it_does_not_read(which, flag, capsys):
    code, out, err = run_cli("verify", which, "--dim", "2", *_VERIFY_ARGS[which], f"--{flag}", "1", capsys=capsys)
    assert code == 1 and out == ""
    assert err == f"error: verify {which} does not read --{flag}\n"


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
        (["ftc2", "--kernel", "t^2", "--anti", "t^3/3", "--x", "1,0", "--lo", "0,0", "--hi", "1,1"],
         "--y is required"),
        (["ftc2", "--kernel", "t^2", "--anti", "t^3/3", "--y", "0,1", "--lo", "0,0", "--hi", "1,1"],
         "--x is required"),
        # a count of expressions that is neither 1 nor --dim names its flag
        (["ftc2", "--kernel", "t^2", *["--anti", "t^3/3"] * 3, "--lo", "0,0", "--hi", "1,1"],
         "--anti takes 1 or 2 expressions"),
        (["usub", "--kernel", "t", *["--G", "t"] * 3, "--lo", "0,0", "--hi", "1,1"],
         "--G takes 1 or 2 expressions"),
        (["parts", "--kernel", "t", *["--g", "t"] * 3, "--lo", "0,0", "--hi", "1,1"],
         "--g takes 1 or 2 expressions"),
    ],
    ids=[
        "ftc1", "ftc2", "usub", "parts", "ftc2-no-samples", "ftc2-x-without-y", "ftc2-y-without-x",
        "anti-count", "G-count", "g-count",
    ],
)
def test_verify_missing_input_exits_one_with_one_error_line(argv, message, capsys):
    code, out, err = run_cli("verify", *argv, "--dim", "2", capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_mvt_refuses_a_negative_tol(capsys):
    code, out, err = run_cli("verify", "mvt", "--x", "0", "--y", "1", "--kernel", "t^2", "--tol", "-1", capsys=capsys)
    assert code == 1 and out == ""
    assert "tol" in err


@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ("integrate", "--lo", "0", "--hi", "1", "--kernel", "t"),
    ("verify", "mvt", "--x", "0", "--y", "1", "--kernel", "t"),
])
def test_a_dim_below_one_is_refused_by_name(command, dim, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, "--dim", dim])
    assert info.value.code == 1
    assert f"argument --dim: must be at least 1, got {dim}" in capsys.readouterr().err


@pytest.mark.parametrize("levels, code", [(100, 0), (400, 1)])
def test_a_kernel_nested_past_the_limit_exits_one_without_a_traceback(levels, code):
    # In a child interpreter, as a user runs it, where 400 nested
    # parentheses used to overflow the parser's stack.
    kernel = "(" * levels + "t" + ")" * levels
    argv = ["integrate", "--dim", "1", "--lo", "0", "--hi", "1", "--kernel", kernel]
    proc = subprocess.run(
        [sys.executable, "-m", "ordercalc", *argv],
        capture_output=True, text=True, env=with_package_path(os.environ),
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code:
        assert proc.stderr == "error: nesting deeper than 100 levels at offset 100 (expected: at most 100 levels)\n"


def test_a_kernel_chained_past_the_depth_limit_exits_one_without_a_traceback():
    # 1200 terms used to print a RecursionError traceback from differentiate.
    argv = ["integrate", "--dim", "1", "--lo", "0", "--hi", "1", "--kernel", "+".join(["t"] * 1200)]
    proc = subprocess.run(
        [sys.executable, "-m", "ordercalc", *argv],
        capture_output=True, text=True, env=with_package_path(os.environ),
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr == "error: expression deeper than 120 levels at offset 241 (expected: at most 120 levels)\n"


@pytest.mark.parametrize(
    "descriptor, field",
    [('{"kind": "coordinatewise"}', "'kernels'"), ("[1, 2]", "JSON object"),
     ('{"kind": "coordinatewise", "kernels": "t^2"}', "'kernels'")],
    ids=["no-kernels", "not-an-object", "kernels-a-string"],
)
def test_a_malformed_function_descriptor_exits_one_naming_the_field(descriptor, field, capsys):
    code, out, err = run_cli(
        "integrate", "--lo", "0", "--hi", "1", "--function", descriptor, capsys=capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: function descriptor") and field in err and err.count("\n") == 1
