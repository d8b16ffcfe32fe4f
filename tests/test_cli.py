"""Tests for the command-line interface (in-process, via main)."""

import json

import pytest

from malcev5 import checks
from malcev5.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# arithmetic commands


def test_mul(capsys):
    code, out, err = run_cli(capsys, "mul", "b", "a")
    assert code == 0
    assert out == "ab - c\n"
    assert err == ""


def test_bracket(capsys):
    code, out, _ = run_cli(capsys, "bracket", "d", "c")
    assert code == 0
    assert out == "-e\n"


def test_assoc_envelope(capsys):
    code, out, _ = run_cli(capsys, "assoc", "abd", "abd", "abd")
    assert code == 0
    assert out == "1/6 abcd^2e - 1/6 abde^2 - 1/6 c^2d^2e + 11/36 cde^2 - 1/12 e^3\n"


def test_assoc_quotient_is_zero(capsys):
    code, out, _ = run_cli(capsys, "assoc", "--algebra", "a", "ab", "ab", "d")
    assert code == 0
    assert out == "0\n"


def test_assoc_quotient_nonzero(capsys):
    code, out, _ = run_cli(capsys, "assoc", "--algebra", "a", "a", "b", "d")
    assert code == 0
    assert out == "1/6 e\n"


def test_bracket_quotient(capsys):
    code, out, _ = run_cli(capsys, "bracket", "--algebra", "a", "a", "b")
    assert code == 0
    assert out == "c\n"


def test_mul_with_coefficients(capsys):
    code, out, _ = run_cli(capsys, "mul", "1/2 b - c", "2 a")
    assert code == 0
    assert out == "ab - 2 ac - c\n"


def test_project(capsys):
    code, out, _ = run_cli(capsys, "project", "ab - 1/6 ce + e^2")
    assert code == 0
    assert out == "ab\n"


def test_apply_op_rho(capsys):
    code, out, _ = run_cli(capsys, "apply-op", "rho", "a", "b")
    assert code == 0
    assert out == "-c\n"


def test_apply_op_l(capsys):
    code, out, _ = run_cli(capsys, "apply-op", "l", "d", "abc")
    assert code == 0
    assert out == "abcd - abe - 1/3 ce\n"


# ---------------------------------------------------------------------------
# JSON output


def test_mul_json(capsys):
    code, out, _ = run_cli(capsys, "mul", "--format", "json", "b", "a")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "1", "exp": [1, 1, 0, 0, 0]},
        {"coeff": "-1", "exp": [0, 0, 1, 0, 0]},
    ]


def test_quotient_json_carries_types(capsys):
    code, out, _ = run_cli(capsys, "assoc", "--algebra", "a", "--format", "json", "a", "b", "d")
    assert code == 0
    assert json.loads(out) == [{"coeff": "1/6", "exp": [0, 0, 0, 0, 1], "type": 1}]


def test_project_json_carries_types(capsys):
    code, out, _ = run_cli(capsys, "project", "--format", "json", "cd + ab + e")
    assert code == 0
    data = json.loads(out)
    assert {"coeff": "1", "exp": [0, 0, 0, 0, 1], "type": 1} in data
    assert {"coeff": "1", "exp": [0, 0, 1, 1, 0], "type": 2} in data


def test_zero_json(capsys):
    code, out, _ = run_cli(capsys, "mul", "--format", "json", "e", "0")
    assert code == 0
    assert json.loads(out) == []


# ---------------------------------------------------------------------------
# checks


def test_check_special(capsys):
    code, out, err = run_cli(capsys, "check", "special")
    assert code == 0
    assert out == "special: PASS (max-degree=5, samples=1000, seed=0)\n"
    assert err.startswith("special: ") and err.endswith("s\n")


def test_check_with_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "check", "malcev", "--max-degree", "2", "--samples", "10", "--seed", "4"
    )
    assert code == 0
    assert out == "malcev: PASS (max-degree=2, samples=10, seed=4)\n"


def test_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        checks._SUITES,
        "special",
        lambda max_degree, samples, seed: iter([("forced failure", (), {"got": 1, "want": 2})]),
    )
    code, out, _ = run_cli(capsys, "check", "special")
    assert code == 1
    assert "special: FAIL" in out
    assert "counterexample: forced failure" in out


def test_check_all_runs_every_suite(capsys):
    code, out, err = run_cli(
        capsys, "check", "all", "--max-degree", "1", "--samples", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == list(checks.SUITE_NAMES)
    assert all("PASS" in ln for ln in lines)
    assert len(err.splitlines()) == len(checks.SUITE_NAMES)


# ---------------------------------------------------------------------------
# failure modes


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "mul", "ba", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse error at byte 1")


@pytest.mark.parametrize(
    "argv",
    [("check", "malcev", "--samples", "-5"), ("check", "oracle", "--max-degree", "-3")],
    ids=["samples", "max-degree"],
)
def test_check_negative_parameters_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be nonnegative" in err


def test_quotient_rejects_ideal_input(capsys):
    code, _, err = run_cli(capsys, "mul", "--algebra", "a", "ce", "d")
    assert code == 2
    assert err.startswith("error: ")


def test_quotient_names_the_ideal_monomial_as_typed(capsys):
    # the monomial by its text, not by its exponent tuple (0, 0, 1, 0, 1)
    code, out, err = run_cli(capsys, "mul", "--algebra", "a", "ce", "a")
    assert (code, out) == (2, "")
    assert err == (
        "error: ce lies in the alternator ideal and is not a basis monomial of the quotient\n"
    )


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "a", "b"])
    assert info.value.code == 2


def test_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "everything"])
    assert info.value.code == 2


def test_missing_argument_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["mul", "a"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# stability


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "assoc", "abd", "abd", "abd")
    second = run_cli(capsys, "assoc", "abd", "abd", "abd")
    assert first == second
