"""Tests for the verification-suite plumbing (small, fast parameters).

The suites themselves are the product's cross-checking machinery; the
acceptance tests run them at their contractual sizes.  Here we only make
sure every suite runs, passes, and reports deterministically at toy sizes.
"""

from fractions import Fraction

import pytest

from malcev5 import checks
from malcev5.checks import SUITE_NAMES, CheckReport, run_all, run_suite
from malcev5.alternative import AElement
from malcev5.core import UElement


def test_suite_names_stable():
    assert SUITE_NAMES == (
        "oracle",
        "operators",
        "nucleus",
        "malcev",
        "alternative",
        "homomorphism",
        "special",
    )


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_small(name):
    report = run_suite(name, max_degree=2, samples=8, seed=1)
    assert report.passed, report.render()
    assert report.counterexample is None
    assert report.suite == name
    assert report.duration >= 0.0


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("everything")


@pytest.mark.parametrize(
    "name, max_degree, samples",
    [("malcev", 2, -5), ("oracle", -3, 1000), ("special", -1, -1)],
)
def test_negative_parameters_rejected(name, max_degree, samples):
    with pytest.raises(ValueError, match="must be nonnegative"):
        run_suite(name, max_degree=max_degree, samples=samples)


def test_reports_deterministic():
    r1 = run_suite("malcev", max_degree=2, samples=12, seed=3)
    r2 = run_suite("malcev", max_degree=2, samples=12, seed=3)
    assert (r1.passed, r1.counterexample) == (r2.passed, r2.counterexample)
    assert r1.render() == r2.render()


def test_render_pass_line():
    report = run_suite("special", max_degree=4, samples=2, seed=9)
    assert report.render() == "special: PASS (max-degree=4, samples=2, seed=9)"


def test_render_failure_shape():
    report = CheckReport(
        suite="oracle",
        max_degree=3,
        samples=10,
        seed=0,
        passed=False,
        counterexample="x = ab, y = d: route A gives 1, route B gives 2",
        duration=0.5,
    )
    text = report.render()
    assert text.splitlines() == [
        "oracle: FAIL (max-degree=3, samples=10, seed=0)",
        "  counterexample: x = ab, y = d: route A gives 1, route B gives 2",
    ]


def test_run_all_order_and_passing():
    reports = run_all(max_degree=2, samples=5, seed=0)
    assert tuple(r.suite for r in reports) == SUITE_NAMES
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# the type-2 scan notices a planted fault on either side of its comparison

_A, _B, _D = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)
_BD, _E = (0, 1, 0, 1, 0), (0, 0, 0, 0, 1)


@pytest.mark.parametrize("delta", [Fraction(1, 6), Fraction(1, 7)], ids=["sixth", "seventh"])
def test_type2_scan_catches_faulty_product(monkeypatch, delta):
    # bd * a = abd - cd + 1/2 e; shift its type-1 term.  6 * (1/2 + 1/7) is not
    # an integer, and truncating it would give back the right value 3.
    real = checks._mul_a_mono

    def faulty(x, y):
        out = real(x, y)
        if (x, y) == (_BD, _A):
            out = dict(out)
            out[_E] += delta
        return out

    monkeypatch.setattr(checks, "_mul_a_mono", faulty)
    found = checks._compare(checks._scan_type2_closed(limit=3))
    assert found is not None and found.startswith("type-2 associator mismatch")


def test_type2_scan_catches_faulty_closed_form(monkeypatch):
    real = checks.type2_associator_closed

    def faulty(x, y, z):
        out = real(x, y, z)
        return 2 * out if (x, y, z) == (_A, _B, _D) else out

    monkeypatch.setattr(checks, "type2_associator_closed", faulty)
    found = checks._compare(checks._scan_type2_closed(limit=3))
    assert found is not None and found.startswith("type-2 associator mismatch on (a, b, d)")


# ---------------------------------------------------------------------------
# the claim runner


def test_suite_without_cases_fails(monkeypatch):
    monkeypatch.setitem(checks._SUITES, "special", lambda max_degree, samples, seed: iter(()))
    report = run_suite("special")
    assert not report.passed
    assert report.counterexample == "no cases compared"


def test_runner_stops_at_first_failing_claim(monkeypatch):
    drawn = []

    def suite(max_degree, samples, seed):
        for n, right in enumerate((UElement.one(), UElement.zero(), None)):
            drawn.append(n)
            yield "probe", ((1, 1, 0, 0, 0), "x"), {"left": UElement.one(), "right": right}

    monkeypatch.setitem(checks._SUITES, "special", suite)
    report = run_suite("special")
    assert not report.passed
    assert report.counterexample == "probe mismatch on (ab, x): left = 1; right = 0"
    assert drawn == [0, 1]


def test_oracle_reports_a_planted_fault(monkeypatch):
    # b * a = ab - c; the recursive oracle now says ab - c + e
    real = checks.mul_u_oracle
    b, a = UElement.from_letter("b"), UElement.from_letter("a")

    def faulty(x, y):
        out = real(x, y)
        return out + UElement.from_letter("e") if (x, y) == (b, a) else out

    monkeypatch.setattr(checks, "mul_u_oracle", faulty)
    report = run_suite("oracle", max_degree=2)
    assert not report.passed
    assert report.counterexample == (
        "product routes mismatch on (b, a): closed = ab - c; oracle = ab - c + e; "
        "operator = ab - c"
    )


def test_special_reports_a_planted_fault(monkeypatch):
    # a * b = ab and b * a = ab - c, so [a, b] = c; the quotient product now
    # says ab + e for a * b
    real = checks.mul_a
    a, b = AElement.from_letter("a"), AElement.from_letter("b")

    def faulty(x, y):
        out = real(x, y)
        return out + AElement.from_letter("e") if (x, y) == (a, b) else out

    monkeypatch.setattr(checks, "mul_a", faulty)
    report = run_suite("special")
    assert not report.passed
    assert report.counterexample == (
        "quotient commutator mismatch on (a, b): [x,y] = c + e; base bracket = c"
    )
