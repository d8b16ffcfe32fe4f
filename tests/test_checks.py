"""Tests for the verification-suite plumbing (small, fast parameters).

The suites themselves are the product's cross-checking machinery; the
acceptance tests run them at their contractual sizes.  Here we only make
sure every suite runs, passes, and reports deterministically at toy sizes.
"""

import functools
import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from malcev5 import alternative, checks, core, diffops, envelope
from malcev5.checks import SUITE_NAMES, CheckReport, run_all, run_suite
from malcev5.alternative import AElement, associator_a, type2_associator_closed
from malcev5.core import UElement, _reduced, clear_memos


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
    [
        ("malcev", 2, -5),
        ("oracle", -3, 1000),
        ("special", -1, -1),
        ("special", True, False),
        ("malcev", 2.5, 12),
    ],
)
def test_negative_parameters_rejected(name, max_degree, samples):
    with pytest.raises(ValueError, match="must be nonnegative"):
        run_suite(name, max_degree=max_degree, samples=samples)


@pytest.mark.parametrize("seed", [None, "x", 1.5, True], ids=repr)
def test_seed_must_be_an_integer(seed):
    # None would draw from an unseeded generator, and "x" would fail at seed + 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_suite("operators", max_degree=1, samples=1, seed=seed)


def test_negative_seed_accepted():
    assert run_suite("malcev", max_degree=1, samples=2, seed=-3).passed


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
_AB, _AC, _BCD, _C2D = (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 1, 1, 0), (0, 0, 2, 1, 0)


def planted(real, pair, change):
    """The kernel ``real`` with ``change`` applied to the rational
    coefficients of one pair's product; any denominator goes through."""

    def faulty(x, y):
        den, num = real(x, y)
        if (x, y) != pair:
            return den, num
        out = UElement(change({m: Fraction(n, den) for m, n in num.items()}))
        return out._den, out._num

    return faulty


@pytest.mark.parametrize(
    "pair, change, found",
    [
        # bd * a = abd - cd + 1/2 e; shift its type-1 term off the N/6 rule.
        # 6 * (1/2 + 1/7) is not an integer, and truncating it would give back
        # the right value 3.
        ((_BD, _A), lambda out: {**out, _E: out[_E] + Fraction(1, 6)},
         "H + C decomposition mismatch on (bd, a)"),
        ((_BD, _A), lambda out: {**out, _E: out[_E] + Fraction(1, 7)},
         "H + C decomposition mismatch on (bd, a)"),
        # ac * b = abc: no correction fires when the left factor has a c
        ((_AC, _B), lambda out: {**out, _E: Fraction(1, 6)},
         "H + C decomposition mismatch on (ac, b): product = abc + 1/6 e; H + C = abc"),
        # bcd * a = abcd - c^2d, which is b * a = ab - c shifted by cd
        ((_BCD, _A), lambda out: {**out, _C2D: 2 * out[_C2D]},
         "H + C decomposition mismatch on (bcd, a): product = abcd - 2 c^2d; H + C = abcd - c^2d"),
        # e * ab = abe
        ((_E, _AB), lambda out: {},
         "type-1 concatenation mismatch on (e, ab): product = 0; concatenation = abe"),
    ],
    ids=["sixth", "seventh", "gate", "heisenberg", "type-1"],
)
def test_type2_scan_catches_faulty_product(monkeypatch, pair, change, found):
    monkeypatch.setattr(checks, "_mul_a_mono", planted(checks._mul_a_mono, pair, change))
    text = checks._compare(checks._scan_type2_closed(limit=3))
    assert text is not None and text.startswith(found)


def test_type2_scan_catches_faulty_closed_form(monkeypatch):
    # the scan calls the closed form's unvalidated body
    real = checks._type2_associator

    def faulty(x, y, z):
        out = real(x, y, z)
        return 2 * out if (x, y, z) == (_A, _B, _D) else out

    monkeypatch.setattr(checks, "_type2_associator", faulty)
    found = checks._compare(checks._scan_type2_closed(limit=3))
    assert found is not None and found.startswith("type-2 associator mismatch on (a, b, d)")


def rescaled(real, scale):
    """The kernel ``real`` with each type-2 term of a type-2 x type-2 product
    multiplied by ``scale(mu)``, mu the c-exponents it gains."""

    def faulty(x, y):
        den, num = real(x, y)
        if x[4] or y[4]:
            return den, num
        return den, {m: n if m[4] else n * scale(m[2] - x[2] - y[2]) for m, n in num.items()}

    return faulty


def reshaped(real):
    """The kernel ``real`` with H carried over by the basis change ab -> ab + a
    (times any c^k d^l): H is still associative, but a term without c lands
    off its place, as in b * a = ab - a - c."""
    a = AElement.from_letter("a")

    def phi(u):
        m = AElement.from_monomial((*u, 0, 0, 0))
        return m + a if u == (1, 1) else m

    def faulty(x, y):
        den, num = real(x, y)
        if x[4] or y[4]:
            return den, num
        out = {m: Fraction(n, den) for m, n in num.items() if m[4]}
        for m, n in alternative.mul_a(phi(x[:2]), phi(y[:2])).terms.items():
            back = [(m, n), ((1, 0, *m[2:]), -n)] if m[:2] == (1, 1) else [(m, n)]
            for (i, j, k, _, _), c in back:  # the inverse basis change
                key = (i, j, k + x[2] + y[2], x[3] + y[3], 0)
                out[key] = out.get(key, 0) + c
        el = UElement(out)
        return el._den, el._num

    return faulty


@pytest.mark.parametrize(
    "fault, found",
    [
        (lambda real: rescaled(real, lambda mu: 2**mu),
         "type-2 associator mismatch on (d, b, a): pair rule = -7/6 e"),
        (lambda real: rescaled(real, lambda mu: 2),
         "type-2 associator mismatch on (ab, d, 1): pair rule = -1/6 e"),
        # T reads h1 from the kernel, so this flips the sign of its l h1 term
        (lambda real: rescaled(real, lambda mu: (-1) ** mu),
         "type-2 associator mismatch on (d, b, a): pair rule = 11/6 e"),
        # T reads H's terms only in their places
        (reshaped, "H + C decomposition mismatch on (b, a): product = ab - a - c; H + C = ab - c"),
    ],
    ids=["c rescaled", "H doubled", "c negated", "H reshaped"],
)
def test_type2_scan_catches_global_faults(monkeypatch, fault, found):
    # a fault in every pair at once that keeps H associative and, but for
    # the reshaped H, each pair's H + C split
    monkeypatch.setattr(checks, "_mul_a_mono", fault(checks._mul_a_mono))
    claims = checks._scan_type2_closed(limit=2)
    heisenberg = (claim for claim in claims if claim[0] == "Heisenberg associativity")
    assert checks._compare(heisenberg) is None
    text = checks._compare(checks._scan_type2_closed(limit=3))
    assert text is not None and text.startswith(found)


def test_pair_rule_matches_the_shipped_associator():
    # T comes from the pair rule, not from products: on every piece-2 triple
    # at limit 3 it equals (xy)z - x(yz) through the shipped product.  A
    # piece-2 claim is one row of x against one (y, z), read entry by entry
    element = functools.cache(AElement.from_monomial)
    compared = 0
    for what, case, values in checks._scan_type2_closed(limit=3):
        if what == "type-2 associator":
            xs, y, z = case
            for x, entry in zip(xs, values["pair rule"], strict=True):
                compared += 1
                triple = map(element, (x, y, z))
                assert AElement._make(*entry) == associator_a(*triple), (x, y, z)
    assert compared == 3 * 3**9


# the pairs the scan reaches at limit 2: box x box, and box times every
# term of a box x box product on either side
_BOX2 = [(i, j, k, l, 0) for i, j, k, l in product(range(2), repeat=4)]
_REACHED2 = sorted(
    {m for x in _BOX2 for y in _BOX2 for m in alternative._mul_a_mono(x, y)[1]} - set(_BOX2)
)
_PAIRS2 = (
    [(x, y) for x in _BOX2 for y in _BOX2]
    + [(m, z) for m in _REACHED2 for z in _BOX2]
    + [(x, m) for x in _BOX2 for m in _REACHED2]
)


def test_type2_scan_counts_every_piece():
    # piece 1 makes one row claim per 2**2 pairs: a factor against the box
    # monomials of one (a,b)-part, on either side; its rows cover every
    # reached pair once, each with its own entry in every value.  Piece 2
    # makes one row claim per (y, z), over the 2**3 x without c
    claims = list(checks._scan_type2_closed(limit=2))
    counts = Counter(what for what, _, _ in claims)
    type1 = sum(1 for x, y in _PAIRS2 if x[4] or y[4])
    assert counts == {
        "H + C decomposition": (len(_PAIRS2) - type1) // 2**2,
        "type-1 concatenation": type1 // 2**2,
        "type-2 associator": 3 * 2**6,
        "Heisenberg associativity": 2**6,
    }
    pairs, triples = [], []
    for what, case, values in claims:
        if what in ("H + C decomposition", "type-1 concatenation"):
            x, y = case
            row = [(x, m) for m in y] if type(y) is list else [(m, y) for m in x]
            assert all(len(value) == len(row) == 2**2 for value in values.values())
            pairs += row
        elif what == "type-2 associator":
            xs, y, z = case
            assert all(len(value) == len(xs) == 2**3 for value in values.values())
            triples += [(x, y, z) for x in xs]
    assert Counter(pairs) == Counter(_PAIRS2)
    # every triple whose x has no c and whose y and z have at most one, once
    assert Counter(triples) == Counter(
        (x, y, z) for y in _BOX2 for z in _BOX2 if y[2] + z[2] <= 1 for x in _BOX2 if not x[2])


_QUOTIENT2 = [m for m in product(range(3), repeat=5) if m[4] < 2 and not (m[4] and m[2])]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    pair=st.sampled_from(_PAIRS2),
    term=st.integers(min_value=0),
    extra=st.sampled_from(_QUOTIENT2),
    delta=st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
    recoefficient=st.booleans(),
)
def test_type2_scan_is_sound(pair, term, extra, delta, recoefficient):
    # plant a changed coefficient or an extra term at one reached pair: when
    # brute force over all 4096 triples sees a wrong associator, so does the scan
    def change(out):
        key = sorted(out)[term % len(out)] if recoefficient and out else extra
        return {**out, key: out.get(key, 0) + delta}

    faulty = planted(alternative._mul_a_mono, pair, change)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alternative, "_mul_a_mono", faulty)
        mp.setattr(checks, "_mul_a_mono", faulty)
        brute = any(
            associator_a(*(AElement.from_monomial(m) for m in triple))
            != type2_associator_closed(*triple)
            for triple in product(_BOX2, repeat=3)
        )
        scan = checks._compare(checks._scan_type2_closed(limit=2))
    assert scan is not None or not brute


# ---------------------------------------------------------------------------
# the nucleus suite hoists g x, x g, g y and y g out of its inner loops


def test_nucleus_claim_counts():
    counts = Counter(what for what, _, _ in checks._check_nucleus(4, 0, 0))
    assert counts == {"nucleus relations": 15680, "associator-commutator formula": 1400}


# ---------------------------------------------------------------------------
# coverage manifest: the claims each suite makes, by label


def monomial_count(degree, letters=5):
    # monomials of degree <= degree in that many letters
    return math.comb(degree + letters, letters)


SAMPLES = 20
N3 = monomial_count(3)  # 56, the monomials of degree <= 3

# {suite: {label: claims}} at max-degree 3, samples 20, seed 0; each count
# is its loop bounds where they give a one-line formula.  A row claim counts
# once: one per left factor (per x and y for cde associativity, per y and z
# for type-2 associator).  Suite totals: oracle 248, operators 1,455,
# nucleus 2,730, malcev 435, alternative 19,044, homomorphism 85, special 30.
COVERAGE_AT_3 = {
    "oracle": {
        "product routes": N3,
        "degree filtration": N3,
        "cde product": monomial_count(4, 3),
        "cde associativity": monomial_count(2, 3) ** 2,
        "witness": 1,
    },
    "operators": {
        "faithfulness": 2 * 5 * monomial_count(4),
        "commutator table": 10 + 25 + 10,  # L-L and R-R pairs below the diagonal, L-R all
        "power expansion": 2 * 5,
        "straightening": 100,
        "compose associativity": SAMPLES,
        "compose/apply": SAMPLES,
    },
    "nucleus": {
        "nucleus relations": 5 * monomial_count(2) ** 2,
        "associator-commutator formula": 25 * monomial_count(2),
    },
    "malcev": {
        "Malcev identity in the base algebra": 5**3 + SAMPLES,
        "Malcev identity in the envelope": 5**3 + SAMPLES,
        "degree-1 commutator": 5**3 + SAMPLES,
    },
    "alternative": {
        "alternator": 2,
        "alternator projection": 2,
        "alternativity": SAMPLES,
        "type-1 slot": 8 * 24**2 * 3,
        "alternation": 16**3 + SAMPLES,
        # one row claim per 2**2 pairs
        "H + C decomposition": 680,
        "type-1 concatenation": 144,
        # one row claim per 2**3 triples
        "type-2 associator": 3 * 2**6,
        "Heisenberg associativity": 2**6,
    },
    # the degree box by rows, the seeded pairs past it and b^n a^n for n = 1..9
    "homomorphism": {"projection": N3 + SAMPLES + 9},
    "special": {"letter outside the alternator ideal": 5, "quotient commutator": 25},
}

# the pairs behind each label with row claims, one claim each before rows
PAIRS_AT_3 = {
    "oracle": {
        "product routes": N3**2,
        "degree filtration": N3**2,
        "cde product": monomial_count(4, 3) ** 2,
        "cde associativity": monomial_count(2, 3) ** 3,
    },
    "alternative": {
        "H + C decomposition": 2720,
        "type-1 concatenation": 576,
        "type-2 associator": 3 * 2**9,
    },
    "homomorphism": {"projection": N3**2 + SAMPLES + 9},
}


def test_coverage_manifest():
    counts = {name: dict(Counter(what for what, _, _ in suite(3, SAMPLES, 0)))
              for name, suite in checks._SUITES.items()}
    assert counts == COVERAGE_AT_3


# SHA-256 of each suite's claims at max-degree 3, samples 20, seed 0, as
# rendered by shown_claim: a change that keeps the counts above but changes
# a label, a case, a value or their order changes the digest
DIGEST_AT_3 = {
    "oracle": "cccba6f0e462cb5c5df14747938e250daeaa60d78650365530f9f5730be183b8",
    "operators": "2f197d85990ae6fb59e9d1594bb05f4b7074be7b5cd93b6ab3de401c051f52c2",
    "nucleus": "5d8ae3153732a67d3ffcaa66a2288b05bf3ddb0c4fc657096e50d5ead6c60a87",
    "malcev": "26d4fdc9cd4b2001735dd921a849964ba56cf6892268ac4c8eede8a7f2cb24a3",
    "alternative": "e8c5f7d24f59c061b221800067f6771a7217e060a2aa318a914c8dc9c0d53707",
    "homomorphism": "aca711a06873c177bab98cdfa5da629095c4afd16ed14d5e70aaeb758d0000b4",
    "special": "2449236f96c773d86ee9361913f43a4ba875600fd452543c8bfd560ee776f52e",
}


def shown(v):
    # a monomial by format_monomial, a list entry by entry, anything else by str
    if type(v) is list:
        return "[" + ", ".join(map(shown, v)) + "]"
    return core.format_monomial(v) if isinstance(v, tuple) else str(v)


def shown_claim(what, case, values):
    # one line per claim; a row value's (den, numerators) entries as UElements
    vals = "; ".join(
        f"{name} = " + shown([UElement._make(*e) for e in v] if type(v) is list else v)
        for name, v in values.items())
    return f"{what} on ({', '.join(map(shown, case))}): {vals}\n"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_rows_hold_every_pair(name):
    # a row's list input and every list value have one entry per pair, and
    # the rows of a label hold as many pairs as its pair claims did; the
    # digest pins every claim's label, case and values, in order
    pairs = Counter()
    digest = hashlib.sha256()
    for what, case, values in checks._SUITES[name](3, SAMPLES, 0):
        lists = [v for v in (*case, *values.values()) if type(v) is list]
        assert len(lists) in (0, len(values) + 1)
        assert len(set(map(len, lists))) <= 1
        pairs[what] += len(lists[0]) if lists else 1
        digest.update(shown_claim(what, case, values).encode())
    assert pairs == {**COVERAGE_AT_3[name], **PAIRS_AT_3.get(name, {})}
    assert digest.hexdigest() == DIGEST_AT_3[name]


def doubled_past_mu_5(real):
    """The quotient product ``real`` with every Heisenberg term of c-shift
    mu >= 6 doubled: a fault that only exponents past 5 reach."""

    def faulty(x, y):
        den, num = real(x, y)
        if x[4] or y[4]:
            return den, num
        c = x[2] + y[2]
        return den, {m: 2 * n if not m[4] and m[2] - c >= 6 else n for m, n in num.items()}

    return faulty


@pytest.mark.parametrize(
    "max_degree, samples, found",
    [
        # the seeded pairs past the box find it first ...
        (5, 1000, "projection mismatch on (a^4b^8c^5d^5, a^9b^7c^7d^6)"),
        (3, 1000, "projection mismatch on (a^4b^8c^5d^5, a^9b^7c^7d^6)"),
        # ... and without them b^6 a^6 does
        (3, 0, "projection mismatch on (b^6, a^6): project(mul_u) = a^6b^6 - 36 a^5b^5c"),
    ],
    ids=["defaults", "degree-3", "fixed-pairs"],
)
def test_homomorphism_reports_a_fault_past_the_box(monkeypatch, max_degree, samples, found):
    fault = doubled_past_mu_5(alternative._mul_a_mono)
    monkeypatch.setattr(alternative, "_mul_a_mono", fault)
    monkeypatch.setattr(checks, "_mul_a_mono", fault)
    report = run_suite("homomorphism", max_degree, samples, 0)
    assert not report.passed
    assert report.counterexample.startswith(found)


def faulty_product(real, pair):
    """The element product ``real`` with ``e`` added to the product of one pair."""
    e = UElement.from_letter("e")

    def faulty(x, y):
        out = real(x, y)
        return out + e if (x, y) == pair else out

    return faulty


_UA, _UB = UElement.from_letter("a"), UElement.from_letter("b")


@pytest.mark.parametrize(
    "name, fault, found",
    [
        # the first claim to see a hoisted product of b and a is (g, x, y) = (a, 1, b)
        # b * a = ab - c, hoisted as y g there
        ("mul_u", lambda: faulty_product(checks.mul_u, (_UB, _UA)),
         "nucleus relations mismatch on (a, 1, b): (g,x,y) = 0; -(x,g,y) = 0; (x,y,g) = -e"),
        # a * b = ab, hoisted as g y there
        ("mul_u", lambda: faulty_product(checks.mul_u, (_UA, _UB)),
         "nucleus relations mismatch on (a, 1, b): (g,x,y) = 0; -(x,g,y) = e; (x,y,g) = 0"),
        # the kernel of the fused sums at the monomials b and a, in (1 b) a
        ("_closed_terms", lambda: planted(checks._closed_terms, (_B, _A),
                                          lambda out: {**out, _E: out.get(_E, 0) + 1}),
         "nucleus relations mismatch on (a, 1, b): (g,x,y) = 0; -(x,g,y) = 0; (x,y,g) = e"),
    ],
    ids=["y-times-g", "g-times-y", "kernel"],
)
def test_nucleus_reports_a_planted_fault(monkeypatch, name, fault, found):
    monkeypatch.setattr(checks, name, fault())
    report = run_suite("nucleus", max_degree=4)
    assert not report.passed
    assert report.counterexample == found


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


ONE_U = UElement.one()


@pytest.mark.parametrize(
    "values, found",
    [
        ({"closed": ONE_U}, "probe compares fewer than two values on (ab, x): closed = 1"),
        ({}, "probe compares fewer than two values on (ab, x): nothing"),
        (
            {"p": ONE_U, "q": UElement.one(), "r": UElement.zero()},
            "probe mismatch on (ab, x): p = 1; q = 1; r = 0",
        ),
        (
            {"p": ONE_U, "q": UElement.one(), "r": UElement.one(), "s": 2 * ONE_U},
            "probe mismatch on (ab, x): p = 1; q = 1; r = 1; s = 2",
        ),
        ({"u": ONE_U, "a": AElement.one()}, "probe mismatch on (ab, x): u = 1; a = 1"),
    ],
    ids=["one value", "no value", "third differs", "fourth differs", "other class"],
)
def test_runner_fails_unless_two_or_more_values_agree(monkeypatch, values, found):
    # one value compares nothing (a repeated name in a claim's dict literal
    # leaves one); equal terms of another algebra are not equal
    claim = ("probe", ((1, 1, 0, 0, 0), "x"), values)
    monkeypatch.setitem(checks._SUITES, "special", lambda max_degree, samples, seed: iter([claim]))
    report = run_suite("special")
    assert not report.passed
    assert report.counterexample == found


# the element class, product and kernel of each algebra's row claims
ALGEBRAS = {
    "A": (AElement, alternative.mul_a, alternative._mul_a_mono),
    "U": (UElement, envelope.mul_u, envelope._closed_terms),
}


def row_claim(algebra, left, right, change=None):
    """A row claim of the kernel against the element product over the pairs
    of ``left`` and ``right`` (one of them a list), with ``change`` applied
    to the list of products."""
    cls, mul, kernel = ALGEBRAS[algebra]
    pairs = [(left, m) for m in right] if type(right) is list else [(m, right) for m in left]
    els = [mul(*map(cls.from_monomial, pair)) for pair in pairs]
    again = [(el._den, el._num) for el in (change(els) if change else els)]
    return "probe", (left, right), {
        "kernel": [_reduced(*kernel(x, y)) for x, y in pairs], mul.__name__: again}


def second_and_third_changed(els):
    # e added to the second entry, the third dropped
    cls = type(els[0])
    return [els[0], els[1] + cls.from_letter("e"), cls.zero()]


@pytest.mark.parametrize(
    "algebra, left, right, found",
    [
        # bd * a = abd - cd + 1/2 e
        ("A", [_A, _BD, _B], _A, "probe mismatch on (bd, a): kernel = abd - cd + 1/2 e; "
                                 "mul_a = abd - cd + 3/2 e"),
        ("A", _A, [_A, _BD, _B], "probe mismatch on (a, bd): kernel = abd; mul_a = abd + e"),
        # e * e = e^2, which only the envelope holds
        ("U", [_A, _E, _B], _E, "probe mismatch on (e, e): kernel = e^2; mul_u = e^2 + e"),
    ],
    ids=["list on the left", "list on the right", "envelope row"],
)
def test_runner_reads_a_row_claim_entry_by_entry(algebra, left, right, found):
    # a row claim is one claim per entry of its list input: it passes when
    # every entry agrees and fails as its first failing entry would alone
    assert checks._compare(iter([row_claim(algebra, left, right)])) is None
    text = checks._compare(iter([row_claim(algebra, left, right, second_and_third_changed)]))
    assert text == found
    cls, mul, _ = ALGEBRAS[algebra]
    x, y = (left[1], right) if type(left) is list else (left, right[1])
    product = mul(cls.from_monomial(x), cls.from_monomial(y))
    alone = ("probe", (x, y), {"kernel": product, mul.__name__: product + cls.from_letter("e")})
    assert checks._compare(iter([alone])) == found


_SHORT, _LONG = [(1, {_A: 1})], [(1, {_A: 1}), (1, {_A: 2})]


@pytest.mark.parametrize(
    "inputs, values, found",
    [
        ([_A, _D], {"short": _SHORT, "long": _LONG},
         "probe mismatch on (b, d): short = no entry; long = 2 a"),
        ([_A, _D], {"long": _LONG, "short": _SHORT},
         "probe mismatch on (b, d): long = 2 a; short = no entry"),
        # the list input can end early too
        ([_A], {"long": _LONG, "short": _SHORT},
         "probe mismatch on (b, no entry): long = 2 a; short = no entry"),
    ],
    ids=["short first", "long first", "short input"],
)
def test_runner_fails_a_row_that_ends_early(inputs, values, found):
    # lists that agree on every entry they share fail at the first entry
    # one of them lacks, as that entry's own claim would
    assert checks._compare(iter([("probe", (_B, inputs), values)])) == found


def unreduced(real):
    """The element product ``real`` with den and numerators doubled: an
    equal element, not reduced."""

    def doubled(x, y):
        out = real(x, y)
        return type(out)._make(2 * out._den, {m: 2 * n for m, n in out._num.items()})

    return doubled


@pytest.mark.parametrize("name", ["oracle", "homomorphism"])
def test_rows_compare_reduced_values(monkeypatch, name):
    # a row entry is equal to another only when both are reduced, and a
    # route may return an element that is not
    monkeypatch.setattr(checks, "mul_a", unreduced(checks.mul_a))
    monkeypatch.setattr(checks, "mul_u_oracle", unreduced(checks.mul_u_oracle))
    assert checks.mul_a(AElement.one(), AElement.one())._den == 2
    assert run_suite(name, 3, SAMPLES, 0).passed


def flipped_associator(x, y, z):
    """``associator_a`` with the sign of its second pair flipped: (xy)z + x(yz)."""
    mul_a = alternative.mul_a
    return core._bilinear(alternative._mul_a_mono, (1, mul_a(x, y), z), (1, x, mul_a(y, z)))


@pytest.mark.parametrize("max_degree, samples", [(3, 0), (5, 1000)], ids=["degree-3", "defaults"])
def test_alternative_reports_a_planted_associator_fault(monkeypatch, max_degree, samples):
    # the scans read products from tables; the alternator projection claims
    # still call the public associator_a, also at samples 0
    monkeypatch.setattr(alternative, "associator_a", flipped_associator)
    monkeypatch.setattr(checks, "associator_a", flipped_associator)
    report = run_suite("alternative", max_degree, samples, 0)
    assert not report.passed
    assert report.counterexample == (
        "alternator projection mismatch on (ab, ab, d): projection = 0; "
        "quotient associator = 2 a^2b^2d - 2 abcd + 4/3 abe; zero = 0"
    )


def plus_e(out):
    """A changed product: ``e`` added."""
    return {**out, _E: out.get(_E, 0) + 1}


@pytest.mark.parametrize("max_degree, samples", [(3, 0), (5, 1000)], ids=["degree-3", "defaults"])
def test_alternative_reports_a_planted_product_fault(monkeypatch, max_degree, samples):
    # a * b = ab, now ab + e.  The type-1 slot claims do not see a type-1
    # term, alternation does: -(x,z,y) and -(z,y,x) read transposed triples
    # of the one associator table that both families read
    monkeypatch.setattr(checks, "_mul_a_mono", planted(checks._mul_a_mono, (_A, _B), plus_e))
    report = run_suite("alternative", max_degree, samples, 0)
    assert not report.passed
    assert report.counterexample == (
        "alternation mismatch on (d, b, a): (x,y,z) = -1/6 e; -(y,x,z) = -1/6 e; "
        "-(x,z,y) = de - 1/6 e; -(z,y,x) = -de - 1/6 e"
    )


def twice(out):
    """A changed product: every coefficient doubled."""
    return {m: 2 * c for m, c in out.items()}


@pytest.mark.parametrize("max_degree, samples", [(3, 0), (5, 1000)], ids=["degree-3", "defaults"])
def test_alternative_reports_a_planted_type1_slot_fault(monkeypatch, max_degree, samples):
    # e * a = ae, now 2 ae: the type-1 slot claims read it from their table
    # before any other claim of the suite calls the faulty kernel
    monkeypatch.setattr(checks, "_mul_a_mono", planted(checks._mul_a_mono, (_E, _A), twice))
    report = run_suite("alternative", max_degree, samples, 0)
    assert not report.passed
    assert report.counterexample == (
        "type-1 slot mismatch on (d, e, a): associator = -ade; zero = 0"
    )


def test_associators_table_matches_the_public_associator():
    # every entry is associator_a of its triple, and every zero the same object
    t1 = [(i, j, 0, l, 1) for i, j, l in product((0, 1), repeat=3)]
    t2 = [(i, j, k, l, 0) for i, j, k, l in product((0, 1), repeat=4)]
    quotient = t1 + t2
    els = [AElement.from_monomial(m) for m in quotient]
    table = checks._associators(quotient)
    zeros = set()
    for i, j, k in product(range(len(quotient)), repeat=3):
        entry = table[i][j][k]
        assert entry == associator_a(els[i], els[j], els[k]), (i, j, k)
        if not entry:
            zeros.add(id(entry))
    assert len(zeros) == 1


def test_homomorphism_reads_the_kernel_when_called(monkeypatch):
    # the degree box projects the closed kernel, looked up in envelope at
    # call time, as mul_u_closed does; a * b = ab, now ab + e.  No pair past
    # the box is (a, b) at samples 0
    monkeypatch.setattr(envelope, "_closed_terms", planted(envelope._closed_terms, (_A, _B), plus_e))
    report = run_suite("homomorphism", 3, 0, 0)
    assert not report.passed
    assert report.counterexample == (
        "projection mismatch on (a, b): project(mul_u) = ab + e; mul_a(project, project) = ab"
    )


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


def test_oracle_reports_a_kernel_that_drops_the_c_shift(monkeypatch):
    # the closed kernel decodes its packed entry but forgets to add the left
    # factor's c-exponent k
    def dropped(x, y):
        i, j, _, l, m = x
        p, q, r, s, t = y
        den, sh, idxs, nums = envelope._closed_class((i, j, 0, l, 0), (p, q, r, s, 0))
        out = {}
        for idx, n in zip(idxs, nums):
            u, v = idx >> sh, idx % (1 << sh)
            out[(p + i - j - q + u, u, r - l + v, s - q - j + u + v, l + m + t + q + j - u - v)] = n
        return den, out

    monkeypatch.setattr(envelope, "_closed_terms", dropped)
    report = run_suite("oracle", max_degree=2)
    assert not report.passed
    # c * 1 is c; oracle and operator agree against the closed route
    assert report.counterexample == (
        "product routes mismatch on (c, 1): closed = 1; oracle = c; operator = c"
    )


def test_kernel_memo_holds_one_entry_per_shift_class():
    # keyed by the full pair of monomials, the same run leaves 18,911 entries
    clear_memos()
    assert run_suite("oracle", 4, 20, 0).passed
    assert envelope._closed_class.cache_info().currsize == 2542


def test_oracle_stores_each_small_result_once():
    # the three recursions keep 24,220 results; 15,322 of them are empty or
    # one-term, in 2,296 distinct values: the empty constant and one entry
    # of _one_term per one-term value.  No top-level pair is kept: with one
    # entry per pair the suite evaluates, _mul_mono would hold 25,411
    clear_memos()
    assert run_suite("oracle", 4, 20, 0).passed
    info = core.memo_info()
    sizes = {name.rsplit(".", 1)[1]: stats.currsize for name, stats in info.items()}
    assert sizes["_one_term"] == 2295
    assert sizes["_mul_mono"] == 16465
    assert sizes["_lmul_letter"] + sizes["_bracket_mono"] + sizes["_mul_mono"] == 24220


def test_special_reports_a_planted_fault(monkeypatch):
    # a * b = ab and b * a = ab - c, so [a, b] = c; the quotient commutator
    # now says c + e
    real = checks.bracket_a
    a, b = AElement.from_letter("a"), AElement.from_letter("b")

    def faulty(x, y):
        out = real(x, y)
        return out + AElement.from_letter("e") if (x, y) == (a, b) else out

    monkeypatch.setattr(checks, "bracket_a", faulty)
    report = run_suite("special")
    assert not report.passed
    assert report.counterexample == (
        "quotient commutator mismatch on (a, b): [x,y] = c + e; base bracket = c"
    )


def test_oracle_reports_a_planted_bracket_table_fault(monkeypatch):
    # [a, b] = 2c in the one table of the defining brackets: the recursive
    # oracle reads it, the closed kernel and the operator route do not.  The
    # first pair it reaches is d * ab, whose e term is 1/3 [[b, a], d]
    monkeypatch.setitem(core._BRACKETS, (0, 1), {2: 2})
    monkeypatch.setitem(core._BRACKETS, (1, 0), {2: -2})
    clear_memos()
    try:
        report = run_suite("oracle", max_degree=2)
    finally:
        monkeypatch.undo()
        clear_memos()
    assert not report.passed
    assert report.counterexample == (
        "product routes mismatch on (d, ab): closed = abd - 1/3 e; oracle = abd - 2/3 e; "
        "operator = abd - 1/3 e"
    )
    assert run_suite("oracle", max_degree=2).passed


def test_oracle_reports_a_planted_generator_table_fault(monkeypatch):
    # L(b) with 2/3 M_e D_a D_d for 1/3: the operator route composes its
    # standard words from the generator tables, the other two routes do not
    # read them.  The first pair it reaches is b * ad
    wrong = {**diffops._LMUL_TABLE["b"], ((0, 0, 0, 0, 1), (1, 0, 0, 1)): Fraction(2, 3)}
    monkeypatch.setitem(diffops._LMUL, "b", diffops.Operator(wrong))
    report = run_suite("oracle", 3, 0, 0)
    assert not report.passed
    assert report.counterexample == (
        "product routes mismatch on (b, ad): closed = abd - cd + 1/3 e; "
        "oracle = abd - cd + 1/3 e; operator = abd - cd + 2/3 e"
    )


def test_operators_reports_a_planted_contraction_weight_fault(monkeypatch):
    # the word kernel with its weight update off by one, (n - i) for
    # (n - i + 1), so that D_a M_a = M_a D_a: both terms of [L(a), L(b)]
    # come from L(b)'s D_a meeting L(a) = M_a, and both are lost
    def faulty(w1, w2):
        (m1, d1), (m2, d2) = w1, w2
        mul = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3], m1[4] + m2[4])
        der = (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2], d1[3] + d2[3])
        out = {(mul, der): 1}
        for v in range(4):
            m, n = d1[v], m2[v]
            if m and n:
                k = min(m, n)
                prev, out = out, {}
                for (mul, der), w in prev.items():
                    out[mul, der] = w
                    mul, der = list(mul), list(der)
                    for i in range(1, k + 1):
                        w = w * (m - i + 1) * (n - i) // i
                        mul[v] -= 1
                        der[v] -= 1
                        out[tuple(mul), tuple(der)] = w
        return 1, out

    monkeypatch.setattr(diffops, "_compose_words", faulty)
    monkeypatch.setattr(checks, "_compose_words", faulty)
    report = run_suite("operators", 3, 20, 0)
    assert not report.passed
    assert report.counterexample == (
        "commutator table mismatch on (L(a), L(b)): commutator = 0; "
        "table = -1/3 M_e D_d + M_c"
    )
