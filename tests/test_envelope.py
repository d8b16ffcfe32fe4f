"""Tests for multiplication in the nonassociative envelope.

Three independent routes compute the same product: the closed-form
structure constants (``mul_u_closed``), the recursive degree-lowering
oracle (``mul_u_oracle``), and — in diffops — left multiplication
operators.  Most of the heavy cross-checking lives in the check suites;
here we pin down small frozen values and the algebraic identities on
seeded random elements.
"""

import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from malcev5 import checks, core, envelope
from malcev5.alternative import type2_associator_closed
from malcev5.core import ComputationError, MalcevVector, UElement, bracket_m
from malcev5.diffops import l_of_monomial
from malcev5.envelope import (
    associator_u,
    bracket_u,
    bracket_u_oracle,
    embed,
    jacobian_u,
    mul_cde_closed,
    mul_u,
    mul_u_closed,
    mul_u_oracle,
)

rng = random.Random(46351)

U = UElement.from_monomial


def rand_element(max_exp=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(5))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return UElement(terms)


def monomials_up_to(bound):
    for mono in itertools.product(range(bound + 1), repeat=5):
        if sum(mono) <= bound:
            yield mono


# ---------------------------------------------------------------------------
# unit, bilinearity, filtration


def test_one_is_identity():
    x = rand_element()
    one = UElement.one()
    assert mul_u(one, x) == x
    assert mul_u(x, one) == x


def test_mul_bilinear():
    for _ in range(25):
        x, y, z = rand_element(), rand_element(), rand_element()
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert mul_u(x + y, z) == mul_u(x, z) + mul_u(y, z)
        assert mul_u(x, s * y) == s * mul_u(x, y)
    assert not mul_u(UElement.zero(), rand_element())


def test_product_degree_and_leading_term():
    # xy = (merged monomial) + lower-degree corrections
    for _ in range(40):
        x = tuple(rng.randint(0, 3) for _ in range(5))
        y = tuple(rng.randint(0, 3) for _ in range(5))
        merged = tuple(x[v] + y[v] for v in range(5))
        prod = mul_u_closed(x, y)
        assert prod.coefficient(merged) == 1
        assert prod.max_degree() == sum(merged)
        for mono, _ in prod.sorted_terms()[1:]:
            assert sum(mono) < sum(merged)


def test_letter_prepend_is_exact():
    # f * x is plain prepending when f is at most the smallest letter of x
    assert mul_u(U((1, 0, 0, 0, 0)), U((0, 1, 0, 0, 0))) == U((1, 1, 0, 0, 0))
    assert mul_u(U((1, 0, 0, 0, 0)), U((2, 1, 0, 2, 1))) == U((3, 1, 0, 2, 1))
    assert mul_u(U((0, 0, 1, 0, 0)), U((0, 0, 1, 2, 0))) == U((0, 0, 2, 2, 0))
    # but an ordered product of longer monomials still picks up corrections
    got = mul_u(U((2, 1, 0, 0, 0)), U((0, 0, 1, 2, 1)))
    assert got == U((2, 1, 1, 2, 1)) + Fraction(2, 3) * U((1, 0, 1, 1, 2))


def test_generator_products_frozen():
    a, b, c, d, e = (UElement.from_letter(t) for t in "abcde")
    assert mul_u(b, a) == U((1, 1, 0, 0, 0)) - U((0, 0, 1, 0, 0))
    assert mul_u(d, c) == U((0, 0, 1, 1, 0)) - U((0, 0, 0, 0, 1))
    assert mul_u(e, a) == U((1, 0, 0, 0, 1))
    assert mul_u(d, a) == U((1, 0, 0, 1, 0))


def test_small_products_frozen():
    got = mul_u(U((0, 0, 0, 1, 0)), U((1, 1, 1, 0, 0)))  # d * abc
    want = UElement(
        {
            (1, 1, 1, 1, 0): Fraction(1),
            (1, 1, 0, 0, 1): Fraction(-1),
            (0, 0, 1, 0, 1): Fraction(-1, 3),
        }
    )
    assert got == want
    got = mul_u(U((1, 1, 0, 0, 0)), U((0, 0, 1, 1, 0)))  # (ab)(cd)
    assert got == U((1, 1, 1, 1, 0)) + Fraction(1, 6) * U((0, 0, 1, 0, 1))


def test_central_letter():
    # e-monomials multiply through without corrections
    x = rand_element()
    e2 = U((0, 0, 0, 0, 2))
    prod = mul_u(e2, x)
    assert prod == mul_u(x, e2)
    assert prod == UElement(
        {(m[0], m[1], m[2], m[3], m[4] + 2): c for m, c in x.terms.items()}
    )


# ---------------------------------------------------------------------------
# recursive oracle route


def test_oracle_agrees_with_closed_form_small():
    for x in monomials_up_to(3):
        xe = U(x)
        for y in monomials_up_to(2):
            assert mul_u_oracle(xe, U(y)) == mul_u_closed(x, y)


def test_oracle_brackets_with_generators():
    for x in monomials_up_to(3):
        xe = U(x)
        for letter in "abcde":
            v = UElement.from_letter(letter)
            assert bracket_u_oracle(xe, letter) == bracket_u(xe, v)


def test_bracket_u_oracle_rejects_unknown():
    with pytest.raises(ValueError):
        bracket_u_oracle(UElement.one(), "x")


def test_oracle_recursion_overflow_reports():
    from malcev5.envelope import clear_memos

    clear_memos()
    deep = U((0, 0, 0, 60, 0))
    limit = sys.getrecursionlimit()
    # the product needs at least 105 frames beyond its caller on every
    # supported Python; counting from the caller's depth keeps the margin
    # below that however deep the test runner itself is
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        with pytest.raises(ComputationError):
            mul_u_oracle(deep, U((0, 0, 40, 0, 0)))
    finally:
        sys.setrecursionlimit(limit)
        clear_memos()


def test_oracle_depth_at_degree_thirty():
    # d^30 c^30 needs 129 frames beyond its caller on 3.11; the margin is
    # for other versions, and a recursion that grew per level would pass it
    core.clear_memos()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        got = mul_u_oracle(U((0, 0, 0, 30, 0)), U((0, 0, 30, 0, 0)))
    finally:
        sys.setrecursionlimit(limit)
        core.clear_memos()
    assert got.coefficient((0, 0, 30, 30, 0)) == 1


def test_small_oracle_results_are_shared():
    core.clear_memos()
    ab = (1, 1, 0, 0, 0)
    one_term = envelope._mul_mono(core.ONE, ab)
    assert one_term == (1, {ab: 1})
    assert envelope._mul_mono(ab, core.ONE) is one_term
    assert envelope._lmul_letter(0, (0, 1, 0, 0, 0)) is one_term
    # [a, e], [b, d], [1, c] and [ab, e] are 0: one constant for every empty result
    for f, x in ((4, (1, 0, 0, 0, 0)), (3, (0, 1, 0, 0, 0)), (2, core.ONE), (4, ab)):
        assert envelope._bracket_mono(f, x) is envelope._EMPTY
    assert envelope._EMPTY == (1, {})
    core.clear_memos()


def test_unit_and_letter_inputs_take_the_general_path():
    # no route has a special case for a unit factor or a lone letter: the
    # closed sum and the recursions give these products by their general path
    core.clear_memos()
    ONE, UNIT, BRACKETS = core.ONE, core._UNIT, core._BRACKETS
    monos = list(monomials_up_to(5))
    for x in monos:
        assert envelope._closed_terms(ONE, x) == (1, {x: 1})
        assert envelope._closed_terms(x, ONE) == (1, {x: 1})
        assert envelope._mul_mono(x, ONE) is envelope._one_term(1, x, 1)
    for f, g in itertools.product(range(5), repeat=2):
        # f g is the ordered monomial, plus [f, g] when f comes after g
        fg = BRACKETS.get((f, g), {}) if f > g else {}
        want = {envelope._prepended(min(f, g), UNIT[max(f, g)]): 1}
        want.update((UNIT[h], n) for h, n in fg.items())
        den, got = envelope._lmul_letter(f, UNIT[g])
        assert den == 1 and list(got.items()) == list(want.items())
        # [g, f] is the defining bracket
        want = {UNIT[h]: n for h, n in BRACKETS.get((g, f), {}).items()}
        assert envelope._bracket_mono(f, UNIT[g]) == (1, want)
    core.clear_memos()


def test_closed_class_sees_only_class_representatives(monkeypatch):
    # _closed_class has no shift arithmetic: _closed_terms, its one caller,
    # passes k = m = t = 0 and shifts the result itself
    core.clear_memos()
    calls = []
    real = envelope._closed_class

    def spy(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(envelope, "_closed_class", spy)
    assert checks.run_suite("oracle", 3, 0, 0).passed
    suite_calls = len(calls)
    x = U((1, 0, 2, 1, 1)) + U((0, 1, 1, 0, 2))
    y = U((2, 1, 1, 0, 1)) - U((0, 0, 3, 1, 1))
    assert mul_u(x, y) == mul_u_oracle(x, y)
    assert suite_calls and len(calls) > suite_calls
    assert all(x[2] == x[4] == y[4] == 0 for x, y in calls)
    # the unit has no leading letter, so f * 1 is the ordered prepend's shared object
    for f in range(5):
        assert envelope._lmul_letter(f, core.ONE) is envelope._one_term(1, core._UNIT[f], 1)
    core.clear_memos()


def test_closed_route_reads_no_oracle_memo():
    # the closed kernel fills its own tables and none of the oracle's
    core.clear_memos()
    x = U((1, 1, 1, 1, 1))
    mul_u(x, x + U((0, 2, 0, 1, 0)))
    associator_u(x, U((2, 0, 0, 1, 0)), x)
    info = core.memo_info()
    assert info["malcev5.envelope._closed_class"].currsize
    oracle = ("_one_term", "_lmul_letter", "_bracket_mono", "_mul_mono")
    assert all(info[f"malcev5.envelope.{name}"].currsize == 0 for name in oracle)
    core.clear_memos()


def test_oracle_keeps_no_top_level_entry():
    # the public oracle products evaluate their pair through the unmemoized
    # body, so the tables keep only what the recursion reads back
    x, y = (1, 2, 0, 1, 1), (2, 0, 1, 1, 0)
    core.clear_memos()
    mul_u_oracle(U(x), U(y))
    misses = envelope._mul_mono.cache_info().misses
    envelope._mul_mono(x, y)
    assert envelope._mul_mono.cache_info().misses == misses + 1
    core.clear_memos()
    bracket_u_oracle(U(x), "a")
    misses = envelope._bracket_mono.cache_info().misses
    envelope._bracket_mono(0, x)
    assert envelope._bracket_mono.cache_info().misses == misses + 1
    core.clear_memos()


def test_oracle_builds_no_fraction(monkeypatch):
    monos = [U(m) for m in monomials_up_to(3)]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    core.clear_memos()
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for x in monos:
        for y in monos:
            mul_u_oracle(x, y)
        for letter in "abcde":
            bracket_u_oracle(x, letter)
    found = len(built)
    Fraction(1, 2)  # the wrapper sees what is built
    monkeypatch.undo()
    core.clear_memos()
    assert found == 0 and len(built) == 1

# pairs beyond the degree 5 that ``check oracle`` reaches.  The first ten
# are shaped like perfbench's high_degree workload: degree 9 to 11, the
# (a, b, d) exponents a permutation of (2, 3, 4) or (3, 3, 3), some with one
# c or e.  The last four have right factors with c >= 2 and small b, so that
# the kernel's eta and theta bounds cut inside their ranges.
HIGH_DEGREE_PAIRS = [
    ((2, 3, 0, 4, 0), (3, 3, 0, 3, 0)),
    ((3, 3, 0, 3, 0), (4, 2, 1, 3, 0)),
    ((4, 3, 0, 2, 1), (2, 4, 0, 3, 0)),
    ((3, 4, 1, 2, 0), (3, 2, 0, 4, 1)),
    ((2, 4, 0, 3, 1), (3, 3, 1, 3, 0)),
    ((3, 3, 1, 3, 0), (2, 3, 0, 4, 0)),
    ((4, 2, 0, 3, 0), (3, 4, 0, 2, 0)),
    ((3, 2, 0, 4, 0), (4, 3, 1, 2, 0)),
    ((3, 3, 0, 3, 1), (3, 3, 0, 3, 0)),
    ((2, 3, 1, 4, 0), (4, 2, 0, 3, 1)),
    ((2, 2, 0, 5, 0), (3, 1, 3, 3, 0)),
    ((3, 4, 1, 4, 0), (2, 0, 2, 4, 1)),
    ((1, 5, 0, 4, 0), (4, 1, 4, 2, 0)),
    ((4, 3, 2, 3, 1), (2, 2, 3, 5, 0)),
]


@pytest.mark.parametrize("x, y", HIGH_DEGREE_PAIRS)
def test_closed_form_agrees_with_operators_at_high_degree(x, y):
    assert l_of_monomial(x).apply(UElement({y: 1})) == mul_u_closed(x, y)


def _kernel_edge_pairs():
    # seeded (x, y) = ((i,j,k,l,m), (p,q,r,s,t)) reaching the cases that
    # HIGH_DEGREE_PAIRS does not: j = 0 or l = 0 (empty alpha, eps and zeta
    # ranges), q = 0 or s = 0, r > l, and c- and e-exponents up to 4
    edge = random.Random(15)
    pairs = []
    for n in range(48):
        x = [edge.randint(0, 4) for _ in range(5)]
        y = [edge.randint(0, 4) for _ in range(5)]
        if n % 4 < 2:
            x[1 + 2 * (n % 4)] = 0  # j = 0, then l = 0
        if n % 3 < 2:
            y[1 + 2 * (n % 3)] = 0  # q = 0, then s = 0
        if n % 2 == 0:
            y[2] = min(4, x[3] + 1 + edge.randint(0, 1))  # r > l
        pairs.append((tuple(x), tuple(y)))
    return pairs


KERNEL_EDGE_PAIRS = _kernel_edge_pairs()


def test_kernel_edge_pairs_reach_their_cases():
    xs, ys = [x for x, _ in KERNEL_EDGE_PAIRS], [y for _, y in KERNEL_EDGE_PAIRS]
    assert any(x[1] == 0 for x in xs) and any(x[3] == 0 for x in xs)
    assert any(y[1] == 0 for y in ys) and any(y[3] == 0 for y in ys)
    assert any(y[2] > x[3] for x, y in KERNEL_EDGE_PAIRS)
    assert all(max(m[v] for m in ms) == 4 for ms in (xs, ys) for v in (2, 4))


@pytest.mark.parametrize("x, y", KERNEL_EDGE_PAIRS)
def test_closed_form_agrees_with_operators_on_edge_pairs(x, y):
    assert l_of_monomial(x).apply(UElement({y: 1})) == mul_u_closed(x, y)
    den, num = envelope._closed_terms(x, y)
    assert all(num.values())  # no zero numerator stored
    assert math.gcd(den, *num.values()) == 1


def _shift_pairs():
    # seeded pairs with c- and e-exponents up to 8 on both sides, answered
    # from the memo entry of their shift class, then pairs with x = c^k e^m
    # or y = e^t, whose class has ONE as a factor
    shift = random.Random(18)
    pairs = []
    for _ in range(24):
        x = (shift.randint(0, 2), shift.randint(0, 2), shift.randint(0, 8),
             shift.randint(0, 2), shift.randint(0, 8))
        y = (shift.randint(0, 2), shift.randint(0, 2), shift.randint(0, 8),
             shift.randint(0, 2), shift.randint(0, 8))
        pairs.append((x, y))
    pairs += [((0, 0, 8, 0, 3), (1, 2, 1, 2, 8)), ((0, 0, 0, 0, 5), (0, 1, 2, 1, 0)),
              ((0, 0, 8, 0, 8), (0, 0, 0, 0, 8))]
    pairs += [((2, 1, 3, 2, 4), (0, 0, 0, 0, 8)), ((1, 2, 0, 1, 0), (0, 0, 0, 0, 1))]
    return pairs


SHIFT_PAIRS = _shift_pairs()


@pytest.mark.parametrize("x, y", SHIFT_PAIRS)
def test_closed_form_agrees_with_operators_on_shifted_pairs(x, y):
    assert l_of_monomial(x).apply(UElement({y: 1})) == mul_u_closed(x, y)


# ---------------------------------------------------------------------------
# the oracle's identity tables, evaluated on the closed product

LETTER_ELEMENTS = [UElement.from_letter(ch) for ch in "abcde"]


def peeled(mono):
    # the smallest letter of a monomial other than 1, and the rest
    v = next(v for v in range(5) if mono[v])
    return v, mono[:v] + (mono[v] - 1,) + mono[v + 1:]


def table_value(table, ops):
    # sum of the rows sign/den * (left right), or [right, left] for "bracket"
    value = UElement.zero()
    for sign, den, left, product, right in table:
        a, b = ops[left], ops[right]
        term = bracket_u(b, a) if product == "bracket" else mul_u(a, b)
        value = value + Fraction(sign, den) * term
    return value


def identity_claims(pairs):
    """The oracle's recursion steps at each pair, on ``mul_u`` and ``bracket_u``.

    The unit factors, then for ``(x, z)``: ``x z`` by
    ``envelope._MUL_IDENTITY`` when ``x = f x'`` with ``x' != 1``, and for
    every letter ``f``, ``f z`` by ``_LMUL_IDENTITY`` when ``f`` exceeds the
    smallest letter ``g`` of ``z`` (the ordered monomial when it does not)
    and ``[z, f]`` by ``_BRACKET_IDENTITY``.  Claims for
    ``checks._compare``.  The tables are read here at call time, and their
    operand names resolved through the closed product: where every step
    the recursion takes holds, the closed product equals the oracle.
    """
    one = UElement.one()
    for f, F in enumerate(LETTER_ELEMENTS):
        yield "unit", (f,), {"f 1": mul_u(F, one), "f": F}
        yield "unit", (f,), {"[1, f]": bracket_u(one, F), "0": UElement.zero()}
    for x, z in pairs:
        X, Z = U(x), U(z)
        yield "unit", (x, z), {"1 z": mul_u(one, Z), "z": Z}
        if sum(x) > 1:
            f, xt = peeled(x)
            F, XT = LETTER_ELEMENTS[f], U(xt)
            ops = {"f": F, "x'": XT, "x'z": mul_u(XT, Z), "f z": mul_u(F, Z),
                   "[z,f]": bracket_u(Z, F)}
            yield "mul identity", (x, z), {
                "x z": mul_u(X, Z), "identity": table_value(envelope._MUL_IDENTITY, ops)}
        if z == core.ONE:
            continue
        g, y = peeled(z)
        G, Y = LETTER_ELEMENTS[g], U(y)
        for f, F in enumerate(LETTER_ELEMENTS):
            ops = {"f": F, "g": G, "[f,g]": bracket_u(F, G), "y": Y, "f y": mul_u(F, Y),
                   "[y,f]": bracket_u(Y, F), "[y,g]": bracket_u(Y, G)}
            if f <= g:
                prepend = U(z[:f] + (z[f] + 1,) + z[f + 1:])
                yield "ordered prepend", (f, z), {"f z": mul_u(F, Z), "prepend": prepend}
            else:
                yield "lmul identity", (f, z), {
                    "f z": mul_u(F, Z), "identity": table_value(envelope._LMUL_IDENTITY, ops)}
            yield "bracket identity", (f, z), {
                "[z, f]": bracket_u(Z, F), "identity": table_value(envelope._BRACKET_IDENTITY, ops)}


def seeded_pairs(degree, count=100):
    # pairs of the given total degree, each unit of it on a random exponent
    pick = random.Random(degree)
    pairs = []
    for _ in range(count):
        exps = [0] * 10
        for _ in range(degree):
            exps[pick.randrange(10)] += 1
        pairs.append((tuple(exps[:5]), tuple(exps[5:])))
    return pairs


IDENTITY_PAIRS = HIGH_DEGREE_PAIRS + KERNEL_EDGE_PAIRS + SHIFT_PAIRS


@pytest.mark.parametrize(
    "pairs",
    [IDENTITY_PAIRS, seeded_pairs(8), seeded_pairs(10), seeded_pairs(12)],
    ids=["fixed pairs", "degree 8", "degree 10", "degree 12"],
)
def test_oracle_identities_hold_on_the_closed_product(pairs):
    assert checks._compare(identity_claims(pairs)) is None


IDENTITY_ROWS = [(name, n) for name in ("_LMUL_IDENTITY", "_BRACKET_IDENTITY", "_MUL_IDENTITY")
                 for n in range(len(getattr(envelope, name)))]


@pytest.mark.parametrize("table, row", IDENTITY_ROWS)
def test_sign_flip_in_an_identity_row_fails_both_readers(monkeypatch, table, row):
    rows = list(getattr(envelope, table))
    sign, *rest = rows[row]
    rows[row] = (-sign, *rest)
    monkeypatch.setattr(envelope, table, tuple(rows))
    core.clear_memos()
    try:
        assert not checks.run_suite("oracle", 3, 0, 0).passed
        assert checks._compare(identity_claims(IDENTITY_PAIRS)) is not None
    finally:
        core.clear_memos()  # the oracle memo holds results of the flipped row


def test_identity_claims_catch_a_kernel_fault_above_degree_five(monkeypatch):
    real = envelope._closed_terms

    def faulty(x, y):
        # the leading coefficient 1 becomes 2 once a factor has degree >= 6
        den, num = real(x, y)
        if max(sum(x), sum(y)) < 6:
            return den, num
        top = tuple(a + b for a, b in zip(x, y))
        return den, {**num, top: num[top] + den}

    monkeypatch.setattr(envelope, "_closed_terms", faulty)
    core.clear_memos()
    try:
        assert checks.run_suite("oracle", 3, 0, 0).passed  # no factor there reaches 6
        found = checks._compare(identity_claims(seeded_pairs(8)))
    finally:
        core.clear_memos()
    assert found is not None


def test_clear_memos_empties_kernel_tables():
    x = U((3, 3, 0, 3, 0))
    associator_u(x, x, x)
    assert envelope._beta_row.cache_info().currsize
    core.clear_memos()
    assert envelope._beta_row in core._MEMOIZED
    assert all(cached.cache_info().currsize == 0 for cached in core._MEMOIZED)


MONOMIAL_ENTRY_POINTS = {
    "mul_u_closed(bad, a)": lambda bad: mul_u_closed(bad, (1, 0, 0, 0, 0)),
    "mul_u_closed(a, bad)": lambda bad: mul_u_closed((1, 0, 0, 0, 0), bad),
    "mul_cde_closed(bad, c)": lambda bad: mul_cde_closed(bad, (0, 0, 1, 0, 0)),
    "mul_cde_closed(c, bad)": lambda bad: mul_cde_closed((0, 0, 1, 0, 0), bad),
    "l_of_monomial": l_of_monomial,
    "type2_associator_closed(bad, b, d)":
        lambda bad: type2_associator_closed(bad, (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)),
    "type2_associator_closed(a, b, bad)":
        lambda bad: type2_associator_closed((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), bad),
}


@pytest.mark.parametrize("call", MONOMIAL_ENTRY_POINTS.values(), ids=MONOMIAL_ENTRY_POINTS)
@pytest.mark.parametrize(
    "bad, twin",
    [((0, 0, -1, 0, 0), None), ((0, 0, True, 0, 0), (0, 0, 1, 0, 0)), ((0, 0, 1, 0), None)],
    ids=["negative", "bool", "4-tuple"],
)
def test_monomial_kernels_reject_malformed_monomials(call, bad, twin):
    core.clear_memos()
    with pytest.raises(ValueError):
        call(bad)
    assert all(cached.cache_info().currsize == 0 for cached in core._MEMOIZED)
    if twin is not None:
        # the int twin hashes and compares equal, so a warm memo must not
        # answer for the malformed monomial
        call(twin)
        with pytest.raises(ValueError):
            call(bad)


# ---------------------------------------------------------------------------
# brackets, associators, the base algebra inside


def test_bracket_with_a_closed_pattern():
    # [b^q c^r d^s e^t, a] = -q b^(q-1) c^(r+1) d^s e^t
    #                        + (q s / 2) b^(q-1) c^r d^(s-1) e^(t+1)
    for q, r, s, t in itertools.product(range(3), repeat=4):
        x = U((0, q, r, s, t))
        want = UElement.zero()
        if q:
            want = want - q * U((0, q - 1, r + 1, s, t))
            if s:
                want = want + Fraction(q * s, 2) * U((0, q - 1, r, s - 1, t + 1))
        assert bracket_u(x, UElement.from_letter("a")) == want


def test_bracket_antisymmetric_and_alternating():
    for _ in range(20):
        x, y = rand_element(), rand_element()
        assert bracket_u(x, y) == -bracket_u(y, x)
        assert not bracket_u(x, x)


def test_embedding_respects_brackets():
    for f in "abcde":
        for g in "abcde":
            vf, vg = MalcevVector.basis(f), MalcevVector.basis(g)
            assert bracket_u(embed(vf), embed(vg)) == embed(bracket_m(vf, vg))


def test_jacobian_of_generators():
    a, b, d = (UElement.from_letter(t) for t in "abd")
    assert jacobian_u(a, b, d) == UElement.from_letter("e")
    c, e = UElement.from_letter("c"), UElement.from_letter("e")
    assert not jacobian_u(c, d, e)


def test_degree_one_associators_vanish():
    # the envelope is associative in degree one only trivially — generators
    # associate pairwise thanks to (xx)y = x(xy) failing first at degree 2;
    # frozen counterexample below
    a, b, d = (UElement.from_letter(t) for t in "abd")
    assert associator_u(a, b, d) == Fraction(1, 6) * UElement.from_letter("e")


def test_nonassociativity_witnesses():
    abd = U((1, 1, 0, 1, 0))
    got = associator_u(abd, abd, abd)
    want = UElement(
        {
            (1, 1, 1, 2, 1): Fraction(1, 6),
            (1, 1, 0, 1, 2): Fraction(-1, 6),
            (0, 0, 2, 2, 1): Fraction(-1, 6),
            (0, 0, 1, 1, 2): Fraction(11, 36),
            (0, 0, 0, 0, 3): Fraction(-1, 12),
        }
    )
    assert got == want

    ab, d = U((1, 1, 0, 0, 0)), U((0, 0, 0, 1, 0))
    assert associator_u(ab, ab, d) == Fraction(-1, 6) * U((0, 0, 1, 0, 1))

    bd, a2 = U((0, 1, 0, 1, 0)), U((2, 0, 0, 0, 0))
    assert associator_u(bd, bd, a2) == Fraction(1, 18) * U((0, 0, 0, 0, 2))


def test_str_of_big_associator():
    abd = U((1, 1, 0, 1, 0))
    got = str(associator_u(abd, abd, abd))
    assert got == "1/6 abcd^2e - 1/6 abde^2 - 1/6 c^2d^2e + 11/36 cde^2 - 1/12 e^3"


# ---------------------------------------------------------------------------
# the associative subalgebra on c, d, e


def test_cde_products_associative_and_closed():
    monos = [m for m in monomials_up_to(3) if m[0] == m[1] == 0]
    for x in monos:
        for y in monos:
            assert mul_cde_closed(x, y) == mul_u_closed(x, y)
    for _ in range(30):
        x, y, z = (
            U((0, 0, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)))
            for _ in range(3)
        )
        assert not associator_u(x, y, z)


def test_cde_closed_frozen_values():
    assert mul_cde_closed((0, 0, 0, 1, 0), (0, 0, 1, 0, 0)) == U((0, 0, 1, 1, 0)) - U(
        (0, 0, 0, 0, 1)
    )
    got = mul_cde_closed((0, 0, 0, 2, 0), (0, 0, 2, 0, 0))
    want = (
        U((0, 0, 2, 2, 0))
        - 4 * U((0, 0, 1, 1, 1))
        + 2 * U((0, 0, 0, 0, 2))
    )
    assert got == want


def test_cde_closed_rejects_other_letters():
    with pytest.raises(ValueError):
        mul_cde_closed((1, 0, 0, 0, 0), (0, 0, 1, 0, 0))
    with pytest.raises(ValueError):
        mul_cde_closed((0, 0, 1, 0, 0), (0, 1, 0, 0, 0))


# ---------------------------------------------------------------------------
# identities that distinguish this envelope from an associative one


def test_central_powers_associate():
    # e^k slots into any position of an associator without obstruction
    ek = U((0, 0, 0, 0, 2))
    for _ in range(10):
        x, y = rand_element(), rand_element()
        assert not associator_u(x, y, ek)
        assert not associator_u(x, ek, y)
        assert not associator_u(ek, x, y)
        assert not associator_u(x, UElement.one(), y)


def test_not_flexible():
    # unlike an alternative algebra, (x, y, x) need not vanish here
    x, y = U((1, 1, 0, 1, 0)), U((0, 1, 1, 0, 0))
    got = associator_u(x, y, x)
    want = UElement(
        {
            (1, 2, 0, 0, 2): Fraction(-1, 6),
            (0, 1, 2, 1, 1): Fraction(-1, 6),
            (0, 1, 1, 0, 2): Fraction(1, 6),
        }
    )
    assert got == want


def test_malcev_identity_degree_one():
    for _ in range(50):
        coords = lambda: MalcevVector(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(5))
        )
        x, y, z = coords(), coords(), coords()
        xe, ye, ze = embed(x), embed(y), embed(z)
        lhs = bracket_u(jacobian_u(xe, ye, ze), xe)
        rhs = jacobian_u(xe, ye, bracket_u(xe, ze))
        assert lhs == rhs
