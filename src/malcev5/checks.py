"""Deterministic verification suites behind the ``check`` subcommand.

Each suite re-derives one slice of the algebra by at least two independent
routes and compares exactly.  Suites return ``None`` on success or a string
describing the first counterexample found (inputs plus both computed
values); :func:`run_suite` wraps that in a timed :class:`CheckReport`.
Everything is deterministic for a fixed (max_degree, samples, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    LETTERS,
    MalcevVector,
    UElement,
    bracket_m,
    format_monomial,
    jacobian_m,
    term_key,
)
from .diffops import (
    Operator,
    compose,
    l_of_monomial,
    l_of_monomial_via_factors,
    lb_power_closed,
    ld_power_closed,
    lmul,
    rho,
    standard_word,
)
from .envelope import (
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
from .alternative import (
    AElement,
    _mul_a_mono,
    associator_a,
    check_speciality,
    mul_a,
    project,
    type2_associator_closed,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification suite run."""

    suite: str
    max_degree: int
    samples: int
    seed: int
    passed: bool
    counterexample: str | None
    duration: float

    def render(self) -> str:
        """Stable one-or-two-line text form (no timing; that goes to stderr)."""
        status = "PASS" if self.passed else "FAIL"
        head = (
            f"{self.suite}: {status} "
            f"(max-degree={self.max_degree}, samples={self.samples}, seed={self.seed})"
        )
        if self.counterexample:
            head += f"\n  counterexample: {self.counterexample}"
        return head


def _monomials(max_degree, letters=(0, 1, 2, 3, 4)):
    """All exponent tuples of total degree <= max_degree supported on
    the given letter indices, in ascending graded-lex order."""
    out = [(0, 0, 0, 0, 0)]
    for _ in range(max_degree):
        grown = set()
        for mono in out:
            for v in letters:
                grown.add(mono[:v] + (mono[v] + 1,) + mono[v + 1:])
        out.extend(grown)
        out = list(set(out))
    return sorted(set(out), key=term_key)


def _umono(mono) -> UElement:
    return UElement._make({mono: 1})


def _amono(mono) -> AElement:
    return AElement._make({mono: 1})


def _rand_rational(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _rand_nonzero(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))


def _rand_vector(rng) -> MalcevVector:
    return MalcevVector(tuple(_rand_rational(rng) for _ in range(5)))


def _rand_a_monomial(rng, max_exp=4):
    if rng.randrange(2):
        return (rng.randint(0, max_exp), rng.randint(0, max_exp), 0,
                rng.randint(0, max_exp), 1)
    return (rng.randint(0, max_exp), rng.randint(0, max_exp),
            rng.randint(0, max_exp), rng.randint(0, max_exp), 0)


def _rand_a_element(rng, max_exp=4) -> AElement:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[_rand_a_monomial(rng, max_exp)] = _rand_nonzero(rng)
    return AElement(terms)


# ---------------------------------------------------------------------------
# oracle suite: the three multiplication routes, filtration, cde corner
# ---------------------------------------------------------------------------

def _check_oracle(max_degree, samples, seed):
    monos = _monomials(max_degree)
    for x in monos:
        op = l_of_monomial(x)
        xe = _umono(x)
        dx = sum(x)
        for y in monos:
            closed = mul_u_closed(x, y)
            oracle = mul_u_oracle(xe, _umono(y))
            via_op = op.apply(_umono(y))
            if not (closed == oracle == via_op):
                return (
                    f"routes disagree on {format_monomial(x)} * {format_monomial(y)}: "
                    f"closed = {closed}; oracle = {oracle}; operator = {via_op}"
                )
            top = sum(y) + dx
            lead = [m for m in closed.terms if sum(m) == top]
            concat = tuple(a + b for a, b in zip(x, y))
            if any(sum(m) > top for m in closed.terms) or lead != [concat] \
                    or closed.terms[concat] != 1:
                return (
                    f"degree filtration violated at {format_monomial(x)} * "
                    f"{format_monomial(y)}: {closed}"
                )

    # the nilpotent corner: one contraction index, and genuinely associative
    cde = _monomials(max_degree + 1, letters=(2, 3, 4))
    for x in cde:
        for y in cde:
            lhs = mul_u_closed(x, y)
            rhs = mul_cde_closed(x, y)
            if lhs != rhs:
                return (
                    f"cde product mismatch at {format_monomial(x)} * "
                    f"{format_monomial(y)}: closed = {lhs}; alpha-sum = {rhs}"
                )
    cde_small = _monomials(max(max_degree - 1, 0), letters=(2, 3, 4))
    for x in cde_small:
        xe = _umono(x)
        for y in cde_small:
            xy = mul_u(xe, _umono(y))
            for z in cde_small:
                ze = _umono(z)
                lhs = mul_u(xy, ze)
                rhs = mul_u(xe, mul_u(_umono(y), ze))
                if lhs != rhs:
                    return (
                        f"cde associativity fails on ({format_monomial(x)}, "
                        f"{format_monomial(y)}, {format_monomial(z)}): "
                        f"(xy)z = {lhs}; x(yz) = {rhs}"
                    )

    # the non-power-associativity witness, frozen exactly
    abd = _umono((1, 1, 0, 1, 0))
    witness = associator_u(abd, abd, abd)
    expected = UElement(
        {
            (1, 1, 1, 2, 1): Fraction(1, 6),
            (1, 1, 0, 1, 2): Fraction(-1, 6),
            (0, 0, 2, 2, 1): Fraction(-1, 6),
            (0, 0, 1, 1, 2): Fraction(11, 36),
            (0, 0, 0, 0, 3): Fraction(-1, 12),
        }
    )
    if witness != expected:
        return f"(abd,abd,abd) = {witness}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# operators suite: faithfulness, commutator table, straightening, powers
# ---------------------------------------------------------------------------

def _word(mul, der, coeff=1):
    return Operator.word(mul, der, coeff)


_ME = (0, 0, 0, 0, 1)
_MC = (0, 0, 1, 0, 0)
_D0 = (0, 0, 0, 0)

# the nonzero [L(x),L(y)], [R(x),R(y)], [L(x),R(y)] commutators
_COMMUTATOR_TABLE = {
    ("L", "a", "L", "b"): _word(_MC, _D0) + _word(_ME, (0, 0, 0, 1), Fraction(-1, 3)),
    ("L", "a", "L", "d"): _word(_ME, (0, 1, 0, 0), Fraction(1, 3)),
    ("L", "b", "L", "d"): _word(_ME, (1, 0, 0, 0), Fraction(-1, 3)),
    ("L", "c", "L", "d"): _word(_ME, _D0),
    ("R", "a", "R", "d"): _word(_ME, (0, 1, 0, 0)),
    ("R", "b", "R", "d"): _word(_ME, (1, 0, 0, 0), -1),
    ("L", "a", "R", "b"): _word(_MC, _D0, -1) + _word(_ME, (0, 0, 0, 1), Fraction(1, 2)),
    ("L", "a", "R", "d"): _word(_ME, (0, 1, 0, 0), Fraction(-1, 2)),
    ("L", "b", "R", "a"): _word(_MC, _D0) + _word(_ME, (0, 0, 0, 1), Fraction(-1, 2)),
    ("L", "b", "R", "d"): _word(_ME, (1, 0, 0, 0), Fraction(1, 2)),
    ("L", "c", "R", "d"): _word(_ME, _D0, -1),
    ("L", "d", "R", "a"): _word(_ME, (0, 1, 0, 0), Fraction(1, 2)),
    ("L", "d", "R", "b"): _word(_ME, (1, 0, 0, 0), Fraction(-1, 2)),
    ("L", "d", "R", "c"): _word(_ME, _D0),
}


def _check_operators(max_degree, samples, seed):
    # faithfulness: the generator operators reproduce the recursive oracle
    monos = _monomials(max_degree + 1)
    for ch in LETTERS:
        rv, lv = rho(ch), lmul(ch)
        ve = UElement.from_letter(ch)
        for x in monos:
            xe = _umono(x)
            got = rv.apply(xe)
            want = bracket_u_oracle(xe, ch)
            if got != want:
                return (
                    f"rho({ch}) applied to {format_monomial(x)} gives {got}, "
                    f"oracle bracket gives {want}"
                )
            got = lv.apply(xe)
            want = mul_u_oracle(ve, xe)
            if got != want:
                return (
                    f"lmul({ch}) applied to {format_monomial(x)} gives {got}, "
                    f"oracle product gives {want}"
                )

    # commutator table: listed pairs match, everything else commutes
    ops = {"L": lmul, "R": rho}
    for k1 in ("L", "R"):
        for k2 in ("L", "R"):
            if (k1, k2) == ("R", "L"):
                continue  # covered by ("L", "R") up to sign
            for c1 in LETTERS:
                for c2 in LETTERS:
                    if k1 == k2 and c1 >= c2:
                        continue
                    f, g = ops[k1](c1), ops[k2](c2)
                    got = compose(f, g) - compose(g, f)
                    want = _COMMUTATOR_TABLE.get((k1, c1, k2, c2), Operator.zero())
                    if got != want:
                        return (
                            f"[{k1}({c1}), {k2}({c2})] = {got}, table says {want}"
                        )

    # power expansions of L(b) and L(d)
    for power_closed, ch in ((lb_power_closed, "b"), (ld_power_closed, "d")):
        acc = Operator.identity()
        for n in range(1, 6):
            acc = compose(acc, lmul(ch))
            want = power_closed(n)
            if acc != want:
                return f"L({ch})^{n} = {acc}, closed expansion says {want}"

    # nine-index closed form vs composed standard words
    for x in _monomials(max_degree):
        lhs = l_of_monomial(x)
        rhs = l_of_monomial_via_factors(x)
        if lhs != rhs:
            return (
                f"left multiplication by {format_monomial(x)}: closed form = "
                f"{lhs}; composed words = {rhs}"
            )

    # straightening identity on 100 seeded standard-order words
    rng = random.Random(seed)
    la, ra = lmul("a"), rho("a")
    for _ in range(100):
        s, t, u, v, w, x, y, z = (rng.randint(0, 3) for _ in range(8))
        word = standard_word(s, t, u, v, w, x, y, z)
        lhs = (
            2 * compose(la, word)
            - compose(word, la)
            - compose(word, ra)
            + compose(ra, word)
        )
        rhs = standard_word(s + 1, t, u, v, w, x, y, z)
        if t:
            rhs = rhs - t * standard_word(s, t - 1, u, v, w, x, y, z)
        if u:
            rhs = rhs + Fraction(u, 6) * standard_word(s, t, u - 1, v, w, x + 1, y, z + 1)
        if y:
            rhs = rhs - Fraction(y, 6) * standard_word(s, t, u, v + 1, w, x, y - 1, z + 1)
        if lhs != rhs:
            return (
                f"straightening fails on word {(s, t, u, v, w, x, y, z)}: "
                f"lhs = {lhs}; rhs = {rhs}"
            )

    # compose is associative and realizes function composition
    rng = random.Random(seed + 1)
    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mul = tuple(rng.randint(0, 2) for _ in range(5))
            der = tuple(rng.randint(0, 2) for _ in range(4))
            terms[(mul, der)] = _rand_nonzero(rng)
        return Operator(terms)

    test_monos = _monomials(3)
    for _ in range(min(samples, 200)):
        f, g, h = rand_op(), rand_op(), rand_op()
        if compose(compose(f, g), h) != compose(f, compose(g, h)):
            return f"compose not associative on {f!r}, {g!r}, {h!r}"
        el = UElement({rng.choice(test_monos): _rand_nonzero(rng) for _ in range(3)})
        if compose(f, g).apply(el) != f.apply(g.apply(el)):
            return f"compose/apply mismatch on {f!r}, {g!r} at {el}"
    return None


# ---------------------------------------------------------------------------
# nucleus suite: degree-1 entries slide through associators
# ---------------------------------------------------------------------------

def _check_nucleus(max_degree, samples, seed):
    bound = max(max_degree - 1, 0)
    monos = _monomials(bound)
    letters = [(ch, UElement.from_letter(ch)) for ch in LETTERS]
    for x in monos:
        xe = _umono(x)
        for y in monos:
            ye = _umono(y)
            xy = mul_u(xe, ye)
            for ch, ge in letters:
                a1 = mul_u(mul_u(ge, xe), ye) - mul_u(ge, xy)
                a2 = mul_u(mul_u(xe, ge), ye) - mul_u(xe, mul_u(ge, ye))
                a3 = mul_u(xy, ge) - mul_u(xe, mul_u(ye, ge))
                if not (a1 == -1 * a2 == a3):
                    return (
                        f"nucleus relations fail for g={ch}, x={format_monomial(x)}, "
                        f"y={format_monomial(y)}: (g,x,y) = {a1}; (x,g,y) = {a2}; "
                        f"(x,y,g) = {a3}"
                    )

    # associator of two generators against anything, via commutators
    sixth = Fraction(1, 6)
    for f_ch, fe in letters:
        for g_ch, ge in letters:
            fg = bracket_u(fe, ge)
            for y in monos:
                ye = _umono(y)
                got = associator_u(fe, ge, ye)
                want = sixth * (
                    bracket_u(bracket_u(ye, fe), ge)
                    - bracket_u(bracket_u(ye, ge), fe)
                    - bracket_u(ye, fg)
                )
                if got != want:
                    return (
                        f"associator-commutator formula fails for f={f_ch}, "
                        f"g={g_ch}, y={format_monomial(y)}: associator = {got}; "
                        f"bracket side = {want}"
                    )
    return None


# ---------------------------------------------------------------------------
# malcev suite: the base identity survives the embedding
# ---------------------------------------------------------------------------

def _check_malcev(max_degree, samples, seed):
    rng = random.Random(seed)
    basis = [MalcevVector.basis(ch) for ch in LETTERS]
    triples = [(x, y, z) for x in basis for y in basis for z in basis]
    triples += [
        (_rand_vector(rng), _rand_vector(rng), _rand_vector(rng))
        for _ in range(samples)
    ]
    for x, y, z in triples:
        lhs_m = bracket_m(jacobian_m(x, y, z), x)
        rhs_m = jacobian_m(x, y, bracket_m(x, z))
        if lhs_m != rhs_m:
            return (
                f"Malcev identity fails in the base algebra on {x!r}, {y!r}, {z!r}: "
                f"[J(x,y,z),x] = {lhs_m!r}; J(x,y,[x,z]) = {rhs_m!r}"
            )
        xe, ye, ze = embed(x), embed(y), embed(z)
        lhs_u = bracket_u(jacobian_u(xe, ye, ze), xe)
        rhs_u = jacobian_u(xe, ye, bracket_u(xe, ze))
        if not (lhs_u == rhs_u == embed(lhs_m)):
            return (
                f"Malcev identity diverges in the envelope on {x!r}, {y!r}, {z!r}: "
                f"[J(x,y,z),x] = {lhs_u}; J(x,y,[x,z]) = {rhs_u}; "
                f"base algebra says {embed(lhs_m)}"
            )
        # degree-1 commutators factor through the base bracket
        if bracket_u(xe, ye) != embed(bracket_m(x, y)):
            return (
                f"degree-1 commutator of {x!r}, {y!r} is {bracket_u(xe, ye)}, "
                f"base bracket embeds to {embed(bracket_m(x, y))}"
            )
    return None


# ---------------------------------------------------------------------------
# homomorphism suite: projection intertwines the products
# ---------------------------------------------------------------------------

def _check_homomorphism(max_degree, samples, seed):
    monos = _monomials(max_degree)
    for x in monos:
        px = project(_umono(x))
        for y in monos:
            lhs = project(mul_u_closed(x, y))
            rhs = mul_a(px, project(_umono(y)))
            if lhs != rhs:
                return (
                    f"projection breaks on {format_monomial(x)} * "
                    f"{format_monomial(y)}: project(mul_u) = {lhs}; "
                    f"mul_a(project, project) = {rhs}"
                )
    return None


# ---------------------------------------------------------------------------
# alternative suite: alternativity, alternation, the closed associator
# ---------------------------------------------------------------------------

def _fmt_a(mono) -> str:
    return format_monomial(mono)


def _scan_type2_closed(limit=4):
    """Exhaustive associator check on type-2 monomials with exponents < limit.

    Compares the associator of the shipped product ``_mul_a_mono`` with
    :func:`type2_associator_closed` on every triple (16.7M at the default
    limit).  For speed the products are tabulated once, on monomials
    interned to small int ids and with coefficients scaled by 6 to
    integers; a coefficient that is not a sixth stays an exact
    ``Fraction``, so the scaling never rounds.  Returns a counterexample
    string or None.
    """
    ids: dict = {}
    keys: list = []

    def sixths(terms):
        out = []
        for mono, c in terms.items():
            mid = ids.get(mono)
            if mid is None:
                mid = ids[mono] = len(keys)
                keys.append(mono)
            c6 = 6 * c
            out.append((mid, int(c6) if c6.denominator == 1 else c6))
        return tuple(out)

    monos = [
        (i, j, k, l, 0)
        for i in range(limit)
        for j in range(limit)
        for k in range(limit)
        for l in range(limit)
    ]
    n = len(monos)
    P = [[sixths(_mul_a_mono(x, y)) for y in monos] for x in monos]

    MZ: dict = {}
    XM: dict = {}
    for xi in range(n):
        x = monos[xi]
        Px = P[xi]
        for yi in range(n):
            t12 = Px[yi]
            Py = P[yi]
            y = monos[yi]
            for zi in range(n):
                z = monos[zi]
                acc = {}
                for mk, c in t12:
                    key = (mk, zi)
                    lst = MZ.get(key)
                    if lst is None:
                        lst = MZ[key] = sixths(_mul_a_mono(keys[mk], z))
                    for ok, oc in lst:
                        acc[ok] = acc.get(ok, 0) + c * oc
                for mk, c in Py[zi]:
                    key = (xi, mk)
                    lst = XM.get(key)
                    if lst is None:
                        lst = XM[key] = sixths(_mul_a_mono(x, keys[mk]))
                    for ok, oc in lst:
                        acc[ok] = acc.get(ok, 0) - c * oc
                # the closed form vanishes unless no factor carries a c
                if not (x[2] or y[2] or z[2]):
                    for ok, oc in sixths(type2_associator_closed(x, y, z).terms):
                        acc[ok] = acc.get(ok, 0) - 6 * oc
                if any(acc.values()):
                    xa, ya, za = _amono(x), _amono(y), _amono(z)
                    return (
                        f"type-2 associator mismatch on ({xa}, {ya}, {za}): "
                        f"via mul_a = {associator_a(xa, ya, za)}; "
                        f"closed form = {type2_associator_closed(x, y, z)}"
                    )
    return None


def _check_alternative(max_degree, samples, seed):
    # the quotient kills its generators
    ab = UElement._make({(1, 1, 0, 0, 0): 1})
    d = UElement._make({(0, 0, 0, 1, 0): 1})
    bd = UElement._make({(0, 1, 0, 1, 0): 1})
    a2 = UElement._make({(2, 0, 0, 0, 0): 1})
    alt1 = associator_u(ab, ab, d)
    alt2 = associator_u(bd, bd, a2)
    if alt1 != UElement({(0, 0, 1, 0, 1): Fraction(-1, 6)}):
        return f"(ab,ab,d) = {alt1}, expected -1/6 ce"
    if alt2 != UElement({(0, 0, 0, 0, 2): Fraction(1, 18)}):
        return f"(bd,bd,a^2) = {alt2}, expected 1/18 e^2"
    if project(alt1) or project(alt2):
        return (
            f"alternators survive projection: {project(alt1)}, {project(alt2)}"
        )

    # alternativity on seeded random elements
    rng = random.Random(seed)
    for _ in range(samples):
        x = _rand_a_element(rng)
        y = _rand_a_element(rng)
        left = associator_a(x, x, y)
        right = associator_a(y, x, x)
        if left or right:
            return (
                f"alternativity fails for x = {x}, y = {y}: "
                f"(x,x,y) = {left}; (y,x,x) = {right}"
            )

    # any type-1 slot kills the associator (small exhaustive scan)
    t1 = [(i, j, 0, l, 1) for i in (0, 1) for j in (0, 1) for l in (0, 1)]
    t2 = [
        (i, j, k, l, 0)
        for i in (0, 1)
        for j in (0, 1)
        for k in (0, 1)
        for l in (0, 1)
    ]
    quotient = t1 + t2
    for m1 in t1:
        for m2 in quotient:
            for m3 in quotient:
                for triple in ((m1, m2, m3), (m2, m1, m3), (m2, m3, m1)):
                    got = associator_a(*(map(_amono, triple)))
                    if got:
                        names = ", ".join(_fmt_a(m) for m in triple)
                        return f"type-1 slot associator ({names}) = {got}, expected 0"

    # alternation: sign flips under each transposition
    rng = random.Random(seed + 1)
    tri = [(m1, m2, m3) for m1 in t2 for m2 in t2 for m3 in t2]
    for _ in range(samples):
        tri.append(
            tuple(
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3),
                 rng.randint(0, 3), 0)
                for _ in range(3)
            )
        )
    for m1, m2, m3 in tri:
        a1, a2_, a3 = _amono(m1), _amono(m2), _amono(m3)
        base = associator_a(a1, a2_, a3)
        for swapped in (
            (a2_, a1, a3),
            (a1, a3, a2_),
            (a3, a2_, a1),
        ):
            if associator_a(*swapped) != -1 * base:
                names = ", ".join(_fmt_a(m) for m in (m1, m2, m3))
                return f"associator not alternating on ({names})"

    # the closed form, exhaustively (exponents <= 3 at the default degree)
    return _scan_type2_closed(limit=max(2, min(max_degree - 1, 4)))


def _check_special(max_degree, samples, seed):
    report = check_speciality()
    if report.passed:
        return None
    return "; ".join(report.failures)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITE_NAMES = (
    "oracle",
    "operators",
    "nucleus",
    "malcev",
    "alternative",
    "homomorphism",
    "special",
)

_SUITES = {
    "oracle": _check_oracle,
    "operators": _check_operators,
    "nucleus": _check_nucleus,
    "malcev": _check_malcev,
    "alternative": _check_alternative,
    "homomorphism": _check_homomorphism,
    "special": _check_special,
}


def run_suite(name, max_degree=5, samples=1000, seed=0) -> CheckReport:
    """Run one named suite and report the outcome with wall-clock timing."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown check suite {name!r}; expected one of {SUITE_NAMES}") from None
    if max_degree < 0 or samples < 0:
        raise ValueError(
            f"max_degree and samples must be nonnegative, got max_degree={max_degree}, "
            f"samples={samples}"
        )
    start = time.perf_counter()
    counterexample = fn(max_degree, samples, seed)
    duration = time.perf_counter() - start
    return CheckReport(
        suite=name,
        max_degree=max_degree,
        samples=samples,
        seed=seed,
        passed=counterexample is None,
        counterexample=counterexample,
        duration=duration,
    )


def run_all(max_degree=5, samples=1000, seed=0):
    """Run every suite in the canonical order."""
    return [run_suite(name, max_degree, samples, seed) for name in SUITE_NAMES]
