"""Deterministic verification suites behind the ``check`` subcommand.

Each suite re-derives one slice of the algebra by at least two independent
routes.  A suite is a generator of claims ``(what, case, values)``: a fixed
label for the comparison, the raw inputs, and a dict of named results that
must all be equal.  :func:`run_suite` feeds the claims to :func:`_compare`,
the one place that tests them exactly and describes the first that fails,
and wraps the outcome in a timed :class:`CheckReport`.  Everything is
deterministic for a fixed (max_degree, samples, seed).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, zip_longest

from .core import (
    LETTERS,
    MalcevVector,
    UElement,
    _are_exponents,
    _bilinear,
    _reduced,
    bracket_m,
    format_monomial,
    jacobian_m,
    letter_monomial,
    term_key,
)
from .diffops import (
    Operator,
    _compose_words,
    compose,
    l_of_monomial,
    lb_power_closed,
    ld_power_closed,
    lmul,
    rho,
    standard_word,
)
from . import envelope
from .envelope import (
    _closed_terms,
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
    _type2_associator,
    associator_a,
    bracket_a,
    in_ideal_j,
    mul_a,
    project,
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


def _compare(claims):
    """Test each claim exactly, in order, and describe the first that fails.

    Returns None when every claim holds.  Otherwise no further claim is
    drawn, and the text names the inputs and every compared value
    (monomials by :func:`format_monomial`, everything else by ``str``).  A
    stream with no claim at all fails too, and so does a claim with fewer
    than two values: a check that compared nothing has shown nothing.

    A row claim is one claim per entry k: one input is a list, read at k,
    and each value a list of reduced ``(den, numerators)`` pairs, equal
    exactly when the elements are.  An entry of either algebra is shown as
    a ``UElement``, whose basis holds every monomial: both print alike.
    Lists that agree until one of them ends fail at the first entry it
    lacks, shown as ``no entry``.
    """
    compared = 0
    for what, case, values in claims:
        compared += 1
        vs = tuple(values.values())
        n = len(vs)
        if n < 2 or vs.count(vs[0]) != n:
            if n > 1 and type(vs[0]) is list:
                rows = zip_longest(*vs, fillvalue=None)
                k = next(k for k, entries in enumerate(rows) if entries.count(entries[0]) != n)
                case = tuple((c[k] if k < len(c) else "no entry") if type(c) is list else c
                             for c in case)
                values = {name: UElement._make(*v[k]) if k < len(v) else "no entry"
                          for name, v in values.items()}

            def show(v):
                return format_monomial(v) if isinstance(v, tuple) else str(v)

            inputs = ", ".join(map(show, case))
            shown = "; ".join(f"{name} = {show(v)}" for name, v in values.items())
            problem = "mismatch" if n > 1 else "compares fewer than two values"
            return f"{what} {problem} on ({inputs}): {shown or 'nothing'}"
    return None if compared else "no cases compared"


def _monomials(max_degree, letters=(0, 1, 2, 3, 4)):
    """All exponent tuples of total degree <= max_degree supported on
    the given letter indices, in ascending graded-lex order."""
    box = product(*(range(max_degree + 1) if v in letters else (0,) for v in range(5)))
    return sorted((mono for mono in box if sum(mono) <= max_degree), key=term_key)


def _umono(mono) -> UElement:
    return UElement._make(1, {mono: 1})


def _amono(mono) -> AElement:
    return AElement._make(1, {mono: 1})


def _entry(el) -> tuple:  # an element as a row claim's entry
    return _reduced(el._den, el._num)


def _rand_rational(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _rand_nonzero(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))


def _rand_vector(rng) -> MalcevVector:
    return MalcevVector(tuple(_rand_rational(rng) for _ in range(5)))


def _rand_a_monomial(rng, top=4):
    """A quotient basis monomial of either type, exponents <= ``top``."""
    if rng.randrange(2):
        return (rng.randint(0, top), rng.randint(0, top), 0, rng.randint(0, top), 1)
    return (rng.randint(0, top), rng.randint(0, top), rng.randint(0, top), rng.randint(0, top), 0)


def _rand_a_element(rng) -> AElement:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[_rand_a_monomial(rng)] = _rand_nonzero(rng)
    return AElement(terms)


# ---------------------------------------------------------------------------
# oracle suite: the three multiplication routes, filtration, cde corner
# ---------------------------------------------------------------------------

def _check_oracle(max_degree, samples, seed):
    # one row claim per left factor x (per x and y for cde associativity)
    monos = _monomials(max_degree)
    els = [_umono(m) for m in monos]
    for x, xe in zip(monos, els):
        op = l_of_monomial(x)
        # mul_u_closed's kernel, already reduced, looked up in envelope as it does
        closed = [envelope._closed_terms(x, y) for y in monos]
        yield "product routes", (x, monos), {
            "closed": closed,
            "oracle": [_entry(mul_u_oracle(xe, ye)) for ye in els],
            "operator": [_entry(op.apply(ye)) for ye in els],
        }
        top = [sum(x) + sum(y) for y in monos]
        yield "degree filtration", (x, monos), {
            "top-degree part": [_reduced(den, {m: n for m, n in num.items() if sum(m) >= t})
                                for (den, num), t in zip(closed, top)],
            "concatenation": [(1, {tuple(a + b for a, b in zip(x, y)): 1}) for y in monos],
        }

    # the nilpotent corner: one contraction index, and genuinely associative
    cde = _monomials(max_degree + 1, letters=(2, 3, 4))
    for x in cde:
        yield "cde product", (x, cde), {
            "closed": [envelope._closed_terms(x, y) for y in cde],
            "alpha-sum": [_entry(mul_cde_closed(x, y)) for y in cde],
        }
    small = _monomials(max(max_degree - 1, 0), letters=(2, 3, 4))
    cde_small = [(m, _umono(m)) for m in small]
    yzs = {y: [mul_u(ye, ze) for _, ze in cde_small] for y, ye in cde_small}
    for x, xe in cde_small:
        for y, ye in cde_small:
            xy = mul_u(xe, ye)
            yield "cde associativity", (x, y, small), {
                "(xy)z": [_entry(mul_u(xy, ze)) for _, ze in cde_small],
                "x(yz)": [_entry(mul_u(xe, yz)) for yz in yzs[y]],
            }

    # the non-power-associativity witness, frozen exactly
    abd = (1, 1, 0, 1, 0)
    yield "witness", (abd, abd, abd), {
        "associator": associator_u(_umono(abd), _umono(abd), _umono(abd)),
        "frozen": UElement({(1, 1, 1, 2, 1): Fraction(1, 6), (1, 1, 0, 1, 2): Fraction(-1, 6),
                            (0, 0, 2, 2, 1): Fraction(-1, 6), (0, 0, 1, 1, 2): Fraction(11, 36),
                            (0, 0, 0, 0, 3): Fraction(-1, 12)}),
    }


# ---------------------------------------------------------------------------
# operators suite: faithfulness, commutator table, straightening, powers
# ---------------------------------------------------------------------------

_ME = (0, 0, 0, 0, 1)
_MC = (0, 0, 1, 0, 0)
_D0 = (0, 0, 0, 0)

# the nonzero [L(x),L(y)], [R(x),R(y)], [L(x),R(y)] commutators
_COMMUTATOR_TABLE = {
    ("L", "a", "L", "b"): Operator({(_MC, _D0): 1, (_ME, (0, 0, 0, 1)): Fraction(-1, 3)}),
    ("L", "a", "L", "d"): Operator({(_ME, (0, 1, 0, 0)): Fraction(1, 3)}),
    ("L", "b", "L", "d"): Operator({(_ME, (1, 0, 0, 0)): Fraction(-1, 3)}),
    ("L", "c", "L", "d"): Operator({(_ME, _D0): 1}),
    ("R", "a", "R", "d"): Operator({(_ME, (0, 1, 0, 0)): 1}),
    ("R", "b", "R", "d"): Operator({(_ME, (1, 0, 0, 0)): -1}),
    ("L", "a", "R", "b"): Operator({(_MC, _D0): -1, (_ME, (0, 0, 0, 1)): Fraction(1, 2)}),
    ("L", "a", "R", "d"): Operator({(_ME, (0, 1, 0, 0)): Fraction(-1, 2)}),
    ("L", "b", "R", "a"): Operator({(_MC, _D0): 1, (_ME, (0, 0, 0, 1)): Fraction(-1, 2)}),
    ("L", "b", "R", "d"): Operator({(_ME, (1, 0, 0, 0)): Fraction(1, 2)}),
    ("L", "c", "R", "d"): Operator({(_ME, _D0): -1}),
    ("L", "d", "R", "a"): Operator({(_ME, (0, 1, 0, 0)): Fraction(1, 2)}),
    ("L", "d", "R", "b"): Operator({(_ME, (1, 0, 0, 0)): Fraction(-1, 2)}),
    ("L", "d", "R", "c"): Operator({(_ME, _D0): 1}),
}


def _check_operators(max_degree, samples, seed):
    # faithfulness: the generator operators reproduce the recursive oracle
    monos = _monomials(max_degree + 1)
    for ch in LETTERS:
        rv, lv = rho(ch), lmul(ch)
        ve = UElement.from_letter(ch)
        for x in monos:
            xe = _umono(x)
            yield "faithfulness", (ch, x), {
                "rho": rv.apply(xe), "oracle bracket": bracket_u_oracle(xe, ch)
            }
            yield "faithfulness", (ch, x), {
                "lmul": lv.apply(xe), "oracle product": mul_u_oracle(ve, xe)
            }

    # commutator table: listed pairs match, everything else commutes
    ops = {"L": lmul, "R": rho}
    # ("R", "L") is covered by ("L", "R") up to sign
    for k1, k2 in (("L", "L"), ("L", "R"), ("R", "R")):
        for c1 in LETTERS:
            for c2 in LETTERS:
                if k1 == k2 and c1 >= c2:
                    continue
                f, g = ops[k1](c1), ops[k2](c2)
                yield "commutator table", (f"{k1}({c1})", f"{k2}({c2})"), {
                    "commutator": _bilinear(_compose_words, (1, f, g), (-1, g, f)),
                    "table": _COMMUTATOR_TABLE.get((k1, c1, k2, c2), Operator.zero()),
                }

    # power expansions of L(b) and L(d)
    for power_closed, ch in ((lb_power_closed, "b"), (ld_power_closed, "d")):
        acc = Operator.identity()
        for n in range(1, 6):
            acc = compose(acc, lmul(ch))
            yield "power expansion", (f"L({ch})", n), {
                "composed": acc, "closed": power_closed(n)
            }

    # straightening identity on 100 seeded standard-order words
    rng = random.Random(seed)
    la, ra = lmul("a"), rho("a")
    for _ in range(100):
        s, t, u, v, w, x, y, z = (rng.randint(0, 3) for _ in range(8))
        word = standard_word(s, t, u, v, w, x, y, z)
        pairs = ((2, la, word), (-1, word, la), (-1, word, ra), (1, ra, word))
        lhs = _bilinear(_compose_words, *pairs)
        rhs = standard_word(s + 1, t, u, v, w, x, y, z)
        if t:
            rhs = rhs - t * standard_word(s, t - 1, u, v, w, x, y, z)
        if u:
            rhs = rhs + Fraction(u, 6) * standard_word(s, t, u - 1, v, w, x + 1, y, z + 1)
        if y:
            rhs = rhs - Fraction(y, 6) * standard_word(s, t, u, v + 1, w, x, y - 1, z + 1)
        yield "straightening", (s, t, u, v, w, x, y, z), {"lhs": lhs, "rhs": rhs}

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
        yield "compose associativity", (f, g, h), {
            "(fg)h": compose(compose(f, g), h), "f(gh)": compose(f, compose(g, h))
        }
        el = UElement({rng.choice(test_monos): _rand_nonzero(rng) for _ in range(3)})
        yield "compose/apply", (f, g, el), {
            "(fg)(el)": compose(f, g).apply(el), "f(g(el))": f.apply(g.apply(el))
        }


# ---------------------------------------------------------------------------
# nucleus suite: degree-1 entries slide through associators
# ---------------------------------------------------------------------------

def _check_nucleus(max_degree, samples, seed):
    bound = max(max_degree - 1, 0)
    monos = [(x, _umono(x)) for x in _monomials(bound)]
    letters = [(ch, UElement.from_letter(ch)) for ch in LETTERS]
    # g x and x g for every generator g, once per monomial x
    sides = {x: [(mul_u(ge, xe), mul_u(xe, ge)) for _, ge in letters] for x, xe in monos}
    for x, xe in monos:
        for y, ye in monos:
            xy = mul_u(xe, ye)
            for (ch, ge), (gx, xg), (gy, yg) in zip(letters, sides[x], sides[y]):
                yield "nucleus relations", (ch, x, y), {
                    "(g,x,y)": _bilinear(_closed_terms, (1, gx, ye), (-1, ge, xy)),
                    "-(x,g,y)": _bilinear(_closed_terms, (1, xe, gy), (-1, xg, ye)),
                    "(x,y,g)": _bilinear(_closed_terms, (1, xy, ge), (-1, xe, yg)),
                }

    # associator of two generators against anything, via commutators;
    # [y, f] for every generator f, once per monomial y
    brackets = {y: [bracket_u(ye, fe) for _, fe in letters] for y, ye in monos}
    for f, (f_ch, fe) in enumerate(letters):
        for g, (g_ch, ge) in enumerate(letters):
            fg = bracket_u(fe, ge)
            for y, ye in monos:
                yf, yg = brackets[y][f], brackets[y][g]
                yield "associator-commutator formula", (f_ch, g_ch, y), {
                    "associator": associator_u(fe, ge, ye),
                    # [[y,f],g] - [[y,g],f] - [y,[f,g]]
                    "bracket side": Fraction(1, 6) * _bilinear(
                        _closed_terms, (1, yf, ge), (-1, ge, yf), (-1, yg, fe), (1, fe, yg),
                        (-1, ye, fg), (1, fg, ye)),
                }


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
        yield "Malcev identity in the base algebra", (x, y, z), {
            "[J(x,y,z),x]": lhs_m, "J(x,y,[x,z])": jacobian_m(x, y, bracket_m(x, z))
        }
        xe, ye, ze = embed(x), embed(y), embed(z)
        yield "Malcev identity in the envelope", (x, y, z), {
            "[J(x,y,z),x]": bracket_u(jacobian_u(xe, ye, ze), xe),
            "J(x,y,[x,z])": jacobian_u(xe, ye, bracket_u(xe, ze)),
            "base algebra": embed(lhs_m),
        }
        # degree-1 commutators factor through the base bracket
        yield "degree-1 commutator", (x, y), {
            "envelope": bracket_u(xe, ye), "base bracket": embed(bracket_m(x, y))
        }


# ---------------------------------------------------------------------------
# homomorphism suite: projection intertwines the products
# ---------------------------------------------------------------------------

def _check_homomorphism(max_degree, samples, seed):
    # every pair of the degree box, one row claim per left factor
    monos = _monomials(max_degree)
    projected = [project(_umono(m)) for m in monos]
    for x, px in zip(monos, projected):
        yield "projection", (x, monos), {
            # mul_u_closed's kernel, looked up in envelope as it does
            "project(mul_u)": [_entry(project(UElement._make(*envelope._closed_terms(x, y))))
                               for y in monos],
            "mul_a(project, project)": [_entry(mul_a(px, py)) for py in projected],
        }

    # past the box, quotient basis pairs (which project to themselves):
    # seeded pairs of both types with exponents <= 9, then b^n a^n, whose
    # Heisenberg terms reach every c-shift mu <= n
    rng = random.Random(seed)
    pairs = [(_rand_a_monomial(rng, 9), _rand_a_monomial(rng, 9)) for _ in range(samples)]
    pairs += [((0, n, 0, 0, 0), (n, 0, 0, 0, 0)) for n in range(1, 10)]
    for x, y in pairs:
        yield "projection", (x, y), {
            "project(mul_u)": project(mul_u_closed(x, y)),
            "mul_a(project, project)": mul_a(_amono(x), _amono(y)),
        }


# ---------------------------------------------------------------------------
# alternative suite: alternativity, alternation, the closed associator
# ---------------------------------------------------------------------------

def _scan_type2_closed(limit):
    """Associators of type-2 monomials with exponents < limit, exhaustively.

    Shows that the associator of the shipped product ``_mul_a_mono``
    equals :func:`type2_associator_closed` on every triple of the box
    ``a^i b^j c^k d^l`` (16.7M triples at limit 4), computing only the
    associators of (a,b)-monomials.  On type-2 times type-2 the product
    is H + C.  H, its type-2 part, is the Heisenberg product of the
    (a,b)-parts with the c- and d-exponents added on; for a^i b^j times
    a^p b^q its term h_mu sits on a^{i+p-mu} b^{j+q-mu} c^mu.  C, its
    type-1 part, has a rule: for x = a^i b^j d^l and y = a^p b^q d^s it
    is N/6 on a^{i+p-1} b^{j+q-1} d^{l+s-1} e, with N = ijs - ilq + 3jlp
    + 2jps - 2lpq; for x = a^i b^j d^l times y with one c, it is -l on
    a^{i+p} b^{j+q} d^{l+s-1} e; otherwise it is zero.  Type-1 monomials
    form a square-zero ideal, on which a type-2 monomial without c acts
    by concatenation and one with c by zero.  Three pieces (L = limit):

    1. every pair the associators reach has the product H + C, H read from
       the kernel's own product of the (a,b)-parts, with each term of at
       most one c in its place, and C from its rule, or, with a type-1
       factor, the concatenation rule: box x box, and box times every term
       of a box x box product on either side (1.59M pairs at L = 4, in
       one row claim per factor and (a,b)-part of the box factor, 99,392);
    2. T, the type-1 part of (xy)z - x(yz) that 1 implies, equals the
       closed form on every triple whose x has no c and whose y and z have
       at most one c between them (3 L^9 triples, in one row claim per
       (y, z) over every such x, 3 L^6);
    3. H is associative: the kernel's associator of any three
       (a,b)-monomials is zero (L^6, one claim per triple).  It is for
       every exponent: H's coefficients (-1)^mu mu! C(j,mu) C(p,mu) are
       the PBW structure constants of U(h), h = <a, b, c> the Heisenberg
       algebra with [a,b] = c, where b^j a^p = sum_mu h_mu a^{p-mu}
       b^{j-mu} c^mu and c is central.  U(h) is associative, so 3 checks
       the code that implements these constants, not the fact itself.

    T, term by term, for x = (i,j,0,l), y = (p,q,r,s) and z = (v,w,g,u).
    h0(x,y) and h1(x,y) are h_0 and h_1 read from the kernel's product of
    the (a,b)-parts of x and y (1 and -jp for the shipped product), x+y
    is the exponentwise sum, and N(x,y) is N above.  Each term applies
    one rule of 1 to one term of xy or yz, and all land on one monomial:

        r = g = 0, on a^{i+p+v-1} b^{j+q+w-1} d^{l+s+u-1} e:
          6T =   h0(x,y) N(x+y,z)   the h_0 term of xy times z: N rule
               + N(x,y)             C(x,y), N rule, concatenated with z
               - h0(y,z) N(x,y+z)   x times the h_0 term of yz: N rule
               - N(y,z)             x concatenated with C(y,z), N rule
               + 6 l h1(y,z)        x times the h_1 term of yz: -l rule
        r = 1, on a^{i+p+v} b^{j+q+w} d^{l+s+u-1} e:
           T = -l                   C(x,y), -l rule, concatenated with z
               + l h0(y,z)          x times the h_0 term of yz: -l rule
        g = 1, on the same monomial:
           T = -(l+s) h0(x,y)       the h_0 term of xy times z: -l rule
               + s                  x concatenated with C(y,z), -l rule
               + l h0(y,z)          x times the h_0 term of yz: -l rule

    Every other term has no type-1 part: by 1, H has no term with fewer
    than two c's off its place; C vanishes when its left factor has a c
    or its right factor two; and so does a type-1 factor times a factor
    with a c.  For the shipped product T is zero when r + g = 1.

    That proves the statement.  Given 1, the type-2 part of any associator
    is that of the (a,b)-parts shifted, zero by 3, and its type-1 part is
    T on the triples of 2 and zero outside them, where some factor has a
    c in the way of every C and every concatenation.  Outside the triples
    of 2 the closed form is zero too, as some factor has a c.
    """
    cells = list(product(range(limit), repeat=2))  # (a,b)- or (c,d)-exponents
    box = [(i, j, k, l, 0) for i, j in cells for k, l in cells]
    hs = {}  # H by pair of (a,b)-parts, filled on first use; 1 and 2 read it

    def heisenberg(u, v):
        # H on the (a,b)-parts u and v: the type-2 part of their product,
        # less any term with at most one c off its place a^{i+p-mu}
        # b^{j+q-mu} c^mu, which T does not read; so 1 fails on such a term
        if (u, v) not in hs:
            den, prod = _mul_a_mono((*u, 0, 0, 0), (*v, 0, 0, 0))
            hs[u, v] = den, {m: n for m, n in prod.items() if not m[4] and (
                m[2] > 1 or (m[0] + m[2], m[1] + m[2]) == (u[0] + v[0], u[1] + v[1]))}
        return hs[u, v]

    def correction(x, y):
        # N, the rule's C = N/6 when neither factor has a c
        i, j, _, l, _ = x
        p, q, _, s, _ = y
        return i * j * s - i * l * q + 3 * j * l * p + 2 * j * p * s - 2 * l * p * q

    def h_plus_c(x, y, hden, h):
        # H + C over six * hden, C by its rule: six is 6 when N fires
        i, j, k, l, _ = x
        p, q, r, s, _ = y
        n = 0 if k or r else correction(x, y)
        six = 6 if n else 1
        hc = {(m[0], m[1], m[2] + k + r, m[3] + l + s, 0): six * c for m, c in h.items()}
        if n:
            hc[(i + p - 1, j + q - 1, 0, l + s - 1, 1)] = n * hden
        elif not k and r == 1 and l:
            hc[(i + p, j + q, 0, l + s - 1, 1)] = -l * hden
        return _reduced(six * hden, hc)

    def concatenation(x, y):
        dead = x[4] and y[4] or x[2] or y[2]  # two type-1 factors, or a c
        return 1, {} if dead else {tuple(a + b for a, b in zip(x, y)): 1}

    def row(case):
        # one claim for a row of pairs: x against a list of box monomials
        # with one (a,b)-part, or such a list against y
        left, right = case
        pairs = [(left, m) for m in right] if type(right) is list else [(m, right) for m in left]
        u, v = pairs[0]
        prods = [_reduced(*_mul_a_mono(x, y)) for x, y in pairs]
        if u[4] or v[4]:  # a row holds one type only
            return "type-1 concatenation", case, {
                "product": prods, "concatenation": [concatenation(x, y) for x, y in pairs]}
        hden, h = heisenberg(u[:2], v[:2])
        return "H + C decomposition", case, {
            "product": prods, "H + C": [h_plus_c(x, y, hden, h) for x, y in pairs]}

    # 1: every product the associators reach, one row per (a,b)-part of the
    # box factor; the box rows' products are box x box, so they give the
    # monomials reached
    rows = [box[n:n + len(cells)] for n in range(0, len(box), len(cells))]
    reached = set()
    for x in box:
        for ys in rows:
            claim = row((x, ys))
            for _, terms in claim[2]["product"]:
                reached.update(terms)
            yield claim
    reached = sorted(reached.difference(box), key=term_key)
    for x in reached:
        for ys in rows:
            yield row((x, ys))
    for y in reached:
        for xs in rows:
            yield row((xs, y))

    # 2: T against the closed form, where a correction can fire, one row
    # claim per (y, z) over every x without c.  h0 and h1 of every pair of
    # (a,b)-parts, as integers over their least common denominator lcd (1
    # for the shipped product), so T = t / (6 lcd).
    ab_pairs = list(product(cells, repeat=2))
    lcd = math.lcm(*(heisenberg(u, v)[0] for u, v in ab_pairs))
    h01 = {}
    for u, v in ab_pairs:
        den, h = heisenberg(u, v)
        h01[u, v] = tuple(h.get((u[0] + v[0] - mu, u[1] + v[1] - mu, mu, 0, 0), 0) * (lcd // den)
                          for mu in (0, 1))
    nothing = (1, {})  # the zero entry
    free = [x for x in box if not x[2]]
    for y in (y for y in box if y[2] <= 1):
        p, q, r, s, _ = y
        xys = [(x, tuple(a + b for a, b in zip(x, y)), correction(x, y), h01[x[:2], y[:2]][0])
               for x in free]
        for z in (z for z in box if r + z[2] <= 1):
            v, w, g, u, _ = z
            yz = tuple(a + b for a, b in zip(y, z))
            n_yz = correction(y, z)
            h0_yz, h1_yz = h01[y[:2], z[:2]]
            shift = 0 if r + g else 1  # T lands on x a^A b^B d^D e
            A, B, D = p + v - shift, q + w - shift, s + u - 1
            rule = []
            for x, xy, n_xy, h0_xy in xys:
                l = x[3]
                if r:
                    t = 6 * l * (h0_yz - lcd)
                elif g:
                    t = 6 * (lcd * s + l * h0_yz - (l + s) * h0_xy)
                else:
                    t = (h0_xy * correction(xy, z) + lcd * n_xy
                         - h0_yz * correction(x, yz) - lcd * n_yz + 6 * l * h1_yz)
                rule.append(_reduced(6 * lcd, {(x[0] + A, x[1] + B, 0, l + D, 1): t}) if t
                            else nothing)
            yield "type-2 associator", (free, y, z), {
                "pair rule": rule,
                "closed form": [_entry(_type2_associator(x, y, z)) for x in free],
            }

    # 3: H is associative, through the kernel on the (a,b)-monomials
    ab = [(i, j, 0, 0, 0) for i, j in cells]
    el = {x: _amono(x) for x in ab}
    prods = {(x, y): AElement._make(*_mul_a_mono(x, y)) for x in ab for y in ab}
    zero = AElement.zero()
    for x, y, z in product(ab, repeat=3):
        yield "Heisenberg associativity", (x, y, z), {
            "associator": _bilinear(_mul_a_mono, (1, prods[x, y], el[z]), (-1, el[x], prods[y, z])),
            "zero": zero,
        }


def _check_alternative(max_degree, samples, seed):
    zero = AElement.zero()
    # the quotient kills its generators
    ab, d, bd, a2 = (1, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 1, 0), (2, 0, 0, 0, 0)
    for triple, frozen in (
        ((ab, ab, d), UElement({(0, 0, 1, 0, 1): Fraction(-1, 6)})),
        ((bd, bd, a2), UElement({(0, 0, 0, 0, 2): Fraction(1, 18)})),
    ):
        alternator = associator_u(*map(_umono, triple))
        yield "alternator", triple, {"associator": alternator, "frozen": frozen}
        # the public associator_a: the claims below read products from tables
        yield "alternator projection", triple, {
            "projection": project(alternator),
            "quotient associator": associator_a(*(project(_umono(m)) for m in triple)),
            "zero": zero,
        }

    # alternativity on seeded random elements
    rng = random.Random(seed)
    for _ in range(samples):
        x = _rand_a_element(rng)
        y = _rand_a_element(rng)
        yield "alternativity", (x, y), {
            "(x,x,y)": associator_a(x, x, y), "(y,x,x)": associator_a(y, x, x), "zero": zero
        }

    # the associators of monomials below read each inner product from one
    # table, filled on first use: one _bilinear per associator
    prods = {}

    def associator(sign, x, y, z):
        for pair in (x, y), (y, z):
            if pair not in prods:
                prods[pair] = AElement._make(*_mul_a_mono(*pair))
        return _bilinear(_mul_a_mono, (sign, prods[x, y], _amono(z)), (-sign, _amono(x), prods[y, z]))

    # any type-1 slot kills the associator (small exhaustive scan)
    t1 = [(i, j, 0, l, 1) for i, j, l in product((0, 1), repeat=3)]
    t2 = [(i, j, k, l, 0) for i, j, k, l in product((0, 1), repeat=4)]
    quotient = t1 + t2
    for m1 in t1:
        for m2 in quotient:
            for m3 in quotient:
                for triple in ((m1, m2, m3), (m2, m1, m3), (m2, m3, m1)):
                    yield "type-1 slot", triple, {"associator": associator(1, *triple), "zero": zero}

    # alternation: sign flips under each transposition.  On t2 every
    # associator is computed once, into a table by position in t2 (nested
    # lists: tuple keys took 0.45 MB against 0.07) that holds each zero one
    # as the suite's zero, and each claim reads four of them
    table = [[[associator(1, x, y, z) or zero for z in t2] for y in t2] for x in t2]
    for (i, x), (j, y), (k, z) in product(enumerate(t2), repeat=3):
        yield "alternation", (x, y, z), {
            "(x,y,z)": table[i][j][k],
            "-(y,x,z)": -table[j][i][k],
            "-(x,z,y)": -table[i][k][j],
            "-(z,y,x)": -table[k][j][i],
        }
    del table  # free before the scan, which does not read it

    def alternation(m1, m2, m3):
        return "alternation", (m1, m2, m3), {
            "(x,y,z)": associator(1, m1, m2, m3),
            "-(y,x,z)": associator(-1, m2, m1, m3),
            "-(x,z,y)": associator(-1, m1, m3, m2),
            "-(z,y,x)": associator(-1, m3, m2, m1),
        }

    rng = random.Random(seed + 1)
    for _ in range(samples):
        prods.clear()  # a seeded triple's products serve its own claim only
        yield alternation(*(
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), 0)
            for _ in range(3)))
    prods.clear()

    # the closed form, exhaustively (exponents <= 3 at the default degree)
    yield from _scan_type2_closed(limit=max(2, min(max_degree - 1, 4)))


def _check_special(max_degree, samples, seed):
    # the quotient map is injective on the base algebra ...
    for ch in LETTERS:
        yield "letter outside the alternator ideal", (ch,), {
            "in ideal": in_ideal_j(letter_monomial(ch)), "expected": False
        }
    # ... and the quotient's commutator restricts to the defining brackets,
    # so the base algebra is a subalgebra of the commutator algebra of an
    # alternative algebra
    for chx in LETTERS:
        x, vx = AElement.from_letter(chx), MalcevVector.basis(chx)
        for chy in LETTERS:
            y = AElement.from_letter(chy)
            yield "quotient commutator", (chx, chy), {
                "[x,y]": bracket_a(x, y),
                "base bracket": project(embed(bracket_m(vx, MalcevVector.basis(chy)))),
            }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SUITES = {
    "oracle": _check_oracle,
    "operators": _check_operators,
    "nucleus": _check_nucleus,
    "malcev": _check_malcev,
    "alternative": _check_alternative,
    "homomorphism": _check_homomorphism,
    "special": _check_special,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, max_degree=5, samples=1000, seed=0) -> CheckReport:
    """Run one named suite and report the outcome with wall-clock timing."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown check suite {name!r}; expected one of {SUITE_NAMES}") from None
    if not _are_exponents((max_degree, samples)):
        raise ValueError(
            f"max_degree and samples must be nonnegative integers, got "
            f"max_degree={max_degree!r}, samples={samples!r}"
        )
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    start = time.perf_counter()
    counterexample = _compare(fn(max_degree, samples, seed))
    duration = time.perf_counter() - start
    return CheckReport(name, max_degree, samples, seed, passed=counterexample is None,
                       counterexample=counterexample, duration=duration)


def run_all(max_degree=5, samples=1000, seed=0):
    """Run every suite in the canonical order."""
    return [run_suite(name, max_degree, samples, seed) for name in SUITE_NAMES]
