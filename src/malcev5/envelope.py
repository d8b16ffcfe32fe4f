"""Products, brackets, and associators of the enveloping algebra.

Two independent multiplication routes live here and must agree everywhere:

* :func:`mul_u_closed` -- the closed structure-constant kernel, a nine-index
  integer sum obtained by letting the closed left-multiplication operator of
  :mod:`malcev5.diffops` act on a basis monomial;
* :func:`mul_u_oracle` -- a recursive evaluator that knows nothing about
  operators or closed sums.  It reduces every product to the degree-lowering
  identities forced by the defining brackets: a bracket recursion that peels
  the smallest letter off the left factor of ``[x, f]``, a left-multiplication
  recursion for ``f * x`` with a single generator on the left, and a
  generator-peeling identity for general products.

The recursion is the ground truth the closed form is tested against; the
closed form (memoized) is what everything else uses.  ``check oracle``
compares the two, together with the operator route, over a full degree range.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    ONE,
    ComputationError,
    MalcevVector,
    Monomial,
    UElement,
    _UNIT,
    _bilinear,
    _letter_index,
    _merge,
    _pruned,
    binomial,
    clear_memos,  # re-exported: envelope.clear_memos stays importable
    memo_table,
)

_CLOSED_MEMO = memo_table()
_LAM_ROWS = memo_table()
_THETA_ROWS = memo_table()
_PERM_ROWS = memo_table()
_LMUL_MEMO = memo_table()
_BRACKET_MEMO = memo_table()
_MUL_MEMO = memo_table()


# ---------------------------------------------------------------------------
# closed-form route
# ---------------------------------------------------------------------------

def _lam_row(rem_j: int, s: int, y_cap: int) -> list:
    # by eta: the contraction sum over lam, times C(y_cap, eta) (-3)^eta
    comb, fact, perm = math.comb, math.factorial, math.perm
    return [
        comb(y_cap, eta) * (-3) ** eta * sum(
            fact(lam) * comb(rem_j, lam) * comb(eta, lam) * perm(s, rem_j - lam)
            for lam in range(max(0, rem_j - s), min(eta, rem_j) + 1)
        )
        for eta in range(y_cap + 1)
    ]


def mul_u_closed(x: Monomial, y: Monomial) -> UElement:
    """Product of two basis monomials from the universal structure constants.

    The nine indices run over exactly the tuples whose weight is nonzero
    (every bound is pruned, including through the falling factorials applied
    to the right factor).  Each factor enters at the loop level where it is
    fixed: the multinomials of ``j`` and ``l`` split into one binomial per
    index (``alpha! C(j, alpha) C(l, alpha)`` per alpha), and each power of
    2, 3 and -1 follows its index.  Memo tables shared by all calls and
    filled on first use hold the rest:

    * ``_LAM_ROWS[(rem_j, s, y_cap)]``, once per ``(eps, zeta)``: by eta,
      the contraction sum over lam times ``C(y_cap, eta) (-3)^eta``;
    * ``_THETA_ROWS[(rest, w, q, r)]``, once per eta: by theta,
      ``C(rest, theta) perm(r, theta) perm(q, w-theta) 3^theta``;
    * ``_PERM_ROWS[p]``, once per call: ``perm(p, da)`` by ``da``.

    The output monomial is a base tuple shifted by theta (a and b by
    ``+theta``, c by ``-theta``).  Integer numerators accumulate over
    ``2^(l+i) 3^(j+l)``; the result is reduced once per output monomial.
    """
    cached = _CLOSED_MEMO.get((x, y))
    if cached is not None:
        return cached
    if x == ONE:
        out = _CLOSED_MEMO[(x, y)] = UElement._make({y: 1})
        return out
    if y == ONE:
        out = _CLOSED_MEMO[(x, y)] = UElement._make({x: 1})
        return out

    i, j, k, l, m = x
    p, q, r, s, t = y
    comb, perm = math.comb, math.perm
    # pp[d] = perm(p, d); rows are never empty, so only a miss is falsy
    pp = _PERM_ROWS.get(p) or _PERM_ROWS.setdefault(p, [perm(p, d) for d in range(p + 1)])
    K = (2 ** (l + i)) * 3 ** (j + l)
    acc: dict = {}

    for alpha in range(min(j, l) + 1):
        la = l - alpha
        w_a = math.factorial(alpha) * comb(j, alpha) * comb(l, alpha) * 3 ** alpha
        for beta in range(i + 1):
            w_b = w_a * perm(i, beta)
            for gamma in range(max(0, beta - alpha), beta + 1):
                sign = -1 if (beta + la - gamma) & 1 else 1
                w_g = sign * w_b * comb(alpha, beta - gamma) * 2 ** (l + i - alpha - gamma)
                for delta in range(max(0, alpha + gamma - l), min(gamma, j - alpha) + 1):
                    u_cap = j - alpha - delta
                    gd = gamma - delta
                    y_cap = la - gd
                    w_d = w_g * comb(j - alpha, delta) * comb(la, gd)
                    for eps in range(u_cap + 1):
                        c0 = j - beta - eps
                        cap = min(q, p - c0)  # theta >= w - cap keeps db <= q, da <= p
                        if gd > cap:
                            continue
                        x_lo = la - cap  # theta >= x_lo - eta
                        w_e = w_d * comb(u_cap, eps) * 3 ** eps
                        a_base = p - c0 + i - beta - la
                        b_base = q + eps - la
                        for zeta in range(u_cap - eps + 1):
                            rem_j = j - alpha - eps - zeta
                            key = (rem_j, s, y_cap)
                            lams = _LAM_ROWS.get(key) or _LAM_ROWS.setdefault(key, _lam_row(*key))
                            w_z = w_e * comb(u_cap - eps, zeta) * (-3) ** zeta
                            c_base = r + zeta + k
                            for eta in range(max(0, rem_j - s, x_lo - r), y_cap + 1):
                                w = la - eta
                                rest = y_cap - eta
                                key = (rest, w, q, r)
                                h_row = _THETA_ROWS.get(key) or _THETA_ROWS.setdefault(key, [
                                    comb(rest, th) * perm(r, th) * perm(q, w - th) * 3 ** th
                                    for th in range(min(rest, r) + 1)
                                ])
                                w_n = w_z * lams[eta]
                                da = c0 + w  # a-exponent taken from y at theta = 0
                                a0 = a_base + eta
                                b0 = b_base + eta
                                ed = s - rem_j + eta
                                em = rem_j + l + m + t - eta
                                th_lo = x_lo - eta if x_lo > eta else 0
                                for th in range(th_lo, (rest if rest < r else r) + 1):
                                    mono = (a0 + th, b0 + th, c_base - th, ed, em)
                                    acc[mono] = acc.get(mono, 0) + w_n * h_row[th] * pp[da - th]
    out = _CLOSED_MEMO[(x, y)] = UElement._make(
        {mono: Fraction(num, K) for mono, num in acc.items() if num}
    )
    return out


def _closed_terms(x: Monomial, y: Monomial) -> dict:
    return mul_u_closed(x, y).terms


def mul_u(x: UElement, y: UElement) -> UElement:
    """Bilinear product on the enveloping algebra (closed-form kernel)."""
    return UElement._make(_bilinear(x.terms, y.terms, _closed_terms))


def mul_cde_closed(x: Monomial, y: Monomial) -> UElement:
    """Product of two monomials of the associative subalgebra on c, d, e.

    ``(c^i d^j e^k)(c^l d^m e^n)`` expands over a single contraction index.
    Only defined on monomials with no a or b part (raises otherwise); used
    as a small independent oracle for :func:`mul_u_closed` on that corner.
    """
    if x[0] or x[1] or y[0] or y[1]:
        raise ValueError("mul_cde_closed is only defined on monomials in c, d, e")
    _, _, i, j, k = x
    _, _, l, m, n = y
    out = {}
    for alpha in range(min(j, l) + 1):
        coeff = (-1) ** alpha * math.factorial(alpha) * binomial(j, alpha) * binomial(l, alpha)
        out[(0, 0, i + l - alpha, j + m - alpha, k + n + alpha)] = coeff
    return UElement._make(out)


# ---------------------------------------------------------------------------
# recursive oracle route
# ---------------------------------------------------------------------------

# degree-1 bracket table, by letter index: _B1[(v, w)] = [v, w] as a term dict
_C = (0, 0, 1, 0, 0)
_E = (0, 0, 0, 0, 1)
_B1 = {
    (0, 1): {_C: 1},
    (1, 0): {_C: -1},
    (2, 3): {_E: 1},
    (3, 2): {_E: -1},
}


def _leading(mono):
    # index of the smallest letter present; monomials here are never empty
    for v in range(5):
        if mono[v]:
            return v
    raise ValueError("empty monomial has no leading letter")


def _strip(mono, v):
    return mono[:v] + (mono[v] - 1,) + mono[v + 1:]


def _prepended(v, mono):
    return mono[:v] + (mono[v] + 1,) + mono[v + 1:]


def _bracket_dict(d, f):
    out: dict = {}
    for mono, coeff in d.items():
        _merge(out, _bracket_mono(mono, f), coeff)
    return out


def _lmul_letter(f, x):
    """``f * x`` for a generator index ``f`` and monomial ``x`` (term dict).

    Fast path: when ``f`` does not exceed the smallest letter of ``x`` the
    product is the ordered monomial itself.  Otherwise the degree-lowering
    left-multiplication identity applies; the recursion peels the smallest
    letter ``g`` of ``x`` and every sub-product either shrinks the right
    factor or is an ordered prepend.
    """
    if x == ONE:
        return {_UNIT[f]: 1}
    g = _leading(x)
    if f <= g:
        return {_prepended(f, x): 1}
    key = (f, x)
    cached = _LMUL_MEMO.get(key)
    if cached is not None:
        return cached
    y = _strip(x, g)
    out: dict = {}
    if y == ONE:
        # f * g with f > g: reorder plus the degree-1 bracket
        out[_prepended(g, _UNIT[f])] = 1
        _merge(out, _B1.get((f, g), {}), 1)
    else:
        # g (f y)
        for mono, coeff in _lmul_letter(f, y).items():
            _merge(out, _lmul_letter(g, mono), coeff)
        # + [f,g] y
        for w, coeff in _B1.get((f, g), {}).items():
            _merge(out, _lmul_letter(_leading(w), y), coeff)
        byf = _bracket_mono(y, f)
        byg = _bracket_mono(y, g)
        third = Fraction(1, 3)
        # - 1/3 [[y,f],g] + 1/3 [[y,g],f]
        _merge(out, _bracket_dict(byf, g), -third)
        _merge(out, _bracket_dict(byg, f), third)
        # + 1/3 [y,[f,g]]
        for w, coeff in _B1.get((f, g), {}).items():
            _merge(out, _bracket_mono(y, _leading(w)), third * coeff)
    out = _LMUL_MEMO[key] = _pruned(out)
    return out


def _bracket_mono(x, f):
    """``[x, f]`` for a monomial ``x`` and generator index ``f`` (term dict)."""
    if x == ONE:
        return {}
    g = _leading(x)
    y = _strip(x, g)
    if y == ONE:
        return _B1.get((g, f), {})
    key = (x, f)
    cached = _BRACKET_MEMO.get(key)
    if cached is not None:
        return cached
    out: dict = {}
    # [g,f] y
    for w, coeff in _B1.get((g, f), {}).items():
        _merge(out, _lmul_letter(_leading(w), y), coeff)
    # + g [y,f]
    byf = _bracket_mono(y, f)
    for mono, coeff in byf.items():
        _merge(out, _lmul_letter(g, mono), coeff)
    half = Fraction(1, 2)
    # + 1/2 [[y,f],g] - 1/2 [[y,g],f]
    _merge(out, _bracket_dict(byf, g), half)
    _merge(out, _bracket_dict(_bracket_mono(y, g), f), -half)
    # - 1/2 [y,[f,g]]
    for w, coeff in _B1.get((f, g), {}).items():
        _merge(out, _bracket_mono(y, _leading(w)), -half * coeff)
    out = _BRACKET_MEMO[key] = _pruned(out)
    return out


def _mul_mono(x, z):
    """``x * z`` for basis monomials, by the generator-peeling recursion."""
    if x == ONE:
        return {z: 1}
    if z == ONE:
        return {x: 1}
    f = _leading(x)
    xt = _strip(x, f)
    if xt == ONE:
        return _lmul_letter(f, z)
    key = (x, z)
    cached = _MUL_MEMO.get(key)
    if cached is not None:
        return cached
    out: dict = {}
    xz = _mul_mono(xt, z)
    for mono, coeff in xz.items():
        # 2 f (xt z)  and  + [xt z, f]
        _merge(out, _lmul_letter(f, mono), 2 * coeff)
        _merge(out, _bracket_mono(mono, f), coeff)
    # - xt (f z)
    for mono, coeff in _lmul_letter(f, z).items():
        _merge(out, _mul_mono(xt, mono), -coeff)
    # - xt [z, f]
    for mono, coeff in _bracket_mono(z, f).items():
        _merge(out, _mul_mono(xt, mono), -coeff)
    out = _MUL_MEMO[key] = _pruned(out)
    return out


def mul_u_oracle(x: UElement, y: UElement) -> UElement:
    """Bilinear product evaluated purely by the degree-lowering recursions.

    Independent of the closed form and of the operator realization; this is
    the route the others are checked against.
    """
    try:
        return UElement._make(_bilinear(x.terms, y.terms, _mul_mono))
    except RecursionError as exc:
        raise ComputationError(
            "recursive product evaluation exhausted the recursion limit; "
            "use mul_u (closed form) for inputs this large"
        ) from exc


def bracket_u_oracle(x: UElement, letter: str) -> UElement:
    """``[x, v]`` for a generator letter ``v``, by the bracket recursion."""
    f = _letter_index(letter)
    try:
        return UElement._make(_pruned(_bracket_dict(x.terms, f)))
    except RecursionError as exc:
        raise ComputationError("bracket recursion exhausted the recursion limit") from exc


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def bracket_u(x: UElement, y: UElement) -> UElement:
    """Commutator ``xy - yx``."""
    return mul_u(x, y) - mul_u(y, x)


def associator_u(x: UElement, y: UElement, z: UElement) -> UElement:
    """Associator ``(xy)z - x(yz)``."""
    return mul_u(mul_u(x, y), z) - mul_u(x, mul_u(y, z))


def jacobian_u(x: UElement, y: UElement, z: UElement) -> UElement:
    """J(x,y,z) = [[x,y],z] + [[y,z],x] + [[z,x],y] on the enveloping algebra."""
    return (
        bracket_u(bracket_u(x, y), z)
        + bracket_u(bracket_u(y, z), x)
        + bracket_u(bracket_u(z, x), y)
    )


def embed(v: MalcevVector) -> UElement:
    """The canonical embedding of the base algebra (degree-1 elements)."""
    return v.u_element()
