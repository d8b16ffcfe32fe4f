"""Products, brackets, and associators of the enveloping algebra.

Two independent multiplication routes live here and must agree everywhere:

* :func:`mul_u_closed` -- the closed structure-constant kernel, a five-index
  integer sum: the left-multiplication operator of :mod:`malcev5.diffops` on
  a basis monomial, with four of the nine sums of its word expansion closed;
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
    _check_monomial,
    _letter_index,
    _merge,
    _pruned,
    _reduced,
    _scaled,
    binomial,
    clear_memos,  # re-exported: envelope.clear_memos stays importable
    memoized,
)


# ---------------------------------------------------------------------------
# closed-form route
# ---------------------------------------------------------------------------

@memoized
def _beta_row(i: int, p: int, alpha: int, d: int) -> list:
    # B(N, P) = sum_beta (-1)^beta perm(i,beta) perm(p,P-beta) sum_gamma (-1)^gamma
    # C(N,gamma) 2^(i-gamma) C(alpha,beta-gamma) at P = N + d, by N while P <= p + i
    comb, perm = math.comb, math.perm
    return [sum(
        (-1) ** beta * perm(i, beta) * perm(p, n + d - beta) * sum(
            (-1) ** gamma * comb(n, gamma) * 2 ** (i - gamma) * comb(alpha, beta - gamma)
            for gamma in range(max(0, beta - alpha), min(beta, n) + 1))
        for beta in range(max(0, n + d - p), min(i, n + d) + 1)
    ) for n in range(p + i - d + 1)]


def mul_u_closed(x: Monomial, y: Monomial) -> UElement:
    """Product of two basis monomials from the universal structure constants.

    With ``la = l-alpha``, ``rem_j = j-alpha-eps-zeta``, ``rest = la-eta``
    and ``n2 = rest-theta``, the term of ``(alpha, eps, zeta, eta, n2)`` for
    ``x = (i,j,k,l,m)`` and ``y = (p,q,r,s,t)`` lands on ``(p+i-j+U, q+U,
    r+k+V, s+W, l+m+t-W)``, where ``U = eps-n2``, ``V = zeta-rest+n2`` and
    ``W = U+V+l-j``, with numerator over ``2^(l+i) 3^(j+l)`` (reduced once)

        alpha! C(j,alpha) C(l,alpha) 3^alpha (-2)^la C(j-alpha,eps) 3^eps
        C(j-alpha-eps,zeta) (-3)^zeta C(la,eta) (-3)^eta perm(s+eta,rem_j)
        C(la-eta,theta) perm(r,theta) 3^theta perm(q,n2) B(rem_j+n2, j-eps+n2)

    and ``B`` the beta and gamma sum of ``_beta_row``.  This is the
    nine-index sum (alpha..theta, lam) of the closed left-multiplication
    operator on ``y`` with the four sums the monomial does not see closed.
    Over lam, ``sum lam! C(rem_j,lam) C(eta,lam) perm(s,rem_j-lam) =
    perm(s+eta,rem_j)`` (Vandermonde for falling factorials).  Regrouped
    multinomials leave ``C(rem_j,delta) C(n2,gamma-delta)``, whose sum over
    delta is ``C(rem_j+n2,gamma)`` (Chu-Vandermonde).  Bounds: ``eta >=
    rem_j-s``, ``max(0, rest-r) <= n2 <= min(rest, q)`` and ``N <=
    p+i-alpha-zeta``; ``_beta_row(i, p, alpha, alpha+zeta)`` holds B by N.

    The terms sum under one ``int`` index for ``(U, V)``, so each monomial
    is built once.  Two rows per call, built on first use and holding only
    nonzero weights, give ``(n2, C(rest,n2) perm(r,theta) 3^theta
    perm(q,n2))`` by ``rest`` and ``(rest, C(la,eta) (-3)^eta
    perm(s+eta,rem_j))`` by ``(alpha, rem_j)``.
    """
    _check_monomial(x)
    _check_monomial(y)
    return UElement._make(*_closed_terms(x, y))


@memoized
def _closed_terms(x: Monomial, y: Monomial) -> tuple:
    """``(den, numerators)`` of :func:`mul_u_closed` on validated monomials."""
    if x == ONE:
        return 1, {y: 1}
    if y == ONE:
        return 1, {x: 1}

    i, j, k, l, m = x
    p, q, r, s, t = y
    comb, perm = math.comb, math.perm
    K = (2 ** (l + i)) * 3 ** (j + l)
    # (U, V) is the index (U+q)*width + V+l; n2+1 moves it by -step, which masks V+l
    sh = (j + l).bit_length()
    width = 1 << sh
    step = width - 1
    n2_rows: list = [None] * (l + 1)  # by rest
    acc: dict = {}

    for alpha in range(min(j, l) + 1):
        la = l - alpha
        w_a = perm(j, alpha) * comb(l, alpha) * 3 ** alpha * (-2) ** la
        eta_rows: list = [None] * (j - alpha + 1)  # by rem_j
        for eps in range(j - alpha + 1):
            w_e = w_a * comb(j - alpha, eps) * 3 ** eps
            for zeta in range(j - alpha - eps + 1):
                rem_j = j - alpha - eps - zeta
                row = _beta_row(i, p, alpha, alpha + zeta)
                n2_hi = len(row) - 1 - rem_j  # past it B is zero
                if n2_hi < 0:
                    continue
                w_z = w_e * comb(j - alpha - eps, zeta) * (-3) ** zeta
                eta_row = eta_rows[rem_j]
                if eta_row is None:
                    eta_row = eta_rows[rem_j] = []
                    for eta in range(max(0, rem_j - s), la + 1):
                        rest = la - eta
                        if n2_rows[rest] is None:
                            n2_rows[rest] = [(n2, comb(rest, n2) * perm(q, n2) * perm(r, rest - n2)
                                              * 3 ** (rest - n2))
                                             for n2 in range(max(0, rest - r), min(rest, q) + 1)]
                        w_eta = comb(la, eta) * (-3) ** eta * perm(s + eta, rem_j)
                        eta_row.append((rest, w_eta, n2_rows[rest]))
                base = (eps + q) * width + zeta + l
                for rest, w_eta, n2_row in eta_row:
                    w_n = w_z * w_eta
                    key = base - rest
                    for n2, w_2 in n2_row:
                        if n2 > n2_hi:
                            break
                        idx = key - n2 * step
                        acc[idx] = acc.get(idx, 0) + w_n * w_2 * row[rem_j + n2]
    # U+q = u and V+l = v: A = p+i-j-q+u, B = u, C = r+k-l+v, W = u+v-q-j
    a0, c0, w0 = p + i - j - q, r + k - l, q + j
    out = {}
    for idx, w in _pruned(acc).items():
        u, v = idx >> sh, idx & step
        out[(a0 + u, u, c0 + v, s - w0 + u + v, l + m + t + w0 - u - v)] = w
    return _reduced(K, out)


def mul_u(x: UElement, y: UElement) -> UElement:
    """Bilinear product on the enveloping algebra (closed-form kernel)."""
    return _bilinear(_closed_terms, (1, x, y))


def mul_cde_closed(x: Monomial, y: Monomial) -> UElement:
    """Product of two monomials of the associative subalgebra on c, d, e.

    ``(c^i d^j e^k)(c^l d^m e^n)`` expands over a single contraction index.
    Only defined on monomials with no a or b part (raises otherwise); used
    as a small independent oracle for :func:`mul_u_closed` on that corner.
    """
    _check_monomial(x)
    _check_monomial(y)
    if x[0] or x[1] or y[0] or y[1]:
        raise ValueError("mul_cde_closed is only defined on monomials in c, d, e")
    _, _, i, j, k = x
    _, _, l, m, n = y
    out = {}
    for alpha in range(min(j, l) + 1):
        coeff = (-1) ** alpha * math.factorial(alpha) * binomial(j, alpha) * binomial(l, alpha)
        out[(0, 0, i + l - alpha, j + m - alpha, k + n + alpha)] = coeff
    return UElement._make(1, out)


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


@memoized
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
    return _pruned(out)


@memoized
def _bracket_mono(x, f):
    """``[x, f]`` for a monomial ``x`` and generator index ``f`` (term dict)."""
    if x == ONE:
        return {}
    g = _leading(x)
    y = _strip(x, g)
    if y == ONE:
        return _B1.get((g, f), {})
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
    return _pruned(out)


@memoized
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
    return _pruned(out)


def mul_u_oracle(x: UElement, y: UElement) -> UElement:
    """Bilinear product evaluated purely by the degree-lowering recursions.

    Independent of the closed form and of the operator realization; this is
    the route the others are checked against.
    """
    try:
        return _bilinear(lambda kx, ky: _scaled(_mul_mono(kx, ky)), (1, x, y))
    except RecursionError as exc:
        raise ComputationError(
            "recursive product evaluation exhausted the recursion limit; "
            "use mul_u (closed form) for inputs this large"
        ) from exc


def bracket_u_oracle(x: UElement, letter: str) -> UElement:
    """``[x, v]`` for a generator letter ``v``, by the bracket recursion."""
    f = _letter_index(letter)
    try:
        return UElement._make(*_scaled(_pruned(_bracket_dict(x.terms, f))))
    except RecursionError as exc:
        raise ComputationError("bracket recursion exhausted the recursion limit") from exc


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def bracket_u(x: UElement, y: UElement) -> UElement:
    """Commutator ``xy - yx``."""
    return _bilinear(_closed_terms, (1, x, y), (-1, y, x))


def associator_u(x: UElement, y: UElement, z: UElement) -> UElement:
    """Associator ``(xy)z - x(yz)``."""
    return _bilinear(_closed_terms, (1, mul_u(x, y), z), (-1, x, mul_u(y, z)))


def jacobian_u(x: UElement, y: UElement, z: UElement) -> UElement:
    """J(x,y,z) = [[x,y],z] + [[y,z],x] + [[z,x],y] on the enveloping algebra."""
    xy, yz, zx = bracket_u(x, y), bracket_u(y, z), bracket_u(z, x)
    pairs = ((1, xy, z), (-1, z, xy), (1, yz, x), (-1, x, yz), (1, zx, y), (-1, y, zx))
    return _bilinear(_closed_terms, *pairs)


def embed(v: MalcevVector) -> UElement:
    """The canonical embedding of the base algebra (degree-1 elements)."""
    return v.u_element()
