"""Products, brackets, and associators of the enveloping algebra.

Two independent multiplication routes live here and must agree everywhere:

* :func:`mul_u_closed` -- the closed structure-constant kernel, a five-index
  integer sum: the left-multiplication operator of :mod:`malcev5.diffops` on
  a basis monomial, with four of the nine sums of its word expansion closed;
* :func:`mul_u_oracle` -- a recursive evaluator that knows nothing about
  operators or closed sums.  It reduces every product to three
  degree-lowering identities forced by the defining brackets, each written
  once as a table of terms: ``_LMUL_IDENTITY`` (``f * x`` for a generator
  ``f``), ``_BRACKET_IDENTITY`` (``[x, f]``) and ``_MUL_IDENTITY`` (a
  general product, peeling a generator off its left factor).  It reads the
  brackets from ``core._BRACKETS``, which :func:`~malcev5.core.bracket_m`
  extends and the other two routes never read.  Each recursion returns
  ``(den, numerators)`` like every kernel, and one step, ``_evaluate``, sums
  any table's rows, each one :func:`~malcev5.core._sum_into` over memoized
  sub-results.  An empty or one-term result is one shared object,
  ``_EMPTY`` or an entry of ``_one_term``, so the three memo tables hold no
  copies of the many that repeat.  The public products evaluate their own
  pairs through the unmemoized bodies, so the tables keep only the
  sub-results the recursion reads back.  The tests evaluate the same tables
  on closed products.

The recursion is the ground truth the closed form is tested against; the
closed form is what everything else uses.  ``check oracle`` compares the
two, together with the operator route, over a full degree range.

The closed form obeys a shift law, stated in ``_closed_terms``: its memo
holds one sum per shift class, packed as two tuples of ints, and every pair
decodes its own output from it.
"""

from __future__ import annotations

import math

from .core import (
    ONE,
    ComputationError,
    MalcevVector,
    Monomial,
    UElement,
    _BRACKETS,
    _bilinear,
    _check_monomial,
    _expect,
    _letter_index,
    _pruned,
    _reduced,
    _sum_into,
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

    and ``B`` the beta and gamma sum of ``_beta_row``.  This is
    :func:`~malcev5.diffops.l_of_monomial` applied to ``y``, a nine-index
    sum: its four-index expansion (alpha..delta) into standard words, the
    trinomial expansions of the powers of ``L(b)`` (eps, zeta) and ``L(d)``
    (eta, theta), and lam, the contraction of ``D_d`` past ``M_d`` when a
    word is composed.  The four sums the monomial does not see are closed.
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

    ``k``, ``m`` and ``t`` only shift the output; ``_closed_terms`` states
    the shift law and memoizes one sum per shift class.
    """
    _check_monomial(x)
    _check_monomial(y)
    return UElement._make(*_closed_terms(x, y))


def _closed_terms(x: Monomial, y: Monomial) -> tuple:
    """``(den, numerators)`` of :func:`mul_u_closed` on validated monomials.

    The kernel every closed-form product calls, itself unmemoized.  The
    shift law: ``K``, every weight, every bound and ``_beta_row`` read
    ``i, j, l, p, q, r, s`` alone, ``k`` enters only the c-exponent
    ``r+k-l+v`` and ``m+t`` only the e-exponent ``l+m+t+q+j-u-v``.  So
    ``x y`` is ``(i,j,0,l,0) (p,q,r,s,0)``, the shift class's sum from
    ``_closed_class``, with ``k`` added to every c-exponent and ``m+t`` to
    every e-exponent.  Every call decodes the class's packed entry into a
    new dict, in the entry's order, adding the shift as it builds each
    monomial, so no caller can reach the cached entry.  An unshifted pair
    is its own representative, and its tuples are the memo key: the table
    then holds no copy of them.

    Every term has the multidegree ``md(x) + md(y)``, where
    ``md(a^i b^j c^k d^l e^m) = (i+k+m, j+k+m, l+m)``, and a term's index
    ``(u, v)`` is its two free coordinates in that multidegree class.
    """
    i, j, k, l, m = x
    p, q, r, s, t = y
    if k or m or t:
        x, y = (i, j, 0, l, 0), (p, q, r, s, 0)
    den, sh, idxs, nums = _closed_class(x, y)
    # index (u, v) is the monomial (a0+u, u, c0+v, d0+u+v, e0-u-v)
    step = (1 << sh) - 1
    a0, c0, d0, e0 = p + i - j - q, r + k - l, s - q - j, l + m + t + q + j
    out = {}
    for idx, n in zip(idxs, nums):
        u = idx >> sh
        v = idx & step
        w = u + v
        out[(a0 + u, u, c0 + v, d0 + w, e0 - w)] = n
    return den, out


@memoized
def _closed_class(x: Monomial, y: Monomial) -> tuple:
    """The five-index sum of :func:`mul_u_closed`, memoized by shift class.

    Takes only a class's representative: ``x = (i,j,0,l,0)`` and
    ``y = (p,q,r,s,0)``, as :func:`_closed_terms` passes them.  Returns the
    reduced sum packed as ``(den, sh, idxs, nums)``: the term of ``(U, V)``
    sits at index ``(U+q) << sh | V+l`` in the tuple ``idxs``, its numerator
    at the same place in ``nums``, in the order the sum first reached it.
    Two tuples of ints hold no monomial, so the table keeps no 5-tuple.
    """
    i, j, _, l, _ = x
    p, q, r, s, _ = y
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
    den, num = _reduced(K, _pruned(acc))
    return den, sh, tuple(num), tuple(num.values())


def mul_u(x: UElement, y: UElement) -> UElement:
    """Bilinear product on the enveloping algebra (closed-form kernel)."""
    _expect(UElement, x, y)
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

#: the oracle's empty result, one object for every key that has it
_EMPTY = (1, {})


@memoized
def _one_term(den: int, mono: Monomial, n: int) -> tuple:
    """``(den, {mono: n})``, one object per value: the oracle's one-term results.

    Most of the oracle's results have at most one term and repeat across
    keys, so each recursion returns the shared object, and its memo tables
    hold references instead of copies.  The closed kernel and the operator
    route never read this table.
    """
    return den, {mono: n}


def _leading(mono):
    # index of the smallest letter present; 5, past every letter, for the unit
    for v in range(5):
        if mono[v]:
            return v
    return 5


def _strip(mono, v):
    return mono[:v] + (mono[v] - 1,) + mono[v + 1:]


def _prepended(v, mono):
    return mono[:v] + (mono[v] + 1,) + mono[v + 1:]


#: ``f x`` for a letter ``f`` above the smallest letter ``g`` of ``x = g y``:
#: ``g (f y) + [f,g] y - 1/3 [[y,f],g] + 1/3 [[y,g],f] + 1/3 [y,[f,g]]``.
#: A row ``(sign, den, left, product, right)`` is the term ``sign/den`` times
#: ``left right`` ("lmul" with ``left`` of degree 1, "mul") or ``[right, left]``
#: ("bracket"); the operands are named as in the formula, and each recursion
#: resolves the names through its own memoized sub-results.
_LMUL_IDENTITY = (
    (1, 1, "g", "lmul", "f y"),
    (1, 1, "[f,g]", "lmul", "y"),
    (-1, 3, "g", "bracket", "[y,f]"),
    (1, 3, "f", "bracket", "[y,g]"),
    (1, 3, "[f,g]", "bracket", "y"),
)

#: ``[x, f]`` for a letter ``f`` and ``x = g y``, ``g`` its smallest letter:
#: ``-[f,g] y + g [y,f] + 1/2 [[y,f],g] - 1/2 [[y,g],f] - 1/2 [y,[f,g]]``.
_BRACKET_IDENTITY = (
    (-1, 1, "[f,g]", "lmul", "y"),
    (1, 1, "g", "lmul", "[y,f]"),
    (1, 2, "g", "bracket", "[y,f]"),
    (-1, 2, "f", "bracket", "[y,g]"),
    (-1, 2, "[f,g]", "bracket", "y"),
)

#: ``x z`` for ``x = f x'``, ``f`` its smallest letter and ``x' != 1``:
#: ``2 f (x'z) + [x'z, f] - x' (f z) - x' [z,f]``.
_MUL_IDENTITY = (
    (2, 1, "f", "lmul", "x'z"),
    (1, 1, "f", "bracket", "x'z"),
    (-1, 1, "x'", "mul", "f z"),
    (-1, 1, "x'", "mul", "[z,f]"),
)


def _evaluate(identity, ops) -> tuple:
    """The rows of ``identity`` summed over the operands ``ops``, as ``(den, numerators)``.

    The one evaluation step of the three recursions.  A result with at most
    one term is the shared object, ``_EMPTY`` or an entry of
    :func:`_one_term`.  The step runs in a recursion's body, never around
    the memoized function, which would add a frame at every level.
    """
    out, den = {}, 1
    for sign, d, left, product, right in identity:
        den = _sum_into(out, den, _ORACLE[product], sign, (d, ops[left]), ops[right])
    den, num = _reduced(den, _pruned(out))
    if len(num) != 1:
        return (den, num) if num else _EMPTY
    ((mono, n),) = num.items()
    return _one_term(den, mono, n)


@memoized
def _lmul_letter(f, x):
    """``f * x`` for a generator index ``f`` and monomial ``x``, as ``(den, numerators)``.

    The ordered monomial when ``f`` does not exceed the smallest letter
    ``g`` of ``x`` (the unit has none, so ``f * 1`` is one), else
    ``_LMUL_IDENTITY``, whose every sub-product either shrinks the right
    factor or is an ordered prepend.
    """
    g = _leading(x)
    if f <= g:
        return _one_term(1, _prepended(f, x), 1)
    y = _strip(x, g)
    return _evaluate(_LMUL_IDENTITY, {
        "f": {f: 1}, "g": {g: 1}, "[f,g]": _BRACKETS.get((f, g), {}), "y": (1, {y: 1}),
        "f y": _lmul_letter(f, y), "[y,f]": _bracket_mono(f, y), "[y,g]": _bracket_mono(g, y)})


@memoized
def _bracket_mono(f, x):
    """``[x, f]`` for a generator index ``f`` and monomial ``x``, as ``(den, numerators)``,
    by ``_BRACKET_IDENTITY``."""
    if x == ONE:
        return _EMPTY
    g = _leading(x)
    y = _strip(x, g)
    return _evaluate(_BRACKET_IDENTITY, {
        "f": {f: 1}, "g": {g: 1}, "[f,g]": _BRACKETS.get((f, g), {}), "y": (1, {y: 1}),
        "[y,f]": _bracket_mono(f, y), "[y,g]": _bracket_mono(g, y)})


@memoized
def _mul_mono(x, z):
    """``x * z`` for basis monomials, as ``(den, numerators)``: ``_MUL_IDENTITY``
    when ``x = f x'`` with ``x' != 1``, else a unit or a letter product."""
    if x == ONE:
        return _one_term(1, z, 1)
    f = _leading(x)
    xt = _strip(x, f)
    if xt == ONE:
        return _lmul_letter(f, z)
    return _evaluate(_MUL_IDENTITY, {"f": {f: 1}, "x'": {xt: 1}, "x'z": _mul_mono(xt, z),
                                     "f z": _lmul_letter(f, z), "[z,f]": _bracket_mono(f, z)})


#: each product name of the identity tables, as the recursion that computes it
_ORACLE = {"lmul": _lmul_letter, "bracket": _bracket_mono, "mul": _mul_mono}


def mul_u_oracle(x: UElement, y: UElement) -> UElement:
    """Bilinear product evaluated purely by the degree-lowering recursions.

    Independent of the closed form and of the operator realization; this is
    the route the others are checked against.  Each pair is evaluated by
    the unmemoized body, so the tables keep only the sub-results the
    recursion reads back, not one entry per top-level pair.
    """
    _expect(UElement, x, y)
    try:
        return _bilinear(_mul_mono.__wrapped__, (1, x, y))
    except RecursionError as exc:
        raise ComputationError(
            "recursive product evaluation exhausted the recursion limit; "
            "use mul_u (closed form) for inputs this large"
        ) from exc


def bracket_u_oracle(x: UElement, letter: str) -> UElement:
    """``[x, v]`` for a generator letter ``v``, by the bracket recursion,
    through its unmemoized body as in :func:`mul_u_oracle`."""
    _expect(UElement, x)
    f = _letter_index(letter)
    out = {}
    try:
        den = _sum_into(out, 1, _bracket_mono.__wrapped__, 1, (1, {f: 1}), (x._den, x._num))
    except RecursionError as exc:
        raise ComputationError("bracket recursion exhausted the recursion limit") from exc
    return UElement._make(*_reduced(den, _pruned(out)))


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def bracket_u(x: UElement, y: UElement) -> UElement:
    """Commutator ``xy - yx``."""
    _expect(UElement, x, y)
    return _bilinear(_closed_terms, (1, x, y), (-1, y, x))


def associator_u(x: UElement, y: UElement, z: UElement) -> UElement:
    """Associator ``(xy)z - x(yz)``."""
    _expect(UElement, x, y, z)
    return _bilinear(_closed_terms, (1, mul_u(x, y), z), (-1, x, mul_u(y, z)))


def jacobian_u(x: UElement, y: UElement, z: UElement) -> UElement:
    """J(x,y,z) = [[x,y],z] + [[y,z],x] + [[z,x],y] on the enveloping algebra."""
    _expect(UElement, x, y, z)
    xy, yz, zx = bracket_u(x, y), bracket_u(y, z), bracket_u(z, x)
    pairs = ((1, xy, z), (-1, z, xy), (1, yz, x), (-1, x, yz), (1, zx, y), (-1, y, zx))
    return _bilinear(_closed_terms, *pairs)


def embed(v: MalcevVector) -> UElement:
    """The canonical embedding of the base algebra (degree-1 elements)."""
    _expect(MalcevVector, v)
    return v.u_element()
