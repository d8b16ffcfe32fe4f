"""The universal alternative quotient.

The alternator ideal of the enveloping algebra is generated (as an ideal)
by the two alternators it needs to kill, and works out to the span of every
basis monomial with ``e``-exponent at least 2 together with those with
``e``-exponent 1 and positive ``c``-exponent.  The quotient therefore has
the surviving monomials as a basis, in two families::

    type 1:  a^i b^j d^l e        (e-exponent 1, no c)
    type 2:  a^i b^j c^k d^l      (no e)

:class:`AElement` stores elements of the quotient on that basis, reusing the
exponent-5-tuple encoding (a type-1 monomial is any tuple with last entry 1
and middle entry 0; a type-2 tuple ends in 0).  The product is one closed
kernel, ``_mul_a_mono``, per type pair; :func:`mul_a`, the commutator
:func:`bracket_a` and the associator :func:`associator_a` are each one
signed sum of its products.  :func:`project` is the quotient map.  Both
are cross-checked against the enveloping product: ``project`` after
:func:`~malcev5.envelope.mul_u` must equal :func:`mul_a` after ``project``.
"""

from __future__ import annotations

from .core import (
    Monomial,
    UElement,
    _MonomialElement,
    _bilinear,
    _check_monomial,
    _expect,
    format_monomial,
)


def _basis_type(mono: Monomial) -> int:
    """The one membership rule: 1 or 2, the quotient basis type of a
    well-formed ``mono``, or 0 when it lies in the alternator ideal."""
    c, e = mono[2], mono[4]
    return 2 if not e else 1 if e == 1 and not c else 0


def in_ideal_j(mono: Monomial) -> bool:
    """True when the monomial lies in the alternator ideal.

    Membership depends only on the ``c``- and ``e``-exponents: everything
    with ``e^2`` or higher dies, as does anything with both a ``c`` and an
    ``e``.  Raises ``ValueError`` unless ``mono`` is a monomial.
    """
    _check_monomial(mono)
    return not _basis_type(mono)


def is_type1(mono: Monomial) -> bool:
    """Quotient basis monomial of the form ``a^i b^j d^l e``."""
    _check_monomial(mono)
    return _basis_type(mono) == 1


def is_type2(mono: Monomial) -> bool:
    """Quotient basis monomial of the form ``a^i b^j c^k d^l``."""
    _check_monomial(mono)
    return _basis_type(mono) == 2


class AElement(_MonomialElement):
    """An element of the alternative quotient, on the surviving monomials."""

    __slots__ = ()

    @staticmethod
    def _check_member(mono) -> None:
        if not _basis_type(mono):
            raise ValueError(
                f"{format_monomial(mono)} lies in the alternator ideal and is not a basis "
                "monomial of the quotient"
            )


def project(x: UElement) -> AElement:
    """The quotient map: drop every term inside the alternator ideal.

    It maps the enveloping algebra onto the quotient, so it takes only a
    ``UElement``: an ``AElement`` is already in the quotient, and passing
    one raises ``TypeError`` rather than returning it unchanged.
    """
    _expect(UElement, x)
    return AElement._make(x._den, {mono: n for mono, n in x._num.items() if _basis_type(mono)})


# ---------------------------------------------------------------------------
# the closed product
# ---------------------------------------------------------------------------

def _mul_a_mono(x: Monomial, y: Monomial) -> tuple:
    """Product of two quotient basis monomials as ``(den, numerators)``, den 6 or 1."""
    if x[4] or y[4]:
        # type 1 times type 1 lands in the ideal; type 1 times type 2, on
        # either side, is the concatenation when the type-2 factor has no c
        if x[4] and y[4] or x[2] or y[2]:
            return 1, {}
        return 1, {(x[0] + y[0], x[1] + y[1], 0, x[3] + y[3], 1): 1}

    i, j, k, l, _ = x
    p, q, r, s, _ = y
    num = 0 if k or r else i * j * s - i * l * q + 3 * j * l * p + 2 * j * p * s - 2 * l * p * q
    den = 6 if num else 1
    out = {(i + p, j + q, k + r, l + s, 0): den}
    coeff = den
    for mu in range(1, min(j, p) + 1):
        coeff = -coeff * (j - mu + 1) * (p - mu + 1) // mu  # (-1)^mu mu! C(j,mu) C(p,mu)
        out[(i + p - mu, j + q - mu, k + r + mu, l + s, 0)] = coeff
    if num:
        # every factor of num vanishes when the corresponding exponent is
        # zero, so the shifts below never go negative
        out[(i + p - 1, j + q - 1, 0, l + s - 1, 1)] = num
    elif k == 0 and r == 1 and l:
        out[(i + p, j + q, 0, l + s - 1, 1)] = -l
    return den, out


def mul_a(x: AElement, y: AElement) -> AElement:
    """Bilinear product on the quotient (closed structure constants)."""
    _expect(AElement, x, y)
    return _bilinear(_mul_a_mono, (1, x, y))


def bracket_a(x: AElement, y: AElement) -> AElement:
    """Commutator ``xy - yx`` on the quotient."""
    _expect(AElement, x, y)
    return _bilinear(_mul_a_mono, (1, x, y), (-1, y, x))


def associator_a(x: AElement, y: AElement, z: AElement) -> AElement:
    """Associator ``(xy)z - x(yz)`` on the quotient."""
    _expect(AElement, x, y, z)
    return _bilinear(_mul_a_mono, (1, mul_a(x, y), z), (-1, x, mul_a(y, z)))


def type2_associator_closed(x: Monomial, y: Monomial, z: Monomial) -> AElement:
    """Closed form of the associator of three type-2 basis monomials.

    Nonzero only when none of the three factors carries a ``c``, in which
    case it is an explicitly alternating trilinear coefficient times a
    single type-1 monomial.  Used as the oracle for :func:`associator_a`
    on type-2 arguments.
    """
    for mono in (x, y, z):
        _check_monomial(mono)
        if _basis_type(mono) != 2:
            raise ValueError(f"{mono!r} is not a type-2 basis monomial")
    return _type2_associator(x, y, z)


def _type2_associator(x: Monomial, y: Monomial, z: Monomial) -> AElement:
    """:func:`type2_associator_closed` on validated type-2 monomials."""
    i, j, k, l, _ = x
    p, q, r, s, _ = y
    v, w, g, u, _ = z
    if k or r or g:
        return AElement.zero()
    num = i * q * u - i * s * w - j * p * u + j * s * v + l * p * w - l * q * v
    if not num:
        return AElement.zero()
    mono = (i + p + v - 1, j + q + w - 1, 0, l + s + u - 1, 1)
    return AElement._make(6, {mono: num})
