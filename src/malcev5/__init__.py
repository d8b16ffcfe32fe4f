"""Exact arithmetic in the enveloping algebra of the five-dimensional
nilpotent Malcev algebra (generators a..e with [a,b] = c, [c,d] = e) and in
its universal alternative quotient."""

from .core import (
    ComputationError,
    LETTERS,
    MalcevVector,
    Monomial,
    ONE,
    UElement,
    bracket_m,
    degree,
    falling_factorial,
    binomial,
    format_monomial,
    jacobian_m,
    letter_monomial,
    monomial,
    multinomial,
)
from .diffops import (
    Operator,
    compose,
    l_of_monomial,
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
    associator_a,
    bracket_a,
    in_ideal_j,
    is_type1,
    is_type2,
    mul_a,
    project,
    type2_associator_closed,
)
from .checks import CheckReport, SUITE_NAMES, run_all, run_suite
from .exprs import ParseError, element_json, parse_element

__version__ = "0.1.0"
