"""Command-line front end.

Evaluates products, brackets, associators, projections, and operator
applications in the enveloping algebra (``--algebra u``, the default) or its
alternative quotient (``--algebra a``), and runs the named verification
suites.  Results print in canonical text form, or as JSON term arrays with
``--format json``.  Exit codes: 0 success (all checks pass), 1 a check suite
failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from .alternative import AElement, associator_a, bracket_a, mul_a, project
from .checks import SUITE_NAMES, run_suite
from .core import LETTERS, ComputationError, UElement
from .diffops import lmul, rho
from .envelope import associator_u, bracket_u, mul_u
from .exprs import element_json, parse_element

# --algebra -> (element class, product command -> product)
_COMMANDS = {
    "u": (UElement, {"mul": mul_u, "bracket": bracket_u, "assoc": associator_u}),
    "a": (AElement, {"mul": mul_a, "bracket": bracket_a, "assoc": associator_a}),
}

# element command -> (EXPR count, help); project and apply-op read the envelope only
_ELEMENT_COMMANDS = {
    "mul": (2, "multiply two elements"),
    "bracket": (2, "commutator [x, y] = xy - yx"),
    "assoc": (3, "associator (x, y, z) = (xy)z - x(yz)"),
    "project": (1, "project an envelope element onto the quotient"),
    "apply-op": (1, "apply a generator operator to an envelope element"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malcev5",
        description=(
            "Exact arithmetic in the enveloping algebra of the five-dimensional "
            "nilpotent Malcev algebra (generators a..e, [a,b]=c, [c,d]=e) and "
            "in its universal alternative quotient."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    products = _COMMANDS["u"][1]
    for name, (nargs, help_text) in _ELEMENT_COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name in products:
            sp.add_argument(
                "--algebra",
                choices=("u", "a"),
                default="u",
                help="which algebra to compute in: the envelope (u, default) or "
                "its alternative quotient (a)",
            )
        sp.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            dest="fmt",
            help="output form: canonical text (default) or a JSON term array",
        )
        if name == "apply-op":
            sp.add_argument(
                "operator",
                choices=("rho", "l"),
                help="rho = bracket map x -> [x, LETTER], l = left multiplication by LETTER",
            )
            sp.add_argument("letter", choices=tuple(LETTERS), help="generator letter")
        sp.add_argument("exprs", nargs=nargs, metavar="EXPR", help="element expression")

    sp = sub.add_parser("check", help="run a verification suite")
    sp.add_argument(
        "suite",
        choices=SUITE_NAMES + ("all",),
        help="which suite to run ('all' runs every suite in order)",
    )
    sp.add_argument(
        "--max-degree",
        type=int,
        default=5,
        dest="max_degree",
        help="monomial degree bound for the exhaustive scans (default 5; "
        "individual suites derive their documented ranges from it)",
    )
    sp.add_argument(
        "--samples",
        type=int,
        default=1000,
        help="number of seeded random samples for the property checks "
        "(default 1000)",
    )
    sp.add_argument(
        "--seed", type=int, default=0, help="PRNG seed for the sampled checks (default 0)"
    )
    return parser


def _run_checks(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    failed = False
    for name in names:
        report = run_suite(
            name, max_degree=args.max_degree, samples=args.samples, seed=args.seed
        )
        print(report.render(), flush=True)
        print(f"{name}: {report.duration:.2f}s", file=sys.stderr)
        failed = failed or not report.passed
    return 1 if failed else 0


def _dispatch(args) -> int:
    if args.command == "check":
        return _run_checks(args)

    if args.command in _COMMANDS["u"][1]:
        cls, products = _COMMANDS[args.algebra]
        el = products[args.command](*(parse_element(t, cls) for t in args.exprs))
    else:  # project or apply-op, on one envelope element
        x = parse_element(args.exprs[0], UElement)
        if args.command == "project":
            el = project(x)
        else:
            el = (rho if args.operator == "rho" else lmul)(args.letter).apply(x)
    print(element_json(el, with_type=isinstance(el, AElement)) if args.fmt == "json" else el)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
