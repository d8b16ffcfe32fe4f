"""Seeded inputs, timed batches and exact output checks for the workloads.

Each workload is a fixed batch of operations built from the seed alone, so
the same seed gives the same inputs.  :func:`run_batch` times every
operation through the package's public functions; :func:`check_batch` then
verifies each output with an exact identity that needs no stored answer,
and :func:`digests` gives one short hash per output for comparison with
other runs and with the answers recorded in ``expected.json``.

* ``verify`` runs the seven check suites in ``SUITE_NAMES`` order at a
  reduced size and the default suite seed: the ``check all`` proof path,
  dominated by ``Fraction`` arithmetic, ``compose``, the recursive oracle
  and the type-2 scan.
* ``high_degree`` takes associators of single monomials of degree 9 to 11,
  mostly in a, b and d, the letters that drive the nine-index kernel.
  Almost no product pair repeats, so the memo tables only miss.
* ``session`` is a stream of small parse/compute/format queries over a
  small pool of elements, as the CLI and the API serve them.  Pairs repeat,
  so the memo tables mostly hit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

from malcev5 import alternative, checks, envelope, exprs
from malcev5.alternative import AElement
from malcev5.core import UElement

WORKLOADS = ("verify", "high_degree", "session")

# check-suite size: max_degree 4 keeps every suite non-trivial (type-2 scan
# over exponents <= 2) at 6 to 11 s per pass instead of about 160 s at the
# defaults (2-vCPU Xeon VM, Python 3.11)
VERIFY_SIZE = {"full": (4, 20), "tiny": (2, 2)}
# The suites draw their sampled cases from their own seed, and the work of
# the operators suite alone (its count of Python calls) moves by about 15%
# between suite seeds, more than the benchmark's bounds allow.  So verify
# runs ``check all`` at the CLI's default seed whatever the workload seed is.
VERIFY_SUITE_SEED = 0

# high_degree: exponents of (a, b, d) are a permutation of (2, 3, 4) or
# (3, 3, 3); each slot cycles through the patterns in a seeded order so that
# every seed gets the same mix of kernel costs and only the pairing varies
HIGH_DEGREE_PATTERNS = {
    "full": list(itertools.permutations((2, 3, 4))) + [(3, 3, 3)] * 2,
    "tiny": list(itertools.permutations((0, 1, 2))),
}
HIGH_DEGREE_TRIPLES = {"full": 60, "tiny": 4}
# (c, e) exponents added to a slot: mostly none
HIGH_DEGREE_CE = [(0, 0), (1, 0), (0, 1), (0, 0)]

SESSION_QUERIES = {"full": 6000, "tiny": 40}
SESSION_POOL = {"full": 96, "tiny": 4}
# query kinds with their arity; each query draws its kind and its output
# format (text or JSON) uniformly, as no record of real traffic exists
SESSION_ARITY = {
    "mul_u": 2, "bracket_u": 2, "associator_u": 3,
    "mul_a": 2, "associator_a": 3, "project": 1,
}
_COEFFS = ("1", "2", "3", "1/2", "2/3", "3/4", "5")


def make_inputs(workload: str, seed: int, size: str = "full"):
    """The batch of operations for ``workload`` built from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        max_degree, samples = VERIFY_SIZE[size]
        return [(name, max_degree, samples, VERIFY_SUITE_SEED) for name in checks.SUITE_NAMES]
    if workload == "high_degree":
        return _high_degree_inputs(rng, size)
    if workload == "session":
        return _session_inputs(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


def _high_degree_inputs(rng, size):
    n = HIGH_DEGREE_TRIPLES[size]
    patterns = HIGH_DEGREE_PATTERNS[size]

    def slot():
        abd = [patterns[t % len(patterns)] for t in range(n)]
        ce = [HIGH_DEGREE_CE[t % len(HIGH_DEGREE_CE)] for t in range(n)]
        rng.shuffle(abd)
        rng.shuffle(ce)
        return [UElement({(a, b, c, d, e): 1}) for (a, b, d), (c, e) in zip(abd, ce)]

    return list(zip(slot(), slot(), slot()))


def _monomial_text(exps) -> str:
    parts = []
    for letter, exp in zip("abcde", exps):
        if exp:
            parts.append(letter if exp == 1 else f"{letter}^{exp}")
    return "".join(parts)


def _element_text(rng, monomials) -> str:
    out = []
    for n, mono in enumerate(monomials):
        coeff = rng.choice(_COEFFS)
        sign = rng.choice("+-")
        body = _monomial_text(mono) if coeff == "1" else f"{coeff} {_monomial_text(mono)}"
        if n == 0:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


def _rand_u_monomial(rng, degree):
    exps = [0] * 5
    for _ in range(degree):
        exps[rng.randrange(5)] += 1
    return tuple(exps)


def _rand_a_monomial(rng, degree):
    # quotient basis: type 2 is (i, j, k, l, 0), type 1 is (i, j, 0, l, 1)
    type1 = rng.randrange(3) == 0
    letters = (0, 1, 3) if type1 else (0, 1, 2, 3)
    exps = [0] * 5
    if type1:
        exps[4] = 1
        degree -= 1
    for _ in range(degree):
        exps[rng.choice(letters)] += 1
    return tuple(exps)


def _pool(rng, n, rand_monomial):
    # element k has 1 + k % 3 distinct terms; term t has degree
    # 1 + (k // 3 + t) % 3, so every seed's pool has the same shape
    texts = []
    for k in range(n):
        monos = []
        while len(monos) < 1 + k % 3:
            mono = rand_monomial(rng, 1 + (k // 3 + len(monos)) % 3)
            if mono not in monos:
                monos.append(mono)
        texts.append(_element_text(rng, monos))
    return texts


def _session_inputs(rng, size):
    u_pool = _pool(rng, SESSION_POOL[size], _rand_u_monomial)
    a_pool = _pool(rng, SESSION_POOL[size], _rand_a_monomial)
    kinds = list(SESSION_ARITY)
    queries = []
    for _ in range(SESSION_QUERIES[size]):
        kind = rng.choice(kinds)
        pool = a_pool if kind in ("mul_a", "associator_a") else u_pool
        texts = tuple(rng.choice(pool) for _ in range(SESSION_ARITY[kind]))
        queries.append((kind, texts, rng.choice(("text", "json"))))
    return queries


# ---------------------------------------------------------------------------
# the timed batch
# ---------------------------------------------------------------------------

def _session_ops():
    # looked up at call time, so that wrappers installed by the tracer apply
    return {
        "mul_u": (UElement, envelope.mul_u, False),
        "bracket_u": (UElement, envelope.bracket_u, False),
        "associator_u": (UElement, envelope.associator_u, False),
        "mul_a": (AElement, alternative.mul_a, True),
        "associator_a": (AElement, alternative.associator_a, True),
        "project": (UElement, alternative.project, True),
    }


def _run_one(workload, op, session_ops):
    if workload == "verify":
        name, max_degree, samples, seed = op
        return checks.run_suite(name, max_degree=max_degree, samples=samples, seed=seed)
    if workload == "high_degree":
        return envelope.associator_u(*op)
    kind, texts, fmt = op
    cls, fn, typed = session_ops[kind]
    args = [exprs.parse_element(text, cls) for text in texts]
    result = fn(*args)
    out = str(result) if fmt == "text" else exprs.element_json(result, with_type=typed)
    return args, result, out


def run_batch(workload, ops, clock=time.perf_counter):
    """Run every operation once; return (outputs, latencies_s, errors).

    An operation that raises leaves ``None`` as its output and its message
    in ``errors``; the batch goes on.  Latencies are read from ``clock``.
    """
    session_ops = _session_ops() if workload == "session" else None
    outputs, latencies, errors = [], [], {}
    for n, op in enumerate(ops):
        start = clock()
        try:
            out = _run_one(workload, op, session_ops)
        except Exception as exc:  # counted as a failed operation
            out = None
            errors[n] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        outputs.append(out)
    return outputs, latencies, errors


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------

def _lift(x: AElement) -> UElement:
    # quotient basis monomials are basis monomials of the envelope too
    return UElement(x.terms)


def _session_identity(kind, args, result) -> bool:
    mul_a, project = alternative.mul_a, alternative.project
    if kind == "mul_u":
        x, y = args
        return project(result) == mul_a(project(x), project(y))
    if kind == "bracket_u":
        px, py = (project(v) for v in args)
        return project(result) == mul_a(px, py) - mul_a(py, px)
    if kind == "associator_u":
        return project(result) == alternative.associator_a(*(project(v) for v in args))
    if kind == "mul_a":
        return result == project(envelope.mul_u(*(_lift(v) for v in args)))
    if kind == "associator_a":
        return result == project(envelope.associator_u(*(_lift(v) for v in args)))
    # project: the kept terms avoid the ideal, the dropped ones lie in it
    (x,) = args
    dropped = x - _lift(result)
    return (not any(map(alternative.in_ideal_j, result.terms))
            and all(map(alternative.in_ideal_j, dropped.terms)))


def _round_trip(result, out: str, fmt: str) -> bool:
    cls = type(result)
    if fmt == "text":
        return exprs.parse_element(out, cls) == result
    terms = {tuple(item["exp"]): Fraction(item["coeff"]) for item in json.loads(out)}
    return cls(terms) == result


def missing_or_failed(workload, outputs) -> set:
    """Indices of operations with no output or, on ``verify``, a suite
    that did not pass; cheap enough to run after every measured run."""
    return {
        n for n, out in enumerate(outputs)
        if out is None or (workload == "verify" and not out.passed)
    }


def check_batch(workload, ops, outputs) -> set:
    """Indices of operations whose output is wrong or missing: those of
    :func:`missing_or_failed` and those that break their exact identity."""
    failed = missing_or_failed(workload, outputs)
    if workload == "verify":
        return failed
    for n, (op, out) in enumerate(zip(ops, outputs)):
        if n in failed:
            continue
        if workload == "high_degree":
            x, y, z = op
            project = alternative.project
            want = alternative.associator_a(project(x), project(y), project(z))
            if project(out) != want:
                failed.add(n)
        else:
            kind, _, fmt = op
            args, result, text = out
            if not (_session_identity(kind, args, result) and _round_trip(result, text, fmt)):
                failed.add(n)
    return failed


def _canonical(el) -> str:
    # independent of the package's own formatter
    return ";".join(
        f"{','.join(map(str, mono))}:{Fraction(coeff)}" for mono, coeff in sorted(el.terms.items())
    )


DIGEST_HEX = 4  # hex digits kept per output


def digests(workload, outputs) -> str:
    """A short hash of each output, concatenated (empty for ``verify``,
    whose suites check themselves); a missing output hashes to dashes."""
    if workload == "verify":
        return ""
    out = []
    for value in outputs:
        if value is None:
            out.append("-" * DIGEST_HEX)
            continue
        text = _canonical(value) if workload == "high_degree" else value[2]
        out.append(hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX])
    return "".join(out)
