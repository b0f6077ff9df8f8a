"""Embedded acceptance checks, runnable via `retractlab selftest`.

A compact version of the full pytest acceptance suite: the hand-verified
worked examples plus a sweep of generated instances with every certificate
checked exactly.
"""

from .domains import QQ, GF
from .engine import analyze
from .generator import GeneratorSpec, gen_random_idempotent
from .grammar import parse_problem, render_report
from .intlinalg import IntMatrix

E1_TEXT = "ring QQ[x1^±,x2^±]\nx1 -> x1*x2\nx2 -> 1\n"


def _check_e1():
    _, phi = parse_problem(E1_TEXT)
    rep = analyze(phi)
    return (rep.r == 1
            and rep.decomposition.Y == IntMatrix([[1, 0], [1, 1]])
            and rep.decomposition.T == IntMatrix([[1, 0], [-1, 1]])
            and rep.classification.tag == "PureLaurent"
            and rep.classification.params == {"r": 1})


def _check_table():
    cases = [
        ("ring QQ[x1^±,x2^±]\nx1 -> x1\nx2 -> x2\n", "WholeRing"),
        ("ring QQ[x1^±,x2^±]\nx1 -> 1\nx2 -> 1\n", "CoefficientRing"),
        ("ring QQ[x1^±,x2]\nx1 -> x1\nx2 -> x1 + x1^-1\n", "PureLaurent"),
        ("ring QQ[x1^±,x2^±,x3]\nx1 -> x1\nx2 -> 1\nx3 -> x3 + x2 - 1\n",
         "LaurentTensorPoly"),
        ("ring QQ[x1^±,x2,x3]\nx1 -> x1\nx2 -> x2\nx3 -> x2\n",
         "UFDClassified"),
    ]
    for text, tag in cases:
        _, phi = parse_problem(text)
        rep = analyze(phi)
        if rep.classification.tag != tag or rep.rationality != "Rational":
            return False
    return True


def _check_generated(domain, count, seed0):
    for k in range(count):
        spec = GeneratorSpec(n=3, d=3, r=1 + k % 2, seed=seed0 + k,
                             complexity=2, domain=domain)
        phi = gen_random_idempotent(spec)
        rep = analyze(phi)
        if rep.r != spec.r or rep.classification.tag != "PureLaurent":
            return False
        if not all(rep.certificates.values()):
            return False
    return True


def _check_report_determinism():
    _, phi = parse_problem(E1_TEXT)
    a = render_report(analyze(phi), "json")
    b = render_report(analyze(phi), "json")
    return a == b


def run_selftest():
    checks = [
        ("worked-example-e1", _check_e1),
        ("classification-table", _check_table),
        ("generated-pure-laurent-QQ", lambda: _check_generated(QQ, 20, 100)),
        ("generated-pure-laurent-GF5", lambda: _check_generated(GF(5), 20, 200)),
        ("report-determinism", _check_report_determinism),
    ]
    results = [fn() for _, fn in checks]
    ok = True
    for (name, _), passed in zip(checks, results):
        print("%s %s" % ("PASS" if passed else "FAIL", name))
        ok = ok and passed
    return ok
