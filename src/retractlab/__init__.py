"""Exact analysis of idempotent endomorphisms of mixed Laurent/polynomial
rings: summand decomposition of the unit lattice, retract presentation, and
classification with machine-checkable certificates."""

from .domains import Domain, QQ, ZZ, GF
from .ring import RingSignature, MixedPoly, RingMismatchError, NonUnitError
from .endo import (Endomorphism, MonomialData, identity, require_idempotent,
                   apply, compose, is_idempotent, monomial_part, conjugate,
                   standard_projection, InvalidEndomorphismError,
                   NotIdempotentError)
from .intlinalg import (IntMatrix, SummandDecomposition, decompose,
                        solve_in_lattice)
from .engine import (analyze, classify, rationality_verdict,
                     transcendence_degree, compute_y_variables, quotient_mod_J,
                     RetractReport, ClassificationVerdict, YVariable,
                     CertificateError)
from .grammar import parse_domain, parse_problem, parse_expression, \
    render_problem, render_report, ParseError
from .generator import GeneratorSpec, gen_random_idempotent, problem_text

__version__ = "0.1.0"

__all__ = [
    "Domain", "QQ", "ZZ", "GF",
    "RingSignature", "MixedPoly", "RingMismatchError", "NonUnitError",
    "Endomorphism", "MonomialData", "identity", "require_idempotent",
    "apply", "compose", "is_idempotent", "monomial_part", "conjugate",
    "standard_projection", "InvalidEndomorphismError", "NotIdempotentError",
    "IntMatrix", "SummandDecomposition", "decompose", "solve_in_lattice",
    "analyze", "classify", "rationality_verdict", "transcendence_degree",
    "compute_y_variables", "quotient_mod_J", "RetractReport",
    "ClassificationVerdict", "YVariable", "CertificateError",
    "parse_domain", "parse_problem", "parse_expression", "render_problem",
    "render_report", "ParseError",
    "GeneratorSpec", "gen_random_idempotent", "problem_text",
]
