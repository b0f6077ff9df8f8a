"""Exact analysis of idempotent endomorphisms of mixed Laurent/polynomial
rings: summand decomposition of the unit lattice, retract presentation, and
classification with machine-checkable certificates.  The package root
exports the public API; every other name is imported from its module."""

from .domains import Domain, QQ, ZZ, GF
from .ring import RingSignature, MixedPoly, RingMismatchError, NonUnitError
from .endo import (Endomorphism, require_idempotent, InvalidEndomorphismError,
                   NotIdempotentError)
from .engine import (analyze, RetractReport, ClassificationVerdict,
                     CertificateError)
from .grammar import parse_problem, render_problem, render_report, ParseError
from .generator import GeneratorSpec, gen_random_idempotent, problem_text

__version__ = "0.1.0"

__all__ = [
    "Domain", "QQ", "ZZ", "GF",
    "RingSignature", "MixedPoly", "RingMismatchError", "NonUnitError",
    "Endomorphism", "require_idempotent", "InvalidEndomorphismError",
    "NotIdempotentError",
    "analyze", "RetractReport", "ClassificationVerdict", "CertificateError",
    "parse_problem", "render_problem", "render_report", "ParseError",
    "GeneratorSpec", "gen_random_idempotent", "problem_text",
]
