import retractlab

# the package root's API: README's example and the benchmark's corpus, the
# types a caller builds or gets back, and the errors those calls raise;
# every other name is imported from its module
API = {
    "parse_problem", "analyze", "render_report", "GF", "GeneratorSpec",
    "problem_text",
    "Domain", "QQ", "ZZ", "RingSignature", "MixedPoly", "Endomorphism",
    "RetractReport", "ClassificationVerdict",
    "RingMismatchError", "NonUnitError", "InvalidEndomorphismError",
    "NotIdempotentError", "ParseError", "CertificateError",
    "require_idempotent", "render_problem", "gen_random_idempotent",
}


def test_package_root_exports_exactly_the_api():
    assert len(retractlab.__all__) == len(set(retractlab.__all__))
    assert set(retractlab.__all__) == API
    for name in API:
        assert getattr(retractlab, name).__module__.startswith("retractlab.")
