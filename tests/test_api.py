import copy
import pickle

import pytest

import retractlab
from retractlab import (QQ, ClassificationVerdict, Endomorphism,
                        GeneratorSpec, RingSignature, analyze, render_report)
from retractlab.engine import YVariable
from retractlab.intlinalg import IntMatrix

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


def _e1():
    R = RingSignature(["x1", "x2"], 2, QQ)
    return Endomorphism(R, [R.variable(0) * R.variable(1), R.constant(1)])


# each record, built twice from equal fields, its fields, and whether it is
# hashable: a verdict holds its params dict and a report its lists
RECORDS = {
    "Endomorphism": (_e1, "ring images", True),
    "IntMatrix": (lambda: IntMatrix([[1, 2], [0, 1]]), "rows columns", True),
    "GeneratorSpec": (lambda: GeneratorSpec(3, 2, 1, 5, 2, QQ),
                      "n d r seed complexity domain", True),
    "YVariable": (lambda: YVariable((1, 0), 1, "fixed", _e1().images[0],
                                    True),
                  "exponent normalizer kind poly verified", True),
    "ClassificationVerdict": (
        lambda: ClassificationVerdict("PureLaurent", r=1), "tag params",
        False),
    "RetractReport": (lambda: analyze(_e1()),
                      "ring r decomposition y_variables generators "
                      "quotient_generators trdeg classification "
                      "rationality certificates", False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    build, fields, hashable = RECORDS[name]
    record, twin = build(), build()
    assert type(record).__name__ == name
    for field in fields.split():
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record == twin
    # no tuple arithmetic: a record neither concatenates nor repeats
    for operation in (lambda: record + twin, lambda: 2 * record,
                      lambda: record * 2):
        with pytest.raises(TypeError):
            operation()
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_a_verdict_survives_copy_and_pickle():
    # its constructor takes the params by name, not as the one dict it holds
    verdict = ClassificationVerdict("UFDClassified", r=1, s=2,
                                    generatorsExplicit=False)
    for twin in (copy.copy(verdict), pickle.loads(pickle.dumps(verdict))):
        assert type(twin) is ClassificationVerdict and twin == verdict


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_survive_copy_and_pickle(name):
    # an IntMatrix is rebuilt from its sparse columns, so e1's report, which
    # holds Y and T, round-trips to the same JSON bytes
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        if name == "RetractReport":
            assert (render_report(twin, "json")
                    == render_report(record, "json"))
