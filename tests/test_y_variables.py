"""The y-variables and lattice certificates read from the monomial part.

`compute_y_variables` checks each basis vector b on M·b and λ^b alone.  The
reference below is the earlier computation, which applied phi to every
basis monomial; on idempotent inputs the two must agree in every field.
"""

import itertools
import random
from fractions import Fraction

import pytest

from retractlab import (QQ, ZZ, GF, RingSignature, Endomorphism, MixedPoly,
                        analyze, require_idempotent)
from retractlab import engine, intlinalg
from retractlab.cli import run_cli
from retractlab.endo import (apply, conjugate, monomial_part,
                             standard_projection)
from retractlab.engine import CertificateError, YVariable, compute_y_variables
from retractlab.generator import (GeneratorSpec, gen_random_idempotent,
                                  _automorphism_of_kind)
from retractlab.intlinalg import IntMatrix, SummandDecomposition, decompose
from dense_hnf import fixed_basis, kernel_basis


def reference_y_variables(phi):
    """y-variables by substitution: phi applied to each basis monomial."""
    require_idempotent(phi)
    ring = phi.ring
    d = ring.laurent
    dec = decompose(monomial_part(phi).matrix)
    yvars = []
    for i, b in enumerate(fixed_basis(dec) + kernel_basis(dec)):
        exp = tuple(b) + (0,) * (ring.n - d)
        mono = ring.monomial(exp)
        image = apply(phi, mono)
        if i < dec.r:
            yvars.append(YVariable(exp, 1, "fixed", mono,
                                   verified=image == mono))
        else:
            (constant, lam), = image.terms
            assert not any(constant)
            assert ring.domain.is_unit(lam)
            y = mono * ring.constant(ring.domain.invert(lam))
            yvars.append(YVariable(exp, lam, "killed", y,
                                   verified=apply(phi, y) == ring.constant(1)))
    return dec, yvars


def fields(yvars):
    return [(y.exponent, y.kind, y.normalizer, y.poly, y.verified)
            for y in yvars]


def assert_matches_reference(phi):
    dec, ys, _ = compute_y_variables(phi)
    ref_dec, ref = reference_y_variables(phi)
    assert fixed_basis(dec) == fixed_basis(ref_dec)
    assert kernel_basis(dec) == kernel_basis(ref_dec)
    assert fields(ys) == fields(ref), phi
    assert all(y.verified for y in ys)
    return ys


def test_matches_substitution_on_generated_draws():
    rng = random.Random(8108)
    strata = [(n, d, c) for n in range(2, 6) for d in range(1, min(3, n) + 1)
              for c in range(3)]
    for (n, d, complexity), domain, _ in itertools.product(
            strata, (QQ, ZZ, GF(5), GF(32003)), range(2)):
        spec = GeneratorSpec(n, d, rng.randint(0, d), rng.getrandbits(64),
                             complexity, domain)
        assert_matches_reference(gen_random_idempotent(spec))


def test_normalizers_from_negative_powers():
    # x2 -> c·x1 kills x1·x2^-1 with normalizer c^-1
    for dom, c, want in ((QQ, 3, Fraction(1, 3)), (ZZ, -1, -1),
                         (GF(5), 2, 3)):
        R = RingSignature(["x1", "x2"], 2, dom)
        phi = Endomorphism(R, [R.variable(0),
                               R.variable(0) * R.constant(c)])
        ys = assert_matches_reference(phi)
        assert [y.kind for y in ys] == ["fixed", "killed"]
        assert ys[1].exponent == (1, -1)
        assert ys[1].normalizer == want
    # a fixed vector with a negative entry, its λ^b = 2·2^-1 = 1
    R = RingSignature(["x1", "x2"], 2, QQ)
    phi = Endomorphism(R, [R.monomial((1, -1), 2), R.constant(2)])
    ys = assert_matches_reference(phi)
    assert [(y.kind, y.exponent, y.normalizer) for y in ys] == [
        ("fixed", (1, -1), 1), ("killed", (0, 1), 2)]


def test_matches_substitution_under_scale_conjugation():
    rng = random.Random(31)
    kinds = ("scale", "mult", "invert", "mult", "scale")
    for dom in (QQ, ZZ, GF(5), GF(32003)):
        R = RingSignature(["x1", "x2", "x3", "x4"], 3, dom)
        seen_negative = seen_normalizer = False
        for keep in ([0], [1], [0, 2]):
            phi = standard_projection(R, keep, [3])
            for kind in kinds:
                phi = conjugate(phi, *_automorphism_of_kind(R, kind, rng, 1))
            ys = assert_matches_reference(phi)
            seen_negative |= any(e < 0 for y in ys for e in y.exponent)
            seen_normalizer |= any(y.normalizer != 1 for y in ys)
        assert seen_negative and seen_normalizer, dom


def test_analyze_substitutes_for_idempotency_then_once_per_generator(
        monkeypatch):
    spec = GeneratorSpec(5, 3, 1, 1005, 2, QQ)
    phi = gen_random_idempotent(spec)
    substitutions = []
    substitute = MixedPoly.substitute
    hnfs = []
    row_hnf = intlinalg.row_hnf

    def counting_substitute(self, *args):
        substitutions.append(self)
        return substitute(self, *args)

    def counting_hnf(rows):
        hnfs.append(rows)
        return row_hnf(rows)
    monkeypatch.setattr(MixedPoly, "substitute", counting_substitute)
    monkeypatch.setattr(intlinalg, "row_hnf", counting_hnf)
    decompose.cache_clear()  # a memoized M would make no HNF
    rep = analyze(phi)
    assert rep.r == 1 and all(rep.certificates.values())
    # phi∘phi substitutes into each of the n images, and the quotient into
    # each polynomial generator once, the fixed units mapping to y_k by
    # Y·T = I; the decomposition takes one HNF per lattice and reads the
    # inverse of Y off the two
    assert substitutions == list(phi.images) + rep.generators[rep.r:]
    assert len(hnfs) == 2


def test_maps_with_one_matrix_share_one_decomposition(monkeypatch):
    # x1 -> c·x1·x2, x2 -> c^-1 has the same M for every unit c, so the
    # memo decomposes it once; the shared decomposition cannot be changed
    maps = []
    for dom, c in ((QQ, 1), (QQ, 3), (GF(5), 2)):
        R = RingSignature(["x1", "x2"], 2, dom)
        maps.append(Endomorphism(R, [R.monomial((1, 1), c),
                                     R.constant(dom.invert(c))]))
    hnfs = []
    row_hnf = intlinalg.row_hnf

    def counting_hnf(rows):
        hnfs.append(rows)
        return row_hnf(rows)
    monkeypatch.setattr(intlinalg, "row_hnf", counting_hnf)
    decompose.cache_clear()
    reports = [analyze(phi) for phi in maps]
    assert len(hnfs) == 2
    dec = reports[0].decomposition
    assert all(rep.decomposition is dec for rep in reports)
    assert all(all(rep.certificates.values()) for rep in reports)
    assert [y.normalizer for y in reports[1].y_variables] == [
        1, Fraction(1, 3)]
    for obj, name in ((dec, "r"), (dec, "Y"), (dec.Y, "columns"),
                      (dec.T, "rows"), (dec.M, "columns")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    assert all(type(col) is tuple for A in (dec.M, dec.Y, dec.T)
               for col in A.columns)
    assert analyze(maps[0]).decomposition is dec


def e1():
    R = RingSignature(["x1", "x2"], 2, QQ)
    return Endomorphism(R, [R.variable(0) * R.variable(1), R.constant(1)])


def tampered(fixed, kernel, T):
    """A decomposition of e1's matrix with the given bases and T."""
    M = IntMatrix([[1, 0], [1, 0]])
    Y = IntMatrix(zip(*(fixed + kernel)))
    return SummandDecomposition(M, len(fixed), Y, IntMatrix(T))


# matrix_idempotent and image_lattice_membership follow from Y·T = I and
# the lattice part of the column checks, so each tamper fails them too
@pytest.mark.parametrize("dec, failed", [
    # M does not fix (1, 0); M's column (1, 1) has a kernel coordinate
    (tampered([(1, 0)], [(0, 1)], T=[[1, 0], [0, 1]]),
     {"fixed_y_images", "image_lattice_membership", "matrix_idempotent"}),
    # M does not kill (1, 0)
    (tampered([(1, 1)], [(1, 0)], T=[[0, 1], [1, -1]]),
     {"killed_y_images", "ideal_killed", "image_lattice_membership",
      "matrix_idempotent"}),
    # T is not Y^-1
    (tampered([(1, 1)], [(0, 1)], T=[[1, 0], [0, 1]]),
     {"unimodular_basis", "image_lattice_membership", "matrix_idempotent"}),
])
def test_each_certificate_can_fail(dec, failed, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(engine, "decompose", lambda M: dec)
    with pytest.raises(CertificateError) as exc:
        analyze(e1())
    assert list(exc.value.evidence) == [
        "matrix_idempotent", "unimodular_basis", "fixed_y_images",
        "killed_y_images", "ideal_killed", "image_lattice_membership"]
    assert {k for k, ok in exc.value.evidence.items() if not ok} == failed
    path = tmp_path / "e1.ring"
    path.write_text("ring QQ[x1^±,x2^±]\nx1 -> x1*x2\nx2 -> 1\n",
                    encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("certificate failure: ")
    assert all("'%s': False" % k in err for k in failed)


def test_fixed_certificate_reads_the_scalar(monkeypatch, tmp_path, capsys):
    # x -> 2x has an idempotent matrix, but phi(x) != x: with the
    # idempotency check skipped, only the fixed-image certificate sees it
    monkeypatch.setattr(engine, "require_idempotent", monomial_part)
    R = RingSignature(["x"], 1, QQ)
    with pytest.raises(CertificateError) as exc:
        analyze(Endomorphism(R, [R.variable(0) * R.constant(2)]))
    assert [k for k, ok in exc.value.evidence.items() if not ok] == [
        "fixed_y_images"]
    path = tmp_path / "scaled.ring"
    path.write_text("ring QQ[x^±]\nx -> 2*x\n", encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == 3
    assert "'fixed_y_images': False" in capsys.readouterr().err
