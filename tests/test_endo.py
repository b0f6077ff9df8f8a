import os
import random

import pytest

from retractlab import (QQ, ZZ, GF, RingSignature, MixedPoly, Endomorphism,
                        require_idempotent, GeneratorSpec,
                        gen_random_idempotent, InvalidEndomorphismError,
                        NotIdempotentError)
from retractlab import endo
from retractlab.endo import (identity, apply, compose, is_idempotent,
                             monomial_part, conjugate, standard_projection,
                             idempotency_defect)
from retractlab.intlinalg import IntMatrix
from retractlab.grammar import parse_problem
from random_elements import random_element

BENCH_NAMED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "named")


def laurent2():
    return RingSignature(["x1", "x2"], 2, QQ)


def e1():
    R = laurent2()
    return Endomorphism(R, [R.variable(0) * R.variable(1), R.constant(1)])


def swap2():
    R = laurent2()
    return Endomorphism(R, [R.variable(1), R.variable(0)])


def test_validate():
    R = laurent2()
    monomial_part(e1())
    bad = Endomorphism(R, [R.variable(0) + R.variable(1), R.variable(1)])
    with pytest.raises(InvalidEndomorphismError):
        monomial_part(bad)
    M = RingSignature(["x1", "x2"], 1, QQ)
    ok = Endomorphism(M, [M.variable(0),
                          M.variable(0) + M.monomial((-1, 0))])
    monomial_part(ok)  # x2 is not in the Laurent block, no unit constraint


def test_apply():
    R = laurent2()
    phi = e1()
    p = random_element(R, random.Random(3))
    assert apply(identity(R), p) == p
    assert apply(phi, R.monomial((-1, 0))) == R.monomial((-1, -1))
    M = RingSignature(["x1", "x2"], 1, QQ)
    psi = Endomorphism(M, [M.variable(0),
                           M.variable(0) + M.monomial((-1, 0))])
    assert apply(psi, M.monomial((0, 2))) == \
        MixedPoly(M, [((2, 0), 1), ((0, 0), 2), ((-2, 0), 1)])


def test_compose():
    R = laurent2()
    phi = e1()
    assert compose(phi, identity(R)) == phi
    assert compose(swap2(), swap2()) == identity(R)
    assert compose(phi, phi) == phi


def test_is_idempotent():
    R = laurent2()
    assert is_idempotent(identity(R))
    assert not is_idempotent(swap2())
    M = RingSignature(["x1", "x2", "x3"], 2, QQ)
    phi = Endomorphism(M, [M.variable(0), M.constant(1),
                           M.variable(2) + M.variable(1) - M.constant(1)])
    assert is_idempotent(phi)


def test_monomial_part_examples():
    R = laurent2()
    md = monomial_part(e1())
    assert md.matrix == IntMatrix([[1, 0], [1, 0]])
    assert md.lambdas == (1, 1)

    phi = Endomorphism(R, [R.variable(0), R.constant(3)])
    md = monomial_part(phi)
    assert md.matrix == IntMatrix([[1, 0], [0, 0]])
    assert md.lambdas == (1, 3)

    md = monomial_part(identity(R))
    assert md.matrix == IntMatrix.identity(2)
    assert md.lambdas == (1, 1)


def test_standard_projection():
    R = laurent2()
    proj = standard_projection(R)
    assert proj.images == (R.constant(1), R.constant(1))
    assert standard_projection(R, {0, 1}) == identity(R)
    keep1 = standard_projection(R, {0})
    assert keep1.images == (R.variable(0), R.constant(1))
    assert is_idempotent(keep1)
    M = RingSignature(["x1", "x2"], 1, QQ)
    assert standard_projection(M).images == (M.constant(1), M.zero())


def test_library_maps_equal_checked_maps():
    # maps the library builds from its own ring elements skip the checks;
    # each equals the checked map of the same images, which also requires
    # the trusted images to be a tuple
    from retractlab.generator import _automorphism_of_kind
    maps = [parse_problem("ring ZZ[x^±,y,z]\nx -> -x\ny -> y + 2*x^-1*z\n"
                          "z -> 0\n")[1]]
    for dom in (QQ, ZZ, GF(5)):
        ring = RingSignature(["x1", "x2", "x3", "x4"], 2, dom)
        maps += [standard_projection(ring), standard_projection(ring, {1}, {3})]
        rng = random.Random(3)
        for kind in ("mult", "swap", "invert", "scale", "pscale", "shift"):
            maps += _automorphism_of_kind(ring, kind, rng, 2)
        for seed in range(5):
            maps.append(gen_random_idempotent(
                GeneratorSpec(4, 2, seed % 3, seed, seed % 4, dom)))
    for phi in maps:
        assert type(phi.images) is tuple
        assert Endomorphism(phi.ring, list(phi.images)) == phi


def test_conjugate_examples():
    R = laurent2()
    alpha = Endomorphism(R, [R.variable(0),
                             R.monomial((2, 1))])       # x2 -> x1^2*x2
    alpha_inv = Endomorphism(R, [R.variable(0),
                                 R.monomial((-2, 1))])  # x2 -> x1^-2*x2
    phi = standard_projection(R, {0})
    got = conjugate(phi, alpha, alpha_inv)
    assert got.images == (R.variable(0), R.monomial((-2, 0)))
    assert is_idempotent(got)

    assert conjugate(identity(R), alpha, alpha_inv) == identity(R)
    assert conjugate(phi, identity(R), identity(R)) == phi
    with pytest.raises(ValueError):
        conjugate(phi, alpha, alpha)


def _random_monomial_endo(ring, rng):
    d = ring.n
    images = []
    for _ in range(d):
        exp = tuple(rng.randint(-2, 2) for _ in range(d))
        c = rng.choice([-2, -1, 1, 2])
        images.append(ring.monomial(exp, c))
    return Endomorphism(ring, images)


def test_monomial_part_functoriality():
    rng = random.Random(17)
    R = RingSignature(["x1", "x2", "x3"], 3, QQ)
    for _ in range(100):
        phi = _random_monomial_endo(R, rng)
        psi = _random_monomial_endo(R, rng)
        lhs = monomial_part(compose(phi, psi)).matrix
        assert lhs == monomial_part(phi).matrix * monomial_part(psi).matrix


def test_lambda_composition_law():
    rng = random.Random(23)
    R = RingSignature(["x1", "x2"], 2, QQ)
    for _ in range(100):
        phi = _random_monomial_endo(R, rng)
        psi = _random_monomial_endo(R, rng)
        mp, mq = monomial_part(phi), monomial_part(psi)
        mc = monomial_part(compose(phi, psi))
        for i in range(2):
            lam = mq.lambdas[i]
            for j in range(2):
                lam = lam * QQ.pow(QQ.coerce(mp.lambdas[j]),
                                   mq.matrix.entries[j][i])
            assert mc.lambdas[i] == lam


def test_monomial_idempotency_criterion():
    rng = random.Random(31)
    R = RingSignature(["x1", "x2", "x3"], 3, QQ)
    for _ in range(200):
        phi = _random_monomial_endo(R, rng)
        md = monomial_part(phi)
        M = md.matrix
        crit = M * M == M
        if crit:
            for i in range(3):
                prod = 1
                for j in range(3):
                    prod = prod * QQ.pow(QQ.coerce(md.lambdas[j]),
                                         M.entries[j][i])
                crit = crit and prod == 1
        assert crit == is_idempotent(phi)


def test_decomposition_invariant_samples():
    R = RingSignature(["x1", "x2", "x3"], 2, QQ)
    phi = Endomorphism(R, [R.variable(0), R.constant(1),
                           R.variable(2) + R.variable(1) - R.constant(1)])
    rng = random.Random(41)
    for _ in range(30):
        b = random_element(R, rng)
        img = apply(phi, b)
        assert apply(phi, b - img).is_zero()
        assert b == img + (b - img)


def test_conjugation_preserves_idempotency():
    from retractlab.generator import _elementary_automorphism
    rng = random.Random(47)
    R = RingSignature(["x1", "x2", "x3"], 2, QQ)
    for _ in range(40):
        phi = standard_projection(R, {rng.randrange(2)},
                                  {2} if rng.random() < 0.5 else set())
        alpha, alpha_inv = _elementary_automorphism(R, rng, 2)
        assert is_idempotent(conjugate(phi, alpha, alpha_inv))
        assert not is_idempotent(conjugate(swap2(), *_swap_pair()))


def _swap_pair():
    R = laurent2()
    sw = Endomorphism(R, [R.variable(1), R.variable(0)])
    return sw, sw


# -- the subalgebra search of require_idempotent -----------------------------

def named(name):
    with open(os.path.join(BENCH_NAMED, name + ".ring"), encoding="utf-8") as fh:
        return parse_problem(fh.read())[1]


def perturbed(phi, i):
    """phi with the image of x_i changed as in the benchmark's perturbed
    inputs: a Laurent image times x_i^2, a polynomial image plus x_i^2."""
    R = phi.ring
    square = R.variable(i) ** 2
    images = list(phi.images)
    images[i] = images[i] * square if i < R.laurent else images[i] + square
    return Endomorphism(R, images)


def control(phi):
    """phi with x_{d+1}·x_n added to the image of x_{d+1}."""
    R = phi.ring
    i = R.laurent
    images = list(phi.images)
    images[i] = images[i] + R.variable(i) * R.variable(R.n - 1)
    return Endomorphism(R, images)


def exactly_idempotent(phi):
    return all(delta.is_zero() for delta in idempotency_defect(phi))


def accepted(phi):
    try:
        require_idempotent(phi)
    except NotIdempotentError:
        return False
    return True


def counted_compositions(monkeypatch):
    calls = []
    compose = endo.compose

    def counting(phi, psi):
        calls.append((phi, psi))
        return compose(phi, psi)
    monkeypatch.setattr(endo, "compose", counting)
    return calls


def test_certificate_on_small_strata():
    # every small-stratum draw and two perturbed copies: the decision is
    # the exact one, and the search proves only idempotent maps
    drawn = proved = 0
    for dom in (QQ, ZZ, GF(5), GF(32003)):
        for n in range(2, 6):
            for d in range(1, min(3, n) + 1):
                for c in range(3):
                    for seed in range(5):
                        phi = gen_random_idempotent(
                            GeneratorSpec(n, d, seed % (d + 1), seed, c, dom))
                        assert accepted(phi) and exactly_idempotent(phi)
                        drawn += 1
                        proved += endo._subalgebra_proof(phi)[0] is True
                        for i in (0, n - 1):
                            bad = perturbed(phi, i)
                            exact = exactly_idempotent(bad)
                            assert accepted(bad) == exact
                            assert exact or (
                                endo._subalgebra_proof(bad)[0] is not True)
    assert drawn == 660 and proved >= 0.9 * drawn


def test_map_with_nothing_to_factor_is_expanded_once(monkeypatch):
    # x2 has a 1001-term image in R[x1^±], so ω would be phi and the check
    # ω∘phi = ω would be phi∘phi = phi: the gate sends it to phi∘phi, once
    R = RingSignature(["x1", "x2"], 1, QQ)
    x1 = R.variable(0)
    image = MixedPoly(R, [((k, 0), 1) for k in range(1001)])
    phi = Endomorphism(R, [x1 * R.constant(2), image])
    assert not endo._expansion_exceeds(phi)
    monkeypatch.setattr(endo, "_subalgebra_proof", None)
    calls = counted_compositions(monkeypatch)
    with pytest.raises(NotIdempotentError, match=r"phi²\(x1\) - phi\(x1\)"):
        require_idempotent(phi)
    assert calls == [(phi, phi)]


@pytest.mark.parametrize("name", ["QQ_n5d3r0c3_s1004",
                                  "GF32003_n5d3r0c3_s1004"])
def test_tail_instance_is_proved_without_phi_squared(name, monkeypatch):
    phi = named(name)
    calls = counted_compositions(monkeypatch)
    require_idempotent(phi)
    assert calls == []
    bad = perturbed(phi, 4)
    with pytest.raises(NotIdempotentError, match=r"phi²\(x4\) - phi\(x4\)"):
        require_idempotent(bad)
    assert calls == [(bad, bad)]  # the search refuted it; phi∘phi ran


def test_tampered_factorisation_does_not_certify(monkeypatch):
    phi = named("QQ_n5d3r0c3_s1004")
    R = phi.ring
    x = [R.variable(i) for i in range(R.n)]
    one = R.constant(1)
    # G = {phi(x4)}, named x4, and x5 has the witness 2*x4^2 + 2*x4
    witness = (x[3] * x[3] + x[3]) * R.constant(2)
    assert phi.images[4] == witness.substitute(x[:3] + [phi.images[3], x[4]])
    powers, omega = endo._subalgebra(phi, [3, 4], [endo.SUBDUCTION_PAIRS])
    assert list(powers) == [3] and powers[3][0] == phi.images[3]
    assert omega == list(phi.images[:3]) + [x[3], witness]
    assert endo._subalgebra_proof(phi) == (True, ())

    subalgebra = endo._subalgebra

    def off_by_one(*args):
        powers, omega = subalgebra(*args)
        omega[4] = omega[4] + one
        return powers, omega

    def tampered_sigma(*args):
        powers, omega = subalgebra(*args)
        powers[3] = [powers[3][0] + one]
        return powers, omega

    for tampered in (off_by_one, tampered_sigma):
        monkeypatch.setattr(endo, "_subalgebra", tampered)
        assert endo._subalgebra_proof(phi)[0] is not True
        calls = counted_compositions(monkeypatch)
        require_idempotent(phi)
        assert calls == [(phi, phi)]
        monkeypatch.undo()


@pytest.mark.parametrize("pairs, last", [
    # spent while the search grows a generator's powers: phi(x4)^2, 9 × 9
    pytest.param(40, 81, id="40"),
    # spent while it multiplies a subduction step by those powers, 1 × 39
    pytest.param(100, 39, id="100"),
])
def test_subduction_budget_gives_up(pairs, last, monkeypatch):
    phi = gen_random_idempotent(GeneratorSpec(5, 3, 0, 1004, 3, QQ))
    assert endo._subalgebra_proof(phi)[0] is True
    monkeypatch.setattr(endo, "SUBDUCTION_PAIRS", pairs)
    spend = endo._spend
    spent = []

    def spying(budget, pairs):
        spent.append(pairs)
        spend(budget, pairs)
    monkeypatch.setattr(endo, "_spend", spying)
    assert endo._subalgebra_proof(phi) == (None, ())
    assert spent[-1] == last and sum(spent) > pairs >= sum(spent[:-1])
    calls = counted_compositions(monkeypatch)
    require_idempotent(phi)
    assert calls == [(phi, phi)]


def test_sigma_is_charged_to_the_budget(monkeypatch):
    # seed 9128 is proved through σ(ω(g) - x_j): one pair short of what
    # the whole proof takes, the search ends in σ and gives up
    phi = gen_random_idempotent(GeneratorSpec(4, 0, 0, 9128, 3, QQ))
    spent, entered = [], []
    spend, sigma = endo._spend, endo._sigma

    def counting(budget, pairs):
        spent.append(pairs)
        spend(budget, pairs)

    def spying(f, powers, budget):
        entered.append(f)
        return sigma(f, powers, budget)
    monkeypatch.setattr(endo, "_spend", counting)
    monkeypatch.setattr(endo, "_sigma", spying)
    assert endo._subalgebra_proof(phi)[0] is True and entered
    monkeypatch.setattr(endo, "SUBDUCTION_PAIRS", sum(spent) - 1)
    del entered[:]
    assert endo._subalgebra_proof(phi) == (None, ())
    assert entered


def test_witness_with_a_unit_lead_and_a_laurent_part():
    # phi(x2) = x1*x2 leads with the unit x1, and phi(x3) = phi(x2)^2 + 3
    # has the witness x2^2 + 3, whose constant lies in R[x1^±]
    R = RingSignature(["x1", "x2", "x3"], 1, QQ)
    x1, x2 = R.variable(0), R.variable(1)
    square = (x1 * x2) ** 2
    phi = Endomorphism(R, [R.constant(1), x1 * x2, square + R.constant(3)])
    assert exactly_idempotent(phi)
    assert endo._subalgebra_proof(phi)[0] is True
    bad = Endomorphism(R, [R.constant(1), x1 * x2,
                           square + x1 + R.constant(3)])
    assert not exactly_idempotent(bad)
    assert endo._subalgebra_proof(bad)[0] is not True


@pytest.mark.parametrize("text, proved", [
    # the image x is not in S = R, so it joins G, and σ(ω(x) - z) = 1 - x
    ("z -> x", False),
    # phi mod J is the zero map, which is idempotent, but (x - 1)*z joins G
    # with no unit lead, and σ(-z) = z - x*z
    ("z -> x*z - z", False),
    # G = {x*z}, and ω(x*z) = z
    ("z -> x*z", True),
], ids=["image-in-L", "zero-mod-J", "unit-multiple"])
def test_soundness_traps(text, proved):
    phi = parse_problem("ring QQ[x^±,z]\nx -> 1\n%s\n" % text)[1]
    assert endo._subalgebra_proof(phi)[0] is proved
    assert exactly_idempotent(phi) == proved == accepted(phi)


@pytest.mark.parametrize("n, seed, dom", [
    (n, seed, dom) for n, seed in ((4, 26), (5, 21))
    for dom in (QQ, ZZ, GF(5), GF(32003))] + [(4, 49, QQ)], ids=repr)
def test_d0_draws_that_expanded_for_minutes_are_proved(n, seed, dom,
                                                      monkeypatch):
    phi = gen_random_idempotent(GeneratorSpec(n, 0, 0, seed, 4, dom))
    assert endo._expansion_exceeds(phi)
    assert endo._subalgebra_proof(phi)[0] is True
    calls = counted_compositions(monkeypatch)
    require_idempotent(phi)
    assert calls == []


def test_search_decides_seeded_maps_of_every_d(monkeypatch):
    # maps past the expansion gate, of every d from 0 to 3, and their
    # controls: each decision is confirmed by phi∘phi where that expands at
    # most 2*10^7 term products with no cancellation, and never wrong
    confirmed = set()
    for dom in (QQ, GF(32003)):
        for n, d, c in ((4, 0, 3), (5, 1, 4), (6, 1, 4), (5, 2, 4),
                        (5, 3, 3), (6, 3, 3)):
            for seed in range(100):
                phi = gen_random_idempotent(
                    GeneratorSpec(n, d, seed % (d + 1), seed, c, dom))
                if not endo._expansion_exceeds(phi):
                    continue
                for kind, psi in (("map", phi), ("control", control(phi))):
                    proved = endo._subalgebra_proof(psi)[0]
                    assert proved is not None, (dom, n, d, c, seed, kind)
                    assert kind == "control" or proved
                    with monkeypatch.context() as m:
                        m.setattr(endo, "EXPANSION_PRODUCTS", 2 * 10 ** 7)
                        if endo._expansion_exceeds(psi):
                            continue
                    assert exactly_idempotent(psi) == proved, \
                        (dom, n, d, c, seed, kind)
                    confirmed.add((d, proved))
    assert confirmed == {(d, p) for d in range(4) for p in (True, False)}
