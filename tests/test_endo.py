import random

import pytest

from retractlab import (QQ, RingSignature, Endomorphism, IntMatrix,
                        identity, require_valid, apply, compose, is_idempotent,
                        monomial_part, conjugate, standard_projection,
                        InvalidEndomorphismError)
from random_elements import random_element


def laurent2():
    return RingSignature(["x1", "x2"], 2, QQ)


def e1():
    R = laurent2()
    return Endomorphism(R, [R.variable(0) * R.variable(1), R.one()])


def swap2():
    R = laurent2()
    return Endomorphism(R, [R.variable(1), R.variable(0)])


def test_validate():
    R = laurent2()
    require_valid(e1())
    bad = Endomorphism(R, [R.variable(0) + R.variable(1), R.variable(1)])
    with pytest.raises(InvalidEndomorphismError):
        require_valid(bad)
    M = RingSignature(["x1", "x2"], 1, QQ)
    ok = Endomorphism(M, [M.variable(0),
                          M.variable(0) + M.monomial((-1, 0))])
    require_valid(ok)  # x2 is not in the Laurent block, no unit constraint


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
        M.from_terms([((2, 0), 1), ((0, 0), 2), ((-2, 0), 1)])


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
    phi = Endomorphism(M, [M.variable(0), M.one(),
                           M.variable(2) + M.variable(1) - M.one()])
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
    assert proj.images == (R.one(), R.one())
    assert standard_projection(R, {0, 1}) == identity(R)
    keep1 = standard_projection(R, {0})
    assert keep1.images == (R.variable(0), R.one())
    assert is_idempotent(keep1)
    M = RingSignature(["x1", "x2"], 1, QQ)
    assert standard_projection(M).images == (M.one(), M.zero())


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
                prod = QQ.one()
                for j in range(3):
                    prod = prod * QQ.pow(QQ.coerce(md.lambdas[j]),
                                         M.entries[j][i])
                crit = crit and prod == 1
        assert crit == is_idempotent(phi)


def test_decomposition_invariant_samples():
    R = RingSignature(["x1", "x2", "x3"], 2, QQ)
    phi = Endomorphism(R, [R.variable(0), R.one(),
                           R.variable(2) + R.variable(1) - R.one()])
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
