"""Acceptance suite: one test per criterion, exact (tolerance-zero) checks.

Each test prints a PASS line after its assertions; run with `pytest -s` to
see them.
"""

import itertools
import json
import os
import random

from retractlab import (QQ, ZZ, GF, RingSignature, MixedPoly, Endomorphism,
                        analyze, parse_problem, render_problem)
from retractlab.cli import run_cli
from retractlab.endo import apply, is_idempotent, monomial_part
from retractlab.engine import quotient_mod_J
from retractlab.generator import GeneratorSpec, gen_random_idempotent
from retractlab.intlinalg import IntMatrix, solve_in_lattice
from dense_hnf import fixed_basis
from fraction_rank import fraction_rank
from random_elements import random_element

DATA = os.path.join(os.path.dirname(__file__), "data")


def _gen_pool(domains, count, pure, seed0, max_n=4, complexity=3):
    """Deterministic pool of generated idempotent instances."""
    rng = random.Random(seed0)
    pool = []
    while len(pool) < count:
        n = rng.randint(2, max_n)
        d = n if pure else rng.randint(1, n - 1)
        r = rng.randint(1, d) if d < n else rng.randint(1, max(1, d - 1))
        spec = GeneratorSpec(n=n, d=d, r=r, seed=rng.getrandbits(64),
                             complexity=rng.randint(0, complexity),
                             domain=rng.choice(domains))
        pool.append((spec, gen_random_idempotent(spec)))
    return pool


def test_criterion_1_pure_laurent_retracts_are_laurent_rings():
    pool = _gen_pool([QQ, GF(5)], 500, pure=True, seed0=1001)
    for spec, phi in pool:
        rep = analyze(phi)
        assert rep.classification.tag == "PureLaurent"
        assert rep.classification.params["r"] == rep.r == spec.r
        assert rep.trdeg == rep.r
        assert all(rep.certificates.values())
        # the certificates re-checked here at the matrix level
        dec = rep.decomposition
        M = dec.M
        assert M * M == M
        assert dec.Y * dec.T == IntMatrix.identity(spec.d)
        for i in range(spec.d):
            assert solve_in_lattice([row[i] for row in M.entries],
                                    fixed_basis(rep.decomposition)) is not None
    print("PASS criterion-1: 500 pure-Laurent instances all PureLaurent(r) "
          "with exact certificates")


def test_theorem_1_on_every_domain():
    # the paper's Theorem (1): a retract of R[x1^±..xn^±] is a Laurent ring
    # R[y1^±..yr^±], for every r from 0 (R itself) to n (the whole ring)
    count = 0
    for dom in (QQ, ZZ, GF(5), GF(32003)):
        for n in range(1, 5):
            for r in range(n + 1):
                for complexity in range(3):
                    spec = GeneratorSpec(n=n, d=n, r=r, seed=17 * n + r,
                                         complexity=complexity, domain=dom)
                    rep = analyze(gen_random_idempotent(spec))
                    want = ("CoefficientRing" if r == 0 else "WholeRing"
                            if r == n else "PureLaurent(r=%d)" % r)
                    assert repr(rep.classification) == want, (dom, n, r)
                    assert rep.r == rep.trdeg == r
                    assert all(rep.certificates.values())
                    count += 1
    assert count == 168


def test_criterion_2_worked_example_e1():
    with open(os.path.join(DATA, "e1.ring"), encoding="utf-8") as fh:
        _, phi = parse_problem(fh.read())
    rep = analyze(phi)
    assert rep.r == 1
    assert str(phi.ring.monomial(rep.y_variables[0].exponent)) == "x1*x2"
    assert str(phi.ring.monomial(rep.y_variables[1].exponent)) == "x2"
    assert rep.decomposition.Y == IntMatrix([[1, 0], [1, 1]])
    assert rep.decomposition.T == IntMatrix([[1, 0], [-1, 1]])
    assert rep.classification.tag == "PureLaurent"
    assert rep.classification.params == {"r": 1}
    print("PASS criterion-2: worked example E1 reproduced exactly")


def test_criterion_3_retract_presentation_invariants():
    pool = _gen_pool([QQ, GF(5)], 40, pure=True, seed0=3001) + \
        _gen_pool([QQ], 40, pure=False, seed0=3002)
    for spec, phi in pool:
        rep = analyze(phi)
        ring = phi.ring
        rng = random.Random(spec.seed)
        dec = rep.decomposition
        basis = fixed_basis(dec)
        # scalar-fixedness on random fixed-lattice vectors
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            b = tuple(sum(c * v[k] for c, v in zip(coeffs, basis))
                      for k in range(ring.laurent))
            mono = ring.monomial(b + (0,) * (ring.n - ring.laurent))
            assert apply(phi, mono) == mono
        # phi(J) = 0 on generators and random combinations
        j_gens = [y.poly - ring.constant(1) for y in rep.y_variables
                  if y.kind == "killed"]
        for g in j_gens:
            assert apply(phi, g).is_zero()
        for _ in range(20):
            combo = ring.zero()
            for g in j_gens:
                combo = combo + random_element(ring, rng) * g
            assert apply(phi, combo).is_zero()
        # quotient injectivity on samples
        for _ in range(10):
            b = random_element(ring, rng)
            img = apply(phi, b)
            if not img.is_zero():
                _, (q,) = quotient_mod_J(ring, [img], dec, rep.y_variables)
                assert not q.is_zero()
    print("PASS criterion-3: presentation invariants hold on 80 instances")


def test_criterion_4_trdeg_bounds_and_unit_rank_oracle():
    mixed = _gen_pool([QQ], 200, pure=False, seed0=4001)
    pure = _gen_pool([QQ, GF(5)], 60, pure=True, seed0=4002)
    for spec, phi in mixed + pure:
        rep = analyze(phi)
        n, d, r = phi.ring.n, phi.ring.laurent, rep.r
        if isinstance(rep.trdeg, int):
            assert r <= rep.trdeg <= r + n - d
        else:
            lo, hi = rep.trdeg
            assert r <= lo <= hi <= r + n - d
    for spec, phi in mixed:
        rep = analyze(phi)
        fixed = [y.exponent for y in rep.y_variables if y.kind == "fixed"]
        assert len(fixed) == fraction_rank(fixed) == rep.r
    print("PASS criterion-4: bounds on 260 instances; the fixed coordinates' "
          "exponent vectors have rank r on 200 mixed instances")


def _extend_fixing_fresh_laurent(phi, m):
    ring = phi.ring
    big = RingSignature(list(ring.names)
                        + ["z%d" % (k + 1) for k in range(m)],
                        ring.laurent + m, ring.domain)

    def lift(p):
        return MixedPoly(big, [(exp + (0,) * m, c) for exp, c in p.terms])

    images = [lift(img) for img in phi.images] + \
        [big.variable(ring.n + k) for k in range(m)]
    return Endomorphism(big, images)


def test_criterion_5_laurent_cancellation():
    rng = random.Random(5001)
    for _ in range(50):
        n = rng.randint(2, 3)
        r = rng.randint(1, n - 1)
        spec = GeneratorSpec(n=n, d=n, r=r, seed=rng.getrandbits(64),
                             complexity=rng.randint(0, 3), domain=QQ)
        phi = gen_random_idempotent(spec)
        m = rng.randint(1, 2)
        ext = _extend_fixing_fresh_laurent(phi, m)
        rep = analyze(ext)
        assert rep.classification.tag == "PureLaurent"
        assert rep.classification.params["r"] == r + m
    print("PASS criterion-5: 50 extensions analyze to PureLaurent(r+m)")


def test_criterion_6_classification_table():
    cases = [
        ("ring QQ[x1^±,x2^±]\nx1 -> x1\nx2 -> x2\n", "WholeRing", {}),
        ("ring QQ[x1^±,x2^±]\nx1 -> 1\nx2 -> 1\n", "CoefficientRing", {}),
        ("e3.ring", "PureLaurent", {"r": 1}),
        ("e7.ring", "LaurentTensorPoly", {"r": 1, "s": 1}),
        ("ufd.ring", "UFDClassified", None),
    ]
    for src, tag, params in cases:
        if src.endswith(".ring"):
            with open(os.path.join(DATA, src), encoding="utf-8") as fh:
                src = fh.read()
        _, phi = parse_problem(src)
        rep = analyze(phi)
        assert rep.classification.tag == tag
        if params is not None:
            assert rep.classification.params == params
        else:
            assert rep.classification.params["r"] == 1
            assert rep.classification.params["s"] == 1
        assert rep.rationality == "Rational"
    print("PASS criterion-6: handcrafted classification table")


def test_criterion_7_oracle_equivalences():
    rng = random.Random(7001)
    ring = RingSignature(["x1", "x2", "x3"], 3, QQ)
    idempotent_seen = 0
    for k in range(1000):
        if k % 5 == 0:
            # mix in true idempotents so both branches are exercised
            spec = GeneratorSpec(n=3, d=3, r=rng.randint(0, 3),
                                 seed=rng.getrandbits(64),
                                 complexity=rng.randint(0, 2), domain=QQ)
            phi = gen_random_idempotent(spec)
        else:
            images = [ring.monomial(tuple(rng.randint(-2, 2) for _ in range(3)),
                                    rng.choice([-2, -1, 1, 2]))
                      for _ in range(3)]
            phi = Endomorphism(ring, images)
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
        idempotent_seen += crit
    assert 0 < idempotent_seen < 1000

    decided = 0
    for _ in range(200):
        d = rng.randint(1, 3)
        k = rng.randint(1, 2)
        basis = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        got = solve_in_lattice(v, basis)
        brute = _brute_member(v, basis)
        if brute:
            assert got is not None
        if got is None:
            assert not brute
        elif all(abs(c) <= 9 for c in got):
            assert brute
            decided += 1
    assert decided > 0
    print("PASS criterion-7: monomial idempotency criterion on 1000 maps; "
          "lattice membership vs enumeration")


def _brute_member(v, basis, bound=9):
    for coords in itertools.product(*([range(-bound, bound + 1)] * len(basis))):
        cand = tuple(sum(c * b[k] for c, b in zip(coords, basis))
                     for k in range(len(v)))
        if cand == v:
            return True
    return False


def test_criterion_8_cli_and_golden_files():
    # parser round-trip identity on the corpus
    for name in sorted(os.listdir(DATA)):
        if name == "undeclared.ring":
            continue
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            _, phi = parse_problem(fh.read())
        text = render_problem(phi)
        _, phi2 = parse_problem(text)
        assert phi2 == phi

    # analyze --json byte-identical across two runs
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a.json")
        b = os.path.join(tmp, "b.json")
        src = os.path.join(DATA, "e1.ring")
        assert run_cli(["analyze", "--json", src, "--out", a]) == 0
        assert run_cli(["analyze", "--json", src, "--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            blob = fa.read()
            assert blob == fb.read()
        json.loads(blob)

    # exit codes 0 / 1 / 2 on the three golden inputs
    assert run_cli(["check", os.path.join(DATA, "e1.ring")]) == 0
    assert run_cli(["check", os.path.join(DATA, "swap.ring")]) == 1
    assert run_cli(["check", os.path.join(DATA, "undeclared.ring")]) == 2
    print("PASS criterion-8: CLI round-trip, deterministic JSON, exit codes")
