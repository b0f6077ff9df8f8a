"""Reduction mod p keeps the unit rank and bounds the transcendence degree.

A map over ZZ or QQ whose printed coefficients have no denominator
divisible by p reduces to a map over GF(p).  Its Laurent images are units
±x^e or c·x^e with c a unit mod p, so the monomial part M, and with it
r = rank M, is the same, and the reduced retract's trdeg interval over
GF(p) must hold the exact trdeg read in characteristic 0.  Each input is
printed with `render_problem`, its header is rewritten to GF(p), and the
text is parsed and analyzed again.
"""

import os

import pytest

from retractlab import (GF, QQ, ZZ, GeneratorSpec, analyze,
                        gen_random_idempotent, parse_problem, render_problem)

TESTS = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(TESTS, "data")
NAMED = os.path.join(os.path.dirname(TESTS), "bench", "named")
PRIMES = (2, 3, 5, 7, 32003)


def zz_draws():
    """The 500 small-style ZZ draws: n 2-6, every d, complexity 0-3 and
    seeds 0-4, r = seed mod (d + 1)."""
    for n in range(2, 7):
        for d in range(n + 1):
            for c in range(4):
                for seed in range(5):
                    yield gen_random_idempotent(
                        GeneratorSpec(n, d, seed % (d + 1), seed, c, ZZ))


def qq_files():
    """The QQ golden files that analyze, and QQ 1004, 1014 and 1016."""
    paths = [os.path.join(DATA, name + ".ring")
             for name in ("e1", "e3", "e7", "ufd")]
    paths += [os.path.join(NAMED, name) for name in sorted(os.listdir(NAMED))
              if name.startswith("QQ_")]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield parse_problem(fh.read())[1]


def reduced(text, p):
    """The problem text with its QQ or ZZ header rewritten to GF(p)."""
    header, sep, rest = text.partition("\n")
    assert header.startswith(("ring QQ[", "ring ZZ[")), header
    return "ring GF(%d)%s%s%s" % (p, header[len("ring QQ"):], sep, rest)


@pytest.fixture(scope="module")
def analyzed():
    """(printed text, report) of each input over ZZ or QQ."""
    maps = list(zz_draws()) + list(qq_files())
    assert len(maps) == 507
    assert {phi.ring.domain for phi in maps} == {ZZ, QQ}
    return [(render_problem(phi), analyze(phi)) for phi in maps]


@pytest.mark.parametrize("p", PRIMES)
def test_reduction_keeps_r_and_bounds_trdeg(p, analyzed):
    intervals = 0
    for text, rep in analyzed:
        ring, psi = parse_problem(reduced(text, p))
        assert ring.domain == GF(p) and ring.names == rep.ring.names
        red = analyze(psi)
        assert red.r == rep.r, text
        if isinstance(red.trdeg, tuple):
            intervals += 1
            lo, hi = red.trdeg
            assert lo <= rep.trdeg <= hi, text
        else:  # a pure Laurent ring: trdeg is r
            assert red.trdeg == rep.trdeg, text
    assert intervals
