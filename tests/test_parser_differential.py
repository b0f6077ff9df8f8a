"""The term-level expression parser against the recursive-descent parser it
replaced.

`reference_parse` is that parser, kept as it was: every factor becomes a
`MixedPoly` and products and powers go through the ring.  On seeded random
expression strings, valid and malformed, the two must give equal
polynomials or the same `ParseError` message, line and column, whether
`parse_expression` takes the flat-sum path or recursive descent.
"""

import collections
import os
import random
import re
from fractions import Fraction

import pytest

from retractlab import (QQ, ZZ, GF, RingSignature, MixedPoly, NonUnitError,
                        parse_problem)
from retractlab import grammar
from retractlab.grammar import MAX_NESTING, ParseError, parse_expression


# The reference's own tokenizer, as it was beside that parser, so the
# production scanner is compared with an independent one.  Its \d also takes
# non-ASCII digits; the expressions below use only ASCII ones.
class _Token:
    __slots__ = ("kind", "value", "col")

    def __init__(self, kind, value, col):
        self.kind = kind
        self.value = value
        self.col = col


# a number with an optional /denominator, an identifier, an operator, or
# any other non-space character (an error)
_TOKEN_RE = re.compile(
    r"(\d+)(/\d*)?|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()])|(\S)")


def _tokenize(text, lineno):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        num, den, ident, op, other = m.groups()
        col = m.start() + 1
        if num is not None:
            if den is not None:
                if den == "/":
                    raise ParseError("expected digits after '/'", lineno,
                                     m.end() + 1)
                den = int(den[1:])
            tokens.append(_Token("number", (int(num), den), col))
        elif ident is not None:
            tokens.append(_Token("ident", ident, col))
        elif op is not None:
            tokens.append(_Token(op, op, col))
        else:
            raise ParseError("unexpected character %r" % other, lineno, col)
    tokens.append(_Token("end", None, len(text) + 1))
    return tokens


class _ReferenceParser:

    def __init__(self, ring, text, lineno):
        self.ring = ring
        self.lineno = lineno
        self.tokens = _tokenize(text, lineno)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            found = repr(tok.value)
            if tok.kind == "number":  # the source text of the number
                found = repr("/".join(str(x) for x in tok.value
                                      if x is not None))
            elif tok.kind == "end":
                found = "end of line"
            raise ParseError("expected %s, found %s" % (kind, found),
                             self.lineno, tok.col)
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError("unexpected trailing %r" % tail.value,
                             self.lineno, tail.col)
        return value

    def expr(self):
        value = self.term()
        if self.peek().kind not in ("+", "-"):
            return value
        terms = list(value.terms)
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            terms.extend(rhs.terms if op.kind == "+" else (-rhs).terms)
        return MixedPoly(self.ring, terms)

    def term(self):
        value = self.unary()
        while self.peek().kind == "*":
            self.take()
            value = value * self.unary()
        return value

    def unary(self):
        negate = False
        while self.peek().kind == "-":
            self.take()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self):
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.take()
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        num, den = self.take("number").value
        if den is not None:
            raise ParseError("exponent must be an integer", self.lineno, caret.col)
        if sign < 0 and base.is_unit() is None:
            ring = self.ring
            if len(base.terms) == 1 and any(
                    base.terms[0][0][i] for i in range(ring.laurent, ring.n)):
                bad = next(ring.names[i] for i in range(ring.laurent, ring.n)
                           if base.terms[0][0][i])
                raise ParseError(
                    "negative exponent on polynomial variable %s" % bad,
                    self.lineno, caret.col)
        try:
            return base ** (sign * num)
        except (NonUnitError, ValueError) as exc:
            raise ParseError(str(exc), self.lineno, caret.col) from None

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            num, den = tok.value
            try:
                c = self.ring.domain.from_fraction(num, 1 if den is None else den)
            except ValueError as exc:
                raise ParseError(str(exc), self.lineno, tok.col) from None
            return self.ring.constant(c)
        if tok.kind == "ident":
            self.take()
            if tok.value not in self.ring.names:
                raise ParseError("undeclared identifier %r" % tok.value,
                                 self.lineno, tok.col)
            return self.ring.variable(self.ring.names.index(tok.value))
        if tok.kind == "(":
            self.take()
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d"
                                 % MAX_NESTING, self.lineno, tok.col)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.take(")")
            return value
        raise ParseError("expected a term, found %s"
                         % ("end of line" if tok.kind == "end"
                            else repr(tok.value)), self.lineno, tok.col)


def reference_parse(ring, text, lineno=1):
    return _ReferenceParser(ring, text, lineno).parse()


def outcome(parse, *args):
    try:
        return ("ok", parse(*args))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)
    except TypeError as exc:
        # the reference formats a trailing number token's (numerator,
        # denominator) pair as two arguments of a one-argument message
        assert parse is reference_parse and "not all arguments" in str(exc)
        return ("trailing number",)


def assert_same_outcome(ring, text, lineno):
    expected = outcome(reference_parse, ring, text, lineno)
    got = outcome(parse_expression, ring, text, lineno)
    if expected[0] == "trailing number":
        assert got[0] == "error", text
        assert got[1].startswith("unexpected trailing '"), text
    else:
        assert got == expected, text
    return expected[0]


RINGS = [
    RingSignature(["x", "y", "z"], 2, QQ),
    RingSignature(["x", "y", "z"], 2, ZZ),
    RingSignature(["x", "y", "z"], 2, GF(5)),
    RingSignature(["x", "y", "z"], 1, GF(32003)),
    RingSignature(["a", "b"], 0, QQ),
    RingSignature(["u"], 1, ZZ),
]

NUMBERS = ("0", "1", "2", "3", "5", "10", "12", "1/2", "3/4", "2/5", "6/3",
           "0/7", "5/10")
MALFORMED_NUMBERS = ("7/0", "3/", "1/5")
POWERS = ("^0", "^1", "^2", "^3", "^-0", "^-1", "^-2", "^-3")
MALFORMED_POWERS = ("^1/2", "^x", "^--1", "^", "^(2)", "^+1", "^2^2")
JUNK = (")", "(", "$", "*", "+", "^", "é", "**", "-", "x y", "2 3",
        "²")


def random_factor(rng, names, depth):
    minus = "-" * rng.choice((0, 0, 0, 1, 2, 3))
    r = rng.random()
    if r < 0.45:
        atom = rng.choice(names + ["w"] if rng.random() < 0.05 else names)
    elif r < 0.8 or depth >= 2:
        atom = rng.choice(MALFORMED_NUMBERS if rng.random() < 0.05
                          else NUMBERS)
    else:
        atom = "(%s)" % random_sum(rng, names, depth + 1)
    power = ""
    r = rng.random()
    if r < 0.03:
        power = rng.choice(MALFORMED_POWERS)
    elif r < 0.45:
        power = rng.choice(POWERS)
    return minus + atom + power


def random_sum(rng, names, depth=0):
    pieces = []
    for i in range(rng.randint(1, 4)):
        if i:
            pieces.append(rng.choice((" + ", " - ", "+", "-", " -- ")))
        factors = [random_factor(rng, names, depth)
                   for _ in range(rng.randint(1, 3))]
        pieces.append(rng.choice(("*", " * ")).join(factors))
    return "".join(pieces)


def random_expression(rng, names):
    text = random_sum(rng, names)
    if rng.random() < 0.1:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(JUNK) + text[at:]
    return text


def random_flat_sum(rng, names):
    """A sum in the form `render_problem` writes, products of numbers and
    variable powers with no whitespace inside, now and then with an
    undeclared name, a malformed number or a power on a number."""
    pieces = ["-" if rng.random() < 0.3 else ""]
    for i in range(rng.randint(1, 5)):
        if i:
            pieces.append(rng.choice((" + ", " - ", "+", "-")))
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                factor = rng.choice(MALFORMED_NUMBERS if rng.random() < 0.05
                                    else NUMBERS)
                if rng.random() < 0.02:
                    factor += rng.choice(POWERS)
            else:
                factor = rng.choice(names + ["w"] if rng.random() < 0.02
                                    else names)
                if rng.random() < 0.5:
                    factor += rng.choice(POWERS)
            factors.append(factor)
        pieces.append("*".join(factors))
    return "".join(pieces)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_random_expressions_match_reference(ring, monkeypatch):
    flat = []
    parse_flat = grammar._parse_flat

    def recording(*args):
        value = parse_flat(*args)
        flat.append(value is not None)
        return value
    monkeypatch.setattr(grammar, "_parse_flat", recording)
    rng = random.Random(RINGS.index(ring))
    names = list(ring.names)
    kinds = {"ok": 0, "error": 0, "trailing number": 0}
    paths = {"flat": 0, "descent": 0}
    for i in range(1500):
        text = (random_expression(rng, names) if i < 1000
                else random_flat_sum(rng, names))
        kind = assert_same_outcome(ring, text, 3)
        kinds[kind] += 1
        if kind == "ok":
            paths["flat" if flat[-1] else "descent"] += 1
    # valid and malformed input both get real use, and the valid input
    # reaches both the flat-sum parser and recursive descent
    assert kinds["ok"] > 100 and kinds["error"] > 100, kinds
    assert paths["flat"] > 100 and paths["descent"] > 100, paths


EXPRESSIONS = [
    # parentheses and runs of unary minus
    "--x", "---(x - y)", "-(-(x))*-y", "x*--y", "x - -y", "x + ---2",
    "-(x + 1)^2*-(y - 1)", "((x))", "(((x + y)*(x - y)))^2", "()", "(x",
    "x)", "-", "x -", "* x", "x ** 2",
    # negative exponents on Laurent and on polynomial variables
    "x^-3*y^-1", "z^-1", "z^-0", "x^-1*z^-2", "(x*z)^-1", "(2*z)^-2",
    "(x*y)^-2", "(x + y)^-1", "(x^-1*y)^-3*z^2",
    # numbers as bases, and exponents that are not integers
    "2^-1", "2^-1*x", "0^0", "0^-0", "0^-1", "0*x", "x*0", "0*z^-1",
    "x^1/2", "3/2^2", "(3/2)^-2", "-1^-3", "1/2^-1", "5^-1", "10/5",
    "2/4*x^2", "x^--1", "x^y", "x^", "x^2^2",
    # every expression-level error class
    "w", "x + w^2", "1/2*x", "é", "x^²", "x $ 1", "3/ * x",
    "1/0", "x + )", "x 3", "(x + 1) 3/4", "(x 3/4)", "%sx%s" % ("(" * (MAX_NESTING + 1), ")" * (MAX_NESTING + 1)),
    "%sx%s" % ("(" * MAX_NESTING, ")" * MAX_NESTING),
    # spacing around a caret and its sign, which the flat parser's word
    # split must not glue into a factor
    "x^ - 3", "x ^ -3", "x^\t-\t3", "x^- y", "x^+3", "x^-y+1",
    # sign placement
    "+x", "x + +y", "x +-y", "- x + y", "x +", "x*-y", "2*-x", "x-1/2",
    # each kind of whitespace around a sign
    "x\t-\ty", "x\v-\vy", "x\f-\fy", "x\u00a0-\u00a0y", "x\u2003-\u2003y",
]


@pytest.mark.parametrize("ring", RINGS[:4], ids=repr)
def test_listed_expressions_match_reference(ring):
    for text in EXPRESSIONS:
        assert_same_outcome(ring, text, 2)


PROBLEMS = [
    "ring QQ[x1^±,x2]\nx1 -> x1\nx2 -> undeclared\n",
    "ring QQ[x1^±,x2]\nx1 -> x1\nx2 -> x2^-1\n",
    "ring GF(6)[x^±]\nx -> x\n",
    "ring QQ[x^±]\nx -> x\nx -> 1\n",
    "ring QQ[x^±,y^±]\nx -> x\n",
    "ring QQ[x,y^±]\nx -> x\ny -> y\n",
    "ring ZZ[x^±]\nx -> 1/2*x\n",
    "ring QQ[x^±]\nx -> é\n",
    "ring QQ[x^±]\nx -> x^²\n",
    "ring QQ[x^±]\nx -> x $ 1\n",
    "ring QQ[x^±]\nx -> 3/ * x\n",
    "ring QQ[x^±]\nx -> x + )\n",
    "ring GF(5)[x^±,y]\nx -> 2^-1*x\ny -> 5^-1*y\n",
    "ring GF(5)[x^±,y]\nx -> 2^-1*x^-1*x^2\ny -> 3/2*y^2\n",
    "ring ZZ[x^±,y]\nx -> x\ny -> 2^-1*y\n",
    "ring QQ[x^±,y]\nx -> x\ny -> -(y - 1)^2 + 2*y - 1\n",
    # one factor text repeated across the terms of a line, and in a term
    "ring QQ[x^±,y]\nx -> x\n"
    "y -> 2*x^-3*y + 2*x^-3*y^2 - x^-3 + 1/2*x^-3*y*y + 1/2 - 2*y*x^-3\n",
    "ring GF(5)[x^±,y]\nx -> 3*x*x^-1*x\ny -> 3*y - 3*y + y^2*3 + x*y^2\n",
    # a factor that decodes, then one that is rejected
    "ring QQ[x^±,y]\nx -> x\ny -> y^2 + y^-1\n",
    "ring QQ[x^±]\nx -> 2/4*x + 2/4*x\n",
    "ring ZZ[x^±]\nx -> 2/4*x + 2/4*x\n",
    "ring QQ[x^±]\nx -> x + 3/0*x\n",
    "ring GF(5)[x^±,y]\nx -> x\ny -> y + 2/10*y\n",
    "ring QQ[x^±,y,x]\nx -> x\ny -> y\n",
]


def test_problem_files_match_reference(monkeypatch):
    expected = []
    with monkeypatch.context() as m:
        m.setattr(grammar, "parse_expression", reference_parse)
        for text in PROBLEMS:
            expected.append(outcome(parse_problem, text))
    for text, want in zip(PROBLEMS, expected):
        got = outcome(parse_problem, text)
        if want[0] == "ok":
            assert got[0] == "ok" and got[1][0] == want[1][0], text
            assert got[1][1].images == want[1][1].images, text
        else:
            assert got == want, text
    assert sum(want[0] == "error" for want in expected) == len(PROBLEMS) - 5


# -- kept text ---------------------------------------------------------------
#
# A flat sum that is exactly its value's print keeps that text, and `str`
# returns it.  Canonical lines, and seeded mutations of them, are parsed;
# whenever a value keeps text, the text must be the stripped input, a fresh
# print of the value's terms, and the terms must be recursive descent's.

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
BENCH_NAMED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "named")
KEPT_DOMAINS = (QQ, ZZ, GF(2), GF(5), GF(32003))
COEFFICIENTS = {QQ: (1, -1, 2, -3, 12, Fraction(1, 2), Fraction(-3, 4),
                     Fraction(7, 3)),
                ZZ: (1, -1, 2, -3, 12, 100)}


def fresh_print(p):
    return MixedPoly.__str__(MixedPoly._trusted(p.ring, p.terms))


def random_line(ring, rng):
    """The print of a random nonzero element of up to 6 terms."""
    dom = ring.domain
    pool = COEFFICIENTS.get(dom) or (1, 2, 3, dom.p - 1, dom.p // 2)
    while True:
        terms = [(tuple(rng.randint(-3 if i < ring.laurent else 0, 3)
                        for i in range(ring.n)), rng.choice(pool))
                 for _ in range(rng.randint(1, 6))]
        p = MixedPoly(ring, terms)
        if p.terms:
            return fresh_print(p)


def split_terms(text):
    """[sign, factors] per term of a canonical print."""
    parts = re.split(r" ([-+]) ", text)
    first = parts[0]
    terms = [["-", first[1:]] if first[0] == "-" else ["+", first]]
    terms += [list(t) for t in zip(parts[1::2], parts[2::2])]
    return [[sign, body.split("*")] for sign, body in terms]


def join_terms(terms):
    pieces = []
    for sign, factors in terms:
        body = "*".join(factors)
        if pieces:
            pieces.append(" %s %s" % (sign, body))
        else:
            pieces.append(body if sign == "+" else "-" + body)
    return "".join(pieces)


def _variables(terms):
    """(term, factor) positions of the variable factors."""
    return [(t, f) for t, (_, factors) in enumerate(terms)
            for f, factor in enumerate(factors) if factor[0] > "9"]


def _respace(new):
    def mutate(text, terms, rng, ring):
        seps = [m.start() for m in re.finditer(" [-+] ", text)]
        if not seps:
            return None
        at = rng.choice(seps)
        return text[:at] + new(text[at + 1]) + text[at + 3:]
    return mutate


def _on_variable(edit):
    def mutate(text, terms, rng, ring):
        spots = _variables(terms)
        if not spots:
            return None
        t, f = rng.choice(spots)
        name, _, power = terms[t][1][f].partition("^")
        terms[t][1][f:f + 1] = edit(name, power)
        return join_terms(terms)
    return mutate


def _on_term(edit):
    def mutate(text, terms, rng, ring):
        edit(rng.choice(terms), ring)
        return join_terms(terms)
    return mutate


def _shift(delta):
    """A term's coefficient k, when an integer, written as k + delta·p
    (p = 5 over QQ and ZZ): 32004 for 1 over GF(32003), -2 for 3 and 5 for
    0 over GF(5)."""
    def edit(term, ring):
        sign, factors = term
        if factors[0].isdigit():
            k = int(factors.pop(0))
        elif factors[0][0] > "9":
            k = 1
        else:
            return  # a fraction
        k = (-k if sign == "-" else k) + delta * (ring.domain.p or 5)
        term[0] = "-" if k < 0 else "+"
        factors.insert(0, str(abs(k)))
    return _on_term(edit)


def _insert(*numbers):
    def edit(term, ring):
        term[1][0:0] = numbers
    return _on_term(edit)


def _append(term):
    return lambda text, terms, rng, ring: "%s + %s" % (
        text, term % rng.choice(ring.names))


MUTATIONS = [
    ("doubled space", lambda text, terms, rng, ring:
        text.replace(" ", "  ", 1)),
    ("tab", lambda text, terms, rng, ring: text.replace(" ", "\t", 1)),
    ("leading space", lambda text, terms, rng, ring: " " + text),
    ("trailing space", lambda text, terms, rng, ring: text + " \n"),
    ("glued +", _respace(lambda sign: " " + sign)),
    ("glued term", _respace(lambda sign: sign + " ")),
    ("no spaces", _respace(lambda sign: sign)),
    ("- x at the start", lambda text, terms, rng, ring:
        "- " + text[text[0] == "-":]),
    ("negated", lambda text, terms, rng, ring:
        text[1:] if text[0] == "-" else "-" + text),
    ("^1", _on_variable(lambda name, power: [name + "^1"])),
    ("^0", _on_variable(lambda name, power: [name + "^0"])),
    ("^02", _on_variable(lambda name, power: [
        name + "^" + re.sub("[0-9]", "0\\g<0>", power or "1", 1)])),
    ("^-0", _on_variable(lambda name, power: [name + "^-0"])),
    ("repeated variable", _on_variable(
        lambda name, power: [name + "^" + power if power else name, name])),
    ("1*", _insert("1")),
    ("3*1*", _insert("3", "1")),
    ("swapped factors", _on_term(lambda term, ring: term[1].reverse())),
    ("reversed terms", lambda text, terms, rng, ring:
        join_terms(terms[::-1])),
    ("duplicated term", lambda text, terms, rng, ring:
        join_terms(terms + [rng.choice(terms)])),
    ("cancelling term", lambda text, terms, rng, ring: join_terms(
        terms + [["-+"[t[0] == "-"], t[1]] for t in [rng.choice(terms)]])),
    ("+ 0", lambda text, terms, rng, ring: text + " + 0"),
    ("0*y", _append("0*%s")),
    ("2/4", _append("2/4*%s")),
    ("p*x", lambda text, terms, rng, ring: "%s + %d*%s" % (
        text, ring.domain.p or 5, rng.choice(ring.names))),
    ("k + p", _shift(1)),
    ("k - p", _shift(-1)),
]


# the mutations that leave a canonical line canonical: an outer space, a
# negation over QQ or ZZ, a coefficient moved by p over QQ or ZZ, or a
# term appended after the others
MAY_KEEP = {"leading space", "trailing space", "negated", "k + p", "k - p",
            "p*x"}


def check_kept(ring, text):
    """Parse text; if the value keeps text, it must be the true print."""
    try:
        value = parse_expression(ring, text)
    except ParseError:
        return "error"
    if not isinstance(value, grammar._PrintedPoly):
        return "printed"
    assert str(value) == text.strip() == fresh_print(value), text
    expected = grammar._ExprParser(ring, text, 1).parse().terms
    assert value.terms == expected, text
    assert ([type(c) for _, c in value.terms]
            == [type(c) for _, c in expected]), text
    return "kept"


def check_mutations(ring, text, rng, mutations, stats):
    assert check_kept(ring, text) == "kept", text
    for name, mutate in mutations:
        mutated = mutate(text, split_terms(text), rng, ring)
        if mutated is not None and mutated != text:
            outcome = check_kept(ring, mutated)
            stats[name, outcome] += 1
            assert outcome != "kept" or name in MAY_KEEP, (name, mutated)


def file_lines(path):
    with open(path, encoding="utf-8") as fh:
        ring, phi = parse_problem(fh.read())
    return ring, [fresh_print(img) for img in phi.images if img.terms]


def test_kept_text_is_the_print_of_random_elements():
    stats = collections.Counter()
    rng = random.Random(29)
    for dom in KEPT_DOMAINS:
        for names, laurent in ((("x", "y", "z"), 2), (("a", "b"), 0),
                               (("u", "v"), 2)):
            ring = RingSignature(names, laurent, dom)
            for _ in range(16):
                check_mutations(ring, random_line(ring, rng), rng,
                                MUTATIONS, stats)
    # every mutation changed some line, and each of those that may keep a
    # line did
    for name, _ in MUTATIONS:
        assert sum(n for key, n in stats.items() if key[0] == name), name
        assert (stats[name, "kept"] > 0) == (name in MAY_KEEP), (name, stats)


def test_kept_text_is_the_print_of_file_images():
    stats = collections.Counter()
    rng = random.Random(30)
    for name in sorted(os.listdir(DATA)):
        if name != "undeclared.ring":
            ring, lines = file_lines(os.path.join(DATA, name))
            for text in lines:
                check_mutations(ring, text, rng, MUTATIONS, stats)
    # the named files' images have up to ~1,000 terms: one mutation each
    for name in sorted(os.listdir(BENCH_NAMED)):
        ring, lines = file_lines(os.path.join(BENCH_NAMED, name))
        for text in lines:
            check_mutations(ring, text, rng, [rng.choice(MUTATIONS)], stats)
    assert sum(stats.values()) > 200, stats
