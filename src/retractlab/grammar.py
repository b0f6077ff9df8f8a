"""Problem-file grammar and report serialization.

Grammar:

    ring QQ[x1^±,x2^±,x3]     # domain QQ | ZZ | GF(p); ^± marks Laurent vars
    x1 -> x1*x2               # one map line per declared variable
    x2 -> 1
    x3 -> x3 + x2 - 1

Expressions use + - * ^ ( ), integer or a/b coefficients, and negative
exponents only on Laurent variables; parentheses nest at most `MAX_NESTING`
deep, and a ring declares at most `MAX_VARIABLES` variables.  A process
builds each header's ring once, keeping 64 rings of at most 64 variables
(`ring.ring_memo`): sharing is safe, as a ring's lazily built variables
and print tables depend only on its signature.  Numbers, and the p of
GF(p), are ASCII digits.  Whitespace is ignored; comments start with
'#'.  The ASCII spelling ^+- is accepted for ^±; the printer always emits
^±.

A flat sum such as -2*x1^5*x3^-6 + 1/2*x2, the form `render_problem` writes,
is cut into terms by `str.replace` and `str.split`, however its signs are
spaced, with no regex match per term.  Each distinct factor text of a line,
such as x3^-6 or 1/2, is checked by one regex match and decoded once, and
names are looked up in the ring's own name index.  A sum written exactly
as the printer writes it keeps its text, and prints as that text; any
other sum prints from its terms, to the same bytes.  Anything else goes to
recursive descent over the (kind, text, col) tuples of one scanning regex,
which raises every ParseError, quoting a token as written or "end of
line".  Its factors are ring elements, a number a constant and a name the
ring's variable, and products, powers and unary minus are the ring's `*`,
`**` and `-`: `**` owns "not a unit", and the parser checks only that no
negative power falls on a polynomial variable.

A JSON report is written in one pass from the report's fields, with the
bytes of `json.dumps(report, indent=2)`, by `render_report`.
"""

import re
from json.encoder import encode_basestring_ascii

from .domains import QQ, ZZ, GF
from .endo import Endomorphism
from .ring import (MixedPoly, RingSignature, VARIABLE_NAME, _canonical_sum,
                   ring_memo)


class ParseError(ValueError):

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = " (line %d%s)" % (line, ", col %d" % col if col is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.col = col


# the domain is whatever precedes the '[': `parse_domain` reads it
_HEADER_RE = re.compile(r"^\s*ring\s+([^\[]*?)\s*\[(.*)\]\s*$")
_DOMAIN_RE = re.compile(r"QQ|ZZ|GF\(\s*([0-9]+)\s*\)")

# Exponents are dense n-tuples, so a map of n variables takes memory and
# time quadratic in n before any analysis, and a small file could exhaust
# memory without a limit.  `gen --n` has the same limit.
MAX_VARIABLES = 1000


def parse_domain(text, lineno=None):
    """The coefficient domain spelled QQ, ZZ or GF(p), p prime, as in a ring
    header and `gen --domain`; anything else raises ParseError."""
    m = _DOMAIN_RE.fullmatch(text)
    if not m:
        raise ParseError("unknown domain %r (use QQ, ZZ or GF(p))" % text,
                         lineno)
    if m.group(1) is None:
        return QQ if text == "QQ" else ZZ
    try:
        return GF(int(m.group(1)))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


@ring_memo(lambda line, lineno: line.count(",") + 1)
def _parse_header(line, lineno):
    """The header's ring, built once (`ring_memo`).  The header checks its
    own syntax (width, empty parts, Laurent before plain), then
    `RingSignature` checks the names, so a structural error is reported
    before a bad or repeated name."""
    m = _HEADER_RE.match(line)
    if not m:
        raise ParseError("expected 'ring <domain>[vars]' header", lineno)
    domain = parse_domain(m.group(1), lineno)
    parts = m.group(2).split(",")
    if len(parts) > MAX_VARIABLES:
        raise ParseError("ring declares %d variables, more than the limit "
                         "of %d" % (len(parts), MAX_VARIABLES), lineno)
    names = []
    laurent = 0
    for part in parts:
        part = part.strip()
        if not part:
            raise ParseError("empty variable declaration", lineno)
        if part.endswith(("^±", "^+-")):
            if laurent < len(names):
                raise ParseError(
                    "Laurent variables must precede plain ones", lineno)
            laurent += 1
            part = part[:part.rindex("^")].rstrip()
        names.append(part)
    try:
        return RingSignature(names, laurent, domain)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


# -- expression tokenizer / parser -------------------------------------------

# a number with an optional /denominator, an identifier, an operator, or
# any other non-space character (an error)
_TOKEN_RE = re.compile(r"(?P<number>[0-9]+(?:/[0-9]*)?)|(?P<ident>%s)"
                       r"|(?P<op>[-+*^()])|(?P<other>\S)" % VARIABLE_NAME)


def _tokenize(text, lineno):
    """The (kind, text, col) tokens of an expression, then ("end", None,
    col); kind is "number", "ident" or the operator character itself.  A
    stray character or a "3/" raises here, before any token is parsed."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group()
        if kind == "op":
            kind = tok
        elif kind == "other":
            raise ParseError("unexpected character %r" % tok, lineno,
                             m.start() + 1)
        elif tok[-1] == "/":
            raise ParseError("expected digits after '/'", lineno, m.end() + 1)
        tokens.append((kind, tok, m.start() + 1))
    tokens.append(("end", None, len(text) + 1))
    return tokens


def _found(tok):
    """A token as an error message quotes it."""
    return "end of line" if tok[0] == "end" else repr(tok[1])


# Each level of parentheses takes two stack frames of the recursive-descent
# parser (`expr` and `term`); this limit stays well inside Python's default
# recursion limit.
MAX_NESTING = 100


class _ExprParser:
    """Recursive descent over `_tokenize`'s tokens on ring elements, for
    every expression the flat parser leaves; it raises every ParseError."""

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
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %s" % (kind, _found(tok)),
                             self.lineno, tok[2])
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, text, col = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing %r" % text, self.lineno, col)
        return value

    def expr(self):
        """A sum of terms, canonicalized once: adding one summand at a time
        would re-sort the partial sum each time."""
        terms = list(self.term().terms)
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "+":
                terms.extend(self.term().terms)
            else:
                terms.extend((-self.term()).terms)
        return MixedPoly(self.ring, terms)

    def term(self):
        """A product of factors, each a run of unary minus signs before a
        power of a number, a variable or a parenthesised sum."""
        ring = self.ring
        value = None
        while True:
            negate = False
            while self.peek()[0] == "-":
                self.take()
                negate = not negate
            kind, text, col = tok = self.take()
            if kind == "number":
                num, _, den = text.partition("/")
                try:
                    base = ring.constant(ring.domain.from_fraction(
                        int(num), int(den) if den else 1))
                except ValueError as exc:
                    raise ParseError(str(exc), self.lineno, col) from None
            elif kind == "ident":
                i = ring._index.get(text)
                if i is None:
                    raise ParseError("undeclared identifier %r" % text,
                                     self.lineno, col)
                base = ring.variable(i)
            elif kind == "(":
                if self.depth == MAX_NESTING:
                    raise ParseError("parentheses nested deeper than %d"
                                     % MAX_NESTING, self.lineno, col)
                self.depth += 1
                base = self.expr()
                self.depth -= 1
                self.take(")")
            else:
                raise ParseError("expected a term, found %s" % _found(tok),
                                 self.lineno, col)
            factor = self.power(base)
            if negate:
                factor = -factor
            value = factor if value is None else value * factor
            if self.peek()[0] != "*":
                return value
            self.take()

    def power(self, base):
        """base ** k for a following '^k' or '^-k', else base; '^-0' on a
        polynomial variable is rejected too."""
        if self.peek()[0] != "^":
            return base
        caret = self.take()[2]
        negative = self.peek()[0] == "-"
        if negative:
            self.take()
        text = self.take("number")[1]
        if "/" in text:
            raise ParseError("exponent must be an integer", self.lineno, caret)
        ring = self.ring
        if negative and len(base.terms) == 1:
            exp = base.terms[0][0]
            for i in range(ring.laurent, ring.n):
                if exp[i]:
                    raise ParseError(
                        "negative exponent on polynomial variable %s"
                        % ring.names[i], self.lineno, caret)
        try:  # a NonUnitError, or a number past the int digit limit
            return base ** (-int(text) if negative else int(text))
        except ValueError as exc:
            raise ParseError(str(exc), self.lineno, caret) from None


# a factor of a flat sum: a number or a variable power, no space inside
_FACTOR = r"[0-9]+(?:/[0-9]+)?|%s(?:\^-?[0-9]+)?" % VARIABLE_NAME
_is_factor = re.compile(_FACTOR).fullmatch


class _PrintedPoly(MixedPoly):
    """A value read from its own print, which `str` returns as read; every
    other element prints from its terms, with no attribute to look up."""

    __slots__ = ("_text",)

    def __str__(self):
        return self._text


def _parse_flat(ring, text):
    """The value of a flat sum, or None for anything that recursive descent
    must parse or reject.  C-level string calls cut the stripped text into
    words, with no regex match per term: a space either side of every sign
    but the '-' of '^-', then `str.split`.  The words must read [-] product
    (sign product)*, a product being factors joined by '*'.  Each distinct
    factor text is checked by `_is_factor` and decoded once, into
    (index, power, order) or (None, coefficient, order).  The pass also
    proves, where it holds, that the stripped text is the value's print,
    which the value then keeps: the words joined by single spaces, with no
    space after a leading '-'; a term's one number, if any, first, `str` of
    its nonzero canonical coefficient, not a 1 before a variable nor
    negated over GF(p); its variables in strictly increasing index order,
    each name or name^k by `str(k)`, k not 0 or 1 (a factor's order is -1
    for such a number, its index for such a variable, else -2); exponents
    strictly decreasing in graded-lex order, so no two terms merge.  Such
    terms are canonical as read."""
    line = text.strip()
    words = (line.replace("+", " + ").replace("-", " - ")
             .replace("^ - ", "^-").split())
    negated = line[:1] == "-"
    products = words[negated::2]
    signs = words[negated + 1::2]
    if (len(products) != len(signs) + 1
            or signs.count("+") + signs.count("-") != len(signs)):
        return None
    canonical = " ".join(words) == (line.replace("-", "- ", 1) if negated
                                    else line)
    dom = ring.domain
    index = ring._index
    residues = dom.p is not None
    decoded = {}
    acc = {}
    last_key = None
    signs.insert(0, "-" if negated else "+")
    for sign, product in zip(signs, products):
        coeff = -1 if sign == "-" else 1
        if coeff < 0 and residues or product[:2] == "1*":
            canonical = False
        exp = [0] * ring.n
        last = -2
        for factor in product.split("*"):
            code = decoded.get(factor)
            if code is None:
                if not _is_factor(factor):
                    return None
                try:  # past the int digit limit, or no quotient in dom
                    if factor[0] <= "9":
                        num, _, den = factor.partition("/")
                        k = (dom.from_fraction(int(num), int(den))
                             if den else int(num))
                        code = None, k, (-1 if k and str(dom.reduce(k))
                                         == factor else -2)
                    else:
                        name, _, power = factor.partition("^")
                        i = index.get(name)
                        if (i is None or i >= ring.laurent
                                and power[:1] == "-"):
                            return None
                        k = int(power) if power else 1
                        code = i, k, (i if not power or k != 0 and k != 1
                                      and power == str(k) else -2)
                except ValueError:  # recursive descent reports it
                    return None
                decoded[factor] = code
            i, k, order = code
            if order <= last:
                canonical = False
            last = order
            if i is None:
                coeff *= k
            else:
                exp[i] += k
        exp = tuple(exp)
        if canonical:
            key = sum(exp), exp
            if last_key is not None and key >= last_key:
                canonical = False
            last_key = key
        acc[exp] = acc.get(exp, 0) + coeff
    if not canonical:
        return MixedPoly._trusted(ring, _canonical_sum(acc, dom.reduce))
    value = _PrintedPoly._trusted(ring, tuple(acc.items()))
    value._text = line
    return value


def parse_expression(ring, text, lineno=1):
    """A flat sum by string splitting, anything else by recursive descent."""
    value = _parse_flat(ring, text)
    return _ExprParser(ring, text, lineno).parse() if value is None else value


def parse_problem(text):
    """Parse a problem file into (RingSignature, Endomorphism)."""
    ring = None
    images = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            ring = _parse_header(line, lineno)
            continue
        if "->" not in line:
            raise ParseError("expected 'var -> expression'", lineno)
        lhs, rhs = line.split("->", 1)
        name = lhs.strip()
        if name not in ring._index:
            raise ParseError("undeclared identifier %r" % name, lineno)
        if name in images:
            raise ParseError("duplicate map line for %r" % name, lineno)
        images[name] = parse_expression(ring, rhs, lineno)
    if ring is None:
        raise ParseError("missing ring header")
    missing = [nm for nm in ring.names if nm not in images]
    if missing:
        raise ParseError("missing map line for %s" % ", ".join(missing))
    return ring, Endomorphism._trusted(
        ring, tuple([images[nm] for nm in ring.names]))


# -- printing ----------------------------------------------------------------

def render_problem(endo, header_comments=()):
    """Canonical problem-file text for an endomorphism."""
    ring = endo.ring
    lines = ["# %s" % c for c in header_comments]
    lines.append("ring %r" % ring)
    for name, img in zip(ring.names, endo.images):
        lines.append("%s -> %s" % (name, img))
    return "\n".join(lines) + "\n"


# the report's keys in order, as `json.dumps(report, indent=2)` writes them
_REPORT = ('{\n  "n": %d,\n  "d": %d,\n  "domain": %s,\n  "r": %d,\n'
           '  "trdeg": %s,\n  "classification": %s,\n  "rationality": %s,\n'
           '  "yVariables": %s,\n  "normalizers": %s,\n  "yKinds": %s,\n'
           '  "fixedBasis": %s,\n  "kernelBasis": %s,\n  "Y": %s,\n'
           '  "T": %s,\n  "generators": %s,\n  "quotientGenerators": %s,\n'
           '  "certificates": %s\n}\n')


def _strs(items):
    """A list of str, joined in one call."""
    return ("[\n    %s\n  ]" % ",\n    ".join(map(encode_basestring_ascii,
                                                items)) if items else "[]")


def _flat(pairs):
    """A nonempty dict of str, int and bool (whose str, lowered, is JSON)."""
    return "{\n    %s\n  }" % ",\n    ".join([
        "%s: %s" % (encode_basestring_ascii(k), encode_basestring_ascii(v)
                    if type(v) is str else str(v).lower()) for k, v in pairs])


def _rows(vectors, width):
    """A list of int rows of the given width, given as sparse vectors, each
    joined in one call from a list of "0" strings with its nonzeros set."""
    rows = []
    for vector in vectors:
        row = ["0"] * width
        for i, a in vector:
            row[i] = repr(a)
        rows.append(",\n      ".join(row))
    return ("[\n    [\n      %s\n    ]\n  ]"
            % "\n    ],\n    [\n      ".join(rows) if rows else "[]")


def _transposed(matrix):
    """The rows of an IntMatrix as sparse vectors, from its columns."""
    rows = [[] for _ in range(matrix.rows)]
    for j, column in enumerate(matrix.columns):
        for i, a in column:
            rows[i].append((j, a))
    return rows


def render_report(report, fmt="text"):
    """The report as text, or as JSON in one pass: the keys are fixed text,
    each list of strs is joined in one call, the bases are Y's sparse
    columns, and Y's and T's rows their transposed columns."""
    if fmt not in ("text", "json"):
        raise ValueError("report format is not 'text' or 'json': %r" % (fmt,))
    ring = report.ring
    yvars = report.y_variables
    # decompose's int exponents need no check
    names = [str(MixedPoly._trusted(ring, ((y.exponent, 1),))) for y in yvars]
    trdeg = report.trdeg
    if fmt == "json":
        dec, verdict = report.decomposition, report.classification
        Y, r = dec.Y, dec.r
        return _REPORT % (
            ring.n, ring.laurent, encode_basestring_ascii(repr(ring.domain)),
            report.r, "%d" % trdeg if isinstance(trdeg, int)
            else "[\n    %d,\n    %d\n  ]" % trdeg,
            _flat((("tag", verdict.tag),) + tuple(verdict.params.items())),
            encode_basestring_ascii(report.rationality), _strs(names),
            _strs([str(y.normalizer) for y in yvars]),
            _strs([y.kind for y in yvars]), _rows(Y.columns[:r], Y.rows),
            _rows(Y.columns[r:], Y.rows), _rows(_transposed(Y), Y.cols),
            _rows(_transposed(dec.T), dec.T.cols),
            _strs([str(g) for g in report.generators]),
            _strs([str(g) for g in report.quotient_generators]),
            _flat(report.certificates.items()))
    lines = ["ring           %r" % ring,
             "unit rank r    %d" % report.r,
             "trdeg          %s" % (trdeg if isinstance(trdeg, int)
                                    else list(trdeg),),
             "classification %r" % (report.classification,),
             "rationality    %s" % report.rationality]
    for y, name in zip(yvars, names):
        lines.append("y (%s)%s %s   [normalizer %s]"
                     % (y.kind, " " * (6 - len(y.kind)), name, y.normalizer))
    lines.append("generators     %s" % ("; ".join(map(str, report.generators))
                                        if report.generators else "(none)"))
    lines.append("certificates   %s" % ", ".join(
        "%s=%s" % (k, "ok" if v else "FAIL")
        for k, v in report.certificates.items()))
    return "\n".join(lines) + "\n"
