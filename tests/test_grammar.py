import json
import os
import random
import re

import pytest

from retractlab import (QQ, ZZ, GF, parse_problem, render_problem,
                        render_report, analyze, ParseError, RingSignature,
                        MixedPoly)
from retractlab import grammar
from retractlab import ring as ring_module
from retractlab.endo import identity
from retractlab.grammar import parse_expression
from retractlab.generator import GeneratorSpec, gen_random_idempotent
from dense_hnf import fixed_basis, kernel_basis
from random_elements import random_element

DOMAINS = (QQ, ZZ, GF(5), GF(32003))
DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
BENCH_NAMED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "named")


def load(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def test_parse_e1():
    ring, phi = parse_problem(load("e1.ring"))
    assert ring.laurent == 2 and ring.n == 2 and ring.domain == QQ
    assert phi.images[0] == ring.variable(0) * ring.variable(1)
    assert phi.images[1] == ring.constant(1)


def test_parse_mixed_and_ascii_marker():
    ring, phi = parse_problem(
        "ring QQ[x1^+-,x2]\nx1 -> x1\nx2 -> x1 + x1^-1\n")
    assert ring.laurent == 1
    assert phi.images[1] == ring.variable(0) + ring.monomial((-1, 0))


def test_parse_gf():
    ring, phi = parse_problem(load("gf5.ring"))
    assert ring.domain == GF(5)
    assert phi.images[0] == ring.monomial((1, -1), 2)


def test_long_sum_parses_in_one_pass():
    ring = RingSignature(["x1", "x2", "x3"], 2, QQ)
    rng = random.Random(3)
    terms = [((rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(0, 4)),
              rng.randint(-9, 9)) for _ in range(2000)]
    pieces = ["%d*x1^%d*x2^%d*x3^%d" % ((c,) + exp) for exp, c in terms]
    expected = MixedPoly(ring, terms)
    got = parse_expression(ring, " + ".join(pieces))
    assert got == expected
    assert parse_expression(ring, str(got)) == got
    # -(a - b - c ...) = -a + b + c ...
    negated = parse_expression(ring, "-(%s)" % " - ".join(pieces))
    assert negated == MixedPoly(ring, [(terms[0][0], -terms[0][1])]
                                      + terms[1:])


def test_parse_errors():
    with pytest.raises(ParseError, match="undeclared"):
        parse_problem(load("undeclared.ring"))
    with pytest.raises(ParseError, match="polynomial variable"):
        parse_problem("ring QQ[x1^±,x2]\nx1 -> x1\nx2 -> x2^-1\n")
    with pytest.raises(ParseError, match="prime"):
        parse_problem("ring GF(6)[x^±]\nx -> x\n")
    with pytest.raises(ParseError, match="duplicate map"):
        parse_problem("ring QQ[x^±]\nx -> x\nx -> 1\n")
    with pytest.raises(ParseError, match="missing map"):
        parse_problem("ring QQ[x^±,y^±]\nx -> x\n")
    with pytest.raises(ParseError, match="precede"):
        parse_problem("ring QQ[x,y^±]\nx -> x\ny -> y\n")
    with pytest.raises(ParseError, match="not an integer"):
        parse_problem("ring ZZ[x^±]\nx -> 1/2*x\n")
    # a line that is not the header is a map line, whatever its first word
    with pytest.raises(ParseError,
                       match="expected 'var -> expression'") as exc:
        parse_problem("ring QQ[x^±]\noption threads 4\nx -> x\n")
    assert exc.value.line == 2
    # digits are ASCII: an Arabic-Indic 3 or 2 is a stray character
    for text in ("x -> \u00e9", "x -> x^\u00b2", "x -> x $ 1",
                 "x -> \u0663*x^\u0662"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_problem("ring QQ[x^±]\n%s\n" % text)
    with pytest.raises(ParseError, match="digits after") as exc:
        parse_problem("ring QQ[x^±]\nx -> 3/ * x\n")
    assert exc.value.col == 4
    for text, shown in (("x 3", "'3'"), ("x + 2 3/4", "'3/4'"),
                        ("x 007", "'007'")):
        with pytest.raises(ParseError, match="unexpected trailing " + shown):
            parse_problem("ring QQ[x^±]\nx -> %s\n" % text)
    # a number where a token was expected shows its source text
    for text, shown in (("(x 3/4)", "'3/4'"), ("(x 3)", "'3'"),
                        ("(x 03)", "'03'")):
        with pytest.raises(ParseError, match=r"expected \), found " + shown):
            parse_problem("ring QQ[x^±]\nx -> %s\n" % text)
    # a missing token at the end of the line is named as such
    for text, expected in (("x +", "a term"), ("(x", r"\)")):
        with pytest.raises(ParseError,
                           match="expected %s, found end of line" % expected):
            parse_problem("ring QQ[x^±]\nx -> %s\n" % text)
    # the header reads its domain with `parse_domain`, as `gen --domain` does
    for header, message in (("QR", "unknown domain 'QR'"),
                            ("GF(+5)", "unknown domain 'GF(+5)'"),
                            ("GF(\u0665)", "unknown domain 'GF(\u0665)'"),
                            ("GF(4)", "must be prime, got 4")):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_problem("ring %s[x^±]\nx -> x\n" % header)
        assert exc.value.line == 1
    # the header's and the map lines' own checks; a file with no header
    # has no line to point at
    for text, message, line in (
            ("x -> x\n", "expected 'ring <domain>[vars]' header", 1),
            ("ring QQ[x,,y]\n", "empty variable declaration", 1),
            ("ring QQ[1x]\n", "bad variable name '1x'", 1),
            ("# names\nring QQ[x, y^2]\n", "bad variable name 'y^2'", 2),
            ("\nring QQ[x^±, \u00e9]\n", "bad variable name '\u00e9'", 2),
            ("ring QQ[x,x]\n", "duplicate variable name", 1),
            ("ring QQ[x, y^±]\n", "Laurent variables must precede plain "
             "ones", 1),
            # the header checks its width, empty parts and the Laurent
            # block before the ring checks the names
            ("ring QQ[1x, y^±]\n", "Laurent variables must precede plain "
             "ones", 1),
            ("ring QQ[x, x, y^±]\n", "Laurent variables must precede "
             "plain ones", 1),
            ("ring QQ[1x,,y]\n", "empty variable declaration", 1),
            ("ring QQ[x^±,,x]\n", "empty variable declaration", 1),
            ("ring QQ[%s]\n" % ",".join(["1x"] * 1001), "ring declares 1001 "
             "variables, more than the limit of 1000", 1),
            ("ring QQ[x^±]\nx -> x\ny -> 1\n", "undeclared identifier 'y'", 3),
            ("# comments\n# only\n", "missing ring header", None)):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_problem(text)
        assert exc.value.line == line


def test_header_names_are_checked_once_by_the_ring(monkeypatch):
    calls = []
    check = ring_module._is_variable_name
    monkeypatch.setattr(ring_module, "_is_variable_name",
                        lambda name: calls.append(name) or check(name))
    ring, _ = parse_problem("ring GF(7)[a^±, b ^+-, c]\na -> a\nb -> b\n"
                            "c -> c + a*b\n")
    assert ring.names == ("a", "b", "c") and ring.laurent == 2
    assert calls == ["a", "b", "c"]
    assert not hasattr(grammar, "_is_variable_name")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_problem("ring QQ[x^±]\nx -> x + )\n")
    assert exc.value.line == 2
    assert exc.value.col is not None


def test_comments_and_whitespace():
    text = "# a comment\n  ring QQ[x^±]   # trailing\n\nx ->   x \n"
    ring, phi = parse_problem(text)
    assert phi.images[0] == ring.variable(0)


def test_expression_features():
    ring = RingSignature(["x1", "x2"], 1, QQ)
    p = parse_expression(ring, "(x1 + x2)^2 - 2*x1*x2")
    assert p == ring.monomial((2, 0)) + ring.monomial((0, 2))
    q = parse_expression(ring, "-3/2*x1^-2")
    assert q == ring.monomial((-2, 0), QQ.from_fraction(-3, 2))
    with pytest.raises(ParseError):
        parse_expression(ring, "(x1 + x2)^-1")  # not a unit


def test_print_parse_round_trip_corpus():
    for name in sorted(os.listdir(DATA)):
        if name == "undeclared.ring":
            continue
        ring, phi = parse_problem(load(name))
        text = render_problem(phi)
        ring2, phi2 = parse_problem(text)
        assert ring2 == ring and phi2 == phi
        assert render_problem(phi2) == text


def test_every_ring_renders_a_file_that_parses():
    # the ring accepts exactly the names the grammar reads, so every map it
    # holds renders to a file that parses back to it
    for names, laurent in ((["_", "x_1", "X9"], 2), (["a__", "B"], 0)):
        ring = RingSignature(names, laurent, QQ)
        phi = identity(ring)
        assert parse_problem(render_problem(phi)) == (ring, phi)


def test_round_trip_random_polynomials():
    rng = random.Random(77)
    ring = RingSignature(["x1", "x2", "x3"], 2, QQ)
    for _ in range(60):
        p = random_element(ring, rng, max_terms=4, max_exp=3, max_coeff=9)
        assert parse_expression(ring, str(p)) == p


def test_round_trip_generated_instances():
    for seed in range(10):
        spec = GeneratorSpec(n=3, d=2, r=1, seed=seed, complexity=2, domain=QQ)
        phi = gen_random_idempotent(spec)
        text = render_problem(phi)
        _, phi2 = parse_problem(text)
        assert phi2 == phi


@pytest.fixture(scope="module")
def benchmark_maps():
    """The maps of the benchmark's small strata and its named tail specs,
    on four domains."""
    specs = [GeneratorSpec(n, d, seed % (d + 1), seed, c, dom)
             for n in range(2, 6) for d in range(1, min(3, n) + 1)
             for c in range(3) for seed in range(5) for dom in DOMAINS]
    specs += [GeneratorSpec(n, d, r, seed, c, dom)
              for n, d, r, seed, c in ((5, 3, 0, 1004, 3), (6, 3, 2, 1014, 4),
                                       (6, 3, 0, 1016, 3))
              for dom in DOMAINS]
    return [gen_random_idempotent(spec) for spec in specs]


def test_rendered_map_lines_take_the_flat_path(benchmark_maps, monkeypatch):
    # every map line `render_problem` writes is a flat sum, parsed with no
    # recursive descent
    def refuse(ring, text, lineno):
        raise AssertionError("not a flat sum: %s" % text)
    monkeypatch.setattr(grammar, "_ExprParser", refuse)
    for phi in benchmark_maps:
        assert parse_problem(render_problem(phi))[1] == phi


def kept(p):
    return isinstance(p, grammar._PrintedPoly)


def test_rendered_map_lines_keep_their_text(benchmark_maps):
    # the printer's own lines are proved canonical and print as read: the
    # six named files, and every nonzero image `render_problem` writes for
    # the benchmark's specs
    for name in sorted(os.listdir(BENCH_NAMED)):
        with open(os.path.join(BENCH_NAMED, name), encoding="utf-8") as fh:
            _, phi = parse_problem(fh.read())
        assert all(map(kept, phi.images)), name
    zero = 0
    for phi in benchmark_maps:
        for img in parse_problem(render_problem(phi))[1].images:
            assert kept(img) != img.is_zero(), img
            zero += img.is_zero()
    assert zero  # "0" prints with no monomial, and is left to the printer


def test_report_prints_no_parsed_image(monkeypatch):
    path = os.path.join(BENCH_NAMED, "GF32003_n6d3r2c4_s1014.ring")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _, phi = parse_problem(text)
    rep = analyze(phi)
    images = set(map(id, phi.images))
    assert all(id(g) in images and kept(g) for g in rep.generators[rep.r:])
    printed = []
    to_str = MixedPoly.__str__

    def counting(self):
        printed.append(self)
        return to_str(self)
    monkeypatch.setattr(MixedPoly, "__str__", counting)
    out = render_report(rep, "json")
    monkeypatch.undo()
    # printed from their terms: each y-variable, the y's among the
    # generators and each quotient generator; a kept image returns its text
    assert len(printed) == (len(rep.y_variables) + rep.r
                            + len(rep.quotient_generators))
    assert not any(id(p) in images for p in printed)
    # respaced, the map lines of several terms are printed from their
    # terms, to the same bytes
    _, phi2 = parse_problem(text.replace(" + ", "  +  "))
    assert phi2 == phi
    respaced = [" + " in str(img) for img in phi.images]
    assert sum(respaced) > 1
    assert [kept(img) for img in phi2.images] == [not r for r in respaced]
    assert render_report(analyze(phi2), "json") == out


def test_flat_path_ignores_spacing(monkeypatch):
    # a flat sum stays on the flat path however its signs are spaced: the
    # map lines of the named files as written, respaced, and with every
    # space removed (recursive descent takes ~10 times as long on 1014's
    # unspaced x4 line); a line keeps its text only where it is still
    # spelled exactly as its print
    def refuse(ring, text, lineno):
        raise AssertionError("not a flat sum: %s" % text)
    monkeypatch.setattr(grammar, "_ExprParser", refuse)
    respellings = (lambda line: line.replace(" + ", "  +  ")
                   .replace(" - ", "  -  "),
                   lambda line: line.replace(" ", ""))
    for name in sorted(os.listdir(BENCH_NAMED)):
        with open(os.path.join(BENCH_NAMED, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _, phi = parse_problem("\n".join(lines))
        assert all(map(kept, phi.images)), name
        for respell in respellings:
            new = [respell(line) if "->" in line else line for line in lines]
            _, phi2 = parse_problem("\n".join(new))
            assert phi2.images == phi.images, name
            unchanged = [a.split("->")[1].strip() == b.split("->")[1].strip()
                         for a, b in zip(lines, new) if "->" in a]
            assert [kept(img) for img in phi2.images] == unchanged, name
            assert not all(unchanged), name


@pytest.mark.parametrize("dom", [QQ, GF(32003)], ids=repr)
def test_parse_largest_named_instance(dom):
    # the benchmark's 1014 files, the largest problem files in the repository
    name = "%s_n6d3r2c4_s1014.ring" % ("QQ" if dom is QQ else "GF32003")
    with open(os.path.join(BENCH_NAMED, name), encoding="utf-8") as fh:
        text = fh.read()
    expected = gen_random_idempotent(GeneratorSpec(6, 3, 2, 1014, 4, dom))
    ring, phi = parse_problem(text)
    assert ring == expected.ring
    assert phi.images == expected.images
    # every '*' of a map line spaced, so that each product goes to recursive
    # descent: images of up to 1,834 terms, with negative Laurent powers
    spaced = "\n".join(line.replace("*", " * ") if "->" in line else line
                       for line in text.splitlines())
    _, phi = parse_problem(spaced)
    assert phi.images == expected.images
    products = [img for img in phi.images if len(img.terms) > 1]
    assert max(len(img.terms) for img in products) == 1834
    assert not any(isinstance(img, grammar._PrintedPoly) for img in products)


def test_report_generator_strings_round_trip():
    _, phi = parse_problem(load("e7.ring"))
    rep = analyze(phi)
    for g in rep.generators:
        assert parse_expression(phi.ring, str(g)) == g


def test_render_report_shapes():
    _, phi = parse_problem(load("e1.ring"))
    rep = analyze(phi)
    import json
    obj = json.loads(render_report(rep, "json"))
    assert obj["r"] == 1
    assert obj["classification"] == {"tag": "PureLaurent", "r": 1}
    assert obj["yVariables"] == ["x1*x2", "x2"]
    text = render_report(rep, "text")
    assert "PureLaurent" in text and "certificates" in text
    for fmt in ("JSON", "Text", "yaml", None):
        with pytest.raises(ValueError, match="report format"):
            render_report(rep, fmt)


def report_to_dict(report):
    """The report's fields as the dict that `json.dumps(..., indent=2)`
    writes to the JSON report's bytes, built from the dense views."""
    ring = report.ring
    verdict = {"tag": report.classification.tag}
    verdict.update(report.classification.params)
    trdeg = report.trdeg if isinstance(report.trdeg, int) else list(report.trdeg)
    return {
        "n": ring.n,
        "d": ring.laurent,
        "domain": repr(ring.domain),
        "r": report.r,
        "trdeg": trdeg,
        "classification": verdict,
        "rationality": report.rationality,
        "yVariables": [str(ring.monomial(y.exponent))
                       for y in report.y_variables],
        "normalizers": [str(y.normalizer) for y in report.y_variables],
        "yKinds": [y.kind for y in report.y_variables],
        "fixedBasis": [list(b) for b in fixed_basis(report.decomposition)],
        "kernelBasis": [list(b) for b in kernel_basis(report.decomposition)],
        "Y": [list(r) for r in report.decomposition.Y.entries],
        "T": [list(r) for r in report.decomposition.T.entries],
        "generators": [str(g) for g in report.generators],
        "quotientGenerators": [str(g) for g in report.quotient_generators],
        "certificates": dict(report.certificates),
    }


def _analyzed_golden_files():
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        analyzed = [name for name, code in sorted(json.load(fh).items())
                    if code == 0]
    assert analyzed == ["e1.ring", "e3.ring", "e7.ring", "ufd.ring"]
    return analyzed


def test_report_writer_matches_json_dumps_on_golden_reports():
    for name in _analyzed_golden_files():
        stdout = os.path.join(GOLDEN, name[:-len(".ring")] + ".stdout")
        with open(stdout, encoding="utf-8") as fh:
            text = fh.read()
        rep = analyze(parse_problem(load(name))[1])
        assert render_report(rep, "json") == text, name
        assert json.dumps(report_to_dict(rep), indent=2) + "\n" == text, name
        assert json.dumps(json.loads(text), indent=2) + "\n" == text, name


def _wide_pairs_map():
    """QQ[x1^±..x41^±, z]: x_2k+1 -> x_2k+1*x_2k+2^-(k+1) and x_2k+2 -> 1
    for k < 20, x41 and z fixed; an M with negative entries at d = 41."""
    lines = ["ring QQ[%s,z]" % ",".join("x%d^±" % i for i in range(1, 42))]
    for k in range(20):
        lines += ["x%d -> x%d*x%d^-%d" % (2 * k + 1, 2 * k + 1, 2 * k + 2,
                                          k + 1), "x%d -> 1" % (2 * k + 2)]
    lines += ["x41 -> x41", "z -> z"]
    return parse_problem("\n".join(lines))[1]


def test_report_writer_matches_json_dumps_on_generated_reports():
    phis = [gen_random_idempotent(GeneratorSpec(n, d, r, seed, 2, dom))
            for dom in DOMAINS for n in (2, 3, 4, 5)
            for d in range(min(n, 3) + 1) for r in sorted({0, d // 2, d})
            for seed in (0, 1)]
    phis += [parse_problem(load(name))[1] for name in _analyzed_golden_files()]
    phis += [gen_random_idempotent(GeneratorSpec(42, 40, 17, 3, 2, QQ)),
             gen_random_idempotent(GeneratorSpec(43, 40, 13, 1, 2, GF(5))),
             _wide_pairs_map()]
    tags = set()
    seen = set()
    for phi in phis:
        rep = analyze(phi)
        obj = report_to_dict(rep)
        want = json.dumps(obj, indent=2) + "\n"
        assert render_report(rep, "json") == want, phi
        tags.add(obj["classification"]["tag"])
        seen.update(key for key in ("fixedBasis", "kernelBasis", "Y", "T",
                                    "generators") if not obj[key])
        if isinstance(obj["trdeg"], list):
            seen.add("interval " + obj["classification"]["tag"])
        verdict = obj["classification"]
        if "generatorsExplicit" in verdict:
            seen.add("explicit %s" % verdict["generatorsExplicit"])
        if obj["d"] >= 40:
            seen.add("wide")
            if any(min(row) < 0 for row in obj["T"]):
                seen.add("wide negative")
    assert {"BoundsOnly", "UFDClassified"} <= tags, tags
    # d = 0 leaves Y and T empty; GF(p) with d < n gives an interval
    assert seen == {"fixedBasis", "kernelBasis", "Y", "T", "generators",
                    "interval BoundsOnly", "explicit True", "explicit False",
                    "wide", "wide negative"}, seen


# the text reports of the analyzed golden files
TEXT_REPORTS = {
    "e1.ring": """\
ring           QQ[x1^±,x2^±]
unit rank r    1
trdeg          1
classification PureLaurent(r=1)
rationality    Rational
y (fixed)  x1*x2   [normalizer 1]
y (killed) x2   [normalizer 1]
generators     x1*x2
""",
    "e3.ring": """\
ring           QQ[x1^±,x2]
unit rank r    1
trdeg          1
classification PureLaurent(r=1)
rationality    Rational
y (fixed)  x1   [normalizer 1]
generators     x1; x1 + x1^-1
""",
    "e7.ring": """\
ring           QQ[x1^±,x2^±,x3]
unit rank r    1
trdeg          2
classification LaurentTensorPoly(r=1, s=1)
rationality    Rational
y (fixed)  x1   [normalizer 1]
y (killed) x2   [normalizer 1]
generators     x1; x2 + x3 - 1
""",
    "ufd.ring": """\
ring           QQ[x1^±,x2,x3]
unit rank r    1
trdeg          2
classification UFDClassified(generatorsExplicit=True, r=1, s=1)
rationality    Rational
y (fixed)  x1   [normalizer 1]
generators     x1; x2; x2
""",
}
CERTIFICATES_LINE = (
    "certificates   matrix_idempotent=ok, unimodular_basis=ok, "
    "fixed_y_images=ok, killed_y_images=ok, ideal_killed=ok, "
    "image_lattice_membership=ok\n")


def test_text_report_bytes_of_golden_files():
    for name in _analyzed_golden_files():
        rep = analyze(parse_problem(load(name))[1])
        assert render_report(rep) == TEXT_REPORTS[name] + CERTIFICATES_LINE
