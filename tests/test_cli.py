import codecs
import json
import os
import subprocess
import sys
import time

import pytest

from retractlab import cli
from retractlab.cli import run_cli
from retractlab.grammar import MAX_VARIABLES, parse_problem

DATA = os.path.join(os.path.dirname(__file__), "data")
# `analyze --json` stdout (<name>.stdout) and exit code of each data file
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
    GOLDEN_EXIT = json.load(fh)


def path(name):
    return os.path.join(DATA, name)


def test_check_ok(capsys):
    assert run_cli(["check", path("e1.ring")]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_not_idempotent(capsys):
    assert run_cli(["check", path("swap.ring")]) == 1
    err = capsys.readouterr().err
    assert "not idempotent" in err and "x1" in err


def test_check_parse_error(capsys):
    assert run_cli(["check", path("undeclared.ring")]) == 2
    assert "undeclared" in capsys.readouterr().err


def test_analyze_text(capsys):
    assert run_cli(["analyze", path("e7.ring")]) == 0
    out = capsys.readouterr().out
    assert "LaurentTensorPoly" in out


def test_analyze_json(capsys):
    assert run_cli(["analyze", "--json", path("e1.ring")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["classification"] == {"tag": "PureLaurent", "r": 1}


def test_analyze_json_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["analyze", "--json", path("e1.ring"),
                    "--out", str(a)]) == 0
    assert run_cli(["analyze", "--json", path("e1.ring"),
                    "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_repeated_calls_share_no_state(tmp_path, capsys):
    # the argument parser is built once per process; no option of one call
    # may carry over to the next
    out = tmp_path / "e1.json"
    assert run_cli(["analyze", "--json", path("e1.ring")]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 1
    assert run_cli(["analyze", path("e1.ring")]) == 0
    text = capsys.readouterr().out
    assert text.startswith("ring ") and not text.startswith("{")
    assert run_cli(["analyze", "--json", path("e1.ring"),
                    "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    out.unlink()
    assert run_cli(["analyze", path("e7.ring")]) == 0
    assert "LaurentTensorPoly" in capsys.readouterr().out
    assert not out.exists()
    assert run_cli(["gen", "--n", "3", "--d", "2", "--r", "1", "--seed", "4",
                    "--complexity", "2", "--count", "2",
                    "--domain", "GF(5)"]) == 0
    two = capsys.readouterr().out
    assert two.count("ring GF(5)[") == 2
    assert run_cli(["gen", "--n", "3", "--d", "2", "--r", "1",
                    "--seed", "4"]) == 0
    one = capsys.readouterr().out
    assert one.count("ring QQ[") == 1 and "complexity=1" in one
    assert run_cli(["check", path("e1.ring")]) == 0
    assert "ok" in capsys.readouterr().out


def test_analyze_rejects_non_idempotent(capsys):
    assert run_cli(["analyze", path("swap.ring")]) == 1


@pytest.mark.parametrize("name", ["swap.ring", "gf5.ring", "zz.ring",
                                  "non-unit"])
def test_check_and_analyze_reject_alike(name, tmp_path, capsys):
    # one rejection path: the same exit code and the same one-line message
    if name == "non-unit":
        problem = tmp_path / "non_unit.ring"
        problem.write_text("ring QQ[x^±,y]\nx -> x + y\ny -> y\n")
    else:
        problem = path(name)
    outcomes = []
    for command in ("check", "analyze"):
        code = run_cli([command, str(problem)])
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
        outcomes.append((code, err))
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 1
    if name == "non-unit":
        assert err == ("invalid: image of Laurent variable x is not a "
                       "unit: x + y\n")
    else:
        assert err.startswith("not idempotent: phi²(x1) - phi(x1) = ")
        assert err.endswith(" != 0\n")


def test_gen_domain_is_spelled_as_in_a_ring_header(capsys):
    args = ["gen", "--n", "2", "--d", "1", "--r", "1", "--seed", "3"]
    assert run_cli(args + ["--domain", "GF( 7 )"]) == 0
    assert "ring GF(7)[" in capsys.readouterr().out
    for bad in ("GF(4)", "GF(+5)", "QQ ", "GF(\u0665)"):
        assert run_cli(args + ["--domain", bad]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parse error: "), (bad, err)
        assert err.count("\n") == 1


@pytest.mark.parametrize("bad", [
    ["--n", "2", "--d", "3", "--r", "1"],
    ["--n", "-1", "--d", "0", "--r", "0"],
    ["--n", "2", "--d", "1", "--r", "-1"],
    ["--n", "2", "--d", "1", "--r", "1", "--complexity", "-1"],
    ["--n", "2", "--d", "1", "--r", "1", "--count", "0"],
    ["--n", "2", "--d", "1", "--r", "1", "--count", "-1"],
    ["--n", "0", "--d", "0", "--r", "0"],
    ["--n", "0", "--d", "0", "--r", "0", "--complexity", "0"],
    ["--n", str(MAX_VARIABLES + 1), "--d", "1", "--r", "1"],
])
def test_gen_bad_sizes_and_counts_are_parse_errors(bad, tmp_path, capsys):
    assert run_cli(["gen", "--seed", "1"] + bad) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error: "), (bad, err)
    assert err.count("\n") == 1
    out_dir = tmp_path / "gen"
    assert run_cli(["gen", "--seed", "1", "--out-dir", str(out_dir)]
                   + bad) == 2
    assert capsys.readouterr().out == ""
    assert not out_dir.exists()


def identity_text(n):
    names = ["x%d" % i for i in range(n)]
    return "ring QQ[%s]\n%s" % (",".join(names), "".join(
        "%s -> %s\n" % (name, name) for name in names))


def test_ring_wider_than_the_cap_is_a_parse_error(tmp_path, capsys):
    # the header is rejected before any map line is read: this one's map
    # lines would be a different parse error
    wide = tmp_path / "wide.ring"
    wide.write_text(identity_text(MAX_VARIABLES + 1) + "x0 -> (\n",
                    encoding="utf-8")
    for command in ("check", "analyze"):
        assert run_cli([command, str(wide)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "parse error: ring declares %d variables, more than the limit "
            "of %d (line 1)\n" % (MAX_VARIABLES + 1, MAX_VARIABLES))


def test_ring_at_the_cap_parses():
    ring, phi = parse_problem(identity_text(MAX_VARIABLES))
    assert ring.n == MAX_VARIABLES
    assert phi.images[-1] == ring.variable(MAX_VARIABLES - 1)


def test_gen_count_is_the_single_outputs_joined(capsys):
    # each problem is written as it is made; the bytes are those of one
    # `--count 1` run per seed, joined by a newline
    args = ["gen", "--n", "3", "--d", "2", "--r", "1", "--complexity", "2"]
    assert run_cli(args + ["--seed", "7", "--count", "3"]) == 0
    joined = capsys.readouterr().out
    singles = []
    for seed in ("7", "8", "9"):
        assert run_cli(args + ["--seed", seed]) == 0
        singles.append(capsys.readouterr().out)
    assert joined == "\n".join(singles)


def test_gen_stdout_deterministic(capsys):
    args = ["gen", "--n", "3", "--d", "2", "--r", "1",
            "--seed", "7", "--complexity", "2", "--count", "2"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first
    assert first.count("ring QQ[") == 2


def test_gen_output_is_checkable(tmp_path, capsys):
    out = tmp_path / "gen"
    assert run_cli(["gen", "--n", "2", "--d", "2", "--r", "1", "--seed", "3",
                    "--complexity", "2", "--count", "3", "--domain", "GF(5)",
                    "--out-dir", str(out)]) == 0
    capsys.readouterr()
    files = sorted(os.listdir(out))
    assert len(files) == 3
    for name in files:
        assert run_cli(["check", str(out / name)]) == 0
        capsys.readouterr()


def test_deep_parentheses_are_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.ring"
    deep.write_text("ring QQ[x^±]\nx -> %sx%s\n" % ("(" * 5000, ")" * 5000))
    assert run_cli(["check", str(deep)]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_directory_input_is_a_read_error(tmp_path, capsys):
    assert run_cli(["analyze", str(tmp_path)]) == 2
    assert "cannot read input" in capsys.readouterr().err


def test_unwritable_output_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run_cli(["analyze", path("e1.ring"), "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_non_utf8_input_is_a_read_error(tmp_path, capsys):
    bad = tmp_path / "latin1.ring"
    bad.write_bytes("ring QQ[x^±]\nx -> x  # caf\u00e9\n".encode("latin-1"))
    assert run_cli(["check", str(bad)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("stray", [b"\n" + codecs.BOM_UTF8 + b"x1",
                                   b"-> " + codecs.BOM_UTF8 + b"1"],
                         ids=["line start", "expression"])
def test_leading_byte_order_mark_is_skipped(stray, tmp_path, capsysbinary):
    # Windows editors start a UTF-8 file with a byte-order mark; anywhere
    # else it is a stray character
    with open(path("e1.ring"), "rb") as fh:
        text = fh.read()
    marked = tmp_path / "marked.ring"
    marked.write_bytes(codecs.BOM_UTF8 + text)
    assert run_cli(["analyze", "--json", str(marked)]) == 0
    with open(os.path.join(GOLDEN, "e1.stdout"), "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()
    assert run_cli(["check", str(marked)]) == 0
    capsysbinary.readouterr()
    plain = stray.replace(codecs.BOM_UTF8, b"")
    assert plain in text
    stray_file = tmp_path / "stray.ring"
    stray_file.write_bytes(text.replace(plain, stray, 1))
    assert run_cli(["check", str(stray_file)]) == 2
    assert b"parse error" in capsysbinary.readouterr().err


def test_large_prime_modulus(tmp_path, capsys):
    ok = tmp_path / "big.ring"
    ok.write_text("ring GF(1000000000000000003)[x^±]\nx -> x\n")
    start = time.perf_counter()
    assert run_cli(["check", str(ok)]) == 0
    assert time.perf_counter() - start < 1.0
    bad = tmp_path / "composite.ring"
    bad.write_text("ring GF(1000000000000000001)[x^±]\nx -> x\n")
    assert run_cli(["check", str(bad)]) == 2
    assert "prime" in capsys.readouterr().err
    huge = tmp_path / "huge.ring"
    huge.write_text("ring GF(%d)[x^±]\nx -> x\n" % (10 ** 30 + 57))
    assert run_cli(["check", str(huge)]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["QQ", "ZZ", "GF(32003)"])
def test_gen_seed_141_finishes(domain, tmp_path, capsys):
    # gen n=6, d=3, r=1, seed 141, complexity 4: expanding phi∘phi needs
    # the tenth power of a 2559-term image and takes minutes; phi(x4) and
    # phi(x5) are polynomials in phi(x6), which proves it idempotent at once
    # (over ZZ too, where the witnesses are found over QQ).  Its trdeg, 2,
    # lies strictly inside [r, r + n - d] = [1, 4]
    from retractlab import GeneratorSpec, problem_text
    from retractlab.grammar import parse_domain
    spec = GeneratorSpec(6, 3, 1, 141, 4, parse_domain(domain))
    problem = tmp_path / "s141.ring"
    problem.write_text(problem_text(spec), encoding="utf-8")
    start = time.perf_counter()
    assert run_cli(["check", str(problem)]) == 0
    assert time.perf_counter() - start < 5.0
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli(["analyze", "--json", str(problem)]) == 0
    assert time.perf_counter() - start < 5.0
    report = json.loads(capsys.readouterr().out)
    assert all(report["certificates"].values())
    assert report["trdeg"] == ([1, 4] if domain == "GF(32003)" else 2)
    assert report["classification"] == {"tag": "BoundsOnly", "lo": 1, "hi": 4}


def test_python_m_entry_point():
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-m", "retractlab", "check", path("e1.ring")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "ok" in done.stdout


# argvs that run_cli reads itself, run from tests/data: the shapes that
# bench/corpus.py and README use, any option order, a repeated option (the
# last wins), `--json` twice, and values that int() reads as argparse does
GEN = ["gen", "--n", "4", "--d", "2", "--r", "1", "--seed", "7"]
PLAIN_ARGVS = [
    ["analyze", "e1.ring", "--json"],
    GEN + ["--complexity", "2", "--domain", "GF(5)", "--count", "1"],
    ["check", "e1.ring"],
    ["analyze", "e1.ring"],
    ["analyze", "e1.ring", "--json", "--out", "r.json"],
    ["analyze", "--out", "r.json", "--json", "e1.ring"],
    ["analyze", "--json", "e1.ring", "--json"],
    ["gen", "--n", "3", "--d", "2", "--r", "1", "--seed", "7",
     "--complexity", "2", "--count", "3", "--domain", "GF(5)",
     "--out-dir", "out"],
    ["gen", "--seed", "7", "--count", "2", "--r", "1", "--d", "2", "--n", "3"],
    GEN + ["--n", "3", "--domain", "ZZ", "--domain", "GF( 7 )"],
    ["gen", "--n", " 3", "--d", "+2", "--r", "1", "--seed", "1_0"],
    GEN + ["--count", "0", "--complexity", "99999999999999999999"],
]
# argvs that argparse reads: `--opt=value`, abbreviations, negative and
# missing values, help, unknown options or commands, a wrong positional
# count, a missing required option, a non-int value and `--`
DEFERRED_ARGVS = [
    ["gen", "--n=4", "--d=2", "--r=1", "--seed=7"],
    GEN + ["--comp", "2"],
    ["analyze", "e1.ring", "--js"],
    GEN + ["--seed", "-3"],
    GEN[:-1],
    ["analyze", "e1.ring", "--out"],
    ["analyze", "e1.ring", "--out", "--json"],
    ["-h"],
    ["analyze", "-h"],
    ["gen", "--help"],
    ["analyze", "e1.ring", "e3.ring"],
    ["analyze"],
    ["check"],
    GEN[:-2],
    ["gen", "--n", "x", "--d", "1", "--r", "1", "--seed", "1"],
    GEN + ["--count", "1.0"],
    [],
    ["selftest"],
    ["analyze", "e1.ring", "--bogus"],
    ["check", "--", "e1.ring"],
]


def typed_vars(namespace):
    # True == 1, so each value is compared with its type
    return {k: (type(v), v) for k, v in vars(namespace).items()}


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=" ".join)
def test_plain_argv_reads_as_argparse_does(argv):
    plain = cli._read_plain(argv)
    assert plain is not None
    assert typed_vars(plain) == typed_vars(cli._parser().parse_args(argv))
    assert cli._read_plain(argv) is not plain


@pytest.mark.parametrize("argv", DEFERRED_ARGVS,
                         ids=lambda argv: " ".join(argv) or "empty")
def test_other_argvs_go_to_argparse(argv, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert cli._read_plain(argv) is None
    try:
        args = cli._parser().parse_args(argv)
    except SystemExit as exc:
        expected = exc.code, capsys.readouterr()
    else:
        expected = args.func(args), capsys.readouterr()
    assert (run_cli(argv), capsys.readouterr()) == expected


def test_plain_argvs_skip_argparse(monkeypatch, capsys):
    def no_argparse():
        pytest.fail("a plain argv went to argparse")

    monkeypatch.setattr(cli, "_parser", no_argparse)
    assert run_cli(["analyze", path("e1.ring"), "--json"]) == 0
    with open(os.path.join(GOLDEN, "e1.stdout"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
    # any iterable, as parse_args takes
    assert run_cli(iter(GEN + ["--complexity", "2", "--count", "1"])) == 0
    from retractlab import GeneratorSpec, QQ, problem_text
    spec = GeneratorSpec(4, 2, 1, 7, 2, QQ)
    assert capsys.readouterr().out == problem_text(spec)


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "x", "--d", "1", "--r", "1", "--seed", "1"],
    ["analyze"], [], ["gen", "--n", "1", "--d", "1", "--r", "1"],
    ["analyze", "e1.ring", "--bogus"], ["selftest"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_usage_error_returns_2(argv, capsys):
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: retractlab")


def test_help_returns_0(capsys):
    assert run_cli(["analyze", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: retractlab analyze")


def test_golden_expectations_cover_every_data_file():
    assert sorted(GOLDEN_EXIT) == sorted(os.listdir(DATA))


@pytest.mark.parametrize("name", sorted(GOLDEN_EXIT))
def test_analyze_json_matches_golden_bytes(name, capsysbinary):
    code = run_cli(["analyze", "--json", path(name)])
    out, err = capsysbinary.readouterr()
    with open(os.path.join(GOLDEN, name[:-len(".ring")] + ".stdout"),
              "rb") as fh:
        assert out == fh.read()
    assert code == GOLDEN_EXIT[name], err
