"""The stderr lines of rejected inputs.

The benchmark's digests cover stdout and exit codes, not stderr.  Every
perturbed draw of `bench/reference.json`'s `perturb` map is a map that is
not idempotent (or whose Laurent image is no unit), rebuilt here as the
benchmark builds it, from `bench/corpus.py`'s `Spec` and `perturb_text`.
`check` and `analyze --json` must exit with the same code and write the
same one stderr line on each, and both are pinned to
`tests/golden/perturbed_messages.json`: the exit code and a sha256 prefix
of the line, per input.
"""

import hashlib
import json
import os
import re
import sys

import retractlab
from retractlab.cli import run_cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
GOLDEN = os.path.join(ROOT, "tests", "golden", "perturbed_messages.json")
sys.path.insert(0, BENCH)

import corpus  # noqa: E402

_KEY = re.compile(r"(.+)/n(\d+)d(\d+)r(\d+)c(\d+)/s(\d+)")


def perturbed_inputs():
    """(key as the benchmark names it, problem text) for each entry of the
    reference's perturb map, in key order."""
    perturb = corpus.load_reference()["perturb"]
    for key in sorted(perturb):
        domain, n, d, r, c, seed = _KEY.fullmatch(key).groups()
        spec = corpus.Spec(int(n), int(d), int(r), int(seed), int(c), domain)
        assert spec.key == key
        var = perturb[key]
        text = corpus.perturb_text(corpus.problem_text(spec, retractlab),
                                   spec, var)
        yield "%s~x%d" % (key, var + 1), text


def _run(argv, capsys):
    """(exit code, sha256 prefix of the one stderr line) of one CLI call."""
    code = run_cli(argv)
    out, err = capsys.readouterr()
    assert not out and err.endswith("\n") and err.count("\n") == 1, argv
    return code, hashlib.sha256(err.encode("utf-8")).hexdigest()[:16]


def perturbed_messages(tmp_path, capsys):
    """{key: [exit code, stderr digest]}, `check` and `analyze` agreeing."""
    messages = {}
    path = os.path.join(tmp_path, "perturbed.ring")
    for key, text in perturbed_inputs():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        checked = _run(["check", path], capsys)
        assert _run(["analyze", path, "--json"], capsys) == checked, key
        messages[key] = list(checked)
    return messages


def test_perturbed_messages_are_pinned(tmp_path, capsys):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = perturbed_messages(tmp_path, capsys)
    assert len(got) == 660
    assert {code for code, _ in got.values()} == {1}
    assert got == want
