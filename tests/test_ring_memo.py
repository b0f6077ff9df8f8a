"""A process builds each ring once (`ring.ring_memo`): a header's ring, the
generator's ring of (n, d, domain) and the quotient ring S[z].  The shared
rings must keep no state that moves an output, whatever ran before."""

import json
import os

from retractlab import QQ, analyze, engine, generator, grammar
from retractlab.cli import run_cli
from retractlab.grammar import parse_problem
from retractlab.ring import (PRINT_TABLE_SIZE, RING_MEMO_SIZE,
                             RING_MEMO_WIDTH)

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
    GOLDEN_EXIT = json.load(fh)

MEMOS = (grammar._parse_header, generator._ring, engine._quotient_ring)

# (n, d, r, seed, complexity, domain): n from 1 to 6 over each domain, and
# some (n, d, domain) drawn twice, so that two maps share a ring
GEN_SPECS = [
    (1, 1, 1, 1, 2, "QQ"), (1, 0, 0, 2, 2, "ZZ"), (2, 1, 0, 3, 2, "GF(5)"),
    (2, 2, 1, 4, 3, "GF(32003)"), (3, 2, 1, 5, 2, "QQ"), (3, 1, 1, 6, 3, "ZZ"),
    (4, 2, 1, 7, 2, "GF(5)"), (4, 3, 2, 8, 2, "GF(32003)"),
    (5, 3, 1, 9, 2, "QQ"), (5, 2, 2, 10, 2, "ZZ"), (6, 3, 1, 11, 2, "GF(5)"),
    (6, 2, 0, 12, 2, "GF(32003)"), (3, 2, 1, 13, 3, "QQ"),
    (2, 1, 0, 14, 1, "GF(5)"), (6, 3, 1, 15, 2, "GF(5)"),
]
# a ring wider than RING_MEMO_WIDTH, built afresh on every call
WIDE_GEN = ["gen", "--n", "100", "--d", "50", "--r", "10", "--seed", "1",
            "--complexity", "2"]


def _gen_argv(n, d, r, seed, complexity, domain):
    return ["gen", "--n", str(n), "--d", str(d), "--r", str(r),
            "--seed", str(seed), "--complexity", str(complexity),
            "--domain", domain]


def test_shared_rings_keep_no_state_between_operations(tmp_path,
                                                       capsysbinary):
    def run(argv):
        code = run_cli(argv)
        return (code,) + capsysbinary.readouterr()

    ops = [["analyze", "--json", os.path.join(DATA, name)]
           for name in sorted(GOLDEN_EXIT)]
    for i, spec in enumerate(GEN_SPECS):
        # each generated map is analyzed too, so maps of one ring share it
        argv = _gen_argv(*spec)
        generated = tmp_path / ("gen%d.ring" % i)
        generated.write_bytes(run(argv)[1])
        ops += [argv, ["analyze", "--json", str(generated)]]
    first = {}
    for argv in ops:  # each from empty memos, as a single CLI call runs it
        for memo in MEMOS:
            memo.cache_clear()
        first[tuple(argv)] = run(argv)
    for name, code in GOLDEN_EXIT.items():
        with open(os.path.join(GOLDEN, name[:-len(".ring")] + ".stdout"),
                  "rb") as fh:
            golden = fh.read()
        assert first[("analyze", "--json", os.path.join(DATA, name))][:2] \
            == (code, golden), name
    wide = run(WIDE_GEN)
    assert wide[0] == 0
    interleaved = [argv for op in ops for argv in (op, WIDE_GEN)]
    for order in (ops, ops[::-1], interleaved):
        for argv in order:
            assert run(argv) == (wide if argv is WIDE_GEN
                                 else first[tuple(argv)]), argv

    header = "ring GF(5)[a^±,b,c]"
    assert grammar._parse_header(header, 1) is grammar._parse_header(
        header, 1)
    names = ["x%d" % i for i in range(1, 1001)]
    wide_calls = [
        (grammar._parse_header, ("ring QQ[%s]" % ",".join(names), 1)),
        (generator._ring, (1000, 0, QQ)),
        (engine._quotient_ring, (tuple(names), 0, QQ)),
    ]
    for memo, args in wide_calls:
        size = memo.cache_info().currsize
        ring = memo(*args)
        assert ring.n == 1000 > RING_MEMO_WIDTH
        assert memo(*args) is not ring and memo(*args) == ring
        assert memo.cache_info().currsize == size
    for memo in MEMOS:
        assert memo.cache_info().maxsize == RING_MEMO_SIZE


def test_quotient_ring_is_reused_and_never_the_input_ring():
    _, phi = parse_problem("ring QQ[x^±,y]\nx -> x\ny -> y\n")
    _, psi = parse_problem("ring QQ[x^±,y]\nx -> x\ny -> 0\n")
    a, b = analyze(phi), analyze(psi)
    assert a.r == b.r == 1
    assert a.quotient_generators[0].ring is b.quotient_generators[0].ring
    # d = r = 0: S[z] has the input ring's signature, in the quotient memo
    _, chi = parse_problem("ring QQ[x]\nx -> x\n")
    for _ in range(2):
        target = analyze(chi).quotient_generators[0].ring
        assert target == chi.ring and target is not chi.ring


def test_print_tables_stay_bounded_on_a_shared_ring():
    # a memoized header's ring lives for the whole process: its printer's
    # {exponent: text} tables start again once they hold PRINT_TABLE_SIZE
    # exponents, and every print reads the same as from fresh tables
    ring = grammar._parse_header("ring QQ[x^±,y]", 1)
    assert ring is grammar._parse_header("ring QQ[x^±,y]", 1)

    def power(name, e):
        return "" if not e else name if e == 1 else "%s^%d" % (name, e)

    largest = 0
    for k in range(10000):
        for exp in ((k, 0), (-k, k % 3)):
            expected = "*".join(filter(None, (power("x", exp[0]),
                                              power("y", exp[1]))))
            assert str(ring.monomial(exp)) == (expected or "1"), exp
            largest = max(largest, *map(len, ring._powers))
            assert largest <= PRINT_TABLE_SIZE, exp
    assert largest == PRINT_TABLE_SIZE
    for table, name in zip(ring._powers, ring.names):
        assert table[0] == "" and table[1] == name
