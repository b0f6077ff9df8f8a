"""Workload plans: the operations each benchmark workload runs.

One operation is one `retractlab.cli.run_cli` call: `analyze <file> --json`
on a problem file, or `gen ... --count 1` on one generator spec.  Every
operation has a key under which `reference.json` stores the exit code and
output digest recorded at the seed commit.

Draws come from fixed pools recorded in `reference.json`.  Each pool lists
its seeds from the most to the least expensive (analyze time at the seed
commit), and a run draws one seed from each consecutive bin of that list.
The run seed picks the member of each bin, so another seed gives other
instances while every run keeps the same cost profile; without the bins,
one rare slow draw would move the tail metrics more than any change under
test.  The named instances are in every run.

This module imports nothing from retractlab, so the set-up timing in
`run.py` includes the import of the library.
"""

import json
import os
import random
from collections import namedtuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
NAMED_DIR = os.path.join(BENCH_DIR, "named")
GOLDEN_DIR = os.path.join(ROOT, "tests", "data")

WORKLOADS = ("small", "tail-qq", "tail-gfp", "gen")
TAIL_DOMAINS = {"tail-qq": "QQ", "tail-gfp": "GF(32003)"}

# Wall-clock cap per operation run.  Instance 1004 takes 5.5-10 s on QQ on
# this shared host and must finish.  Operations that did not finish at the
# seed commit (1014 and 1016, which run for over 60 s) get a shorter cap,
# since every run spends it on each of them.
CAP_S = 15.0
UNFINISHED_CAP_S = 5.0

SMALL_DOMAINS = ("QQ", "ZZ", "GF(5)", "GF(32003)")
SMALL_POOL = 5          # seeds 0..4 per small stratum
SMALL_BIN = 2           # costliest seed always drawn, then 1 per bin of 2
PERTURBED_SHARE = 0.1   # extra non-idempotent copies of drawn instances
TAIL_STRATA = ((5, 3, 3), (5, 3, 4), (6, 3, 3))  # (n, d, complexity)
TAIL_POOL = 150         # first seeds per tail stratum finishing under 1 s
TAIL_BIN = 2
# (n, d, r, seed, complexity): the tail cases ROADMAP names.
NAMED = ((5, 3, 0, 1004, 3), (6, 3, 2, 1014, 4), (6, 3, 0, 1016, 3))
GOLDEN = ("e1", "e3", "e7", "gf5", "swap", "ufd", "undeclared", "zz")


class Spec(namedtuple("Spec", "n d r seed complexity domain")):
    """One `retractlab gen` spec; r follows from the seed in the pools."""

    @classmethod
    def drawn(cls, n, d, complexity, seed, domain):
        return cls(n, d, seed % (d + 1), seed, complexity, domain)

    @property
    def key(self):
        return "%s/n%dd%dr%dc%d/s%d" % (self.domain, self.n, self.d, self.r,
                                        self.complexity, self.seed)

    def gen_argv(self):
        return ["gen", "--n", str(self.n), "--d", str(self.d),
                "--r", str(self.r), "--seed", str(self.seed),
                "--complexity", str(self.complexity),
                "--domain", self.domain, "--count", "1"]


class Op(namedtuple("Op", "key argv spec perturb path generated cap")):
    """One operation.  `path` is the problem file an analyze op reads; set-up
    writes it when `generated` is true, else it is a file of the repo."""


def stratum_key(n, d, complexity, domain=None):
    key = "n%dd%dc%d" % (n, d, complexity)
    return key if domain is None else "%s/%s" % (domain, key)


def small_strata():
    for n in range(2, 6):
        for d in range(1, min(3, n) + 1):
            for c in range(3):
                for dom in SMALL_DOMAINS:
                    yield n, d, c, dom


def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _file_name(key):
    return key.translate(str.maketrans("/~", "__", "()")) + ".ring"


def named_file(spec):
    return os.path.join(NAMED_DIR, _file_name(spec.key))


def named_specs(domain):
    return [Spec(n, d, r, s, c, domain) for n, d, r, s, c in NAMED]


def _binned(pool, rng, bin_size):
    return [rng.choice(pool[i:i + bin_size])
            for i in range(0, len(pool), bin_size)]


def small_draws(ref, seed):
    """(drawn specs, the subset to perturb) for the small workload."""
    rng = random.Random("small/%d" % seed)
    specs, perturbable = [], []
    for n, d, c, dom in small_strata():
        pool = ref["small"][stratum_key(n, d, c, dom)]
        specs.append(Spec.drawn(n, d, c, pool[0], dom))
        for s in _binned(pool[1:], rng, SMALL_BIN):
            spec = Spec.drawn(n, d, c, s, dom)
            specs.append(spec)
            perturbable.append(spec)
    # the costliest seed of each stratum stays unperturbed so that the
    # slowest operation of the workload is the same on every seed
    k = round(PERTURBED_SHARE * len(specs))
    perturbed = sorted(rng.sample(perturbable, k), key=specs.index)
    return specs, perturbed


def tail_draws(ref, seed, domain):
    """Drawn specs for the tail strata; the same seeds for every domain."""
    rng = random.Random("tail/%d" % seed)
    specs = []
    for n, d, c in TAIL_STRATA:
        pool = ref["tail"][stratum_key(n, d, c)]
        specs += [Spec.drawn(n, d, c, s, domain)
                  for s in _binned(pool, rng, TAIL_BIN)]
    return specs


def perturb_text(text, spec, var):
    """Problem text with the image of variable `var` perturbed: a Laurent
    image is multiplied by the square of its variable (it stays a unit), a
    polynomial image gets that square added."""
    name = "x%d" % (var + 1)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        lhs, sep, rhs = line.partition(" -> ")
        if sep and lhs == name:
            rhs = ("%s^2*(%s)" % (name, rhs) if var < spec.d
                   else "%s + %s^2" % (rhs, name))
            lines[i] = "%s -> %s" % (name, rhs)
            return "\n".join(lines) + "\n"
    raise ValueError("no map line for %s" % name)


def _cap(ref, key):
    """A null digest marks an operation the seed commit never finished."""
    unfinished = key in ref["digests"] and ref["digests"][key] is None
    return UNFINISHED_CAP_S if unfinished else CAP_S


def plan(workload, seed, ref, work_dir):
    """The operations of one pass over the workload, in run order."""

    def analyze(key, spec=None, perturb=None, path=None):
        # without a path, the op reads a file that set-up writes
        generated = path is None
        if generated:
            path = os.path.join(work_dir, _file_name(key))
        key = "analyze " + key
        return Op(key, ["analyze", path, "--json"], spec, perturb, path,
                  generated, _cap(ref, key))

    if workload == "small":
        specs, perturbed = small_draws(ref, seed)
        ops = [analyze("golden/" + name,
                       path=os.path.join(GOLDEN_DIR, name + ".ring"))
               for name in GOLDEN]
        ops += [analyze(spec.key, spec) for spec in specs]
        for spec in perturbed:
            var = ref["perturb"][spec.key]
            ops.append(analyze("%s~x%d" % (spec.key, var + 1), spec, var))
    elif workload in TAIL_DOMAINS:
        domain = TAIL_DOMAINS[workload]
        ops = [analyze(spec.key, spec)
               for spec in tail_draws(ref, seed, domain)]
        ops += [analyze(spec.key, spec, path=named_file(spec))
                for spec in named_specs(domain)]
    elif workload == "gen":
        specs = (small_draws(ref, seed)[0] + tail_draws(ref, seed, "QQ")
                 + named_specs("QQ"))
        ops = [Op("gen " + s.key, s.gen_argv(), s, None, None, False,
                  _cap(ref, "gen " + s.key)) for s in specs]
    else:
        raise ValueError("unknown workload %r" % workload)
    return ops


def _domain(name, retractlab):
    if name in ("QQ", "ZZ"):
        return getattr(retractlab, name)
    return retractlab.GF(int(name[3:-1]))


def problem_text(spec, retractlab):
    return retractlab.problem_text(retractlab.GeneratorSpec(
        spec.n, spec.d, spec.r, spec.seed, spec.complexity,
        _domain(spec.domain, retractlab)))


def write_inputs(ops, retractlab):
    """Write the generated problem files the analyze operations read."""
    texts = {}
    for op in ops:
        if not op.generated:
            continue
        if op.spec not in texts:
            texts[op.spec] = problem_text(op.spec, retractlab)
        text = texts[op.spec]
        if op.perturb is not None:
            text = perturb_text(text, op.spec, op.perturb)
        with open(op.path, "w", encoding="utf-8") as fh:
            fh.write(text)
