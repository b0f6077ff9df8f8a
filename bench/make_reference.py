"""Build bench/reference.json and bench/named/ from the current sources.

    python3 bench/make_reference.py

The reference holds, for every operation a workload can draw, the exit code
and output digest the benchmark checks, plus the draw pools ordered by
measured cost.  Run it only at a commit whose outputs are known to be
right, and only to change the corpus: the benchmark gates every later
commit on these digests.  It takes a few minutes.
"""

import json
import os
import shutil
import signal
import sys

import corpus
from run import CAPPED, _on_alarm, digest, import_library, run_op

POOL_CAP_S = 3.0    # candidates slower than this are not timed further
TAIL_LIMIT_S = 1.0  # tail pool: seeds whose analyze finishes under this
PERTURB_LIMIT_S = 0.1


def timed(cli, argv, cap=corpus.CAP_S, repeat=1):
    """(exit code, output digest, best seconds); exit None when capped."""
    best = None
    for _ in range(repeat):
        code, elapsed, out = run_op(cli, argv, cap)
        if code is None:
            return None, None, elapsed
        best = elapsed if best is None else min(best, elapsed)
    return code, digest(out), best


class Builder:

    def __init__(self, retractlab, work_dir):
        self.lib = retractlab
        self.cli = retractlab.cli
        self.work_dir = work_dir
        self.digests = {}
        self.perturb = {}

    def write(self, text):
        path = os.path.join(self.work_dir, "problem.ring")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def analyze(self, key, text, cap=corpus.CAP_S, repeat=1):
        code, dig, seconds = timed(
            self.cli, ["analyze", self.write(text), "--json"], cap,
            repeat)
        if code is not None:
            self.digests["analyze " + key] = [code, dig]
        return code, seconds

    def gen(self, spec):
        code, dig, _ = timed(self.cli, spec.gen_argv())
        if code is None:
            raise SystemExit("gen %s hit the cap" % spec.key)
        self.digests["gen " + spec.key] = [code, dig]

    def small_pool(self, n, d, c, dom):
        """Seeds 0..SMALL_POOL-1, costliest first; each gets a perturbation
        that makes analyze reject it as not idempotent."""
        costs = []
        for seed in range(corpus.SMALL_POOL):
            spec = corpus.Spec.drawn(n, d, c, seed, dom)
            text = corpus.problem_text(spec, self.lib)
            _, seconds = self.analyze(spec.key, text, repeat=3)
            costs.append((seconds, seed))
            self.gen(spec)
            for k in range(n):
                var = (seed + k) % n
                key = "%s~x%d" % (spec.key, var + 1)
                code, seconds = self.analyze(
                    key, corpus.perturb_text(text, spec, var))
                if code == 1 and seconds < PERTURB_LIMIT_S:
                    self.perturb[spec.key] = var
                    break
                self.digests.pop("analyze " + key, None)
            else:
                raise SystemExit("no rejecting perturbation for " + spec.key)
        return [seed for _, seed in sorted(costs, reverse=True)]

    def tail_pool(self, n, d, c):
        """The first TAIL_POOL seeds whose analyze finishes under
        TAIL_LIMIT_S on every tail domain, costliest on QQ first."""
        named = {s for *_, s, _ in corpus.NAMED}
        costs = []
        seed = 0
        while len(costs) < corpus.TAIL_POOL:
            if seed not in named:
                cost = self._tail_candidate(n, d, c, seed)
                if cost is not None:
                    costs.append((cost, seed))
            seed += 1
        return [s for _, s in sorted(costs, reverse=True)]

    def _tail_candidate(self, n, d, c, seed):
        specs = [corpus.Spec.drawn(n, d, c, seed, dom)
                 for dom in corpus.TAIL_DOMAINS.values()]
        texts = [corpus.problem_text(spec, self.lib) for spec in specs]
        for spec, text in zip(specs, texts):
            code, seconds = self.analyze(spec.key, text, POOL_CAP_S)
            if code is None or seconds >= TAIL_LIMIT_S:
                for other in specs:
                    self.digests.pop("analyze " + other.key, None)
                return None
        self.gen(specs[0])
        return self.analyze(specs[0].key, texts[0], repeat=3)[1]

    def named(self):
        os.makedirs(corpus.NAMED_DIR, exist_ok=True)
        for dom in corpus.TAIL_DOMAINS.values():
            for spec in corpus.named_specs(dom):
                text = corpus.problem_text(spec, self.lib)
                with open(corpus.named_file(spec), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
                code, seconds = self.analyze(spec.key, text)
                if code is None:
                    self.digests["analyze " + spec.key] = None
                print("named %s: %s in %.2f s" % (
                    spec.key, CAPPED if code is None else "exit %d" % code,
                    seconds), flush=True)
                if dom == "QQ":
                    self.gen(spec)

    def golden(self):
        for name in corpus.GOLDEN:
            path = os.path.join(corpus.GOLDEN_DIR, name + ".ring")
            code, dig, _ = timed(self.cli, ["analyze", path, "--json"])
            self.digests["analyze golden/" + name] = [code, dig]


def main():
    retractlab = import_library()
    signal.signal(signal.SIGALRM, _on_alarm)
    work_dir = os.path.join(corpus.ROOT, ".bench_work", "reference")
    os.makedirs(work_dir, exist_ok=True)
    b = Builder(retractlab, work_dir)
    b.golden()
    b.named()
    small = {}
    for n, d, c, dom in corpus.small_strata():
        small[corpus.stratum_key(n, d, c, dom)] = b.small_pool(n, d, c, dom)
    print("small pools done", flush=True)
    tail = {}
    for n, d, c in corpus.TAIL_STRATA:
        tail[corpus.stratum_key(n, d, c)] = b.tail_pool(n, d, c)
        print("tail pool n%dd%dc%d done" % (n, d, c), flush=True)
    with open(corpus.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for name, table in (("small", small), ("tail", tail),
                            ("perturb", b.perturb)):
            fh.write("%s: %s,\n" % (json.dumps(name),
                                     json.dumps(table, sort_keys=True)))
        fh.write('"digests": {\n%s\n}}\n' % ",\n".join(
            "%s: %s" % (json.dumps(k), json.dumps(v))
            for k, v in sorted(b.digests.items())))
    shutil.rmtree(work_dir)
    print("wrote %s: %d digests" % (corpus.REFERENCE, len(b.digests)))


if __name__ == "__main__":
    sys.exit(main())
