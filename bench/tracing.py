"""Per-layer tracing for the benchmark's traced run.

The wrappers are installed from here, around the public functions each
layer calls through, and removed again when the traced passes end; the
library itself is not changed.  Coarse layer calls record spans (name,
start, end, parent span, operation id), held in memory and written out at
the end of the run.  `MixedPoly.__mul__` and the coefficient operations run
millions of times per heavy operation, so they record counters and summed
times at the same boundaries instead of one span per call.
"""

import json
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name): functions wrapped wherever a retractlab
# module binds them, so `from .endo import apply` call sites are covered.
SPANNED = (
    ("cli", "run_cli", "cli.run_cli"),
    ("grammar", "parse_problem", "grammar.parse"),
    ("grammar", "render_report", "grammar.render"),
    ("grammar", "render_problem", "grammar.render"),
    ("engine", "analyze", "engine.analyze"),
    ("engine", "compute_y_variables", "engine.y_variables"),
    ("engine", "quotient_mod_J", "engine.quotient"),
    ("engine", "transcendence_degree", "engine.trdeg"),
    ("endo", "compose", "endo.compose"),
    ("endo", "apply", "endo.apply"),
    ("endo", "is_idempotent", "endo.idempotency"),
    ("endo", "idempotency_defect", "endo.idempotency"),
    ("endo", "conjugate", "endo.conjugate"),
    ("intlinalg", "decompose", "intlinalg.decompose"),
    ("intlinalg", "solve_in_lattice", "intlinalg.solve"),
    ("generator", "problem_text", "generator.gen"),
)
COEFF_OPS = ("add", "sub", "mul", "neg")

# Counters that must repeat exactly for an operation that completes.
EXACT = ("ring.mul_calls", "ring.mul_term_pairs", "ring.max_terms",
         "domains.coeff_ops", "domains.max_coeff_bits", "endo.compose_calls",
         "generator.conjugate_calls", "generator.compose_in_conjugate")

# Layer time metrics summed from span durations.
SPAN_TIMES = {
    "endo.compose_s": "endo.compose",
    "endo.idempotency_s": "endo.idempotency",
    "ring.substitute_s": "ring.substitute",
    "engine.y_variables_s": "engine.y_variables",
    "engine.quotient_s": "engine.quotient",
    "engine.trdeg_s": "engine.trdeg",
    "intlinalg.decompose_s": "intlinalg.decompose",
    "intlinalg.solve_s": "intlinalg.solve",
    "grammar.parse_s": "grammar.parse",
    "grammar.render_s": "grammar.render",
    "generator.gen_s": "generator.gen",
}


TIME_KEYS = ("ring.mul_s", "domains.coeff_s", "engine.certificates_s",
             "cli.self_s") + tuple(SPAN_TIMES)


def scaled(record, factor):
    """The record with its times multiplied by a speed factor."""
    out = dict(record)
    for key in TIME_KEYS:
        out[key] *= factor
    return out


def _bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return c.bit_length()


class _Counters:

    __slots__ = ("mul_calls", "mul_pairs", "mul_s", "max_terms", "max_bits",
                 "coeff_ops", "coeff_s")

    def __init__(self):
        self.reset()

    def reset(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class Tracer:
    """Installs the wrappers on entry and removes them on exit.

    Call `begin_op` before and `end_op` after each operation; `end_op`
    returns that operation's counters and layer times.
    """

    def __init__(self, retractlab):
        self.lib = retractlab
        self.spans = []   # [name, start, end, parent index, op id]
        self._stack = []
        self._op = None
        self._first_span = 0
        self._c = _Counters()
        self._undo = []

    # -- installation ----------------------------------------------------

    def __enter__(self):
        import importlib
        modules = {name: importlib.import_module("retractlab." + name)
                   for name in ("cli", "grammar", "engine", "endo",
                                "intlinalg", "generator", "ring", "domains")}
        bound = list(modules.values()) + [self.lib]
        for mod, attr, name in SPANNED:
            orig = getattr(modules[mod], attr)
            wrapper = self._spanned(name, orig)
            for m in bound:
                if getattr(m, attr, None) is orig:
                    self._patch(m, attr, wrapper)
        poly = modules["ring"].MixedPoly
        self._patch(poly, "substitute",
                    self._spanned("ring.substitute", poly.substitute))
        self._patch(poly, "__mul__", self._mul(poly.__mul__))
        domain = modules["domains"].Domain
        for attr in COEFF_OPS:
            self._patch(domain, attr, self._coeff(getattr(domain, attr)))
        return self

    def __exit__(self, *exc):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()
        return False

    def _patch(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None,
                    stack[-1] if stack else None, self._op]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return wrapper

    def _mul(self, fn):
        c = self._c

        def mul(a, b):
            t0 = perf_counter()
            try:
                res = fn(a, b)
            finally:
                c.mul_s += perf_counter() - t0
            c.mul_calls += 1
            c.mul_pairs += len(a.terms) * len(b.terms)
            terms = res.terms
            if len(terms) > c.max_terms:
                c.max_terms = len(terms)
            for _, k in terms:
                bits = _bits(k)
                if bits > c.max_bits:
                    c.max_bits = bits
            return res
        return mul

    def _coeff(self, fn):
        c = self._c

        def coeff_op(dom, *args):
            t0 = perf_counter()
            res = fn(dom, *args)
            c.coeff_s += perf_counter() - t0
            c.coeff_ops += 1
            return res
        return coeff_op

    # -- per-operation accounting ----------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._first_span = len(self.spans)
        self._c.reset()

    def end_op(self):
        """Counters and layer times of the operation just run."""
        c = self._c
        spans = self.spans[self._first_span:]
        self._op = None
        out = {
            "ring.mul_calls": c.mul_calls,
            "ring.mul_term_pairs": c.mul_pairs,
            "ring.mul_s": c.mul_s,
            "ring.max_terms": c.max_terms,
            "domains.coeff_ops": c.coeff_ops,
            "domains.coeff_s": c.coeff_s,
            "domains.max_coeff_bits": c.max_bits,
        }
        for metric in SPAN_TIMES:
            out[metric] = 0.0
        by_name = {name: metric for metric, name in SPAN_TIMES.items()}
        child_s = {}
        counts = {"endo.compose": 0, "endo.conjugate": 0}
        in_conjugate = 0
        for name, start, end, parent, _ in spans:
            if name in by_name:
                out[by_name[name]] += end - start
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + end - start
            if name in counts:
                counts[name] += 1
            if (name == "endo.compose" and parent is not None
                    and self.spans[parent][0] == "endo.conjugate"):
                in_conjugate += 1
        certificates = cli_self = 0.0
        base = self._first_span
        for i, (name, start, end, parent, _) in enumerate(spans, base):
            if name == "engine.analyze":
                certificates += end - start - child_s.get(i, 0.0)
            elif name == "cli.run_cli":
                cli_self += end - start - child_s.get(i, 0.0)
            elif (name == "endo.apply" and parent is not None
                  and self.spans[parent][0] == "engine.analyze"):
                certificates += end - start
        out["engine.certificates_s"] = certificates
        out["cli.self_s"] = cli_self
        out["endo.compose_calls"] = counts["endo.compose"]
        out["generator.conjugate_calls"] = counts["endo.conjugate"]
        out["generator.compose_in_conjugate"] = in_conjugate
        return out

    def write_spans(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op}) + "\n")

    def clear(self):
        del self.spans[:]


def layer_metrics(records):
    """Per-layer metrics summed over the `end_op` records of the
    operations that completed; a capped operation stops at an arbitrary
    point, so its counts would not repeat."""
    out = {}
    for key in TIME_KEYS + ("ring.mul_calls", "ring.mul_term_pairs",
                            "domains.coeff_ops", "endo.compose_calls",
                            "generator.conjugate_calls"):
        out[key] = sum(r[key] for r in records)
    for key in ("ring.max_terms", "domains.max_coeff_bits"):
        out[key] = max((r[key] for r in records), default=0)
    pairs = out["ring.mul_term_pairs"]
    out["ring.ns_per_term_pair"] = out["ring.mul_s"] / pairs * 1e9 \
        if pairs else 0.0
    conj = out["generator.conjugate_calls"]
    out["generator.compose_per_conjugate"] = sum(
        r["generator.compose_in_conjugate"] for r in records) / conj \
        if conj else 0.0
    out["trace.counted_ops"] = len(records)
    return out
