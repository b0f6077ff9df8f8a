"""Smoke tests of the benchmark harness on a tiny corpus.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.fixture(scope="module")
def ref():
    return corpus.load_reference()


@pytest.fixture(scope="module")
def gauge():
    return speed.SpeedGauge()


@pytest.fixture(autouse=True)
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def tiny_corpus(ref, work_dir, seed=1):
    """Golden files, a few draws, one perturbed draw and two gen specs."""
    small = corpus.plan("small", seed, ref, work_dir)
    golden = [op for op in small if not op.generated]
    drawn = [op for op in small if op.generated]
    perturbed = [op for op in drawn if op.perturb is not None]
    gen = [op for op in corpus.plan("gen", seed, ref, work_dir)
           if op.spec.complexity > 0]
    return golden + drawn[:4] + perturbed[:1] + gen[:2]


def test_seed_changes_draws_and_keeps_named(ref, tmp_path):
    for workload, named in (
            ("small", ["analyze golden/" + g for g in corpus.GOLDEN]),
            ("tail-qq", ["analyze " + s.key
                         for s in corpus.named_specs("QQ")]),
            ("tail-gfp", ["analyze " + s.key
                          for s in corpus.named_specs("GF(32003)")]),
            ("gen", ["gen " + s.key for s in corpus.named_specs("QQ")])):
        a = [op.key for op in corpus.plan(workload, 1, ref, str(tmp_path))]
        b = [op.key for op in corpus.plan(workload, 2, ref, str(tmp_path))]
        assert a == [op.key for op in
                     corpus.plan(workload, 1, ref, str(tmp_path))]
        assert a != b and len(a) == len(b)
        assert set(named) <= set(a) and set(named) <= set(b)
        assert all(key in ref["digests"] for key in a + b)
        assert len(a) >= 200


def test_tiny_corpus_matches_reference(lib, ref, gauge, tmp_path):
    ops = tiny_corpus(ref, str(tmp_path))
    corpus.write_inputs(ops, lib)
    runs = run.measure(lib.cli, ops, ref, 0, gauge)
    assert [len(rs) for rs in runs] == [run.MIN_RUNS] * len(ops)
    assert {r.status for rs in runs for r in rs} == {run.OK}
    metrics, info = run.summarize(runs)
    assert metrics["completed_frac"] == 1.0
    assert 0 < metrics["op_p50_ms"] <= metrics["op_max_ms"]
    assert metrics["sweep_s"] == pytest.approx(sum(
        statistics.median(r.seconds for r in rs) for rs in runs))
    # fewer than 21 ops: ten above the reported percentile puts it below p50
    assert info["tail_rank"] == len(ops) - 10
    assert info["attempted"] == run.MIN_RUNS * len(ops)


def test_changed_output_is_a_mismatch(lib, ref, gauge, tmp_path):
    op = [o for o in tiny_corpus(ref, str(tmp_path)) if o.generated][0]
    shutil.copy(os.path.join(corpus.GOLDEN_DIR, "e1.ring"), op.path)
    [(_, status, message, _)] = run.run_pass(lib.cli, [op], ref, gauge)
    assert status == run.MISMATCH and op.key in message


def test_unfinished_instance_is_checked_by_its_report(ref, tmp_path):
    op = [o for o in corpus.plan("tail-qq", 1, ref, str(tmp_path))
          if o.key.endswith("/s1014")][0]
    assert op.cap == corpus.UNFINISHED_CAP_S and ref["digests"][op.key] is None
    report = {"r": op.spec.r, "certificates": {"a": True, "b": True}}
    assert run.judge(op, 0, json.dumps(report), ref)[0] == run.OK
    report["certificates"]["b"] = False
    assert run.judge(op, 0, json.dumps(report), ref)[0] == run.MISMATCH
    assert run.judge(op, 0, "not json", ref)[0] == run.MISMATCH
    assert run.judge(op, 1, "", ref)[0] == run.MISMATCH


def test_capped_operation_counts_as_failed(lib, ref, gauge, tmp_path):
    op = [o for o in corpus.plan("tail-qq", 1, ref, str(tmp_path))
          if o.key.endswith("/s1004")][0]
    code, elapsed, _ = run.run_op(lib.cli, op.argv, 0.05)
    assert code is None and 0.05 <= elapsed < 1.0
    assert run.judge(op, code, "", ref)[0] == run.CAPPED
    fast = run.run_pass(lib.cli, tiny_corpus(ref, str(tmp_path))[:3], ref,
                        gauge)
    runs = [[r, r] for r in fast] + [[run.Result(elapsed, run.CAPPED, None,
                                                 None)]]
    metrics, info = run.summarize(runs)
    assert metrics["completed_frac"] == 0.75 and info["capped"] == 1
    assert info["attempted"] == 7
    assert metrics["op_max_ms"] == elapsed * 1e3


def test_traced_counters_repeat_and_wrappers_are_removed(lib, ref, gauge,
                                                         tmp_path):
    ops = tiny_corpus(ref, str(tmp_path))
    corpus.write_inputs(ops, lib)
    before = lib.endo.compose
    with tracing.Tracer(lib) as tracer:
        assert lib.endo.compose is not before
        passes = [run.run_pass(lib.cli, ops, ref, gauge, tracer)
                  for _ in range(2)]
        tracer.write_spans(str(tmp_path / "spans.jsonl"))
    assert lib.endo.compose is before
    assert lib.cli.run_cli.__name__ == "run_cli"
    for a, b in zip(*passes):
        assert a.status == b.status == run.OK
        assert {k: a.record[k] for k in tracing.EXACT} == \
            {k: b.record[k] for k in tracing.EXACT}
    layers = tracing.layer_metrics([r.record for r in passes[0]])
    assert layers["ring.mul_term_pairs"] > 0
    assert layers["endo.compose_calls"] > 0
    assert layers["generator.compose_per_conjugate"] == 4
    assert layers["engine.certificates_s"] > 0
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert {s["name"] for s in spans} >= {"cli.run_cli", "engine.analyze",
                                          "endo.compose", "generator.gen"}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(corpus.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(corpus.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()
