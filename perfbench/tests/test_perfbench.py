"""Tests for the benchmark's own code: corpus, checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import smalg.cli  # noqa: E402
import smalg.exactnum  # noqa: E402
from perfbench import checks, corpus, run, trace, worker  # noqa: E402

COUNTS = [name for name, unit, _ in trace.PER_LAYER if unit == "count"]


def small(workload, seed=3):
    return corpus.build(workload, seed, rounds=1)


def written(c, tmp_path, passes=1):
    dirs = [tmp_path / f"pass{k}" for k in range(passes)]
    run.write_corpus(c, dirs)
    return dirs


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_digest_other_seed_other_digest(workload):
    assert small(workload, 3).digest() == small(workload, 3).digest()
    assert small(workload, 3).digest() != small(workload, 4).digest()


def test_no_argv_repeats_within_a_corpus():
    for workload in corpus.WORKLOADS:
        argvs = [tuple(r.argv) for r in corpus.build(workload, 1, rounds=2).requests]
        assert len(argvs) == len(set(argvs))


def test_a_shorter_corpus_is_a_prefix_of_a_longer_one():
    for workload in corpus.WORKLOADS:
        one, two = corpus.build(workload, 5, rounds=1), corpus.build(workload, 5, rounds=2)
        assert [r.argv for r in one.requests] == [r.argv for r in two.requests][:len(one.requests)]
        assert all(two.files[name] == text for name, text in one.files.items())


def test_end_to_end_loop_runs_every_request_in_a_worker(tmp_path):
    c = small("bulk")
    (workdir,) = written(c, tmp_path)
    loop = run.run_e2e(c, tmp_path, workdir)
    assert len(loop["samples"]) == len(c.requests)
    assert loop["failures"] == [] and loop["wrong"] == []
    assert loop["peak_rss_mb"] >= loop["peak_rss_before_requests_mb"] > 0


def test_a_failed_call_counts_the_time_it_ran(monkeypatch):
    def broken(argv):
        raise ValueError("boom")

    monkeypatch.setattr(smalg.cli, "run", broken)
    code, reason, elapsed = worker.attempt(["info", "x"])
    assert code is None and "ValueError" in reason
    assert 0 < elapsed < 1


def _one(builder_fn, args, tmp_path, seed=7):
    b = corpus._Builder("t", seed, 1, 1)
    builder_fn(b, random.Random(seed), *args)
    c = b.corpus
    (workdir,) = written(c, tmp_path)
    (req,) = c.requests
    code, report, _ = worker.call_smalg(run.resolve(req.argv, workdir))
    return req, code, report, workdir


def _verify(req, code, report, workdir):
    def call(argv):
        return worker.attempt(argv)[:2]

    return checks.verify(req, code, report, workdir, call)


def test_checker_accepts_then_rejects_swapped_ranks(tmp_path):
    req, code, report, workdir = _one(corpus.algebra_witness, (12,), tmp_path)
    assert _verify(req, code, report, workdir) is None
    lines = report.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("RANKS"))
    _, a, b = lines[k].split()
    lines[k] = f"RANKS {b} {a}"
    assert "RANKS" in _verify(req, code, "\n".join(lines) + "\n", workdir)


def test_checker_rejects_altered_walk_product(tmp_path):
    req, code, report, workdir = _one(corpus.bulk_trivial, ("bipartite", 20), tmp_path)
    assert req.expect == 1 and _verify(req, code, report, workdir) is None
    lines = report.splitlines()
    lines[2] = "product 1"
    assert _verify(req, code, "\n".join(lines) + "\n", workdir) is not None
    lines[2] = "product 3/7"
    assert "product" in _verify(req, code, "\n".join(lines) + "\n", workdir)


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    req, code, report, workdir = _one(corpus.relations_info, ("antichain", 5), tmp_path)
    assert _verify(req, code, report, workdir) is None
    assert "exit code" in _verify(req, 1, report, workdir)
    assert _verify(req, code, report.replace("inner false", "inner true"), workdir)


def test_classify_form_round_trips_through_synthesize(tmp_path):
    req, code, report, workdir = _one(corpus.algebra_classify, ("chain", 4, True), tmp_path)
    assert _verify(req, code, report, workdir) is None
    tampered = report.replace("classes -", "classes 1,2,3,4") if "classes -" in report \
        else report.replace(report.split("classes ")[1].split("\n")[0], "-")
    assert _verify(req, code, tampered, workdir) is not None


def _traced(tmp_path, workload="spectral", seed=5):
    c = small(workload, seed)
    dirs = written(c, tmp_path, passes=3)
    spans = tmp_path / "spans.jsonl"
    return run.run_traced(c, dirs, spans)


def test_traced_run_leaves_no_wrapper_behind(tmp_path):
    original = smalg.exactnum.rank
    before = dict(vars(smalg.exactnum.GaussianRational))
    _traced(tmp_path)
    assert trace.leftover_wrappers() == []
    assert smalg.exactnum.rank is original
    assert smalg.cli.rank is original
    assert dict(vars(smalg.exactnum.GaussianRational)) == before


def test_self_times_sum_to_each_requests_traced_wall(tmp_path):
    c = small("algebra", 2)
    (workdir,) = written(c, tmp_path)
    tracer = trace.Tracer()
    with tracer:
        for k, req in enumerate(c.requests[:6]):
            tracer.request = k
            worker.call_smalg(run.resolve(req.argv, workdir))
    per_request = trace.request_self_times(tracer)
    assert sorted(per_request) == list(range(6))
    for wall, layers in per_request.values():
        assert wall > 0
        assert sum(layers.values()) == wall
        assert set(layers) <= set(trace.LAYERS)


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced(tmp_path / "a")[0]
    second = _traced(tmp_path / "b")[0]
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}
    assert first["polyroots.roots.candidates"] > 0
    assert first["exactnum.scalar.ops"] > 0


def test_every_per_layer_metric_is_reported(tmp_path):
    metrics = _traced(tmp_path, "relations")[0]
    assert list(metrics) == [name for name, _, _ in trace.PER_LAYER]
    assert metrics["quasiorder.perms.yielded"] > 0
    assert metrics["transmap.sampler.useful_ratio"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(trace.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
