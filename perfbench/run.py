"""smalg benchmark: one user asking smalg for verdicts, one request at a time.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run from the repository root. Each request is one call to
``smalg.cli.run(argv)`` on input files written before timing starts; the
loop is closed with one client (the next request goes out when the previous
one returns) in one single-threaded process. With ``--trace 0`` the run
reports the end-to-end metrics over a fixed number of whole rounds
(``--seconds`` of request time at the reference speed, see
``corpus.rounds_for``); with ``--trace 1`` it runs a fixed prefix of the
corpus untraced, traced and op-counted, and reports per-layer metrics. The
timed end-to-end requests run in a worker process (``perfbench/worker.py``)
while this one builds the corpus and checks the reports, so the peak RSS
reported is smalg's plus a small harness. The last line of standard output is the JSON
result; a fuller record goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, probe, trace  # noqa: E402
from perfbench import corpus as corpus_mod  # noqa: E402
from perfbench.worker import REQUEST_LIMIT_S, alarm, attempt  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_LAUNCHES = 15
TAIL_BEYOND = 10

# (metric, unit, better) for --trace 0, in BENCHMARK.json order.
END_TO_END = (
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def write_corpus(corpus, workdirs):
    """Write the input files into each directory, then drop them from memory."""
    for d in workdirs:
        d.mkdir(parents=True)
        for name, text in corpus.files.items():
            (d / name).write_text(text)
    corpus.files = {}


def pass_dirs(run_dir, trace_flag):
    return [run_dir / f"pass{k}" for k in range(3 if trace_flag else 1)]


def resolve(argv, workdir):
    return [a.replace("{w}", str(workdir)) for a in argv]


# --- environment ----------------------------------------------------------------


def environment():
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "smalg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup():
    """Median wall time of a fresh interpreter doing ``import smalg.cli``,
    after one launch that leaves the bytecode cache warm. The 60 s limit is
    the SIGALRM timer: ``subprocess.run(timeout=...)`` would poll for the
    child's exit in sleeps of up to 50 ms and round every launch to them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", "import smalg.cli"]
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        signal.setitimer(signal.ITIMER_REAL, 60)
        try:
            start = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=env, check=True)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if k:
            times.append(elapsed)
    return statistics.median(times)


# --- end-to-end run -------------------------------------------------------------


def run_e2e(corpus, run_dir, workdir):
    """Send every request of the corpus once, in order, from a worker
    process (``perfbench/worker.py``) that has ended when this returns,
    then check each report here, outside the timed calls. A failed request
    counts its real run time in ``timed_s`` and the limit as its latency."""
    with open(run_dir / "requests.pickle", "wb") as handle:
        pickle.dump([resolve(req.argv, workdir) for req in corpus.requests], handle)
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), str(run_dir)],
                   cwd=ROOT, check=True, timeout=170)
    with open(run_dir / "served.pickle", "rb") as handle:
        served = pickle.load(handle)

    def untimed_call(argv):
        code, report, _ = attempt(argv)
        return code, report

    per_round = len(corpus.requests) // corpus.rounds
    samples, failures, wrong = [], [], []
    seen, repeats = set(), 0
    round_rates = []
    for r in range(corpus.rounds):
        round_s, round_ok = 0.0, 0
        for k in range(r * per_round, (r + 1) * per_round):
            req = corpus.requests[k]
            code, elapsed, _ = served["calls"][k]
            report = (run_dir / "reports" / f"{k:05d}").read_text()
            repeats += req.relation in seen
            seen.add(req.relation)
            round_s += elapsed
            if code is None:
                reason = report
            else:
                reason = checks.verify(req, code, report, workdir, untimed_call)
                if reason is not None:
                    wrong.append((req.kind, reason))
            if reason is None:
                round_ok += 1
            else:
                failures.append((req.kind, reason))
                elapsed = REQUEST_LIMIT_S  # a failure misses every latency limit
            samples.append((req.kind, elapsed))
        round_rates.append(round_ok / round_s)
    return {
        "samples": samples,
        "failures": failures,
        "wrong": wrong,
        "timed_s": sum(elapsed for _, elapsed, _ in served["calls"]),
        "round_rates": round_rates,
        "relation_repeat_share": repeats / max(1, len(samples)),
        "host_probe_s": statistics.median(p for _, _, p in served["calls"]),
        "peak_rss_mb": served["peak_rss_mb"],
        "peak_rss_before_requests_mb": served["peak_rss_before_requests_mb"],
    }


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (TAIL_BEYOND+1)-th largest value, its percentile and the count."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * (k + 1) / n, n


def e2e_metrics(loop, setup_s):
    """Time metrics at the probe's reference host speed (raw values go in
    ``detail``), then success share, set-up time and memory."""
    lat = [t for _, t in loop["samples"]]
    ok = len(lat) - len(loop["failures"])
    tail_s, tail_pct, n = tail(lat)
    raw = {
        "requests_per_s": ok / loop["timed_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
    }
    scale = probe.latency_scale(loop["host_probe_s"])
    metrics = {
        "requests_per_s": raw["requests_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_tail_ms": raw["latency_tail_ms"] * scale,
        "ok_frac": ok / n,
        "setup_s": setup_s,
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    detail = {
        "failed_frac": len(loop["failures"]) / n,
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "raw": raw,
        "host_probe_s": loop["host_probe_s"],
        "host_speed_scale": scale,
        "requests_per_s_by_round": loop["round_rates"],
    }
    return metrics, detail


def per_kind(samples):
    kinds = {}
    for kind, t in samples:
        kinds.setdefault(kind, []).append(t)
    return {k: {"n": len(v), "median_ms": statistics.median(v) * 1e3} for k, v in sorted(kinds.items())}


# --- traced run -------------------------------------------------------------------


def run_pass(requests, workdir, tracer=None):
    """Run the requests once, checking exit codes only; (seconds summed
    over calls, failures, wrong exit codes)."""
    total, failures, wrong = 0.0, [], []
    gc.collect()
    gc.freeze()
    for k, req in enumerate(requests):
        if tracer is not None:
            tracer.request = k
        gc.collect()
        code, report, elapsed = attempt(resolve(req.argv, workdir))
        total += elapsed
        if code is None:
            failures.append((req.kind, report))
        elif code != req.expect:
            failures.append((req.kind, f"exit code {code}, expected {req.expect}"))
            wrong.append(failures[-1])
    gc.unfreeze()
    return total, failures, wrong


def run_traced(corpus, workdirs, spans_path):
    per_round = len(corpus.requests) // corpus.rounds
    requests = corpus.requests[:per_round * corpus.trace_rounds]
    plain_s, _, _ = run_pass(requests, workdirs[0])
    tracer = trace.Tracer()
    with tracer:
        traced_s, failures, wrong = run_pass(requests, workdirs[1], tracer)
    with trace.OpCounter() as counter:
        run_pass(requests, workdirs[2])
    left = trace.leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed: {left[:5]}")
    tracer.write_jsonl(spans_path)
    metrics = trace.summarize(tracer, counter.ops, traced_s / plain_s)
    return metrics, failures, wrong, len(requests), plain_s, traced_s


# --- main ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "smalg" / "cli.py").is_file():
        print(f"error: no smalg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in corpus_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(corpus_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    import smalg.cli  # noqa: F401  (imported before timing starts)

    signal.signal(signal.SIGALRM, alarm)
    env = environment()
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdirs = pass_dirs(run_dir, args.trace)
    try:
        spec = corpus_mod.WORKLOADS[args.workload]
        rounds = (spec["trace_rounds"] if args.trace
                  else corpus_mod.rounds_for(args.workload, args.seconds))
        corpus = corpus_mod.build(args.workload, args.seed, rounds)
        digest = corpus.digest()
        write_corpus(corpus, workdirs)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "corpus_sha256": digest, "rounds": corpus.rounds,
                  "requests_in_corpus": len(corpus.requests),
                  "hazards": corpus_mod.HAZARDS[args.workload], **env}
        if args.trace:
            spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            metrics, failures, wrong, attempted, plain_s, traced_s = run_traced(
                corpus, workdirs, spans_path)
            units = {name: unit for name, unit, _ in trace.PER_LAYER}
            result.update(trace_requests=attempted, untraced_s=plain_s, traced_s=traced_s,
                          spans_file=str(spans_path.relative_to(ROOT)))
        else:
            setup_s = measure_setup()
            loop = run_e2e(corpus, run_dir, workdirs[0])
            metrics, detail = e2e_metrics(loop, setup_s)
            units = {name: unit for name, unit, _ in END_TO_END}
            failures, wrong = loop["failures"], loop["wrong"]
            attempted = len(loop["samples"])
            result.update(detail, timed_s=loop["timed_s"],
                          peak_rss_before_requests_mb=loop["peak_rss_before_requests_mb"],
                          relation_repeat_share=loop["relation_repeat_share"],
                          per_kind=per_kind(loop["samples"]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(loadavg_end=os.getloadavg(), failures=failures[:20], metrics=metrics)
    out_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1, default=list) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:34s} {value:14.6g} {units[name]}")
    for key in ("failed_frac", "latency_tail_percentile", "latency_samples",
                "relation_repeat_share", "rounds", "peak_rss_before_requests_mb",
                "host_probe_s", "corpus_sha256"):
        if key in result:
            print(f"{args.workload:10s} {key:34s} {result[key]}")
    for kind, reason in failures[:10]:
        print(f"{args.workload:10s} FAILED {kind}: {reason}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
