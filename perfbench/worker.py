"""The request process of an end-to-end run.

    python3 perfbench/worker.py RUN_DIR

Reads the resolved argv lists from ``RUN_DIR/requests.pickle`` and sends
each once, in order, to ``smalg.cli.run``: a closed loop with one client.
Before each request it collects garbage and times the host-speed probe,
both outside the timed call; after it, the report goes to
``RUN_DIR/reports/<index>`` and nothing of it stays in memory. At the end
``RUN_DIR/served.pickle`` holds (exit code, seconds, probe seconds) per
request and this process's peak RSS before and after the requests.

The process imports smalg, the probe and the standard library only; the
corpus, the checks and the trace live in the parent (``perfbench/run.py``),
so the peak RSS reported is smalg's plus a small harness.
"""

from __future__ import annotations

import gc
import pickle
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import probe  # noqa: E402

REQUEST_LIMIT_S = 30.0


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that ran past its limit. A
    BaseException, so no ``except Exception`` in the library swallows it."""


def alarm(signum, frame):
    raise RequestTimeout()


def call_smalg(argv, limit=REQUEST_LIMIT_S):
    """(exit code, report, seconds) of one ``smalg.cli.run`` call; the limit
    is an interval timer in this process, no watchdog thread. Needs
    ``alarm`` installed as the SIGALRM handler."""
    import smalg.cli

    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        start = time.perf_counter_ns()
        outcome = smalg.cli.run(argv)
        elapsed = (time.perf_counter_ns() - start) / 1e9
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome.exit_code, outcome.report, elapsed


def attempt(argv):
    """Like call_smalg, but a failure comes back as (None, reason, seconds
    the call ran)."""
    start = time.perf_counter_ns()
    try:
        return call_smalg(argv)
    except RequestTimeout:
        reason = "timeout"
    except Exception:  # a traceback is a failed request, never an aborted run
        reason = "traceback: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return None, reason, (time.perf_counter_ns() - start) / 1e9


def peak_rss_mb():
    """Peak RSS of this process's own address space: ``VmHWM`` where Linux
    has it, since ``ru_maxrss`` also counts the parent's RSS at the fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(run_dir: Path) -> None:
    import smalg.cli  # noqa: F401  (imported before timing starts)

    signal.signal(signal.SIGALRM, alarm)
    with open(run_dir / "requests.pickle", "rb") as handle:
        argvs = pickle.load(handle)
    reports = run_dir / "reports"
    reports.mkdir()
    calls = []
    gc.collect()
    gc.freeze()
    before = peak_rss_mb()
    for k, argv in enumerate(argvs):
        gc.collect()
        probe_s = probe.measure()
        code, report, elapsed = attempt(argv)
        (reports / f"{k:05d}").write_text(report)
        calls.append((code, elapsed, probe_s))
        del report
    gc.unfreeze()
    served = {"calls": calls, "peak_rss_before_requests_mb": before, "peak_rss_mb": peak_rss_mb()}
    with open(run_dir / "served.pickle", "wb") as handle:
        pickle.dump(served, handle)


if __name__ == "__main__":
    serve(Path(sys.argv[1]))
