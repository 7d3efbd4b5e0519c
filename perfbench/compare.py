"""Compare result files of two sets of benchmark runs.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is a record that ``perfbench/run.py`` wrote under
``.perfbench_work/results/``. Files of one workload and trace setting are
compared metric by metric: median of each side, the quartile spread of the
base side, and the change of the median. Runs are compared only when they
ran the same corpus: if the two sides hold different corpus digests for the
same workload and seed, the script refuses and exits with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(paths):
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            rec = json.load(handle)
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    for key in sorted(set(base) & set(new)):
        digests = {}
        for rec in base[key] + new[key]:
            digests.setdefault(rec["seed"], set()).add(rec["corpus_sha256"])
        mixed = sorted(seed for seed, d in digests.items() if len(d) > 1)
        if mixed:
            print(f"refusing: workload {key[0]} seeds {mixed} ran different corpora",
                  file=sys.stderr)
            return 2
        workload, traced = key
        for name in base[key][0]["metrics"]:
            b = [r["metrics"][name] for r in base[key]]
            n = [r["metrics"][name] for r in new[key] if name in r["metrics"]]
            if not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            print(f"{workload:10s} {name:34s} base {mb:12.6g} (spread {spread(b):.3f}) "
                  f"new {mn:12.6g} change {change:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
