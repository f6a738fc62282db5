"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more ``run.py`` runs; only
their ``RECORD`` lines are read.  For every workload and metric it prints
each side's median and spread (quartile distance over median) and the
change of the medians.  An end-to-end metric whose median got worse by more
than its BENCHMARK.json bound is flagged; the exit code is then 1.

Seconds from different search kernels are not comparable, so it refuses
(exit 2) when the two sets, or the runs within one set, name different
kernels.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    records = [json.loads(line[len("RECORD "):])
               for line in Path(path).read_text().splitlines()
               if line.startswith("RECORD ")]
    if not records:
        raise SystemExit("error: no RECORD lines in %s" % path)
    return records


def summarise(records):
    """(workload, trace) -> metric -> list of values."""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, value in r["metrics"].items():
            out[(r["workload"], r["trace"])][name].append(value)
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    kernels = {r["kernel"] for r in base + new}
    if len(kernels) != 1:
        print("refused: the runs name different search kernels: %s"
              % ", ".join(sorted(kernels)), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = summarise(base), summarise(new)
    worse = False
    print("kernel %s; base %d runs, new %d runs" % (kernels.pop(), len(base), len(new)))
    print("%-13s %-36s %14s %7s %14s %7s %8s" % (
        "workload", "metric", "base median", "spread", "new median", "spread", "change"))
    for key in sorted(set(before) & set(after)):
        for name in sorted(set(before[key]) & set(after[key])):
            b = statistics.median(before[key][name])
            a = statistics.median(after[key][name])
            change = (a - b) / b if b else 0.0
            m = meta.get(name, {})
            flag = ""
            if "bound" in m:
                worse_by = change if m["better"] == "lower" else -change
                if worse_by > m["bound"]:
                    flag = "  worse than bound %.2f" % m["bound"]
                    worse = True
            print("%-13s %-36s %14.6g %7.3f %14.6g %7.3f %+7.1f%%%s" % (
                key[0], name, b, spread(before[key][name]), a,
                spread(after[key][name]), 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
