"""nplabel benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload tree-scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

With ``--trace 0`` it reports the end-to-end metrics (setup_s, wall_s,
peak_rss_mb; failed_frac through ``attempted``/``failed``); with
``--trace 1`` the per-layer metrics of BENCHMARK.json.  The last line of
standard output is the JSON result; the line before it, starting with
``RECORD``, holds the run's environment, samples and exact counters, which
compare.py reads.  ``--workload all`` runs every workload in turn, each in
its own process, and prints a summary table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from setup_probe import ROOT, SCRATCH, load_program

WORKLOADS = tuple(workloads.MODULES)
SETUP_BATCH = 5  # fresh set-ups averaged into one set-up sample
SETUP_SHARE = 0.15  # least share of a run spent on set-up probes
EXIT_FAILED = 2


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def probe_setup(workload: str, seed: int) -> float:
    """One set-up sample: the mean seconds of SETUP_BATCH set-ups, each in a
    fresh interpreter, started one at a time."""
    samples = []
    for _ in range(SETUP_BATCH):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise SystemExit("error: set-up probe failed:\n" + out.stderr)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.fmean(samples)


class Totals:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counters = None

    def add(self, workload, inputs, output):
        attempted, failed, counters = workload.check(inputs, output)
        self.attempted += attempted
        self.failed += failed
        if self.counters is None:
            self.counters = counters


def _timed(workload, inputs):
    gc.collect()
    start = time.perf_counter()
    output = workload.run(inputs)
    return time.perf_counter() - start, output


def measure(workload, seed, seconds, tracer=None, probe=None):
    """Repeat the workload at least once and stop at the repetition boundary
    nearest to ``seconds``, judged by the median cycle so far.  Repetition
    ``rep`` runs on the inputs ``build(seed, rep)``.  With a tracer, every
    repetition runs twice on the same inputs: untraced, then traced.

    With ``probe``, every cycle starts with set-up samples, and the run ends
    with them, as many each time as keep the time spent on them at
    SETUP_SHARE of the run so far.  So set-ups and repetitions are spread
    alike over the run, and both see the same mix of fast and slow periods
    of the machine."""
    totals = Totals()
    walls, traced_walls, cycles, setup = [], [], [], []
    probe_s = 0.0
    start = time.perf_counter()

    def probe_to_share():
        nonlocal probe_s
        while probe is not None:
            probe_start = time.perf_counter()
            setup.append(probe())
            probe_s += time.perf_counter() - probe_start
            if probe_s >= SETUP_SHARE * (time.perf_counter() - start):
                return

    rep = 0
    while True:
        cycle_start = time.perf_counter()
        probe_to_share()
        inputs = workload.build(seed, rep)
        wall, output = _timed(workload, inputs)
        walls.append(wall)
        totals.add(workload, inputs, output)
        del output
        if tracer is not None:
            tracer.install(rep)
            try:
                wall, output = _timed(workload, inputs)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            totals.add(workload, inputs, output)
            del output
        rep += 1
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycles) / 2 >= seconds:
            probe_to_share()
            return totals, walls, traced_walls, setup


def _env(nplabel, args):
    from nplabel.search import kernel_name

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "kernel": kernel_name(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "nplabel": nplabel.__version__}


def _check_names(computed, units, kind):
    if set(computed) != set(units):
        raise SystemExit("error: %s metrics %s do not match BENCHMARK.json %s"
                         % (kind, sorted(computed), sorted(units)))


def _end_to_end(record, setup, walls, units):
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _check_names(metrics, units, "end-to-end")
    record.update(setup_s_samples=setup, metrics=metrics)
    print("setup_s      %10.4f s     median of %d samples, each the mean of %d set-ups"
          % (metrics["setup_s"], len(setup), SETUP_BATCH))
    print("wall_s       %10.4f s     median of %d repetitions" % (metrics["wall_s"], len(walls)))
    print("failed_frac  %10.4f frac  %d failed of %d attempted" % (
        record["failed"] / record["attempted"], record["failed"], record["attempted"]))
    print("peak_rss_mb  %10.1f MB" % metrics["peak_rss_mb"])
    return metrics


def _per_layer(record, tracer, walls, traced_walls, units):
    from tracing import aggregate, hardest_trees, layer_metrics

    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
    per_rep = []
    for rep in range(len(traced_walls)):
        values, absent = layer_metrics([s for s in tracer.spans if s.rep == rep])
        values["trace.overhead_frac"] = overhead
        per_rep.append(values)
    metrics = aggregate(per_rep, units)
    _check_names(metrics, units, "per-layer")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spans = SCRATCH / ("spans-%s-seed%d.jsonl" % (record["workload"], record["seed"]))
    tracer.write(spans)
    record.update(traced_wall_s_samples=traced_walls, metrics=metrics,
                  absent=sorted(absent), spans=str(spans.relative_to(ROOT)),
                  hardest_trees=hardest_trees([s for s in tracer.spans if s.rep == 0]))
    for name in units:
        note = "   (layer not exercised by this workload)" if name in absent else ""
        print("%-38s %16.6g %s%s" % (name, metrics[name], units[name], note))
    print("hardest trees (canonical code, nodes): %s" % json.dumps(
        [[t["code"], t["nodes"]] for t in record["hardest_trees"]]))
    print("spans written to %s" % record["spans"])
    return metrics


def run_one(args) -> int:
    nplabel = load_program()
    from tracing import TraceGuardError, Tracer

    spec = _spec()
    workload = workloads.load(args.workload, SCRATCH / ("labels-%d" % os.getpid()))
    tracer = Tracer(workload.targets) if args.trace else None
    probe = None if args.trace else lambda: probe_setup(args.workload, args.seed)
    try:
        totals, walls, traced_walls, setup = measure(
            workload, args.seed, args.seconds, tracer, probe)
        if tracer is not None:
            tracer.check_called(args.workload)
    except TraceGuardError as exc:
        print("error: trace guard: %s" % exc, file=sys.stderr)
        return EXIT_FAILED
    env = _env(nplabel, args)
    record = dict(env, attempted=totals.attempted, failed=totals.failed,
                  correct=totals.failed == 0, counters=totals.counters,
                  wall_s_samples=walls)
    print("nplabel benchmark: " + " ".join("%s=%s" % kv for kv in env.items()))
    if tracer is None:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = _end_to_end(record, setup, walls, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = _per_layer(record, tracer, walls, traced_walls, units)
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print a summary table."""
    rows = []
    ok = True
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            ok = False
            rows.append((name, None))
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    if not args.trace:
        print()
        print("%-13s %12s %12s %12s %14s" % ("workload", "setup_s [s]", "wall_s [s]",
                                           "failed_frac", "peak_rss_mb [MB]"))
        for name, result in rows:
            if result is None:
                print("%-13s  run failed" % name)
                continue
            m = result["metrics"]
            print("%-13s %12.4f %12.4f %12.4f %14.1f" % (
                name, m["setup_s"]["value"], m["wall_s"]["value"],
                result["failed"] / result["attempted"], m["peak_rss_mb"]["value"]))
    return 0 if ok else EXIT_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
