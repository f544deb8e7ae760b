#!/usr/bin/env python3
"""The taures benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload drinfeld-gram --seed 0 --trace 0

Run from the root of a checkout; taures is imported from `src/`.  A run
writes the manifests, then runs the workload's cases in a closed loop with
one client, each case in a child forked from the warmed parent, in whole
sweeps ending at the sweep boundary nearest to `--seconds`; between cases,
fresh interpreters time the set-up (see "set-up" below).  Times are scaled
to a reference host speed (see "host speed" below).  Every output is then
checked.  `--trace 0` reports the end-to-end metrics; `--trace 1` runs one
plain sweep, then at least two traced sweeps, and reports the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object; the full record, with every case's digest and the spans of a
traced run, goes to
`.perfbench/results/`.  perfbench/README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

if not os.path.isfile(os.path.join(SRC, "taures", "cli.py")):
    sys.exit("perfbench: no taures sources under {}; run from the root of "
             "a checkout".format(SRC))
sys.path.insert(0, SRC)

import oracles  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
MIN_SAMPLES = 100         # p90 needs at least ten samples above it
CASE_BUDGET_S = 15.0      # about 4x the slowest case at the seed commit
TRACED_BUDGET_FACTOR = 4  # traced kernels run a few times slower
MEASURE_LIMIT_S = 150.0   # no case may run past this much measuring
SETUP_PROBES = 15         # set-up runs spread over a plain run
OVERHEAD_KEY = "trace.overhead"


def metric_units(section):
    """{name: unit} of one metric list of BENCHMARK.json."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


END_TO_END = metric_units("end_to_end")
PER_LAYER = metric_units("per_layer")


# --- host speed ---
#
# On a shared host the speed drifts by 10-30% within minutes, and every case
# slows with it.  A fixed pure-Python loop, timed before each case, measures
# that drift; each sweep's times are scaled by REFERENCE_CALIBRATION_S /
# (median loop time in the sweep), i.e. reported at the speed at which the
# host runs the loop in the reference time.  The unscaled figures go to the
# record under "unscaled".

CALIBRATION_LOOPS = 20000
REFERENCE_CALIBRATION_S = 0.0035   # typical on a 2-vCPU x86_64 VM, Py 3.11


def calibrate():
    """Seconds the host takes for a fixed pure-Python loop right now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
        table[i % 500] = acc
    return time.perf_counter() - start


def host_scale(calibrations):
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


# --- set-up ---
#
# Start-up on a shared host switches between fast and slow states that
# last seconds (0.13 s against 0.20 s for the same set-up), and the
# calibration loop does not see them.  So set-up is not timed in one burst
# before the sweeps: a fresh interpreter repeats it between cases, about
# SETUP_PROBES times spread over the run, and is scaled like the cases of
# its sweep.  The parent's own set-up still happens before the first case.

PROBE = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
         "workloads.write_manifests(workloads.build({w!r}, {seed}), {d!r})")


class SetupProbe:
    """Times a fresh interpreter that imports taures and builds and writes
    the workload's manifests, at most once every `interval` seconds."""

    def __init__(self, workload, seed, workdir, interval):
        self.code = PROBE.format(src=SRC, here=HERE, w=workload, seed=seed,
                                 d=workdir)
        self.interval = interval
        self.last = None
        os.makedirs(workdir, exist_ok=True)

    def maybe_run(self):
        """Wall seconds of one set-up, or None if none is due yet."""
        start = time.perf_counter()
        if self.last is not None and start - self.last < self.interval:
            return None
        subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                       check=True)
        self.last = time.perf_counter()
        return self.last - start


# --- measuring ---

@dataclass
class Sweep:
    done: list     # [(case, Outcome)]
    wall: float    # summed fork-to-reap time of the cases
    scale: float   # host scale measured during the sweep
    setups: list   # wall seconds of the set-up probes run in the sweep


def sweep(cases, workdir, traced, t_end, probe=None):
    """Run every case once, timing the calibration loop before each and
    the set-up probe when it is due.  A case starts only if its whole
    budget fits before `t_end`."""
    budget = CASE_BUDGET_S * (TRACED_BUDGET_FACTOR if traced else 1)
    done, wall, calibrations, setups = [], 0.0, [], []
    for case in cases:
        if time.perf_counter() + budget > t_end:
            break
        if probe is not None:
            setup = probe.maybe_run()
            if setup is not None:
                setups.append(setup)
        calibrations.append(calibrate())
        start = time.perf_counter()
        done.append((case, runner.run_case(case.argv(workdir), budget,
                                           traced)))
        wall += time.perf_counter() - start
    return Sweep(done, wall, host_scale(calibrations) if done else 1.0,
                 setups)


def near_end(start, n_sweeps, seconds):
    """True at the sweep boundary nearest to `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / n_sweeps / 2 >= seconds


def measure_plain(cases, workdir, seconds, t_end, probe):
    sweeps, start = [], time.perf_counter()
    while True:
        sweeps.append(sweep(cases, workdir, False, t_end, probe))
        if near_end(start, len(sweeps), seconds) \
                and sum(len(s.done) for s in sweeps) >= MIN_SAMPLES \
                or len(sweeps[-1].done) < len(cases):
            return sweeps


def measure_traced(cases, workdir, seconds, t_end):
    """One plain sweep, then at least two traced sweeps, so that counts
    can be compared; the ratio of their rates is the tracing overhead."""
    start = time.perf_counter()
    plain = [sweep(cases, workdir, False, t_end)]
    traced = []
    while True:
        traced.append(sweep(cases, workdir, True, t_end))
        if len(traced) >= 2 and near_end(start, 1 + len(traced), seconds) \
                or len(traced[-1].done) < len(cases):
            return plain, traced


def rate(sweeps, scaled=True):
    return sum(len(s.done) for s in sweeps) / sum(
        s.wall * (s.scale if scaled else 1.0) for s in sweeps)


def percentile_ms(samples, pct):
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[pct - 1] * 1000.0


# --- checking ---

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def check_outcomes(outcomes, golden):
    """Check every output; returns per-case records and the failed count."""
    by_name = {}
    for case, out in outcomes:
        by_name.setdefault(case.name, (case, []))[1].append(out)
    records, failed = [], 0
    for name, (case, outs) in by_name.items():
        bad = [o for o in outs if o.status != runner.OK]
        good = [o for o in outs if o.status == runner.OK]
        digests = sorted({digest(o.stdout) for o in good})
        problem = None
        if len(digests) > 1:
            problem = "output differs between repetitions"
        elif digests and name in golden \
                and golden[name]["sha256"] != digests[0]:
            problem = "output differs from the golden digest"
        elif digests:
            try:
                problem = oracles.check(case, good[0].stdout)
            except Exception as exc:  # a crashing oracle fails the case
                problem = "oracle raised {!r}".format(exc)
        n_failed = len(outs) if problem else len(bad)
        if bad and not problem:
            problem = "{}: {}".format(bad[0].status, bad[0].detail[-300:])
        failed += n_failed
        seconds = [o.seconds for o in outs]
        records.append({
            "name": name, "args": list(case.args), "runs": len(outs),
            "failed": n_failed, "problem": problem,
            "sha256": digests[0] if len(digests) == 1 else digests,
            "median_ms": statistics.median(seconds) * 1000.0,
            "samples_ms": [round(t * 1000.0, 3) for t in seconds],
            "seed_commit_ms": golden.get(name, {}).get("seed_commit_ms"),
        })
    return records, failed


# --- reporting ---

def git_commit():
    """HEAD of the checkout if it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    """The CPU model name on Linux, else what `platform` reports."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, n_cases, n_samples):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "cases": n_cases,
        "percentile_samples": n_samples,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(traced_sweeps, n_cases):
    """Counts from one whole traced sweep and the median of each
    host-scaled time over the whole traced sweeps; the counts must repeat
    exactly in at least two whole sweeps."""
    whole = [sw for sw in traced_sweeps if len(sw.done) == n_cases]
    totals = []
    for sw in whole or traced_sweeps[:1]:
        total = {}
        for _, out in sw.done:
            if out.trace is not None:
                tracer.add_snapshots(total, out.trace["metrics"])
        totals.append({k: v * sw.scale if PER_LAYER.get(k) == "s" else v
                       for k, v in total.items()})

    def counts(total):
        return {k: v for k, v in total.items()
                if PER_LAYER.get(k) == "count"}

    counts_repeat = len(whole) >= 2 and all(
        counts(t) == counts(totals[0]) for t in totals)
    out = {}
    for key, unit in PER_LAYER.items():
        if key == OVERHEAD_KEY:
            continue
        values = [t.get(key, 0) for t in totals]
        out[key] = metric(statistics.median(values) if unit == "s"
                          else values[0], unit)
    return out, counts_repeat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's digests and case times as the "
                         "golden record of the workload")
    args = ap.parse_args(argv)

    workdir = os.path.join(OUT, "work-{}".format(os.getpid()))
    os.makedirs(workdir)
    try:
        cases = workloads.build(args.workload, args.seed)
        workloads.write_manifests(cases, workdir)
        t_end = time.perf_counter() + MEASURE_LIMIT_S
        if args.trace:
            plain, traced = measure_traced(cases, workdir, args.seconds,
                                           t_end)
            sweeps = plain + traced
        else:
            probe = SetupProbe(args.workload, args.seed,
                               os.path.join(workdir, "probe"),
                               args.seconds / SETUP_PROBES)
            sweeps = measure_plain(cases, workdir, args.seconds, t_end,
                                   probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a re-recording compares against nothing but the oracles
    golden = {} if args.record_golden else \
        load_golden().get(args.workload, {})
    outcomes = [pair for sw in sweeps for pair in sw.done]
    records, failed = check_outcomes(outcomes, golden)
    attempted = len(outcomes)
    record = {"env": environment(args, len(cases), attempted),
              "sweeps": [{"traced": bool(args.trace) and i > 0,
                          "wall_s": sw.wall, "scale": sw.scale,
                          "cases": len(sw.done), "setups_s": sw.setups}
                         for i, sw in enumerate(sweeps)],
              "cases": records, "failed_frac": failed / attempted}
    correct = failed == 0
    if args.trace:
        metrics, counts_repeat = layer_metrics(traced, len(cases))
        metrics[OVERHEAD_KEY] = metric(rate(traced) / rate(plain),
                                       PER_LAYER[OVERHEAD_KEY])
        correct = correct and counts_repeat
        record["counts_repeat"] = counts_repeat
        record["spans"] = [
            {"case": i, "name": case.name, "spans": out.trace["spans"]}
            for i, (case, out) in enumerate(pair for sw in traced
                                            for pair in sw.done)
            if out.trace is not None]
    else:
        def end_to_end(scaled):
            samples = [out.seconds * (sw.scale if scaled else 1.0)
                       for sw in sweeps for _, out in sw.done]
            return {
                "cases_per_s": rate(sweeps, scaled),
                "latency_p50_ms": percentile_ms(samples, 50),
                "latency_p90_ms": percentile_ms(samples, 90),
                "setup_s": statistics.median(
                    t * (sw.scale if scaled else 1.0)
                    for sw in sweeps for t in sw.setups),
                "peak_rss_mb": max(out.rss_mb for _, out in outcomes),
            }

        values = end_to_end(scaled=True)
        record["unscaled"] = end_to_end(scaled=False)
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END.items()}
    record["metrics"] = metrics

    if args.record_golden:
        if not correct:
            sys.exit("perfbench: not recording golden digests of a run with "
                     "failures")
        store = load_golden()
        store[args.workload] = {
            r["name"]: {"sha256": r["sha256"],
                        "seed_commit_ms": round(r["median_ms"], 1)}
            for r in records}
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
            fh.write("\n")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for r in records:
        if r["problem"]:
            print("FAILED {}: {}".format(r["name"], r["problem"]))
    if args.trace and not record["counts_repeat"]:
        print("FAILED counts differ between whole traced sweeps, or fewer "
              "than two whole traced sweeps ran")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("failed_frac {:.6f} ratio ({} of {} cases)".format(
        failed / attempted, failed, attempted))
    for name, m in metrics.items():
        print("{} {:.6g} {}".format(name, m["value"], m["unit"]))
    print("record {}".format(os.path.relpath(path, ROOT)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
