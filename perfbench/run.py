#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the PreFix simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune, then runs the workload's model jobs in a closed loop, one job at a
time, each job in a fresh process as `prefix run <model>` would be:

  --trace 0  timed passes over the models until S seconds have been
             measured; prints the end-to-end metrics (medians over the
             passes);
  --trace 1  one timed pass and one traced pass; prints the per-layer
             metrics and keeps the spans in .bench_work/spans/.

Every job's report is checked: in the first pass against the boxed
reference replay (the oracle), in later passes and the traced pass
against the first pass.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit
code is 0 only when every model job succeeded.

Checks that are not part of a measured run:

  --check-reports     seed 7 reports equal `prefix run`; seed 1007 passes
  --check-determinism two traced and two timed passes repeat every count

A measured run with --perturb-oracle corrupts the oracle's reference: every
job must then fail (correct false, failed = attempted, exit 1).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
# The traced pass's spans, kept after the run for inspection.
SPANS_DIR = os.path.join(WORK_DIR, "spans")
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join(BUILD_DIR, "default", "bin", "prefix_cli.exe")

# The program's sources the benchmark builds from.
SOURCES = ("dune-project", "lib/experiments/harness.ml", "bin/prefix_cli.ml")

SETUP_PROBES = 15
BUILD_TIMEOUT_S = 850
JOB_TIMEOUT_S = 170
POLICIES = 7

# `prefix run` command lines whose reports each workload reproduces.
CLI_FLAGS = {
    "table3-long": [],
    "stream-huge": ["--scale", "huge", "--stream", "--stream-container", "columnar",
                    "--decode-once"],
    "durable-huge": ["--scale", "huge", "--stream"],
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env(tmp):
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    env.pop("OCAMLRUNPARAM", None)
    return env


def build(targets):
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"not a source checkout (missing {', '.join(missing)}); run from the repository root")
        sys.exit(2)
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR] + targets
    r = subprocess.run(cmd, stdout=sys.stderr, env=child_env(WORK_DIR), timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        log("build failed")
        sys.exit(2)


def work(tag):
    return os.path.join(WORK_DIR, f"{tag}-{os.getpid()}-{time.monotonic_ns()}")


class Job:
    """One bench.exe process: its JSON result and its set-up time."""

    def __init__(self, args, mode, model=None, extra=()):
        self.model = model
        dir = work(mode)
        os.makedirs(os.path.join(dir, "tmp"), exist_ok=True)
        cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--dir", dir, *(["--model", model] if model else []), *extra]
        start = time.monotonic_ns()
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           env=child_env(os.path.join(dir, "tmp")), timeout=JOB_TIMEOUT_S)
        self.out = None
        lines = r.stdout.strip().splitlines()
        if r.returncode == 0 and lines:
            self.out = json.loads(lines[-1])
            # Both clocks are CLOCK_MONOTONIC.
            self.setup_s = (int(self.out["ready_ns"]) - start) / 1e9
            self.model = self.out["model"]
        else:
            log(f"{mode} job {model} exited with {r.returncode}")
        spans = os.path.join(dir, "spans.json")
        if os.path.exists(spans):
            os.makedirs(SPANS_DIR, exist_ok=True)
            os.replace(spans, os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}-{model}.json"))
        shutil.rmtree(dir, ignore_errors=True)

    @property
    def error(self):
        return "job died" if self.out is None else self.out["error"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def job(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"job failed: {why}")


def run_pass(args, models, mode, extra=()):
    return [Job(args, mode, m, extra) for m in models]


def check_pass(reference, jobs, tally, what):
    """Each job must succeed and, given a reference pass, reproduce it."""
    for i, j in enumerate(jobs):
        if j.error:
            tally.job(False, f"{what}: {j.model}: {j.error}")
        elif reference is None:
            tally.job(True, "")
        elif reference[i].error:
            tally.job(False, f"{what}: {j.model}: reference job failed")
        else:
            tally.job(j.out["digest"] == reference[i].out["digest"],
                      f"{what}: {j.model}: outcomes differ from the first pass")


def total(jobs, key):
    return sum(j.out.get(key, 0) for j in jobs)


def result(tally, metrics, units):
    out = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if tally.failed == 0 else 1


def end_to_end(args, b, models, setup):
    """Timed passes until --seconds have been measured (at least one)."""
    units = {m["name"]: m["unit"] for m in b["end_to_end"]}
    tally = Tally()
    extra = ["--perturb-oracle"] if args.perturb_oracle else []
    passes = []
    measured = 0.0
    while not passes or measured < args.seconds:
        jobs = run_pass(args, models, "timed", [] if passes else ["--oracle", *extra])
        check_pass(passes[0] if passes else None, jobs, tally, f"pass {len(passes) + 1}")
        passes.append(jobs)
        if any(j.out is None for j in jobs):
            break
        measured += total(jobs, "wall_s")
    good = [p for p in passes if all(j.out is not None for j in p)]
    if not good:
        log("no pass completed")
        return 1
    setup += [j.setup_s for p in good for j in p]
    events = total(good[0], "events")
    gaps = [j.out["paper_gap_pp"] for j in good[0] if j.out.get("paper_gap_pp") is not None]
    metrics = {
        "wall_s": statistics.median(total(p, "wall_s") for p in good),
        "cpu_s": statistics.median(total(p, "cpu_s") for p in good),
        "events_per_s": statistics.median(events * POLICIES / total(p, "wall_s") for p in good),
        "peak_rss_mb": statistics.median(max(j.out["peak_rss_mb"] for j in p) for p in good),
        "setup_s": statistics.median(setup),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "paper_gap_pp": statistics.fmean(gaps) if gaps else 0.0,
    }
    for p in good:
        walls = ", ".join(f"{j.model} {j.out['wall_s']:.2f}s" for j in p)
        log(f"pass: wall {total(p, 'wall_s'):.3f}s cpu {total(p, 'cpu_s'):.3f}s "
            f"rss {max(j.out['peak_rss_mb'] for j in p):.1f}MB ({walls})")
    log(f"fail_ratio {tally.failed / tally.attempted:g} ({tally.failed}/{tally.attempted})")
    for k, v in metrics.items():
        log(f"{k} = {v:.6g} {units[k]}")
    return result(tally, metrics, units)


def merge_layers(jobs):
    """Per-layer figures of a traced pass: sums over its jobs, except the
    largest GC heap, plus the ratios they imply."""
    layers = {}
    for j in jobs:
        for k, v in j.out["layers"].items():
            layers[k] = max(layers.get(k, v), v) if k == "gc.top_heap_mb" else layers.get(k, 0) + v
    events = layers["workloads.events"]
    layers["trace.container_bytes_per_event"] = layers.pop("trace.container_bytes") / events
    layers["runtime.replay_ns_per_event"] = layers["runtime.replay_s"] * 1e9 / (events * POLICIES)
    return layers


def per_layer(args, b, models):
    units = {m["name"]: m["unit"] for m in b["per_layer"]}
    tally = Tally()
    timed = run_pass(args, models, "timed", ["--oracle"])
    traced = run_pass(args, models, "traced")
    check_pass(None, timed, tally, "timed pass")
    check_pass(timed, traced, tally, "traced pass")
    if tally.failed:
        return result(tally, {}, units)
    layers = merge_layers(traced)
    layers["workloads.passes"] = total(timed, "eval_passes")
    layers["experiments.tracing_overhead_s"] = total(traced, "job_wall_s") - total(timed, "wall_s")
    if layers["runtime.checkpoints"] != total(timed, "checkpoints"):
        log(f"traced pass saved {layers['runtime.checkpoints']} checkpoints, "
            f"timed pass {total(timed, 'checkpoints')}")
    log(f"layer spans cover at least {100 * min(j.out['coverage'] for j in traced):.2f}% of every job")
    job_wall = total(traced, "job_wall_s")
    shares = {k: v / job_wall for k, v in layers.items()
              if k.endswith("_s") and not k.startswith("runtime.replay_s.")
              and k not in ("experiments.tracing_overhead_s", "trace.decode_s", "hds.detect_s")}
    log(f"share of {job_wall:.2f}s traced job time: " + ", ".join(
        f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.001))
    return result(tally, {k: layers[k] for k in units}, units)


def check_reports(args, models):
    """Seed 7 reports equal the CLI's; seed 1007 passes the oracle.

    Lists the models whose seed 1007 report is the same as seed 7's.
    """
    ok = True
    by_seed = {}
    for seed in (7, 1007):
        rep = work("reports")
        os.makedirs(rep, exist_ok=True)
        args.seed = seed
        jobs = run_pass(args, models, "timed", ["--oracle", "--reports", rep])
        for j in jobs:
            if j.error:
                log(f"seed {seed}: {j.model}: {j.error}")
                ok = False
        by_seed[seed] = {}
        for name in os.listdir(rep):
            with open(os.path.join(rep, name)) as f:
                by_seed[seed][name[:-4]] = f.read()
        shutil.rmtree(rep, ignore_errors=True)
    unchanged = []
    for name in models:
        text = by_seed[7].get(name)
        cmd = [CLI_EXE, "run", name, *CLI_FLAGS[args.workload]]
        tmp = work("cli")
        os.makedirs(tmp, exist_ok=True)
        cli = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(tmp),
                             timeout=JOB_TIMEOUT_S)
        shutil.rmtree(tmp, ignore_errors=True)
        same = cli.returncode == 0 and cli.stdout == text
        log(f"{name}: seed 7 report {'equals' if same else 'DIFFERS FROM'} "
            f"`prefix run {' '.join([name, *CLI_FLAGS[args.workload]])}`")
        ok = ok and same
        if by_seed[1007].get(name) == text:
            unchanged.append(name)
    log(f"seed 1007 reports differ from seed 7 for {len(models) - len(unchanged)} of "
        f"{len(models)} models; unchanged: {', '.join(unchanged) or 'none'}")
    return 0 if ok else 1


def check_determinism(args, models):
    """Two traced and two timed passes: list the counts that do not repeat."""
    traced = [run_pass(args, models, "traced") for _ in range(2)]
    timed = [run_pass(args, models, "timed") for _ in range(2)]
    if any(j.error for p in traced + timed for j in p):
        log("a job failed")
        return 1
    a, b = (merge_layers(p) for p in traced)
    counted = [k for k in a if not k.endswith("_s") and not k.startswith("runtime.replay_s.")
               and k not in ("runtime.replay_ns_per_event", "gc.top_heap_mb")]
    differ = [k for k in counted if a[k] != b[k]]
    for k in ("eval_passes", "checkpoints"):
        if total(timed[0], k) != total(timed[1], k):
            differ.append(f"timed {k}")
    digests = [[j.out["digest"] for j in p] for p in traced + timed]
    if any(d != digests[0] for d in digests):
        differ.append("simulated outcomes")
    log(f"{args.workload}: {len(counted) + 3 - len(differ)} of {len(counted) + 3} counts repeat "
        f"exactly; differ: {', '.join(differ) if differ else 'none'}")
    for k in differ:
        if k in a:
            log(f"  {k}: {a[k]} vs {b[k]}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-oracle", action="store_true",
                    help="corrupt the oracle's reference (every job must then fail)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check-reports", action="store_true")
    mode.add_argument("--check-determinism", action="store_true")
    args = ap.parse_args()
    b = spec()
    if args.workload not in [w["name"] for w in b["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    build(["./perfbench/bench.exe"] + (["./bin/prefix_cli.exe"] if args.check_reports else []))
    try:
        # Set-up probes: process start to the first timed call, without
        # a job; the first also names the workload's models.
        probes = [Job(args, "setup") for _ in range(SETUP_PROBES)]
        if any(p.out is None for p in probes):
            log("set-up failed")
            return 1
        models = probes[0].out["models"]
        if args.check_reports:
            return check_reports(args, models)
        if args.check_determinism:
            return check_determinism(args, models)
        if args.trace:
            return per_layer(args, b, models)
        return end_to_end(args, b, models, [p.setup_s for p in probes])
    finally:
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
