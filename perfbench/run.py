#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload hairpin_l2|flow_churn|stateful_gw \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the simulator and
the workload driver from source into .bench_build/ (CMake, Release).

One run starts fresh driver processes, one after another, each doing
set-up and then a fixed amount of open-loop simulated traffic for the
given seed, until S seconds have passed (at least three runs). Host
numbers are medians over those processes; simulated numbers and counts
must repeat exactly in every one of them, traced or not, and the packet
ledger (offered = delivered + named drops + in flight) must balance.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
traced and untraced processes then alternate, so the trace overhead is
measured too, and the last traced process's spans of the measured
window are written to .bench_build/spans/<workload>-<seed>.jsonl. Every
metric is printed with its unit and base, then the last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero when any check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
RUN_TIMEOUT_S = 60
MIN_RUNS = 3


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; raises on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(BUILD.parent / "build.log", "w") as out:
            if not (BUILD / "CMakeCache.txt").exists():
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                                "-DCMAKE_BUILD_TYPE=Release", *generator],
                               stdout=out, stderr=subprocess.STDOUT, check=True)
            jobs = str(min(4, os.cpu_count() or 1))
            subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                           stdout=out, stderr=subprocess.STDOUT, check=True)


def run_driver(workload, seed, trace):
    command = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if trace:
        # Each traced process overwrites the dump: the last one's stays.
        spans = BUILD.parent / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(spans / f"{workload}-{seed}.jsonl")]
    done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"driver exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def collect(workload, seed, seconds, trace):
    """Driver runs until `seconds` pass: untraced only, or alternating
    untraced/traced with --trace 1."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        run = run_driver(workload, seed, want_traced)
        (traced if want_traced else untraced).append(run)
        enough = len(untraced) >= MIN_RUNS and (not trace or len(traced) >= MIN_RUNS)
        if enough and time.monotonic() - start >= seconds:
            return untraced, traced


def run_problems(run, first):
    """What is wrong with one driver process: model numbers or drops that
    differ from the first process of the seed, an unbalanced packet
    ledger, or private source addresses past SNAT."""
    problems = []
    for part in ("model", "drops"):
        if run[part] != first[part]:
            diff = sorted(k for k in first[part] if run[part].get(k) != first[part][k])
            problems.append(f"{part} differs between runs of one seed "
                            f"(trace={run['trace']}): {diff}")
    balanced, imbalance, _ = metrics.ledger(run["model"], run["drops"])
    if not balanced:
        problems.append(f"packet ledger does not balance (offered minus accounted = "
                        f"{imbalance}, drops {run['drops']})")
    if run["model"]["snat_leaks"] != 0:
        problems.append(f"{run['model']['snat_leaks']} private source addresses "
                        f"leaked past SNAT")
    return problems


def check(untraced, traced):
    """Checks every driver process. Returns the model, the problems found
    and how many processes had one."""
    first = untraced[0]
    found = [run_problems(run, first) for run in untraced + traced]
    problems = sorted({problem for run in found for problem in run})
    return metrics.with_derived(first["model"]), problems, sum(1 for run in found if run)


def report(title, values, units):
    print(title)
    for name, value in values.items():
        base = value.describe()
        print(f"  {name:36s} {value.value:16.6g} {units[name]:10s} {base}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed ({error}); see {BUILD.parent / 'build.log'}")
        return 1

    try:
        untraced, traced = collect(args.workload, args.seed, args.seconds, args.trace)
        model, problems, failed = check(untraced, traced)
        e2e = metrics.end_to_end(untraced, model)
        layers = metrics.per_layer(untraced, traced, model) if args.trace else {}
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as error:
        log(f"{args.workload}: {error}")
        return 1

    print(f"workload {args.workload}  seed {args.seed}  runs {len(untraced)} untraced"
          f" + {len(traced)} traced  ({metrics.WORKLOADS[args.workload]})")
    report("end to end (host = host clock, *_sim = simulated time):", e2e, metrics.UNITS)
    if layers:
        report("per layer:", layers, metrics.UNITS)
    print(f"raw host clock: host_pps {metrics.host_pps(untraced, normalized=False):.6g} pkt/s,"
          f" setup_s {metrics.setup_s(untraced, normalized=False):.6g} s, speed factors "
          + " ".join(f"{metrics.speed_factor(run):.3f}" for run in untraced + traced))
    _, _, lines = metrics.ledger(model, untraced[0]["drops"])
    print("ledger: " + ", ".join(f"{name}={count}" for name, count in lines))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    # One operation is one driver process: a set-up plus a replay of the
    # seed's traffic, checked as above. Packets the modelled network drops
    # (stateful_gw's DNAT replies) are that replay's output, reported by
    # delivered_ratio, failed_ratio and the ledger; they do not fail it.
    chosen = layers if args.trace else e2e
    result = {
        "correct": not problems,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": value.value, "unit": metrics.UNITS[name]}
                    for name, value in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
