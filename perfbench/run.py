#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: bulk-ingest-90-tcf, bulk-ingest-90-gqf, wire-open-loop. The
script builds the `perfbench` package (its own cargo workspace next to
this file, with path dependencies on the repository's crates) in release
mode, then runs it with the given arguments. Build output goes to
standard error. The benchmark's standard output passes through, and the
last line is the JSON result. Traces of `--trace 1` runs are written
under perfbench/out/.

A bulk workload runs as several processes, one after another, each with
the same seed and an equal share of the seconds. Its result adds up
their operation counts and takes the mean of each metric. The speed of
the bulk kernels depends on state that stays fixed for the whole life of
a process: at one seed, the GQF fill rate of single processes differed
by up to 20%, while the cycles inside one process agreed within 6%. One
process would sample that state once.

The build goes to $CARGO_TARGET_DIR, or .bench_build/ in the current
directory when it is unset. The exit code is the benchmark's: 0 when
every verdict was right, 1 when one was wrong, 2 on bad arguments;
another non-zero code when the build fails or the run times out.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Processes per run; workloads not listed run as one.
PROCESSES = {"bulk-ingest-90-tcf": 3, "bulk-ingest-90-gqf": 3}


def arg(name):
    """The value after `name` in the command line, or None."""
    args = sys.argv[1:]
    return args[args.index(name) + 1] if name in args[:-1] else None


def run_processes(binary, env, processes, deadline):
    """Run the benchmark `processes` times and merge their result lines.

    Returns the exit code: a process's own code when it failed without a
    verdict, otherwise 0 when every verdict was right and 1 when not.
    """
    args = sys.argv[1:]
    seconds = arg("--seconds")
    try:
        share = repr(float(seconds) / processes)
    except (TypeError, ValueError):
        processes = 1  # the benchmark rejects the arguments itself
    if processes > 1:
        i = args.index("--seconds") + 1
        args = [*args[:i], share, *args[i + 1:]]
    results = []
    for p in range(processes):
        out_dir = HERE / "out" / (f"p{p}" if processes > 1 else "")
        cmd = [str(binary), *args, "--out-dir", str(out_dir)]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 4
        lines = stdout.rstrip("\n").split("\n")
        if processes == 1:
            print(stdout, end="", flush=True)
            return proc.returncode
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1):
            return proc.returncode
        results.append(json.loads(lines[-1]))

    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": sum(values) / len(values), "unit": m["unit"]}
    correct = all(r["correct"] for r in results)
    merged = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(f"== mean of {processes} processes")
    print(json.dumps(merged))
    return 0 if correct else 1


def main() -> int:
    if not (ROOT / "crates" / "tcf" / "Cargo.toml").is_file():
        print(f"perfbench: the repository crates are missing under {ROOT / 'crates'}", file=sys.stderr)
        return 3
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 4
    if built.returncode != 0:
        print(f"perfbench: build failed with code {built.returncode}", file=sys.stderr)
        return 3
    # The build may take most of a first run's time; the run's own
    # deadline starts after it.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    processes = PROCESSES.get(arg("--workload"), 1)
    return run_processes(target / "release" / "perfbench", env, processes, deadline)


if __name__ == "__main__":
    sys.exit(main())
