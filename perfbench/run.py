#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solo|parallel|farm --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Configures and builds perfbench/
(which builds the library from this checkout's src/) into
.bench_build/ (or $CARGO_TARGET_DIR), runs the benchmark, checks that its
result line carries exactly the metrics BENCHMARK.json declares, and
prints its report with that line last.  Exits non-zero, with
no result line, when the build or the run fails.  See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        # Configure until a configure has succeeded (a failed one
        # leaves a cache but no build system behind).
        generated = [os.path.join(build_dir, f)
                     for f in ("build.ninja", "Makefile")]
        if not any(os.path.exists(f) for f in generated):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                return log_path
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "perfbench_tests", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            return log_path
    return None


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def describe():
    """git describe of this checkout; "unknown" when ROOT is not the
    top of a git work tree (a parent directory's repository would
    describe the wrong tree)."""
    top = git("rev-parse", "--show-toplevel")
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return git("describe", "--always", "--dirty") or "unknown"


def check_result(line, trace):
    """The result line must name exactly the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON: " + line[:200]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    want = {m["name"]: m["unit"] for m in declared}
    got = {n: m.get("unit") for n, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return ("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                "unit mismatch %s" % (missing, extra, units))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["solo", "parallel", "farm"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    log = build(build_dir)
    if log:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (full log: %s)" % log)

    # Everything the run writes stays in the build directory: the AOT
    # toolchain probe and compiles use $TMPDIR.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir, "--describe", describe()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines and
                                   lines[-1].startswith("{") else lines) + "\n")
        fail("perfbench exited with status %d" % run.returncode)
    problem = check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problem:
        fail(problem)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
