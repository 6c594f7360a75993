#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_render --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (and the library sources
under src/) into .bench_build/perfbench; later runs rebuild only what
changed. The workload runs once at the default thread count: the
caller's COTERIE_THREADS is removed from its environment, so the pool is
as wide as the machine. A short repetition of it then runs again with
COTERIE_THREADS=1, and its output fingerprint must match the
default-thread-count one. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Build logs and diagnostics go to standard error.
The exit status is non-zero if the build, the tests of the benchmark's
own helpers or any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_render", "fleet_des", "server_install")
BUILD_TYPE = "RelWithDebInfo"

# Wall-clock limits (s): a whole run must end within 180 s, the first
# one, which builds, within 900 s.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 150
CHECK_TIMEOUT = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hh")):
        fail("library sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT)
        except (OSError, subprocess.SubprocessError) as err:
            fail("build step failed: %s (%s)" % (" ".join(cmd), err))


def run(cmd, timeout, env=None):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=env,
                              timeout=timeout)
    except (OSError, subprocess.SubprocessError) as err:
        fail("%s failed: %s" % (os.path.basename(cmd[0]), err))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with status %d" % (os.path.basename(cmd[0]),
                                          proc.returncode))
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % os.path.basename(cmd[0]))


def source_digest():
    """SHA-256 of the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    start = time.monotonic()
    build()
    binary = os.path.join(BUILD, "perfbench")
    try:
        subprocess.run([os.path.join(BUILD, "perfbench_test")], check=True,
                       stdout=sys.stderr, stderr=sys.stderr,
                       timeout=CHECK_TIMEOUT)
    except (OSError, subprocess.SubprocessError) as err:
        fail("perfbench_test failed: %s" % err)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    # Measure at the default thread count, whatever the caller set.
    env = {k: v for k, v in os.environ.items() if k != "COTERIE_THREADS"}
    lines, result = run(cmd, RUN_TIMEOUT, env)
    for line in lines:
        print(line)
    if result["provenance"]["threads"] < 2:
        fail("measured with a pool of %s thread(s); need at least 2"
             % result["provenance"]["threads"])

    # The determinism contract: a short repetition gives the same
    # fingerprint on one thread as at the default thread count.
    env = dict(os.environ, COTERIE_THREADS="1")
    _, serial = run([binary, "--workload", args.workload, "--seed",
                     str(args.seed), "--short-only"], CHECK_TIMEOUT, env)
    correct = bool(result["correct"])
    failed = int(result["failed"])
    if serial["provenance"]["threads"] != 1:
        print("  CHECK FAILED: COTERIE_THREADS=1 run used %s threads"
              % serial["provenance"]["threads"])
        correct, failed = False, failed + 1
    if serial["short_fingerprint"] != result["short_fingerprint"]:
        print("  CHECK FAILED: fingerprint at COTERIE_THREADS=1 differs:")
        print("    threads=%s: %s" % (result["provenance"]["threads"],
                                      result["short_fingerprint"]))
        print("    threads=1: %s" % serial["short_fingerprint"])
        correct, failed = False, failed + 1
    else:
        print("  cross-thread check: short fingerprint identical at "
              "threads=1 and threads=%s" % result["provenance"]["threads"])

    provenance = dict(result["provenance"])
    provenance["git_revision"] = git_revision()
    provenance["source_sha256"] = source_digest()
    provenance["run_s"] = round(time.monotonic() - start, 3)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
