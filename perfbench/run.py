#!/usr/bin/env python3
"""Builds and runs the VEGA benchmark (see perfbench/NOTES.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload gen-serial --seed 1 --seconds 15 \
        --trace 0

Steps:
  1. configure and build perfbench/ (the VEGA libraries plus the benchmark
     executable) into .bench_build/ (or $CARGO_TARGET_DIR when set);
  2. make sure the session artifact exists: it is keyed on the session
     options fingerprint and a hash of the built libraries, and is trained
     once (Stage 1 + the 8-epoch Stage 2) when missing;
  3. run one workload in a fresh process. Its standard output ends with
     one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gen-serial", "serve-open", "repair", "train")
RUN_TIMEOUT_S = 170
SESSION_TIMEOUT_S = 800


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.log"), "a") as build_log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "vega_perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("build failed: " + " ".join(cmd) + " (see " +
                    os.path.join(out, "build.log") + ")")
                return None
    return os.path.join(out, "vega_perfbench")


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def session(binary, out):
    """Returns (artifact, hash ledger, training seconds, library hash),
    training the artifact when it is missing."""
    libs = sorted(glob.glob(os.path.join(out, "vega", "**", "*.a"),
                            recursive=True))
    lib_hash = digest(libs)
    r = subprocess.run([binary, "fingerprint"], capture_output=True, text=True,
                       timeout=60)
    if r.returncode != 0:
        return None
    fingerprint = r.stdout.split()[0]
    stem = os.path.join(out, "sessions", "vega-%s-%s" % (fingerprint, lib_hash))
    artifact, meta = stem + ".vega", stem + ".json"
    if not os.path.exists(artifact):
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        log("training the session artifact (once per build)...")
        start = time.monotonic()
        r = subprocess.run([binary, "build-session", artifact + ".tmp"],
                           stdout=subprocess.DEVNULL, timeout=SESSION_TIMEOUT_S)
        if r.returncode != 0:
            log("session build failed")
            return None
        os.replace(artifact + ".tmp", artifact)
        with open(meta, "w") as f:
            json.dump({"buildSeconds": time.monotonic() - start}, f)
        log("session trained in %.1f s" % (time.monotonic() - start))
    with open(meta) as f:
        build_s = json.load(f)["buildSeconds"]
    return artifact, stem + ".hashes", build_s, lib_hash


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the VEGA sources (src/) are missing; nothing to benchmark")
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    found = session(binary, out)
    if found is None:
        return 1
    artifact, ledger, build_s, lib_hash = found
    sources = sorted(p for p in glob.glob(os.path.join(ROOT, "src", "**", "*"),
                                          recursive=True) if os.path.isfile(p))
    cmd = [binary, "run",
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--session=" + artifact,
           "--ledger=" + ledger,
           "--session-build-s=%.3f" % build_s,
           "--git-sha=" + git_sha(),
           "--source-digest=" + digest(sources),
           "--lib-hash=" + lib_hash]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
