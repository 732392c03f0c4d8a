#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first form builds `perfbench/`
(a cargo package of its own, against the repository's crates by path)
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload and
relays its output; the last line of standard output is the result object.
`--smoke` runs every workload at toy size, traced and untraced, and checks
that every metric named in BENCHMARK.json appears with its unit.

Every file the benchmark writes stays under the build directory; the
out-of-core trainer's spill files go there through TMPDIR.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["train-inram", "train-ooc", "serve-mixed", "audit-panel"]
# A run measures for --seconds; set-up, checks and the traced replay come
# on top. A child still running after this long is stopped.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def source_digest():
    """A content digest of the sources the benchmark builds, standing in
    for the commit when the checkout is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    for needed in ["Cargo.toml", "src", "crates", "vendor"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    res = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                          "--manifest-path", manifest], env=env, stdout=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    exe = os.path.join(target_dir(), "release", "advsgm-perfbench")
    if not os.path.isfile(exe):
        fail(f"built binary not found at {exe}")
    return exe


def run_workload(exe, workload, seed, seconds, trace, smoke=False, commit=None):
    """Runs one workload in a fresh scratch directory; returns its stdout."""
    work = os.path.join(target_dir(), "perfbench-work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp, PERFBENCH_COMMIT=commit or source_digest())
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", work]
    if smoke:
        cmd.append("--smoke")
    try:
        res = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res.returncode != 0:
        fail(f"{workload} exited with code {res.returncode}")
    return res.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail("no output")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}")
    return res


def smoke(exe):
    """Every workload at toy size: correct, and every metric of the
    benchmark's contract present with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    commit = source_digest()
    problems = []
    for workload in WORKLOADS:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            res = result_of(run_workload(exe, workload, 1, 1, trace, smoke=True, commit=commit))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {res['correct']=} {res['failed']=}")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, correct={res['correct']}",
                  file=sys.stderr)
    for p in problems:
        print(f"perfbench smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    exe = build()
    if args.smoke:
        sys.exit(smoke(exe))
    out = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
    result_of(out)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
