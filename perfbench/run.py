#!/usr/bin/env python3
"""The repo benchmark: build the simulator from source, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gd-sweep --seed 1 --seconds 25 --trace 0

Workloads: gd-sweep, sv-20q, replay-64q, serve-mix, or "all" to run the four
in turn. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The first run configures and builds perfbench/ (which compiles ../src
unmodified) into .bench_build/perfbench; later runs rebuild incrementally.

    python3 perfbench/run.py --selftest            # the benchmark's own tests
    python3 perfbench/run.py --workload W --seed 1 --seconds 25 --trace 0 \\
        --write-reference                          # re-record reference digests
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gd-sweep", "sv-20q", "replay-64q", "serve-mix")
# A run must end within 180 s; leave room for the incremental build.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(base):
        base = os.path.relpath(base, ROOT)
    if base.startswith(".."):
        base = ".bench_build"
    return os.path.join(base, "perfbench")


def scratch_env(bdir):
    """Keep compiler and benchmark temporaries inside the checkout."""
    tmp = os.path.join(ROOT, bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(bdir, targets, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources at src/; nothing to benchmark")
        sys.exit(3)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(ROOT, bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"]
                   + targets, cwd=ROOT, env=env, stdout=sys.stderr,
                   check=True)


def commit_id():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src:" + h.hexdigest()[:16]


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, env):
    """Run in its own process group, so a timeout or a crash of the
    benchmark also stops the qtenond it started."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        code = 124
    finally:
        kill_group(proc.pid)
        proc.wait()
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    try:
        env = scratch_env(bdir)
        if args.selftest:
            build(bdir, ["perfbench_selftest"], env)
            return run_child([os.path.join(bdir, "perfbench_selftest")],
                             env)
        build(bdir, ["perfbench", "qtenond"], env)
    except subprocess.CalledProcessError as e:
        log("build failed: %s" % e)
        return 3

    workdir = os.path.join(bdir, "run")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    commit = commit_id()
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [os.path.join(bdir, "perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--qtenond", os.path.join(bdir, "qtenon", "service",
                                         "daemon", "qtenond"),
               "--workdir", workdir,
               "--reference", os.path.join("perfbench", "reference.json"),
               "--commit", commit]
        if args.write_reference:
            cmd.append("--write-reference")
        sys.stdout.flush()
        worst = max(worst, run_child(cmd, env))
    return worst


if __name__ == "__main__":
    sys.exit(main())
