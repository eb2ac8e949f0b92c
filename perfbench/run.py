#!/usr/bin/env python3
"""End-to-end benchmark of the tuner stack: one command per workload.

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Builds the harness, the repository's
libraries and the ceal_serve / ceal_worker daemons from source into
.bench_build/perfbench (incrementally after the first run), then runs
the workload. The harness prints a human-readable report to stderr and,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 repeats the workload traced and reports the
per-layer metrics. The exit code is non-zero when the build fails or
an output check fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper-eval", "pool-200k", "serve-open", "measure-plane")
BUILD_TARGETS = ("perfbench", "ceal_serve", "ceal_worker")


def build(root, build_dir):
    """Configures (once) and builds the harness; build output -> stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 8))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *BUILD_TARGETS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def describe_sources(root):
    """`git describe` of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="print the run's output digests instead of "
                             "checking them against perfbench/reference.json")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the root of a checkout that holds the "
              "repository sources", file=sys.stderr)
        return 2
    build_dir = os.path.join(".bench_build", "perfbench")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Relative paths keep the daemon's Unix socket path short.
    work_dir = os.path.join(".bench_build", f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    bin_dir = os.path.join(build_dir, "bin")
    cmd = [os.path.join(bin_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", bin_dir, "--work-dir", work_dir,
           "--reference", os.path.join(bench_dir, "reference.json")]
    if args.record:
        cmd.append("--record")
    describe = describe_sources(root)
    if describe:
        cmd += ["--describe", describe]
    # Its own process group, so a run cut short takes the daemon and the
    # measurement workers it started down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: the run exceeded 170 s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
