#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload build_a3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
atmor library plus the driver into .bench_build (or $CARGO_TARGET_DIR when
it names a relative directory); later calls only rebuild what changed. Build
output goes to stderr, so the driver's last line of standard output -- the
JSON result -- stays the last line. Exits non-zero, without a result, when
the checkout holds no atmor source tree or the build fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build_a3", "build_sparse", "serve_wire")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if not target or os.path.isabs(target) or ".." in target.split(os.sep):
        target = ".bench_build"
    return os.path.join(ROOT, target)


def source_id():
    """Content hash of the library sources (the checkout is not a git tree)."""
    h = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(out):
    cfg = [shutil.which("cmake") or "cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (cfg, ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        print(f"perfbench: no atmor source tree (src/, CMakeLists.txt) at {ROOT}", file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    tag = f"{args.workload}-{args.seed}"
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, f"trace-{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
