#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_wire --seeds 1-10 --seconds 20

For every metric: the median over the runs and the distance between the
first and third quartiles (statistics.quantiles(n=4)) as a share of that
median -- the steadiness figure each end-to-end bound is checked against.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    values = {}
    units = {}
    for s in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(s), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {s}: {result['failed']} of {result['attempted']} checks failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {s}: {line}", flush=True)
    print(f"\n{'metric':24} {'unit':6} {'median':>12} {'IQR/median':>11}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) >= 2 else [v[0]] * 3
        spread = (q[2] - q[0]) / abs(med) if med else float("nan")
        print(f"{name:24} {units[name]:6} {med:12.5g} {spread:11.3%}")


if __name__ == "__main__":
    sys.exit(main())
