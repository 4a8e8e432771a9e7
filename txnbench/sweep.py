#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and run-to-run spread (interquartile range over median).

Run from the repository root; this runs everything, every workload
untraced and traced:

    python3 txnbench/sweep.py --seeds 1 --trace 0 1

Each run is a separate process, started and waited for one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_config() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    cfg = bench_config()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in cfg["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds, from 1")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=cfg["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="*", default=[0])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    status = 0
    for trace in args.trace:
        for workload in args.workloads:
            runs = []
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                r = run_once(workload, seed, args.seconds, trace)
                ok = r.get("exit") == 0 and r.get("correct") is True
                status |= not ok
                print(f"{workload} trace={trace} seed={seed} exit={r.get('exit')} "
                      f"correct={r.get('correct')} failed={r.get('failed')}", flush=True)
                runs.append(r.get("metrics", {}))
            for name in sorted({k for m in runs for k in m}):
                values = [m[name]["value"] for m in runs if name in m]
                line = f"  {name:38s} median {statistics.median(values):14.6g}"
                if len(values) >= 2:
                    s = spread(values)
                    line += f"  spread {s:7.4f}"
                    if name in bounds:
                        line += f"  bound {bounds[name]}"
                print(line + "  [" + " ".join(f"{v:.4g}" for v in values) + "]", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
