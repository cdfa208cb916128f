#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

For every workload it runs the command of BENCHMARK.json once per seed and
prints, for every metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. An end-to-end metric is steady when
its spread stays below a third of its bound.

--trace-seeds K adds K traced runs per workload and summarises the
per-layer metrics the same way (per-layer metrics have no bound).

With --record, the summary is appended to perfbench/trajectory.json as one
trajectory entry, together with the simulator commit it measured, the host,
its hardware threads and the rustc version.

Run from the repository root:

    python3 perfbench/record.py --seeds 10
    python3 perfbench/record.py --seeds 5 --workloads table3-full
    python3 perfbench/record.py --seeds 10 --trace-seeds 5 --record --commit <sha>
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

TRAJECTORY = os.path.join("perfbench", "trajectory.json")


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result["metrics"]


def summarise(runs, catalogue):
    summary = {}
    for metric in catalogue:
        name = metric["name"]
        values = [run[name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        med = statistics.median(values)
        summary[name] = {
            "unit": metric["unit"],
            "n": len(values),
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return summary


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    return {"host": f"{platform.system()} {platform.machine()}, {cpu}",
            "hardware_threads": os.cpu_count(), "rustc": rustc}


def measure(spec, names, seeds, trace):
    """Runs every workload over `seeds`; returns (summaries, steady)."""
    catalogue = spec["per_layer"] if trace else spec["end_to_end"]
    steady = True
    results = {}
    for workload in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, workload, seed, trace))
            shown = {k: v for k, v in runs[-1].items() if not trace or k.endswith("_s")}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in shown.items()), flush=True)
        results[workload] = summarise(runs, catalogue)
        for metric in catalogue:
            s = results[workload][metric["name"]]
            verdict = ""
            if "bound" in metric:
                ok = s["spread"] < metric["bound"] / 3
                steady &= ok
                verdict = "steady" if ok else f"NOT steady (bound/3 = {metric['bound'] / 3:.3f})"
            print(f"  {metric['name']:<32} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} {verdict}", flush=True)
    return results, steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10, help="end-to-end runs per workload")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace-seeds", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--record", action="store_true", help=f"append the summary to {TRAJECTORY}")
    parser.add_argument("--commit", default="unknown", help="simulator commit being measured")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    trace_seeds = list(range(args.first_seed, args.first_seed + args.trace_seeds))
    end_to_end, steady = measure(spec, names, seeds, False) if seeds else ({}, True)
    per_layer = measure(spec, names, trace_seeds, True)[0] if trace_seeds else {}

    if args.record:
        entry = {
            "commit": args.commit,
            "date": datetime.date.today().isoformat(),
            **host_facts(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "trace_seeds": trace_seeds,
            "workloads": {
                w: {"end_to_end": end_to_end.get(w, {}), "per_layer": per_layer.get(w, {})}
                for w in names
            },
        }
        trajectory = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY) as f:
                trajectory = json.load(f)
        trajectory.append(entry)
        with open(TRAJECTORY, "w") as f:
            json.dump(trajectory, f, indent=2)
            f.write("\n")
        print(f"recorded in {TRAJECTORY}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
