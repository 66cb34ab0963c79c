#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median) against
its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload simulate --runs 10 [--first-seed 1]

Run from the root of a checkout. Spreads above a third of the bound are
flagged with '!', above the bound with '!!'.

It also checks the exact work counts the benchmark prints beside its
timings: the first seed is run once more at the end, and its '# work:'
lines must repeat exactly; the '# jobs' lines (the simulation job sets,
which no seed changes) must be the same for every seed. It exits 1 if
any result is incorrect or any count differs.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    work = [l for l in lines if l.startswith("# work:")]
    jobs = [l for l in lines if l.startswith("# jobs") or l.startswith("#   ")]
    probe = next((l.split(": ", 1)[1] for l in lines
                  if l.startswith("# host.ref_ms:")), "")
    bursts = next((l.split(" p50 ", 1)[1].split(" ms")[0] for l in lines
                   if l.startswith("# host bursts:")), "")
    probe += f" | burst p50 {bursts} ms"
    return result["metrics"], work, jobs, probe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    first_work, first_jobs = None, None
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        metrics, work, jobs, probe = run(bench, args.workload, seed, seconds)
        if first_work is None:
            first_work, first_jobs = work, jobs
        elif jobs != first_jobs:
            print(f"seed {seed}: job set differs from seed {args.first_seed}")
            ok = False
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items())
            + f" | host.ref_ms {probe}", flush=True)
    _, work, _, _ = run(bench, args.workload, args.first_seed, seconds)
    if work != first_work:
        print(f"seed {args.first_seed} repeated: work counts differ")
        for a, b in zip(first_work, work):
            if a != b:
                print(f"  first:  {a}\n  repeat: {b}")
        ok = False
    else:
        print(f"seed {args.first_seed} repeated: {len(work)} work lines identical")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = "!!" if spread > m["bound"] else "!" if spread > m["bound"] / 3 else ""
        print(f"{m['name']:16} median {med:12.6g} spread {spread:7.4f} "
              f"bound {m['bound']:.2f} {flag}")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
