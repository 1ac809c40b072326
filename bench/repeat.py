"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workloads sweep,learn,scan,cli --seeds 1-10 [--trace 1] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a share
of the median. ``--out`` also writes the summary, every run's metrics and
the machine block as JSON. Use the same seeds on the two commits being
compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = out.stdout.strip().splitlines()
    prefix = "# machine "
    machine = next(json.loads(ln[len(prefix):]) for ln in lines if ln.startswith(prefix))
    result = json.loads(lines[-1])
    result["seed"] = seed
    return machine, result


def summary(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,learn,scan,cli")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"run_seconds": SECONDS, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            report["machine"], result = one_run(workload, seed, args.trace)
            results.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        stats = summary(results)
        for name, row in stats.items():
            print(f"{workload} {name} median={row['median']:.6g} {row['unit']} "
                  f"q1={row['q1']:.6g} q3={row['q3']:.6g} spread={row['spread']:.3f}", flush=True)
        report["workloads"][workload] = {"summary": stats, "runs": results}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
