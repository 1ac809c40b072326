"""Benchmark of the polymatrix library and CLI, timed from outside.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep|learn|scan|cli --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``sweep`` runs golden phase-transition sweeps, ``learn`` fits large
datasets, ``scan`` analyses whole games, ``cli`` runs the command-line
chain as subprocesses. All run one operation at a time (closed loop, one
client) and make their inputs from ``--seed``. Each output is checked; an
operation that raises or fails its check counts as failed.

``--trace 0`` sets the workload up five times, then runs operations until
their summed time reaches ``--seconds`` and reports the end-to-end
metrics. The host this was built on changes the speed it gives a process
by up to a fifth over minutes, more than any change worth detecting, so
before each operation (and each set-up) the run times a fixed calibration
kernel of its own. Times are reported at the reference host speed:
multiplied by ``REFERENCE_CALIBRATION_S`` over the run's median kernel
time. The raw values are printed on ``# raw`` lines.

``--trace 1`` runs each of a fixed number of operations with timing
wrappers installed (see ``tracer.py``), then without, then with them again,
and reports the per-layer metrics of ``layers.py`` from the last traced
pass, in raw seconds, with the tracing overhead. The exact-repeat counters
must agree between the two traced passes, else the run is not correct.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Other lines give the machine,
the tail latency and the failed share. BLAS is pinned to one thread for
this process and its subprocesses, so runs on two commits use the same
setting. ``--spans FILE`` writes the last traced pass's spans as JSON lines.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Median calibration time on the machine the bounds were set on (2 vCPU
# Linux VM, Python 3.11, numpy 2.4, OpenBLAS on one thread).
REFERENCE_CALIBRATION_S = 0.074

# (metric, unit, better) reported by untraced runs, as BENCHMARK.json lists them.
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def import_seconds():
    """Time to import polymatrix in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import polymatrix; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    return float(out.stdout.strip())


def startup_seconds():
    """Wall time of ``python -m polymatrix --version``, median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "polymatrix", "--version"], env=_child_env(),
            capture_output=True, check=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def calibrate():
    """Seconds taken by a fixed kernel of interpreter, dict and small-array work.

    The kernel is the benchmark's own code, so no change to polymatrix moves
    it; only the speed the host gives this process does.
    """
    rows = (np.arange(60000, dtype=np.int64).reshape(-1, 6) * 2654435761) % 3
    start = time.perf_counter()
    total = 0.0
    for _ in range(3):
        np.unique(rows, axis=0)
        floats = rows.astype(float)
        for i in range(300):
            total += float((floats[i * 10:(i + 1) * 10] @ floats[:6].T).sum())
        counts = {}
        for i in range(6000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0.0) + 1.0
    return time.perf_counter() - start


def run_ops(workload, op, ks, failures, tag, seconds=None, kernel=None):
    """Run operations ``ks`` (or, with ``seconds``, until their summed time reaches it).

    Each operation is timed alone; its output is checked outside the timing.
    Returns the per-operation seconds; the reason an operation failed goes
    into ``failures`` under ``(tag, k)``. With a ``kernel`` list, the
    calibration kernel runs before each operation and its time is appended.
    """
    times = []
    for k in ks:
        if seconds is not None and sum(times) >= seconds and k % workload.batch == 0:
            break
        if kernel is not None:
            kernel.append(calibrate())
        start = time.perf_counter()
        try:
            out = op(k)
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - start)
            failures.setdefault((tag, k), f"raised {exc!r}")
            continue
        times.append(time.perf_counter() - start)
        try:
            why = workload.check(k, out)
        except Exception as exc:  # an output the check cannot even read
            why = f"check raised {exc!r}"
        if why is not None:
            failures.setdefault((tag, k), why)
    return times


def untraced(workload, seconds):
    """End-to-end metrics, with times at the reference host speed, and the raw ones."""
    setups, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel.append(calibrate())
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - start)
    failures = {}
    times = run_ops(workload, workload.op, itertools.count(), failures, "run", seconds, kernel)
    for k, why in workload.final_check(len(times)).items():
        failures.setdefault(("run", k), why)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    raw = {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "calibration_s": statistics.median(kernel),
    }
    slowdown = raw["calibration_s"] / REFERENCE_CALIBRATION_S
    metrics = {
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "op_s_p50": raw["op_s_p50"] / slowdown,
        "setup_s": raw["setup_s"] / slowdown,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, raw, times, failures


def traced(workload, spans_path):
    import layers
    from tracer import Tracer

    workload.setup()
    ks = range(workload.trace_ops)
    failures = {}
    tags = ["traced-1", "plain", "traced-2"]
    step_seconds = startup_s = None
    op = workload.op
    if workload.name == "cli":
        # Step wall times come from the subprocess chain; the other passes
        # run the same chain through cli.main in this process.
        tags.insert(0, "subprocess")
        step_seconds = [0.0] * len(layers.CLI_STEPS)

        def chain(k):
            out = workload.op(k)
            step_seconds[:] = [a + b for a, b in zip(step_seconds, out["seconds"])]
            return out

        run_ops(workload, chain, ks, failures, "subprocess")
        startup_s = startup_seconds()
        op = workload.op_in_process
    # Each operation runs traced, untraced, then traced again, so drift in
    # host speed hits all three passes alike. The first traced run also warms
    # caches; metrics and overhead come from the untraced and last passes.
    # Wrappers are installed around the operation only, not its check.
    tracers = {"traced-1": Tracer(), "traced-2": Tracer()}

    def traced_op(tracer):
        def call(k):
            tracer.install(layers.HOOKS)
            try:
                return op(k)
            finally:
                tracer.uninstall()
        return call

    ops = {tag: traced_op(tracer) for tag, tracer in tracers.items()}
    ops["plain"] = op
    seconds = dict.fromkeys(ops, 0.0)
    for k in ks:
        for tag in tags[-3:]:
            seconds[tag] += sum(run_ops(workload, ops[tag], [k], failures, tag))
    for k, why in workload.final_check(len(ks)).items():
        for tag in tags:
            failures.setdefault((tag, k), why)

    counts = [layers.counters(t) for t in tracers.values()]
    keys = set(layers.EXACT) | {k for c in counts for k in c if k.endswith(".calls")}
    mismatched = sorted(k for k in keys if counts[0].get(k, 0) != counts[1].get(k, 0))
    tracer = tracers["traced-2"]
    if spans_path:
        tracer.write_jsonl(spans_path)
    metrics = layers.per_layer(tracer, step_seconds, startup_s or 0.0)
    metrics["trace.untraced_ops_per_s"] = len(ks) / seconds["plain"]
    metrics["trace.traced_ops_per_s"] = len(ks) / seconds["traced-2"]
    metrics["trace.overhead_share"] = seconds["traced-2"] / seconds["plain"] - 1.0
    attempted = len(ks) * len(tags)
    return metrics, attempted, failures, mismatched


def tail(times):
    """Highest percentile with at least ten operations beyond it, or None."""
    ordered = sorted(times)
    rank = len(ordered) - 11
    if rank < 0:
        return None
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "learn", "scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "polymatrix" / "__init__.py").is_file():
        sys.stderr.write(f"error: no polymatrix sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    try:
        if args.trace:
            metrics, attempted, failures, mismatched = traced(workload, args.spans)
            declared = layers.PER_LAYER
        else:
            metrics, raw, times, failures = untraced(workload, args.seconds)
            attempted, mismatched = len(times), []
            declared = END_TO_END
    finally:
        workload.close()

    for name, unit, _ in declared:
        print(f"{name} {metrics[name]} {unit}")
    if not args.trace:
        for name, value in raw.items():
            print(f"# raw {name} {value}")
        point = tail(times)
        if point is None:
            print(f"op_s_tail absent: {len(times)} ops, a tail needs at least 11")
        else:
            print(f"op_s_tail {point[0]} s at p{point[1]:.1f} of {len(times)} ops")
    print(f"failed_ops_share {len(failures) / attempted} ({len(failures)} of {attempted})")
    for (tag, k), why in sorted(failures.items())[:10]:
        print(f"# failed op {k} ({tag}): {why}")
    for key in mismatched:
        print(f"# exact-repeat counter differs between traced passes: {key}")
    result = {
        "correct": not failures and not mismatched,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
