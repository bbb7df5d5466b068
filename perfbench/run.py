"""Benchmark for loopbundle: verify, sections and holonomy workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {verify,sections,holonomy} --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: the next op starts only after
the previous one returns.  Inputs come from --seed.  Ops run in whole cycles
(one per op kind) until the next cycle would overrun --seconds.  Every op is
checked by the gates in workloads.py; a failed op counts in `failed` and is
never timed as a success.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

With --trace 1, cycles alternate between untraced and traced on the same
inputs; the traced cycles give the per-layer numbers (per traced op) and the
gap between the median traced and untraced op gives the tracing overhead.
Spans are kept in memory and written to .perfbench/ when the run ends.
"""

import os

# single-threaded BLAS for this process and every process it starts; must be
# set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

from tracer import SECTION_CONSTRUCTORS, Tracer, self_times
from workloads import Holonomy, Op, Sections, Verify

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
HARD_LIMIT_S = 165.0


def _descriptor():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    import loopbundle

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loopbundle": loopbundle.__version__,
        "commit": commit,
    }


def measure_setup(workload, seed, env):
    """Median over repeats of a fresh interpreter importing loopbundle.cli plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import loopbundle.cli"], cwd=ROOT, env=env, check=True)
        workload.generate(seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_ops(workload, inputs, seconds, trace, started):
    """Whole cycles of ops; returns (samples, tracer).

    samples holds (op, cycle, traced), with cycle -1 for the untimed warm-up op.
    """
    tracer = Tracer() if trace else None
    samples = []
    hard_deadline = started + HARD_LIMIT_S
    if workload.in_process:
        samples.append((_attempt(workload, inputs, 0, None, hard_deadline), -1, False))
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        # with tracing, each traced cycle repeats the inputs of the untraced one before it
        first = (cycle // 2 if trace else cycle) * workload.cycle
        # in-process ops are traced by wrappers installed here; a verify op by its child process
        in_process = traced and workload.in_process
        child_tracer = tracer if traced and not workload.in_process else None
        cycle_start = time.perf_counter()
        if in_process:
            tracer.install()
        try:
            for position in range(workload.cycle):
                if traced:
                    tracer.op = len(samples)
                op = _attempt(workload, inputs, first + position, child_tracer, hard_deadline, len(samples))
                samples.append((op, cycle, traced))
        finally:
            if in_process:
                tracer.remove()
        last = time.perf_counter() - cycle_start
        cycle += 1
        now = time.perf_counter()
        enough = cycle * workload.cycle >= workload.min_ops and (not trace or cycle >= 2)
        if (enough and now - start + last > seconds) or now + last > hard_deadline:
            break
    return samples, tracer


def _attempt(workload, inputs, index, tracer, hard_deadline, op_index=None):
    """One op; any exception is a failed op, reported with its traceback on stderr."""
    try:
        if workload.in_process:
            return workload.run(inputs, index)
        timeout = max(1.0, hard_deadline - time.perf_counter())
        if tracer is None:
            return workload.run(inputs, index, timeout=timeout)
        spans_path = os.path.join(workload.workdir, f"spans-{op_index}.json")
        op = workload.run(inputs, index, spans_path=spans_path, timeout=timeout)
        if os.path.exists(spans_path):
            _merge_spans(tracer, spans_path, op_index)
        return op
    except Exception as exc:  # noqa: BLE001 - the op loop must keep running and count the failure
        traceback.print_exc(file=sys.stderr)
        return Op("error", 0.0, False, 0.0, repr(exc))


def _merge_spans(tracer, path, op_index):
    with open(path, encoding="utf-8") as handle:
        child = json.load(handle)
    offset = len(tracer.spans)
    for _, name, start, end, parent, raised in child["spans"]:
        tracer.spans.append((op_index, name, start, end, parent + offset if parent >= 0 else -1, raised))
    tracer.counts.update(child["counts"])


def e2e_metrics(workload, samples, setup_s):
    timed = [op for op, cycle, _ in samples if cycle >= 0 and op.ok]
    by_kind = {}
    for op in timed:
        by_kind.setdefault(op.kind, []).append(op.ratio)
    worst = max(statistics.median(r) for r in by_kind.values())
    print(f"worst_residual_ratio: {worst:.6g} (worst op kind's median of per-op worst gate ratios)")
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": setup_s,
        "op_p50_ms": 1000.0 * statistics.median(op.seconds for op in timed),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "residual_margin": -math.log10(worst),
    }


def layer_metrics(names, samples, tracer):
    traced = [op for op, cycle, is_traced in samples if is_traced]
    count = max(1, len(traced))
    table = self_times(tracer.spans)
    attempted = sum(table[name][0] for name in SECTION_CONSTRUCTORS if name in table)
    rejected = sum(table[name][3] for name in SECTION_CONSTRUCTORS if name in table)
    plain = [op.seconds for op, cycle, is_traced in samples if cycle >= 0 and not is_traced]
    overhead = 1000.0 * (statistics.median(op.seconds for op in traced) - statistics.median(plain))
    values = {}
    for name in names:
        if name == "sections.accept_ratio":
            values[name] = (attempted - rejected) / attempted if attempted else 0.0
        elif name == "cli.report_bytes":
            values[name] = sum(op.bytes_written for op in traced) / count
        elif name == "trace.overhead_ms":
            values[name] = overhead
        elif name in ("holonomy.rk4_steps", "holonomy.trig_points"):
            values[name] = tracer.counts.get(name, 0) / count
        else:
            span, _, stat = name.rpartition(".")
            row = table.get(span, (0, 0.0, 0.0, 0))
            column = {"calls": 0, "ms": 1, "self_ms": 2}[stat]
            values[name] = row[column] * (1000.0 if column else 1.0) / count
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "sections", "holonomy"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "loopbundle", "__init__.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from the repository root (needs src/loopbundle and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

    import loopbundle

    if not os.path.abspath(loopbundle.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported loopbundle from {loopbundle.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.workload == "verify":
            workload = Verify(ROOT, workdir, env)
        else:
            workload = Sections() if args.workload == "sections" else Holonomy()
        print("descriptor:", json.dumps(_descriptor(), sort_keys=True))
        setup_s = measure_setup(workload, args.seed, env)
        inputs = workload.generate(args.seed)
        samples, tracer = run_ops(workload, inputs, args.seconds, bool(args.trace), started)
        if tracer is not None:
            spans_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_file, "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_file, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(spec, workload, args, samples, tracer, setup_s)


def report(spec, workload, args, samples, tracer, setup_s):
    ops = [op for op, _, _ in samples]
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"gate FAILED [{op.kind}]: {op.detail}")
    timed = sorted(op.seconds for op, cycle, _ in samples if cycle >= 0 and op.ok)
    kinds = sorted({op.kind for op in ops})
    print(f"gates: {len(ops) - len(failed)}/{len(ops)} ops passed every gate ({', '.join(kinds)})")
    print(f"error_rate: {len(failed) / len(ops):.4f} ({len(failed)} failed of {len(ops)} attempted)")
    if len(timed) >= 100:
        p90 = float(np.quantile(timed, 0.9))
        beyond = sum(1 for t in timed if t > p90)
        print(f"op latency: p50 {1000 * statistics.median(timed):.3f} ms, p90 {1000 * p90:.3f} ms ({len(timed)} samples, {beyond} beyond p90)")
    elif timed:
        print(f"op latency: p50 {1000 * statistics.median(timed):.3f} ms ({len(timed)} samples; too few for a p90)")
    correct = not failed and bool(timed)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(units, samples, tracer)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = e2e_metrics(workload, samples, setup_s) if timed else {}
        correct = correct and set(values) == set(units)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": float(value), "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
